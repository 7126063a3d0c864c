"""Span tracer for the traced benchmark run.

The tracer wraps the public entry points of each `vanetbench` layer, and every
event action handed to `Simulator.schedule`, in spans kept on one stack. A
span's self time is its duration minus the time of the spans nested in it, so
the self times of all layers add up to at most the traced interval. Nothing
under `src/` is edited: the wrappers are installed on the classes and modules
at run time and removed again by `restore()`.
"""

import time
from collections import defaultdict

# Event targets are labelled "<prefix>.<what>"; the prefix names the layer.
TARGET_LAYERS = {
    "world": "mobility",
    "channel": "channel",
    "mac": "mac",
    "aodv": "routing",
    "aomdv": "routing",
    "dsdv": "routing",
    "olsr": "routing",
    "cbr": "agents",
    "pbc": "agents",
}

# The tracer's own bookkeeping around each scheduled event; counted in the
# total self time but reported as no layer's.
TRACER_LAYER = "trace"
# Layers whose self time is reported as "<layer>.self_s".
SELF_LAYERS = ("core", "phy", "channel", "mac", "routing", "mobility", "agents")
# Trace-sink sub-layers, reported as "<sub-layer>_s".
METRICS_LAYERS = ("metrics.trace_add", "metrics.aggregator", "metrics.file_write",
                  "metrics.report")

ROUTING_HOOKS = ("start", "on_data_to_send", "on_packet_arrival", "on_control",
                 "on_link_break")
REPORT_FUNCTIONS = ("conservation_check", "build_report", "delay_series",
                    "jitter_series")


def target_layer(target: str) -> str:
    return TARGET_LAYERS.get(target.split(".", 1)[0], "other")


class Patches:
    """Attributes of classes and modules replaced until restore()."""

    def __init__(self):
        self._patches: list[tuple] = []

    def replace(self, owner, attr: str, new):
        """Set attribute `attr` of a class or module to `new` until restore()."""
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


class Tracer(Patches):
    """Span stack with self time per layer, inclusive time and calls per span name."""

    def __init__(self):
        super().__init__()
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = defaultdict(int)
        self._stack: list[list[float]] = []

    def wrap(self, name: str, layer: str, fn):
        stack, self_s, incl_s, calls = self._stack, self.self_s, self.incl_s, self.calls
        clock = time.perf_counter

        def span(*args, **kwargs):
            frame = [0.0]              # time covered by nested spans
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                incl_s[name] += elapsed
                calls[name] += 1
                if stack:
                    stack[-1][0] += elapsed

        return span

    def patch(self, owner, attr: str, name: str, layer: str):
        """Wrap a function of a class or module in a span."""
        self.replace(owner, attr, self.wrap(name, layer, vars(owner)[attr]))

    def install(self):
        """Wrap every layer's entry points; call restore() to undo."""
        from vanetbench import cli, core, metrics, mobility, phy
        from vanetbench.agents import PbcAgent
        from vanetbench.mac import Channel, NodeMac
        from vanetbench.routing import PROTOCOLS, RoutingProtocol

        calls, wrap = self.calls, self.wrap
        schedule = wrap("core.schedule", "core", core.Simulator.schedule)

        def traced_schedule(sim, at, action, target=""):
            # wrapping the action is the tracer's own work: its span keeps that
            # cost out of core.self_s and out of the calling layer's self time
            target = target or getattr(action, "__qualname__", "?")
            calls["sched:" + target] += 1
            return schedule(sim, at, wrap("ev:" + target, target_layer(target), action),
                            target)

        self.replace(core.Simulator, "schedule",
                     wrap("trace.schedule", TRACER_LAYER, traced_schedule))
        self.patch(core.Simulator, "cancel", "core.cancel", "core")
        self.patch(core.Simulator, "run_until", "core.run_until", "core")

        for fn in ("path_loss_db", "shape_m", "frame_outcome_mw"):
            self.patch(phy, fn, f"phy.{fn}", "phy")
        for attr in ("transmit", "busy_tx", "bump_geometry"):
            self.patch(Channel, attr, f"channel.{attr}", "channel")
        for attr in ("enqueue_packet", "frame_received", "own_tx_ended",
                     "resume_contention", "medium_busy"):
            self.patch(NodeMac, attr, f"mac.{attr}", "mac")
        for cls in (RoutingProtocol, *PROTOCOLS.values()):
            for attr in ROUTING_HOOKS:
                if attr in cls.__dict__:
                    self.patch(cls, attr, f"routing.{attr}", "routing")
        self.patch(mobility.VehicleWorld, "step", "mobility.step", "mobility")
        self.patch(PbcAgent, "on_accel", "agents.on_accel", "agents")

        self.patch(metrics.Trace, "add", "metrics.trace_add", "metrics.trace_add")
        self.patch(metrics.TraceAggregator, "add", "metrics.aggregator",
                   "metrics.aggregator")
        self.patch(metrics.TraceFileWriter, "add", "metrics.file_write",
                   "metrics.file_write")
        for module in (metrics, cli):
            for fn in REPORT_FUNCTIONS:
                self.patch(module, fn, f"metrics.{fn}", "metrics.report")
        for fn in ("_write_metrics_csv", "_write_series_csv"):
            self.patch(cli, fn, f"metrics.{fn}", "metrics.report")

    def snapshot(self) -> dict:
        return {"self_s": dict(self.self_s), "incl_s": dict(self.incl_s),
                "calls": dict(self.calls)}


def diff(after: dict, before: dict) -> dict:
    """Per-key difference of two snapshots (after - before)."""
    return {part: {k: v - before[part].get(k, 0) for k, v in after[part].items()}
            for part in after}


def merge(snaps) -> dict:
    out = {"self_s": {}, "incl_s": {}, "calls": {}}
    for snap in snaps:
        for part, values in snap.items():
            acc = out[part]
            for k, v in values.items():
                acc[k] = acc.get(k, 0) + v
    return out


def aggregator_counts(agg) -> dict:
    """The aggregator's record counts, JSON-safe, plus control transmissions."""
    counts = {"|".join(key): n for key, n in agg.counts.items()}
    counts["control_tx"] = agg.control_tx
    return counts


def _count(agg: dict, layer=None, kind=None, event=None, reason=None) -> int:
    total = 0
    for key, n in agg.items():
        if key == "control_tx":
            continue
        l, k, e, r = key.split("|")
        if ((layer is None or l == layer) and (kind is None or k == kind)
                and (event is None or e == event) and (reason is None or r == reason)):
            total += n
    return total


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def self_time_total(snap: dict) -> float:
    return sum(snap["self_s"].values())


def layer_metrics(snap: dict, agg: dict, run_walls: list, workers: int,
                  traced_wall: float, untraced_wall: float, untraced_ref_wall: float,
                  setup: dict,
                  lane_changes: int, trace_bytes: int) -> dict:
    """Per-layer metrics of one traced run, as {name: (value, unit)}.

    Walls are host seconds, except `untraced_ref_wall`, the untraced run's wall
    in reference seconds (see speed.py)."""
    self_s, incl, calls = snap["self_s"], snap["incl_s"], snap["calls"]
    dispatched = sum(n for k, n in calls.items() if k.startswith("ev:"))
    scheduled = sum(n for k, n in calls.items() if k.startswith("sched:"))
    tx = calls.get("channel.transmit", 0)
    frames_rx = calls.get("mac.frame_received", 0)
    path_loss = calls.get("phy.path_loss_db", 0)
    backoff_sched = calls.get("sched:mac.backoff", 0)
    backoff_fired = calls.get("ev:mac.backoff", 0)
    records = _count(agg)
    pbc_received = _count(agg, layer="app", kind="pbc", event="received")
    pbc_lost = _count(agg, layer="mac", kind="pbc", event="dropped")
    out = {
        "core.dispatched": (dispatched, "count"),
        "core.scheduled": (scheduled, "count"),
        "core.scheduled_per_dispatched": (_ratio(scheduled, dispatched), "ratio"),
        "core.events_per_s": (_ratio(dispatched, untraced_ref_wall), "1/s"),
        "mac.enqueued": (calls.get("mac.enqueue_packet", 0), "count"),
        "mac.ifq_drops": (_count(agg, layer="mac", event="dropped", reason="ifq"), "count"),
        "mac.backoff_scheduled": (backoff_sched, "count"),
        "mac.backoff_fired": (backoff_fired, "count"),
        "mac.backoff_fired_share": (_ratio(backoff_fired, backoff_sched), "ratio"),
        "mac.acks_sent": (calls.get("ev:mac.ack", 0), "count"),
        "mac.ack_timeouts": (calls.get("ev:mac.ack_timeout", 0), "count"),
        "mac.frames_received": (frames_rx, "count"),
        "channel.tx": (tx, "count"),
        "channel.tx_s": (incl.get("channel.transmit", 0.0), "s"),
        "channel.tx_end_s": (incl.get("ev:channel.tx_end", 0.0), "s"),
        "channel.frames_received_per_tx": (_ratio(frames_rx, tx), "ratio"),
        "channel.rx_success_share": (_ratio(pbc_received, pbc_received + pbc_lost), "ratio"),
        "channel.link_budget_reuse": (1.0 - _ratio(path_loss, tx), "ratio"),
        "phy.path_loss_calls": (path_loss, "count"),
        "phy.path_loss_s": (incl.get("phy.path_loss_db", 0.0), "s"),
        "routing.arrivals": (calls.get("routing.on_packet_arrival", 0), "count"),
        "routing.forwards": (_count(agg, layer="routing", event="forwarded"), "count"),
        "routing.control_tx": (agg.get("control_tx", 0), "count"),
        "metrics.records": (records, "count"),
        "metrics.records_per_event": (_ratio(records, dispatched), "ratio"),
        "metrics.pbc_outcome_share": (_ratio(pbc_received + pbc_lost, records), "ratio"),
        "metrics.trace_mb": (trace_bytes / 1e6, "MB"),
        "mobility.steps": (calls.get("mobility.step", 0), "count"),
        "mobility.step_s": (incl.get("mobility.step", 0.0), "s"),
        "mobility.lane_changes": (lane_changes, "count"),
        "agents.cbr_sent": (_count(agg, layer="app", kind="cbr", event="sent"), "count"),
        "agents.pbc_sent": (_count(agg, layer="app", kind="pbc", event="sent"), "count"),
        "setup.import_s": (setup["import_s"], "s"),
        "setup.build_s": (setup["build_s"], "s"),
        "cli.workers": (workers, "count"),
        "cli.worker_busy_share": (_ratio(sum(run_walls), workers * traced_wall), "ratio"),
        "cli.longest_run_s": (max(run_walls), "s"),
        "trace.overhead_share": (_ratio(traced_wall, untraced_wall) - 1.0, "ratio"),
    }
    for layer in SELF_LAYERS:
        out[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    for layer in METRICS_LAYERS:
        out[f"{layer}_s"] = (self_s.get(layer, 0.0), "s")
    return out
