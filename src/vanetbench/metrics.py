"""Packet-trace collection and the QoS / performance metrics computed from it.

Trace file format (stable, versioned): one record per line, space-separated
columns `time event reason layer kind packet_id flow_id node size`; absent
flow ids are written as `-`. Two header lines, each starting with `#`, give
the version and the column names.

Most records are the outcomes of beacon (pbc) broadcasts, one per hearer. They
reach the sinks as one block per broadcast (`Trace.add_pbc_block`): the
hearers, and the outcomes of those that were not lost to fading. Each sink
turns a block into exactly the records, lines and counts that one `add` per
outcome would give; the file format does not depend on how records arrive.

The run's TraceAggregator is the one ledger every metric reads. `read_trace`
fills a new one from a trace file, so a report re-read from the file equals
the run's own.
"""

import math
from dataclasses import dataclass, field, fields

from .packets import KIND_CBR, KIND_CONTROL, KIND_PBC

TRACE_VERSION = "vanetbench-trace v1"
TRACE_COLUMNS = ("time", "event", "reason", "layer", "kind",
                 "packet_id", "flow_id", "node", "size")
TRACE_HEADER = f"#{TRACE_VERSION}\n#{' '.join(TRACE_COLUMNS)}\n"

EV_SENT = "sent"
EV_RECEIVED = "received"
EV_FORWARDED = "forwarded"
EV_DROPPED = "dropped"

LAYER_APP = "app"
LAYER_ROUTING = "routing"
LAYER_MAC = "mac"

# a beacon's outcome at one hearer -> (event, reason, layer) of its record: a
# reception at the app layer, or a MAC drop whose reason is the channel's outcome
PBC_OUTCOMES = {EV_RECEIVED: (EV_RECEIVED, "none", LAYER_APP),
                "fading": (EV_DROPPED, "fading", LAYER_MAC),
                "collision": (EV_DROPPED, "collision", LAYER_MAC)}
# the outcome of each hearer that a block lists no outcome for
PBC_DEFAULT = "fading"
# the same records as aggregator count keys (layer, kind, event, reason)
PBC_KEYS = {outcome: (layer, KIND_PBC, event, reason)
            for outcome, (event, reason, layer) in PBC_OUTCOMES.items()}


def pbc_outcomes(hearers, outcomes):
    """A block's outcome at every hearer, in hearer order."""
    got = dict(outcomes)
    return [(node, got.get(node, PBC_DEFAULT)) for node in hearers]


class TraceCorruptionError(RuntimeError):
    """The trace violates an accounting invariant (e.g. receive without send)."""


class Trace:
    """Append-only record stream fanned out to sinks: the run's aggregator, and
    a file writer whose file `read_trace` reads back into an aggregator.

    A sink takes single records through `add` and the outcomes of one beacon
    broadcast through `add_pbc_block`; both give the same records in the same
    order.
    """

    def __init__(self):
        self._sinks: list = []

    def attach(self, sink):
        self._sinks.append(sink)
        return sink

    def add(self, time, event, reason, layer, kind, packet_id, flow_id, node, size):
        for sink in self._sinks:
            sink.add(time, event, reason, layer, kind, packet_id, flow_id, node, size)

    def add_pbc_block(self, time, packet_id, size, hearers, outcomes):
        """The records of one beacon broadcast at its hearers.

        Preconditions, which the sinks rely on without checking: `hearers`
        lists node ids in ascending order, each once; `outcomes` holds
        (node, outcome) for each hearer whose outcome is not PBC_DEFAULT, every
        node a hearer and the pairs in hearer order, each outcome a key of
        PBC_OUTCOMES."""
        for sink in self._sinks:
            sink.add_pbc_block(time, packet_id, size, hearers, outcomes)


class TraceFileWriter:
    """Line-oriented sink; float times use repr so runs replay byte-identically."""

    def __init__(self, fh):
        self.fh = fh
        self._tails: list[str] = []     # f"{node} {size}\n" for node ids 0..len - 1
        self._size = None               # the beacon size of those tails
        fh.write(TRACE_HEADER)

    def add(self, time, event, reason, layer, kind, packet_id, flow_id, node, size):
        fid = "-" if flow_id is None else flow_id
        self.fh.write(f"{time!r} {event} {reason} {layer} {kind} "
                      f"{packet_id} {fid} {node} {size}\n")

    def add_pbc_block(self, time, packet_id, size, hearers, outcomes):
        """Write the block's lines with one join, each line the head of its
        outcome and the cached tail of its node. Relies on the preconditions of
        `Trace.add_pbc_block`: with `hearers` ascending, its last id is the
        largest, and each decided hearer lies after the one before it."""
        tails = self._tails
        if size != self._size:
            tails.clear()
            self._size = size
        if hearers and hearers[-1] >= len(tails):
            tails.extend([f"{node} {size}\n" for node in range(len(tails), hearers[-1] + 1)])
        t = repr(time)
        head = {outcome: f"{t} {event} {reason} {layer} {KIND_PBC} {packet_id} - "
                for outcome, (event, reason, layer) in PBC_OUTCOMES.items()}
        parts = [head[PBC_DEFAULT]] * (2 * len(hearers))     # head, tail, head, tail...
        parts[1::2] = [tails[node] for node in hearers]
        i = 0
        for node, outcome in outcomes:
            i = hearers.index(node, i)
            parts[2 * i] = head[outcome]
        self.fh.write("".join(parts))


class TraceAggregator:
    """Streaming aggregation of the counts and series every metric needs.

    It is also the one record of each cbr packet's state: a packet is open from
    its app sent record until its one terminal record, a reception at the app
    layer or a drop at any layer. The nodes write those records; the
    aggregator checks them and says which packets are still open.
    """

    def __init__(self):
        self.counts: dict[tuple, int] = {}           # (layer, kind, event, reason) -> n
        self.cbr_sent_bytes = 0                      # app-layer cbr bytes
        self.cbr_recv_bytes = 0
        self.control_tx = 0                          # MAC transmissions of control packets
        self.control_tx_bytes = 0
        self.sent_meta: dict[int, tuple] = {}        # cbr pid -> (t, flow, node, size)
        self.recv_events: list[tuple] = []           # (t_recv, pid, flow)
        self.terminal: set[int] = set()              # cbr pids with a terminal record

    def add(self, time, event, reason, layer, kind, packet_id, flow_id, node, size):
        key = (layer, kind, event, reason)
        counts = self.counts
        counts[key] = counts.get(key, 0) + 1
        if kind == KIND_CBR or kind == KIND_CONTROL:
            self._track(time, event, layer, kind, packet_id, flow_id, node, size)

    def _track(self, time, event, layer, kind, packet_id, flow_id, node, size):
        """The ledger's rules for one counted cbr or control record."""
        if kind == KIND_CBR:
            received = event == EV_RECEIVED and layer == LAYER_APP
            if event == EV_SENT and layer == LAYER_APP:
                if packet_id in self.sent_meta:
                    raise TraceCorruptionError(f"duplicate sent for packet {packet_id}")
                self.sent_meta[packet_id] = (time, flow_id, node, size)
                self.cbr_sent_bytes += size
            elif received or event == EV_DROPPED:       # the packet's terminal record
                if received and packet_id not in self.sent_meta:
                    raise TraceCorruptionError(
                        f"receive without matching send for packet {packet_id}")
                if packet_id in self.terminal:
                    raise TraceCorruptionError(f"packet {packet_id} terminated twice")
                self.terminal.add(packet_id)
                if received:
                    self.recv_events.append((time, packet_id, flow_id))
                    self.cbr_recv_bytes += size
        elif event == EV_SENT and layer == LAYER_MAC:
            self.control_tx += 1
            self.control_tx_bytes += size

    def open_packets(self):
        """(pid, flow, node, size) of each cbr packet sent but not yet
        terminated, by ascending pid; node is the packet's source."""
        for pid in sorted(self.sent_meta.keys() - self.terminal):
            _, flow, node, size = self.sent_meta[pid]
            yield pid, flow, node, size

    def add_pbc_block(self, time, packet_id, size, hearers, outcomes):
        counts = self.counts
        lost = PBC_KEYS[PBC_DEFAULT]
        if lost not in counts:
            # count hearer by hearer, so the keys enter `counts` in record order
            outcomes = pbc_outcomes(hearers, outcomes)
        else:
            counts[lost] += len(hearers) - len(outcomes)
        for _, outcome in outcomes:
            key = PBC_KEYS[outcome]
            counts[key] = counts.get(key, 0) + 1

    @property
    def drops_by_reason(self) -> dict[str, dict[str, int]]:
        """kind -> reason -> dropped records, over every layer."""
        out: dict[str, dict[str, int]] = {}
        for (_, kind, event, reason), n in self.counts.items():
            if event == EV_DROPPED:
                per = out.setdefault(kind, {})
                per[reason] = per.get(reason, 0) + n
        return out

    # -- raw counts ---------------------------------------------------------

    def count(self, layer=None, kind=None, event=None) -> int:
        total = 0
        for (l, k, e, _), n in self.counts.items():
            if ((layer is None or l == layer) and (kind is None or k == kind)
                    and (event is None or e == event)):
                total += n
        return total

    def sent(self, kind=KIND_CBR) -> int:
        return self.count(layer=LAYER_APP, kind=kind, event=EV_SENT)

    def received(self, kind=KIND_CBR) -> int:
        return self.count(layer=LAYER_APP, kind=kind, event=EV_RECEIVED)

    def forwards(self, kind=KIND_CBR) -> int:
        return self.count(layer=LAYER_ROUTING, kind=kind, event=EV_FORWARDED)


_TRACKED_KINDS = (KIND_CBR.encode(), KIND_CONTROL.encode())


def read_trace(path) -> TraceAggregator:
    """The aggregator of a trace file, filled as the run's own was. Every line
    counts under its key; only cbr and control records, whose numbers the
    ledger reads, are parsed and go through its rules. A line without nine
    columns, with numbers that do not parse, or that breaks a cbr packet's
    life is a TraceCorruptionError naming the file and line."""
    agg = TraceAggregator()
    counts: dict[tuple, int] = {}                   # the count keys, as bytes
    with open(path, "rb") as fh:
        if fh.readline() + fh.readline() != TRACE_HEADER.encode():
            raise TraceCorruptionError(f"{path}: no {TRACE_VERSION} header")
        for n, cols in enumerate(map(bytes.split, fh), 3):
            try:
                t, event, reason, layer, kind, pid, fid, node, size = cols
                key = (layer, kind, event, reason)
                counts[key] = counts.get(key, 0) + 1
                if kind in _TRACKED_KINDS:
                    agg._track(float(t), event.decode(), layer.decode(), kind.decode(),
                               int(pid), None if fid == b"-" else int(fid), int(node),
                               int(size))
            except (ValueError, TraceCorruptionError) as exc:
                if cols:                            # a blank line is skipped
                    if len(cols) != len(TRACE_COLUMNS):
                        exc = f"{len(cols)} columns, not {len(TRACE_COLUMNS)}"
                    raise TraceCorruptionError(f"{path}, line {n}: {exc}") from None
    agg.counts = {tuple(map(bytes.decode, key)): c for key, c in counts.items()}
    return agg


# ---------------------------------------------------------------------------
# metric operations: each reads a run's aggregator and measures the cbr class

def _by_receive_time(rows):
    """(t, value) of each (t, value, flow) row, by t and then flow (None first)."""
    rows.sort(key=lambda x: (x[0], x[2] if x[2] is not None else -1))
    return [(t, v) for t, v, _ in rows]


def delay_series(agg: TraceAggregator):
    """Per delivered packet (receive time, delay), ordered by receive time."""
    return _by_receive_time([(t, t - agg.sent_meta[pid][0], flow)
                             for t, pid, flow in agg.recv_events])


def jitter_series(agg: TraceAggregator):
    """Signed delay differences between consecutive deliveries of the same flow,
    merged across flows by receive time."""
    flows: dict = {}
    for t, pid, flow in sorted(agg.recv_events):
        flows.setdefault(flow, []).append((t, t - agg.sent_meta[pid][0]))
    return _by_receive_time([(t, d - d_prev, flow) for flow, delays in flows.items()
                             for (_, d_prev), (t, d) in zip(delays, delays[1:])])


def average_throughput(agg: TraceAggregator) -> float:
    """Received bits over the flow window (last receive - first send), in kbit/s."""
    if agg.received() == 0:
        raise ValueError("average throughput undefined with zero deliveries")
    span = (max(t for t, _, _ in agg.recv_events)
            - min(meta[0] for meta in agg.sent_meta.values()))
    if span <= 0:
        raise ValueError("zero-length throughput window")
    return agg.cbr_recv_bytes * 8.0 / span / 1000.0


def conservation_check(agg: TraceAggregator) -> dict:
    """sent == received + sum(dropped-by-reason) for the unicast data class.

    Broadcast classes carry one outcome record per candidate receiver, so the
    identity is only meaningful for point-to-point traffic.
    """
    sent = agg.sent()
    received = agg.received()
    drops = agg.drops_by_reason.get(KIND_CBR, {})
    dropped = sum(drops.values())
    if sent != received + dropped:
        raise TraceCorruptionError(
            f"conservation violated: sent={sent} received={received} "
            f"dropped={dropped} by reason {drops}")
    return {"sent": sent, "received": received, "dropped": dropped, "by_reason": drops}


@dataclass
class MetricsReport:
    """All table metrics of the cbr class for one run."""

    sent: int
    received: int
    dropped: int                        # sent - received
    throughput_sent_bytes: int
    throughput_recv_bytes: int
    pdr: float | None                   # delivery ratio in percent; None if nothing sent
    drop_pct: float | None              # 100 - pdr
    avg_throughput_kbps: float | None   # average_throughput; None when undefined
    nrl: float | None                   # routing-control MAC transmissions per delivery
    route_cost: float                   # routing-control bytes per data byte sent;
                                        # 0 without control, inf without data
    mean_hop: float | None              # hops per delivery, 1 + forwards / deliveries
    mean_hop_raw: float | None          # forwards / sent, the conflated reading
    drops_by_reason: dict = field(default_factory=dict)

    def rows(self):
        """(name, value) of every metric field, in field order."""
        return [(f.name, getattr(self, f.name)) for f in fields(self)
                if f.name != "drops_by_reason"]


def build_report(agg: TraceAggregator, duration=None) -> MetricsReport:
    """The metrics of one run; ratios over zero deliveries (or sends) are None.
    `duration` is ignored: the benchmark's job runner still passes it."""
    sent, received, forwards = agg.sent(), agg.received(), agg.forwards()
    pdr = received / sent * 100.0 if sent else None
    try:
        avg = average_throughput(agg)
    except ValueError:
        avg = None
    if agg.control_tx_bytes == 0:
        route_cost = 0.0
    elif agg.cbr_sent_bytes == 0:
        route_cost = math.inf
    else:
        route_cost = agg.control_tx_bytes / agg.cbr_sent_bytes
    return MetricsReport(
        sent=sent,
        received=received,
        dropped=sent - received,
        throughput_sent_bytes=agg.cbr_sent_bytes,
        throughput_recv_bytes=agg.cbr_recv_bytes,
        pdr=pdr,
        drop_pct=None if pdr is None else 100.0 - pdr,
        avg_throughput_kbps=avg,
        nrl=agg.control_tx / received if received else None,
        route_cost=route_cost,
        mean_hop=1.0 + forwards / received if received else None,
        mean_hop_raw=forwards / sent if sent else None,
        drops_by_reason=dict(agg.drops_by_reason.get(KIND_CBR, {})),
    )
