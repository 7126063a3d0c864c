"""Workload table and the body of one benchmark job.

A job is one simulation (or one `vanetbench batch`) of one workload at one
scenario seed. `run.py` starts each job in a fresh interpreter, so set-up time
covers the imports; `run_job` is the code that interpreter executes. Nothing
from `vanetbench` is imported at module level, because importing it is part of
what a job measures.
"""

import hashlib
import json
import os
import resource
import statistics
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import spans
import speed


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mode: str                 # "memory": Simulation.run; "cli-run": cli.execute_run; "batch"
    duration: float           # simulated seconds of one scenario
    nominal_s: float          # host seconds of one job on the reference 2-core box
    protocol: str = "aodv"
    mobility: str = "idm-im"
    vehicles: int = 100
    grid: tuple = (5, 5, 250.0)

    def config(self, seed: int, duration: float):
        from vanetbench.scenario import ScenarioConfig
        cfg = ScenarioConfig()
        cfg.routing.protocol = self.protocol
        cfg.mobility.model = self.mobility
        cfg.run.vehicles = self.vehicles
        cfg.graph.grid = self.grid
        cfg.run.duration = duration
        cfg.run.seed = seed
        return cfg


WORKLOADS = {w.name: w for w in (
    Workload("aodv-contention",
             "AODV floods and unicast ACK/retry make MAC contention and cancelled "
             "backoffs the hot layer; lazy backoff must show here",
             mode="memory", duration=2.0, nominal_s=2.6, protocol="aodv"),
    Workload("dsdv-trace-lc",
             "DSDV beacons through the full run path with a trace file: trace sinks "
             "dominate, contention is light, and only this run has lane changes",
             mode="cli-run", duration=20.0, nominal_s=7.0, protocol="dsdv",
             mobility="idm-lc"),
    Workload("olsr-dense-400",
             "OLSR with 400 vehicles at reference density for two TC intervals: link "
             "budgets and broadcast fan-out loop over all nodes, so channel vectorising "
             "and culling show",
             mode="memory", duration=10.0, nominal_s=17.0, protocol="olsr",
             vehicles=400, grid=(9, 9, 250.0)),
    Workload("paper-matrix",
             "The paper's deliverable: vanetbench batch over 4 protocols x 2 mobility "
             "models on nproc workers; the only workload that measures cli dispatch",
             mode="batch", duration=1.0, nominal_s=4.0),
)}

SCENARIO_SEED_STRIDE = 1_000_000


def scenario_seed(seed: int, k: int) -> int:
    """Seed of the k-th scenario of a run; scenario 0 uses the workload seed itself."""
    return seed + SCENARIO_SEED_STRIDE * k


def batch_jobs() -> int:
    """Workers for the paper matrix: nproc, capped at the 8 runs of the matrix."""
    return min(len(os.sched_getaffinity(0)), 8)


# -- digests -------------------------------------------------------------------

def file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def aggregator_sha256(result) -> str:
    """Behaviour digest of a run without a trace file: every record count plus
    the time of each delivery."""
    agg = result.aggregator
    state = (result.events, sorted(agg.counts.items()), agg.control_tx,
             agg.control_tx_bytes, agg.recv_events)
    return hashlib.sha256(repr(state).encode()).hexdigest()


# -- clock -----------------------------------------------------------------------

def _cpu_s() -> float:
    """User + system CPU seconds of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class RunClock:
    """Marks the first dispatched event and the completed run.

    Set-up ends with one speed probe; `probe`, if given, samples the host's
    speed from the first event to the end of the run."""

    def __init__(self, tracer, probe):
        self.tracer, self.probe = tracer, probe
        self.start_t = self.end_t = None
        self.setup_probe_s = None
        self.cpu0 = self.cpu1 = 0.0
        self.snap0 = self.snap1 = None

    def start(self):
        if self.start_t is None:
            self.setup_probe_s = speed.probe_s()
            self.start_t = time.monotonic()
            self.cpu0 = _cpu_s()
            if self.tracer is not None:
                self.snap0 = self.tracer.snapshot()
            if self.probe is not None:
                self.probe.start()

    def stop(self):
        if self.probe is not None:
            self.probe.tick(force=True)
        self.end_t = time.monotonic()
        self.cpu1 = _cpu_s()
        if self.tracer is not None:
            self.snap1 = self.tracer.snapshot()


# -- hooks installed from the benchmark's own files ----------------------------------

_last_result = None     # RunResult of this process's latest Simulation.run


def install_hooks(patches, probe):
    """Keep each simulation's result, and tick `probe` at every mobility step."""
    from vanetbench import mobility, simulation
    run = simulation.Simulation.run

    def keep_result(sim):
        global _last_result
        _last_result = run(sim)
        return _last_result

    patches.replace(simulation.Simulation, "run", keep_result)
    if probe is not None:
        step = mobility.VehicleWorld.step

        def probed_step(world, dt):
            probe.tick()
            return step(world, dt)

        patches.replace(mobility.VehicleWorld, "step", probed_step)


def routing_outputs(agg) -> dict:
    forwards = sum(n for (layer, _, event, _), n in agg.counts.items()
                   if layer == "routing" and event == "forwarded")
    return {"forwards": forwards, "control_tx": agg.control_tx}


# -- workload bodies ---------------------------------------------------------------

def _run_memory(w, seed, duration, work_dir, clock):
    from vanetbench import metrics
    from vanetbench.simulation import Simulation
    cfg = w.config(seed, duration)
    result = Simulation(cfg).run()
    clock.stop()
    agg = result.aggregator
    metrics.conservation_check(agg)
    report = metrics.build_report(agg, duration=cfg.run.duration)
    return {"events": result.events, "pdr": report.pdr, "nrl": report.nrl,
            "lane_changes": result.warnings["lane_changes"], **routing_outputs(agg),
            "digest": aggregator_sha256(result), "trace_bytes": 0,
            "agg": spans.aggregator_counts(agg) if clock.tracer else None}


def _run_cli(w, seed, duration, work_dir, clock):
    from vanetbench import cli
    out = work_dir / "run"
    summary = cli.execute_run(w.config(seed, duration), out)
    clock.stop()
    agg = _last_result.aggregator
    trace_path = out / cli.TRACE_NAME
    return {"events": summary["events"], "pdr": summary["metrics"]["pdr"],
            "nrl": summary["metrics"]["nrl"],
            "lane_changes": summary["warnings"]["lane_changes"], **routing_outputs(agg),
            "digest": file_sha256(trace_path), "trace_bytes": trace_path.stat().st_size,
            "agg": spans.aggregator_counts(agg) if clock.tracer else None}


def _run_batch(w, seed, duration, work_dir, clock):
    from vanetbench import cli
    from vanetbench.scenario import MOBILITY_MODELS, PROTOCOLS
    out = work_dir / "batch"
    jobs = batch_jobs()
    argv = ["batch", "--protocols", ",".join(PROTOCOLS),
            "--mobilities", ",".join(MOBILITY_MODELS), "--seeds", str(seed),
            "--jobs", str(jobs), "--out", str(out), "--set", f"run.duration={duration}"]
    clock.start()
    status = cli.main(argv)
    clock.stop()
    if status != 0:
        raise RuntimeError(f"vanetbench batch exited with status {status}")
    run_dirs = sorted(p for p in out.iterdir() if p.is_dir())
    if len(run_dirs) != len(PROTOCOLS) * len(MOBILITY_MODELS):
        raise RuntimeError(f"batch wrote {len(run_dirs)} run directories")
    digest = hashlib.sha256()
    events = lane_changes = trace_bytes = 0
    pdrs, nrls, records = [], [], []
    for run_dir in run_dirs:
        trace_path = run_dir / cli.TRACE_NAME
        digest.update(f"{run_dir.name} {file_sha256(trace_path)}\n".encode())
        trace_bytes += trace_path.stat().st_size
        summary = json.loads((run_dir / cli.SUMMARY_NAME).read_text(encoding="utf-8"))
        events += summary["events"]
        lane_changes += summary["warnings"]["lane_changes"]
        pdrs.append(summary["metrics"]["pdr"])
        nrls.append(summary["metrics"]["nrl"])
        records.append(json.loads((run_dir / BATCH_RECORD_NAME).read_text("utf-8")))
    outputs = {"events": events, "pdr": _mean(pdrs), "nrl": _mean(nrls),
               "lane_changes": lane_changes,
               "forwards": sum(r["forwards"] for r in records),
               "control_tx": sum(r["control_tx"] for r in records),
               "digest": digest.hexdigest(), "trace_bytes": trace_bytes, "agg": None,
               "workers": jobs}
    if clock.tracer is None:
        outputs["speed"] = speed.merge(r["speed"] for r in records)
    else:
        outputs["agg"] = {}
        for r in records:
            for key, n in r["agg"].items():
                outputs["agg"][key] = outputs["agg"].get(key, 0) + n
        outputs["run_walls"] = [r["wall_s"] for r in records]
        outputs["worker_spans"] = spans.merge(r["spans"] for r in records)
    return outputs


def _mean(values):
    present = [v for v in values if v is not None]
    return statistics.fmean(present) if present else None


BODIES = {"memory": _run_memory, "cli-run": _run_cli, "batch": _run_batch}


# -- batch: each run records its speed samples or spans inside its pool worker -------

BATCH_RECORD_NAME = "bench-run.json"
_worker = None   # (tracer, probe) of this process's batch runs, once installed


def install_batch_hooks(patches, tracer, probe):
    """Make each batch run write a record of itself into its run directory.

    The pool workers are forked from, or spawned by, the job's process: a
    forked worker inherits the installed hooks, a spawned one installs its own
    through the pool initializer."""
    from concurrent.futures import ProcessPoolExecutor
    from functools import partial

    from vanetbench import cli
    global _worker
    _worker = (tracer, probe)
    patches.replace(cli, "ProcessPoolExecutor",
                    partial(ProcessPoolExecutor, initializer=_init_batch_worker,
                            initargs=(tracer is not None,)))
    execute_run = cli.execute_run

    def recorded_run(cfg, out_dir, force=False):
        t0 = time.monotonic()
        before = tracer.snapshot() if tracer is not None else None
        if probe is not None:
            probe.reset()
            probe.start()
        summary = execute_run(cfg, out_dir, force)
        if probe is not None:
            probe.tick(force=True)
        agg = _last_result.aggregator
        record = {"wall_s": time.monotonic() - t0, **routing_outputs(agg),
                  "speed": probe.state() if probe is not None else None}
        if tracer is not None:
            record.update(spans=spans.diff(tracer.snapshot(), before),
                          agg=spans.aggregator_counts(agg))
        (Path(out_dir) / BATCH_RECORD_NAME).write_text(json.dumps(record), encoding="utf-8")
        return summary

    patches.replace(cli, "execute_run", recorded_run)


def _init_batch_worker(traced: bool):
    if _worker is not None:         # forked worker: the hooks were inherited
        return
    tracer = spans.Tracer() if traced else None
    patches = tracer or spans.Patches()
    probe = None if traced else speed.SpeedProbe()
    if tracer is not None:
        tracer.install()
    install_hooks(patches, probe)
    install_batch_hooks(patches, tracer, probe)


# -- one job -------------------------------------------------------------------------

def run_job(spec: dict) -> dict:
    """Execute one job in this process; returns its timings and outputs.

    spec: workload, seed (scenario seed), duration (simulated s), trace (bool),
    work_dir, spawn_t (time.monotonic() when the process was started)."""
    start_probe_s = speed.probe_s()
    from vanetbench import cli, core  # noqa: F401  (importing is part of set-up)
    t_imported = time.monotonic()
    w = WORKLOADS[spec["workload"]]
    tracer = spans.Tracer() if spec["trace"] else None
    patches = tracer or spans.Patches()
    # a traced run is not probed: the probes would fall inside the spans
    probe = None if tracer else speed.SpeedProbe()
    clock = RunClock(tracer, None if w.mode == "batch" else probe)
    result = {"ok": False, "error": None, "seed": spec["seed"]}
    try:
        if tracer is not None:
            tracer.install()
        install_hooks(patches, probe)
        if w.mode == "batch":
            install_batch_hooks(patches, tracer, probe)
        run_until = core.Simulator.run_until

        def first_event(sim, t_end):
            clock.start()
            return run_until(sim, t_end)

        patches.replace(core.Simulator, "run_until", first_event)
        outputs = BODIES[w.mode](w, spec["seed"], spec["duration"],
                                 Path(spec["work_dir"]), clock)
        if clock.start_t is None or clock.end_t is None:
            raise RuntimeError("the run dispatched no event")
        samples = outputs.pop("speed", None) or (probe and probe.state())
        result.update(ok=True, outputs=outputs, peak_rss_mb=_peak_rss_mb(),
                      **_timings(spec, clock, start_probe_s, t_imported, samples,
                                 outputs.get("workers", 1)))
        if tracer is not None:
            result["spans"] = spans.diff(clock.snap1, clock.snap0)
    except Exception as exc:   # a failed run is counted in error_rate, not raised
        result.update(error=f"{type(exc).__name__}: {exc}", traceback=traceback.format_exc())
    finally:
        patches.restore()
    return result


def _timings(spec, clock, start_probe_s, t_imported, samples, workers) -> dict:
    """The job's host times without the probes, and the same in reference seconds.

    Set-up is scaled by the mean speed of its two probes, one at the start of
    the job and one at the first event; the run by the probes taken during it
    (`samples`; none in a traced run)."""
    setup_speed = (speed.speed_of(start_probe_s) + speed.speed_of(clock.setup_probe_s)) / 2
    import_s = t_imported - spec["spawn_t"] - start_probe_s
    build_s = clock.start_t - t_imported - clock.setup_probe_s
    out = {"import_s": import_s * setup_speed, "build_s": build_s * setup_speed,
           "setup_s": (import_s + build_s) * setup_speed,
           "host_setup_s": import_s + build_s,
           "host_wall_s": clock.end_t - clock.start_t,
           "host_cpu_s": clock.cpu1 - clock.cpu0}
    if samples:
        # the probes ran in parallel on the batch's workers
        out["host_wall_s"] -= samples["probe_s"] / workers
        out["host_cpu_s"] -= samples["probe_s"]
        out["speed"] = speed.factor(samples)
        out["wall_s"] = out["host_wall_s"] * out["speed"]
        out["cpu_s"] = out["host_cpu_s"] * out["speed"]
    return out


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0     # ru_maxrss is in KiB on Linux
