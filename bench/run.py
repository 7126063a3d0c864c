#!/usr/bin/env python3
"""vanetbench benchmark: run a workload, check its outputs, print its metrics.

    python3 bench/run.py --workload aodv-contention --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --seconds 20          # every workload in turn

Run from any directory of a source checkout; the simulator is imported from
`src/` beside this directory. Each job (one scenario, or one batch) runs in a
fresh interpreter so that set-up time includes the imports.

--trace 0 runs the workload's scenario set untraced and prints the end-to-end
metrics. --trace 1 runs scenario 0 untraced and then traced, and prints the
per-layer metrics of the traced run. Each workload's report ends with one
JSON line, {"correct", "attempted", "failed", "metrics"}; with --workload it is
the last line of standard output.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
RUN_LIMIT_S = 170.0        # a whole invocation must end within 180 s

sys.path.insert(0, str(SRC))

import jobs    # noqa: E402
import spans   # noqa: E402

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


# -- launching jobs -------------------------------------------------------------------

def launch(spec: dict, timeout: float) -> dict:
    """Run one job in a fresh interpreter; the job prints its result as JSON."""
    spec = dict(spec, spawn_t=time.monotonic())
    cmd = [sys.executable, str(Path(__file__).resolve()), "--job", json.dumps(spec)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, cwd=ROOT, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"timed out after {timeout:.0f} s"}
    finally:
        if proc.poll() is None:      # timed out or interrupted: stop the job's
            os.killpg(proc.pid, signal.SIGKILL)    # whole group, pool workers too
            proc.communicate()
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = err.strip().splitlines()[-1:] or [f"exit status {proc.returncode}"]
        return {"ok": False, "error": f"job printed no result: {tail[0]}"}


def launch_in_process(spec: dict, timeout: float) -> dict:
    """Run one job in this interpreter (tests); set-up then excludes the imports."""
    return jobs.run_job(dict(spec, spawn_t=time.monotonic()))


# -- one benchmark run ------------------------------------------------------------------

def plan_jobs(w, seed: int, seconds: int, trace: bool):
    """(scenario seed, traced) per job.

    Untraced: distinct scenarios sized to fill `seconds` on the reference box,
    then scenario 0 again as the determinism repeat. Traced: scenario 0
    untraced, then traced."""
    first = jobs.scenario_seed(seed, 0)
    if trace:
        return [(first, False), (first, True)]
    k = max(1, round(seconds / w.nominal_s) - 1)
    return [(jobs.scenario_seed(seed, i), False) for i in range(k)] + [(first, False)]


def measure(workload: str, seed: int, seconds: int, trace: bool,
            duration: float | None = None, launcher=launch) -> dict:
    """Run the jobs of one benchmark run and derive its metrics and verdict."""
    w = jobs.WORKLOADS[workload]
    duration = w.duration if duration is None else duration
    deadline = time.monotonic() + RUN_LIMIT_S
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT))
    results = []
    try:
        for i, (scenario, traced) in enumerate(plan_jobs(w, seed, seconds, trace)):
            job_dir = work / f"job{i}"
            job_dir.mkdir()
            spec = {"workload": workload, "seed": scenario, "duration": duration,
                    "trace": traced, "work_dir": str(job_dir)}
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                result = {"ok": False, "error": "no time left in the run limit"}
            else:
                result = launcher(spec, remaining)
            result.update(seed=scenario, traced=traced)
            results.append(result)
            shutil.rmtree(job_dir, ignore_errors=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # every later job re-runs scenario 0 and must reproduce its behaviour
    reference = results[0]
    for r in results[1:]:
        if r["seed"] == reference["seed"] and r["ok"] and reference["ok"] \
                and r["outputs"]["digest"] != reference["outputs"]["digest"]:
            r.update(ok=False, error="behaviour digest differs from scenario 0's first run")
    if trace:
        metrics = _traced_metrics(results)
    else:
        metrics = _end_to_end_metrics(results)
    failed = sum(not r["ok"] for r in results)
    return {"workload": workload, "seed": seed, "jobs": results,
            "correct": failed == 0 and metrics is not None,
            "attempted": len(results), "failed": failed, "metrics": metrics}


def _end_to_end_metrics(results):
    """Each metric's median over the scenarios of the mean over each scenario's jobs.

    Averaging the repeat with its first run weighs every scenario alike; the
    median keeps a burst of load that slows one job from moving the figure."""
    by_seed = {}
    for r in results:
        if r["ok"]:
            by_seed.setdefault(r["seed"], []).append(r)
    if not by_seed:
        return None
    return {name: (statistics.median(statistics.fmean(r[name] for r in runs)
                                     for runs in by_seed.values()), unit)
            for name, unit in END_TO_END_UNITS.items()}


def _traced_metrics(results):
    untraced, traced = results
    if not (untraced["ok"] and traced["ok"]):
        return None
    out = traced["outputs"]
    if "worker_spans" in out:        # batch: spans were taken in the pool workers
        snap, run_walls, workers = out["worker_spans"], out["run_walls"], out["workers"]
    else:
        snap, run_walls, workers = traced["spans"], [traced["host_wall_s"]], 1
    wall = traced["host_wall_s"]
    total = spans.self_time_total(snap)
    if total > workers * wall:
        traced.update(ok=False, error=f"self times sum to {total:.4f} s, more than "
                                      f"{workers} x the traced wall {wall:.4f} s")
        return None
    return spans.layer_metrics(
        snap, out["agg"], run_walls, workers, wall, untraced["host_wall_s"],
        untraced["wall_s"], {"import_s": untraced["import_s"], "build_s": untraced["build_s"]},
        out["lane_changes"], out["trace_bytes"])


# -- reporting ---------------------------------------------------------------------------

def machine_info() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy_version}


def _fmt(value) -> str:
    if value is None:
        return "-"
    return f"{value:.4f}" if isinstance(value, float) else str(value)


def print_report(run: dict, machine: dict):
    print(f"vanetbench benchmark: workload={run['workload']} seed={run['seed']}")
    for i, r in enumerate(run["jobs"]):
        head = f"  job {i}: scenario seed {r['seed']}{' traced' if r['traced'] else ''}"
        if not r["ok"]:
            print(f"{head}: FAILED: {r['error']}")
            if "traceback" in r:
                print(r["traceback"], file=sys.stderr)
            continue
        o = r["outputs"]
        times = (f"host_wall_s={r['host_wall_s']:.4f} host_setup_s={r['host_setup_s']:.4f} "
                 f"setup_s={r['setup_s']:.4f}")
        if "speed" in r:
            times += f" speed={r['speed']:.4f} wall_s={r['wall_s']:.4f}"
        print(f"{head}: events={o['events']} pdr={_fmt(o['pdr'])} nrl={_fmt(o['nrl'])} "
              f"lane_changes={o['lane_changes']} forwards={o['forwards']} "
              f"control_tx={o['control_tx']} trace_mb={o['trace_bytes'] / 1e6:.3f} "
              f"digest={o['digest'][:16]} {times}")
    print(f"  error_rate {run['failed'] / run['attempted']:.4f} "
          f"({run['failed']} of {run['attempted']} runs failed)")
    for name, (value, unit) in (run["metrics"] or {}).items():
        print(f"  {name} = {_fmt(value)} {unit}")
    print("machine " + json.dumps(machine))


def result_line(run: dict) -> str:
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in run["metrics"].items()}
    return json.dumps({"correct": run["correct"], "attempted": run["attempted"],
                       "failed": run["failed"], "metrics": metrics})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(jobs.WORKLOADS),
                        help="the workload to run (default: every workload in turn)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--job", help=argparse.SUPPRESS)   # internal: one job as JSON
    args = parser.parse_args(argv)
    if args.job:
        print(json.dumps(jobs.run_job(json.loads(args.job))))
        return 0
    if not (SRC / "vanetbench" / "__init__.py").is_file():
        print(f"error: no simulator source at {SRC / 'vanetbench'}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    # on SIGTERM, unwind so that the running job is stopped and scratch removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    status = 0
    for workload in [args.workload] if args.workload else list(jobs.WORKLOADS):
        machine = machine_info()
        machine["loadavg_before"] = os.getloadavg()
        run = measure(workload, args.seed, args.seconds, bool(args.trace))
        machine["loadavg_after"] = os.getloadavg()
        print_report(run, machine)
        if run["metrics"] is None:
            print(f"error: {workload}: no run completed, so nothing was measured",
                  file=sys.stderr)
            status = 1
        else:
            print(result_line(run))
    return status


if __name__ == "__main__":
    sys.exit(main())
