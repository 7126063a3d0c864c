"""Equivalence gate: does a change keep the behaviour of a base tree?

One harness, two tiers. Each comparison runs the base tree and the change
tree in two child processes, on the same scenarios and seeds, each child
importing `vanetbench` from its own tree's `src/`. The base is a local git
revision, extracted with `git archive` into a temporary directory, or a path;
the change is this tree unless `--change` names another.

Exact mode streams both runs' trace records over pipes and compares them
record by record as they arrive, in constant memory:

    python tests/equiv.py exact --base REV|PATH [--change PATH]
        (--workload NAME ... | --set SECTION.KEY=VALUE ...) [--seeds 1,7]
        [--time-tol 1e-12] [--context 5] [--mobility]
        [--change-set SECTION.KEY=VALUE ...] [--relabel LABEL ...]

`--workload` runs a benchmark workload's scenario (`bench/jobs.py`; the
paper matrix is its eight cells); `--set` items build one scenario from the
defaults. `--mobility` also compares the 1 s mobility rows. Verdict of each
run, and the exit status of the worst:

    0  identical          every record equal, byte for byte
    3  equal-up-to-time   the same records in the same order, every column but
                          time equal, and no time apart by more than --time-tol
    4  diverged           the first differing record on each side, its index,
                          and the records before it

Statistical mode runs the paper matrix (four protocols x two mobility models)
over `SEEDS` seeds of a `FRAME_S` s frame, in memory, and pairs the runs by
cell and seed, as common random numbers (Kurkowski, Camp and Colagrosso,
MC2R 2005). The eight cells of one seed share its vehicles, flows and stream
seeds, so their paired differences (change - base) are averaged per seed. A
metric passes when the 95 % t interval of the mean over the seeds lies inside
its margin in `METRICS`: two one-sided tests (Schuirmann, J. Pharmacokinet.
Biopharm. 1987).

    python tests/equiv.py stat --base REV|PATH [--change PATH]
        [--set ...] [--change-set ...] [--relabel LABEL ...]

    0  equivalent         every metric passes
    5  not-equivalent     some metric's interval leaves its margin

`--set` items change the frame on both sides; `--change-set` items and
`--relabel` (draw a named RNG stream under another label, which changes every
draw of it and nothing in the model) apply to the change side only. A child
that fails ends the harness with status 6, a usage error with 2, and an error
of the harness itself with Python's 1.
"""

import argparse
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from itertools import zip_longest
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

EXIT_IDENTICAL = EXIT_EQUIVALENT = 0
EXIT_USAGE, EXIT_EQUAL_UP_TO_TIME, EXIT_DIVERGED = 2, 3, 4
EXIT_NOT_EQUIVALENT, EXIT_CHILD_FAILED = 5, 6
VERDICT_EXIT = {"identical": EXIT_IDENTICAL, "equal-up-to-time": EXIT_EQUAL_UP_TO_TIME,
                "diverged": EXIT_DIVERGED}

# Statistical mode's frame, fixed before any change is measured: the default
# scenario (100 vehicles, 40 flows) for 30 s, which takes in two switches of the
# default 10 s signal phases, at seeds 1 to 10, so the interval has df 9.
FRAME_S = 30.0
SEEDS = 10

# metric -> (margin on the mean paired difference, unit, reason). The scales
# are the four protocols' means on this frame; "null" is the half-width of the
# 95 % interval when only the channel's RNG stream is relabelled. Each margin is
# at least 2.5 nulls. Margins are absolute and pooled over the protocols, so the
# noisiest set them: a shift of DSDV's or OLSR's NRL, delay or jitter by its
# whole size passes, as does one that swaps AODV's and OLSR's PDR (0.3 pp apart).
METRICS = {
    "pdr": (2.0, "pp", "DSDV 17, AODV and OLSR 27, AOMDV 36 %; null 0.6 pp"),
    "nrl": (5.0, "tx/delivery", "DSDV 4, OLSR 6, AOMDV 95, AODV 147; null 1.9"),
    "route_cost": (0.05, "B/B", "OLSR 0.13, DSDV 0.67, AODV 1.51, AOMDV 1.71; null 0.008"),
    "mean_hop": (1.0, "hops", "DSDV 2.7, AOMDV 4.5, AODV 7.8, OLSR 10; null 0.4"),
    "delay": (0.05, "s", "DSDV 0.01, OLSR 0.06, AOMDV 0.37, AODV 0.97 s; null 0.014 s"),
    "jitter": (0.05, "s", "DSDV 0.01, OLSR 0.05, AOMDV 0.23, AODV 0.47 s; null 0.009 s"),
    "beacon_ratio": (0.005, "ratio", "0.22 (AODV) to 0.28 (DSDV); null 0.0005"),
    "drop_share": (2.0, "pp", "each cbr drop reason's share of sent packets, held to "
                   "PDR's margin; null at most 0.5 pp (no-route)"),
}


# -- the two trees -------------------------------------------------------------------------

class UsageError(ValueError):
    pass


@contextmanager
def tree(spec: str):
    """The tree at `spec`: a directory holding `src/vanetbench`, or a local git
    revision extracted into a temporary directory for the duration."""
    if (Path(spec) / "src" / "vanetbench").is_dir():
        yield Path(spec).resolve()
        return
    archive = subprocess.run(["git", "-C", str(REPO), "archive", spec],
                             capture_output=True, check=False)
    if archive.returncode != 0:
        raise UsageError(f"{spec} is neither a tree nor a revision: "
                         f"{archive.stderr.decode().strip()}")
    with tempfile.TemporaryDirectory(prefix="equiv-base-") as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp)
        yield Path(tmp)


# The program each child runs, under `python -c`, with its tree's src/ first on
# sys.path. It uses only long-standing names of `vanetbench`, so that an older
# base tree runs it too.
CHILD = r"""
import json, sys
spec = json.loads(sys.argv[1])
from vanetbench import core, metrics
from vanetbench.scenario import ScenarioConfig, set_value, settle
from vanetbench.simulation import Simulation

stream = core.RngStreams.stream
core.RngStreams.stream = lambda rngs, label: stream(
    rngs, label + "/relabelled" if label in spec["relabel"] else label)

def config(items):
    cfg = ScenarioConfig()
    for item in items:
        key, value = item.split("=", 1)
        section, name = key.split(".", 1)
        set_value(cfg, section, name, value, item)
    return settle(cfg)

def stat_row(agg):
    r = metrics.build_report(agg)
    delays = [d for _, d in metrics.delay_series(agg)]
    jitters = [abs(j) for _, j in metrics.jitter_series(agg)]
    # a beacon's outcome at each hearer: received, or lost to fading or collision
    received = agg.counts.get(metrics.PBC_KEYS["received"], 0)
    heard = sum(agg.counts.get(key, 0) for key in metrics.PBC_KEYS.values())
    row = {"pdr": r.pdr, "nrl": r.nrl, "route_cost": r.route_cost, "mean_hop": r.mean_hop,
           "delay": sum(delays) / len(delays) if delays else None,
           "jitter": sum(jitters) / len(jitters) if jitters else None,
           "beacon_ratio": received / heard if heard else None}
    for reason, n in r.drops_by_reason.items():
        row["drop_share." + reason] = 100.0 * n / r.sent
    return row

out = open(sys.stdout.fileno(), "w", buffering=1 << 16, closefd=False)
for items in spec["runs"]:
    cfg = config(items)
    if spec["mode"] == "exact":
        sim = Simulation(cfg, trace_file=out)
        sim.run()
        for t, vid, x, y, speed in sim.mobility_rows:
            out.write(f"{t!r} mobility {vid} {x!r} {y!r} {speed!r}\n")
    else:
        out.write(json.dumps(stat_row(Simulation(cfg).run().aggregator)) + "\n")
out.flush()
"""


def child(tree_dir: Path, spec: dict, stderr) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(tree_dir / "src"))
    return subprocess.Popen([sys.executable, "-c", CHILD, json.dumps(spec)],
                            stdout=subprocess.PIPE, stderr=stderr, env=env, text=True)


class ChildFailed(RuntimeError):
    pass


def _check(proc: subprocess.Popen, stderr, side: str):
    if proc.wait() != 0:
        stderr.seek(0)
        raise ChildFailed(f"{side} child exited with {proc.returncode}:\n"
                          + stderr.read().decode(errors="replace")[-4000:])


# -- exact mode -------------------------------------------------------------------------------

def _split_time(line: str):
    """(time, the other columns) of a record line; (None, line) if the first
    column is no number, as in the header lines."""
    head, _, rest = line.partition(" ")
    try:
        return float(head), rest
    except ValueError:
        return None, line


def compare_streams(base, change, time_tol: float, context: int) -> dict:
    """Verdict of two record streams (iterables of lines), read in lockstep;
    None stands for the end of the shorter stream."""
    before = deque(maxlen=context)
    moved, largest, records = 0, 0.0, 0
    for records, (a, b) in enumerate(zip_longest(base, change), 1):
        if a != b:
            ta, ra = _split_time(a) if a is not None else (None, None)
            tb, rb = _split_time(b) if b is not None else (None, None)
            if ta is None or tb is None or ra != rb or abs(ta - tb) > time_tol:
                return {"verdict": "diverged", "index": records - 1, "base": a,
                        "change": b, "before": list(before)}
            moved += 1
            largest = max(largest, abs(ta - tb))
        before.append(a)
    return {"verdict": "equal-up-to-time" if moved else "identical", "records": records,
            "times_moved": moved, "largest_time_diff": largest}


def exact(base_dir: Path, change_dir: Path, runs, time_tol=1e-12, context=5,
          mobility=False, change_set=(), relabel=()) -> list[dict]:
    """Compare base and change on each run (a list of set items); one verdict each."""
    results = []
    for items in runs:
        items = [*items, "run.mobility_trace=true"] if mobility else items
        spec = {"mode": "exact", "relabel": [], "runs": [items]}
        change_spec = dict(spec, relabel=list(relabel), runs=[[*items, *change_set]])
        with tempfile.TemporaryFile() as err_a, tempfile.TemporaryFile() as err_b:
            pa = child(base_dir, spec, err_a)
            pb = child(change_dir, change_spec, err_b)
            try:
                result = compare_streams(pa.stdout, pb.stdout, time_tol, context)
                diverged = result["verdict"] == "diverged"
                # a stream that ended, early or not, must have ended in a clean exit
                if not diverged or result["base"] is None:
                    _check(pa, err_a, "base")
                if not diverged or result["change"] is None:
                    _check(pb, err_b, "change")
            finally:
                for proc in (pa, pb):      # a diverged run's children may still be writing
                    proc.kill()
                    proc.stdout.close()
                    proc.wait()
        results.append({"run": items, **result})
    return results


# -- statistical mode ---------------------------------------------------------------------------

def t_quantile(df: int, p: float = 0.975) -> float:
    """The p quantile (p > 0.5) of Student's t with integer `df` degrees of
    freedom: the closed form of P(|T| <= t) (Abramowitz and Stegun 26.7.3-4),
    inverted by bisection to double precision."""
    def central(t):        # P(|T| <= t)
        theta = math.atan(t / math.sqrt(df))
        c2, s = math.cos(theta) ** 2, math.sin(theta)
        if df % 2:
            term, total = math.cos(theta), 0.0
            for k in range(1, (df - 1) // 2 + 1):
                total += term
                term *= c2 * (2 * k) / (2 * k + 1)
            return 2 / math.pi * (theta + s * total)
        term, total = 1.0, 0.0
        for k in range(1, df // 2 + 1):
            total += term
            term *= c2 * (2 * k - 1) / (2 * k)
        return s * total

    lo, hi = 0.0, 1.0
    while central(hi) < 2 * p - 1:
        hi *= 2
    while (mid := (lo + hi) / 2) not in (lo, hi):
        lo, hi = (mid, hi) if central(mid) < 2 * p - 1 else (lo, mid)
    return mid


def tost(diffs, margin: float) -> dict:
    """The 95 % t interval of the mean of `diffs`, and whether it lies inside
    (-margin, margin). Fewer than two differences pass nothing."""
    n = len(diffs)
    if n < 2:
        return {"n": n, "mean": None, "low": None, "high": None, "passes": False}
    mean = statistics.fmean(diffs)
    half = t_quantile(n - 1) * statistics.stdev(diffs) / math.sqrt(n)
    return {"n": n, "mean": mean, "low": mean - half, "high": mean + half,
            "passes": -margin < mean - half and mean + half < margin}


def matrix_runs(extra=()) -> list[tuple]:
    """((protocol, mobility, seed), set items) of every run of the statistical frame."""
    from vanetbench.scenario import MOBILITY_MODELS, PROTOCOLS
    return [((p, m, seed), [f"routing.protocol={p}", f"mobility.model={m}",
                            f"run.duration={FRAME_S}", f"run.seed={seed}", *extra])
            for seed in range(1, SEEDS + 1) for p in PROTOCOLS for m in MOBILITY_MODELS]


def stat_rows(tree_dir: Path, runs, relabel=()) -> dict:
    """{cell key: metric row} of `runs`: one child per seed, as many at a time
    as this process may use cores."""
    by_seed: dict = {}
    for key, items in runs:
        by_seed.setdefault(key[2], []).append((key, items))

    def one(group):
        spec = {"mode": "stat", "relabel": list(relabel),
                "runs": [items for _, items in group]}
        with tempfile.TemporaryFile() as err:
            proc = child(tree_dir, spec, err)
            rows = [json.loads(line) for line in proc.stdout]
            proc.stdout.close()
            _check(proc, err, str(tree_dir))
        return dict(zip((key for key, _ in group), rows))

    workers = min(len(os.sched_getaffinity(0)), len(by_seed))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        out: dict = {}
        for part in pool.map(one, by_seed.values()):
            out.update(part)
    return out


def paired_verdicts(base: dict, change: dict) -> dict:
    """{metric: tost result} over the seeds' mean paired differences, each mean
    over the cells whose metric both sides define. Each drop reason is a
    metric of its own, 0 where a run has no such drop."""
    names = {name for row in (*base.values(), *change.values()) for name in row}
    out = {}
    for name in sorted(names):
        default = 0.0 if name.startswith("drop_share.") else None
        by_seed: dict = {}
        for key, row in base.items():
            b, c = row.get(name, default), change[key].get(name, default)
            if b is not None and c is not None:
                by_seed.setdefault(key[2], []).append(c - b)
        margin = METRICS[name.split(".")[0]][0]
        out[name] = {**tost([statistics.fmean(d) for d in by_seed.values()], margin),
                     "margin": margin}
    return out


def stat(base_dir: Path, change_dir: Path, extra=(), change_set=(), relabel=()) -> dict:
    runs = matrix_runs(extra)
    base = stat_rows(base_dir, runs)
    change = stat_rows(change_dir, [(k, [*items, *change_set]) for k, items in runs],
                       relabel)
    return paired_verdicts(base, change)


# -- command line ------------------------------------------------------------------------------

def workload_runs(names, seeds) -> list[list[str]]:
    """The set items of each run of the named benchmark workloads (`bench/jobs.py`)."""
    sys.path.insert(0, str(REPO / "bench"))
    from jobs import WORKLOADS
    from vanetbench.scenario import MOBILITY_MODELS, PROTOCOLS
    if unknown := sorted(set(names) - set(WORKLOADS)):
        raise UsageError(f"no workload named {', '.join(unknown)}")
    runs = []
    for name, seed in ((n, s) for n in names for s in seeds):
        w = WORKLOADS[name]
        common = [f"run.duration={w.duration}", f"run.seed={seed}"]
        if w.mode == "batch":
            runs += [[f"routing.protocol={p}", f"mobility.model={m}", *common]
                     for p in PROTOCOLS for m in MOBILITY_MODELS]
        else:
            runs.append([f"routing.protocol={w.protocol}", f"mobility.model={w.mobility}",
                         f"run.vehicles={w.vehicles}",
                         "graph.grid=" + " ".join(map(str, w.grid)), *common])
    return runs


def _print_exact(results):
    for r in results:
        print(f"{r['verdict']}: {' '.join(r['run'])}")
        if r["verdict"] == "diverged":
            print(f"  first difference at record {r['index']} (0 is the first header line)")
            for line in r["before"]:
                print(f"    {line.rstrip()}")
            print(f"  base:   {(r['base'] or '<end of stream>').rstrip()}")
            print(f"  change: {(r['change'] or '<end of stream>').rstrip()}")
        else:
            print(f"  {r['records']} records; {r['times_moved']} times moved, "
                  f"largest by {r['largest_time_diff']!r} s")


def _print_stat(verdicts):
    print(f"{'metric':<28}{'n':>4}{'mean diff':>13}{'95 % low':>13}{'95 % high':>13}"
          f"{'margin':>10}  verdict")
    for name, v in verdicts.items():
        cols = "".join(f"{'-':>13}" if x is None else f"{x:13.5g}"
                       for x in (v["mean"], v["low"], v["high"]))
        print(f"{name:<28}{v['n']:>4}{cols}{v['margin']:>10g}  "
              f"{'pass' if v['passes'] else 'FAIL'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in ("exact", "stat"):
        p = sub.add_parser(mode)
        p.add_argument("--base", required=True, help="a tree, or a local git revision")
        p.add_argument("--change", default=str(REPO), help="a tree (default: this one)")
        p.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE")
        p.add_argument("--change-set", action="append", default=[],
                       metavar="SECTION.KEY=VALUE")
        p.add_argument("--relabel", action="append", default=[], metavar="LABEL")
        if mode == "exact":
            p.add_argument("--workload", action="append", default=[])
            p.add_argument("--seeds", default=[1, 7], metavar="1,7",
                           type=lambda text: [int(s) for s in text.split(",")])
            p.add_argument("--time-tol", type=float, default=1e-12)
            p.add_argument("--context", type=int, default=5)
            p.add_argument("--mobility", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(REPO / "src"))
    try:
        with tree(args.base) as base_dir, tree(args.change) as change_dir:
            if args.mode == "stat":
                verdicts = stat(base_dir, change_dir, args.set, args.change_set,
                                args.relabel)
                _print_stat(verdicts)
                ok = all(v["passes"] for v in verdicts.values())
                print("equivalent" if ok else "not-equivalent")
                return EXIT_EQUIVALENT if ok else EXIT_NOT_EQUIVALENT
            if args.workload:
                runs = [[*items, *args.set]
                        for items in workload_runs(args.workload, args.seeds)]
            else:
                runs = [[*args.set, f"run.seed={s}"] for s in args.seeds]
            results = exact(base_dir, change_dir, runs, args.time_tol, args.context,
                            args.mobility, args.change_set, args.relabel)
            _print_exact(results)
            return max(VERDICT_EXIT[r["verdict"]] for r in results)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHILD_FAILED


if __name__ == "__main__":
    sys.exit(main())
