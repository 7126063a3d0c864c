"""Operator entry point: run one scenario, run seeded batches, and report on run
directories: print their metrics table and rewrite only their delay.csv and
jitter.csv."""

import argparse
import copy
import csv
import itertools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .metrics import build_report, conservation_check, delay_series, jitter_series, \
    read_trace
from .scenario import (ScenarioConfig, SchemaError, effective_ini, load_scenario,
                       periodic_firings, set_value, settle)
from .simulation import Simulation

TRACE_NAME = "trace.txt"
METRICS_NAME = "metrics.csv"
DELAY_NAME = "delay.csv"
JITTER_NAME = "jitter.csv"
CONFIG_NAME = "scenario.effective.ini"
MOBILITY_NAME = "mobility.txt"
SUMMARY_NAME = "run.json"
# every file a run may write; a run directory holds these of one run only
RUN_NAMES = (TRACE_NAME, METRICS_NAME, DELAY_NAME, JITTER_NAME, CONFIG_NAME,
             MOBILITY_NAME, SUMMARY_NAME)


def _apply_overrides(cfg: ScenarioConfig, args) -> ScenarioConfig:
    if not args.set:
        return cfg   # unchanged: parsing validated a loaded file, and the run validates
    for item in args.set:
        if "=" not in item:
            raise SchemaError(f"expected section.key=value (--set {item})")
        key, value = item.split("=", 1)
        if "." not in key:
            raise SchemaError(f"key '{key}' names no section (--set {item})")
        section, name = key.split(".", 1)
        set_value(cfg, section.strip().lower(), name.strip(), value.strip(), f"--set {item}")
    return settle(cfg)


def _load_config(args) -> ScenarioConfig:
    return _apply_overrides(load_scenario(args.scenario) if args.scenario
                            else ScenarioConfig(), args)


def _write_metrics_csv(path, report, extra: dict):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["protocol", "mobility", "metric", "value"])
        for name, value in report.rows():
            w.writerow([extra["protocol"], extra["mobility"], name,
                        "" if value is None else value])


def _write_series_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _write_delay_jitter(run_dir: Path, agg):
    _write_series_csv(run_dir / DELAY_NAME, ["time", "delay"], delay_series(agg))
    _write_series_csv(run_dir / JITTER_NAME, ["time", "jitter"], jitter_series(agg))


def _remove_run_files(run_dir: Path):
    for name in RUN_NAMES:
        (run_dir / name).unlink(missing_ok=True)


def execute_run(cfg: ScenarioConfig, out_dir: Path, force: bool = False) -> dict:
    """Run one scenario into an output directory; returns the summary dict.

    The files of RUN_NAMES are removed before the run writes, so a forced rerun
    leaves none of an earlier run's. A run that raises removes them again, and
    the directory if this call made it. Any other file in the directory stays."""
    out_dir = Path(out_dir)
    if out_dir.exists() and any(out_dir.iterdir()) and not force:
        raise FileExistsError(f"output directory {out_dir} is not empty "
                              f"(use --force to overwrite)")
    made = not out_dir.exists()
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        _remove_run_files(out_dir)
        return _write_run(cfg, out_dir)
    except BaseException:
        _remove_run_files(out_dir)
        if made:
            out_dir.rmdir()
        raise


def _write_run(cfg: ScenarioConfig, out_dir: Path) -> dict:
    with open(out_dir / TRACE_NAME, "w", encoding="utf-8") as trace_fh:
        sim = Simulation(cfg, trace_file=trace_fh)
        result = sim.run()
    agg = result.aggregator
    conservation_check(agg)
    report = build_report(agg)
    meta = {"protocol": cfg.routing.protocol, "mobility": cfg.mobility.model,
            "seed": cfg.run.seed}
    _write_metrics_csv(out_dir / METRICS_NAME, report, meta)
    _write_delay_jitter(out_dir, agg)
    (out_dir / CONFIG_NAME).write_text(effective_ini(cfg), encoding="utf-8")
    if cfg.run.mobility_trace:
        with open(out_dir / MOBILITY_NAME, "w", encoding="utf-8") as fh:
            fh.write("#time vehicle x y speed\n")
            for t, vid, x, y, speed in sim.mobility_rows:
                fh.write(f"{t!r} {vid} {x!r} {y!r} {speed!r}\n")
    summary = {
        **meta,
        "status": "ok",
        "events": result.events,
        "warnings": result.warnings,
        "metrics": {name: value for name, value in report.rows()},
        # validate()'s work estimate, to set beside the dispatched `events`
        "periodic_firings": sum(periodic_firings(cfg).values()),
    }
    (out_dir / SUMMARY_NAME).write_text(json.dumps(summary, indent=2) + "\n",
                                        encoding="utf-8")
    return summary


def cmd_run(args) -> int:
    cfg = _load_config(args)
    if args.out:
        out_dir = Path(args.out)
    else:
        stem = Path(args.scenario).stem if args.scenario else "default"
        out_dir = Path("runs") / (f"{stem}-{cfg.routing.protocol}-"
                                  f"{cfg.mobility.model}-s{cfg.run.seed}")
    try:
        summary = execute_run(cfg, out_dir, force=args.force)
    except FileExistsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: run failed: {exc}", file=sys.stderr)
        return 1
    print(f"run complete: {out_dir}  "
          f"pdr={summary['metrics']['pdr']}")
    return 0


def _batch_worker(payload):
    """One isolated batch run; executed in a worker process."""
    cfg, out_dir, force = payload
    key = (cfg.routing.protocol, cfg.mobility.model, cfg.run.seed)
    try:
        return (*key, execute_run(cfg, Path(out_dir), force=force), None)
    except Exception as exc:   # surface the failure, keep the batch going
        return (*key, None, str(exc))


_BATCH_METRICS = ("pdr", "drop_pct", "avg_throughput_kbps", "nrl",
                  "route_cost", "mean_hop")


def write_batch_csv(path, rows, seeds):
    """rows: {(protocol, mobility): {seed: metrics dict}}"""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        header = ["protocol", "mobility"]
        for metric in _BATCH_METRICS:
            header += [f"{metric}.seed{s}" for s in seeds] + [f"{metric}.mean"]
        w.writerow(header)
        for (protocol, mobility) in sorted(rows):
            per_seed = rows[(protocol, mobility)]
            row = [protocol, mobility]
            for metric in _BATCH_METRICS:
                values = []
                for s in seeds:
                    m = per_seed.get(s)
                    values.append(None if m is None else m.get(metric))
                row += ["" if v is None else v for v in values]
                present = [v for v in values if v is not None]
                row.append(sum(present) / len(present) if present else "")
            w.writerow(row)


def cmd_batch(args) -> int:
    if args.jobs is not None and args.jobs < 1:
        raise SchemaError(f"--jobs must be >= 1, got {args.jobs}")
    cfg = _load_config(args)
    protocols = args.protocols.split(",") if args.protocols else [cfg.routing.protocol]
    mobilities = args.mobilities.split(",") if args.mobilities else [cfg.mobility.model]
    try:
        seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else [cfg.run.seed]
    except ValueError:
        raise SchemaError(f"--seeds expects comma-separated integers, "
                          f"got '{args.seeds}'") from None
    # an entry listed twice would send two jobs into one run directory
    for option, values in (("--protocols", protocols), ("--mobilities", mobilities),
                           ("--seeds", seeds)):
        if len(set(values)) < len(values):
            twice = next(v for i, v in enumerate(values) if v in values[:i])
            raise SchemaError(f"{option} lists {twice} more than once")
    out_root = Path(args.out or "batch")
    payloads = []
    for protocol, mobility, seed in itertools.product(protocols, mobilities, seeds):
        job = copy.deepcopy(cfg)
        job.routing.protocol, job.mobility.model, job.run.seed = protocol, mobility, seed
        job.validate()
        payloads.append((job, str(out_root / f"{protocol}-{mobility}-s{seed}"), args.force))
    out_root.mkdir(parents=True, exist_ok=True)
    # the pool forks all its workers at once: no more than there are runs
    jobs = min(args.jobs or os.cpu_count() or 1, len(payloads))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_batch_worker, payloads))
    else:
        results = [_batch_worker(p) for p in payloads]
    rows: dict = {}
    failed = []
    for protocol, mobility, seed, summary, error in results:
        if error is not None:
            failed.append((protocol, mobility, seed, error))
            continue
        rows.setdefault((protocol, mobility), {})[seed] = summary["metrics"]
    write_batch_csv(out_root / "batch.csv", rows, seeds)
    for protocol, mobility, seed, error in failed:
        print(f"failed: {protocol}/{mobility}/seed {seed}: {error}", file=sys.stderr)
    print(f"batch complete: {len(results) - len(failed)}/{len(results)} runs ok "
          f"-> {out_root / 'batch.csv'}")
    return 1 if failed else 0


def cmd_report(args) -> int:
    status = 0
    table_rows = []
    for run_dir in args.rundirs:
        run_dir = Path(run_dir)
        trace_path = run_dir / TRACE_NAME
        summary_path = run_dir / SUMMARY_NAME
        try:
            agg = read_trace(trace_path)
            conservation_check(agg)
            meta = json.loads(summary_path.read_text(encoding="utf-8")) \
                if summary_path.exists() else {}
            report = build_report(agg)
            _write_delay_jitter(run_dir, agg)
            table_rows.append((meta.get("protocol", "?"), meta.get("mobility", "?"),
                               meta.get("seed", "?"), report))
        except Exception as exc:
            print(f"error: {run_dir}: {exc}", file=sys.stderr)
            status = 1
    if table_rows:
        lines = [("protocol", "mobility", "seed", *_BATCH_METRICS)]
        for protocol, mobility, seed, report in table_rows:
            cells = [protocol, mobility, str(seed)]
            for name in _BATCH_METRICS:
                value = getattr(report, name)
                cells.append("-" if value is None else f"{value:.4f}")
            lines.append(cells)
        width = max(len(c) for cells in lines for c in cells)
        for cells in lines:
            print("  ".join(f"{c:>{width}}" for c in cells))
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vanetbench",
        description="Deterministic VANET simulator: mobility, fading channel, "
                    "802.11p MAC, ad-hoc routing, trace metrics.")
    sub = parser.add_subparsers(dest="command", required=True)
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--scenario", help="scenario file (defaults applied when absent)")
    shared.add_argument("--out", help="output directory (batch: one subdirectory per run)")
    shared.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                        help="override any scenario key (repeatable)")
    shared.add_argument("--force", action="store_true",
                        help="overwrite a non-empty run directory")

    run_p = sub.add_parser("run", parents=[shared], help="run one scenario")
    run_p.set_defaults(func=cmd_run)

    batch_p = sub.add_parser("batch", parents=[shared],
                             help="run a protocol x mobility x seed matrix")
    batch_p.add_argument("--protocols", help="comma-separated protocol list")
    batch_p.add_argument("--mobilities", help="comma-separated mobility models")
    batch_p.add_argument("--seeds", help="comma-separated seeds")
    batch_p.add_argument("--jobs", type=int,
                         help="parallel workers (default: CPUs), at most one per run")
    batch_p.set_defaults(func=cmd_batch)

    report_p = sub.add_parser("report", help="print the metrics table; rewrite "
                                             "delay.csv and jitter.csv")
    report_p.add_argument("rundirs", nargs="+", help="run output directories")
    report_p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, OSError) as exc:   # a refused scenario or an unusable path
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
