"""The vanetbench command line: run, report and batch on tiny scenarios."""

import csv
import json
import re

import pytest

from vanetbench import cli
from vanetbench.metrics import TRACE_HEADER, build_report, read_trace
from vanetbench.scenario import ScenarioConfig, load_scenario, periodic_firings

TINY = ["--set", "run.duration=1.0", "--set", "run.vehicles=12",
        "--set", "traffic.cbr_connections=4"]
RUN_FILES = {cli.TRACE_NAME, cli.METRICS_NAME, cli.DELAY_NAME, cli.JITTER_NAME,
             cli.CONFIG_NAME, cli.SUMMARY_NAME}


def test_run_writes_its_files_and_report_renders_the_same_metrics(tmp_path, capsys):
    out = tmp_path / "run"
    assert cli.main(["run", "--set", "routing.protocol=aodv", "--out", str(out), *TINY]) == 0
    assert {p.name for p in out.iterdir()} == RUN_FILES
    summary = json.loads((out / cli.SUMMARY_NAME).read_text(encoding="utf-8"))
    report = build_report(read_trace(out / cli.TRACE_NAME))
    assert summary["metrics"] == dict(report.rows())
    assert report.sent > 0
    # validate()'s work estimate, after the keys run.json had before it
    assert list(summary)[-1] == "periodic_firings"
    assert summary["periodic_firings"] == sum(periodic_firings(
        load_scenario(out / cli.CONFIG_NAME)).values()) > 0
    capsys.readouterr()

    assert cli.main(["report", str(out)]) == 0
    header, row = capsys.readouterr().out.splitlines()
    cols, cells = header.split(), row.split()
    assert cells[:3] == ["aodv", "idm-im", "1"]
    for name, cell in zip(cols[3:], cells[3:]):
        value = getattr(report, name)
        assert cell == ("-" if value is None else f"{value:.4f}"), name


def test_report_header_and_rows_share_their_column_boundaries(tmp_path, capsys):
    out = tmp_path / "run"
    assert cli.main(["run", "--set", "routing.protocol=olsr", "--out", str(out), *TINY]) == 0
    capsys.readouterr()
    assert cli.main(["report", str(out), str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    # cells are right-aligned, so a column's boundary is where its cells end
    ends = [[m.end() for m in re.finditer(r"\S+", line)] for line in lines]
    assert len(lines) == 3 and len(ends[0]) == 3 + len(cli._BATCH_METRICS)
    assert all(row == ends[0] for row in ends[1:])


def test_report_names_a_bad_line_and_still_prints_the_good_run(tmp_path, capsys):
    good, bad = tmp_path / "good", tmp_path / "bad"
    assert cli.main(["run", "--set", "routing.protocol=dsdv", "--out", str(good), *TINY]) == 0
    text = (good / cli.TRACE_NAME).read_text(encoding="utf-8")
    head, last = text[:-1].rsplit("\n", 1)
    last_line = text.count("\n")
    bad.mkdir()
    (bad / cli.TRACE_NAME).write_text(f"{head}\n{last[:len(last) // 2]}",  # a killed run
                                      encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["report", str(good), str(bad)]) == 1
    out, err = capsys.readouterr()
    _, row = out.splitlines()
    assert row.split()[:3] == ["dsdv", "idm-im", "1"]
    assert err.startswith(f"error: {bad}: {bad / cli.TRACE_NAME}, line {last_line}: ")


def test_report_refuses_a_trace_with_an_unterminated_packet(tmp_path, capsys):
    run = tmp_path / "run"
    run.mkdir()
    (run / cli.TRACE_NAME).write_text(TRACE_HEADER + "1.0 sent none app cbr 1 0 0 100\n",
                                      encoding="utf-8")
    assert cli.main(["report", str(run)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {run}: conservation violated: sent=1 received=0")


def _boom(node):
    raise RuntimeError("boom")


def test_a_run_that_raises_leaves_no_directory_and_the_next_run_goes_in(tmp_path, capsys,
                                                                        monkeypatch):
    from vanetbench.routing.aodv import Aodv
    out = tmp_path / "run"
    with monkeypatch.context() as patch:
        patch.setattr(Aodv, "start", _boom)
        assert cli.main(["run", "--set", "routing.protocol=aodv", "--out", str(out), *TINY]) == 1
    assert capsys.readouterr().err == "error: run failed: boom\n"
    assert not out.exists()
    assert cli.main(["run", "--set", "routing.protocol=aodv", "--out", str(out), *TINY]) == 0
    assert {p.name for p in out.iterdir()} == RUN_FILES


def test_a_run_into_a_non_empty_directory_without_force_exits_2_and_touches_nothing(
        tmp_path, capsys):
    out = tmp_path / "run"
    out.mkdir()
    (out / cli.TRACE_NAME).write_text("not this run's trace\n", encoding="utf-8")
    (out / "notes.txt").write_text("not a run file\n", encoding="utf-8")
    assert cli.main(["run", "--out", str(out), *TINY]) == 2
    assert capsys.readouterr().err == (f"error: output directory {out} is not empty "
                                       f"(use --force to overwrite)\n")
    assert {p.name: p.read_text(encoding="utf-8") for p in out.iterdir()} == {
        cli.TRACE_NAME: "not this run's trace\n", "notes.txt": "not a run file\n"}


def test_a_forced_rerun_that_raises_leaves_none_of_the_earlier_runs_files(tmp_path, capsys,
                                                                          monkeypatch):
    from vanetbench.routing.aodv import Aodv
    out = tmp_path / "run"
    assert cli.main(["run", "--set", "routing.protocol=aodv", "--out", str(out), *TINY]) == 0
    (out / "notes.txt").write_text("not a run file\n", encoding="utf-8")
    capsys.readouterr()
    monkeypatch.setattr(Aodv, "start", _boom)
    assert cli.main(["run", "--set", "routing.protocol=aodv", "--out", str(out), "--force",
                     *TINY]) == 1
    assert capsys.readouterr().err == "error: run failed: boom\n"
    assert [p.name for p in out.iterdir()] == ["notes.txt"]


def test_a_forced_rerun_without_a_mobility_trace_removes_the_earlier_one(tmp_path,
                                                                         capsys):
    out = tmp_path / "run"
    assert cli.main(["run", "--out", str(out), "--set", "run.mobility_trace=true",
                     *TINY]) == 0
    assert (out / "mobility.txt").exists()
    assert cli.main(["run", "--out", str(out), "--force", *TINY]) == 0
    assert {p.name for p in out.iterdir()} == RUN_FILES
    capsys.readouterr()


def test_a_batch_job_that_raises_leaves_only_its_own_directory_absent(tmp_path, capsys,
                                                                      monkeypatch):
    from vanetbench.routing.dsdv import Dsdv
    monkeypatch.setattr(Dsdv, "start", _boom)
    root = tmp_path / "batch"
    assert cli.main(["batch", "--protocols", "aodv,dsdv", "--seeds", "1", "--jobs", "1",
                     "--out", str(root), *TINY]) == 1
    assert "failed: dsdv/idm-im/seed 1: boom" in capsys.readouterr().err
    assert sorted(p.name for p in root.iterdir()) == ["aodv-idm-im-s1", "batch.csv"]
    assert {p.name for p in (root / "aodv-idm-im-s1").iterdir()} == RUN_FILES


def test_batch_fails_only_the_job_whose_directory_is_taken(tmp_path, capsys):
    root = tmp_path / "batch"
    taken = root / "dsdv-idm-im-s1"
    taken.mkdir(parents=True)
    (taken / "keep.txt").write_text("not ours\n", encoding="utf-8")
    status = cli.main(["batch", "--protocols", "aodv,dsdv,olsr", "--mobilities",
                       "idm-im", "--seeds", "1", "--jobs", "1", "--out", str(root),
                       *TINY])
    assert status == 1
    err = capsys.readouterr().err
    failed = [line for line in err.splitlines() if line.startswith("failed:")]
    assert len(failed) == 1 and failed[0].startswith("failed: dsdv/idm-im/seed 1:")
    assert (taken / "keep.txt").read_text(encoding="utf-8") == "not ours\n"
    with open(root / "batch.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["protocol"], r["mobility"]) for r in rows] == [("aodv", "idm-im"),
                                                              ("olsr", "idm-im")]
    assert all(r["pdr.seed1"] != "" for r in rows)


def test_batch_rejects_a_bad_job_before_any_output(tmp_path, capsys):
    root = tmp_path / "batch"
    status = cli.main(["batch", "--protocols", "aodv,bogus", "--seeds", "1",
                       "--jobs", "1", "--out", str(root), *TINY])
    assert status == 2
    assert "routing.protocol 'bogus'" in capsys.readouterr().err
    assert not root.exists()


def test_batch_rejects_a_seed_that_is_not_an_integer(tmp_path, capsys):
    root = tmp_path / "batch"
    status = cli.main(["batch", "--seeds", "1,x", "--jobs", "1", "--out", str(root),
                       *TINY])
    assert status == 2
    assert capsys.readouterr().err.startswith("error: --seeds")
    assert not root.exists()


# a repeated entry once sent two jobs into one run directory, which failed
# both or, with --force, ran one job twice there; a --jobs below 1 ran serially
@pytest.mark.parametrize("option, value", [("--protocols", "aodv,aodv"),
                                           ("--mobilities", "idm-im,idm-lc,idm-im"),
                                           ("--seeds", "1,1"), ("--seeds", "1,01"),
                                           ("--jobs", "0"), ("--jobs", "-3")])
@pytest.mark.parametrize("force", [[], ["--force"]])
def test_batch_refuses_a_repeated_entry_or_no_workers_before_any_output(
        tmp_path, capsys, option, value, force):
    root = tmp_path / "batch"
    status = cli.main(["batch", option, value, "--out", str(root), *force, *TINY])
    assert status == 2
    assert capsys.readouterr().err.startswith(f"error: {option} ")
    assert not root.exists()


# both once crashed after writing: the random streams refuse a negative seed
@pytest.mark.parametrize("argv", [["run", "--set", "run.seed=-1"],
                                  ["batch", "--seeds", "-1", "--jobs", "1"]])
def test_a_negative_seed_is_refused_before_any_output(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out), *TINY]) == 2
    assert capsys.readouterr().err.startswith("error: run.seed must be >= 0")
    assert not out.exists()


def test_run_rejects_a_non_finite_grid_spacing_before_any_output(tmp_path, capsys):
    out = tmp_path / "run"
    status = cli.main(["run", "--out", str(out), "--set", "graph.grid=5 5 nan", *TINY])
    assert status == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_run_rejects_a_slot_below_the_clock_resolution_before_any_output(tmp_path,
                                                                         capsys):
    out = tmp_path / "run"
    status = cli.main(["run", "--out", str(out), "--set", "mac.slot=1e-22",
                       "--set", "run.duration=0.5", "--set", "run.vehicles=10",
                       "--set", "graph.grid=3 3 100", "--set", "traffic.cbr_connections=4"])
    assert status == 2
    assert capsys.readouterr().err.startswith("error: mac.slot=1e-22")
    assert not out.exists()


# the first two errors once named a line of the text that --set builds, which
# the user never wrote; the last two are items that are no key=value pair
@pytest.mark.parametrize("item, error", [("mac.cw_min=x", "bad value for [mac] cw_min"),
                                         ("run.bogus=1", "unknown key 'bogus' in section [run]"),
                                         ("run.seed", "expected section.key=value"),
                                         ("seed=1", "key 'seed' names no section")])
def test_a_bad_set_item_is_named_in_the_error(tmp_path, capsys, item, error):
    out = tmp_path / "run"
    assert cli.main(["run", "--out", str(out), "--set", item]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {error} (--set {item})")
    assert "(line" not in err
    assert not out.exists()


def test_batch_on_two_workers_writes_the_bytes_of_one_worker(tmp_path, capsys):
    outputs = []
    for jobs in ("1", "2"):
        root = tmp_path / f"jobs{jobs}"
        assert cli.main(["batch", "--protocols", "aodv,dsdv", "--jobs", jobs,
                         "--out", str(root), "--set", "run.duration=0.5",
                         "--set", "run.vehicles=10"]) == 0
        traces = {d.name: (d / cli.TRACE_NAME).read_bytes()
                  for d in root.iterdir() if d.is_dir()}
        outputs.append(((root / "batch.csv").read_bytes(), traces))
    assert sorted(outputs[0][1]) == ["aodv-idm-im-s1", "dsdv-idm-im-s1"]
    assert outputs[1] == outputs[0]
    capsys.readouterr()


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records `max_workers` and maps in
    this process, forking nothing."""

    def __init__(self, max_workers, workers):
        workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


# a pool forks every worker up front, so 5,000 jobs forked 5,000 processes
@pytest.mark.parametrize("jobs", [["--jobs", "5000"], []])
def test_a_batch_forks_no_more_workers_than_it_has_runs(tmp_path, capsys, monkeypatch, jobs):
    workers = []
    monkeypatch.setattr(cli, "ProcessPoolExecutor",
                        lambda max_workers: RecordingPool(max_workers, workers))
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    assert cli.main(["batch", "--protocols", "aodv,dsdv", *jobs, "--out", str(tmp_path),
                     "--set", "run.duration=0.5", "--set", "run.vehicles=10"]) == 0
    assert workers == [2]
    capsys.readouterr()


@pytest.mark.parametrize("argv, most", [
    (["run", "--out", "{tmp}/run"], 2),          # once at parse, once in the run
    (["batch", "--seeds", "1,2", "--jobs", "1", "--out", "{tmp}/batch"], 5),
])
def test_a_run_from_a_scenario_file_builds_its_road_graph_once(tmp_path, capsys,
                                                               monkeypatch, argv, most):
    path = tmp_path / "tiny.ini"
    path.write_text("[run]\nduration = 1.0\nvehicles = 12\n\n"
                    "[traffic]\ncbr_connections = 4\n", encoding="utf-8")
    build = ScenarioConfig.build_graph
    builds = []

    def counted(cfg):
        builds.append(cfg)
        return build(cfg)

    monkeypatch.setattr(ScenarioConfig, "build_graph", counted)
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert cli.main([argv[0], "--scenario", str(path), *argv[1:]]) == 0
    assert len(builds) <= most
    capsys.readouterr()


def test_a_run_without_out_names_its_directory_from_its_set_values(tmp_path, capsys,
                                                                   monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["run", "--set", "routing.protocol=olsr", "--set", "mobility.model=idm-lc",
                     "--set", "run.seed=2", *TINY]) == 0
    summary = json.loads((tmp_path / "runs" / "default-olsr-idm-lc-s2" / cli.SUMMARY_NAME)
                         .read_text(encoding="utf-8"))
    assert (summary["protocol"], summary["mobility"], summary["seed"]) == ("olsr", "idm-lc", 2)
    capsys.readouterr()


# --set is the one way a scenario value reaches a run
@pytest.mark.parametrize("flag, value", [("--seed", "5"), ("--protocol", "olsr"),
                                         ("--mobility", "idm-lc")])
def test_run_takes_no_second_override_flag(tmp_path, capsys, flag, value):
    with pytest.raises(SystemExit) as exit_:
        cli.main(["run", "--out", str(tmp_path / "run"), flag, value])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
