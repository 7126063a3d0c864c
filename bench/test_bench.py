"""Tests of the benchmark itself, at tiny simulated durations.

    python3 -m pytest bench/test_bench.py -q
"""

import json

import pytest

import jobs
import run
import spans
import speed

TINY = 0.4          # simulated seconds per scenario
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(jobs.WORKLOADS)
    assert set(_units("end_to_end")) == set(run.END_TO_END_UNITS)


@pytest.mark.parametrize("workload", sorted(jobs.WORKLOADS))
def test_every_workload_runs_and_reports_named_metrics(workload, capsys):
    result = run.measure(workload, seed=3, seconds=1, trace=False, duration=TINY)
    assert result["correct"], [r.get("error") for r in result["jobs"]]
    assert result["attempted"] == 2 and result["failed"] == 0
    expected = _units("end_to_end")
    run.print_report(result, run.machine_info())
    printed = [line.split() for line in capsys.readouterr().out.splitlines()
               if " = " in line]
    assert {(name, unit) for name, _, _, unit in printed} == set(expected.items())
    line = json.loads(run.result_line(result))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == set(expected)
    for name, metric in line["metrics"].items():
        assert metric["unit"] == expected[name]
        assert isinstance(metric["value"], (int, float)) and metric["value"] > 0


@pytest.mark.parametrize("workload", sorted(jobs.WORKLOADS))
def test_traced_run_matches_untraced_and_names_every_layer_metric(workload):
    result = run.measure(workload, seed=3, seconds=1, trace=True, duration=TINY)
    assert result["correct"], [r.get("error") for r in result["jobs"]]
    untraced, traced = result["jobs"]
    assert traced["outputs"]["digest"] == untraced["outputs"]["digest"]
    expected = _units("per_layer")
    assert {n: u for n, (_, u) in result["metrics"].items()} == expected


def test_self_times_sum_to_at_most_the_traced_wall():
    result = run.measure("aodv-contention", seed=1, seconds=1, trace=True,
                         duration=TINY, launcher=run.launch_in_process)
    assert result["correct"], [r.get("error") for r in result["jobs"]]
    traced = result["jobs"][1]
    total = spans.self_time_total(traced["spans"])
    assert 0 < total <= traced["host_wall_s"]
    layer_self = sum(v for n, (v, _) in result["metrics"].items()
                     if n.endswith("self_s") or n.startswith("metrics.") and n.endswith("_s"))
    assert layer_self <= traced["host_wall_s"]


def test_untraced_times_are_scaled_by_the_speed_probes():
    result = run.measure("aodv-contention", seed=1, seconds=1, trace=False,
                         duration=TINY, launcher=run.launch_in_process)
    assert result["correct"], [r.get("error") for r in result["jobs"]]
    for job in result["jobs"]:
        assert job["speed"] > 0
        assert job["wall_s"] == pytest.approx(job["host_wall_s"] * job["speed"])
        assert job["cpu_s"] == pytest.approx(job["host_cpu_s"] * job["speed"])
        assert job["setup_s"] == pytest.approx(job["import_s"] + job["build_s"])


def test_speed_factor_weights_each_stretch_by_its_length():
    state = speed.merge([
        {"span_s": 3.0, "ref_s": 1.5, "probe_s": 0.01, "samples": 3},    # half speed
        {"span_s": 1.0, "ref_s": 1.0, "probe_s": 0.01, "samples": 1}])   # reference speed
    assert state["samples"] == 4 and state["probe_s"] == pytest.approx(0.02)
    assert speed.factor(state) == pytest.approx(2.5 / 4.0)
    assert speed.speed_of(2 * speed.REFERENCE_S) == pytest.approx(0.5)


def test_tracer_restores_every_patched_attribute():
    from vanetbench.core import Simulator
    from vanetbench.mac import NodeMac
    before = (Simulator.schedule, Simulator.run_until, NodeMac.enqueue_packet)
    run.measure("aodv-contention", seed=1, seconds=1, trace=True, duration=TINY,
                launcher=run.launch_in_process)
    assert (Simulator.schedule, Simulator.run_until, NodeMac.enqueue_packet) == before


def test_injected_handler_fault_is_counted_in_error_rate(monkeypatch):
    from vanetbench.mac import NodeMac

    def broken(self):
        raise ValueError("injected fault")

    monkeypatch.setattr(NodeMac, "_backoff_done", broken)
    result = run.measure("aodv-contention", seed=1, seconds=1, trace=False,
                         duration=TINY, launcher=run.launch_in_process)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 2
    assert all("SimulationFault" in r["error"] for r in result["jobs"])


def test_digest_mismatch_between_repeats_fails_the_repeat():
    seen = []

    def drifting(spec, timeout):
        out = run.launch_in_process(spec, timeout)
        seen.append(spec["seed"])
        out["outputs"]["digest"] += str(len(seen))    # every job disagrees
        return out

    result = run.measure("aodv-contention", seed=1, seconds=1, trace=False,
                         duration=TINY, launcher=drifting)
    assert result["failed"] == 1 and not result["correct"]
    assert "digest" in result["jobs"][1]["error"]


def test_plan_sizes_scenario_set_from_seconds():
    w = jobs.WORKLOADS["aodv-contention"]
    plan = run.plan_jobs(w, seed=7, seconds=20, trace=False)
    seeds = [s for s, _ in plan]
    assert seeds[0] == seeds[-1] == 7
    assert len(set(seeds)) == len(seeds) - 1 == round(20 / w.nominal_s) - 1
    assert run.plan_jobs(w, seed=7, seconds=20, trace=True) == [(7, False), (7, True)]
