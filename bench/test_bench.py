"""Tests of the benchmark's own helpers: self times, oracles, inputs."""

import json
import os
import signal
import statistics
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import suite  # noqa: E402
import workloads  # noqa: E402
from speed import REFERENCE_S, SpeedProbe  # noqa: E402
from tracer import Tracer, per_layer_metric_names, self_times  # noqa: E402


def test_self_times_subtract_children_once():
    #   0 [0, 10]
    #   +- 1 [1, 4]
    #   |  +- 2 [2, 3]
    #   +- 3 [5, 9]
    #   +- 4 [8, 9.5]   overlaps 3; the overlap counts once
    start = [0.0, 1.0, 2.0, 5.0, 8.0]
    end = [10.0, 4.0, 3.0, 9.0, 9.5]
    parent = [-1, 0, 1, 0, 0]
    assert self_times(start, end, parent) == pytest.approx(
        [10 - 3 - 4.5, 3 - 1, 1, 4, 1.5])


def test_self_times_clip_children_to_parent():
    assert self_times([0.0, 1.0], [2.0, 5.0], [-1, 0]) == pytest.approx(
        [1.0, 4.0])


def test_layer_self_times_add_up_to_job_wall():
    tr = Tracer()
    inner = tr.wrap(lambda j: [j], "chain.predecessors")
    outer = tr.wrap(lambda: [inner(j) for j in range(3)],
                    "measure.solve_stationary")

    def job():
        outer()
        inner(0)
        time.sleep(0.01)
        return 0

    t0 = time.perf_counter()
    assert tr.run_job("j", job) == 0
    wall = time.perf_counter() - t0
    (m,), gap = tr.job_metrics([wall])
    assert gap < run.GAP_TOLERANCE_S
    layers = ("chain", "measure", "cli")
    assert sum(m[f"{x}.self_s"] for x in layers) == pytest.approx(
        wall, abs=run.GAP_TOLERANCE_S)
    assert m["chain.predecessors_calls"] == 4
    assert m["measure.solve_calls"] == 1
    assert set(m) == set(per_layer_metric_names())
    # a job time the spans do not cover shows as a gap
    _, gap = tr.job_metrics([wall + 0.05])
    assert gap > run.GAP_TOLERANCE_S


def test_raised_spans_are_counted():
    tr = Tracer()

    def bad():
        raise ValueError("no")

    wrapped = tr.wrap(bad, "measure.solve_stationary")
    with pytest.raises(ValueError):
        tr.run_job("j", wrapped)
    (m,), _ = tr.job_metrics([0.0])
    assert m["measure.raised"] == 1 and m["cli.raised"] == 1


def test_install_wraps_sibling_bindings_and_uninstall_restores(tmp_path):
    cli = run.import_cli()
    import fairshift.measure
    import fairshift.recurrence
    original = fairshift.measure.solve_stationary
    tr = Tracer()
    tr.install()
    try:
        assert fairshift.recurrence.solve_stationary is not original
        assert cli.solve_stationary is fairshift.recurrence.solve_stationary
        t0 = time.perf_counter()
        code = tr.run_job("analyze", cli.main,
                          ["analyze", "origin-broadcast",
                           "--out", str(tmp_path)])
        wall = time.perf_counter() - t0
    finally:
        tr.uninstall()
    assert code == 0
    assert fairshift.recurrence.solve_stationary is original
    assert cli.solve_stationary is original
    (m,), gap = tr.job_metrics([wall])
    assert gap < run.GAP_TOLERANCE_S
    assert m["measure.solve_calls"] == 1 and m["chain.predecessors_calls"] > 0
    assert m["io.json_bytes"] == os.path.getsize(tmp_path / "analyze.json")


def test_speed_probe_samples_while_work_runs_and_restores_signals():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            pass
    assert len(probe.samples) >= 3
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert probe.factor() == pytest.approx(
        REFERENCE_S / statistics.mean(probe.samples))


def test_cold_start_is_checked_and_converted_to_reference_seconds(tmp_path):
    jobs = workloads.make_inputs("trichotomy", 0,
                                 str(tmp_path / "inputs"))
    runner = run.Runner(None, jobs, str(tmp_path))
    (wall, factor), = run.cold_starts("trichotomy", 0, str(tmp_path), 1,
                                      runner)
    assert runner.attempted == 1 and runner.problems == []
    assert wall > 0 and factor > 0


def test_compare_flags_reference_and_raw_times_that_disagree():
    def result(wall_ref, wall):
        return {"end_to_end": {"wall_ref_s": {"median": wall_ref}},
                "raw": {"wall_s": {"median": wall}}}

    bound = {"wall_ref_s": 0.25}
    old = result(5.0, 5.0)
    assert suite.disagreements(old, result(4.0, 4.2), bound) == []
    assert suite.disagreements(old, result(5.05, 4.95), bound) == []
    assert suite.disagreements(old, result(4.0, 6.0), bound) != []
    assert suite.disagreements(old, result(4.5, 5.5), bound) != []


def _job(workload, name, tmp):
    jobs = workloads.make_inputs(workload, 0, str(tmp))
    return next(j for j in jobs if j.name == name)


@pytest.mark.parametrize("workload,name,report,doctor", [
    ("trichotomy", "classify-biased-walk", {"verdict": "transient"},
     {"verdict": "null-recurrent"}),
    ("trichotomy", "verify-factorial-chain",
     {"verdict": "pass", "fair_entropy": 1.04750264515},
     {"fair_entropy": 1.0475}),
    ("trichotomy", "analyze-unbiased-walk",
     {"verdict": "NoSummableSolution"}, {"verdict": "PositiveRecurrent"}),
    ("exact-models", "fairmodel-staircase",
     {"fairness_exact_zero": True, "fair_entropy": 1.04750264515},
     {"fairness_exact_zero": False}),
    ("exact-models", "graph-dendrite",
     {"verdict": "PositiveRecurrent", "pipelines_agree": True,
      "pipeline_entropy_gap": 1.5e-9, "fair_entropy_shift_side": 1.7406498236},
     {"pipeline_entropy_gap": 1e-3}),
    ("trajectories", "simulate-origin-broadcast",
     {"equidistribution": {"max_discrepancy": 0.01}, "per_path": [{}]},
     {"equidistribution": None}),
    ("trajectories", "simulate-unbiased-walk",
     {"equidistribution": None, "per_path": [{}]},
     {"equidistribution": {"max_discrepancy": 0.01}}),
])
def test_oracle_rejects_doctored_report(tmp_path, workload, name, report,
                                        doctor):
    job = _job(workload, name, tmp_path)
    assert job.oracle(0, report) == []
    assert job.oracle(2, report) != []
    assert job.oracle(0, {**report, **doctor}) != []


def test_runner_flags_artifacts_that_change_between_passes(tmp_path):
    job = _job("trichotomy", "classify-biased-walk", tmp_path)
    runner = run.Runner(None, [job], str(tmp_path))
    out = tmp_path / "out"
    out.mkdir()
    (out / "classify.json").write_text(json.dumps({"verdict": "transient"}))
    (out / "series.csv").write_text("n,term\n0,1\n")
    runner.check(job, 0, str(out))
    runner.check(job, 0, str(out))
    assert runner.problems == []
    (out / "series.csv").write_text("n,term\n0,0.5\n")
    runner.check(job, 0, str(out))
    assert runner.attempted == 3
    assert runner.problems == [
        "classify-biased-walk: artifacts differ between passes"]


def _spec_files(workload, seed, path):
    jobs = workloads.make_inputs(workload, seed, str(path))
    return jobs, {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_inputs_repeat_for_a_seed_and_differ_across_seeds(tmp_path):
    jobs_a, files_a = _spec_files("exact-models", 7, tmp_path / "a")
    jobs_b, files_b = _spec_files("exact-models", 7, tmp_path / "b")
    _, files_c = _spec_files("exact-models", 8, tmp_path / "c")
    assert len(files_a) == workloads.GRAPH_SPECS
    assert files_a == files_b
    assert files_a != files_c
    assert [j.name for j in jobs_a] == [j.name for j in jobs_b]
    for wl in ("trichotomy", "trajectories"):
        argv = [j.argv for j in workloads.make_inputs(wl, 3, str(tmp_path))]
        assert argv == [j.argv for j in
                        workloads.make_inputs(wl, 3, str(tmp_path))]
        assert all("--seed" not in a or "3" in a for a in argv)


def test_generated_graph_specs_are_irreducible(tmp_path):
    _, files = _spec_files("exact-models", 11, tmp_path)
    for raw in files.values():
        doc = json.loads(raw)
        succ = {int(a): {b for b, _ in legs}
                for a, legs in doc["transitions"].items()}
        assert all(1 <= len(legs) <= 5
                   for legs in doc["transitions"].values())
        for root in succ:
            seen, stack = {root}, [root]
            while stack:
                for b in succ[stack.pop()] - seen:
                    seen.add(b)
                    stack.append(b)
            assert seen == set(doc["arcs"])


def test_unknown_workload_is_rejected(tmp_path):
    with pytest.raises(ValueError):
        workloads.make_inputs("nope", 0, str(tmp_path))


def test_benchmark_json_lists_the_metrics_the_runs_report():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    from tracer import TRACE_METRICS, unit
    layer = per_layer_metric_names() + list(TRACE_METRICS)
    assert [m["name"] for m in spec["per_layer"]] == layer
    assert all(m["unit"] == unit(m["name"]) for m in spec["per_layer"])
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_ref_s", "setup_s", "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert all(w["why"] == workloads.WHY[w["name"]]
               for w in spec["workloads"])
