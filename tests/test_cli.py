"""Command line: exit codes, emitted artifacts, determinism."""

import json
import math
import os
import pathlib
import random
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings

from fairshift import (CHAIN_FAMILIES, build_backward_kernel, chain_to_dict,
                       check_irreducible, dump_json, entropy_tail_estimate,
                       fair_entropy, fair_measure_from, graph_to_dict,
                       integral_log_c, refined_transition_matrix,
                       solve_stationary, unbiased_walk, write_json)
from fairshift import chain, cli, measure
from fairshift.io import ParseError, load_spec
from fairshift.cli import main
from test_measure import graph_specs


def run(tmp_path, *argv):
    out = tmp_path / "out"
    out.mkdir(exist_ok=True)
    code = main([*argv, "--out", str(out)])
    return code, out


def read(out, name):
    return json.loads((out / name).read_text())


# -- analyze ---------------------------------------------------------------

def test_analyze_positive_recurrent_chain(tmp_path):
    code, out = run(tmp_path, "analyze", "origin-broadcast")
    assert code == 0
    rep = read(out, "analyze.json")
    assert rep["verdict"] == "PositiveRecurrent"
    assert rep["fair_entropy"] == pytest.approx(math.log(2), abs=1e-9)
    assert rep["fairness_max_violation"] == 0
    csv = (out / "stationary.csv").read_text().splitlines()
    assert csv[0] == "state,weight,probability"
    assert len(csv) > 10


def test_analyze_no_summable_solution(tmp_path):
    code, out = run(tmp_path, "analyze", "five-three")
    assert code == 0
    rep = read(out, "analyze.json")
    assert rep["verdict"] == "NoSummableSolution"
    assert not (out / "stationary.csv").exists()


def test_analyze_divergent_column(tmp_path):
    spec = tmp_path / "collapse.json"
    spec.write_text(dump_json({
        "schema_version": 1, "kind": "chain", "name": "collapse",
        "domain": [0, None], "window": 1,
        "states": {"0": [0, 1]},
        "tail_rules": {"period": 1, "rules": {"0": {"states": [0]}}},
    }))
    code, out = run(tmp_path, "analyze", str(spec))
    assert code == 0
    rep = read(out, "analyze.json")
    assert rep["verdict"] == "NoFairMeasure"
    assert "infinitely many" in rep["reason"]


def test_analyze_reducible_finite_chain(tmp_path):
    spec = tmp_path / "split.json"
    spec.write_text(dump_json({
        "schema_version": 1, "kind": "chain", "name": "split",
        "domain": [0, 3], "window": 4,
        "states": {"0": [0, 1], "1": [0, 1], "2": [2, 3], "3": [2, 3]},
    }))
    code, out = run(tmp_path, "analyze", str(spec))
    assert code == 0
    rep = read(out, "analyze.json")
    assert rep["verdict"] == "Reducible"
    assert len(rep["per_class"]["classes"]) == 2
    # two full 2-shifts side by side; supremum entropy is log 2
    assert rep["fair_entropy"] == pytest.approx(math.log(2), abs=1e-9)


# -- classify ----------------------------------------------------------------

def test_classify_transient(tmp_path):
    code, out = run(tmp_path, "classify", "biased-walk", "--trials", "5000")
    assert code == 0
    rep = read(out, "classify.json")
    assert rep["verdict"] == "transient"
    assert rep["has_fair_measure"] is False
    series = (out / "series.csv").read_text().splitlines()
    assert series[0] == "n,term,partial_sum"
    # (Q^3)_00 = 3/8 shows as its float rendering
    assert series[4].startswith("3,0.375,")


def test_classify_starved_window_is_unknown(tmp_path):
    code, out = run(tmp_path, "classify", "unbiased-walk",
                    "--window", "8", "--trials", "1000")
    assert code == 2
    assert read(out, "classify.json")["verdict"] == "unknown"


@pytest.mark.parametrize("nmax", [1, 3, 5, 7])
def test_classify_short_series_gives_no_transient_verdict(tmp_path, nmax):
    # the last quarter of so few terms is empty or holds only odd-step
    # zeros, which says nothing about convergence on a null-recurrent walk
    code, out = run(tmp_path, "classify", "unbiased-walk", "--nmax",
                    str(nmax), "--horizon", "100", "--trials", "2000")
    assert code == 2
    rep = read(out, "classify.json")
    assert rep["verdict"] == "unknown"
    assert rep["evidence"]["series"]["last_quarter_growth"] == 0.0


def test_one_parser_serves_successive_calls(tmp_path):
    # the parser is built once per process; a repeated flag must not leak
    # its values into the next call's defaults
    code, out = run(tmp_path, "classify", "origin-broadcast",
                    "--horizon", "50", "--trials", "200")
    assert code == 0
    assert read(out, "classify.json")["config"]["horizons"] == [50]
    code, out = run(tmp_path, "classify", "origin-broadcast",
                    "--trials", "200")
    assert code == 0
    assert read(out, "classify.json")["config"]["horizons"] == [100, 1000,
                                                                10000]
    assert cli._build_parser() is cli._build_parser()
    assert main(["classify", "origin-broadcast", "--trials", "0",
                 "--out", str(tmp_path / "bad")]) == 1
    assert not (tmp_path / "bad").exists()


def test_classify_is_byte_deterministic(tmp_path):
    a_code, a_out = run(tmp_path, "classify", "five-three",
                        "--trials", "2000")
    b = tmp_path / "b"
    b.mkdir()
    b_code = main(["classify", "five-three", "--trials", "2000",
                   "--out", str(b)])
    assert a_code == b_code == 0
    assert (a_out / "classify.json").read_bytes() == \
        (b / "classify.json").read_bytes()
    assert (a_out / "series.csv").read_bytes() == (b / "series.csv").read_bytes()


# -- simulate ----------------------------------------------------------------

def test_simulate_emits_paths_and_summary(tmp_path):
    code, out = run(tmp_path, "simulate", "factorial-chain",
                    "--length", "3000", "--paths", "2")
    assert code == 0
    rep = read(out, "simulate.json")
    assert len(rep["per_path"]) == 2
    assert rep["per_path"][0]["seed"] == 0
    assert rep["equidistribution"]["max_discrepancy"] < 0.2
    assert rep["geo_mean_target"] == pytest.approx(2.85052, abs=2e-4)
    for k in (0, 1):
        lines = (out / f"path_{k}.csv").read_text().splitlines()
        assert lines[0] == "step,state,running_geo_mean_c"
        assert len(lines) == 3002


def test_simulate_null_recurrent_has_no_reference_measure(tmp_path):
    code, out = run(tmp_path, "simulate", "unbiased-walk",
                    "--length", "500")
    assert code == 0
    rep = read(out, "simulate.json")
    assert rep["equidistribution"] is None
    assert "note" in rep


def test_simulate_window_zero_stops_at_the_first_window(tmp_path):
    # like classify, a zero cap solves one window and gives up
    code, out = run(tmp_path, "simulate", "origin-broadcast",
                    "--window", "0", "--length", "10")
    assert code == 0
    rep = read(out, "simulate.json")
    assert rep["equidistribution"] is None
    assert "geo_mean_target" not in rep
    assert rep["note"].startswith("solver window budget ran out")


def test_simulate_rejects_foreign_start(tmp_path):
    out = tmp_path / "o"
    out.mkdir()
    code = main(["simulate", "origin-broadcast", "--start", "-2",
                 "--out", str(out)])
    assert code == 1


def test_simulate_reruns_identically(tmp_path):
    _, a = run(tmp_path, "simulate", "five-three", "--length", "2000",
               "--seed", "3")
    b = tmp_path / "b"
    b.mkdir()
    main(["simulate", "five-three", "--length", "2000", "--seed", "3",
          "--out", str(b)])
    assert (a / "path_0.csv").read_bytes() == (b / "path_0.csv").read_bytes()
    assert (a / "simulate.json").read_bytes() == (b / "simulate.json").read_bytes()


# -- fairmodel ----------------------------------------------------------------

def test_fairmodel_staircase(tmp_path):
    code, out = run(tmp_path, "fairmodel", "--map-family", "staircase")
    assert code == 0
    rep = read(out, "fairmodel.json")
    assert rep["verdict"] == "ModelBuilt"
    assert rep["fairness_exact_zero"] is True
    assert rep["pieces"] > 100
    assert abs(rep["rohlin_entropy"] - rep["fair_entropy"]) < 1e-6
    lines = (out / "fairmodel.csv").read_text().splitlines()
    assert lines[0] == "x,x_right,y,y_right,slope"


def test_fairmodel_tent_reproduces_the_tent_map(tmp_path):
    code, out = run(tmp_path, "fairmodel", "--map-family", "tent")
    assert code == 0
    rows = [r.split(",") for r in
            (out / "fairmodel.csv").read_text().splitlines()[1:]]
    assert [r[4] for r in rows] == ["2", "2", "-2", "-2"]
    rep = read(out, "fairmodel.json")
    assert rep["merged_segments"] == 2
    assert rep["rohlin_entropy"] == pytest.approx(math.log(2), abs=1e-12)


def test_fairmodel_accepts_a_map_with_float_weights(tmp_path):
    # golden-mean map 0 -> {0, 1}, 1 -> {0}: no closed form, so the model
    # is built from float weights and only a float fairness check applies
    spec = tmp_path / "golden.json"
    spec.write_text(dump_json({
        "schema_version": 1, "kind": "interval-map", "name": "golden-mean",
        "partition": {"points": ["0", "1/2", "1"]},
        "branches": [{"interval": 0, "image": ["0", "1"]},
                     {"interval": 1, "image": ["0", "1/2"]}],
    }))
    code, out = run(tmp_path, "fairmodel", str(spec))
    assert code == 0
    rep = read(out, "fairmodel.json")
    assert rep["verdict"] == "ModelBuilt"
    assert rep["stationary_provenance"] == "truncated"
    assert rep["pieces"] == 3
    assert rep["fairness_exact_zero"] is None
    assert rep["fairness_max_violation"] < 1e-12
    # row sums that miss their weight by rounding lose no mass
    assert rep["truncation_gap"] == 0.0
    assert rep["fair_entropy"] == 0.462098120373
    code, out = run(tmp_path, "analyze", str(spec))
    assert code == 0
    assert read(out, "analyze.json")["fair_entropy"] == rep["fair_entropy"]


@pytest.mark.parametrize("name", ["tent", "full-three"])
def test_fairmodel_closed_form_follows_the_rules_not_the_name(tmp_path, name):
    # three full branches: the full 3-shift, whatever the map is called
    spec = tmp_path / "three.json"
    spec.write_text(dump_json({
        "schema_version": 1, "kind": "interval-map", "name": name,
        "partition": {"points": ["0", "1/3", "2/3", "1"]},
        "branches": [
            {"interval": k, "image": ["0", "1"],
             "orientation": "decreasing" if k == 1 else "increasing"}
            for k in range(3)],
    }))
    code, out = run(tmp_path, "fairmodel", str(spec))
    assert code == 0
    rep = read(out, "fairmodel.json")
    assert rep["stationary_provenance"] == "closed-form"
    assert rep["pieces"] == 9
    assert rep["fairness_exact_zero"] is True
    assert rep["rohlin_entropy"] == pytest.approx(math.log(3), abs=1e-11)


def test_fairmodel_without_fair_measure(tmp_path):
    code, out = run(tmp_path, "fairmodel", "--map-family", "five-three-map")
    assert code == 0
    assert read(out, "fairmodel.json")["verdict"] == "NoFairModel"


# -- graph ---------------------------------------------------------------------

def test_graph_dendrite_pipeline(tmp_path):
    code, out = run(tmp_path, "graph", "--window", "6")
    assert code == 0
    rep = read(out, "graph.json")
    assert rep["pipelines_agree"] is True
    assert rep["verdict"] == "PositiveRecurrent"
    # the blade window truncates both entropy estimates; at window 6 they
    # agree to about a third of a percent, tightening as the window grows
    assert rep["pipeline_entropy_gap"] < 1e-2
    assert (out / "chain.json").exists()
    assert (out / "interval_map.json").exists()


def test_graph_solves_once_when_the_pipelines_agree(tmp_path, monkeypatch):
    calls = []
    solve = cli.solve_stationary

    def counted(*args, **kwargs):
        calls.append(args[0].base.name)
        return solve(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_stationary", counted)
    code, out = run(tmp_path, "graph", "--window", "4")
    assert code == 0
    rep = read(out, "graph.json")
    assert rep["pipelines_agree"] is True
    assert "fair_model_pieces" in rep
    assert len(calls) == 1


def test_graph_exchange_spec(tmp_path):
    spec = tmp_path / "swap.json"
    spec.write_text(dump_json({
        "schema_version": 1, "kind": "graph", "name": "swap",
        "arcs": [1, 2],
        "transitions": {"1": [[2, True]], "2": [[1, True]]},
    }))
    code, out = run(tmp_path, "graph", str(spec))
    assert code == 0
    rep = read(out, "graph.json")
    assert rep["fair_entropy_shift_side"] == pytest.approx(0.0, abs=1e-12)
    assert rep["fair_model_pieces"] == 2


def refines_irreducibly(spec) -> bool:
    m = refined_transition_matrix(spec)
    return check_irreducible(m, max(abs(m.lo), abs(m.hi)))[0]


@settings(max_examples=60, deadline=None)
@given(graph_specs().filter(refines_irreducibly))
def test_generated_graph_specs_run_end_to_end(spec):
    m = refined_transition_matrix(spec)
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "spec.json"
        path.write_text(dump_json(graph_to_dict(spec)))
        code, out = run(pathlib.Path(tmp), "graph", str(path))
        rep = read(out, "graph.json")
        chain_doc = load_spec(str(out / "chain.json"))
    assert code == 0
    assert rep["verdict"] == "PositiveRecurrent"
    assert rep["pipelines_agree"] is True
    assert rep["pipeline_entropy_gap"] < 1e-9
    # the written refined chain is the one solved, and h = integral of
    # log c over it, within the bound verify allows
    assert chain_doc.same_matrix(m)
    kernel = build_backward_kernel(chain_doc)
    pi = solve_stationary(kernel)
    mu = fair_measure_from(pi, kernel, window=pi.window)
    h = fair_entropy(mu, window=pi.window)
    assert h == pytest.approx(rep["fair_entropy_shift_side"], rel=1e-11)
    assert abs(h - integral_log_c(mu, chain_doc, window=pi.window)) <= (
        entropy_tail_estimate(mu, window=pi.window) + 1e-6)


# -- verify -----------------------------------------------------------------------

def test_verify_positive_recurrent_chain(tmp_path):
    code, out = run(tmp_path, "verify", "factorial-chain")
    assert code == 0
    rep = read(out, "verify.json")
    assert rep["verdict"] == "pass"
    names = {c["name"] for c in rep["checks"]}
    assert "stationary_residual" in names
    assert "fair_on_cylinders" in names
    assert all(c["pass"] for c in rep["checks"])


def test_verify_structure_only_when_no_fair_measure(tmp_path):
    code, out = run(tmp_path, "verify", "five-three")
    assert code == 0
    rep = read(out, "verify.json")
    assert rep["verdict"] == "NoSummableSolution"


def test_verify_fails_on_a_broken_spec(tmp_path):
    # a chain whose declared rows are fine but whose kernel cannot be fair:
    # verify on the divergent collapse chain must not pass
    spec = tmp_path / "collapse.json"
    spec.write_text(dump_json({
        "schema_version": 1, "kind": "chain", "name": "collapse",
        "domain": [0, None], "window": 1,
        "states": {"0": [0, 1]},
        "tail_rules": {"period": 1, "rules": {"0": {"states": [0]}}},
    }))
    out = tmp_path / "o"
    out.mkdir()
    code = main(["verify", str(spec), "--out", str(out)])
    assert code == 1


def test_verify_names_failing_checks_on_stderr(tmp_path, capsys):
    # two closed classes plus a state that leaks into both
    spec = tmp_path / "split.json"
    spec.write_text(dump_json({
        "schema_version": 1, "kind": "chain", "name": "split",
        "domain": [0, 4], "window": 5,
        "states": {"0": [0, 1], "1": [0, 1], "2": [2, 3], "3": [2, 3],
                   "4": [0, 2, 4]},
    }))
    code, out = run(tmp_path, "verify", str(spec))
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "fairshift: verify: check irreducible_on_window failed: "
        "value disconnected pair (0, 2), bound true"]
    assert captured.out.startswith("FAIL (5 checks) -> ")
    failing = [c for c in read(out, "verify.json")["checks"] if not c["pass"]]
    assert [c["name"] for c in failing] == ["irreducible_on_window"]


def test_verify_reports_a_singular_solve_as_a_failing_check(tmp_path, capsys):
    # two closed classes and nothing between them: the window solve has
    # no unique solution, which is a failed check, not a crash
    spec = tmp_path / "split.json"
    spec.write_text(dump_json({
        "schema_version": 1, "kind": "chain", "name": "split",
        "domain": [0, 3], "window": 4,
        "states": {"0": [0, 1], "1": [0, 1], "2": [2, 3], "3": [2, 3]},
    }))
    code, out = run(tmp_path, "verify", str(spec))
    assert code == 1
    assert capsys.readouterr().out.startswith("FAIL (3 checks) -> ")
    rep = read(out, "verify.json")
    assert rep["verdict"] == "fail"
    failing = {c["name"]: c["value"] for c in rep["checks"] if not c["pass"]}
    assert sorted(failing) == ["irreducible_on_window", "stationary_solve"]
    assert "more than one closed class" in failing["stationary_solve"]


def test_a_failed_window_factorisation_is_a_failing_check(tmp_path, capsys,
                                                           monkeypatch):
    # a pinned system that does not factorise ends like several closed
    # classes: a failed check in verify, one error line elsewhere
    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")
    monkeypatch.setattr(np.linalg, "solve", singular)
    code, out = run(tmp_path, "verify", "origin-broadcast")
    assert code == 1
    failing = {c["name"]: c["value"] for c in read(out, "verify.json")["checks"]
               if not c["pass"]}
    assert failing == {"stationary_solve": "window solve failed"}
    capsys.readouterr()
    assert main(["analyze", "origin-broadcast", "--out", str(tmp_path / "a")]) == 1
    assert capsys.readouterr().err == \
        "fairshift: SingularWindow: window solve failed\n"


def test_verify_fails_a_doctored_weight_on_cylinders(tmp_path, capsys,
                                                     monkeypatch):
    # the solved vector with the weight of state 3 scaled by 1.01 is not
    # stationary, so the rows of its forward matrix do not sum to one
    def doctored(kernel, **kw):
        pi = measure.solve_stationary(kernel, **kw)
        weights = dict(pi.weights)
        weights[3] *= 1.01
        return measure.StationaryVector(weights, pi.total, pi.provenance,
                                        pi.window, pi.tolerance)
    monkeypatch.setattr(cli, "solve_stationary", doctored)
    code, out = run(tmp_path, "verify", "origin-broadcast")
    assert code == 1
    checks = {c["name"]: c for c in read(out, "verify.json")["checks"]}
    assert not checks["fair_on_cylinders"]["pass"]
    assert checks["fair_on_cylinders"]["value"] == pytest.approx(6.25e-4,
                                                                 rel=1e-6)
    assert "check fair_on_cylinders failed" in capsys.readouterr().err


def _change_preds_of_3(change):
    """A doctoring that changes the kernel's predecessors of state 3."""
    def doctor(monkeypatch):
        preds = chain.BackwardKernel.preds
        monkeypatch.setattr(chain.BackwardKernel, "preds", lambda self, j: (
            change(preds(self, j)) if j == 3 else preds(self, j)))
        return "factorial-chain"
    return doctor


def _scale_weight_of_3(monkeypatch):
    # the solved vector with the weight of state 3 scaled by 1.01
    def doctored(kernel, **kw):
        pi = measure.solve_stationary(kernel, **kw)
        weights = dict(pi.weights)
        weights[3] *= 1.01
        return measure.StationaryVector(weights, pi.total, pi.provenance,
                                        pi.window, pi.tolerance)
    monkeypatch.setattr(cli, "solve_stationary", doctored)
    return "origin-broadcast"


def _reducible_spec(monkeypatch):
    return str(pathlib.Path(__file__).parent / "golden" / "specs" / "split.json")


@pytest.mark.parametrize("doctor, failing", [
    (_change_preds_of_3(lambda p: p[:-1]), "kernel_matches_rules"),
    (_change_preds_of_3(lambda p: p + p[:1]), "kernel_matches_rules"),
    (_reducible_spec, "irreducible_on_window"),
    (_scale_weight_of_3, "stationary_residual"),
    (_scale_weight_of_3, "fair_on_cylinders"),
    (_scale_weight_of_3, "entropy_equals_integral_log_c"),
], ids=["dropped-predecessor", "repeated-predecessor", "reducible",
        "scaled-weight-residual", "scaled-weight-cylinders",
        "scaled-weight-entropy"])
def test_each_verify_check_fails_on_a_doctored_input(tmp_path, capsys,
                                                     monkeypatch, doctor,
                                                     failing):
    code, out = run(tmp_path, "verify", doctor(monkeypatch))
    assert code == 1
    checks = {c["name"]: c["pass"] for c in read(out, "verify.json")["checks"]}
    assert len(checks) == 5 and checks[failing] is False
    assert f"check {failing} failed" in capsys.readouterr().err


@pytest.mark.parametrize("k", [14, 20])
def test_the_uniform_measure_of_a_wide_full_shift_is_fair(tmp_path, k):
    # every state of the shift is in the window the check runs on
    code, out = run(tmp_path, "verify", f"full-shift-{k}")
    assert code == 0
    checks = {c["name"]: c for c in read(out, "verify.json")["checks"]}
    assert all(c["pass"] for c in checks.values())
    code, out = run(tmp_path, "analyze", f"full-shift-{k}")
    assert code == 0
    assert read(out, "analyze.json")["fairness_max_violation"] < 1e-12


# -- error handling ----------------------------------------------------------------

def test_unknown_family_exits_one(tmp_path, capsys):
    out = tmp_path / "o"
    out.mkdir()
    assert main(["analyze", "not-a-chain", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "not-a-chain" in err


def test_broken_json_exits_one(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{this is not json")
    out = tmp_path / "o"
    out.mkdir()
    assert main(["analyze", str(bad), "--out", str(out)]) == 1


def test_bad_flag_exits_one(tmp_path):
    assert main(["classify", "unbiased-walk", "--trials", "many"]) == 1
    assert main(["no-such-command"]) == 1


@pytest.mark.parametrize("argv, flag", [
    (["classify", "unbiased-walk", "--trials", "0"], "--trials"),
    (["classify", "unbiased-walk", "--trials", "-1"], "--trials"),
    (["classify", "unbiased-walk", "--horizon", "0"], "--horizon"),
    (["classify", "unbiased-walk", "--nmax", "0"], "--nmax"),
    (["simulate", "origin-broadcast", "--paths", "0"], "--paths"),
    (["simulate", "origin-broadcast", "--depth", "0"], "--depth"),
    (["simulate", "origin-broadcast", "--length", "-3"], "--length"),
    (["analyze", "origin-broadcast", "--depth", "-1"], "--depth"),
    (["verify", "origin-broadcast", "--depth", "-1"], "--depth"),
    (["fairmodel", "--map-family", "tent", "--depth", "-1"], "--depth"),
    (["analyze", "origin-broadcast", "--depth", "0"], "--depth"),
    (["verify", "origin-broadcast", "--depth", "0"], "--depth"),
    (["fairmodel", "--map-family", "tent", "--depth", "0"], "--depth"),
    (["analyze", "unbiased-walk", "--window", "-3"], "--window"),
    (["graph", "--family", "dendrite", "--window", "-2"], "--window"),
])
def test_bad_counts_are_rejected_at_parse_time(tmp_path, capsys, argv, flag):
    out = tmp_path / "o"
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"argument {flag}: must be at least" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_windows_that_mean_nothing_are_rejected(tmp_path, capsys):
    # the dendrite has no blade window below 1, a graph spec has no window
    # at all, and a fair model has no piece bound below 1
    spec = tmp_path / "graph.json"
    write_json(spec, small_graph_spec(0))
    for argv in (["graph", "--family", "dendrite", "--window", "0"],
                 ["graph", str(spec), "--window", "4"],
                 ["fairmodel", "--map-family", "staircase", "--window", "0"],
                 ["fairmodel", "--map-family", "tent", "--window", "0"]):
        out = tmp_path / "o"
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "(field '--window')" in err
        assert "Traceback" not in err
        assert not out.exists()


ORPHAN = {"schema_version": 1, "kind": "chain", "name": "orphan",
          "domain": [0, 1], "window": 2, "states": {"0": [1], "1": [1]}}


@pytest.mark.parametrize("command", ["classify", "simulate"])
def test_stuck_backward_walk_exits_one_without_traceback(tmp_path, capsys,
                                                         command):
    # state 0 has no predecessors, so the walk from it cannot step
    spec = tmp_path / "orphan.json"
    write_json(spec, ORPHAN)
    out = tmp_path / "o"
    assert main([command, str(spec), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("fairshift: StuckWalk: ")
    assert "state 0 has no predecessors" in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


CHAIN = {"schema_version": 1, "kind": "chain"}
MAP = {"schema_version": 1, "kind": "interval-map",
       "branches": [{"image": ["0", "1"]}]}
WALK = {"period": 1, "rules": {"0": [-1, 1]}}

# spec file contents (a document, raw bytes, or a committed file) and the
# field the reader names, where it knows one
MALFORMED = {
    "rules-array": (pathlib.Path(__file__).parent / "specs"
                    / "malformed-tail-rules.json", "tail_rules.rules"),
    "rules-number": ({**CHAIN, "tail_rules": {"period": 1, "rules": 5}},
                     "tail_rules.rules"),
    "offsets-number": ({**CHAIN, "tail_rules": {
        "period": 1, "rules": {"0": {"offsets": 5}}}},
        "tail_rules.rules.0.offsets"),
    "successors-number": ({**CHAIN, "domain": [0, 0], "window": 1,
                           "states": {"0": {"successors": 5}}},
                          "states.0.successors"),
    "successors-string": ({**CHAIN, "domain": [0, 0], "window": 1,
                           "states": {"0": {"successors": "0"}}},
                          "states.0.successors"),
    "points-number": ({**MAP, "partition": {"points": 5}}, "partition.points"),
    "points-object": ({**MAP, "partition": {"points": {"0": "1"}}},
                      "partition.points"),
    "points-equal": ({**MAP, "partition": {"points": ["0", "0"]}}, None),
    "ratio-zero": ({**MAP, "partition": {"type": "geometric", "ratio": "0"}},
                   None),
    "image-reversed": ({**MAP, "partition": {"points": ["0", "1"]},
                        "branches": [{"image": ["1", "0"]}]}, None),
    "branch-beyond-partition": ({**MAP, "partition": {"points": ["0", "1"]},
                                 "branches": [{"interval": 5,
                                               "image": ["0", "1"]}]}, None),
    "branch-missing": ({**MAP, "partition": {"points": ["0", "1/2", "1"]}},
                       None),
    "dendrite-window-0": ({"kind": "graph", "family": "dendrite",
                           "window": 0}, None),
    "head-1e12": ({**CHAIN, "window": 10 ** 12, "tail_rules": WALK}, None),
    "not-utf8": (b'\xff{"kind": "chain"}', None),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_a_malformed_spec_ends_in_one_error_line(tmp_path, capsys, case):
    content, field = MALFORMED[case]
    if isinstance(content, pathlib.Path):
        spec = content
    else:
        spec = tmp_path / f"{case}.json"
        if isinstance(content, bytes):
            spec.write_bytes(content)
        else:
            write_json(spec, content)
    with pytest.raises(ParseError) as exc:
        load_spec(spec)
    assert exc.value.field == field
    out = tmp_path / "o"
    assert main(["analyze", str(spec), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("fairshift: ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert not out.exists()


# the +-1 walk on the half-line 10, 11, ...: no state lies in [-8, 8], and
# the bound clips the row of 10 to {11}
FAR = {"schema_version": 1, "kind": "chain", "name": "far",
       "domain": [10, None], "window": 0,
       "tail_rules": {"period": 1, "rules": {"0": [-1, 1]}}}


@pytest.mark.parametrize("argv", [["analyze"], ["verify"],
                                  ["classify", "--trials", "2000"],
                                  ["simulate", "--length", "2000"]])
def test_half_line_far_from_zero_gets_a_report(tmp_path, capsys, argv):
    spec = tmp_path / "far.json"
    write_json(spec, FAR)
    code, out = run(tmp_path, argv[0], str(spec), *argv[1:])
    assert code in (0, 2)
    assert capsys.readouterr().err == ""
    rep = read(out, f"{argv[0]}.json")
    if argv[0] == "simulate":
        # the sampler walks the clipped rows, never off the half-line
        rows = (out / "path_0.csv").read_text().splitlines()[1:]
        assert min(int(r.split(",")[1]) for r in rows) == 10
    else:
        assert rep["verdict"] in ("NoSummableSolution", "null-recurrent",
                                  "pass")


# domains that start beyond the fixed windows of analyze and verify
# around 0 (24 for irreducibility, 12 for cylinders, 32 for balance): the
# +-1 walk on either half-line, and origin-broadcast moved to start at 30
BEYOND = {
    "far30": {**FAR, "name": "far30", "domain": [30, None]},
    "farneg40": {**FAR, "name": "farneg40", "domain": [None, -40]},
    "ob30": {"schema_version": 1, "kind": "chain", "name": "ob30",
             "domain": [30, None], "window": 31,
             "states": {"30": {"all_from": 30, "successors": []}},
             "tail_rules": {"period": 1, "rules": {"0": [-1]}}},
}


@pytest.mark.parametrize("name", sorted(BEYOND))
def test_windows_shift_to_a_domain_away_from_zero(tmp_path, capsys,
                                                  monkeypatch, name):
    spec = tmp_path / f"{name}.json"
    write_json(spec, BEYOND[name])
    windows = []        # the cylinder check's windows, which ran on states

    def recording(mu, m, depth, window):
        windows.append(len(m.states(window)))
        return measure.check_fair_on_cylinders(mu, m, depth, window)
    monkeypatch.setattr(cli, "check_fair_on_cylinders", recording)
    code, out = run(tmp_path, "analyze", str(spec))
    assert code == 0
    assert capsys.readouterr().err == ""
    rep = read(out, "analyze.json")
    assert rep["irreducible_on_window"] is True
    code, out = run(tmp_path, "verify", str(spec))
    assert code == 0
    assert capsys.readouterr().err == ""
    assert all(c["pass"] for c in read(out, "verify.json")["checks"])
    if name != "ob30":
        assert rep["verdict"] == "NoSummableSolution"
        return
    # origin-broadcast shifted by 30: the same verdict and entropy, with
    # the displayed weights and every check on states of the domain
    assert windows and min(windows) > 0
    assert min(map(int, rep["pi"])) == 30
    code, ref = run(tmp_path, "analyze", "origin-broadcast")
    want = read(ref, "analyze.json")
    assert rep["verdict"] == want["verdict"] == "PositiveRecurrent"
    assert rep["fair_entropy"] == want["fair_entropy"]


def test_zero_length_simulate_is_accepted(tmp_path):
    code, out = run(tmp_path, "simulate", "origin-broadcast", "--length", "0")
    assert code == 0
    assert (out / "path_0.csv").read_text().splitlines()[1:] == ["0,0,2"]


def test_simulate_depth_beyond_the_path_counts_unseen_words(tmp_path):
    # a one-state path has no length-2 windows: those words read as
    # frequency 0 and keep their whole measure in the discrepancy
    code, out = run(tmp_path, "simulate", "origin-broadcast", "--length", "0",
                    "--depth", "2")
    assert code == 0
    eq = read(out, "simulate.json")["equidistribution"]
    pairs = [e for e in eq["worst_words"] if len(e["word"]) == 2]
    assert pairs
    for e in pairs:
        assert e["empirical"] == 0
        assert eq["max_discrepancy"] >= e["measure"]


def test_chain_file_and_family_give_identical_reports(tmp_path):
    spec = tmp_path / "walk.json"
    write_json(spec, chain_to_dict(unbiased_walk()))
    _, a = run(tmp_path, "classify", str(spec), "--trials", "2000")
    b = tmp_path / "b"
    b.mkdir()
    main(["classify", "unbiased-walk", "--trials", "2000", "--out", str(b)])
    ra, rb = json.loads((a / "classify.json").read_text()), \
        json.loads((b / "classify.json").read_text())
    ra["config"].pop("input", None)
    rb["config"].pop("input", None)
    assert ra == rb


def loaded_scipy_modules(runs: list[list[str]]) -> list[str]:
    """scipy modules loaded after ``main`` ran each argv in a fresh
    interpreter; every run must end with exit code 0."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")]))
    code = ("import json, sys, fairshift, fairshift.cli\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert fairshift.cli.main(argv) == 0, argv\n"
            "print(json.dumps(sorted(m for m in sys.modules "
            "if m.partition('.')[0] == 'scipy')))")
    out = subprocess.run([sys.executable, "-c", code, json.dumps(runs)],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_importing_the_package_and_cli_loads_no_scipy():
    # scipy is imported only by the sparse solve of a large window
    assert loaded_scipy_modules([]) == []


def small_graph_spec(seed: int) -> dict:
    """A random strongly connected graph-map spec: 16-48 arcs, 1-5 legs."""
    rng = random.Random(seed)
    arcs = list(range(1, rng.randint(16, 48) + 1))
    order = rng.sample(arcs, len(arcs))
    nxt = {a: order[(k + 1) % len(order)] for k, a in enumerate(order)}
    legs = {a: [nxt[a]] + rng.choices(arcs, k=rng.randint(0, 4)) for a in arcs}
    return {"schema_version": 1, "kind": "graph", "name": f"random-{seed}",
            "arcs": arcs,
            "transitions": {str(a): [[b, rng.random() < 0.5] for b in legs[a]]
                            for a in arcs}}


def test_small_windows_are_solved_without_scipy(tmp_path):
    # every builtin chain, and a graph map whose window stays below
    # measure.DENSE_SOLVE_MAX states, is solved by numpy alone
    spec = tmp_path / "graph.json"
    write_json(spec, small_graph_spec(0))
    runs = [["graph", str(spec)]]
    for name in sorted(CHAIN_FAMILIES):
        runs += [["analyze", name], ["verify", name],
                 ["classify", name, "--trials", "2000"],
                 ["simulate", name, "--length", "1000"]]
    # the dendrite at window 12 has a closed class of 2112 states but only
    # 178 distinct rows of Q^T, so its lumped system is solved densely
    runs.append(["graph", "--family", "dendrite", "--window", "12"])
    out = tmp_path / "out"
    assert loaded_scipy_modules(
        [[*argv, "--out", str(out / str(k))] for k, argv in enumerate(runs)]
    ) == []
    rep = read(out / "0", "graph.json")
    assert rep["verdict"] == "PositiveRecurrent"
    assert rep["refined_states"] <= measure.DENSE_SOLVE_MAX
    rep = read(out / str(len(runs) - 1), "graph.json")
    assert rep["verdict"] == "PositiveRecurrent"
    assert rep["refined_states"] > measure.DENSE_SOLVE_MAX


def test_a_large_window_is_solved_with_scipy(tmp_path):
    # the +-1 walk on 600 states is one closed class whose rows of Q^T
    # (the successor sets {i - 1, i + 1}) are all distinct, so lumping
    # leaves more than measure.DENSE_SOLVE_MAX unknowns
    assert measure.DENSE_SOLVE_MAX < 600
    spec = tmp_path / "walk.json"
    write_json(spec, {"schema_version": 1, "kind": "chain", "name": "walk-600",
                      "domain": [0, 599], "window": 0, "states": {},
                      "tail_rules": {"period": 1, "rules": {"0": [-1, 1]}}})
    argv = ["analyze", str(spec), "--out", str(tmp_path / "o")]
    assert "scipy.sparse.linalg" in loaded_scipy_modules([argv])
    assert read(tmp_path / "o", "analyze.json")["verdict"] == "PositiveRecurrent"
