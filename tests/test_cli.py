"""Command line: exit codes, emitted artifacts, determinism."""

import json
import math

import pytest

from fairshift import chain_to_dict, dump_json, unbiased_walk, write_json
from fairshift.cli import main


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
    assert captured.out.startswith("FAIL (6 checks) -> ")
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
