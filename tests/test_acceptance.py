"""Acceptance gate: one test per criterion, one printed line per criterion.

Run with ``pytest -v tests/test_acceptance.py`` — the verbose listing gives
exactly one PASSED/FAILED line per criterion; with ``-s`` each criterion
also prints its measured values.

Derived reference numbers were frozen from oracles computed independently
of this package (direct Fraction dynamic programs over the defining
recursions and closed-form series):

    factorial-chain entropy  sum_k log(k+2)/(e k!) = 1.0475026451453382
    biased return series     (Q^{3n})_00 = (3n)!/((2n)! n!) 8^-n
    doubled dendrite target  1.0475026451453382 + log 2 = 1.7406498257052836
"""

import json
import math
import time
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from fairshift import (
    ClassifyPolicy, StationaryVector, build_backward_kernel,
    check_fair_on_cylinders, check_lebesgue_fair, classify, cylinder_interval,
    factorial_chain, factorial_stationary, fair_entropy, fair_measure_from,
    find_atomic_fair_measures, five_three_chain, five_three_map,
    five_three_profile, full_shift, full_shift_stationary, geo_mean_series,
    integral_log_c, lebesgue_fair_model, merged_segments, biased_walk,
    origin_broadcast, origin_broadcast_stationary, point_from_itinerary,
    rohlin_entropy, sample_backward, solve_stationary, staircase_map,
    tent_map, transition_matrix, unbiased_walk, verify_stationary,
    NoSummableSolution,
)
from fairshift.cli import main

F = Fraction
FACTORIAL_ENTROPY = 1.0475026451453382
SIX_DIGIT_ENTROPY = math.log(2.85053)


def report(n, detail):
    print(f"\ncriterion {n}: PASS  {detail}")


# -- criterion 1 ---------------------------------------------------------------

def test_criterion_1_broadcast_stationary_entropy_and_verdict():
    t0 = time.perf_counter()
    m = origin_broadcast()
    kernel = build_backward_kernel(m)
    pi = solve_stationary(kernel)
    l1 = sum(abs(pi.entry(i) - 2.0 ** -(i + 1)) for i in range(65))
    assert l1 <= 1e-9

    mu = fair_measure_from(pi, kernel)
    h = fair_entropy(mu)
    assert abs(h - math.log(2)) <= 1e-9

    verdict = classify(kernel, ClassifyPolicy())
    assert verdict.verdict == "positive-recurrent"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, f"l1={l1:.3g} entropy={h:.12g} verdict={verdict.verdict} "
              f"({elapsed:.2f}s)")


# -- criterion 2 ---------------------------------------------------------------

def test_criterion_2_factorial_stationary_and_both_entropy_formulas():
    t0 = time.perf_counter()
    m = factorial_chain()
    kernel = build_backward_kernel(m)
    pi = solve_stationary(kernel)
    worst = max(abs(pi.entry(j) - math.exp(-1) / factorial(j - 1))
                for j in range(1, 31))
    assert worst <= 1e-10

    mu = fair_measure_from(pi, kernel)
    h = fair_entropy(mu)
    assert abs(h - SIX_DIGIT_ENTROPY) <= 1e-4
    assert abs(h - FACTORIAL_ENTROPY) <= 1e-6      # independent series oracle
    integral = integral_log_c(mu)
    assert abs(integral - h) <= 1e-3
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(2, f"max|pi_j - e^-1/(j-1)!|={worst:.3g} entropy={h:.12g} "
              f"integral={integral:.12g} ({elapsed:.2f}s)")


# -- criterion 3 ---------------------------------------------------------------

def test_criterion_3_recurrence_trichotomy():
    t0 = time.perf_counter()
    from fairshift import series_test

    # exact rational series values for the two walks
    unb = series_test(build_backward_kernel(unbiased_walk()), n_max=8)
    assert unb.terms[2] == F(1, 2)
    bia = series_test(build_backward_kernel(biased_walk()), n_max=6)
    for n in (1, 2):
        assert bia.terms[3 * n] == F(factorial(3 * n),
                                     factorial(2 * n) * factorial(n) * 8 ** n)
    assert bia.terms[3] == F(3, 8)
    assert bia.terms[6] == F(15, 64)

    expected = {"unbiased-walk": "null-recurrent",
                "biased-walk": "transient",
                "origin-broadcast": "positive-recurrent"}
    chains = (unbiased_walk(), biased_walk(), origin_broadcast())
    for m in chains:
        kernel = build_backward_kernel(m)
        verdicts = {classify(kernel, ClassifyPolicy(trials=100_000,
                                                    seed=seed)).verdict
                    for seed in range(5)}
        assert verdicts == {expected[m.name]}, (m.name, verdicts)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(3, "null/transient/positive across seeds 0-4 at 1e5 trials, "
              f"series (Q^3)00=3/8 (Q^6)00=15/64 ({elapsed:.1f}s)")


# -- criterion 4 ---------------------------------------------------------------

def test_criterion_4_fairness_identities_are_exact():
    m = origin_broadcast()
    kernel = build_backward_kernel(m)
    mu = fair_measure_from(origin_broadcast_stationary(40), kernel)
    v1 = check_fair_on_cylinders(mu)
    assert isinstance(v1, Fraction) and v1 == 0

    shift = full_shift(2)
    k2 = build_backward_kernel(shift)
    mu2 = fair_measure_from(full_shift_stationary(2), k2)
    v2 = check_fair_on_cylinders(mu2)
    assert isinstance(v2, Fraction) and v2 == 0

    bern = StationaryVector(weights={0: F(1, 3), 1: F(2, 3)}, total=F(1),
                            provenance="closed-form")
    mu3 = fair_measure_from(bern, k2)
    v3 = check_fair_on_cylinders(mu3)
    assert v3 == F(1, 6)
    report(4, f"broadcast = {v1}, 2-shift = {v2}, "
              f"Bernoulli(1/3) defect = {v3} (all exact)")


# -- criterion 5 ---------------------------------------------------------------

def test_criterion_5_backward_trajectory_statistics():
    t0 = time.perf_counter()
    m = origin_broadcast()
    kernel = build_backward_kernel(m)
    path = sample_backward(kernel, 0, 1_000_000, seed=0)
    freq0 = float(np.mean(path.states == 0))
    assert abs(freq0 - 0.5) <= 0.01
    geo = geo_mean_series(path, kernel)
    assert abs(float(geo[-1]) - 2.0) / 2.0 <= 0.01

    up = sample_backward(build_backward_kernel(unbiased_walk()), 0,
                         100_000, seed=0)
    series = geo_mean_series(up, build_backward_kernel(unbiased_walk()))
    assert np.all(series == 2.0)

    bk = build_backward_kernel(biased_walk())
    gone = 0
    for seed in range(100):
        p = sample_backward(bk, 0, 1_000_000, seed=seed)
        visits = p.origin_visits()
        if visits.size == 0 or int(visits[-1]) < 900_000:
            gone += 1
    assert gone >= 95
    elapsed = time.perf_counter() - t0
    report(5, f"broadcast freq(0)={freq0:.4f} geo={float(geo[-1]):.4f}, "
              f"unbiased geo exactly 2, biased escaped {gone}/100 "
              f"({elapsed:.1f}s)")


# -- criterion 6 ---------------------------------------------------------------

def test_criterion_6_lebesgue_fair_models():
    kernel = build_backward_kernel(factorial_chain())
    mu = fair_measure_from(factorial_stationary(30), kernel)
    model = lebesgue_fair_model(staircase_map(), mu, window=30)
    assert (model.cmag == model.dst + 1).all()
    v = check_lebesgue_fair(model)
    assert v == 0
    h = rohlin_entropy(model)
    assert abs(h - SIX_DIGIT_ENTROPY) <= 1e-3

    k2 = build_backward_kernel(full_shift(2))
    mu2 = fair_measure_from(full_shift_stationary(2), k2)
    tent = lebesgue_fair_model(tent_map(), mu2)
    segs = merged_segments(tent)
    assert segs == [(0.0, 0.5, 2), (0.5, 1.0, -2)]
    assert check_lebesgue_fair(tent) == 0
    report(6, f"staircase: {model.piece_count()} pieces, slopes=j+1, "
              f"violation={v}, rohlin={h:.12g}; tent segments={segs}")


# -- criterion 7 ---------------------------------------------------------------

def test_criterion_7_dendrite_graph_pipelines(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "graph"
    out.mkdir()
    code = main(["graph", "--window", "12", "--out", str(out)])
    assert code == 0
    rep = json.loads((out / "graph.json").read_text())
    assert rep["pipelines_agree"] is True
    target = SIX_DIGIT_ENTROPY + math.log(2)
    shift_h = rep["fair_entropy_shift_side"]
    rohlin_h = rep["fair_entropy_rohlin_side"]
    assert abs(shift_h - target) <= 1e-3
    assert abs(rohlin_h - target) <= 1e-3
    assert rep["pipeline_entropy_gap"] <= 1e-6
    elapsed = time.perf_counter() - t0
    report(7, f"shift={shift_h:.10f} rohlin={rohlin_h:.10f} "
              f"target={target:.10f} gap={rep['pipeline_entropy_gap']:.2e} "
              f"({elapsed:.1f}s)")


# -- criterion 8 ---------------------------------------------------------------

def test_criterion_8_five_three_has_no_fair_measure():
    m = five_three_chain()
    kernel = build_backward_kernel(m)

    profile = five_three_profile(24)
    pi = StationaryVector(weights=profile, total=sum(profile.values()),
                          provenance="closed-form")
    residual = verify_stationary(fair_measure_from(pi, kernel))
    assert residual == 0                       # exact, interior states

    out = solve_stationary(kernel)
    assert isinstance(out, NoSummableSolution)
    assert find_atomic_fair_measures(kernel, max_period=8, window=16) == []
    verdict = classify(kernel, ClassifyPolicy(trials=20_000))
    assert verdict.has_fair_measure is False
    report(8, f"alternating profile residual={residual} (exact), solver: "
              f"no summable vector, no atoms, verdict={verdict.verdict}")


# -- criterion 9 ---------------------------------------------------------------

def _random_words(imap, m, rng, count, max_len, state_pool):
    words = []
    for _ in range(count):
        w = [int(rng.choice(state_pool))]
        length = int(rng.integers(2, max_len + 1))
        while len(w) < length:
            succ = [j for j in m.successors(w[-1], within=9) if j in state_pool]
            if not succ:
                break
            w.append(int(rng.choice(succ)))
        words.append(tuple(w))
    return words


def test_criterion_9_symbolic_conjugacy_on_random_words():
    rng = np.random.default_rng(0)
    cases = ((tent_map(), full_shift(2), [0, 1]),
             (staircase_map(), factorial_chain(), list(range(1, 8))))
    checked = 0
    for imap, chain, pool in cases:
        compiled = transition_matrix(imap)
        for i in chain.states(9):
            for j in chain.states(9):
                assert compiled.entry(i, j) == chain.entry(i, j)
        for w in _random_words(imap, chain, rng, 100, 12, pool):
            lo, hi = cylinder_interval(imap, w)
            assert lo < hi
            # one application of the first branch carries the cylinder
            # exactly onto the cylinder of the shifted word
            if len(w) > 1:
                a, b = imap.affine(w[0])
                img = sorted((a * lo + b, a * hi + b))
                assert tuple(img) == cylinder_interval(imap, w[1:])
            # the enclosure midpoint realises the word as an itinerary
            mid = point_from_itinerary(imap, w).midpoint()
            from fairshift import itinerary
            assert itinerary(imap, mid, len(w)) == w
            checked += 1
    # five-three map compiles to the five-three chain as well
    ft = transition_matrix(five_three_map())
    for i in ft.states(9):
        for j in ft.states(9):
            assert ft.entry(i, j) == five_three_chain().entry(i, j)
    report(9, f"{checked} random words verified on tent and staircase; "
              "all three compiled matrices match their chains on |i|<=9")
