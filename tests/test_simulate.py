"""Backward sampling, path statistics and distributional checks.

All sampling is seed-deterministic, so the statistical assertions below
are fixed outcomes, with tolerances sized so that any correct RNG stream
would pass (several sigma).
"""

import math
import tracemalloc
from bisect import bisect_left
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairshift import (
    Abs, BackwardPath, StuckWalk, TransitionRuleSet, build_backward_kernel,
    biased_walk, equidistribution_test, factorial_chain, fair_measure_from,
    five_three_chain, full_shift, geo_mean_convergence, geo_mean_series,
    origin_broadcast, path_statistics, sample_backward, sample_paths,
    solve_stationary, unbiased_walk,
)
from fairshift.simulate import _word_counts
from test_chain import finite_chains

FAMILIES = [unbiased_walk(), biased_walk(), origin_broadcast(),
            factorial_chain(), five_three_chain(), full_shift(2)]


def kernel_of(m):
    return build_backward_kernel(m)


def measure_of(m):
    kernel = kernel_of(m)
    pi = solve_stationary(kernel)
    return fair_measure_from(pi, kernel, pi.window)


# -- legality and determinism --------------------------------------------------

def test_every_sampled_step_is_backward_admissible():
    for m in FAMILIES:
        k = kernel_of(m)
        start = m.spiral(1)[0]
        path = sample_backward(k, start=start, length=2_000, seed=5)
        assert path.states[0] == start
        preds = {}
        for a, b in zip(path.states, path.states[1:]):
            a = int(a)
            if a not in preds:
                preds[a] = set(m.predecessors(a))
            assert int(b) in preds[a], m.name


def test_same_seed_same_path():
    for m in (unbiased_walk(), origin_broadcast(), five_three_chain()):
        k = kernel_of(m)
        s = m.spiral(1)[0]
        a = sample_backward(k, s, 5_000, seed=9)
        b = sample_backward(k, s, 5_000, seed=9)
        c = sample_backward(k, s, 5_000, seed=10)
        assert np.array_equal(a.states, b.states)
        assert not np.array_equal(a.states, c.states)


def test_sample_paths_uses_consecutive_seeds():
    k = kernel_of(unbiased_walk())
    paths = sample_paths(k, 0, 100, n_paths=4, seed=20)
    assert [p.seed for p in paths] == [20, 21, 22, 23]
    single = sample_backward(k, 0, 100, seed=22)
    assert np.array_equal(paths[2].states, single.states)


def test_out_of_domain_start_rejected():
    with pytest.raises(ValueError):
        sample_backward(kernel_of(origin_broadcast()), start=-3, length=10)


def test_stuck_state_is_an_error():
    m = TransitionRuleSet(lo=0, hi=1, head=2,
                          explicit={0: (Abs(1),), 1: (Abs(1),)},
                          name="orphan")
    with pytest.raises(ValueError):
        sample_backward(kernel_of(m), start=0, length=10)


def reference_backward(kernel, start, length, seed=0):
    """The states of a stepping-loop path: cumulative weights and bisection."""
    rng = np.random.default_rng(seed)
    out = np.empty(length + 1, dtype=np.int64)
    out[0] = start
    s = start
    preds_of = kernel.preds
    cums: dict[int, list[float]] = {}     # cumulative uniform weights per count
    for t, u in enumerate(rng.random(length).tolist(), 1):
        preds = preds_of(s)
        cum = cums.get(len(preds))
        if cum is None:
            if not preds:
                raise StuckWalk(f"state {s} has no predecessors; "
                                "backward walk is stuck")
            c = len(preds)
            cum = cums[c] = list(accumulate([1 / c] * c))
        s = preds[bisect_left(cum, u * cum[-1])]
        out[t] = s
    return out


def assert_sampler_matches_reference(m, start, length, seed):
    kernel = kernel_of(m)
    assert kernel.step_offsets() is None      # the stepping loop runs
    try:
        want = reference_backward(kernel, start, length, seed)
    except StuckWalk as exc:
        with pytest.raises(StuckWalk) as got:
            sample_backward(kernel, start, length, seed)
        assert str(got.value) == str(exc)
    else:
        got = sample_backward(kernel, start, length, seed)
        assert np.array_equal(got.states, want), (m.name, seed)


@settings(max_examples=150, deadline=None)
@given(finite_chains(), st.sampled_from([0, 1, 4095, 4096, 4097, 9000]),
       st.integers(0, 2), st.data())
def test_table_sampler_matches_the_reference_on_finite_chains(
        chain_and_window, length, seed, data):
    m, _ = chain_and_window
    start = data.draw(st.integers(m.lo, m.hi))
    assert_sampler_matches_reference(m, start, length, seed)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_table_sampler_matches_the_reference_on_builtin_families(seed):
    for m in (origin_broadcast(), five_three_chain(), factorial_chain()):
        assert_sampler_matches_reference(m, m.spiral(1)[0], 100_000, seed)
    orphan = TransitionRuleSet(lo=0, hi=1, head=2,
                               explicit={0: (Abs(1),), 1: (Abs(1),)},
                               name="orphan")
    assert_sampler_matches_reference(orphan, 1, 100, seed)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("m", [unbiased_walk(), biased_walk()],
                         ids=lambda m: m.name)
def test_offset_pass_is_the_stepping_loop_in_one_pass(m, seed, monkeypatch):
    kernel = kernel_of(m)
    assert kernel.step_offsets() is not None        # the one-pass draw runs
    fast = sample_backward(kernel, 0, 10_000, seed).states
    monkeypatch.setattr(type(kernel), "step_offsets", lambda self: None)
    slow = sample_backward(kernel, 0, 10_000, seed).states
    assert np.array_equal(fast, slow)
    assert np.array_equal(fast, reference_backward(kernel, 0, 10_000, seed))


def test_deterministic_cycle_path():
    m = TransitionRuleSet(lo=0, hi=2, head=3,
                          explicit={0: (Abs(1),), 1: (Abs(2),), 2: (Abs(0),)},
                          name="three-cycle")
    path = sample_backward(kernel_of(m), start=0, length=9, seed=0)
    assert path.states.tolist() == [0, 2, 1, 0, 2, 1, 0, 2, 1, 0]
    stats = path_statistics(path, m)
    assert stats.geo_mean_c == 1.0
    assert stats.visit_frequencies[0] == pytest.approx(0.4)


# -- marginal statistics ---------------------------------------------------------

def test_unbiased_steps_split_evenly():
    path = sample_backward(kernel_of(unbiased_walk()), 0, 1_000_000, seed=0)
    steps = np.diff(path.states)
    up = float(np.mean(steps == 1))
    assert abs(up - 0.5) < 0.002            # 4 sigma at n = 1e6


def test_one_step_conditionals_match_the_kernel():
    """Empirical next-state distribution per state ~ uniform over the
    predecessor set, for every state visited often enough."""
    for m in (origin_broadcast(), factorial_chain(), full_shift(2)):
        k = kernel_of(m)
        start = m.spiral(1)[0]
        path = sample_backward(k, start, 200_000, seed=4)
        states = path.states
        for s in np.unique(states[:-1]):
            s = int(s)
            idx = np.nonzero(states[:-1] == s)[0]
            if idx.size < 100:
                continue
            nxt = states[idx + 1]
            preds = m.predecessors(s)
            p = 1.0 / len(preds)
            bound = 5.0 * math.sqrt(p * (1 - p) / idx.size)
            for t in preds:
                emp = float(np.mean(nxt == t))
                assert abs(emp - p) <= bound, (m.name, s, t)


def test_visit_frequency_of_first_state_factorial():
    # stationary probability of the lowest state is 1/e
    path = sample_backward(kernel_of(factorial_chain()), 1, 1_000_000, seed=0)
    freq = float(np.mean(path.states == 1))
    assert abs(freq - 1.0 / math.e) < 0.005


def test_path_statistics_shapes():
    m = origin_broadcast()
    path = sample_backward(kernel_of(m), 0, 10_000, seed=1)
    stats = path_statistics(path, m, depth=2)
    assert stats.length == 10_000
    assert abs(sum(stats.visit_frequencies.values()) - 1.0) < 1e-12
    assert abs(sum(v for w, v in stats.cylinder_frequencies.items()
                   if len(w) == 2) - 1.0) < 1e-12
    for s, t in stats.last_visit.items():
        assert int(path.states[t]) == s
    assert stats.frequency((99, 99)) == 0.0
    visits = path.origin_visits()
    assert visits[0] == 0
    assert all(path.states[i] == 0 for i in visits)


def reference_word_counts(states, depth):
    """Stacked shifted copies and np.unique(axis=0): the earlier counter."""
    n = states.size
    counts: dict[tuple[int, ...], int] = {}
    for m in range(1, depth + 1):
        if n < m:
            continue
        # word (w_0..w_{m-1}) occurs at position t if states[t-k] == w_k,
        # i.e. stack reversed shifted copies and count unique rows
        cols = [states[m - 1 - k: n - k] for k in range(m)]
        mat = np.stack(cols, axis=1)
        uniq, cnt = np.unique(mat, axis=0, return_counts=True)
        for row, c in zip(uniq, cnt):
            counts[tuple(int(v) for v in row)] = int(c)
    return counts


@st.composite
def int64_paths(draw):
    """Paths over a few int64 states (one state, negatives, extremes).

    The states are spread over the whole int64 range, where ranking them
    takes a sort, or drawn with gaps from a window of 16, usually shorter
    than the path, where one bincount ranks them.
    """
    if draw(st.booleans()):
        states = draw(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1),
                               min_size=1, max_size=6, unique=True))
    else:
        lo = draw(st.integers(-2 ** 63, 2 ** 63 - 16))
        states = draw(st.lists(st.integers(lo, lo + 15),
                               min_size=1, max_size=16, unique=True))
    picks = draw(st.lists(st.integers(0, len(states) - 1), max_size=300))
    return np.array([states[i] for i in picks], dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(int64_paths(), st.integers(1, 4))
def test_word_counts_match_the_stacked_unique_reference(states, depth):
    got = _word_counts(states, depth)
    want = reference_word_counts(states, depth)
    # same words, same counts, same (lexicographic) order
    assert list(got.items()) == list(want.items())


# -- geometric means ----------------------------------------------------------

class ColumnCounts:
    """Kernel stand-in: every int64 state has 1 to 4 predecessors."""

    def preds(self, v):
        return range(1 + v % 4)


def per_step_geo_means(states, kernel):
    logs = np.array([np.log2(len(kernel.preds(v))) for v in states.tolist()])
    return np.exp2(np.cumsum(logs) / np.arange(1, states.size + 1))


@settings(max_examples=200, deadline=None)
@given(int64_paths())
def test_geo_mean_series_matches_the_per_step_reference(states):
    path = BackwardPath(states, int(states[0]) if states.size else 0, 0)
    got = geo_mean_series(path, ColumnCounts())
    assert got.tobytes() == per_step_geo_means(states, ColumnCounts()).tobytes()


def test_ranking_a_path_holds_no_more_arrays_than_sorting_it():
    # origin-broadcast paths fill a short range, so their states are
    # counted, not sorted; the peaks stay those of the sort-based ranking:
    # three path-sized arrays in the series, one in the depth-1 counts
    k = kernel_of(origin_broadcast())
    path = sample_backward(k, 0, 200_000, seed=0)
    size = path.states.nbytes
    for run, arrays in ((lambda: geo_mean_series(path, k), 3),
                        (lambda: _word_counts(path.states, 1), 1)):
        run()                           # the kernel caches its columns
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= arrays * size + 2 ** 17, (arrays, peak / size)


def test_geo_mean_is_exactly_two_on_constant_column_chains():
    for m in (unbiased_walk(), biased_walk(), origin_broadcast(), full_shift(2)):
        path = sample_backward(kernel_of(m), m.spiral(1)[0], 3_000, seed=6)
        series = geo_mean_series(path, kernel_of(m))
        assert np.all(series == 2.0), m.name


def test_geo_mean_tracks_the_entropy_target():
    mu = measure_of(factorial_chain())
    path = sample_backward(kernel_of(factorial_chain()), 1, 100_000, seed=0)
    report = geo_mean_convergence(path, mu)
    assert report.target == pytest.approx(2.85052, abs=2e-4)
    assert abs(report.final() - report.target) / report.target < 0.02
    assert report.means.size == path.states.size


def test_geo_mean_series_is_bit_identical_to_a_per_step_lookup():
    k = kernel_of(factorial_chain())
    path = sample_backward(k, 1, 20_000, seed=3)
    logc = {v: np.log2(len(k.base.predecessors(v)))
            for v in set(path.states.tolist())}
    logs = np.array([logc[v] for v in path.states.tolist()])
    want = np.exp2(np.cumsum(logs) / np.arange(1, path.states.size + 1))
    assert geo_mean_series(path, k).tobytes() == want.tobytes()


def test_geo_mean_convergence_on_broadcast():
    mu = measure_of(origin_broadcast())
    path = sample_backward(kernel_of(origin_broadcast()), 0, 50_000, seed=2)
    report = geo_mean_convergence(path, mu)
    assert report.target == pytest.approx(2.0, abs=1e-9)
    assert report.final() == pytest.approx(2.0, abs=1e-9)


# -- equidistribution -----------------------------------------------------------

def test_paths_equidistribute_for_broadcast_chain():
    mu = measure_of(origin_broadcast())
    paths = sample_paths(kernel_of(origin_broadcast()), 0, 50_000,
                         n_paths=4, seed=0)
    assert equidistribution_test(paths, mu, depth=1) < 0.02


def test_paths_equidistribute_on_pairs_of_full_shift():
    mu = measure_of(full_shift(2))
    paths = sample_paths(kernel_of(full_shift(2)), 0, 40_000, n_paths=2, seed=3)
    assert equidistribution_test(paths, mu, depth=2) < 0.01


def test_short_stuck_sample_has_large_discrepancy():
    # a length-1 path cannot equidistribute; unseen words keep their mass
    mu = measure_of(origin_broadcast())
    paths = [sample_backward(kernel_of(origin_broadcast()), 5, 1, seed=0)]
    assert equidistribution_test(paths, mu, depth=1) > 0.2


def test_transient_paths_abandon_the_origin():
    k = kernel_of(biased_walk())
    gone = 0
    for seed in range(20):
        path = sample_backward(k, 0, 100_000, seed=seed)
        visits = path.origin_visits()
        if visits.size == 0 or visits[-1] < 90_000:
            gone += 1
    assert gone >= 19
