"""Return series, Monte Carlo return estimates and the combined verdict.

The exact series values below were frozen from an independent dynamic
program over the backward offset laws:

    unbiased: (Q^{2n})_00 = C(2n, n) / 4^n        -> 1/2, 3/8, 5/16, ...
    biased:   (Q^{3n})_00 = (3n)!/((2n)! n!) / 8^n -> 3/8, 15/64, 21/128, 495/4096
"""

from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairshift import (
    Abs, ClassifyPolicy, Rel, ReturnEstimate, StuckWalk, TransitionRuleSet,
    biased_walk, build_backward_kernel, classify,
    factorial_chain, five_three_chain, full_shift, monte_carlo_return,
    origin_broadcast, sample_backward, series_test, unbiased_walk,
)
from fairshift.chain import BackwardKernel
from fairshift.recurrence import _wilson
from test_chain import finite_chains


def kernel_of(m):
    return build_backward_kernel(m)


# -- exact return series -----------------------------------------------------

def test_unbiased_series_terms():
    res = series_test(kernel_of(unbiased_walk()), n_max=8)
    assert res.terms[0] == 1
    assert res.terms[1] == 0
    assert res.terms[2] == Fraction(1, 2)
    for n in range(1, 5):
        assert res.terms[2 * n] == Fraction(comb(2 * n, n), 4 ** n)
        if 2 * n + 1 <= 8:
            assert res.terms[2 * n + 1] == 0


def test_biased_series_terms():
    res = series_test(kernel_of(biased_walk()), n_max=12)
    assert res.terms[3] == Fraction(3, 8)
    assert res.terms[6] == Fraction(15, 64)
    assert res.terms[9] == Fraction(21, 128)
    assert res.terms[12] == Fraction(495, 4096)
    for n in range(1, 5):
        got = res.terms[3 * n]
        assert got == Fraction(factorial(3 * n),
                               factorial(2 * n) * factorial(n) * 8 ** n)
    assert all(res.terms[k] == 0 for k in range(13) if k % 3 and k > 0)


def test_broadcast_series_head():
    res = series_test(kernel_of(origin_broadcast()), n_max=6)
    assert res.terms[1] == Fraction(1, 2)
    assert res.terms[2] == Fraction(1, 2)


def test_partial_sums_are_monotone():
    for m in (unbiased_walk(), biased_walk(), five_three_chain()):
        res = series_test(kernel_of(m), n_max=20)
        sums = res.partial_sums
        assert all(a <= b for a, b in zip(sums, sums[1:]))
        assert sums[0] == 1


def test_series_respects_origin():
    res0 = series_test(kernel_of(five_three_chain()), n_max=8, origin=0)
    res1 = series_test(kernel_of(five_three_chain()), n_max=8, origin=1)
    assert res0.origin == 0 and res1.origin == 1
    assert res0.terms != res1.terms     # parity classes differ


def fraction_series(m, origin, n_max):
    """Diagonal terms of delta_origin evolved through Q in plain Fractions.

    Returns None when the support reaches a state without predecessors.
    """
    vec = {origin: Fraction(1)}
    terms = [Fraction(1)]
    for _ in range(n_max):
        nxt = {}
        for j, w in vec.items():
            preds = m.predecessors(j)
            if not preds:
                return None
            for i in preds:
                nxt[i] = nxt.get(i, Fraction(0)) + w / len(preds)
        vec = nxt
        terms.append(vec.get(origin, Fraction(0)))
    return terms


def assert_series_matches_fractions(m, origin, n_max):
    want = fraction_series(m, origin, n_max)
    if want is None:
        with pytest.raises(ValueError, match="no predecessors"):
            series_test(kernel_of(m), n_max=n_max, origin=origin)
        return
    got = series_test(kernel_of(m), n_max=n_max, origin=origin)
    assert list(got.terms) == want
    assert got.partial_sums[-1] == sum(want)


@settings(max_examples=300, deadline=None)
@given(finite_chains(), st.integers(1, 30), st.data())
def test_series_matches_fraction_evolution_on_finite_chains(
        chain_and_window, n_max, data):
    m, _ = chain_and_window
    origin = data.draw(st.integers(m.lo, m.hi))
    assert_series_matches_fractions(m, origin, n_max)


@pytest.mark.parametrize("m, origin", [
    (factorial_chain(), 1), (factorial_chain(), 3),
    (five_three_chain(), 0), (five_three_chain(), 1),
    (origin_broadcast(), 0)])
def test_series_matches_fraction_evolution_on_mixed_counts(m, origin):
    assert_series_matches_fractions(m, origin, 24)


# -- Monte Carlo return ------------------------------------------------------

def test_one_state_loop_always_returns_in_one_step():
    loop = TransitionRuleSet(lo=0, hi=0, head=1, explicit={0: (Abs(0),)},
                             name="loop")
    est = monte_carlo_return(kernel_of(loop), trials=500, horizons=(10,),
                             seed=3)[0]
    assert est.frequency == 1.0
    assert est.returned == 500
    assert est.escaped == 0
    assert est.mean_return_time_of_returners == 1.0


def test_one_way_ray_never_returns():
    ray = TransitionRuleSet(tail={0: (Rel(1),)}, name="ray")
    est = monte_carlo_return(kernel_of(ray), trials=400, horizons=(50,),
                             seed=0)[0]
    assert est.returned == 0
    assert est.frequency == 0.0
    assert est.mean_return_time_of_returners is None


def test_biased_walk_return_mass_is_bounded_away_from_one():
    est = monte_carlo_return(kernel_of(biased_walk()), trials=100_000,
                             horizons=(10_000,), seed=0,
                             escape_radius=256)[0]
    assert est.returned > 0
    assert 0.5 < est.frequency < 0.7       # true mass ~ 0.576
    assert est.wilson_high < 0.99
    assert est.mean_return_time_of_returners is not None


def test_unbiased_walk_return_mass_grows_with_horizon():
    ests = [monte_carlo_return(kernel_of(unbiased_walk()), trials=20_000,
                               horizons=(h,), seed=1)[0]
            for h in (100, 1_000, 10_000)]
    freqs = [e.frequency for e in ests]
    assert freqs[0] < freqs[1] < freqs[2]
    assert freqs[2] > 0.97
    mean_rts = [e.mean_return_time_of_returners for e in ests]
    assert mean_rts[0] < mean_rts[1] < mean_rts[2]


def test_monte_carlo_is_seed_deterministic():
    k = kernel_of(five_three_chain())
    a = monte_carlo_return(k, trials=2_000, horizons=(200,), seed=7)[0]
    b = monte_carlo_return(k, trials=2_000, horizons=(200,), seed=7)[0]
    c = monte_carlo_return(k, trials=2_000, horizons=(200,), seed=8)[0]
    assert a.as_dict() == b.as_dict()
    assert a.returned != c.returned or a.mean_return_time_of_returners != \
        c.mean_return_time_of_returners


def test_stuck_walker_is_an_error():
    # 0 -> 1 and 1 -> 1: state 0 has no predecessors
    m = TransitionRuleSet(lo=0, hi=1, head=2,
                          explicit={0: (Abs(1),), 1: (Abs(1),)},
                          name="orphan")
    for origin in (0, 1):
        with pytest.raises(ValueError, match="no predecessors"):
            monte_carlo_return(kernel_of(m), trials=100, horizons=(10,),
                               seed=0, origin=origin)[0]


def test_full_shift_mean_return_time_is_bracketed():
    # from any state the backward walk returns in one step with
    # probability 1/3, so the mean return time is 3 (Kac).  A 95 %
    # interval misses on about 1 seed in 20, so the misses over 20 seeds
    # are Bin(20, 0.05) for a fair draw: five or more has probability
    # about 0.3 %, while a draw biased by a few percent misses at most seeds
    misses = 0
    for seed in range(20):
        est = monte_carlo_return(kernel_of(full_shift(3)), trials=20_000,
                                 horizons=(1,), seed=seed)[0]
        misses += not 1 / est.wilson_high <= 3 <= 1 / est.wilson_low
    assert misses <= 4
    long = monte_carlo_return(kernel_of(full_shift(3)), trials=20_000,
                              horizons=(200,), seed=1)[0]
    assert long.returned == long.trials
    assert long.mean_return_time_of_returners == pytest.approx(3, rel=0.05)


def test_wilson_interval_brackets_the_frequency():
    est = monte_carlo_return(kernel_of(unbiased_walk()), trials=5_000,
                             horizons=(100,), seed=2)[0]
    assert 0.0 <= est.wilson_low <= est.frequency <= est.wilson_high <= 1.0


# -- one walk for every horizon ------------------------------------------------

class _ReferenceTable:
    """The column table of the per-horizon estimator, kept verbatim but
    for the draw: each walker takes preds[int(u * c)] for its own uniform
    u, as ``sample_backward`` does."""

    def __init__(self, kernel, state):
        self.kernel = kernel
        self.lo, self.hi = state, state - 1         # empty
        self.cover(state, state)

    def cover(self, lo, hi):
        if self.lo <= lo and hi <= self.hi:
            return
        span = self.hi - self.lo + 1
        self.lo, self.hi = min(lo, self.lo - span), max(hi, self.hi + span)
        k = self.kernel
        cols = [k.preds(s) if k.contains(s) else ()
                for s in range(self.lo, self.hi + 1)]
        self.counts = np.array([len(p) for p in cols], dtype=np.int64)
        self.width = max(1, int(self.counts.max()))
        table = np.zeros((len(cols), self.width), dtype=np.int64)
        for row, preds in zip(table, cols):
            row[:len(preds)] = preds
        self.table = table.ravel()      # flat indexing gathers faster

    def step(self, states, rng):
        idx = states - self.lo
        c = self.counts[idx]
        if not c.all():
            raise ValueError(f"state {states[c == 0][0]} has no "
                             "predecessors; backward walk is stuck")
        u = rng.random(states.size)
        return self.table[idx * self.width + (u * c).astype(np.int64)]


def reference_return(kernel, trials, horizon, seed, origin=0,
                     escape_radius=None):
    """One seeded walk per horizon: the estimator before horizons shared
    a walk, kept verbatim."""
    rng = np.random.default_rng(seed)
    cols = _ReferenceTable(kernel, origin)
    returned = 0
    escaped = 0
    time_sum = 0
    alive = np.full(trials, origin, dtype=np.int64)
    for t in range(1, horizon + 1):
        if alive.size == 0:
            break
        cols.cover(int(alive.min()), int(alive.max()))
        alive = cols.step(alive, rng)
        back = alive == origin
        hits = int(back.sum())
        returned += hits
        time_sum += t * hits
        alive = alive[~back]
        if escape_radius is not None:
            out = np.abs(alive - origin) > escape_radius
            escaped += int(out.sum())
            alive = alive[~out]
    lo, hi = _wilson(returned, trials)
    mean_rt = time_sum / returned if returned else None
    return ReturnEstimate(origin, trials, horizon, seed, returned, escaped,
                          returned / trials, lo, hi, mean_rt)


def assert_one_walk_matches_per_horizon_walks(m, origin, trials, horizons,
                                              seed, radius):
    kernel = kernel_of(m)
    try:
        want = [reference_return(kernel, trials, h, seed, origin, radius)
                for h in horizons]
    except ValueError as exc:
        assert "no predecessors" in str(exc)
        with pytest.raises(StuckWalk, match="no predecessors"):
            monte_carlo_return(kernel, trials, horizons, seed, origin=origin,
                               escape_radius=radius)
        return
    got = monte_carlo_return(kernel, trials, horizons, seed, origin=origin,
                             escape_radius=radius)
    assert got == want
    assert repr(got) == repr(want)      # Python ints and floats, as before


# unsorted, with repeats, often past the step where every walker is back
HORIZON_SETS = st.lists(st.integers(1, 120), min_size=1, max_size=5)


@settings(max_examples=200, deadline=None)
@given(finite_chains(), st.integers(1, 200), HORIZON_SETS,
       st.integers(0, 2 ** 32 - 1), st.sampled_from([None, 0, 1, 3]),
       st.data())
def test_one_walk_matches_per_horizon_walks_on_finite_chains(
        chain_and_window, trials, horizons, seed, radius, data):
    m, _ = chain_and_window
    origin = data.draw(st.integers(m.lo, m.hi))
    assert_one_walk_matches_per_horizon_walks(m, origin, trials, horizons,
                                              seed, radius)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(unbiased_walk(), 0), (biased_walk(), 0),
                        (origin_broadcast(), 0), (factorial_chain(), 1),
                        (five_three_chain(), 0), (five_three_chain(), 1)]),
       st.integers(1, 400), HORIZON_SETS.map(lambda hs: hs + [3 * hs[0]]),
       st.integers(0, 2 ** 32 - 1), st.sampled_from([None, 4, 256]))
def test_one_walk_matches_per_horizon_walks_on_builtin_families(
        chain_and_origin, trials, horizons, seed, radius):
    m, origin = chain_and_origin
    assert_one_walk_matches_per_horizon_walks(m, origin, trials, horizons,
                                              seed, radius)


def test_one_walk_keeps_the_order_of_the_horizons():
    k = kernel_of(five_three_chain())
    got = monte_carlo_return(k, 3_000, (1_000, 50, 7, 50), 4)
    assert [e.horizon for e in got] == [1_000, 50, 7, 50]
    assert got[1] == got[3]
    assert got == [reference_return(k, 3_000, h, 4) for h in (1_000, 50, 7, 50)]
    assert monte_carlo_return(k, 3_000, (), 4) == []


def log_tables(monkeypatch) -> list:
    """Every column table the kernels return, in order, each once."""
    columns = BackwardKernel.columns
    tables = []

    def logged(self, lo, hi):
        table = columns(self, lo, hi)
        if not tables or table is not tables[-1]:
            tables.append(table)
        return table

    monkeypatch.setattr(BackwardKernel, "columns", logged)
    return tables


@pytest.mark.parametrize("radius", [None, 8])
def test_walkers_keep_their_states_across_table_growths(monkeypatch, radius):
    # the factorial chain's walkers climb, so its table grows upwards and
    # its columns widen; five-three's spread both ways, and each growth
    # below moves the table's first state and the walkers' offsets with it
    tables = log_tables(monkeypatch)
    for m, origin in ((factorial_chain(), 1), (five_three_chain(), 0)):
        tables.clear()
        k = kernel_of(m)
        got = monte_carlo_return(k, 300, (5, 40), 0, origin=origin,
                                 escape_radius=radius)
        assert len(tables) >= 4         # the first table and 3 growths
        want = [reference_return(k, 300, h, 0, origin, radius)
                for h in (5, 40)]
        assert got == want
        assert repr(got) == repr(want)
    assert len({t.lo for t in tables}) >= 3


BUILTIN_ORIGINS = [(unbiased_walk(), 0), (biased_walk(), 0),
                   (origin_broadcast(), 0), (factorial_chain(), 1),
                   (five_three_chain(), 0)]


@pytest.mark.parametrize("m, origin", BUILTIN_ORIGINS)
@pytest.mark.parametrize("seed", range(6))
def test_one_walker_returns_where_the_sampled_path_first_does(m, origin,
                                                              seed):
    # both samplers take preds[int(u * c)] from the same uniforms, so a
    # single walker is the backward path up to its first return
    k = kernel_of(m)
    path = sample_backward(k, origin, 300, seed).states
    back = np.flatnonzero(path[1:] == origin)
    est = monte_carlo_return(k, 1, (300,), seed, origin)[0]
    assert est.returned == min(back.size, 1)
    if back.size:
        assert est.mean_return_time_of_returners == back[0] + 1


def test_stuck_state_met_after_a_growth_is_an_error(monkeypatch):
    # a path 0 - 1 - 2 - 3 - 4 with a loop at 0, and 5 -> 4 where nothing
    # enters 5: the first table holds only the origin, so state 5 comes
    # in with a growth
    tables = log_tables(monkeypatch)
    rows = {0: (Abs(0), Abs(1)), 1: (Abs(0), Abs(2)), 2: (Abs(1), Abs(3)),
            3: (Abs(2), Abs(4)), 4: (Abs(3),), 5: (Abs(4),)}
    m = TransitionRuleSet(lo=0, hi=5, head=6, explicit=rows, name="late")
    with pytest.raises(StuckWalk, match="state 5 has no predecessors"):
        monte_carlo_return(kernel_of(m), 200, (100,), 0)
    assert tables[0].hi < 5 <= tables[-1].hi
    assert len(tables) >= 4         # the first table and 3 growths


@pytest.mark.parametrize("trials, horizons, name", [
    (0, (10,), "trials"), (-3, (10,), "trials"),
    (100, (10, -5), "horizons"), (100, (0,), "horizons")])
def test_monte_carlo_refuses_empty_samples_and_horizons(trials, horizons,
                                                        name):
    with pytest.raises(ValueError, match=f"{name} must be at least 1"):
        monte_carlo_return(kernel_of(unbiased_walk()), trials, horizons, 0)


# -- combined classification ---------------------------------------------------

# smaller sample than the default but the full top horizon: the top
# horizon is what separates "slowly creeping to 1" from "capped below 1"
QUICK = ClassifyPolicy(trials=5_000, horizons=(100, 1_000, 10_000))


def test_classify_the_five_builtin_families():
    expected = {
        "unbiased-walk": "null-recurrent",
        "biased-walk": "transient",
        "origin-broadcast": "positive-recurrent",
        "factorial-chain": "positive-recurrent",
        "five-three": "null-recurrent",
    }
    for m in (unbiased_walk(), biased_walk(), origin_broadcast(),
              factorial_chain(), five_three_chain()):
        got = classify(kernel_of(m), QUICK)
        assert got.verdict == expected[m.name], m.name


def test_classify_full_shift_positive():
    got = classify(kernel_of(full_shift(2)), QUICK)
    assert got.verdict == "positive-recurrent"
    assert got.has_fair_measure is True


def test_has_fair_measure_tracks_verdict():
    assert classify(kernel_of(biased_walk()), QUICK).has_fair_measure is False
    assert classify(kernel_of(unbiased_walk()), QUICK).has_fair_measure is False
    assert classify(kernel_of(origin_broadcast()), QUICK).has_fair_measure is True


def test_positive_verdict_requires_solver_success():
    for m in (unbiased_walk(), biased_walk(), origin_broadcast(),
              factorial_chain(), five_three_chain(), full_shift(3)):
        got = classify(kernel_of(m), QUICK)
        if got.verdict == "positive-recurrent":
            assert got.evidence["solver"]["outcome"] == "summable"
        else:
            assert got.evidence["solver"]["outcome"] != "summable"


def test_classify_evidence_layout():
    got = classify(kernel_of(unbiased_walk()), QUICK)
    assert set(got.evidence) >= {"policy", "solver", "series", "monte_carlo"}
    assert got.evidence["policy"]["origin"] == 0
    assert len(got.evidence["monte_carlo"]["estimates"]) == len(QUICK.horizons)
    # null recurrence needs diverging series plus near-one return mass
    assert got.evidence["series"]["last_quarter_growth"] > 1e-6


def test_classify_starved_window_is_unknown():
    got = classify(kernel_of(unbiased_walk()),
                   ClassifyPolicy(max_window=8, trials=500,
                                  horizons=(50,), series_nmax=20))
    assert got.verdict in ("unknown", "null-recurrent")
    if got.verdict == "unknown":
        assert got.has_fair_measure is None


def test_classify_is_seed_reproducible():
    p = ClassifyPolicy(trials=3_000, horizons=(100, 500), seed=11)
    a = classify(kernel_of(five_three_chain()), p)
    b = classify(kernel_of(five_three_chain()), p)
    assert a.verdict == b.verdict
    assert a.evidence["monte_carlo"] == b.evidence["monte_carlo"]


def test_classify_verdict_does_not_depend_on_the_order_of_horizons():
    # the verdict reads the largest horizon, wherever the policy lists it
    k = kernel_of(unbiased_walk())
    up = classify(k, ClassifyPolicy(trials=5_000, horizons=(100, 10_000)))
    down = classify(k, ClassifyPolicy(trials=5_000, horizons=(10_000, 100)))
    assert up.verdict == down.verdict == "null-recurrent"


def test_no_estimates_are_no_evidence_of_transience():
    got = classify(kernel_of(biased_walk()), ClassifyPolicy(horizons=()))
    assert got.evidence["monte_carlo"]["estimates"] == []
    assert got.verdict == "unknown"
