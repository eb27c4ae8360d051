"""Stationary solver, fairness checks, entropy and atoms.

Frozen numeric targets were derived independently (closed-form sums over
the defining recursions, stdlib Fraction/math only) before these tests
were written.
"""

import math
import pathlib
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fairshift import (
    Abs, FairMeasure, ForwardMatrix, InfinitePreimages, NoSummableSolution,
    SingularWindow, StationaryVector, TransitionRuleSet, biased_walk,
    build_backward_kernel,
    build_forward_matrix, check_fair_on_cylinders, dendrite_example,
    factorial_chain, factorial_stationary, fair_entropy, fair_measure_from,
    find_atomic_fair_measures, five_three_chain, five_three_profile,
    full_shift, full_shift_stationary, integral_log_c, origin_broadcast,
    load_spec, origin_broadcast_stationary, refined_transition_matrix,
    solve_stationary, strongly_connected_components, TameGraphMapSpec,
    unbiased_walk, verify_stationary,
)
from fairshift import measure
from test_chain import finite_chains, outcome, rule_set_params

# independent oracle: sum_k log(k+2) / (e k!)
FACTORIAL_ENTROPY = 1.0475026451453382


def measure_of(m, window=None):
    kernel = build_backward_kernel(m)
    pi = solve_stationary(kernel)
    wnd = window if window is not None else pi.window
    return fair_measure_from(pi, kernel, wnd), kernel, pi


# -- solver against closed forms -------------------------------------------

def test_solver_matches_geometric_closed_form():
    kernel = build_backward_kernel(origin_broadcast())
    pi = solve_stationary(kernel)
    exact = origin_broadcast_stationary(64)
    l1 = sum(abs(pi.entry(i) - float(exact.entry(i))) for i in range(65))
    assert l1 <= 1e-9
    assert pi.tail_mass_bound < 1e-9


def test_solver_matches_factorial_closed_form():
    kernel = build_backward_kernel(factorial_chain())
    pi = solve_stationary(kernel)
    exact = factorial_stationary(30)
    l1 = sum(abs(pi.entry(j) - float(exact.entry(j))) for j in range(1, 31))
    assert l1 <= 1e-10


def test_solver_full_shift_is_uniform():
    for k in (2, 3, 5):
        pi = solve_stationary(build_backward_kernel(full_shift(k)))
        for i in range(k):
            assert abs(pi.entry(i) - 1.0 / k) <= 1e-12


def test_five_three_has_no_summable_solution():
    out = solve_stationary(build_backward_kernel(five_three_chain()))
    assert isinstance(out, NoSummableSolution)
    assert out.diagnostics is not None


def test_unbiased_walk_has_no_summable_solution():
    out = solve_stationary(build_backward_kernel(unbiased_walk()),
                           max_window=2 ** 10)
    assert isinstance(out, NoSummableSolution)


def test_solver_windows_agree_with_each_other():
    """Two different window schedules land on the same vector."""
    kernel = build_backward_kernel(factorial_chain())
    a = solve_stationary(kernel, start_window=8)
    b = solve_stationary(kernel, start_window=13)
    for j in range(1, 20):
        assert abs(a.entry(j) - b.entry(j)) <= 1e-9


def test_verify_stationary_residuals():
    for m, closed in ((origin_broadcast(), origin_broadcast_stationary(40)),
                      (factorial_chain(), factorial_stationary(40)),
                      (full_shift(3), full_shift_stationary(3))):
        kernel = build_backward_kernel(m)
        assert verify_stationary(closed, kernel, 24) == 0   # exact weights
        solved = solve_stationary(kernel)
        assert float(verify_stationary(solved, kernel, 24)) <= 1e-9


def test_five_three_profile_is_exactly_stationary():
    """The alternating unnormalised profile solves pi Q = pi on the interior."""
    profile = five_three_profile(24)
    assert profile[0] == 5 and profile[1] == 3 and profile[-2] == 5
    pi = StationaryVector(weights=profile, total=sum(profile.values()),
                          provenance="closed-form")
    kernel = build_backward_kernel(five_three_chain())
    assert verify_stationary(pi, kernel, 20) == 0


# -- the window solve against the ones-row solve -----------------------------

def reference_truncated_rows(kernel, states):
    """The window rows as a dict of Python lists, kept verbatim from the
    solver before it built Q^T from arrays."""
    keep = set(states)
    rows: dict[int, list[tuple[int, float]]] = {}
    while True:
        rows = {}
        empty = []
        for j in keep:
            r = [i for i in kernel.preds(j) if i in keep]
            if not r:
                empty.append(j)
                continue
            w = 1 / len(r)
            rows[j] = [(i, w) for i in r]
        if not empty:
            break
        keep -= set(empty)
        if not keep:
            raise InfinitePreimages(states[0])
    return sorted(keep), rows


def reference_stationary_of_window(states, rows):
    """(Q^T - I) x = 0 with a dense normalisation row, solved by spsolve,
    kept verbatim from the solver before it pinned one state."""
    from scipy.sparse import coo_matrix, identity
    from scipy.sparse.linalg import MatrixRankWarning, spsolve

    n = len(states)
    pos = {s: k for k, s in enumerate(states)}
    data, ri, ci = [], [], []
    for j, r in rows.items():
        for i, q in r:
            ri.append(pos[i])        # transpose: entry (i, j)
            ci.append(pos[j])
            data.append(q)
    a = (coo_matrix((data, (ri, ci)), shape=(n, n)) - identity(n)).tolil()
    k = pos[min(states, key=abs)]
    a[k, :] = np.ones(n)
    b = np.zeros(n)
    b[k] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", MatrixRankWarning)
        try:
            x = spsolve(a.tocsc(), b)
        except MatrixRankWarning:
            raise SingularWindow(
                f"the stationary solve on the {n}-state window is "
                "singular: the window chain has more than one closed "
                "class") from None
    x = np.clip(x, 0.0, None)
    s = x.sum()
    if not np.isfinite(s) or s <= 0:
        raise ArithmeticError("window solve failed")
    return x / s


def closed_class_count(states, rows):
    """Closed classes of the window chain, whose step j -> i has q_ji > 0."""
    succ = {j: [i for i, _ in rows[j]] for j in states}
    sccs = strongly_connected_components(states, succ)
    comp = {s: k for k, c in enumerate(sccs) for s in c}
    return sum(all(comp[i] == comp[c[0]] for j in c for i in succ[j])
               for c in sccs)


@st.composite
def graph_specs(draw):
    """Graph maps of 1-8 arcs, each arc covering 1-4 arcs."""
    arcs = tuple(range(1, draw(st.integers(1, 8)) + 1))
    leg = st.tuples(st.sampled_from(arcs), st.booleans())
    return TameGraphMapSpec(arcs, {
        a: tuple(draw(st.lists(leg, min_size=1, max_size=4))) for a in arcs},
        name="generated")


# rule sets on finite domains: generated ones with every kind of term, ones
# with explicit rows, and refined chains of graph maps, where every leg
# onto one arc has the same row of Q^T; rows of one or two states often
# make the chain reducible, with several closed classes
finite_rule_sets = st.one_of(
    rule_set_params().filter(lambda p: None not in (p["lo"], p["hi"])).map(
        lambda p: outcome(TransitionRuleSet, **p)),
    *(finite_chains(max_row=size).map(lambda chain_and_window:
                                      chain_and_window[0])
      for size in (None, 2)),
    graph_specs().map(refined_transition_matrix))


# -- the kernel's column table ----------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.one_of(st.sampled_from([unbiased_walk(), biased_walk(),
                                  origin_broadcast(), factorial_chain(),
                                  five_three_chain(), full_shift(3)]),
                 finite_rule_sets),
       st.lists(st.tuples(st.integers(-40, 40), st.integers(0, 30)),
                min_size=1, max_size=5))
def test_column_table_rows_are_the_predecessors(m, requests):
    assume(isinstance(m, TransitionRuleSet))
    kernel = outcome(build_backward_kernel, m)
    assume(not isinstance(kernel, tuple))
    last = None
    for lo, width in requests:
        table = kernel.columns(lo, lo + width)
        assert table.lo <= lo and lo + width <= table.hi
        if last is not None and last.lo <= lo and lo + width <= last.hi:
            assert table is last
        elif last is not None:      # a growth at least doubles the range
            assert table.hi - table.lo + 1 >= 2 * (last.hi - last.lo + 1)
            assert table.lo <= last.lo and last.hi <= table.hi
        states = range(table.lo, table.hi + 1)
        assert table.indptr.shape == (len(states) + 1,)
        assert table.indptr[0] == 0 and table.indptr[-1] == table.indices.size
        want = {s: m.predecessors(s) if m.contains(s) else [] for s in states}
        assert {s: (table.indices[table.indptr[k]:table.indptr[k + 1]]
                    + table.lo).tolist()
                for k, s in enumerate(states)} == want
        assert table.rows() == {s: (p, len(p)) for s, p in want.items()}
        last = table


@settings(max_examples=300, deadline=None)
@given(finite_rule_sets)
def test_window_solve_matches_the_ones_row_solve(m):
    assume(isinstance(m, TransitionRuleSet))
    kernel = outcome(build_backward_kernel, m)
    assume(not isinstance(kernel, tuple))
    # a finite domain is solved whole, in one window
    want = outcome(reference_truncated_rows, kernel,
                   m.states(max(8, abs(m.lo), abs(m.hi))))
    if isinstance(want, tuple) and want[0] is InfinitePreimages:
        assert outcome(solve_stationary, kernel) == want
        return
    states, rows = want
    assert len(states) <= measure.DENSE_SOLVE_MAX
    several = closed_class_count(states, rows) > 1
    # the ones-row solve can miss several closed classes: with every state
    # its own only predecessor, SuperLU raises RuntimeError instead of a
    # rank warning
    x = None if several else reference_stationary_of_window(states, rows)
    # the window is small enough for the dense LU; a limit of 0 lumps
    # equal rows and sends the lumped system to the sparse LU
    for limit in (measure.DENSE_SOLVE_MAX, 0):
        with mock.patch.object(measure, "DENSE_SOLVE_MAX", limit):
            got = outcome(solve_stationary, kernel)
        if several:
            assert got[0] is SingularWindow
            continue
        assert isinstance(got, StationaryVector)
        assert set(got.weights) <= set(states)
        assert max(abs(got.weight(s) - v) for s, v in zip(states, x)) <= 1e-12


def test_a_lumped_window_matches_the_ones_row_solve():
    # the dendrite at window 8 has one closed class of 784 states but 86
    # distinct rows of Q^T, so its lumped system goes to the dense LU
    m = refined_transition_matrix(dendrite_example(8))
    kernel = build_backward_kernel(m)
    states, rows = reference_truncated_rows(kernel, m.states(m.hi))
    assert len(states) > measure.DENSE_SOLVE_MAX
    x = reference_stationary_of_window(states, rows)
    got = solve_stationary(kernel)
    assert max(abs(got.weight(s) - v) for s, v in zip(states, x)) <= 1e-12


def test_window_solve_puts_all_mass_on_the_only_closed_class():
    # state 4 is the only closed class of the backward chain; states 0-3
    # step into it and carry no mass, state 0 included
    m = load_spec(pathlib.Path(__file__).parent / "golden/specs/split.json")
    pi = solve_stationary(build_backward_kernel(m))
    assert pi.weights == {4: 1.0}


# -- fairness on cylinders ---------------------------------------------------

def test_fairness_exact_zero_for_closed_forms():
    for m, closed in ((origin_broadcast(), origin_broadcast_stationary(40)),
                      (factorial_chain(), factorial_stationary(40))):
        kernel = build_backward_kernel(m)
        mu = fair_measure_from(closed, kernel, 40)
        v = check_fair_on_cylinders(mu, m, depth=3, window=10)
        assert v == 0
    # with an exact total the violation stays a Fraction
    mu = fair_measure_from(origin_broadcast_stationary(40),
                           build_backward_kernel(origin_broadcast()), 40)
    v = check_fair_on_cylinders(mu, origin_broadcast(), depth=2, window=8)
    assert isinstance(v, Fraction) and v == 0


def test_fairness_catches_a_mismatched_forward_matrix():
    """Conditional fairness is a property of the (weights, forward) pair;
    pairing the true weights with transition rows balanced against a
    different vector must show up as a positive violation."""
    m = origin_broadcast()
    kernel = build_backward_kernel(m)
    true_pi = origin_broadcast_stationary(30)
    skew = {i: Fraction(1, 3 ** (i + 1)) for i in range(31)}   # wrong decay
    skew_pi = StationaryVector(weights=skew, total=sum(skew.values()),
                               provenance="closed-form")
    mu = FairMeasure(true_pi, build_forward_matrix(skew_pi, kernel, 30), kernel)
    assert check_fair_on_cylinders(mu, m, depth=2, window=8) > 0


def test_two_symbol_shift_uniform_is_fair_but_bernoulli_third_is_not():
    """On the full 2-shift the (1/3, 2/3) product measure has fairness
    defect exactly 1/6: the whole space is branch-image measurable, and
    its two preimage cells get 1/3 and 2/3 instead of 1/2 each."""
    m = full_shift(2)
    kernel = build_backward_kernel(m)
    uniform = full_shift_stationary(2)
    assert check_fair_on_cylinders(
        fair_measure_from(uniform, kernel, 4), m, depth=3, window=4) == 0

    bern = StationaryVector(weights={0: Fraction(1, 3), 1: Fraction(2, 3)},
                            total=Fraction(1), provenance="closed-form")
    mu = fair_measure_from(bern, kernel, 4)
    assert check_fair_on_cylinders(mu, m, depth=1, window=4) == Fraction(1, 6)


def test_forward_rows_are_stochastic_and_balanced():
    for m in (origin_broadcast(), factorial_chain(), full_shift(3)):
        mu, kernel, pi = measure_of(m)
        for i in pi.support():
            if abs(i) > 12:
                continue
            row = mu.forward.row(i)
            gap = abs(sum(float(p) for _, p in row) - 1.0)
            if set(m.successors(i, within=pi.window)) <= set(pi.support()):
                assert gap <= 1e-9
            # detailed balance against the backward kernel
            for j, p in row:
                q = next(q for s, q in kernel.row(j) if s == i)
                assert abs(pi.entry(i) * float(p) - pi.entry(j) * float(q)) <= 1e-10


# -- the cylinder check against a kernel-side reference ----------------------

class ScanMatrix(ForwardMatrix):
    """The forward matrix with the linear-scan ``prob``, kept verbatim."""

    def prob(self, i, j):
        for k, p in self.rows.get(i, ()):
            if k == j:
                return p
        return 0


def reference_check(pi, kernel, window):
    """max |sum_{j in succ(i)} w_j / c_j - w_i| / total over the window
    states i of positive weight whose row is finite and inside the
    window: the mass that pi Q puts on i against w_i, read off the
    weights and the kernel's columns alone, never off the forward matrix.
    P has rows only where w_i > 0."""
    m = kernel.base
    states = m.states(window)
    zero = Fraction(0) if pi.ratios_exact else 0.0
    worst = zero
    for i in states:
        if pi.weight(i) == 0 or m.row_unbounded(i) \
                or not set(m.successors(i)) <= set(states):
            continue
        flow = sum((pi.weight(j) / len(kernel.preds(j))
                    for j in m.successors(i) if pi.weight(j) != 0), zero)
        worst = max(worst, abs(flow - pi.weight(i)))
    if isinstance(worst, Fraction) and isinstance(pi.total, (Fraction, int)):
        return worst / Fraction(pi.total)
    return float(worst) / float(pi.total)


def assert_check_matches_reference(mu, m, depths, window):
    scan = ScanMatrix(mu.forward.rows)
    states = m.states(window + 1)       # one ring of absent pairs beyond
    for i in states:
        for j in states:
            got, want = mu.forward.prob(i, j), scan.prob(i, j)
            assert got == want and repr(got) == repr(want), (i, j)
    want = reference_check(mu.pi, mu.kernel, window)
    for depth in depths:
        got = check_fair_on_cylinders(mu, m, depth, window)
        if isinstance(want, Fraction):
            assert isinstance(got, Fraction) and got == want, depth
        else:
            assert abs(got - want) <= 1e-12, depth


@settings(max_examples=150, deadline=None)
@given(finite_chains())
def test_cylinder_check_matches_the_reference_on_finite_chains(
        chain_and_window):
    m, window = chain_and_window
    kernel = build_backward_kernel(m)
    try:
        pi = solve_stationary(kernel)
    except (ArithmeticError, ValueError, RuntimeError):
        assume(False)
    assume(isinstance(pi, StationaryVector))
    mu = fair_measure_from(pi, kernel, window)
    assert_check_matches_reference(mu, m, (1, 2, 3), window)


@pytest.mark.parametrize("m, pi", [
    (full_shift(3), full_shift_stationary(3)),
    (origin_broadcast(), origin_broadcast_stationary(40)),
    (origin_broadcast(), None),
    (factorial_chain(), factorial_stationary(40)),
    (factorial_chain(), None),
], ids=["full-shift-3", "origin-broadcast", "origin-broadcast-solved",
        "factorial-chain", "factorial-chain-solved"])
def test_cylinder_check_matches_the_reference_on_builtins(m, pi):
    kernel = build_backward_kernel(m)
    mu = fair_measure_from(pi or solve_stationary(kernel), kernel, 40)
    assert_check_matches_reference(mu, m, (1, 2, 3, 4), 12)


def test_cylinder_check_matches_the_reference_where_it_fails():
    # a vector that is not stationary, with its own forward matrix, and
    # the solved vector with one weight doctored
    m = origin_broadcast()
    kernel = build_backward_kernel(m)
    skew = {i: Fraction(1, 3 ** (i + 1)) for i in range(41)}
    skew_pi = StationaryVector(weights=skew, total=sum(skew.values()),
                               provenance="closed-form")
    mu = fair_measure_from(skew_pi, kernel, 40)
    assert_check_matches_reference(mu, m, (1, 2, 3, 4), 12)
    assert check_fair_on_cylinders(mu, m, 2, 12) > 0
    solved = solve_stationary(kernel)
    weights = dict(solved.weights)
    weights[3] *= 1.01
    doctored = StationaryVector(weights, solved.total, window=solved.window)
    mu = fair_measure_from(doctored, kernel, solved.window)
    assert_check_matches_reference(mu, m, (1, 2), solved.window)
    assert check_fair_on_cylinders(mu, m, 2, solved.window) > 1e-4


def test_cylinder_check_fails_a_vector_that_is_not_stationary():
    # origin-broadcast with weights 3^-(i+1) and total 1/2: each preimage
    # cell gets its equal share, but the rows of P do not sum to one
    m = origin_broadcast()
    kernel = build_backward_kernel(m)
    pi = StationaryVector(weights={i: Fraction(1, 3 ** (i + 1))
                                   for i in range(41)},
                          total=Fraction(1, 2), provenance="closed-form")
    assert verify_stationary(pi, kernel, 40) > 0
    mu = fair_measure_from(pi, kernel, 40)
    for depth in (1, 2, 3):
        assert check_fair_on_cylinders(mu, m, depth, 12) == Fraction(1, 9)


# -- entropy -----------------------------------------------------------------

def test_entropy_of_broadcast_chain_is_log_two():
    mu, _, _ = measure_of(origin_broadcast())
    assert abs(fair_entropy(mu, 60) - math.log(2)) <= 1e-9


def test_entropy_of_factorial_chain():
    mu, _, _ = measure_of(factorial_chain())
    h = fair_entropy(mu, 40)
    assert abs(h - FACTORIAL_ENTROPY) <= 1e-6
    got = integral_log_c(mu, factorial_chain(), 40)
    assert abs(got - h) <= 1e-9


def test_entropy_of_full_shift_is_log_k():
    for k in (2, 4):
        mu, _, _ = measure_of(full_shift(k))
        assert abs(fair_entropy(mu, 4) - math.log(k)) <= 1e-12


def test_entropy_equals_integral_of_log_column_count():
    """The two entropy formulas agree on every positive-recurrent family."""
    for m in (origin_broadcast(), factorial_chain(), full_shift(3)):
        mu, _, _ = measure_of(m)
        assert abs(fair_entropy(mu, 32) - integral_log_c(mu, m, 32)) <= 1e-7


# -- atomic fair measures ------------------------------------------------------

def test_isolated_cycle_is_an_atomic_fair_measure():
    m = TransitionRuleSet(lo=0, hi=2, head=3,
                          explicit={0: (Abs(1),), 1: (Abs(0),),
                                    2: (Abs(0), Abs(1), Abs(2))},
                          name="cycle-plus-feeder")
    # the feeder hits 0 and 1, breaking their candidacy; 2 alone is its
    # own unique predecessor and survives as a fixed-point atom
    orbits = find_atomic_fair_measures(m, max_period=6, window=8)
    assert [o.states for o in orbits] == [(2,)]

    pure = TransitionRuleSet(lo=0, hi=1, head=2,
                             explicit={0: (Abs(1),), 1: (Abs(0),)},
                             name="two-cycle")
    orbits = find_atomic_fair_measures(pure, max_period=6, window=8)
    assert len(orbits) == 1
    assert orbits[0].states == (0, 1)
    assert orbits[0].period == 2


def test_recurrent_families_have_no_atoms():
    for m in (unbiased_walk(), five_three_chain(), full_shift(2),
              origin_broadcast(), factorial_chain()):
        assert find_atomic_fair_measures(m, max_period=8, window=12) == []


def test_self_loop_is_a_period_one_atom():
    m = TransitionRuleSet(lo=0, hi=0, head=1, explicit={0: (Abs(0),)},
                          name="loop")
    orbits = find_atomic_fair_measures(m, max_period=4, window=2)
    assert [o.states for o in orbits] == [(0,)]
