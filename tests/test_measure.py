"""Stationary solver, fairness checks, entropy and atoms.

Frozen numeric targets were derived independently (closed-form sums over
the defining recursions, stdlib Fraction/math only) before these tests
were written.
"""

import itertools
import math
import pathlib
import warnings
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fairshift import (
    Abs, FairMeasure, InfinitePreimages, NoSummableSolution,
    SingularWindow, StationaryVector, TransitionRuleSet, biased_walk,
    build_backward_kernel, check_fair_on_cylinders, cylinder_measure,
    dendrite_example, entropy_tail_estimate,
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


def measure_of(m):
    kernel = build_backward_kernel(m)
    pi = solve_stationary(kernel)
    return fair_measure_from(pi, kernel), kernel, pi


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
        # exact weights
        assert verify_stationary(fair_measure_from(closed, kernel)) == 0
        solved = fair_measure_from(solve_stationary(kernel), kernel)
        assert float(verify_stationary(solved)) <= 1e-9


def test_five_three_profile_is_exactly_stationary():
    """The alternating unnormalised profile solves pi Q = pi on the interior."""
    profile = five_three_profile(24)
    assert profile[0] == 5 and profile[1] == 3 and profile[-2] == 5
    pi = StationaryVector(weights=profile, total=sum(profile.values()),
                          provenance="closed-form")
    kernel = build_backward_kernel(five_three_chain())
    assert verify_stationary(fair_measure_from(pi, kernel)) == 0


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
        # the kernel's memo holds every in-domain state of the table with
        # its predecessors and their count, and no state outside the domain
        assert all(kernel.cols[s] == (tuple(p), len(p))
                   for s, p in want.items() if m.contains(s))
        assert all(map(m.contains, kernel.cols))
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
        mu = fair_measure_from(closed, kernel)
        v = check_fair_on_cylinders(mu)
        assert v == 0
    # with an exact total the violation stays a Fraction
    mu = fair_measure_from(origin_broadcast_stationary(40),
                           build_backward_kernel(origin_broadcast()))
    v = check_fair_on_cylinders(mu)
    assert isinstance(v, Fraction) and v == 0


def test_a_fair_measure_derives_its_forward_matrix():
    # P is built from the measure's own weights: no constructor takes one
    m = origin_broadcast()
    kernel = build_backward_kernel(m)
    with pytest.raises(TypeError):
        FairMeasure(origin_broadcast_stationary(30), kernel, p=())
    mu = FairMeasure(origin_broadcast_stationary(30), kernel)
    assert mu.row(3) == ((2, Fraction(1)),)
    assert mu.row(0)[:2] == ((0, Fraction(1, 2)), (1, Fraction(1, 4)))


def test_a_fair_measure_reads_its_window_off_its_vector():
    # the window the vector names, else its farthest state from 0; the
    # solver's window, and not a caller's, bounds every read
    kernel = build_backward_kernel(origin_broadcast())
    pi = origin_broadcast_stationary(30)
    assert fair_measure_from(pi, kernel).window == 30
    assert fair_measure_from(replace(pi, window=None), kernel).window == 30
    bern = StationaryVector(weights={-3: 0.5, 2: 0.5})
    assert fair_measure_from(bern, build_backward_kernel(unbiased_walk())
                             ).window == 3
    solved = fair_measure_from(solve_stationary(kernel), kernel)
    assert solved.window == solved.pi.window
    assert np.abs(solved.states).max() <= solved.window
    assert np.abs(solved.succ).max() <= solved.window


def test_a_zero_weight_state_counts_in_the_residual_but_not_the_max():
    # 0 -> {1}, 1 -> {1}: c_1 = 2, so pi Q puts 1/2 on each state against
    # the weights 0 and 1; the l1 residual sums both defects, while P has
    # no row at the zero-weight state 0
    m = TransitionRuleSet(lo=0, hi=1, head=2,
                          explicit={0: (Abs(1),), 1: (Abs(1),)}, name="sink")
    kernel = build_backward_kernel(m)
    pi = StationaryVector(weights={1: Fraction(1)}, total=Fraction(1),
                          provenance="closed-form")
    mu = fair_measure_from(pi, kernel)
    assert verify_stationary(mu) == 1
    assert mu.row(0) == ()
    assert check_fair_on_cylinders(mu) == Fraction(1, 2)
    assert reference_check(pi, kernel, 1) == Fraction(1, 2)
    assert reference_residual(pi, kernel, 1) == 1


def test_two_symbol_shift_uniform_is_fair_but_bernoulli_third_is_not():
    """On the full 2-shift the (1/3, 2/3) product measure has fairness
    defect exactly 1/6: the whole space is branch-image measurable, and
    its two preimage cells get 1/3 and 2/3 instead of 1/2 each."""
    m = full_shift(2)
    kernel = build_backward_kernel(m)
    uniform = full_shift_stationary(2)
    assert check_fair_on_cylinders(fair_measure_from(uniform, kernel)) == 0

    bern = StationaryVector(weights={0: Fraction(1, 3), 1: Fraction(2, 3)},
                            total=Fraction(1), provenance="closed-form")
    mu = fair_measure_from(bern, kernel)
    assert check_fair_on_cylinders(mu) == Fraction(1, 6)


def test_an_inadmissible_word_has_measure_exactly_zero():
    # origin-broadcast's row of 3 is {2}: [3 2] is a cylinder of measure
    # pi_3 = 1/16, and [3 5] and [3 2 5] are empty
    mu = fair_measure_from(origin_broadcast_stationary(40),
                           build_backward_kernel(origin_broadcast()))
    assert cylinder_measure(mu, (3, 2)) == Fraction(1, 16)
    for word in ((3, 5), (3, 2, 5), (-1,)):
        got = cylinder_measure(mu, word)
        assert got == 0 and type(got) is int, word


@pytest.mark.parametrize("m, pi", [
    (origin_broadcast(), origin_broadcast_stationary(12)),
    (factorial_chain(), factorial_stationary(12)),
    (full_shift(3), full_shift_stationary(3)),
], ids=["origin-broadcast", "factorial-chain", "full-shift-3"])
def test_cylinder_measure_is_the_product_along_the_rows(m, pi):
    # w_last / (total * prod c) against pi_{w0} * prod p_{w_k w_{k+1}}
    # read off the rows of P, on every word of length 3 over the states
    # 0..5, admissible or not
    mu = fair_measure_from(pi, build_backward_kernel(m))
    exact = isinstance(pi.total, Fraction)
    for word in itertools.product(range(6), repeat=3):
        want = pi.weight(word[0])
        for a, b in zip(word, word[1:]):
            want *= dict(mu.row(a)).get(b, 0)
        want = want / pi.total if want else 0
        got = cylinder_measure(mu, word)
        if exact or not want:
            assert got == want and type(got) is type(want), word
        else:
            assert got == pytest.approx(want, rel=1e-14), word


def test_forward_rows_are_stochastic_and_balanced():
    for m in (origin_broadcast(), factorial_chain(), full_shift(3)):
        mu, kernel, pi = measure_of(m)
        for i in pi.support():
            if abs(i) > 12:
                continue
            row = mu.row(i)
            gap = abs(sum(float(p) for _, p in row) - 1.0)
            if set(m.successors(i, within=pi.window)) <= set(pi.support()):
                assert gap <= 1e-9
            # detailed balance against the backward kernel
            for j, p in row:
                assert i in kernel.preds(j)
                q = 1 / len(kernel.preds(j))
                assert abs(pi.entry(i) * float(p) - pi.entry(j) * float(q)) <= 1e-10


# -- the forward matrix and its sums against per-state references -------------

def reference_rows(pi, kernel, window):
    """The rows of P built one state at a time from the rule set's
    successors, kept verbatim from the measure before it read them off
    the column table: a Fraction pair of weights gives a Fraction, any
    other pair a float."""
    base = kernel.base
    rows = {}
    for i in base.states(window):
        wi = pi.weight(i)
        if wi == 0:
            continue
        row = []
        for j in base.successors(i, within=window):
            wj = pi.weight(j)
            if wj == 0:
                continue
            c = len(kernel.preds(j))
            if isinstance(wi, Fraction) and isinstance(wj, Fraction):
                p = wj / (wi * c)
            else:
                p = float(wj) / (float(wi) * c)
            row.append((j, p))
        rows[i] = tuple(row)
    return rows


def reference_fair_entropy(pi, rows):
    h = 0.0
    for i in pi.support():
        pi_i = pi.entry(i)
        if pi_i == 0.0:
            continue
        for j, p in rows.get(i, ()):
            pf = float(p)
            if pf > 0.0:
                h -= pi_i * pf * math.log(pf)
    return h


def reference_entropy_tail_estimate(pi, rows):
    row_h = 0.0
    for i in pi.support():
        s = 0.0
        for _, p in rows.get(i, ()):
            pf = float(p)
            if pf > 0.0:
                s -= pf * math.log(pf)
        row_h = max(row_h, s)
    return pi.tail_mass_bound * max(row_h, 1.0)


def reference_integral_log_c(pi, kernel, window):
    total = 0.0
    for i in pi.support():
        if abs(i) <= window:
            total += pi.entry(i) * math.log(len(kernel.preds(i)))
    return total


def reference_defects(pi, kernel, window):
    """(w_i, |(pi Q)_i - w_i|) of each window state whose row is finite
    and inside the window, the flow added one successor at a time: the
    defects before they were array reductions."""
    base = kernel.base
    states = base.states(window)
    defects = []
    for i in states:
        if base.row_unbounded(i):
            continue
        succ = base.successors(i)
        if succ and (succ[0] < states[0] or succ[-1] > states[-1]):
            continue
        flow = 0
        for j in succ:
            flow += pi.weight(j) * Fraction(1, len(kernel.preds(j)))
        defects.append((pi.weight(i), abs(flow - pi.weight(i))))
    return defects


def reference_per_total(pi, x):
    if pi.ratios_exact and isinstance(pi.total, (Fraction, int)):
        return Fraction(x) / pi.total
    return float(x) / float(pi.total)


def typed_rows(rows):
    return {i: [(j, p, type(p)) for j, p in row] for i, row in rows.items()}


@settings(max_examples=150, deadline=None)
@given(st.one_of(finite_chains(),
                 graph_specs().map(lambda spec: (
                     refined_transition_matrix(spec), None))),
       st.data())
def test_forward_matrix_and_its_sums_match_the_per_state_reference(
        chain_and_window, data):
    # the same weights as Fractions, as floats, and the solved floats; a
    # window of None is the support's farthest state, so rows that cross
    # it are truncated.  Floats must agree to the last bit
    m, window = chain_and_window
    kernel = build_backward_kernel(m)
    states = m.states(max(abs(m.lo), abs(m.hi)))
    counts = data.draw(st.lists(st.integers(0, 9), min_size=len(states),
                                max_size=len(states)))
    assume(any(counts))
    exact = {s: Fraction(k, sum(counts)) for s, k in zip(states, counts) if k}
    vectors = [StationaryVector(exact, Fraction(1), window=window,
                                tail_mass_bound=0.5),
               StationaryVector({s: float(w) for s, w in exact.items()}, 1.0,
                                window=window, tail_mass_bound=0.5)]
    solved = outcome(solve_stationary, kernel)
    if isinstance(solved, StationaryVector):
        vectors.append(replace(solved, window=window))
    for pi in vectors:
        mu = fair_measure_from(pi, kernel)
        rows = reference_rows(pi, kernel, mu.window)
        got = {i: mu.row(i) for i in m.states(mu.window)}
        assert typed_rows(got) == typed_rows(
            {i: rows.get(i, ()) for i in got})
        assert mu.p.dtype == (object if pi is vectors[0] else float)
        defects = reference_defects(pi, kernel, mu.window)
        residual = 0
        for _, d in defects:
            residual += d
        worst = max((d for w, d in defects if w != 0), default=0)
        for got, want in ((verify_stationary(mu), residual),
                          (check_fair_on_cylinders(mu), worst)):
            want = reference_per_total(pi, want)
            assert got == want and type(got) is type(want)
        for f, want in ((fair_entropy, reference_fair_entropy(pi, rows)),
                        (entropy_tail_estimate,
                         reference_entropy_tail_estimate(pi, rows)),
                        (integral_log_c, outcome(reference_integral_log_c,
                                                 pi, kernel, mu.window))):
            got = outcome(f, mu)
            assert got == want and type(got) is type(want), f.__name__


def test_weights_mixing_ints_and_fractions_give_an_exact_forward_matrix():
    # every weight a Fraction or an int makes P exact: the per-state rows
    # gave a float for each pair with an int in it
    kernel = build_backward_kernel(full_shift(2))
    pi = StationaryVector(weights={0: 1, 1: Fraction(1, 2)},
                          total=Fraction(3, 2), provenance="closed-form")
    mu = fair_measure_from(pi, kernel)
    assert mu.p.dtype == object
    assert typed_rows({i: mu.row(i) for i in (0, 1)}) == {
        0: [(0, Fraction(1, 2), Fraction), (1, Fraction(1, 4), Fraction)],
        1: [(0, Fraction(1), Fraction), (1, Fraction(1, 2), Fraction)]}
    assert typed_rows(reference_rows(pi, kernel, mu.window)) == {
        0: [(0, 0.5, float), (1, 0.25, float)],
        1: [(0, 1.0, float), (1, Fraction(1, 2), Fraction)]}
    # pi Q puts 3/4 on each state against the weights 1 and 1/2
    assert verify_stationary(mu) == Fraction(1, 3)
    assert check_fair_on_cylinders(mu) == Fraction(1, 6)
    ints = StationaryVector(weights={0: 1, 1: 1}, total=2)
    assert fair_measure_from(ints, kernel).row(1) == (
        (0, Fraction(1, 2)), (1, Fraction(1, 2)))


# -- the interior defects against kernel-side references ----------------------

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


def reference_residual(pi, kernel, window):
    """sum |(pi Q)_i - w_i| / total over the window states whose row is
    finite and inside the window, with pi Q scattered from the kernel's
    columns: each window state j sends w_j / c_j to each predecessor."""
    m = kernel.base
    states = m.states(window)
    zero = Fraction(0) if pi.ratios_exact else 0.0
    flow = {}
    for j in states:
        preds = kernel.preds(j)
        for i in preds:
            flow[i] = flow.get(i, zero) + pi.weight(j) / len(preds)
    residual = sum((abs(flow.get(i, zero) - pi.weight(i)) for i in states
                    if not m.row_unbounded(i)
                    and set(m.successors(i)) <= set(states)), zero)
    if isinstance(residual, Fraction) and isinstance(pi.total, (Fraction, int)):
        return residual / Fraction(pi.total)
    return float(residual) / float(pi.total)


def assert_check_matches_reference(mu):
    for got, want in ((check_fair_on_cylinders(mu),
                       reference_check(mu.pi, mu.kernel, mu.window)),
                      (verify_stationary(mu),
                       reference_residual(mu.pi, mu.kernel, mu.window))):
        if isinstance(want, Fraction):
            assert isinstance(got, Fraction) and got == want
        else:
            assert abs(got - want) <= 1e-12


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
    # a window narrower than the domain leaves rows that cross its edge
    mu = fair_measure_from(replace(pi, window=window), kernel)
    assert_check_matches_reference(mu)


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
    mu = fair_measure_from(pi or solve_stationary(kernel), kernel)
    assert_check_matches_reference(mu)


def test_cylinder_check_matches_the_reference_where_it_fails():
    # a vector that is not stationary, with its own forward matrix, and
    # the solved vector with one weight doctored
    m = origin_broadcast()
    kernel = build_backward_kernel(m)
    skew = {i: Fraction(1, 3 ** (i + 1)) for i in range(41)}
    skew_pi = StationaryVector(weights=skew, total=sum(skew.values()),
                               provenance="closed-form")
    mu = fair_measure_from(skew_pi, kernel)
    assert_check_matches_reference(mu)
    assert check_fair_on_cylinders(mu) > 0
    solved = solve_stationary(kernel)
    weights = dict(solved.weights)
    weights[3] *= 1.01
    doctored = StationaryVector(weights, solved.total, window=solved.window)
    mu = fair_measure_from(doctored, kernel)
    assert_check_matches_reference(mu)
    assert check_fair_on_cylinders(mu) > 1e-4


def test_cylinder_check_fails_a_vector_that_is_not_stationary():
    # origin-broadcast with weights 3^-(i+1) and total 1/2: each preimage
    # cell gets its equal share, but the rows of P do not sum to one
    m = origin_broadcast()
    kernel = build_backward_kernel(m)
    pi = StationaryVector(weights={i: Fraction(1, 3 ** (i + 1))
                                   for i in range(41)},
                          total=Fraction(1, 2), provenance="closed-form")
    mu = fair_measure_from(pi, kernel)
    assert verify_stationary(mu) > 0
    assert check_fair_on_cylinders(mu) == Fraction(1, 9)


# -- entropy -----------------------------------------------------------------

def test_entropy_of_broadcast_chain_is_log_two():
    mu, _, _ = measure_of(origin_broadcast())
    assert abs(fair_entropy(mu) - math.log(2)) <= 1e-9


def test_entropy_of_factorial_chain():
    mu, _, _ = measure_of(factorial_chain())
    h = fair_entropy(mu)
    assert abs(h - FACTORIAL_ENTROPY) <= 1e-6
    got = integral_log_c(mu)
    assert abs(got - h) <= 1e-9


def test_entropy_of_full_shift_is_log_k():
    for k in (2, 4):
        mu, _, _ = measure_of(full_shift(k))
        assert abs(fair_entropy(mu) - math.log(k)) <= 1e-12


def test_entropy_equals_integral_of_log_column_count():
    """The two entropy formulas agree on every positive-recurrent family."""
    for m in (origin_broadcast(), factorial_chain(), full_shift(3)):
        mu, _, _ = measure_of(m)
        assert abs(fair_entropy(mu) - integral_log_c(mu)) <= 1e-7


# -- atomic fair measures ------------------------------------------------------

def test_isolated_cycle_is_an_atomic_fair_measure():
    m = TransitionRuleSet(lo=0, hi=2, head=3,
                          explicit={0: (Abs(1),), 1: (Abs(0),),
                                    2: (Abs(0), Abs(1), Abs(2))},
                          name="cycle-plus-feeder")
    # the feeder hits 0 and 1, breaking their candidacy; 2 alone is its
    # own unique predecessor and survives as a fixed-point atom
    orbits = find_atomic_fair_measures(
        build_backward_kernel(m), max_period=6, window=8)
    assert [o.states for o in orbits] == [(2,)]

    pure = TransitionRuleSet(lo=0, hi=1, head=2,
                             explicit={0: (Abs(1),), 1: (Abs(0),)},
                             name="two-cycle")
    orbits = find_atomic_fair_measures(
        build_backward_kernel(pure), max_period=6, window=8)
    assert len(orbits) == 1
    assert orbits[0].states == (0, 1)
    assert orbits[0].period == 2


def test_recurrent_families_have_no_atoms():
    for m in (unbiased_walk(), five_three_chain(), full_shift(2),
              origin_broadcast(), factorial_chain()):
        assert find_atomic_fair_measures(
            build_backward_kernel(m), max_period=8, window=12) == []


def test_a_three_cycle_comes_out_in_forward_order():
    # 0 -> 1 -> 2 -> 0 forward, so the walk back from 0 meets 2 first
    m = TransitionRuleSet(lo=0, hi=3, head=4,
                          explicit={0: (Abs(1),), 1: (Abs(2),), 2: (Abs(0),),
                                    3: (Abs(3),)}, name="three-cycle")
    kernel = build_backward_kernel(m)
    orbits = find_atomic_fair_measures(kernel, max_period=6, window=3)
    assert [o.states for o in orbits] == [(0, 1, 2), (3,)]
    assert reference_atomic_orbits(kernel, 6, 3) == [(0, 1, 2), (3,)]
    assert find_atomic_fair_measures(kernel, max_period=2, window=3)[0] \
        .states == (3,)


def test_self_loop_is_a_period_one_atom():
    m = TransitionRuleSet(lo=0, hi=0, head=1, explicit={0: (Abs(0),)},
                          name="loop")
    orbits = find_atomic_fair_measures(
        build_backward_kernel(m), max_period=4, window=2)
    assert [o.states for o in orbits] == [(0,)]


def reference_atomic_orbits(kernel, max_period, window):
    """Cycles of states with one predecessor each, followed one state at
    a time, kept verbatim from the search before it read the column
    table."""
    unique_pred = {}
    for s in kernel.base.states(window):
        preds = kernel.preds(s)
        if len(preds) == 1:
            unique_pred[s] = preds[0]
    orbits = set()
    for s in unique_pred:
        path = [s]
        t = s
        for _ in range(max_period):
            if t not in unique_pred:
                break
            t = unique_pred[t]
            if t == s:
                cycle = tuple(reversed(path))      # forward order
                k = cycle.index(min(cycle))
                orbits.add(cycle[k:] + cycle[:k])
                break
            path.append(t)
    return sorted(orbits)


@settings(max_examples=200, deadline=None)
@given(st.one_of(finite_chains(), finite_chains(max_row=1),
                 finite_chains(max_row=2)),
       st.integers(0, 6))
def test_atomic_orbits_match_the_per_state_search(chain_and_window,
                                                  max_period):
    # rows of one or two states give many states a single predecessor; a
    # window narrower than the domain cuts cycles through its edge
    m, window = chain_and_window
    kernel = build_backward_kernel(m)
    got = find_atomic_fair_measures(kernel, max_period, window)
    assert [o.states for o in got] == reference_atomic_orbits(
        kernel, max_period, window)
