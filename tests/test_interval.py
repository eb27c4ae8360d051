"""Interval maps: compilation to rule sets, symbolic dynamics, fair models."""

import functools
import json
import math
from collections import namedtuple
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairshift import (
    Abs, Branch, FinitePartition, GeometricPartition, HitsPartitionPoint,
    InadmissibleWord, IntegerPartition, MarkovIntervalMap, NotMarkov,
    PiecewiseAffineMap, Rel, StationaryVector, build_backward_kernel,
    check_lebesgue_fair, cylinder_interval, dump_json, factorial_chain,
    factorial_stationary,
    fair_measure_from, five_three_chain, five_three_map, full_shift,
    full_shift_stationary, interval_map_from_dict, interval_map_to_dict,
    itinerary, lebesgue_fair_model, merged_segments, point_from_itinerary,
    rohlin_entropy, solve_stationary, staircase_map, tent_map,
    transition_matrix,
)
from test_graph import dendrite_fair_model

F = Fraction
FACTORIAL_ENTROPY = 1.0475026451453382        # sum_k log(k+2)/(e k!)


def entries_equal(a, b, window):
    for i in a.states(window):
        for j in a.states(window):
            if a.entry(i, j) != b.entry(i, j):
                return False
    return set(a.states(window)) == set(b.states(window))


# -- partitions -------------------------------------------------------------

def test_geometric_partition_geometry():
    part = GeometricPartition(F(1, 2))
    assert part.bounds(1) == (F(1, 2), F(1))
    assert part.bounds(3) == (F(1, 8), F(1, 4))
    assert part.locate(F(3, 5)) == 1
    assert part.locate(F(3, 16)) == 3
    with pytest.raises(HitsPartitionPoint):
        part.locate(F(1, 4))
    assert part.covered(F(1, 4), F(1)) == [1, 2]
    assert len(part.ids_within(12)) == 12


def test_integer_partition_geometry():
    part = IntegerPartition()
    lo, hi = part.bounds(4)
    assert hi - lo == 1 and part.locate(lo + F(1, 2)) == 4
    assert part.locate(F(-7, 2)) == -4


def test_finite_partition_validation():
    with pytest.raises(ValueError):
        FinitePartition((F(0), F(0), F(1)))
    part = FinitePartition((F(0), F(1, 2), F(1)))
    with pytest.raises(NotMarkov):
        part.covered(F(0), F(1, 3))


# -- compilation to transition rule sets --------------------------------------

def test_tent_map_compiles_to_the_full_two_shift():
    m = transition_matrix(tent_map())
    assert entries_equal(m, full_shift(2), 9)


def test_finite_branch_images_on_a_geometric_partition():
    # branch n maps onto (r^{n+1}, r^{n-1}), the union of intervals n and
    # n + 1: explicit head rows of absolute terms and a tail of offsets
    r = F(1, 2)
    imap = MarkovIntervalMap(GeometricPartition(r), name="two-step",
                             rule=lambda n: Branch(n, r ** (n + 1),
                                                   r ** (n - 1)))
    m = transition_matrix(imap)
    assert (m.lo, m.hi, m.head) == (1, None, 4)
    assert m.explicit == {n: (Abs(n), Abs(n + 1)) for n in (1, 2, 3)}
    assert m.tail == {0: (Rel(0), Rel(1))}
    for n in range(1, 12):
        assert m.successors(n) == [n, n + 1]
        assert m.predecessors(n) == ([1] if n == 1 else [n - 1, n])


def test_staircase_compiles_to_the_factorial_chain():
    m = transition_matrix(staircase_map())
    assert entries_equal(m, factorial_chain(), 9)
    for j in range(1, 9):
        assert len(m.predecessors(j)) == j + 1


def test_five_three_map_compiles_to_the_five_three_chain():
    m = transition_matrix(five_three_map())
    assert entries_equal(m, five_three_chain(), 9)


def test_five_three_map_slopes():
    imap = five_three_map()
    assert imap.slope(0) == 5
    assert imap.slope(2) == 5
    assert imap.slope(1) == -3
    assert imap.branch(1).increasing is False


def test_non_markov_map_is_rejected():
    part = FinitePartition((F(0), F(1, 2), F(1)))
    table = {0: Branch(0, 0, F(1, 3), True), 1: Branch(1, 0, 1, False)}
    with pytest.raises(NotMarkov):
        transition_matrix(MarkovIntervalMap(part, table=table, name="crooked"))


def test_a_table_must_give_every_interval_a_branch():
    # a finite partition is checked when the map is made
    part = FinitePartition((F(0), F(1, 2), F(1)))
    for table in ({0: Branch(0, 0, 1, True)},
                  {0: Branch(0, 0, 1), 1: Branch(1, 0, 1), 2: Branch(2, 0, 1)}):
        with pytest.raises(ValueError, match="exactly the intervals 0..1"):
            MarkovIntervalMap(part, table=table)
    # a table cannot cover an infinite partition; it fails to compile
    lattice = MarkovIntervalMap(IntegerPartition(), table={
        0: Branch(0, 0, 2, True), 1: Branch(1, 0, 2, False)})
    with pytest.raises(NotMarkov, match="without a branch"):
        transition_matrix(lattice)


# -- symbolic dynamics ---------------------------------------------------------

def test_itinerary_of_two_fifths_alternates():
    assert itinerary(tent_map(), F(2, 5), 6) == (0, 1, 0, 1, 0, 1)


def test_itinerary_of_the_fixed_point():
    assert itinerary(tent_map(), F(2, 3), 5) == (1, 1, 1, 1, 1)


def test_itinerary_reports_partition_hits():
    with pytest.raises(HitsPartitionPoint) as exc:
        itinerary(tent_map(), F(1, 4), 4)
    assert exc.value.step == 1            # lands on 1/2 after one step


def test_tent_cylinders():
    t = tent_map()
    assert cylinder_interval(t, (0,)) == (F(0), F(1, 2))
    assert cylinder_interval(t, (0, 0)) == (F(0), F(1, 4))
    assert cylinder_interval(t, (1, 0)) == (F(3, 4), F(1))
    assert cylinder_interval(t, (0, 1, 1)) == (F(1, 4), F(3, 8))


def test_staircase_cylinders_follow_the_geometric_partition():
    s = staircase_map()
    assert cylinder_interval(s, (2,)) == (F(1, 4), F(1, 2))
    lo, hi = cylinder_interval(s, (1, 1))
    assert F(1, 2) <= lo < hi <= F(1)
    with pytest.raises(InadmissibleWord):
        cylinder_interval(s, (5, 2))      # 2 < 5 - 1, no such transition


def test_cylinders_of_fixed_depth_are_disjoint():
    t = tent_map()
    words = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    ivs = sorted(cylinder_interval(t, w) for w in words)
    assert all(a_hi <= b_lo for (_, a_hi), (b_lo, _) in zip(ivs, ivs[1:]))
    assert sum(hi - lo for lo, hi in ivs) == 1


def test_point_from_itinerary_pins_down_orbits():
    t = tent_map()
    enc = point_from_itinerary(t, (0,) * 30, eps=F(1, 10 ** 6))
    assert enc.converged and enc.lo == 0 and enc.width() < F(1, 10 ** 5)
    enc = point_from_itinerary(t, (1,) * 40)
    assert enc.lo < F(2, 3) < enc.hi
    assert enc.converged
    rough = point_from_itinerary(t, (1,))
    assert not rough.converged and rough.width() == F(1, 2)


def test_point_from_itinerary_round_trips():
    for imap, word in ((tent_map(), (0, 1, 1, 0)),
                       (tent_map(), (1, 0, 0, 1, 1)),
                       (staircase_map(), (3, 2, 1, 1)),
                       (staircase_map(), (1, 2, 3, 2))):
        probe = word + word[-1:] * 0
        enc = point_from_itinerary(imap, word)
        mid = enc.midpoint()
        assert itinerary(imap, mid, len(word)) == word


# -- Lebesgue fair models --------------------------------------------------------

# one model row, named as the reference loops below read it
Row = namedtuple("Row", "src dst xr yr increasing cmag")


def rows_of(model):
    """The model's pieces as Python rows, left to right along x."""
    return [Row(*r) for r in zip(model.src.tolist(), model.dst.tolist(),
                                 map(tuple, model.x.tolist()),
                                 map(tuple, model.y.tolist()),
                                 model.increasing.tolist(),
                                 model.cmag.tolist())]


def model_of(rows, name):
    """A model of total mass 1 whose pieces are ``rows`` sorted along x."""
    rows = sorted(rows, key=lambda r: r.xr[0], reverse=True)
    src, dst, x, y, increasing, cmag = map(np.array, zip(*rows))
    return PiecewiseAffineMap(src, dst, x, y, increasing, cmag, total=F(1),
                              emitted=F(1), gap=F(0), name=name)


def with_rows(model, column, rows):
    """The model with the rows ``{k: value}`` of one column replaced."""
    edited = getattr(model, column).copy()
    for k, value in rows.items():
        edited[k] = value
    return replace(model, **{column: edited})


def tent_model():
    m = full_shift(2)
    kernel = build_backward_kernel(m)
    mu = fair_measure_from(full_shift_stationary(2), kernel)
    return lebesgue_fair_model(tent_map(), mu)


def staircase_model(window=30, ratio=F(1, 2)):
    m = factorial_chain()
    kernel = build_backward_kernel(m)
    mu = fair_measure_from(factorial_stationary(window), kernel)
    return lebesgue_fair_model(staircase_map(ratio), mu, window=window)


def test_a_model_window_narrower_than_the_measure_keeps_its_slots():
    # the measure's rows run to 30; slots and pieces stop at 5, one piece
    # per entry of P between two slots, and the truncation is excused
    kernel = build_backward_kernel(factorial_chain())
    mu = fair_measure_from(factorial_stationary(30), kernel)
    model = lebesgue_fair_model(staircase_map(), mu, window=5)
    assert set(model.src.tolist()) | set(model.dst.tolist()) == set(range(1, 6))
    assert model.piece_count() == sum(
        j <= 5 for i in range(1, 6) for j, _ in mu.row(i))
    assert check_lebesgue_fair(model) == 0
    assert model.x.dtype == object


def test_tent_model_reproduces_the_tent_map():
    model = tent_model()
    assert model.piece_count() == 4
    assert check_lebesgue_fair(model) == 0
    assert merged_segments(model) == [(0.0, 0.5, 2), (0.5, 1.0, -2)]
    assert rohlin_entropy(model) == pytest.approx(math.log(2), abs=1e-12)


def test_staircase_model_slopes_are_column_counts():
    model = staircase_model()
    assert model.piece_count() > 100
    assert (model.cmag == model.dst + 1).all()
    assert model.cmag.min() == 2
    # x-pieces within one source interval are ordered left to right and
    # map onto whole slots: every piece onto one slot has the same y-range
    slots: dict = {}
    assert all(slots.setdefault(p.dst, p.yr) == p.yr for p in rows_of(model))


def test_staircase_model_is_exactly_fair():
    model = staircase_model()
    # the 30-state window leaves only the mass of the factorial tail
    # unplaced, far below any float resolution
    assert 0 <= model.gap < F(1, 10 ** 30)
    assert check_lebesgue_fair(model) == 0
    # every window truncates and every ratio reshapes the slots
    for window in range(2, 31):
        for ratio in (F(1, 2), F(1, 3), F(2, 5), F(3, 4)):
            assert check_lebesgue_fair(staircase_model(window, ratio)) == 0


def test_staircase_model_entropy_matches_the_chain():
    model = staircase_model()
    assert abs(rohlin_entropy(model) - FACTORIAL_ENTROPY) < 1e-3


def test_unequal_branch_split_breaks_fairness():
    """Three full branches with Lebesgue sizes (1/2, 1/3, 1/6).

    Every slot has N_j = 3 pieces onto it, and the piece from slot i onto
    slot j has length |Y_i| |Y_j| instead of the fair share |Y_j| / 3, a
    defect of |Y_j| |Y_i - 1/3|.  The pieces out of each slot still tile
    it, so the worst defect is that of the widest slot j with
    |Y_i - 1/3| = 1/6 at i of size 1/2 or 1/6: 1/2 * 1/6 = 1/12.
    """
    slots = [(F(0), F(1, 2)), (F(1, 2), F(5, 6)), (F(5, 6), F(1))]

    def rho(a, b):
        return (1 - b, 1 - a)

    rows = []
    for i, (ilo, ihi) in enumerate(slots):
        width = ihi - ilo
        for j, (jlo, jhi) in enumerate(slots):
            a = ilo + width * jlo
            b = ilo + width * jhi
            rows.append(Row(src=i, dst=j, xr=rho(a, b), yr=rho(*slots[j]),
                            increasing=True, cmag=3))
    model = model_of(rows, "skew")
    assert check_lebesgue_fair(model) == F(1, 12)

    # the balanced variant of the same construction is exactly fair
    slots = [(F(0), F(1, 3)), (F(1, 3), F(2, 3)), (F(2, 3), F(1))]
    rows = []
    for i, (ilo, ihi) in enumerate(slots):
        for j, (jlo, jhi) in enumerate(slots):
            a = ilo + (ihi - ilo) * jlo
            b = ilo + (ihi - ilo) * jhi
            rows.append(Row(src=i, dst=j, xr=rho(a, b), yr=rho(*slots[j]),
                            increasing=True, cmag=3))
    balanced = model_of(rows, "thirds")
    assert check_lebesgue_fair(balanced) == 0
    assert rohlin_entropy(balanced) == pytest.approx(math.log(3), abs=1e-12)


def test_five_three_map_has_no_summable_fair_model_input():
    # the compiled chain is the five-three chain, for which the solver
    # refuses; there is nothing to feed lebesgue_fair_model with
    from fairshift import NoSummableSolution, solve_stationary
    out = solve_stationary(build_backward_kernel(transition_matrix(five_three_map())))
    assert isinstance(out, NoSummableSolution)


# -- the slot check against plain Fraction references -------------------------

def _reference_violation(model, depth):
    """The pull-back check that ``check_lebesgue_fair`` replaced.

    Each piece's x-range is a cell, pulled back through every piece onto
    its home slot, ``depth`` times; a cell contributes the distance of
    each preimage length from its fair share len(B) / c(B).  Kept as the
    floor the slot check must be at least as strict as.
    """
    pieces = rows_of(model)
    by_dst = {}
    for p in pieces:
        by_dst.setdefault(p.dst, []).append(p)
    truncated = model.gap != 0 or model.emitted != model.total
    worst = F(0)
    frontier = [(F(p.xr[0]), F(p.xr[1]), p.src) for p in pieces]
    for _ in range(depth):
        nxt = []
        for u, v, home in frontier:
            covering = []
            for q in by_dst.get(home, ()):
                c, d = q.yr
                if c <= u and v <= d:
                    covering.append(q)
                elif c < v and u < d:
                    raise NotMarkov("straddle")
            if not covering:
                continue
            c_b = len(covering)
            boundary = truncated and any(q.cmag != c_b for q in covering)
            for q in covering:
                (a, b), (c, d) = q.xr, q.yr
                s = F(d - c) / (b - a)
                if q.increasing:
                    pu, pv = a + (u - c) / s, a + (v - c) / s
                else:
                    pu, pv = a + (d - v) / s, a + (d - u) / s
                if not boundary:
                    worst = max(worst, abs((pv - pu) - (v - u) / c_b))
                nxt.append((pu, pv, q.src))
        frontier = nxt
    return worst


def _reference_defect(model):
    """The slot defect of ``check_lebesgue_fair`` in plain Fractions.

    Slots are visited left to right along y; each is compared with the
    pieces onto it, one fair share |Y_j| / N_j each, and with the pieces
    out of it, walked from the slot's start to its end.
    """
    truncated = model.gap != 0 or model.emitted != model.total
    pieces = rows_of(model)
    ys = {}
    for p in pieces:
        if ys.setdefault(p.dst, p.yr) != p.yr:
            raise NotMarkov("one slot, two y-ranges")
    worst, reached = F(0), None
    for j, (c, d) in sorted(ys.items(), key=lambda item: item[1]):
        if reached is not None and c < reached:
            raise NotMarkov("overlapping slots")
        reached = d
        onto = [p for p in pieces if p.dst == j]
        share = F(d - c) / len(onto)
        if not truncated or all(p.cmag == len(onto) for p in onto):
            for p in onto:
                worst = max(worst, abs(F(p.xr[1] - p.xr[0]) - share))
        at, loss = F(c), F(0)
        for u, v in sorted(p.xr for p in pieces if p.src == j):
            loss += abs(u - at)
            at = F(v)
        if at > d or not truncated:
            loss += abs(d - at)
        worst = max(worst, loss)
    return worst


def _reference_rohlin(model):
    """The per-piece loop that ``rohlin_entropy`` replaced."""
    total = float(model.total)
    acc = 0.0
    for p in rows_of(model):
        acc += float(p.xr[1] - p.xr[0]) / total * math.log(p.cmag)
    return acc


def _reference_segments(model):
    """The per-piece loop that ``merged_segments`` replaced."""
    def slope(p):
        return p.cmag if p.increasing else -p.cmag

    total = float(model.total)
    segs: list[list] = []
    prev = None
    for p in rows_of(model):          # ascending x = descending rho
        joined = False
        if prev is not None and segs:
            adjacent = prev.xr[0] == p.xr[1]
            if adjacent and slope(prev) == slope(p):
                left_y = prev.yr[0] if prev.increasing else prev.yr[1]
                right_y = p.yr[1] if p.increasing else p.yr[0]
                if left_y == right_y:
                    segs[-1][1] = p.xr[0]
                    joined = True
        if not joined:
            segs.append([p.xr[1], p.xr[0], slope(p)])
        prev = p
    return [(1.0 - float(rho_left) / total, 1.0 - float(rho_right) / total,
             s) for rho_left, rho_right, s in segs]


def _outcome(fn, *args):
    """fn's result, or the type of the lookup error it raised."""
    try:
        return fn(*args)
    except (ValueError, HitsPartitionPoint) as exc:
        return type(exc)


def triangle_model(n):
    """Interval i of n maps onto the first n - i intervals.

    Column counts n - j differ from state to state while the exact
    stationary weights n - j stay comparable, so violations of cells
    with different covering counts compete in doctored copies.
    """
    part = FinitePartition(tuple(F(k, n) for k in range(n + 1)))
    imap = MarkovIntervalMap(part, table={
        i: Branch(i, 0, F(n - i, n), i % 2 == 0) for i in range(n)})
    kernel = build_backward_kernel(transition_matrix(imap))
    pi = StationaryVector(weights={j: F(n - j) for j in range(n)},
                          total=F(n * (n + 1), 2), window=n)
    return lebesgue_fair_model(imap, fair_measure_from(pi, kernel))


rationals = st.builds(F, st.integers(-3, 40), st.integers(1, 8))


@st.composite
def interval_maps(draw):
    """A finite Markov interval map that is irreducible.

    Intervals ``order[0], order[1], ...`` form one cycle through every
    interval, as the random graph specs of the benchmark do: each branch
    maps onto a run of consecutive intervals that holds the next interval
    of the cycle, with a random orientation.
    """
    points = sorted(draw(st.lists(rationals, min_size=3, max_size=7,
                                  unique=True)))
    k = len(points) - 1
    order = draw(st.permutations(range(k)))
    table = {}
    for t, i in enumerate(order):
        nxt = order[(t + 1) % k]
        lo = draw(st.integers(0, nxt))
        hi = draw(st.integers(nxt + 1, k))
        table[i] = Branch(i, points[lo], points[hi], draw(st.booleans()))
    return MarkovIntervalMap(FinitePartition(tuple(points)), table=table,
                             name="generated")


def exact_stationary(kernel, k):
    """pi Q = pi with sum 1 on states 0..k-1, by Fraction elimination."""
    # row i of the system is sum_j pi_j Q_ji - pi_i = 0; the last row is
    # replaced by the normalisation
    rows = [[F(0)] * k + [F(0)] for _ in range(k)]
    for j in range(k):
        for i in kernel.preds(j):
            rows[i][j] += F(1, len(kernel.preds(j)))
        rows[j][j] -= 1
    rows[-1] = [F(1)] * k + [F(1)]
    for col in range(k):
        pivot = next(r for r in range(col, k) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(k):
            if r != col and rows[r][col] != 0:
                f = rows[r][col] / rows[col][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return {j: rows[j][k] / rows[j][j] for j in range(k)}


def generated_model(imap, scale=None):
    """The exact fair model of a generated map, one weight scaled if asked."""
    k = imap.partition.n_intervals
    kernel = build_backward_kernel(transition_matrix(imap))
    weights = exact_stationary(kernel, k)
    if scale is not None:
        weights[scale[0]] *= scale[1]
    pi = StationaryVector(weights=weights, total=sum(weights.values()),
                          window=k)
    return lebesgue_fair_model(imap, fair_measure_from(pi, kernel))


@st.composite
def built_models(draw):
    kind = draw(st.sampled_from(["tent", "staircase", "triangle",
                                 "generated"]))
    if kind == "tent":
        return tent_model()
    if kind == "triangle":
        return triangle_model(draw(st.integers(2, 6)))
    if kind == "generated":
        return generated_model(draw(interval_maps()))
    ratio = draw(st.sampled_from([F(1, 2), F(1, 3), F(2, 5), F(3, 4)]))
    return staircase_model(draw(st.integers(2, 8)), ratio)


@st.composite
def doctored_models(draw):
    """A built model with some pieces doctored.

    Piece ends move by rationals, orientations flip and column counts
    move by one, so the pieces onto one slot mix orientations and
    covering counts, and truncated staircase models reach the boundary
    skip with such a mixed slot.
    """
    model = draw(built_models())
    columns = {name: getattr(model, name).copy()
               for name in ("x", "y", "increasing", "cmag")}
    for k in draw(st.lists(st.integers(0, model.piece_count() - 1),
                           min_size=1, max_size=6)):
        # x ends give defects, y ends mostly split a slot's y-range
        which = draw(st.sampled_from(["x", "x", "y", "increasing", "cmag"]))
        if which == "increasing":
            columns[which][k] = not columns[which][k]
            continue
        if which == "cmag":
            columns[which][k] += draw(st.sampled_from([-1, 1]))
            continue
        lo, hi = columns[which][k]
        span = hi - lo
        # each end moves by under a third of the span: the piece stays
        # nonempty
        lo += span * F(draw(st.integers(-5, 5)), draw(st.integers(16, 40)))
        hi += span * F(draw(st.integers(-5, 5)), draw(st.integers(16, 40)))
        columns[which][k] = (lo, hi)
    return replace(model, **columns)


@settings(max_examples=60, deadline=None)
@given(built_models(), st.integers(1, 3))
def test_integer_check_matches_fraction_reference_on_built_models(model,
                                                                  depth):
    got = check_lebesgue_fair(model)
    assert isinstance(got, Fraction)
    assert got == _reference_defect(model) == 0
    assert _reference_violation(model, depth) == 0


@settings(max_examples=150, deadline=None)
@given(doctored_models(), st.integers(1, 3))
def test_integer_check_matches_fraction_reference_on_doctored_models(model,
                                                                     depth):
    got = _outcome(check_lebesgue_fair, model)
    assert got == _outcome(_reference_defect, model)
    if got is not NotMarkov:
        assert isinstance(got, Fraction)
    # at least as strict as the pull-back check: whatever it flags, by a
    # violation or a straddle, is flagged here too
    if _outcome(_reference_violation, model, depth) != 0:
        assert got != 0


dendrite_model = functools.cache(dendrite_fair_model)


@st.composite
def weighed_models(draw):
    """A model and whether its weights are exact.

    Built models have exact weights: closed forms, or Fraction elimination
    on generated maps.  The solver's weights, on a generated map or on the
    dendrite, are floats.
    """
    kind = draw(st.sampled_from(["built", "solved", "dendrite"]))
    if kind == "built":
        return draw(built_models()), True
    if kind == "dendrite":
        return dendrite_model(draw(st.sampled_from([4, 8]))), False
    imap = draw(interval_maps())
    kernel = build_backward_kernel(transition_matrix(imap))
    mu = fair_measure_from(solve_stationary(kernel), kernel)
    return lebesgue_fair_model(imap, mu), False


@settings(max_examples=60, deadline=None)
@given(weighed_models())
def test_columns_match_the_piece_loops(case):
    model, exact = case
    assert (model.x.dtype == object) == (model.y.dtype == object) == exact
    assert type(check_lebesgue_fair(model)) is (Fraction if exact else float)
    assert rohlin_entropy(model).hex() == _reference_rohlin(model).hex()
    segments = merged_segments(model)
    assert segments == _reference_segments(model)
    assert {tuple(map(type, seg)) for seg in segments} == {(float, float, int)}


def bernoulli_tent_model():
    """The tent map's model for the weights (1/3, 2/3), not stationary."""
    kernel = build_backward_kernel(full_shift(2))
    pi = StationaryVector(weights={0: F(1, 3), 1: F(2, 3)}, total=F(1),
                          window=2)
    return lebesgue_fair_model(tent_map(), fair_measure_from(pi, kernel))


def floated(model):
    """The model with every coordinate and mass rounded to a float."""
    return replace(model, total=float(model.total),
                   emitted=float(model.emitted), gap=float(model.gap),
                   x=model.x.astype(float), y=model.y.astype(float))


def test_bernoulli_weights_leave_a_hole_and_an_overflow():
    """Weights (1/3, 2/3) on the tent map, which is the full 2-shift.

    Every c_j is 2, so p_ij = w_j / (2 w_i): the pieces out of slot 1
    (length 2/3) have lengths 1/6 and 1/3 and leave a hole of 1/6; those
    out of slot 0 (length 1/3) have the same lengths and overflow it by
    1/6.  Each piece is still half of its target slot, so the defect is
    exactly 1/6, while the shortfalls cancel and the model is not
    truncated.
    """
    model = bernoulli_tent_model()
    assert model.gap == 0 and model.emitted == model.total
    assert check_lebesgue_fair(model) == F(1, 6) == _reference_defect(model)


def test_float_rounding_counts_as_zero_and_a_real_defect_does_not():
    # each rounded coordinate is off by half an ulp of its magnitude,
    # which leaves defects of a few ulps in the staircase
    assert check_lebesgue_fair(floated(staircase_model(8))) == 0.0
    assert check_lebesgue_fair(floated(bernoulli_tent_model())) == \
        pytest.approx(1 / 6, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(interval_maps(), st.data())
def test_generated_maps_round_trip_and_build_fair_models(imap, data):
    doc = json.loads(dump_json(interval_map_to_dict(imap)))
    assert interval_map_from_dict(doc) == imap
    # the float model of the solved weights is fair within rounding
    kernel = build_backward_kernel(transition_matrix(imap))
    k = imap.partition.n_intervals
    mu = fair_measure_from(solve_stationary(kernel), kernel)
    defect = check_lebesgue_fair(lebesgue_fair_model(imap, mu))
    assert isinstance(defect, float) and defect < 1e-12
    # a weight scaled by 3/2 is no longer stationary: some slot's pieces
    # miss its length
    state = data.draw(st.integers(0, k - 1))
    assert check_lebesgue_fair(generated_model(imap, (state, F(3, 2)))) > 0


def test_doctored_models_reach_violations_and_straddles():
    model = tent_model()
    a, b = model.x[0]
    shifted = with_rows(model, "x", {0: (a, b - (b - a) / 7)})
    assert check_lebesgue_fair(shifted) == _reference_defect(shifted)
    assert check_lebesgue_fair(shifted) > 0
    c, d = model.y[0]
    straddling = with_rows(model, "y", {0: (c, d - (d - c) / 3)})
    with pytest.raises(NotMarkov):
        check_lebesgue_fair(straddling)
    # triangle(4) has weights 4, 3, 2, 1 and every piece of length 1; its
    # slots run along rho as 3: (0, 1), 2: (1, 3), 1: (3, 6), 0: (6, 10).
    # Piece 0 is 0 -> 0 on (9, 10) and piece 3 is 0 -> 3 on (6, 7); both
    # lose the top fifth of their rho range.  Each piece defect is 1/5, but
    # slot 0 is left with holes (34/5, 7) and (49/5, 10): 2/5 in all
    model = triangle_model(4)
    shrunk = model
    for k in (0, 3):
        a, b = model.x[k]
        shrunk = with_rows(shrunk, "x", {k: (a, b - (b - a) / 5)})
    assert check_lebesgue_fair(shrunk) == _reference_defect(shrunk)
    assert check_lebesgue_fair(shrunk) == F(2, 5)


def test_a_mixed_slot_on_a_truncation_boundary_is_skipped():
    # the 6-state staircase window is truncated; pieces 13, 18 and 24 all
    # map onto slot 2, rho (1, 2), whose column count is 3
    model = staircase_model(6)
    assert model.dst[[13, 18, 24]].tolist() == [2, 2, 2]
    # piece 24 is 1 -> 2 on (1/2, 5/6); cut to (1/2, 23/30) it is 1/15
    # short of its share 1/3 and leaves a hole of 1/15 before piece 23
    # on (5/6, 23/24), inside slot 1; a flipped orientation changes no
    # length and adds nothing
    a, b = model.x[24]
    mixed = with_rows(with_rows(model, "x", {24: (a, b - (b - a) / 5)}),
                      "increasing", {18: False})
    assert check_lebesgue_fair(mixed) == _reference_defect(mixed)
    assert check_lebesgue_fair(mixed) == F(1, 15)
    # one piece onto the slot claims a fourth preimage: the slot becomes a
    # truncation boundary and its piece defect is not counted, but the
    # hole that piece 24 leaves in slot 1 still is
    for k in (13, 24):
        bumped = with_rows(mixed, "cmag", {k: 4})
        assert check_lebesgue_fair(bumped) == _reference_defect(bumped)
        assert check_lebesgue_fair(bumped) == F(1, 15)
    # piece 20 is 1 -> 6 on (719/720, 5039/5040), the last piece of slot
    # 1 = (0, 1); the truncation hole 1/5040 after it is excused, but an
    # overflow by as much is not
    over = with_rows(model, "x", {20: (model.x[20, 0], 1 + F(1, 5040))})
    assert check_lebesgue_fair(over) == _reference_defect(over)
    assert check_lebesgue_fair(over) == F(1, 5040)
    # slot 6 = (65/24, 163/60) has 6 of its 7 preimages in the window, so
    # the built model skips it; claimed complete, its pieces of length
    # 1/840 miss the share (1/120) / 6 by 1/5040
    complete = replace(model, cmag=np.where(model.dst == 6, 6, model.cmag))
    assert check_lebesgue_fair(model) == 0
    assert check_lebesgue_fair(complete) == F(1, 5040)


# -- finite partition lookups against a linear scan ------------------------------

def _scan_locate(points, x):
    if any(p == x for p in points):
        raise HitsPartitionPoint(x)
    if not points[0] < x < points[-1]:
        raise ValueError(x)
    return next(i for i in range(len(points) - 1)
                if points[i] < x < points[i + 1])


def _scan_covered(points, lo, hi):
    if lo not in list(points) or hi not in list(points):
        raise NotMarkov((lo, hi))
    return list(range(list(points).index(lo), list(points).index(hi)))


@settings(max_examples=300, deadline=None)
@given(st.lists(rationals, min_size=2, max_size=12, unique=True),
       st.data())
def test_finite_partition_lookups_match_a_linear_scan(points, data):
    points = sorted(points)
    part = FinitePartition(tuple(points))
    queries = st.one_of(st.sampled_from(points), rationals,
                        st.integers(-3, 6))
    for _ in range(5):
        x = data.draw(queries)
        assert _outcome(part.locate, x) == _outcome(_scan_locate, points, x)
        lo, hi = data.draw(queries), data.draw(queries)
        assert (_outcome(part.covered, lo, hi)
                == _outcome(_scan_covered, points, lo, hi))
