"""Interval maps: compilation to rule sets, symbolic dynamics, fair models."""

import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fairshift import (
    Branch, FinitePartition, GeometricPartition, HitsPartitionPoint,
    InadmissibleWord, IntegerPartition, MarkovIntervalMap, NotMarkov, Piece,
    PiecewiseAffineMap, StationaryVector, build_backward_kernel,
    check_lebesgue_fair,
    cylinder_interval, factorial_chain, factorial_stationary,
    fair_measure_from, five_three_chain, five_three_map, full_shift,
    full_shift_stationary, itinerary, lebesgue_fair_model, merged_segments,
    point_from_itinerary, rohlin_entropy, staircase_map, tent_map,
    transition_matrix,
)

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


def test_staircase_compiles_to_the_factorial_chain():
    m = transition_matrix(staircase_map())
    assert entries_equal(m, factorial_chain(), 9)
    for j in range(1, 9):
        assert m.column_count(j) == j + 1


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

def tent_model():
    m = full_shift(2)
    kernel = build_backward_kernel(m)
    mu = fair_measure_from(full_shift_stationary(2), kernel, 2)
    return lebesgue_fair_model(tent_map(), mu)


def staircase_model(window=30, ratio=F(1, 2)):
    m = factorial_chain()
    kernel = build_backward_kernel(m)
    mu = fair_measure_from(factorial_stationary(window), kernel, window)
    return lebesgue_fair_model(staircase_map(ratio), mu, window=window)


def test_tent_model_reproduces_the_tent_map():
    model = tent_model()
    assert model.piece_count() == 4
    assert check_lebesgue_fair(model, depth=3) == 0
    assert merged_segments(model) == [(0.0, 0.5, 2), (0.5, 1.0, -2)]
    assert rohlin_entropy(model) == pytest.approx(math.log(2), abs=1e-12)


def test_staircase_model_slopes_are_column_counts():
    model = staircase_model()
    assert model.piece_count() > 100
    for p in model.pieces:
        assert p.cmag == p.dst + 1
    assert min(p.cmag for p in model.pieces) == 2
    # x-pieces within one source interval are ordered left to right and
    # map onto whole slots
    assert all(p.yr == model.slot_of(p.dst) for p in model.pieces)


def test_staircase_model_is_exactly_fair():
    model = staircase_model()
    # the 30-state window leaves only the mass of the factorial tail
    # unplaced, far below any float resolution
    assert 0 <= model.gap < F(1, 10 ** 30)
    assert check_lebesgue_fair(model, depth=2) == 0


def test_staircase_model_entropy_matches_the_chain():
    model = staircase_model()
    assert abs(rohlin_entropy(model) - FACTORIAL_ENTROPY) < 1e-3


def test_unequal_branch_split_breaks_fairness():
    """Three full branches with Lebesgue sizes (1/2, 1/3, 1/6).

    Worst cell at depth 1 is the widest sub-piece of the widest branch
    (length 1/4); its pullbacks get lengths 1/4 * len_i instead of the
    fair 1/12, so the violation is 1/4 * |1/2 - 1/3| = 1/24.
    """
    slots = [(F(0), F(1, 2)), (F(1, 2), F(5, 6)), (F(5, 6), F(1))]

    def rho(a, b):
        return (1 - b, 1 - a)

    pieces = []
    for i, (ilo, ihi) in enumerate(slots):
        width = ihi - ilo
        for j, (jlo, jhi) in enumerate(slots):
            a = ilo + width * jlo
            b = ilo + width * jhi
            pieces.append(Piece(src=i, dst=j, xr=rho(a, b),
                                yr=rho(*slots[j]), increasing=True, cmag=3))
    pieces.sort(key=lambda p: p.xr[0], reverse=True)
    model = PiecewiseAffineMap(tuple(pieces), total=F(1), emitted=F(1),
                               gap=F(0), name="skew")
    assert check_lebesgue_fair(model, depth=1) == F(1, 24)
    assert check_lebesgue_fair(model, depth=2) == F(1, 24)

    # the balanced variant of the same construction is exactly fair
    slots = [(F(0), F(1, 3)), (F(1, 3), F(2, 3)), (F(2, 3), F(1))]
    pieces = []
    for i, (ilo, ihi) in enumerate(slots):
        for j, (jlo, jhi) in enumerate(slots):
            a = ilo + (ihi - ilo) * jlo
            b = ilo + (ihi - ilo) * jhi
            pieces.append(Piece(src=i, dst=j, xr=rho(a, b),
                                yr=rho(*slots[j]), increasing=True, cmag=3))
    pieces.sort(key=lambda p: p.xr[0], reverse=True)
    balanced = PiecewiseAffineMap(tuple(pieces), total=F(1), emitted=F(1),
                                  gap=F(0), name="thirds")
    assert check_lebesgue_fair(balanced, depth=2) == 0
    assert rohlin_entropy(balanced) == pytest.approx(math.log(3), abs=1e-12)


def test_five_three_map_has_no_summable_fair_model_input():
    # the compiled chain is the five-three chain, for which the solver
    # refuses; there is nothing to feed lebesgue_fair_model with
    from fairshift import NoSummableSolution, solve_stationary
    out = solve_stationary(build_backward_kernel(transition_matrix(five_three_map())))
    assert isinstance(out, NoSummableSolution)


# -- the integer fairness check against a Fraction reference ----------------

def _reference_violation(model, depth):
    """check_lebesgue_fair walked in plain Fraction arithmetic."""
    by_dst = {}
    for p in model.pieces:
        by_dst.setdefault(p.dst, []).append(p)
    truncated = model.gap != 0 or model.emitted != model.total
    worst = F(0)
    frontier = [(F(p.xr[0]), F(p.xr[1]), p.src) for p in model.pieces]
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
    return lebesgue_fair_model(imap, fair_measure_from(pi, kernel, n))


@st.composite
def built_models(draw):
    kind = draw(st.sampled_from(["tent", "staircase", "triangle"]))
    if kind == "tent":
        return tent_model()
    if kind == "triangle":
        return triangle_model(draw(st.integers(2, 6)))
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
    pieces = list(model.pieces)
    for k in draw(st.lists(st.integers(0, len(pieces) - 1), min_size=1,
                           max_size=6)):
        p = pieces[k]
        # x ends give violations, y ends mostly straddles
        which = draw(st.sampled_from(["xr", "xr", "yr", "increasing",
                                      "cmag"]))
        if which == "increasing":
            pieces[k] = replace(p, increasing=not p.increasing)
            continue
        if which == "cmag":
            pieces[k] = replace(p, cmag=p.cmag + draw(st.sampled_from([-1, 1])))
            continue
        lo, hi = getattr(p, which)
        span = hi - lo
        # each end moves by under a third of the span: the piece stays
        # nonempty
        lo += span * F(draw(st.integers(-5, 5)), draw(st.integers(16, 40)))
        hi += span * F(draw(st.integers(-5, 5)), draw(st.integers(16, 40)))
        pieces[k] = replace(p, **{which: (lo, hi)})
    return replace(model, pieces=tuple(pieces))


@settings(max_examples=60, deadline=None)
@given(built_models(), st.integers(1, 3))
def test_integer_check_matches_fraction_reference_on_built_models(model,
                                                                  depth):
    got = check_lebesgue_fair(model, depth)
    assert isinstance(got, Fraction)
    assert got == _reference_violation(model, depth) == 0


@settings(max_examples=150, deadline=None)
@given(doctored_models(), st.integers(1, 3))
def test_integer_check_matches_fraction_reference_on_doctored_models(model,
                                                                     depth):
    want = _outcome(_reference_violation, model, depth)
    got = _outcome(check_lebesgue_fair, model, depth)
    assert got == want
    if got is not NotMarkov:
        assert isinstance(got, Fraction)


def test_doctored_models_reach_violations_and_straddles():
    model = tent_model()
    p = model.pieces[0]
    a, b = p.xr
    shifted = replace(model, pieces=(replace(p, xr=(a, b - (b - a) / 7)),
                                     *model.pieces[1:]))
    assert check_lebesgue_fair(shifted, 2) == _reference_violation(shifted, 2)
    assert check_lebesgue_fair(shifted, 2) > 0
    c, d = p.yr
    straddling = replace(model, pieces=(replace(p, yr=(c, d - (d - c) / 3)),
                                        *model.pieces[1:]))
    with pytest.raises(NotMarkov):
        check_lebesgue_fair(straddling, 2)
    # shrunk pieces into slots with covering counts 4 and 1: the worst
    # violation is the one over c(B) = 1, though its numerator is smaller
    model = triangle_model(4)
    pieces = list(model.pieces)
    for k in (0, 3):
        a, b = pieces[k].xr
        pieces[k] = replace(pieces[k], xr=(a, b - (b - a) / 5))
    shrunk = replace(model, pieces=tuple(pieces))
    assert check_lebesgue_fair(shrunk, 2) == _reference_violation(shrunk, 2)
    assert check_lebesgue_fair(shrunk, 2) == F(1, 5)


def test_a_mixed_slot_on_a_truncation_boundary_is_skipped():
    # the 6-state staircase window is truncated; pieces 13, 18 and 24 all
    # map onto slot 2, whose column count is 3
    model = staircase_model(6)
    pieces = list(model.pieces)
    assert [pieces[k].dst for k in (13, 18, 24)] == [2, 2, 2]
    a, b = pieces[24].xr
    pieces[24] = replace(pieces[24], xr=(a, b - (b - a) / 5))
    pieces[18] = replace(pieces[18], increasing=False)
    mixed = replace(model, pieces=tuple(pieces))
    assert check_lebesgue_fair(mixed, 2) == _reference_violation(mixed, 2)
    assert check_lebesgue_fair(mixed, 2) == F(1, 30)
    # one piece onto the slot claims a fourth preimage: every cell of the
    # slot becomes a boundary cell and its violation is not counted,
    # whether the claim sits in the group of 13 and the flipped 18 or
    # with 24, whose new slope puts it in a group of its own
    for k in (13, 24):
        bumped = list(pieces)
        bumped[k] = replace(pieces[k], cmag=4)
        bumped = replace(model, pieces=tuple(bumped))
        assert check_lebesgue_fair(bumped, 2) == _reference_violation(bumped, 2)
        assert check_lebesgue_fair(bumped, 2) == 0


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


rationals = st.builds(F, st.integers(-3, 40), st.integers(1, 8))


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


@pytest.mark.parametrize("depth", [0, -1])
def test_a_check_of_no_cells_is_refused(depth):
    # depth 0 walks no cell, so its 0 would certify nothing
    with pytest.raises(ValueError, match="depth must be at least 1"):
        check_lebesgue_fair(tent_model(), depth)
