"""Graph self-maps: dyadic placement, refinement, and the two pipelines."""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings

from fairshift import (
    NotMarkov, TameGraphMapSpec, build_backward_kernel, check_irreducible,
    check_lebesgue_fair, cut_and_paste, dendrite_example, fair_measure_from,
    full_shift, lebesgue_fair_model, refined_transition_matrix,
    solve_stationary, transition_matrix,
)
from fairshift import graph
from fairshift.chain import _ENUM_LIMIT
from test_measure import graph_specs

F = Fraction


def entries_equal(a, b, window):
    sa, sb = a.states(window), b.states(window)
    if set(sa) != set(sb):
        return False
    return all(a.entry(i, j) == b.entry(i, j) for i in sa for j in sa)


def exchange_spec():
    return TameGraphMapSpec(arcs=(1, 2),
                            covers={1: ((2, True),), 2: ((1, True),)},
                            name="exchange")


# -- spec validation -----------------------------------------------------------

def test_spec_rejects_malformed_graphs():
    with pytest.raises(NotMarkov):
        TameGraphMapSpec(arcs=(), covers={})
    with pytest.raises(NotMarkov):
        TameGraphMapSpec(arcs=(1, 1), covers={1: ((1, True),)})
    with pytest.raises(NotMarkov):
        TameGraphMapSpec(arcs=(1,), covers={1: ((2, True),)})
    with pytest.raises(NotMarkov):
        TameGraphMapSpec(arcs=(1, 2), covers={1: ((2, True),), 2: ()})


def test_spec_rejects_covers_of_an_arc_it_does_not_list():
    # arc 7 would be dropped by every layer that walks ``arcs``
    with pytest.raises(NotMarkov, match="arc 7"):
        TameGraphMapSpec(arcs=(1, 2), covers={
            1: ((2, True), (1, False)), 2: ((1, True),), 7: ((1, True),)})


# -- placement geometry ----------------------------------------------------------

def test_arcs_are_placed_on_disjoint_dyadic_slots():
    spec = dendrite_example(4)
    part = cut_and_paste(spec).partition
    # an arc's slot runs from the left end of its first leg's interval to
    # the right end of its last one's
    slots = {}
    for sid, (a, _t) in enumerate(spec.refined_states()):
        lo, hi = part.bounds(sid)
        slots[a] = (slots[a][0] if a in slots else lo, hi)
    for k, a in enumerate(spec.arcs):
        assert slots[a] == (F(1, 2 ** (k + 1)), F(1, 2 ** k))
    spans = sorted(slots.values())
    assert all(lo_hi[1] == nxt[0] for lo_hi, nxt in zip(spans, spans[1:]))


def test_refined_state_enumeration_is_spatial():
    spec = exchange_spec()
    imap = cut_and_paste(spec)
    # arc 2 sits on (1/4, 1/2), left of arc 1 on (1/2, 1)
    assert spec.refined_states() == [(2, 0), (1, 0)]
    assert imap.partition.bounds(0) == (F(1, 4), F(1, 2))
    assert imap.partition.bounds(1) == (F(1, 2), F(1))


def test_legs_split_a_slot_evenly():
    spec = TameGraphMapSpec(arcs=(1,), covers={1: ((1, True), (1, False))},
                            name="fold")
    imap = cut_and_paste(spec)
    assert imap.partition.points == (F(1, 2), F(3, 4), F(1))
    b0, b1 = imap.branch(0), imap.branch(1)
    assert (b0.img_lo, b0.img_hi) == (F(1, 2), F(1))
    assert b0.increasing and not b1.increasing


# -- the two compilation routes agree ----------------------------------------------

def test_refined_matrix_matches_interval_matrix_on_small_graphs():
    specs = [
        exchange_spec(),
        TameGraphMapSpec(arcs=(1,), covers={1: ((1, True), (1, False))},
                         name="fold"),
        TameGraphMapSpec(arcs=(1,), covers={1: ((1, True), (1, True))},
                         name="double"),
        TameGraphMapSpec(arcs=(1, 2),
                         covers={1: ((2, True), (2, False)),
                                 2: ((1, True), (2, True))},
                         name="mixed"),
    ]
    for spec in specs:
        refined = refined_transition_matrix(spec)
        compiled = transition_matrix(cut_and_paste(spec))
        n = sum(len(spec.covers[a]) for a in spec.arcs)
        assert len(refined.states(10 ** 6)) == n
        assert entries_equal(refined, compiled, 10 ** 6), spec.name


def test_refined_matrix_matches_interval_matrix_on_dendrites():
    for window in (2, 3, 4, 6):
        spec = dendrite_example(window)
        refined = refined_transition_matrix(spec)
        compiled = transition_matrix(cut_and_paste(spec))
        assert entries_equal(refined, compiled, 10 ** 6), window


# -- one row per target ------------------------------------------------------------

def successors_from_covers(spec):
    """Successors of each refined state, read straight off ``spec.covers``."""
    order = spec.refined_states()
    sid = {pair: k for k, pair in enumerate(order)}
    out = []
    for a, t in order:
        target = spec.covers[a][t][0]
        out.append(sorted(sid[(target, s)]
                          for s in range(len(spec.covers[target]))))
    return out


def assert_rows_are_shared(spec):
    imap = cut_and_paste(spec)
    targets = {spec.covers[a][t][0] for a, t in spec.refined_states()}
    images = {(br.img_lo, br.img_hi) for br in imap.table.values()}
    want = successors_from_covers(spec)
    for m, distinct in ((refined_transition_matrix(spec), targets),
                        (transition_matrix(imap), images)):
        assert len({id(row) for row in m.explicit.values()}) == len(distinct)
        for i, succ in enumerate(want):
            assert m.successors(i) == succ
            assert m.successors(i, within=len(want)) == succ
            assert m.successors(i, within=1) == [j for j in succ if j <= 1]


def test_dendrite_rows_are_built_once_per_target():
    for window in (4, 8):
        assert_rows_are_shared(dendrite_example(window))


@settings(max_examples=200, deadline=None)
@given(graph_specs())
def test_generated_graph_rows_are_built_once_per_target(spec):
    assert_rows_are_shared(spec)


# -- structure of the refined chains ------------------------------------------------

def test_folded_arc_refines_to_the_full_two_shift():
    spec = TameGraphMapSpec(arcs=(1,), covers={1: ((1, True), (1, False))},
                            name="fold")
    assert entries_equal(refined_transition_matrix(spec), full_shift(2), 9)


def test_exchange_refines_to_a_two_cycle():
    m = refined_transition_matrix(exchange_spec())
    assert m.successors(0) == [1]
    assert m.successors(1) == [0]
    ok, _ = check_irreducible(m, 4)
    assert ok


def test_dendrite_refinement_grows_with_the_window():
    sizes = []
    for window in (2, 4, 6):
        spec = dendrite_example(window)
        sizes.append(len(spec.refined_states()))
        assert all(len(spec.covers[a]) >= 1 for a in spec.arcs)
    assert sizes[0] < sizes[1] < sizes[2]


def test_the_dendrite_window_is_bounded_by_its_refined_states():
    # the count read off the window is the one the built spec has
    for window in range(1, 17):
        assert graph._refined_count(window) == \
            len(dendrite_example(window).refined_states())
    # 141 is the largest window within the enumeration bound, so 142 is
    # refused before any arc is built
    assert graph._refined_count(141) == 1_989_408 <= _ENUM_LIMIT
    assert graph._refined_count(142) == 2_031_160 > _ENUM_LIMIT
    with pytest.raises(ValueError, match="takes a window <= 141,"):
        dendrite_example(142)
    with pytest.raises(ValueError, match="window must be >= 1"):
        dendrite_example(0)


def test_dendrite_refined_chain_has_boundary_states():
    """Truncating the blade family leaves last-generation states with no
    predecessors, so the refined chain is reducible by construction; the
    fair analysis must run per closed class."""
    m = refined_transition_matrix(dendrite_example(4))
    ok, _ = check_irreducible(m, 10 ** 6)
    assert not ok
    orphans = [j for j in m.states(10 ** 6) if not m.predecessors(j)]
    assert orphans


# -- the float fair model of the dendrite ------------------------------------------

def dendrite_fair_model(window):
    """The float Lebesgue fair model that ``graph`` builds for the dendrite."""
    spec = dendrite_example(window)
    m = refined_transition_matrix(spec)
    kernel = build_backward_kernel(m)
    pi = solve_stationary(kernel)
    mu = fair_measure_from(pi, kernel)
    return lebesgue_fair_model(cut_and_paste(spec), mu)


def test_float_check_passes_the_model_and_catches_a_moved_piece():
    model = dendrite_fair_model(4)
    assert model.x.dtype == float
    assert check_lebesgue_fair(model) < 1e-12
    # one piece's x end moved by a seventh of its length changes its slope
    x = model.x.copy()
    a, b = x[100]
    x[100, 1] = b - (b - a) / 7
    doctored = replace(model, x=x)
    assert check_lebesgue_fair(doctored) > 1e-6


def test_float_model_reports_the_dendrite_truncation():
    # the w12 window drops 1/1410566456 of the mass, far below 1e-9 of it
    # but far above the rounding of any slot's sum
    model = dendrite_fair_model(12)
    assert float(model.gap) / float(model.total) == pytest.approx(
        1 / 1410566456, rel=1e-6)
    # the truncation is excused, and the slots and the pieces' x-ranges
    # are laid out from one running sum, so no rounding is left either
    assert check_lebesgue_fair(model) == 0.0


def test_float_slot_sums_that_miss_by_rounding_lose_no_mass():
    # a four-arc graph map whose solved float weights leave its slots'
    # running sums 1e-17 off their weights: rounding, so no gap
    spec = TameGraphMapSpec((1, 2, 3, 4), {
        1: ((3, True),), 2: ((1, False),),
        3: ((2, False), (1, False), (4, False), (2, True)),
        4: ((4, False), (1, True))}, name="four-arcs")
    kernel = build_backward_kernel(refined_transition_matrix(spec))
    mu = fair_measure_from(solve_stationary(kernel), kernel)
    model = lebesgue_fair_model(cut_and_paste(spec), mu)
    assert model.x.dtype == float
    assert model.gap == 0.0


@pytest.mark.parametrize("window", [8, 16])
def test_float_dendrite_models_check_exactly_fair(window):
    assert check_lebesgue_fair(dendrite_fair_model(window)) == 0.0
