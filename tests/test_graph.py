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
    model = cut_and_paste(spec)
    for k, a in enumerate(spec.arcs):
        assert model.placements[a] == (F(1, 2 ** (k + 1)), F(1, 2 ** k))
    slots = sorted(model.placements.values())
    assert all(lo_hi[1] == nxt[0] for lo_hi, nxt in zip(slots, slots[1:]))


def test_refined_state_enumeration_is_spatial():
    spec = exchange_spec()
    model = cut_and_paste(spec)
    # arc 2 sits on (1/4, 1/2), left of arc 1 on (1/2, 1)
    assert model.pair_of[0] == (2, 0)
    assert model.pair_of[1] == (1, 0)
    lo0, _ = model.interval_map.partition.bounds(0)
    lo1, _ = model.interval_map.partition.bounds(1)
    assert lo0 < lo1


def test_legs_split_a_slot_evenly():
    spec = TameGraphMapSpec(arcs=(1,), covers={1: ((1, True), (1, False))},
                            name="fold")
    model = cut_and_paste(spec)
    part = model.interval_map.partition
    assert part.points == (F(1, 2), F(3, 4), F(1))
    b0, b1 = model.interval_map.branch(0), model.interval_map.branch(1)
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
        compiled = transition_matrix(cut_and_paste(spec).interval_map)
        n = sum(len(spec.covers[a]) for a in spec.arcs)
        assert len(refined.states(10 ** 6)) == n
        assert entries_equal(refined, compiled, 10 ** 6), spec.name


def test_refined_matrix_matches_interval_matrix_on_dendrites():
    for window in (2, 3, 4, 6):
        spec = dendrite_example(window)
        refined = refined_transition_matrix(spec)
        compiled = transition_matrix(cut_and_paste(spec).interval_map)
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
    imap = cut_and_paste(spec).interval_map
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


def test_dendrite_refined_chain_has_boundary_states():
    """Truncating the blade family leaves last-generation states with no
    predecessors, so the refined chain is reducible by construction; the
    fair analysis must run per closed class."""
    m = refined_transition_matrix(dendrite_example(4))
    ok, _ = check_irreducible(m, 10 ** 6)
    assert not ok
    orphans = [j for j in m.states(10 ** 6) if m.column_count(j) == 0]
    assert orphans


# -- the float fair model of the dendrite ------------------------------------------

def dendrite_fair_model(window):
    """The float Lebesgue fair model that ``graph`` builds for the dendrite."""
    spec = dendrite_example(window)
    m = refined_transition_matrix(spec)
    kernel = build_backward_kernel(m)
    pi = solve_stationary(kernel)
    bound = max(abs(s) for s in m.states(10 ** 9))
    mu = fair_measure_from(pi, kernel, window=pi.window or bound)
    return lebesgue_fair_model(cut_and_paste(spec).interval_map, mu)


def test_float_check_gives_one_value_at_every_depth():
    model = dendrite_fair_model(4)
    assert isinstance(model.pieces[0].xr[0], float)
    values = {check_lebesgue_fair(model, depth) for depth in (1, 2, 3)}
    assert len(values) == 1 and values.pop() < 1e-12
    # one piece's x end moved by a seventh of its length changes its slope
    pieces = list(model.pieces)
    a, b = pieces[100].xr
    pieces[100] = replace(pieces[100], xr=(a, b - (b - a) / 7))
    doctored = replace(model, pieces=tuple(pieces))
    values = {check_lebesgue_fair(doctored, depth) for depth in (1, 2, 3)}
    assert len(values) == 1 and values.pop() > 1e-6


def test_float_model_reports_the_dendrite_truncation():
    # the w12 window drops 1/1410566456 of the mass, far below 1e-9 of it
    # but far above the rounding of any slot's sum
    model = dendrite_fair_model(12)
    assert float(model.gap) / float(model.total) == pytest.approx(
        1 / 1410566456, rel=1e-6)
    # the truncation is excused, and the slots and the pieces' x-ranges
    # are laid out from one running sum, so no rounding is left either
    assert check_lebesgue_fair(model) == 0.0


@pytest.mark.parametrize("window", [8, 16])
def test_float_dendrite_models_check_exactly_fair(window):
    assert check_lebesgue_fair(dendrite_fair_model(window)) == 0.0
