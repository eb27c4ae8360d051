"""Rule resolution, row/column queries and the backward kernel."""

import math
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fairshift import (
    Abs, AbsRay, InfinitePreimages, Rel, RelRay, SchemaError,
    TransitionRuleSet, biased_walk, build_backward_kernel, chain_by_name,
    check_irreducible, factorial_chain, five_three_chain, full_shift,
    origin_broadcast, staircase_map, strongly_connected_components,
    tent_map, transition_matrix, unbiased_walk,
)

ALL_FAMILIES = [unbiased_walk(), biased_walk(), origin_broadcast(),
                factorial_chain(), five_three_chain(), full_shift(3)]


# -- row resolution --------------------------------------------------------

def test_unbiased_walk_rows():
    m = unbiased_walk()
    assert m.successors(0) == [-1, 1]
    assert m.successors(7) == [6, 8]
    assert m.successors(-3) == [-4, -2]
    assert m.entry(0, 1) == 1
    assert m.entry(0, 0) == 0
    assert m.entry(0, 2) == 0


def test_biased_walk_rows():
    m = biased_walk()
    assert m.successors(0) == [-1, 2]
    assert m.successors(5) == [4, 7]


def test_origin_broadcast_rows():
    # row 0 is a ray hitting every state; other rows step down by one
    m = origin_broadcast()
    assert m.successors(0, within=5) == [0, 1, 2, 3, 4, 5]
    assert m.successors(3) == [2]
    assert m.entry(0, 41) == 1
    assert m.entry(2, 1) == 1
    assert m.entry(2, 3) == 0
    with pytest.raises(SchemaError):
        m.successors(0)          # unbounded row needs a clip


def test_factorial_chain_rows():
    m = factorial_chain()
    # state i reaches every j >= i-1 (clamped to the domain floor 1)
    assert m.successors(1, within=6) == [1, 2, 3, 4, 5, 6]
    assert m.successors(2, within=6) == [1, 2, 3, 4, 5, 6]
    assert m.successors(5, within=8) == [4, 5, 6, 7, 8]
    assert m.entry(5, 3) == 0
    assert m.entry(5, 4) == 1


def test_five_three_rows_depend_on_parity():
    m = five_three_chain()
    assert m.successors(0) == [-2, -1, 0, 1, 2]
    assert m.successors(4) == [2, 3, 4, 5, 6]
    assert m.successors(1) == [0, 1, 2]
    assert m.successors(-3) == [-4, -3, -2]


def test_full_shift_rows_full():
    m = full_shift(3)
    assert m.states(10) == [0, 1, 2]
    for i in range(3):
        assert m.successors(i) == [0, 1, 2]
    assert m.rows_full()
    assert not unbiased_walk().rows_full()


# -- columns ---------------------------------------------------------------

def test_predecessors_and_counts():
    assert unbiased_walk().predecessors(0) == [-1, 1]
    assert biased_walk().predecessors(0) == [-2, 1]
    assert origin_broadcast().predecessors(0) == [0, 1]
    assert origin_broadcast().predecessors(7) == [0, 8]
    assert factorial_chain().predecessors(1) == [1, 2]
    assert factorial_chain().predecessors(4) == [1, 2, 3, 4, 5]
    assert factorial_chain().column_count(4) == 5
    assert five_three_chain().column_count(0) == 5
    assert five_three_chain().column_count(1) == 3
    assert full_shift(4).column_count(2) == 4


def test_successor_predecessor_duality():
    for m in ALL_FAMILIES:
        for i in m.states(6):
            for j in m.states(6):
                forward = m.entry(i, j) == 1
                assert forward == (i in m.predecessors(j))
                assert forward == (j in m.successors(i, within=8))


def test_divergent_column_detection():
    everything_to_zero = TransitionRuleSet(
        lo=0, head=1, explicit={0: (Abs(0), Abs(1))},
        tail={0: (Abs(0),)}, name="collapse")
    assert everything_to_zero.divergent_witness() == 0
    assert everything_to_zero.column_count(0) is math.inf
    with pytest.raises(InfinitePreimages):
        everything_to_zero.predecessors(0)
    for m in ALL_FAMILIES:
        assert m.divergent_witness() is None


# -- schema validation -----------------------------------------------------

def test_schema_rejects_bad_rule_sets():
    with pytest.raises(SchemaError):
        TransitionRuleSet(period=0, tail={0: (Rel(1),)})
    with pytest.raises(SchemaError):
        TransitionRuleSet(lo=3, hi=1, head=0, tail={0: (Rel(0),)})
    with pytest.raises(SchemaError):
        # head covers state 0 but no explicit row is given
        TransitionRuleSet(lo=0, head=1, tail={0: (Rel(-1),)})
    with pytest.raises(SchemaError):
        # explicit row outside the domain
        TransitionRuleSet(lo=0, head=1,
                          explicit={0: (Rel(1),), 5: (Rel(1),)},
                          hi=3, tail={0: (Rel(-1),)})
    with pytest.raises(SchemaError):
        # empty row: the only term leaves the domain
        TransitionRuleSet(lo=0, hi=0, head=1, explicit={0: (Rel(1),)})


def test_domain_and_spiral():
    m = origin_broadcast()
    assert m.contains(0) and m.contains(10) and not m.contains(-1)
    assert m.spiral(4) == [0, 1, 2, 3]
    assert unbiased_walk().spiral(5) == [0, 1, -1, 2, -2]
    assert factorial_chain().spiral(3) == [1, 2, 3]
    assert not unbiased_walk().domain_finite()
    assert full_shift(2).domain_finite()


def test_states_support_is_window_monotone():
    for m in ALL_FAMILIES:
        small = set(m.states(4))
        for w in (5, 9, 16):
            big = set(m.states(w))
            assert small <= big
            assert all(abs(s) <= w and m.contains(s) for s in big)
            small = big


# -- backward kernel ---------------------------------------------------------

def test_kernel_rows_are_exact_probabilities():
    for m in ALL_FAMILIES:
        q = build_backward_kernel(m)
        for j in m.states(9):
            row = q.row(j)
            states = [i for i, _ in row]
            assert states == m.predecessors(j)
            total = sum(p for _, p in row)
            assert total == Fraction(1)
            assert all(p == Fraction(1, len(row)) for _, p in row)


def test_kernel_row_of_orphan_column_is_empty():
    m = TransitionRuleSet(lo=0, hi=1, head=2,
                          explicit={0: (Abs(1),), 1: (Abs(1),)},
                          name="orphan")
    q = build_backward_kernel(m)
    assert q.row(0) == []
    assert [i for i, _ in q.row(1)] == [0, 1]


def test_kernel_offsets():
    assert build_backward_kernel(unbiased_walk()).step_offsets() == (-1, 1)
    assert build_backward_kernel(biased_walk()).step_offsets() == (-2, 1)
    assert build_backward_kernel(origin_broadcast()).step_offsets() is None
    # five-three has two offset laws, by parity; its columns carry them
    k = build_backward_kernel(five_three_chain())
    assert k.step_offsets() is None
    for j in (0, 2, -4, 1, 3, -5):
        offs = (-2, -1, 0, 1, 2) if j % 2 == 0 else (-1, 0, 1)
        assert k.preds(j) == tuple(j + o for o in offs)


def test_kernel_preds_are_the_memoised_columns():
    for m in ALL_FAMILIES:
        k = build_backward_kernel(m)
        for j in m.states(6):
            assert k.preds(j) == tuple(m.predecessors(j))
            assert k.preds(j) is k.preds(j)
            assert k.row(j) == [(i, Fraction(1, len(k.preds(j))))
                                for i in k.preds(j)]


# -- irreducibility ----------------------------------------------------------

def test_irreducibility_on_windows():
    for m in ALL_FAMILIES:
        ok, pair = check_irreducible(m, 5)
        assert ok and pair is None
        ok, _ = check_irreducible(m, 7)
        assert ok


def test_reducible_pair_is_reported():
    m = TransitionRuleSet(lo=0, hi=1, head=2,
                          explicit={0: (Abs(1),), 1: (Abs(1),)},
                          name="orphan")
    ok, pair = check_irreducible(m, 5)
    assert not ok
    assert pair is not None and 0 in pair


def test_chain_by_name_full_shift_parsing():
    m = chain_by_name("full-shift-5")
    assert m.states(99) == [0, 1, 2, 3, 4]
    with pytest.raises(KeyError):
        chain_by_name("no-such-chain")


def test_same_matrix_compares_rules_not_names():
    staircase = transition_matrix(staircase_map())
    assert staircase.head != factorial_chain().head
    assert staircase.same_matrix(factorial_chain())
    assert transition_matrix(staircase_map(Fraction(1, 3))).same_matrix(
        factorial_chain())
    assert transition_matrix(tent_map()).same_matrix(full_shift(2))
    assert not origin_broadcast().same_matrix(factorial_chain())
    assert not full_shift(2).same_matrix(full_shift(3))
    # a finite row is not a ray, however far it reaches
    long_row = TransitionRuleSet(lo=1, head=3, explicit={
        1: (AbsRay(1),), 2: tuple(Abs(j) for j in range(1, 40))},
        tail={0: (RelRay(-1),)})
    assert not long_row.same_matrix(factorial_chain())


# -- irreducibility against a breadth-first reference -------------------------

def _reach(start, adj):
    seen = {start}
    todo = deque([start])
    while todo:
        for v in adj[todo.popleft()]:
            if v not in seen:
                seen.add(v)
                todo.append(v)
    return seen


def _bfs_disconnected_pair(states, succ):
    """(root, least unreached) else (least non-reaching, root) else None."""
    pred = {i: [] for i in states}
    for i, js in succ.items():
        for j in js:
            pred[j].append(i)
    root = states[0]
    for adj, flip in ((succ, False), (pred, True)):
        seen = _reach(root, adj)
        if len(seen) != len(states):
            missing = min(s for s in states if s not in seen)
            return (missing, root) if flip else (root, missing)
    return None


@st.composite
def finite_chains(draw):
    n = draw(st.integers(1, 9))
    lo = draw(st.integers(-5, 5))
    rows = draw(st.lists(st.sets(st.integers(lo, lo + n - 1), min_size=1),
                         min_size=n, max_size=n))
    head = max(abs(lo), abs(lo + n - 1)) + 1
    m = TransitionRuleSet(lo=lo, hi=lo + n - 1, head=head, explicit={
        lo + k: tuple(Abs(j) for j in sorted(r)) for k, r in enumerate(rows)})
    nearest = 0 if lo <= 0 <= lo + n - 1 else min(abs(lo), abs(lo + n - 1))
    return m, draw(st.integers(nearest, head))


@settings(max_examples=400, deadline=None)
@given(finite_chains())
def test_irreducibility_matches_breadth_first_reference(chain_and_window):
    m, window = chain_and_window
    states = m.states(window)
    succ = {i: [j for j in m.successors(i) if j in states] for i in states}
    pair = _bfs_disconnected_pair(states, succ)
    assert check_irreducible(m, window) == (pair is None, pair)
    reach = {i: _reach(i, succ) for i in states}
    if pair is not None:
        a, b = pair
        assert b not in reach[a]
    sccs = strongly_connected_components(states, succ)
    assert sorted(s for comp in sccs for s in comp) == states
    comp_of = {s: k for k, comp in enumerate(sccs) for s in comp}
    for a in states:
        for b in states:
            mutual = b in reach[a] and a in reach[b]
            assert mutual == (comp_of[a] == comp_of[b])


@settings(max_examples=200, deadline=None)
@given(finite_chains())
def test_kernel_preds_match_the_rule_set(chain_and_window):
    m, _ = chain_and_window
    k = build_backward_kernel(m)
    for j in m.states(max(abs(m.lo), abs(m.hi))):
        assert k.preds(j) == tuple(m.predecessors(j))
