"""Rule resolution, row/column queries and the backward kernel."""

import json
import signal
import time
from collections import deque
from fractions import Fraction
from functools import cached_property

import pytest
from hypothesis import given, settings, strategies as st

from fairshift import (
    Abs, AbsRay, InfinitePreimages, Rel, RelRay, SchemaError,
    TransitionRuleSet, biased_walk, build_backward_kernel, chain_by_name,
    check_irreducible, factorial_chain, five_three_chain, full_shift,
    origin_broadcast, staircase_map, strongly_connected_components,
    tent_map, transition_matrix, unbiased_walk,
)
from fairshift import families
from fairshift.chain import _ENUM_LIMIT, Term
from fairshift.io import (SCHEMA_VERSION, _tail_rule_to_json, chain_from_dict,
                          chain_to_dict)

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
    assert len(five_three_chain().predecessors(0)) == 5
    assert len(five_three_chain().predecessors(1)) == 3
    assert full_shift(4).predecessors(2) == [0, 1, 2, 3]


def test_successor_predecessor_duality():
    for m in ALL_FAMILIES:
        for i in m.states(6):
            for j in m.states(6):
                forward = m.entry(i, j) == 1
                assert forward == (i in m.predecessors(j))
                assert forward == (j in m.successors(i, within=8))


# -- shared rows and the successor memo ------------------------------------

def test_a_shared_relative_row_gives_each_state_its_own_successors():
    row = (Rel(-1), Abs(2), Rel(1))
    m = TransitionRuleSet(lo=0, hi=4, head=5, explicit={i: row for i in range(5)})
    for _ in range(2):
        for i in range(5):
            want = sorted({j for j in (i - 1, 2, i + 1) if 0 <= j <= 4})
            assert m.successors(i) == want
            assert m.successors(i, within=3) == [j for j in want if j <= 3]


def test_successor_lists_can_be_mutated_by_the_caller():
    row = (Abs(0), Abs(2))
    m = TransitionRuleSet(lo=0, hi=2, head=3, explicit={i: row for i in range(3)})
    out = m.successors(0)
    assert out == [0, 2]
    out.append(1)
    out.remove(0)
    assert m.successors(0) == [0, 2]
    assert m.successors(1) == [0, 2]
    assert m.successors(1) is not m.successors(1)


def test_each_clip_of_a_shared_row_gets_its_own_successors():
    # states 0..2 share one row with a ray; the tail steps down
    row = (Abs(0), AbsRay(2))
    m = TransitionRuleSet(lo=0, head=3, explicit={i: row for i in range(3)},
                          tail={0: (Rel(-1),)})
    for _ in range(2):
        assert m.successors(0, within=5) == [0, 2, 3, 4, 5]
        assert m.successors(1, within=3) == [0, 2, 3]
        assert m.successors(2, within=1) == [0]
        assert m.successors(2, within=5) == [0, 2, 3, 4, 5]


def test_an_unbounded_row_still_needs_a_clip_after_a_clipped_query():
    row = (Abs(0), AbsRay(2))
    m = TransitionRuleSet(lo=0, head=3, explicit={i: row for i in range(3)},
                          tail={0: (Rel(-1),)})
    assert m.successors(1, within=4) == [0, 2, 3, 4]
    for i in (1, 2, 1):
        with pytest.raises(SchemaError, match=f"row {i} is infinite"):
            m.successors(i)


def test_divergent_column_detection():
    everything_to_zero = TransitionRuleSet(
        lo=0, head=1, explicit={0: (Abs(0), Abs(1))},
        tail={0: (Abs(0),)}, name="collapse")
    assert everything_to_zero.divergent_witness() == 0
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
    with pytest.raises(SchemaError, match="no tail rule for residue 1"):
        # odd states beyond the head have no rule
        TransitionRuleSet(head=4, explicit={i: (Rel(0),) for i in range(-3, 4)},
                          period=2, tail={0: (Rel(1), Rel(-1))})
    # a finite domain inside the head needs no tail rule at all
    assert TransitionRuleSet(lo=0, hi=2, head=3, explicit={
        i: (Rel(0),) for i in range(3)}).successors(2) == [2]


def test_a_huge_head_is_checked_only_up_to_its_first_missing_row():
    start = time.perf_counter()
    with pytest.raises(SchemaError, match="^state -999999999999 is inside "
                       "the head but has no explicit row$"):
        TransitionRuleSet(head=10 ** 12, tail={0: (Rel(-1), Rel(1))})
    assert time.perf_counter() - start < 1.0
    # the head is clipped to the domain, which six rows fill
    m = TransitionRuleSet(lo=0, hi=5, head=10 ** 12,
                          explicit={i: (AbsRay(0),) for i in range(6)})
    assert m.successors(3) == list(range(6))


def test_the_probes_of_a_huge_period_are_clipped_to_the_domain():
    # four states need four probes per base, not a pass over 4 * 10^12
    # offsets; the alarm ends a pass that does not stop.  An unbounded
    # domain's probes run in a capped child in test_cli.py
    def stuck(signum, frame):
        raise TimeoutError("the probes are not clipped to the domain")
    previous = signal.signal(signal.SIGALRM, stuck)
    signal.alarm(10)
    try:
        m = TransitionRuleSet(lo=0, hi=3, period=10 ** 12, tail={
            0: (Rel(1),), 1: (Rel(1), Rel(2)), 2: (Rel(1),),
            3: (Rel(-3), Rel(-2))})
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert m.successors(1) == [2, 3] and m.successors(3) == [0, 1]


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
    # row j of Q puts 1/c_j on each of the c_j predecessors of j, so it is
    # a probability vector when they are distinct and there is at least one
    for m in ALL_FAMILIES:
        q = build_backward_kernel(m)
        for j in m.states(9):
            preds = q.preds(j)
            assert list(preds) == m.predecessors(j)
            assert preds and list(preds) == sorted(set(preds))


def test_kernel_row_of_orphan_column_is_empty():
    m = TransitionRuleSet(lo=0, hi=1, head=2,
                          explicit={0: (Abs(1),), 1: (Abs(1),)},
                          name="orphan")
    q = build_backward_kernel(m)
    assert q.preds(0) == ()
    assert q.preds(1) == (0, 1)


def test_kernel_offsets():
    assert build_backward_kernel(unbiased_walk()).step_offsets() == (-1, 1)
    assert build_backward_kernel(biased_walk()).step_offsets() == (-2, 1)
    assert build_backward_kernel(origin_broadcast()).step_offsets() is None
    # the same walk on the half-line 10, 11, ...: the bound clips row 10
    # to {11}, so no offset law holds for every state
    far = chain_from_dict({"schema_version": 1, "kind": "chain",
                           "name": "far", "domain": [10, None], "window": 0,
                           "tail_rules": {"period": 1,
                                          "rules": {"0": [-1, 1]}}})
    assert list(far.successors(10)) == [11]
    assert far.pure_offsets() is None
    assert build_backward_kernel(far).step_offsets() is None
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


def test_chain_by_name_full_shift_parsing(monkeypatch):
    m = chain_by_name("full-shift-5")
    assert m.states(99) == [0, 1, 2, 3, 4]
    # k is decimal, at least 1 and without a sign or leading zeros
    for name in ("no-such-chain", "full-shift-0", "full-shift-x",
                 "full-shift--2", "full-shift-+2", "full-shift-02",
                 "full-shift-"):
        with pytest.raises(KeyError):
            chain_by_name(name)
    # a family takes no parameter
    with pytest.raises(TypeError):
        chain_by_name("full-shift-3", bogus=7)
    # the kernel has k^2 entries, so k stops at 1414, the largest k with
    # k^2 within the enumeration bound (1414 reaches full_shift, here a
    # stub that builds no row); a name of 4301 digits is refused before
    # int() meets it
    assert 1414 ** 2 <= _ENUM_LIMIT < 1415 ** 2
    monkeypatch.setattr(families, "full_shift", lambda k: k)
    assert chain_by_name("full-shift-1414") == 1414
    for k in ("1415", str(_ENUM_LIMIT + 1), "1" * 4301):
        with pytest.raises(SchemaError, match="k <= 1414,"):
            chain_by_name(f"full-shift-{k}")


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
    # tail rules compare by what they cover, not by the order of terms
    walk = TransitionRuleSet(tail={0: (Rel(1), Rel(-1))})
    assert walk.same_matrix(TransitionRuleSet(tail={0: (Rel(-1), Rel(1))}))
    rays = TransitionRuleSet(lo=0, tail={0: (RelRay(2), Rel(-1), RelRay(0))})
    assert rays.same_matrix(TransitionRuleSet(lo=0, tail={0: (Rel(-1), RelRay(0))}))
    assert not rays.same_matrix(TransitionRuleSet(lo=0, tail={0: (Rel(-1), RelRay(2))}))


def test_chain_documents_keep_the_least_ray_start():
    row = TransitionRuleSet(lo=0, hi=6, head=7, explicit={
        i: (AbsRay(2), AbsRay(5)) for i in range(7)})
    assert chain_to_dict(row)["states"]["0"] == {"all_from": 2}
    assert chain_from_dict(chain_to_dict(row)).successors(0) == [2, 3, 4, 5, 6]
    tail = TransitionRuleSet(lo=0, tail={0: (RelRay(0), RelRay(2))})
    assert chain_to_dict(tail)["tail_rules"]["rules"]["0"] == {"ray_from_offset": 0}


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
def finite_chains(draw, max_row=None):
    n = draw(st.integers(1, 9))
    lo = draw(st.integers(-5, 5))
    rows = draw(st.lists(st.sets(st.integers(lo, lo + n - 1), min_size=1,
                                 max_size=max_row),
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


# -- rule-set queries against the term-by-term reference ----------------------

class ReferenceRuleSet(TransitionRuleSet):
    """The earlier queries that read each term by its class, kept verbatim.

    Construction runs the inherited ``__post_init__``, so its empty-row
    check goes through the ``_row_nonempty`` below.
    """

    def row_terms(self, i: int) -> tuple[Term, ...]:
        self._require(i)
        if i in self.explicit:
            return self.explicit[i]
        if abs(i) < self.head or not self.tail:
            raise SchemaError(f"no rule covers state {i} in {self.name}")
        r = i % self.period
        if r not in self.tail:
            raise SchemaError(f"no tail rule for residue {r} in {self.name}")
        return self.tail[r]

    def _row_nonempty(self, i: int) -> bool:
        for t in self.row_terms(i):
            if isinstance(t, Rel) and self.contains(i + t.offset):
                return True
            if isinstance(t, Abs) and self.contains(t.state):
                return True
            if isinstance(t, RelRay):
                s = i + t.offset if self.lo is None else max(i + t.offset, self.lo)
                if self.contains(s):
                    return True
            if isinstance(t, AbsRay):
                s = t.start if self.lo is None else max(t.start, self.lo)
                if self.contains(s):
                    return True
        return False

    def entry(self, i: int, j: int) -> int:
        """Matrix entry m_ij, 0 or 1."""
        self._require(i)
        if not self.contains(j):
            return 0
        for t in self.row_terms(i):
            if isinstance(t, Rel) and j == i + t.offset:
                return 1
            if isinstance(t, Abs) and j == t.state:
                return 1
            if isinstance(t, RelRay) and j >= i + t.offset:
                return 1
            if isinstance(t, AbsRay) and j >= t.start:
                return 1
        return 0

    def successors(self, i: int, *, within: int | None = None) -> list[int]:
        self._require(i)
        if within is None and self.row_unbounded(i):
            raise SchemaError(f"row {i} is infinite, pass within=")
        cap = self.hi
        if within is not None:
            cap = within if cap is None else min(cap, within)
        floor = self.lo
        if within is not None:
            floor = -within if floor is None else max(floor, -within)
        out: set[int] = set()
        for t in self.row_terms(i):
            if isinstance(t, Rel):
                out.add(i + t.offset)
            elif isinstance(t, Abs):
                out.add(t.state)
            elif isinstance(t, (RelRay, AbsRay)):
                start = (i + t.offset) if isinstance(t, RelRay) else t.start
                if cap is None:
                    raise SchemaError("ray row on an unbounded domain needs a clip")
                out.update(range(start, cap + 1))
        return sorted(j for j in out if self.contains(j)
                      and (floor is None or j >= floor) and (cap is None or j <= cap))

    def row_unbounded(self, i: int) -> bool:
        if self.hi is not None:
            return False
        return any(isinstance(t, (RelRay, AbsRay)) for t in self.row_terms(i))

    def same_matrix(self, other: TransitionRuleSet) -> bool:
        if (self.lo, self.hi, self.period, self.tail) != \
                (other.lo, other.hi, other.period, other.tail):
            return False

        def anchors(m: TransitionRuleSet, i: int) -> list[int]:
            return [t.state if isinstance(t, Abs) else
                    t.start if isinstance(t, AbsRay) else i + t.offset
                    for t in m.row_terms(i)]

        for i in self.states(max(self.head, other.head) - 1):
            clip = max(abs(a) for a in anchors(self, i) + anchors(other, i))
            if self.row_unbounded(i) != other.row_unbounded(i) or \
                    self.successors(i, within=clip) != \
                    other.successors(i, within=clip):
                return False
        return True

    def divergent_witness(self) -> int | None:
        tail_infinite = self.lo is None or self.hi is None
        if not self.tail or not tail_infinite:
            return None
        for terms in self.tail.values():
            for t in terms:
                if isinstance(t, Abs):
                    return t.state
                if isinstance(t, AbsRay):
                    return t.start
                if isinstance(t, RelRay) and self.lo is None:
                    return 0
        return None

    def _column_divergent(self, j: int) -> bool:
        tail_infinite = self.lo is None or self.hi is None
        if not self.tail or not tail_infinite:
            return False
        for terms in self.tail.values():
            for t in terms:
                if isinstance(t, Abs) and t.state == j:
                    return True
                if isinstance(t, AbsRay) and j >= t.start:
                    return True
                if isinstance(t, RelRay) and self.lo is None:
                    return True
        return False

    @cached_property
    def _explicit_reverse(self) -> tuple[dict[int, tuple[int, ...]], tuple[tuple[int, int], ...]]:
        direct: dict[int, set[int]] = {}
        rays: list[tuple[int, int]] = []
        for i, terms in self.explicit.items():
            for t in terms:
                if isinstance(t, Abs):
                    direct.setdefault(t.state, set()).add(i)
                elif isinstance(t, Rel):
                    direct.setdefault(i + t.offset, set()).add(i)
                elif isinstance(t, AbsRay):
                    rays.append((i, t.start))
                elif isinstance(t, RelRay):
                    rays.append((i, i + t.offset))
        return ({j: tuple(sorted(s)) for j, s in direct.items()}, tuple(rays))

    def predecessors(self, j: int) -> list[int]:
        self._require(j)
        if self._column_divergent(j):
            raise InfinitePreimages(j)
        direct, rays = self._explicit_reverse
        preds: set[int] = set(direct.get(j, ()))
        for i, start in rays:
            if j >= start:
                preds.add(i)
        for r, terms in self.tail.items():
            for t in terms:
                if isinstance(t, Rel):
                    i = j - t.offset
                    if self._is_tail_state(i) and i % self.period == r:
                        preds.add(i)
                elif isinstance(t, Abs):
                    if t.state == j:
                        preds.update(self._tail_residue_states(r))
                elif isinstance(t, AbsRay):
                    if j >= t.start:
                        preds.update(self._tail_residue_states(r))
                elif isinstance(t, RelRay):
                    # i + offset <= j, i.e. i <= j - offset, domain bounded below here
                    top = j - t.offset
                    assert self.lo is not None
                    if top - self.lo > _ENUM_LIMIT:
                        raise SchemaError("column enumeration too large")
                    for i in range(self.lo, top + 1):
                        if self._is_tail_state(i) and i % self.period == r:
                            preds.add(i)
        return sorted(preds)

    def pure_offsets(self) -> tuple[int, ...] | None:
        if self.explicit or self.head != 0 or not self.tail:
            return None
        rules = list(self.tail.values())
        if len(rules) != self.period or any(r != rules[0] for r in rules):
            return None
        if self.period > 1 and set(self.tail) != set(range(self.period)):
            return None
        offs = []
        for t in rules[0]:
            if not isinstance(t, Rel):
                return None
            offs.append(t.offset)
        return tuple(sorted(offs))


def reference_row_to_json(terms, i: int):
    succ: list[int] = []
    ray = None
    for t in terms:
        if isinstance(t, Abs):
            succ.append(t.state)
        elif isinstance(t, Rel):
            succ.append(i + t.offset)
        elif isinstance(t, AbsRay):
            ray = t.start if ray is None else min(ray, t.start)
        elif isinstance(t, RelRay):
            ray = i + t.offset if ray is None else min(ray, i + t.offset)
    if ray is None:
        return sorted(set(succ))
    out = {"all_from": ray}
    if succ:
        out["successors"] = sorted(set(succ))
    return out


def reference_chain_to_dict(m):
    states = {str(i): reference_row_to_json(terms, i)
              for i, terms in sorted(m.explicit.items())}
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "chain",
        "name": m.name,
        "domain": [m.lo, m.hi],
        "window": m.head,
        "states": states,
    }
    if m.tail:
        doc["tail_rules"] = {
            "period": m.period,
            "rules": {str(r): _tail_rule_to_json(t)
                      for r, t in sorted(m.tail.items())},
        }
    return doc


def term_rows(min_size=1, max_size=3):
    term = st.one_of(st.builds(Rel, st.integers(-3, 3)),
                     st.builds(Abs, st.integers(-6, 6)),
                     st.builds(RelRay, st.integers(-3, 3)),
                     st.builds(AbsRay, st.integers(-6, 6)))
    return st.lists(term, min_size=min_size, max_size=max_size).map(tuple)


@st.composite
def rule_set_params(draw):
    """Fields of a rule set over ℤ, a half-line or a finite domain, using
    all four term kinds in explicit head rows and tail rules."""
    lo = draw(st.integers(-5, 3))
    lo, hi = draw(st.sampled_from([(None, None), (lo, None), (None, lo),
                                   (lo, lo + draw(st.integers(0, 8)))]))
    period = draw(st.integers(1, 3))
    head = draw(st.integers(0, 4))
    head_states = [i for i in range(1 - head, head)
                   if (lo is None or i >= lo) and (hi is None or i <= hi)]
    explicit = {i: draw(term_rows()) for i in head_states}
    tail = {r: draw(term_rows()) for r in range(period)}
    if draw(st.integers(0, 3)) == 0:
        del tail[draw(st.integers(0, period - 1))]
    return dict(lo=lo, hi=hi, head=head, explicit=explicit, period=period,
                tail=tail, name="generated")


def uses_missing_residue(params):
    """Whether some state of the domain outside the head has a residue
    without a tail rule (the generated domains lie within -20..20)."""
    lo, hi = params["lo"], params["hi"]
    return any(i % params["period"] not in params["tail"]
               for i in range(-20, 21) if abs(i) >= params["head"]
               and (lo is None or i >= lo) and (hi is None or i <= hi))


def outcome(f, *args, **kwargs):
    """A call's value, or the type and message of what it raised."""
    try:
        return f(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(rule_set_params(), st.data())
def test_rule_set_queries_match_the_term_by_term_reference(params, data):
    got = outcome(TransitionRuleSet, **params)
    if uses_missing_residue(params):
        assert got[0] is SchemaError
        return
    want = outcome(ReferenceRuleSet, **params)
    if not isinstance(want, ReferenceRuleSet):
        assert got == want
        return
    m, ref = got, want
    probe = range(-8, 9)
    for i in probe:
        for f in ("_row_nonempty", "row_unbounded", "successors",
                  "predecessors"):
            assert outcome(getattr(m, f), i) == outcome(getattr(ref, f), i)
        for w in (0, 2, 5, 9):
            assert outcome(m.successors, i, within=w) == \
                outcome(ref.successors, i, within=w)
        for j in probe:
            assert outcome(m.entry, i, j) == outcome(ref.entry, i, j)
    assert m.divergent_witness() == ref.divergent_witness()
    # the reference reads the tail's offset law on every domain; a bound
    # clips the rows next to it, so only a rule set on Z has one
    offs = m.pure_offsets()
    assert offs == (ref.pure_offsets() if m.lo is None and m.hi is None
                    else None)
    if offs is not None:
        for i in probe:
            assert set(m.successors(i)) == {i + o for o in offs}
    assert outcome(chain_to_dict, m) == reference_chain_to_dict(ref)
    # a second rule set on the same domain and tail, with its own head rows
    other = dict(params, **data.draw(st.fixed_dictionaries({
        "head": st.integers(0, 4)})))
    other["explicit"] = {i: data.draw(term_rows()) for i in range(
        1 - other["head"], other["head"]) if m.contains(i)}
    m2, ref2 = outcome(TransitionRuleSet, **other), outcome(ReferenceRuleSet, **other)
    if uses_missing_residue(other):
        assert m2[0] is SchemaError
        return
    if not isinstance(ref2, ReferenceRuleSet):
        assert m2 == ref2
        return
    for a, b in ((m, ref), (m2, ref2)):
        assert outcome(m.same_matrix, a) == outcome(ref.same_matrix, b)
        assert outcome(a.same_matrix, m) == outcome(b.same_matrix, ref)


@settings(max_examples=300, deadline=None)
@given(rule_set_params())
def test_chain_documents_round_trip_every_rule_set(params):
    m = outcome(TransitionRuleSet, **params)
    if not isinstance(m, TransitionRuleSet):
        return
    back = chain_from_dict(json.loads(json.dumps(chain_to_dict(m))))
    assert back.same_matrix(m) and m.same_matrix(back)
