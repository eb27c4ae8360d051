"""Countable 0-1 transition structures and their backward kernels.

States are integers.  An infinite transition matrix is described by a
finite head of explicit rows plus eventually-periodic tail rules, so row
membership and column supports stay decidable without materialising
anything infinite.  Rows may be infinite (a branch can cover a whole ray
of states); what has to stay finite for the backward kernel to exist is
every column, and that is checked symbolically from the rules.

Term kinds used in a row description, for a row at state ``i``:

* ``Rel(o)``     -- single successor ``i + o``
* ``Abs(s)``     -- single successor ``s``
* ``RelRay(o)``  -- every successor ``j >= i + o``
* ``AbsRay(s)``  -- every successor ``j >= s``

Inside the declared domain, states with ``|i| < head`` must carry
explicit rows; all other states are governed by the tail rule of their
residue class mod ``period``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Mapping

__all__ = [
    "Rel", "Abs", "RelRay", "AbsRay", "Term",
    "TransitionRuleSet", "BackwardKernel",
    "UnresolvableState", "InfinitePreimages", "SchemaError",
    "build_backward_kernel", "check_irreducible",
    "strongly_connected_components",
]


class UnresolvableState(ValueError):
    """A state id outside the declared domain was referenced."""


class InfinitePreimages(ValueError):
    """A column has infinitely many nonzero entries."""

    def __init__(self, state: int):
        super().__init__(f"state {state} has infinitely many predecessors")
        self.state = state


class SchemaError(ValueError):
    """Malformed rule set or spec file."""


@dataclass(frozen=True)
class Rel:
    offset: int


@dataclass(frozen=True)
class Abs:
    state: int


@dataclass(frozen=True)
class RelRay:
    offset: int


@dataclass(frozen=True)
class AbsRay:
    start: int


Term = Rel | Abs | RelRay | AbsRay

# Guard for degenerate column enumerations (bounded-below rays produce
# one predecessor per state below the column index; anything this large
# is a misuse, not a real query).
_ENUM_LIMIT = 2_000_000


@dataclass(frozen=True)
class TransitionRuleSet:
    """Finite description of a countable 0-1 matrix M over integer states."""

    lo: int | None = None
    hi: int | None = None
    head: int = 0
    explicit: Mapping[int, tuple[Term, ...]] = field(default_factory=dict)
    period: int = 1
    tail: Mapping[int, tuple[Term, ...]] = field(default_factory=dict)
    name: str = "custom"

    def __post_init__(self):
        if self.period < 1:
            raise SchemaError("period must be >= 1")
        if self.lo is not None and self.hi is not None and self.lo > self.hi:
            raise SchemaError("empty domain")
        object.__setattr__(self, "explicit", dict(self.explicit))
        object.__setattr__(self, "tail", {r % self.period: tuple(t) for r, t in self.tail.items()})
        for i in self.explicit:
            if not self.contains(i):
                raise SchemaError(f"explicit row {i} outside domain")
        for i in self._head_states():
            if i not in self.explicit:
                raise SchemaError(f"state {i} is inside the head but has no explicit row")
        # every state must resolve to a nonempty row
        probes = list(self._head_states())
        for base in (self.lo, self.hi, 0):
            if base is None:
                continue
            for d in range(-2 * self.period, 2 * self.period + 1):
                s = base + d
                if self.contains(s):
                    probes.append(s)
        for s in probes:
            if not self._row_nonempty(s):
                raise SchemaError(f"state {s} has an empty row")

    # -- domain ---------------------------------------------------------

    def contains(self, i: int) -> bool:
        if self.lo is not None and i < self.lo:
            return False
        if self.hi is not None and i > self.hi:
            return False
        return True

    def _require(self, i: int) -> None:
        if not self.contains(i):
            raise UnresolvableState(f"state {i} outside domain of {self.name}")

    def _head_states(self) -> list[int]:
        out = []
        for i in range(-self.head + 1, self.head):
            if self.contains(i):
                out.append(i)
        return out

    def _is_tail_state(self, i: int) -> bool:
        return self.contains(i) and abs(i) >= self.head

    def domain_finite(self) -> bool:
        return self.lo is not None and self.hi is not None

    def states(self, bound: int) -> list[int]:
        """In-domain states with |i| <= bound, ascending."""
        lo = -bound if self.lo is None else max(self.lo, -bound)
        hi = bound if self.hi is None else min(self.hi, bound)
        return list(range(lo, hi + 1))

    def spiral(self, count: int) -> list[int]:
        """First ``count`` in-domain states in canonical order 0, 1, -1, 2, -2, ..."""
        out: list[int] = []
        k = 0
        while len(out) < count and k < _ENUM_LIMIT:
            for s in ((0,) if k == 0 else (k, -k)):
                if self.contains(s) and len(out) < count:
                    out.append(s)
            k += 1
        return out

    # -- rows -----------------------------------------------------------

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
        """Successor states of ``i``, clipped to |j| <= within when given.

        Raises SchemaError for an unbounded row queried without a clip.
        """
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

    def rows_full(self) -> bool:
        """True when the domain is finite and every row covers every state."""
        if not self.domain_finite():
            return False
        all_states = set(self.states(max(abs(self.lo), abs(self.hi))))
        return all(set(self.successors(i)) == all_states for i in all_states)

    def same_matrix(self, other: TransitionRuleSet) -> bool:
        """True when both rule sets describe the same matrix.

        The domains, periods and tail rules must agree; below the larger
        head the rows are compared as successor sets, clipped beyond every
        anchor either row mentions so that rays compare by their starts.
        """
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

    # -- columns --------------------------------------------------------

    def divergent_witness(self) -> int | None:
        """A state whose column is infinite, or None if all columns are finite."""
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
        """Reverse index of the explicit rows: hits by target, plus rays.

        Large compiled rule sets (graph models) have thousands of explicit
        rows; scanning them per column query would be quadratic.
        """
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
        """Column support of ``j``.  Raises InfinitePreimages when infinite."""
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

    def _tail_residue_states(self, r: int) -> Iterable[int]:
        # only reachable when the domain is finite
        assert self.domain_finite()
        return (i for i in range(self.lo, self.hi + 1)
                if self._is_tail_state(i) and i % self.period == r)

    def column_count(self, j: int) -> int | float:
        """Number of predecessors of j (may be math.inf)."""
        self._require(j)
        if self._column_divergent(j):
            return math.inf
        return len(self.predecessors(j))

    # -- structure hints --------------------------------------------------

    def pure_offsets(self) -> tuple[int, ...] | None:
        """Offsets o with row(i) = {i+o} for every state, else None.

        Only reported for one tail rule covering the whole domain; used as
        a fast path by the samplers.
        """
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


@dataclass(frozen=True)
class BackwardKernel:
    """Row-stochastic kernel Q with q_ji = m_ij / c_j.

    Row j is the uniform distribution over the predecessors of j.
    """

    base: TransitionRuleSet
    _cumulative: dict[int, tuple[list[int], list[float]]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def row(self, j: int) -> list[tuple[int, Fraction]]:
        preds = self.base.predecessors(j)
        if not preds:
            # empty column: the backward walk is stuck; truncation layers
            # drop such states, samplers refuse to start on them
            return []
        w = Fraction(1, len(preds))
        return [(i, w) for i in preds]

    def cumulative_row(self, j: int) -> tuple[list[int], list[float]]:
        """Row j as (targets, cumulative float weights), cached for samplers."""
        r = self._cumulative.get(j)
        if r is None:
            entries = self.row(j)
            if not entries:
                raise ValueError(f"state {j} has no predecessors; "
                                 "backward walk is stuck")
            r = self._cumulative[j] = (
                [i for i, _ in entries],
                list(accumulate(float(q) for _, q in entries)))
        return r

    def step_offsets(self) -> tuple[int, ...] | None:
        """Backward step offsets when every Q row is the same offset law."""
        offs = self.base.pure_offsets()
        if offs is None:
            return None
        return tuple(sorted(-o for o in offs))

    def residue_step_offsets(self) -> tuple[int, dict[int, tuple[int, ...]]] | None:
        """Backward offset laws that only depend on the state mod the period.

        Verified by probing Q rows across several periods; requires an
        unbounded domain with no explicit head rows.  Returns
        ``(period, {residue: offsets})`` or None.
        """
        base = self.base
        if base.lo is not None or base.hi is not None or base.explicit:
            return None
        p = base.period
        laws: dict[int, tuple[int, ...]] = {}
        for r in range(p):
            probes = []
            for j in (r, r + p, r - p, r + 2 * p, r - 3 * p):
                preds = base.predecessors(j)
                probes.append(tuple(sorted(i - j for i in preds)))
            if any(q != probes[0] for q in probes):
                return None
            laws[r % p] = probes[0]
        return p, laws

    def contains(self, j: int) -> bool:
        return self.base.contains(j)


def build_backward_kernel(m: TransitionRuleSet) -> BackwardKernel:
    """Backward kernel of a matrix whose columns are all finite."""
    w = m.divergent_witness()
    if w is not None:
        raise InfinitePreimages(w)
    return BackwardKernel(m)


def strongly_connected_components(states: list[int],
                                  succ: Mapping[int, list[int]]) -> list[list[int]]:
    """Tarjan's strongly connected components, each sorted.

    Depth-first searches start from ``states`` in order, and components
    come out in the order they complete: first every component the search
    from ``states[0]`` reaches, ending with the component of ``states[0]``.
    """
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    sccs: list[list[int]] = []
    for root in states:
        if root in index:
            continue
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ[w])))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(sorted(comp))
    return sccs


def check_irreducible(m: TransitionRuleSet, window: int) -> tuple[bool, tuple[int, int] | None]:
    """Strong connectivity through the states with |i| <= window.

    Returns (True, None) or (False, (a, b)) where no directed path a -> b
    exists inside the window: b is the least state the first window state
    cannot reach, or else the least state that cannot reach it.
    """
    states = m.states(window)
    if not states:
        raise UnresolvableState("empty window")
    idx = set(states)
    succ = {i: [j for j in m.successors(i, within=window) if j in idx] for i in states}
    sccs = strongly_connected_components(states, succ)
    if len(sccs) == 1:
        return True, None
    # the components up to the root's own are exactly what the root reaches
    root = states[0]
    k = next(n for n, comp in enumerate(sccs) if root in comp)
    rest = [s for comp in sccs[k + 1:] for s in comp]
    if rest:
        return False, (root, min(rest))
    return False, (min(s for s in states if s not in sccs[k]), root)
