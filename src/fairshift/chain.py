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

Inside the declared domain, exactly the states with ``|i| < head``
carry explicit rows; all other states are governed by the tail rule of
their residue class mod ``period``.  Every query reads a term through
its normal form ``(relative, anchor, ray)``, computed once by ``_span``.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

__all__ = [
    "Rel", "Abs", "RelRay", "AbsRay", "Term",
    "TransitionRuleSet", "ColumnTable", "BackwardKernel",
    "UnresolvableState", "InfinitePreimages", "SchemaError", "StuckWalk",
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


class StuckWalk(ValueError):
    """A backward walk reached a state without predecessors."""


@dataclass(frozen=True, slots=True)
class Rel:
    offset: int


@dataclass(frozen=True, slots=True)
class Abs:
    state: int


@dataclass(frozen=True, slots=True)
class RelRay:
    offset: int


@dataclass(frozen=True, slots=True)
class AbsRay:
    start: int


Term = Rel | Abs | RelRay | AbsRay
Span = tuple[bool, int, bool]


def _span(t: Term) -> Span:
    """Normal form (relative, anchor, ray) of a term.

    The term covers ``anchor``, shifted by the row's own state when
    relative, or every state from there on when it is a ray.  Every
    rule-set query reads terms in this form only.
    """
    if isinstance(t, Abs):
        return False, t.state, False
    if isinstance(t, Rel):
        return True, t.offset, False
    if isinstance(t, RelRay):
        return True, t.offset, True
    return False, t.start, True


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
    # clipped successors of rows without a relative span, by (id of the
    # row in ``_rules``, floor, cap); ``_rules`` keeps the rows alive
    _fixed: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

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
            if abs(i) >= self.head:
                raise SchemaError(f"explicit row {i} outside the head "
                                  f"|i| < {self.head}")
        head = self._clipped(1 - self.head, self.head - 1)
        for i in head:
            if i not in self.explicit:
                raise SchemaError(f"state {i} is inside the head but has no explicit row")
        # every state must resolve to a nonempty row; the probes within two
        # periods of the ends of the tail meet every residue it uses, and
        # each is checked as it is made, so a huge period fails at once
        up = self.head if self.lo is None else max(self.head, self.lo)
        down = -self.head if self.hi is None else min(-self.head, self.hi)
        reach = 2 * self.period
        probes = [head] + [
            self._clipped(base - reach, base + reach)
            for base in (self.lo, self.hi, 0, up, down) if base is not None]
        for s in itertools.chain.from_iterable(probes):
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

    def _clipped(self, lo: int, hi: int) -> range:
        """States from lo to hi, ascending, clipped to the domain."""
        lo = lo if self.lo is None else max(self.lo, lo)
        hi = hi if self.hi is None else min(self.hi, hi)
        return range(lo, hi + 1)

    def _is_tail_state(self, i: int) -> bool:
        return self.contains(i) and abs(i) >= self.head

    def domain_finite(self) -> bool:
        return self.lo is not None and self.hi is not None

    def reaching(self, window: int) -> int:
        """``window``, widened until its inner half [-N/2, N/2] holds a state.

        A domain that starts d > 0 away from 0 is out of reach of a window
        around 0 below 2d; a domain that holds 0 leaves every window as is.
        """
        return max(window, 2 * max(0, self.lo or 0, -(self.hi or 0)))

    def states(self, bound: int) -> list[int]:
        """In-domain states with |i| <= bound, ascending.  More than
        ``_ENUM_LIMIT`` of them raise SchemaError: no window, solve or
        class split that lists them all fits in memory."""
        lo = -bound if self.lo is None else max(self.lo, -bound)
        hi = bound if self.hi is None else min(self.hi, bound)
        if hi - lo >= _ENUM_LIMIT:
            raise SchemaError(f"{hi - lo + 1} states with |i| <= {bound} in "
                              f"{self.name}; at most {_ENUM_LIMIT} are listed")
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

    @cached_property
    def _rules(self) -> tuple[dict[int, tuple[Span, ...]], dict[int, tuple[Span, ...]]]:
        """Explicit rows by state and tail rules by residue, as spans.

        Equal spans and rows are stored once: compiled rule sets (graph
        models) repeat targets and whole rows over thousands of rows.  A
        term tuple that several states share is converted once, looked up
        by identity; the entry keeps the tuple alive so its id stays its own.
        """
        shared: dict = {}
        seen: dict[int, tuple[tuple[Term, ...], tuple[Span, ...]]] = {}

        def spans(terms: tuple[Term, ...]) -> tuple[Span, ...]:
            hit = seen.get(id(terms))
            if hit is None:
                new = list(map(_span, terms))
                row = tuple(map(shared.setdefault, new, new))
                hit = seen[id(terms)] = terms, shared.setdefault(row, row)
            return hit[1]

        return ({i: spans(terms) for i, terms in self.explicit.items()},
                {r: spans(terms) for r, terms in self.tail.items()})

    def _row(self, i: int) -> tuple[Span, ...]:
        """The (relative, anchor, ray) spans of row i."""
        self._require(i)
        explicit, tail = self._rules
        row = explicit.get(i)
        if row is not None:
            return row
        r = i % self.period
        if r not in tail:
            raise SchemaError(f"no tail rule for residue {r} in {self.name}")
        return tail[r]

    def _row_nonempty(self, i: int) -> bool:
        for rel, a, ray in self._row(i):
            s = i + a if rel else a
            if self.contains(s if not ray or self.lo is None else max(s, self.lo)):
                return True
        return False

    def entry(self, i: int, j: int) -> int:
        """Matrix entry m_ij, 0 or 1."""
        self._require(i)
        if not self.contains(j):
            return 0
        for rel, a, ray in self._row(i):
            s = i + a if rel else a
            if j >= s if ray else j == s:
                return 1
        return 0

    def successors(self, i: int, *, within: int | None = None) -> list[int]:
        """Successor states of ``i``, clipped to |j| <= within when given.

        A row without a relative span names the same states for every
        state that shares it, so its clipped result is memoised per clip;
        each call gets a fresh list.  Raises SchemaError for an unbounded
        row queried without a clip.
        """
        row = self._row(i)
        if within is not None:
            floor = -within if self.lo is None else max(self.lo, -within)
            cap = within if self.hi is None else min(self.hi, within)
        elif self.hi is None and any(ray for _, _, ray in row):
            raise SchemaError(f"row {i} is infinite, pass within=")
        else:
            floor = -math.inf if self.lo is None else self.lo
            cap = math.inf if self.hi is None else self.hi
        key = id(row), floor, cap
        hit = self._fixed.get(key)
        if hit is not None:
            return list(hit)
        out: set[int] = set()
        for rel, a, ray in row:
            s = i + a if rel else a
            if ray:
                out.update(range(s, cap + 1))
            else:
                out.add(s)
        succ = sorted(j for j in out if floor <= j <= cap)
        if not any(rel for rel, _, _ in row):
            self._fixed[key] = tuple(succ)
        return succ

    def row_unbounded(self, i: int) -> bool:
        if self.hi is not None:
            return False
        return any(ray for _, _, ray in self._row(i))

    def same_matrix(self, other: TransitionRuleSet) -> bool:
        """True when both rule sets describe the same matrix.

        The domains, periods and tail rules must agree, each rule as its
        points and the least start of each kind of ray; below the larger
        head the rows are compared as successor sets, clipped beyond every
        first successor either row names so that rays compare by their starts.
        """
        def form(row):      # the least start of each kind comes last
            rays = sorted(((rel, a) for rel, a, ray in row if ray), reverse=True)
            return frozenset(s for s in row if not s[2]), dict(rays)

        tails = [{r: form(row) for r, row in m._rules[1].items()}
                 for m in (self, other)]
        if (self.lo, self.hi, self.period) != (other.lo, other.hi, other.period) \
                or tails[0] != tails[1]:
            return False
        for i in self.states(max(self.head, other.head) - 1):
            clip = max(abs(i + a if rel else a)
                       for m in (self, other) for rel, a, _ in m._row(i))
            if self.row_unbounded(i) != other.row_unbounded(i) or \
                    self.successors(i, within=clip) != \
                    other.successors(i, within=clip):
                return False
        return True

    # -- columns --------------------------------------------------------

    @cached_property
    def _divergent(self) -> tuple[Span, ...]:
        """Tail spans that make a column infinite, in rule order: on an
        infinite domain every absolute one, and relative rays as well when
        the domain is unbounded below."""
        if self.domain_finite():
            return ()
        return tuple((rel, a, ray) for spans in self._rules[1].values()
                     for rel, a, ray in spans
                     if not rel or ray and self.lo is None)

    def divergent_witness(self) -> int | None:
        """A state whose column is infinite, or None if all columns are finite."""
        return next((0 if rel else a for rel, a, _ in self._divergent), None)

    def _column_divergent(self, j: int) -> bool:
        for rel, a, ray in self._divergent:
            if rel or (j >= a if ray else j == a):
                return True
        return False

    @cached_property
    def _explicit_reverse(self) -> tuple[dict[int, tuple[int, ...]], tuple[int, ...], tuple[int, ...]]:
        """Reverse index of the explicit rows: hits by target, plus the
        starts of the rays, ascending, and the state of each ray's row.

        Large compiled rule sets (graph models) have thousands of explicit
        rows; scanning them per column query would be quadratic.  They
        share few distinct rows, one object each (``_rules``), so the
        states are grouped by row and each row's spans are read once.
        """
        groups: dict[int, list] = {}        # id of a row: the row, its states
        for i, row in self._rules[0].items():
            groups.setdefault(id(row), [row]).append(i)
        direct: dict[int, set[int]] = {}
        rays: list[tuple[int, int]] = []
        for row, *states in groups.values():
            for rel, a, ray in row:
                if ray:
                    rays += [(i + a if rel else a, i) for i in states]
                elif rel:
                    for i in states:
                        direct.setdefault(i + a, set()).add(i)
                else:
                    direct.setdefault(a, set()).update(states)
        rays.sort()
        return ({j: tuple(s) for j, s in direct.items()},
                tuple(s for s, _ in rays), tuple(i for _, i in rays))

    def predecessors(self, j: int) -> list[int]:
        """Column support of ``j``.  Raises InfinitePreimages when infinite."""
        self._require(j)
        if self._column_divergent(j):
            raise InfinitePreimages(j)
        direct, starts, owners = self._explicit_reverse
        preds: set[int] = set(direct.get(j, ()))
        preds.update(owners[:bisect.bisect_right(starts, j)])
        for r, spans in self._rules[1].items():
            for rel, a, ray in spans:
                if not rel:
                    if j >= a if ray else j == a:
                        preds.update(self._tail_residue_states(r))
                elif not ray:
                    i = j - a
                    if self._is_tail_state(i) and i % self.period == r:
                        preds.add(i)
                else:
                    # i + a <= j, i.e. i <= j - a, domain bounded below here
                    top = j - a
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

    # -- structure hints --------------------------------------------------

    def pure_offsets(self) -> tuple[int, ...] | None:
        """The distinct offsets o with row(i) = {i+o} for every state, else None.

        Only reported for one tail rule covering all of Z (a bound clips
        the rows next to it); a rule that names an offset twice names one
        successor, so each offset is reported once.  Read by the offset
        law of ``sample_backward``, ``series_test`` and
        ``monte_carlo_return``, and by the drift estimate of ``classify``.
        """
        if self.explicit or self.head != 0 or not self.tail:
            return None
        if self.lo is not None or self.hi is not None:
            return None
        # the residues are distinct mod period, so period rules cover them all
        rules = list(self._rules[1].values())
        if len(rules) != self.period or any(r != rules[0] for r in rules):
            return None
        if any(not rel or ray for rel, _, ray in rules[0]):
            return None
        return tuple(sorted({a for _, a, _ in rules[0]}))


@dataclass(frozen=True, eq=False)
class ColumnTable:
    """The columns of a backward kernel over the states lo..hi, compiled.

    State lo + k has its predecessors, ascending, at the offsets
    ``indices[indptr[k]:indptr[k + 1]]`` from lo (numpy int64 arrays),
    which fall outside 0..hi - lo for predecessors outside the range.
    States outside the domain have empty columns.  Loops that step one
    state at a time read the kernel's ``cols`` instead.
    """

    lo: int
    hi: int
    indptr: object
    indices: object


@dataclass(frozen=True)
class BackwardKernel:
    """Row-stochastic kernel Q with q_ji = m_ij / c_j.

    Row j is the uniform distribution over the c_j predecessors of j, so
    the columns alone fix the kernel.  ``cols`` is the one Python store
    of them: each enumerated state maps to its predecessors, ascending,
    and their count.  ``preds`` fills one entry, and is the only reader
    of the rule set's columns; every other module reads a column through
    it.  ``columns`` fills a range of entries and compiles it into one
    ``ColumnTable``, which Monte Carlo returns and the sampler's column
    laws read; the window solve, the fair measure, atomic orbits, the
    transitivity check and the class split read a window's slice of it
    through ``window_columns``, or in row order ``window_rows``, alone.
    The exact return series and the stepping sampler index ``cols``.
    When the rules certify one offset law on Z (``step_offsets``), the
    sampler, the series and Monte Carlo read that law, and no column.
    """

    base: TransitionRuleSet
    cols: dict[int, tuple[tuple[int, ...], int]] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _table: ColumnTable | None = field(
        default=None, init=False, repr=False, compare=False)

    def preds(self, j: int) -> tuple[int, ...]:
        """Predecessors of j in ascending order, memoised in ``cols``."""
        col = self.cols.get(j)
        if col is None:
            p = tuple(self.base.predecessors(j))
            col = self.cols[j] = p, len(p)
        return col[0]

    def columns(self, lo: int, hi: int) -> ColumnTable:
        """The column table, grown to hold the states lo..hi.

        A growth adds at least the old span, half on each side, and builds
        a new table from ``preds``, so every in-domain state of the range
        is in ``cols``; a table is never changed once returned, so a
        caller may keep what it derives from one until a later call
        returns another.
        """
        t = self._table
        if t is not None:
            if t.lo <= lo and hi <= t.hi:
                return t
            span = t.hi - t.lo + 1
            lo = min(lo, t.lo - span // 2)
            hi = max(hi, t.hi + span - span // 2)
        preds = [self.preds(s) if self.base.contains(s) else ()
                 for s in range(lo, hi + 1)]
        indptr = np.cumsum([0, *map(len, preds)], dtype=np.int64)
        indices = np.fromiter(itertools.chain.from_iterable(preds), np.int64)
        t = ColumnTable(lo, hi, indptr, indices - lo)
        object.__setattr__(self, "_table", t)
        return t

    def window_columns(self, states: list[int]):
        """The window's consecutive states as one slice of the column
        table, where a predecessor's offset, less the window's, is its
        position in the window.  Returns the positions of j and of i of
        the entries (i, j) inside the window, ascending by j and then i,
        and the column count c_j of each window state."""
        if not states:
            return (np.zeros(0, np.int64),) * 3
        table = self.columns(states[0], states[-1])
        first = states[0] - table.lo
        ptr = table.indptr[first:first + len(states) + 1]
        c = np.diff(ptr)
        pos = table.indices[ptr[0]:ptr[-1]] - first
        inside = (pos >= 0) & (pos < len(states))
        return np.repeat(np.arange(len(states)), c)[inside], pos[inside], c

    def window_rows(self, states: list[int]):
        """The entries of ``window_columns`` in row order, as CSR arrays
        ``(indptr, succ)``: the row at position i holds the positions of
        its j, ascending, in ``succ[indptr[i]:indptr[i + 1]]``.  Returns
        those and the column count c_j of each window state."""
        j, i, c = self.window_columns(states)
        order = np.argsort(i, kind="stable")
        return (np.searchsorted(i[order], np.arange(len(states) + 1)),
                j[order], c)

    def step_offsets(self) -> tuple[int, ...] | None:
        """Backward step offsets, ascending and distinct, when every Q row
        is the same offset law: row j is uniform on j + o for each o."""
        offs = self.base.pure_offsets()
        if offs is None:
            return None
        return tuple(sorted(-o for o in offs))

    def contains(self, j: int) -> bool:
        return self.base.contains(j)


def build_backward_kernel(m: TransitionRuleSet) -> BackwardKernel:
    """Backward kernel of a matrix whose columns are all finite."""
    w = m.divergent_witness()
    if w is not None:
        raise InfinitePreimages(w)
    return BackwardKernel(m)


def strongly_connected_components(indptr, succ) -> np.ndarray:
    """Tarjan's strongly connected components of the graph on the nodes
    0..n-1 whose node v steps to ``succ[indptr[v]:indptr[v + 1]]``.

    Depth-first searches start from the nodes in order, and each node gets
    the number of its component in the order they complete: first every
    component the search from node 0 reaches, ending with node 0's own.
    """
    ptr, out = np.asarray(indptr).tolist(), np.asarray(succ).tolist()
    n = len(ptr) - 1
    # a search from an extra node n, stepping to each node in turn, is one
    # search from each node not yet found; ``rank`` is a node's discovery
    # number while it is on the stack, -1 before and n + 1 once it is done
    rank, low, label = [-1] * n + [0], [0] * (n + 1), [0] * (n + 1)
    stack, work = [n], [(n, iter(range(n)))]
    found, done = 1, 0
    while work:
        v, it = work[-1]
        for w in it:
            r = rank[w]
            if r < 0:
                rank[w] = low[w] = found
                found += 1
                stack.append(w)
                work.append((w, iter(out[ptr[w]:ptr[w + 1]])))
                break
            if r < low[v]:
                low[v] = r
        else:
            # every successor of v is done
            work.pop()
            if work and low[v] < low[work[-1][0]]:
                low[work[-1][0]] = low[v]
            if low[v] == rank[v]:
                while True:
                    w = stack.pop()
                    rank[w], label[w] = n + 1, done
                    if w == v:
                        break
                done += 1
    return np.array(label[:n], np.int64)


def check_irreducible(kernel: BackwardKernel, window: int) -> tuple[bool, tuple[int, int] | None]:
    """Strong connectivity through the states with |i| <= window, read off
    the kernel's column table.

    Returns (True, None) or (False, (a, b)) where no directed path a -> b
    exists inside the window: b is the least state the first window state
    cannot reach, or else the least state that cannot reach it.
    """
    states = kernel.base.states(window)
    if not states:
        raise UnresolvableState("empty window")
    label = strongly_connected_components(*kernel.window_rows(states)[:2])
    # the components up to the root's own are exactly what the root reaches
    k = label[0]
    if label.max() > k:
        return False, (states[0], states[int(np.argmax(label > k))])
    if k > 0:
        return False, (states[int(np.argmax(label != k))], states[0])
    return True, None
