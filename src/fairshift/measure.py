"""Fair measures: stationary vectors of the backward kernel and what
follows from them (forward matrix, cylinder weights, entropy, fairness
checks, atomic orbits).

Exact arithmetic convention: a stationary vector is stored as positive
*weights* plus the total mass of the full chain.  Weights may be exact
fractions while the total is only known numerically (the factorial chain
has rational weights 1/(j-1)! with total e); every identity that matters
for fairness is a ratio of weights, so those checks stay exact whenever
the weights are exact.  A ``FairMeasure`` holds P in CSR arrays, and its
checks and sums are array reductions that add floats left to right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .chain import (BackwardKernel, InfinitePreimages, TransitionRuleSet,
                    strongly_connected_components)

__all__ = [
    "StationaryVector", "NoSummableSolution", "WindowExhausted",
    "SingularWindow",
    "SolveDiagnostics", "FairMeasure",
    "solve_stationary", "verify_stationary",
    "fair_measure_from", "cylinder_measure", "check_fair_on_cylinders",
    "fair_entropy", "integral_log_c", "AtomicOrbit", "find_atomic_fair_measures",
]

Number = Fraction | float


class EntropyDiverges(ArithmeticError):
    pass


@dataclass(frozen=True)
class SolveDiagnostics:
    """Per-window convergence evidence collected by solve_stationary."""

    windows: tuple[dict, ...] = ()
    outcome: str = ""

    def as_dict(self) -> dict:
        return {"outcome": self.outcome, "windows": [dict(w) for w in self.windows]}


@dataclass(frozen=True)
class StationaryVector:
    """Weights of a probability vector with pi Q = pi.

    ``weights[j] / total`` is the stationary probability of j.  ``total``
    covers the whole chain including any unmaterialised tail, so entries
    of a closed form are exact while a truncated solve carries
    ``total = 1.0`` and a tail bound.
    """

    weights: Mapping[int, Number]
    total: Number = 1
    provenance: str = "truncated"
    window: int | None = None
    tolerance: float | None = None
    tail_mass_bound: float = 0.0
    diagnostics: SolveDiagnostics | None = None

    def support(self) -> list[int]:
        return sorted(self.weights)

    def weight(self, j: int) -> Number:
        return self.weights.get(j, 0)

    def entry(self, j: int) -> float:
        return float(self.weights.get(j, 0)) / float(self.total)

    @property
    def ratios_exact(self) -> bool:
        return all(isinstance(w, (Fraction, int)) for w in self.weights.values())


@dataclass(frozen=True)
class NoSummableSolution:
    """Positive evidence that no summable stationary vector exists."""

    diagnostics: SolveDiagnostics
    note: str = ""


class SingularWindow(ArithmeticError):
    """No unique window solution: the window chain has several closed
    classes, or the pinned system failed to factorise."""


class WindowExhausted(RuntimeError):
    """Max window reached with neither convergence nor escape evidence."""

    def __init__(self, diagnostics: SolveDiagnostics):
        super().__init__("window budget exhausted without a verdict")
        self.diagnostics = diagnostics


# a closed class of at most this many states is solved as it is by a dense
# LU in numpy; a larger one is first lumped to its distinct rows of Q^T, and
# only a lumped system still larger imports scipy for a sparse LU
DENSE_SOLVE_MAX = 512


def _window_columns(kernel: BackwardKernel, states: list[int]):
    """The window's consecutive states as one slice of the kernel's column
    table, where a predecessor's offset, less the window's, is its position
    in the window.  Returns the positions of j and of i of the entries
    (i, j) inside the window, ascending by j and then i, and the column
    count c_j of each window state."""
    if not states:
        return (np.zeros(0, np.int64),) * 3
    table = kernel.columns(states[0], states[-1])
    first = states[0] - table.lo
    ptr = table.indptr[first:first + len(states) + 1]
    c = np.diff(ptr)
    pos = table.indices[ptr[0]:ptr[-1]] - first
    inside = (pos >= 0) & (pos < len(states))
    return np.repeat(np.arange(len(states)), c)[inside], pos[inside], c


def _window_chain(kernel: BackwardKernel, states: list[int]):
    """Transposed window chain Q^T, clipped to the window and renormalised.

    Every kernel row is uniform over the predecessors of its state, so a
    clipped row is uniform over the predecessors inside the window:
    column j of Q^T holds 1/c at each of the c window predecessors of j.
    States whose clipped row is empty are dropped (with cascade) so the
    window chain is well defined.  Returns the kept states, ascending,
    and Q^T over them as numpy CSC column arrays ``(indptr, indices,
    data)``: column j has its rows, ascending, in
    ``indices[indptr[j]:indptr[j+1]]``.
    """
    owner, pos, _ = _window_columns(kernel, states)
    window = np.asarray(states, dtype=np.int64)
    alive = np.ones(len(states), dtype=bool)
    while True:
        live = alive[pos] & alive[owner]
        c = np.bincount(owner[live], minlength=len(states))
        empty = alive & (c == 0)
        if not empty.any():
            break
        alive &= ~empty
        if not alive.any():
            raise InfinitePreimages(states[0])
    index = np.cumsum(alive) - 1
    indptr = np.concatenate(([0], np.cumsum(c[alive])))
    return window[alive], (indptr, index[pos[live]], 1.0 / c[owner[live]])


def _equal_rows(r: np.ndarray, c: np.ndarray, size: int):
    """Rows of a ``size``-row matrix with entries at ``(r, c)``, grouped
    by their columns.  Returns the group of each row, groups numbered in
    order of their first row, and the first row of each group."""
    order = np.lexsort((c, r))
    cols = c[order].tolist()
    ptr = np.searchsorted(r[order], np.arange(size + 1)).tolist()
    seen: dict[tuple, int] = {}
    group = np.fromiter((seen.setdefault(tuple(cols[ptr[i]:ptr[i + 1]]),
                                         len(seen)) for i in range(size)),
                        np.int64, size)
    return group, np.unique(group, return_index=True)[1]


def _stationary_of_window(states: np.ndarray, qt) -> np.ndarray:
    """Stationary vector of the window chain whose transpose is ``qt``.

    ``qt`` holds Q^T as the column arrays ``(indptr, indices, data)`` of
    ``_window_chain``.  The vector is unique exactly when the window chain
    has one closed class (found by ``strongly_connected_components``), and
    it vanishes off that class; several closed classes raise
    SingularWindow.  On the class, (Q^T - I) x = 0 is solved with the
    equation of the class state nearest 0 replaced by x_k = 1 (it is
    implied by the others, since every column of Q^T sums to one), so no
    dense normalisation row fills in the factors; x is rescaled to sum one.

    A class of more than ``DENSE_SOLVE_MAX`` states is first lumped:
    states with equal rows of Q^T have equal x (in a graph map's refined
    chain, every leg onto one arc has the same row), so one unknown y_g
    stands for each group g of equal rows, with the equation of the
    group's first state.  The lumped equations weighted by group size sum
    to zero, so the group of the state nearest 0 is pinned to y = 1 in
    the same way, and x = y[group].  The system, lumped or not, is solved
    by a dense LU when it has at most ``DENSE_SOLVE_MAX`` unknowns, else
    by scipy's sparse LU.  A factorisation that fails also raises
    SingularWindow.
    """
    indptr, indices, data = qt
    n = len(states)
    col = np.repeat(np.arange(n), np.diff(indptr))
    rows, ptr = indices.tolist(), indptr.tolist()
    succ = [rows[ptr[j]:ptr[j + 1]] for j in range(n)]
    label = np.empty(n, dtype=np.int64)
    for k, comp in enumerate(strongly_connected_components(range(n), succ)):
        label[comp] = k
    # q_ji > 0 is a step j -> i; a class with a step out is not closed
    closed = np.setdiff1d(label, label[col[label[indices] != label[col]]])
    if len(closed) > 1:
        raise SingularWindow(
            f"the stationary solve on the {n}-state window is "
            "singular: the window chain has more than one closed "
            "class")
    member = label == closed[0]
    cls = np.flatnonzero(member)
    k = int(np.argmin(np.abs(states[cls])))
    # a closed class steps only into itself: its columns are its block
    inner = member[col]
    at = np.cumsum(member) - 1
    r, c, v = at[indices[inner]], at[col[inner]], data[inner]
    group = np.arange(len(cls))
    if len(cls) > DENSE_SOLVE_MAX:
        # column j holds 1/c_j in every row, so a row is fixed by its columns
        group, first = _equal_rows(r, c, len(cls))
        mine = first[group[r]] == r
        r, c, v, k = group[r[mine]], group[c[mine]], v[mine], group[k]
    size = int(group.max()) + 1
    # the triplets of Q^T - I with row k replaced by the pin y_k = 1
    diag = np.arange(size)
    keep = r != k
    r = np.concatenate((r[keep], diag))
    c = np.concatenate((c[keep], diag))
    v = np.concatenate((v[keep], np.where(diag == k, 1.0, -1.0)))
    b = (diag == k).astype(float)
    if size <= DENSE_SOLVE_MAX:
        a = np.bincount(r * size + c, v, size * size).reshape(size, size)
        try:
            y = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            raise SingularWindow("window solve failed") from None
    else:
        from scipy.sparse import csc_matrix
        from scipy.sparse.linalg import spsolve

        y = spsolve(csc_matrix((v, (r, c)), shape=(size, size)), b)
    x = np.zeros(n)
    x[cls] = y[group]
    x = np.clip(x, 0.0, None)
    s = x.sum()
    if not np.isfinite(s) or s <= 0:
        raise SingularWindow("window solve failed")
    return x / s


def solve_stationary(kernel: BackwardKernel, tolerance: float = 1e-10,
                     max_window: int = 2 ** 14, start_window: int = 8,
                     ) -> StationaryVector | NoSummableSolution:
    """Truncated-window stationary solve of pi Q = pi.

    Windows [-N, N] grow geometrically.  Convergence requires the l1
    change between consecutive window solutions and the boundary mass
    (outside |i| > N/2) to drop below ``tolerance``.  When the boundary
    mass refuses to decay across three consecutive windows the escaping
    mass is taken as positive evidence that no summable solution exists
    (heuristic thresholds; see diagnostics).  Otherwise the window budget
    runs out and WindowExhausted is raised: verdict unknown, never a
    fabricated vector.
    """
    base = kernel.base
    reports: list[dict] = []
    boundary_hist: list[float] = []
    prev: dict[int, float] | None = None
    n = start_window
    if base.domain_finite():
        # a finite domain is solved whole in one shot; partial windows of a
        # finite chain would only manufacture spurious boundary loss
        n = max(n, abs(base.lo), abs(base.hi))
    else:
        # a half-line may start far from 0: the inner half [-n/2, n/2] of
        # the first window, outside which mass counts as boundary mass,
        # holds the domain's first state
        n = base.reaching(n)
    while True:
        whole = base.domain_finite() and base.lo >= -n and base.hi <= n
        window = base.states(n)
        states, qt = _window_chain(kernel, window)
        x = _stationary_of_window(states, qt)
        sol = {s: v for s, v in zip(states.tolist(), x.tolist()) if v > 0.0}
        boundary = _sum(x[(x > 0.0) & (np.abs(states) > n // 2)])
        if whole:
            boundary = 0.0
        # the window holds the last one, so its states hold both supports
        change = math.inf if prev is None else _sum(np.abs(np.array(
            [sol.get(s, 0.0) - prev.get(s, 0.0) for s in window])))
        indptr, indices, data = qt
        qx = np.bincount(indices, data * np.repeat(x, np.diff(indptr)),
                         minlength=len(x))
        residual = float(np.abs(qx - x).sum())
        reports.append({"window": n, "size": len(states), "boundary_mass": boundary,
                        "l1_change": None if change is math.inf else change,
                        "residual": residual})
        boundary_hist.append(boundary)
        converged = boundary < tolerance and (whole or change < tolerance)
        if converged:
            diag = SolveDiagnostics(tuple(reports), "converged")
            return StationaryVector(weights=sol, total=1.0, provenance="truncated",
                                    window=n, tolerance=tolerance,
                                    tail_mass_bound=boundary + (0.0 if change is math.inf else change),
                                    diagnostics=diag)
        if len(boundary_hist) >= 3:
            b1, b2, b3 = boundary_hist[-3:]
            floor = max(100 * tolerance, 1e-8)
            if b3 > floor and b1 > 0 and b2 > 0 and b2 >= 0.8 * b1 and b3 >= 0.8 * b2:
                diag = SolveDiagnostics(tuple(reports), "escaping-mass")
                return NoSummableSolution(diag, note="boundary mass not decaying "
                                          "across three consecutive windows")
        prev = sol
        if n >= max_window or whole:
            raise WindowExhausted(SolveDiagnostics(tuple(reports), "window-exhausted"))
        n = min(2 * n, max_window)


def _per_total(mu: FairMeasure, x: Number, count: int = 1) -> Number:
    """x / (total * count): a Fraction when the measure's weights and its
    total are exact, else a float."""
    total = mu.pi.total
    if mu.weights.dtype == object and isinstance(total, (Fraction, int)):
        return Fraction(x) / (total * count)
    return float(x) / (float(total) * count)


def _sum(values: np.ndarray):
    """The sum of ``values`` added from the left, or int 0 for none: numpy's
    ``sum`` pairs terms, Python 3.12's compensates, either moves last bits."""
    return np.cumsum(values).tolist()[-1] if len(values) else 0


def _row_sums(terms: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Each CSR row's sum of ``terms`` from 0, added from the left: one
    step per position of the longest row, over the rows that reach it,
    so one long row costs no grid of rows x longest row."""
    lens = np.diff(indptr)
    order = np.argsort(-lens, kind="stable")
    sums = np.zeros(len(lens), terms.dtype)
    reach = np.searchsorted(-lens[order], -np.arange(lens.max(initial=0)))
    for k, n in enumerate(reach.tolist()):
        sums[order[:n]] += terms[indptr[order[:n]] + k]
    return sums


def _logs(values: np.ndarray) -> np.ndarray:
    """``math.log`` (not ``np.log``, which can differ in the last bit) of
    each value, taken once per distinct value."""
    distinct, at = np.unique(values, return_inverse=True)
    return np.array(list(map(math.log, distinct.tolist())), float)[at]


@dataclass(frozen=True)
class FairMeasure:
    """Markov measure (pi, P) of a stationary vector and its kernel, on
    the vector's window: ``pi.window``, else the largest |state| of its
    support.  ``pi.tail_mass_bound`` covers the tail beyond, so every read
    of the measure (rows, cylinders, checks, sums) is over that window.

    The forward matrix P is derived, never passed: p_ij = w_j / (w_i c_j)
    = pi_j q_ji / pi_i is the window's slice of the kernel's column table,
    transposed and weighted, for the states i and j of nonzero weight.
    It is kept in CSR arrays over the window's ``states``, ascending:
    state k has weight ``weights[k]`` (0 off the support) and column count
    ``c[k]``, and its row holds the successors ``succ``, ascending, and
    the entries ``p`` from ``indptr[k]`` to ``indptr[k + 1]``.  P depends
    only on weight ratios, so no normaliser enters.  The dtype of
    ``weights`` and ``p`` decides exactness: Fractions (object) when every
    weight is a Fraction or an int, else float64.  Rows whose successors
    leave the window fall short of one by the tail mass.
    """

    pi: StationaryVector
    kernel: BackwardKernel
    window: int = field(init=False, compare=False)
    states: np.ndarray = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)
    c: np.ndarray = field(init=False, repr=False, compare=False)
    indptr: np.ndarray = field(init=False, repr=False, compare=False)
    succ: np.ndarray = field(init=False, repr=False, compare=False)
    p: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pi = self.pi
        window = pi.window
        if window is None:
            window = max(map(abs, pi.weights), default=0)
        states = self.base.states(window)
        lo, n = (states[0] if states else 0), len(states)
        exact = pi.ratios_exact
        values = list(pi.weights.values())
        values = np.array(list(map(Fraction, values)) if exact else values,
                          object if exact else float)
        keys = np.fromiter(pi.weights, np.int64, len(values)) - lo
        inside = (keys >= 0) & (keys < n)
        w = np.full(n, Fraction(0) if exact else 0.0, values.dtype)
        w[keys[inside]] = values[inside]
        # the table transposed: its entries ascending by i and then j
        j, i, c = _window_columns(self.kernel, states)
        order = np.argsort(i, kind="stable")
        i, j = i[order], j[order]
        live = (w[i] != 0) & (w[j] != 0)
        i, j = i[live], j[live]
        for name, value in (("window", window),
                            ("states", np.arange(lo, lo + n)),
                            ("weights", w), ("c", c),
                            ("indptr", np.searchsorted(i, np.arange(n + 1))),
                            ("succ", j + lo), ("p", w[j] / (w[i] * c[j]))):
            object.__setattr__(self, name, value)

    @property
    def base(self) -> TransitionRuleSet:
        return self.kernel.base

    def row(self, i: int) -> tuple[tuple[int, Number], ...]:
        """Row i of P as (j, p_ij) pairs, j ascending; empty off the rows."""
        k = int(np.searchsorted(self.states, i))
        if k == len(self.states) or self.states[k] != i:
            return ()
        a, b = self.indptr[k], self.indptr[k + 1]
        return tuple(zip(self.succ[a:b].tolist(), self.p[a:b].tolist()))

    @cached_property
    def _defects(self) -> tuple[np.ndarray, np.ndarray]:
        """Weight w_i and defect |(pi Q)_i - w_i| of each interior state of
        the window, found once per measure.

        A state is interior when its row is finite and inside the window,
        so the whole mass that pi Q puts on it, the sum of w_j / c_j over
        its successors j, is visible; the column table holds no rows, so
        that takes one rule-set query per state.  Exact when the weights
        are exact; in floats each w_j is scaled by the float 1 / c_j.
        """
        w, states, base = self.weights, self.states.tolist(), self.base

        def interior(i: int) -> bool:
            if base.row_unbounded(i):
                return False
            succ = base.successors(i)
            return not succ or states[0] <= succ[0] and succ[-1] <= states[-1]
        j, i, c = _window_columns(self.kernel, states)
        order = np.argsort(i, kind="stable")
        i, j = i[order], j[order]
        flow = _row_sums(w[j] / c[j] if w.dtype == object
                         else w[j] * (1.0 / c[j]),
                         np.searchsorted(i, np.arange(len(w) + 1)))
        inner = np.fromiter(map(interior, states), bool, len(states))
        return w[inner], np.abs(flow - w)[inner]


def fair_measure_from(pi: StationaryVector, kernel: BackwardKernel) -> FairMeasure:
    return FairMeasure(pi, kernel)


def verify_stationary(mu: FairMeasure) -> Number:
    """l1 residual of pi Q = pi over the interior states of the measure's
    window, those whose whole incoming mass is visible; a state of zero
    weight counts too.  Exact when the weights are exact."""
    return _per_total(mu, _sum(mu._defects[1]))


def cylinder_measure(mu: FairMeasure, word: Sequence[int]) -> Number:
    """Measure of the cylinder [word] = pi_{w0} * prod p_{w_k w_{k+1}}.

    As p_ij = w_j / (w_i c_j), the product telescopes to
    w_last / (total * prod_{k>=1} c_{w_k}).  Returns int 0 for
    inadmissible words: a symbol of zero weight, or a step that is no
    entry of P (off the rows, or beyond the window).  Exact (a Fraction)
    when both the weights and the total are exact.
    """
    if len(word) == 0:
        raise ValueError("word must have at least one symbol")
    if any(mu.pi.weight(s) == 0 for s in word):
        return 0
    count = 1
    for a, b in zip(word, word[1:]):
        preds = mu.kernel.preds(b)
        if max(abs(a), abs(b)) > mu.window or a not in preds:
            return 0
        count *= len(preds)
    return _per_total(mu, mu.pi.weight(word[-1]), count)


def check_fair_on_cylinders(mu: FairMeasure) -> Number:
    """Worst violation of mu([i . w]) = mu([w]) / c(w0), in measure units.

    P sets p_ij = w_j / (w_i c_j), so each preimage cell of a cylinder
    gets its equal share by construction.  What is left is whether
    (pi, P) is a measure at all: sum_j mu([i j]) = mu([i]) for each row,
    which holds exactly when pi Q = pi.  The check is the largest defect
    of ``verify_stationary``'s interior states of nonzero weight, as a
    state of zero weight has no row of P; a chain with only infinite rows,
    such as the factorial chain, has none to check.  A word's defect is a
    multiple of the defect of its last row, so no deeper word is checked.
    Exact for exact weights.
    """
    w, d = mu._defects
    return _per_total(mu, d[w != 0].max(initial=0))


def fair_entropy(mu: FairMeasure) -> float:
    """Truncated -sum pi_i p_ij log p_ij over the measure's window, added
    along the rows of P from the left.

    The tail beyond the window is bounded by ``entropy_tail_estimate``;
    callers report it alongside.
    """
    pi = np.repeat(mu.weights.astype(float) / float(mu.pi.total),
                   np.diff(mu.indptr))
    p = mu.p.astype(float)
    live = (pi != 0.0) & (p > 0.0)
    terms = np.zeros(len(p))
    terms[live] = pi[live] * p[live] * _logs(p[live])
    h = np.cumsum(np.append(0.0, -terms))
    if (h[mu.indptr] > 1e12).any():
        raise EntropyDiverges("partial sums exceed any plausible entropy")
    return h.tolist()[-1]


def entropy_tail_estimate(mu: FairMeasure) -> float:
    """Heuristic bound on the entropy mass outside the measure's window:
    the stationary tail mass times the largest row entropy, at least 1."""
    p = mu.p.astype(float)
    live = p > 0.0
    terms = np.zeros(len(p))
    terms[live] = p[live] * _logs(p[live])
    row_h = np.append(_row_sums(-terms, mu.indptr), 1.0).max()
    return mu.pi.tail_mass_bound * float(row_h)


def integral_log_c(mu: FairMeasure) -> float:
    """Integral of log c over the measure, truncated to its window."""
    live = mu.weights != 0
    terms = mu.weights[live].astype(float) / float(mu.pi.total) \
        * _logs(mu.c[live])
    return np.cumsum(np.append(0.0, terms)).tolist()[-1]


@dataclass(frozen=True)
class AtomicOrbit:
    """A totally invariant periodic orbit: the uniform measure on it is fair.

    Every state on the cycle has exactly one predecessor, the previous
    cycle state, so the orbit equals its own preimage.
    """

    states: tuple[int, ...]

    @property
    def period(self) -> int:
        return len(self.states)


def find_atomic_fair_measures(kernel: BackwardKernel, max_period: int,
                              window: int) -> list[AtomicOrbit]:
    """The cycles of at most ``max_period`` window states with one
    predecessor each, the previous cycle state, in forward order from
    their least state."""
    states = kernel.base.states(window)
    col, pos, c = _window_columns(kernel, states)
    # a state whose one predecessor is in the window steps back to it,
    # any other into the sink len(states)
    back = np.full(len(states) + 1, len(states))
    back[col[c[col] == 1]] = pos[c[col] == 1]
    at = walk = low = np.arange(len(states))
    period = np.zeros(len(states), np.int64)
    for k in range(1, max_period + 1):
        walk = back[walk]
        low = np.minimum(low, walk)
        period[(walk == at) & (period == 0)] = k
    cycles = []
    for s in np.flatnonzero((period > 0) & (low == at)).tolist():
        path = [s]                          # backward from the least state
        for _ in range(period[s] - 1):
            path.append(back[path[-1]])
        cycles.append(tuple(states[t] for t in path[:1] + path[:0:-1]))
    return [AtomicOrbit(cycle) for cycle in sorted(cycles)]
