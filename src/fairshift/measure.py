"""Fair measures: stationary vectors of the backward kernel and what
follows from them (forward matrix, cylinder weights, entropy, fairness
checks, atomic orbits).

Exact arithmetic convention: a stationary vector is stored as positive
*weights* plus the total mass of the full chain.  Weights may be exact
fractions while the total is only known numerically (the factorial chain
has rational weights 1/(j-1)! with total e); every identity that matters
for fairness is a ratio of weights, so those checks stay exact whenever
the weights are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .chain import (BackwardKernel, InfinitePreimages, TransitionRuleSet,
                    strongly_connected_components)

__all__ = [
    "StationaryVector", "NoSummableSolution", "WindowExhausted",
    "SingularWindow",
    "SolveDiagnostics", "ForwardMatrix", "FairMeasure",
    "solve_stationary", "verify_stationary", "build_forward_matrix",
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


def _window_chain(kernel: BackwardKernel, states: list[int]):
    """Transposed window chain Q^T, clipped to the window and renormalised.

    Every kernel row is uniform over the predecessors of its state, so a
    clipped row is uniform over the predecessors inside the window:
    column j of Q^T holds 1/c at each of the c window predecessors of j.
    The window's consecutive states are one slice of the kernel's column
    table, where a predecessor's offset, less the window's, is its
    position in the window.  States whose clipped row is empty are
    dropped (with cascade) so the window chain is well defined.  Returns
    the kept states, ascending, and Q^T over them as numpy CSC column
    arrays ``(indptr, indices, data)``: column j has its rows, ascending,
    in ``indices[indptr[j]:indptr[j+1]]``.
    """
    table = kernel.columns(states[0], states[-1])
    first = states[0] - table.lo
    ptr = table.indptr[first:first + len(states) + 1]
    pos = table.indices[ptr[0]:ptr[-1]] - first
    owner = np.repeat(np.arange(len(states)), np.diff(ptr))
    inside = (pos >= 0) & (pos < len(states))
    pos[~inside] = 0
    window = np.asarray(states, dtype=np.int64)
    alive = np.ones(len(states), dtype=bool)
    while True:
        live = inside & alive[pos] & alive[owner]
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
        states, qt = _window_chain(kernel, base.states(n))
        x = _stationary_of_window(states, qt)
        sol = {s: v for s, v in zip(states.tolist(), x.tolist()) if v > 0.0}
        boundary = sum(v for s, v in sol.items() if abs(s) > n // 2)
        if whole:
            boundary = 0.0
        if prev is None:
            change = math.inf
        else:
            keys = set(prev) | set(sol)
            change = sum(abs(sol.get(s, 0.0) - prev.get(s, 0.0)) for s in keys)
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


def _interior(base: TransitionRuleSet, states: list[int]) -> list[int]:
    """States whose row is finite and contained in ``states``."""
    inside = set(states)
    return [i for i in states if not base.row_unbounded(i)
            and inside.issuperset(base.successors(i))]


def verify_stationary(pi: StationaryVector, kernel: BackwardKernel, window: int) -> Number:
    """l1 residual of pi Q = pi over the interior of the window.

    Interior states are those whose whole incoming mass is visible, i.e.
    their successor set is finite and contained in the window.  Exact
    when the weights are exact.
    """
    states = kernel.base.states(window)
    inside = set(states)
    zero = Fraction(0) if pi.ratios_exact else 0.0
    acc: dict[int, Number] = {}
    for j in states:
        wj = pi.weight(j)
        if wj == 0:
            continue
        for i, q in kernel.row(j):
            if i in inside:
                acc[i] = acc.get(i, zero) + wj * q
    residual = zero
    for i in _interior(kernel.base, states):
        residual += abs(acc.get(i, zero) - pi.weight(i))
    if isinstance(residual, Fraction) and isinstance(pi.total, (Fraction, int)):
        return residual / Fraction(pi.total)
    return float(residual) / float(pi.total)


@dataclass(frozen=True)
class ForwardMatrix:
    """Row-stochastic forward matrix p_ij = pi_j q_ji / pi_i."""

    rows: Mapping[int, tuple[tuple[int, Number], ...]]

    def row(self, i: int) -> tuple[tuple[int, Number], ...]:
        return self.rows.get(i, ())

    def prob(self, i: int, j: int) -> Number:
        return self._index.get((i, j), 0)

    @cached_property
    def _index(self) -> dict[tuple[int, int], Number]:
        # the first entry of a pair wins, as in a scan of the row
        return {(i, j): p for i, row in self.rows.items()
                for j, p in reversed(row)}


def build_forward_matrix(pi: StationaryVector, kernel: BackwardKernel,
                         window: int) -> ForwardMatrix:
    """Forward matrix on the window, exact whenever the weights are exact.

    p_ij = pi_j q_ji / pi_i depends only on weight ratios, so no
    normaliser enters.  Rows of states whose successors leave the window
    are truncated accordingly (their sums fall short by the tail mass).
    """
    base = kernel.base
    states = [s for s in base.states(window) if pi.weight(s) != 0]
    rows: dict[int, tuple[tuple[int, Number], ...]] = {}
    for i in states:
        wi = pi.weight(i)
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
    return ForwardMatrix(rows)


@dataclass(frozen=True)
class FairMeasure:
    """Markov measure (pi, P) together with the kernel it came from."""

    pi: StationaryVector
    forward: ForwardMatrix
    kernel: BackwardKernel

    @property
    def base(self) -> TransitionRuleSet:
        return self.kernel.base


def fair_measure_from(pi: StationaryVector, kernel: BackwardKernel,
                      window: int) -> FairMeasure:
    return FairMeasure(pi, build_forward_matrix(pi, kernel, window), kernel)


def cylinder_measure(mu: FairMeasure, word: Sequence[int]) -> Number:
    """Measure of the cylinder [word] = pi_{w0} * prod p_{w_k w_{k+1}}.

    Returns 0 for inadmissible words.  Exact (a Fraction) when both the
    weights and the total are exact.
    """
    if len(word) == 0:
        raise ValueError("word must have at least one symbol")
    w0 = word[0]
    wgt = mu.pi.weight(w0)
    if wgt == 0:
        return 0
    acc: Number = wgt
    for a, b in zip(word, word[1:]):
        p = mu.forward.prob(a, b)
        if p == 0:
            return 0
        acc = acc * p
    if isinstance(acc, Fraction) and isinstance(mu.pi.total, (Fraction, int)):
        return acc / Fraction(mu.pi.total)
    return float(acc) / float(mu.pi.total)


def check_fair_on_cylinders(mu: FairMeasure, m: TransitionRuleSet,
                            depth: int, window: int) -> Number:
    """Worst violation of mu([i . w]) = mu([w]) / c(w0), in measure units.

    ``build_forward_matrix`` sets p_ij = w_j / (w_i c_j), so each preimage
    cell of a cylinder gets its equal share by construction.  What is left
    is whether (pi, P) is a measure at all: sum_j mu([i j]) = mu([i]) for
    each row, which holds exactly when pi Q = pi.  The check is the
    largest |sum_j w_i p_ij - w_i| / total over the window states whose
    row is finite and inside the window, as in ``verify_stationary``; a
    state of zero weight has no row of P, and a chain with only infinite
    rows, such as the factorial chain, has none to check.  ``depth`` does
    not change the answer: a word's defect is a multiple of the defect of
    its last row.  Exact for exact weights.
    """
    zero = Fraction(0) if mu.pi.ratios_exact else 0.0
    worst = zero
    for i in _interior(m, m.states(window)):
        wi = mu.pi.weight(i)
        out = sum((wi * p for _, p in mu.forward.row(i)), zero)
        worst = max(worst, abs(out - wi))
    if isinstance(worst, Fraction) and isinstance(mu.pi.total, (Fraction, int)):
        return worst / Fraction(mu.pi.total)
    return float(worst) / float(mu.pi.total)


def fair_entropy(mu: FairMeasure, window: int) -> float:
    """Truncated -sum pi_i p_ij log p_ij over the window.

    The tail beyond the window is bounded by the stationary tail mass
    times the largest row entropy seen; callers report it alongside.
    """
    h = 0.0
    for i in mu.pi.support():
        if abs(i) > window:
            continue
        pi_i = mu.pi.entry(i)
        if pi_i == 0.0:
            continue
        for j, p in mu.forward.row(i):
            pf = float(p)
            if pf > 0.0:
                h -= pi_i * pf * math.log(pf)
        if h > 1e12:
            raise EntropyDiverges("partial sums exceed any plausible entropy")
    return h


def entropy_tail_estimate(mu: FairMeasure, window: int) -> float:
    """Heuristic bound on the entropy mass outside the window."""
    row_h = 0.0
    for i in mu.pi.support():
        s = 0.0
        for _, p in mu.forward.row(i):
            pf = float(p)
            if pf > 0.0:
                s -= pf * math.log(pf)
        row_h = max(row_h, s)
    return mu.pi.tail_mass_bound * max(row_h, 1.0)


def integral_log_c(mu: FairMeasure, m: TransitionRuleSet, window: int) -> float:
    """Integral of log c over the measure, truncated to the window."""
    total = 0.0
    for i in mu.pi.support():
        if abs(i) > window:
            continue
        c = m.column_count(i)
        if c is math.inf:
            raise InfinitePreimages(i)
        total += mu.pi.entry(i) * math.log(c)
    return total


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


def find_atomic_fair_measures(m: TransitionRuleSet, max_period: int,
                              window: int) -> list[AtomicOrbit]:
    states = m.states(window)
    unique_pred: dict[int, int] = {}
    for s in states:
        if m.column_count(s) == 1:
            unique_pred[s] = m.predecessors(s)[0]
    orbits: set[tuple[int, ...]] = set()
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
    return [AtomicOrbit(c) for c in sorted(orbits)]
