"""Recurrence classification of backward kernels.

Three independent lines of evidence feed the verdict:

* the truncated-window stationary solve (summable solution or escaping mass),
* exact rational partial sums of the return series sum_n (Q^n)_oo,
* seeded Monte Carlo return-frequency estimates with Wilson intervals.

Positive recurrence is only ever declared on solver success.  Transience
needs the Monte Carlo and series signals to agree.  Null recurrence is
escaping mass plus recurrence signals.  Anything else stays unknown.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

import numpy as np

from .chain import BackwardKernel, StuckWalk
from .measure import StationaryVector, WindowExhausted, solve_stationary

__all__ = [
    "SeriesResult", "series_test",
    "ReturnEstimate", "monte_carlo_return",
    "ClassifyPolicy", "Classification", "classify",
]

_Z95 = 1.959963984540054


@dataclass(frozen=True)
class SeriesResult:
    """Exact diagonal powers (Q^n)_oo and their partial sums."""

    origin: int
    terms: tuple[Fraction, ...]          # n = 0 .. n_max
    partial_sums: tuple[Fraction, ...]

    def last_quarter_growth(self) -> float:
        n = len(self.terms) - 1
        cut = n - n // 4
        return float(self.partial_sums[n] - self.partial_sums[cut])

    def as_dict(self, keep: int = 12) -> dict:
        return {
            "origin": self.origin,
            "n_max": len(self.terms) - 1,
            "first_terms": [str(t) for t in self.terms[:keep]],
            "partial_sum": float(self.partial_sums[-1]),
            "last_quarter_growth": self.last_quarter_growth(),
        }


def series_test(kernel: BackwardKernel, n_max: int = 40,
                origin: int = 0) -> SeriesResult:
    """Evolve delta_origin exactly through Q and record the diagonal.

    The vector is carried as integer numerators over one common
    denominator.  Each step multiplies the denominator by the lcm L of
    the column counts on the support and sends num_j * L / c_j to every
    predecessor of j.  When every count is the same c, as on the walk
    families, L = c, which keeps large n_max cheap.  The columns are read
    from the kernel's column table over the support's range.  The
    support is tracked exactly, so the terms never depend on any
    truncation.  A support state without predecessors raises StuckWalk.
    """
    if not kernel.contains(origin):
        raise ValueError(f"origin {origin} outside domain")
    terms: list[Fraction] = [Fraction(1)]
    rows: dict[int, tuple[list[int], int]] = {}
    vec: dict[int, int] = {origin: 1}       # numerators over denom
    denom = 1
    for _ in range(n_max):
        try:
            counts = {rows[j][1] for j in vec}
        except KeyError:        # the support left the table's range
            rows = kernel.columns(min(vec), max(vec)).rows()
            counts = {rows[j][1] for j in vec}
        lcm = math.lcm(*counts)
        if lcm == 0:
            j = next(j for j in vec if not rows[j][1])
            raise StuckWalk(f"state {j} has no predecessors; "
                            "backward walk is stuck")
        nxt: dict[int, int] = {}
        for j, num in vec.items():
            preds, c = rows[j]
            share = num * (lcm // c)
            for i in preds:
                nxt[i] = nxt.get(i, 0) + share
        vec = nxt
        denom *= lcm
        terms.append(Fraction(vec.get(origin, 0), denom))
    return SeriesResult(origin, tuple(terms), tuple(accumulate(terms)))


@dataclass(frozen=True)
class ReturnEstimate:
    """Monte Carlo estimate of P(return to origin within horizon)."""

    origin: int
    trials: int
    horizon: int
    seed: int
    returned: int
    escaped: int            # trials cut by the escape radius, counted as no-return
    frequency: float
    wilson_low: float
    wilson_high: float
    mean_return_time_of_returners: float | None   # None when nothing returned

    def as_dict(self) -> dict:
        return asdict(self)


def _wilson(k: int, n: int) -> tuple[float, float]:
    z2 = _Z95 * _Z95
    p = k / n
    den = 1 + z2 / n
    centre = (p + z2 / (2 * n)) / den
    half = _Z95 * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n)) / den
    return max(0.0, centre - half), min(1.0, centre + half)


def monte_carlo_return(kernel: BackwardKernel, trials: int,
                       horizons: Sequence[int], seed: int, origin: int = 0,
                       escape_radius: int | None = None,
                       ) -> list[ReturnEstimate]:
    """Estimate the probability of returning to the origin within each horizon.

    All trials step together as one batch of walkers, held as offsets
    into the kernel's column table (``BackwardKernel.columns``), which
    grows as they spread.  Each step draws one uniform u per walker and
    moves the walker at offset k to ``indices[indptr[k] + int(u * c_k)]``:
    the draw ``preds[int(u * c)]`` of ``sample_backward``.  One walk runs
    to the largest horizon and is read off at each horizon, in the order
    given.  A walker on a state without predecessors raises StuckWalk.
    ``escape_radius`` abandons trials that wander further than the radius
    from the origin, counting them as non-returns; callers enable it only
    for walks with a clear drift, where that return mass is negligible.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if any(h < 1 for h in horizons):
        raise ValueError(f"horizons must be at least 1, got {list(horizons)}")
    rng = np.random.default_rng(seed)
    table, zero = None, origin          # zero: the state at offset 0
    alive = np.zeros(trials, dtype=np.int64)
    r = escape_radius or 0
    returned = escaped = time_sum = t = 0
    unchecked = 0       # steps left before the walkers' range is checked
    done: dict[int, ReturnEstimate] = {}
    for horizon in sorted(set(horizons)):
        while t < horizon and alive.size:
            t += 1
            if not unchecked:
                lo, hi = int(alive.min()) + zero, int(alive.max()) + zero
                grown = kernel.columns(lo, hi)
                if grown is not table:
                    alive += zero - grown.lo
                    table, zero = grown, grown.lo
                    starts, indices = table.indptr[:-1], table.indices
                    c = np.diff(table.indptr)
                    counts, stuck = c.astype(np.float64), not c.all()
                    # the longest one-step move, at least 1
                    reach = int(np.abs(indices - np.repeat(
                        np.arange(c.size), c)).max(initial=1))
                    home, near, far = (origin + d - zero for d in (0, -r, r))
                unchecked = min(lo - table.lo, table.hi - hi) // reach + 1
            unchecked -= 1
            if stuck:       # walkers are never outside the domain
                at = (counts.take(alive) == 0).nonzero()[0]
                if at.size:
                    raise StuckWalk(f"state {alive[at[0]] + zero} has no "
                                    "predecessors; backward walk is stuck")
            u = rng.random(alive.size)
            u *= counts.take(alive)
            at = u.astype(np.int64)
            del u       # at most three walker-sized arrays at once: peak RSS
            at += starts.take(alive)
            alive = indices.take(at)
            back = alive == home
            hits = int(np.count_nonzero(back))
            if hits:
                returned += hits
                time_sum += t * hits
                alive = alive[~back]
            if escape_radius is not None:
                out = (alive < near) | (alive > far)
                gone = int(np.count_nonzero(out))
                if gone:
                    escaped += gone
                    alive = alive[~out]
        lo, hi = _wilson(returned, trials)
        done[horizon] = ReturnEstimate(
            origin, trials, horizon, seed, returned, escaped,
            returned / trials, lo, hi, time_sum / returned if returned else None)
    return [done[h] for h in horizons]


# fixed parts of every verdict; ClassifyPolicy holds what callers set
ORIGIN = 0
TRANSIENT_UPPER = 0.99
SERIES_GROWTH_EPS = 1e-6
ESCAPE_RADIUS = 256


@dataclass(frozen=True)
class ClassifyPolicy:
    tolerance: float = 1e-10
    max_window: int = 2 ** 14
    series_nmax: int = 360
    series_nmax_mixed: int = 60     # cap when column counts vary: bounds lcm growth
    trials: int = 20_000
    horizons: tuple[int, ...] = (100, 1_000, 10_000)
    seed: int = 0


@dataclass(frozen=True)
class Classification:
    verdict: str                    # positive-recurrent | null-recurrent | transient | unknown
    evidence: dict = field(default_factory=dict)
    series: SeriesResult | None = None      # the exact return series behind the evidence

    @property
    def has_fair_measure(self) -> bool | None:
        if self.verdict == "positive-recurrent":
            return True
        if self.verdict in ("null-recurrent", "transient"):
            return False
        return None


def classify(kernel: BackwardKernel, policy: ClassifyPolicy = ClassifyPolicy()) -> Classification:
    """Combine solver, series and Monte Carlo evidence into a verdict."""
    base = kernel.base
    origin = ORIGIN if base.contains(ORIGIN) else base.spiral(1)[0]
    evidence: dict = {"policy": {
        "tolerance": policy.tolerance, "max_window": policy.max_window,
        "series_nmax": policy.series_nmax, "trials": policy.trials,
        "horizons": list(policy.horizons), "seed": policy.seed,
        "origin": origin,
    }}

    solver_out: str
    try:
        sol = solve_stationary(kernel, tolerance=policy.tolerance,
                               max_window=policy.max_window)
    except WindowExhausted as exc:
        solver_out = "window-exhausted"
        evidence["solver"] = exc.diagnostics.as_dict()
    else:
        if isinstance(sol, StationaryVector):
            solver_out = "summable"
            evidence["solver"] = sol.diagnostics.as_dict() if sol.diagnostics else {}
        else:
            solver_out = "escaping-mass"
            evidence["solver"] = sol.diagnostics.as_dict()
            evidence["solver"]["note"] = sol.note
    evidence["solver"]["outcome"] = solver_out

    probe_c = {len(kernel.preds(s)) for s in base.spiral(32)}
    n_max = policy.series_nmax if len(probe_c) == 1 else policy.series_nmax_mixed
    series = series_test(kernel, n_max=n_max, origin=origin)
    evidence["series"] = series.as_dict()
    # zero growth over a last quarter that is empty or holds only zero
    # (parity) terms certifies nothing, unless the walk never returns
    n = len(series.terms) - 1
    quarter = series.terms[n - n // 4 + 1:]
    series_converged = (series.last_quarter_growth() < SERIES_GROWTH_EPS
                        and bool(quarter)
                        and (any(quarter) or not any(series.terms[1:])))

    offs = kernel.step_offsets()
    drift = None if offs is None else sum(offs) / len(offs)
    radius = ESCAPE_RADIUS if (drift is not None and abs(drift) > 0.1) else None
    estimates = monte_carlo_return(kernel, policy.trials, policy.horizons,
                                   policy.seed, origin=origin,
                                   escape_radius=radius)
    evidence["monte_carlo"] = {"escape_radius": radius, "estimates":
                               [e.as_dict() for e in estimates]}
    mc_transient = bool(estimates) and all(
        e.wilson_high < TRANSIENT_UPPER for e in estimates)
    mc_recurrent = bool(estimates) and max(  # the largest horizon decides
        estimates, key=lambda e: e.horizon).wilson_high >= TRANSIENT_UPPER

    if solver_out == "summable":
        verdict = "positive-recurrent"
    elif mc_transient and series_converged:
        verdict = "transient"
    elif solver_out == "escaping-mass" and mc_recurrent and not series_converged:
        verdict = "null-recurrent"
    else:
        verdict = "unknown"
    return Classification(verdict, evidence, series)
