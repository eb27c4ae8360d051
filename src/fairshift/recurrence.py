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
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .chain import BackwardKernel
from .measure import StationaryVector, WindowExhausted, solve_stationary

__all__ = [
    "SeriesResult", "series_test", "WindowInsufficient",
    "ReturnEstimate", "monte_carlo_return",
    "ClassifyPolicy", "Classification", "classify",
]

_Z95 = 1.959963984540054


class WindowInsufficient(RuntimeError):
    """The evolving series support escaped the maximal allowed window."""

    def __init__(self, origin: int, step: int, span: int, cap: int):
        super().__init__(
            f"series support from origin {origin} reached |state| = {span} "
            f"at step {step}, beyond the maximal window {cap}")
        self.origin = origin
        self.step = step
        self.span = span
        self.cap = cap


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


def series_test(kernel: BackwardKernel, n_max: int = 40, origin: int = 0,
                window: int | None = None,
                max_window: int = 2 ** 22) -> SeriesResult:
    """Evolve delta_origin exactly through Q and record the diagonal.

    All arithmetic is rational.  When every column count met along the
    way is the same constant c the vector is carried as integer
    numerators over c^t, which keeps large n_max cheap for the walk
    families.

    The support is tracked exactly, so the terms never depend on any
    truncation; ``window`` only guards against runaway supports.  It is
    doubled whenever the support outgrows it, and WindowInsufficient is
    raised once that doubling would pass ``max_window``.
    """
    base = kernel.base
    if not base.contains(origin):
        raise ValueError(f"origin {origin} outside domain")
    counts: dict[int, int] = {}

    def guard(step: int, support) -> None:
        nonlocal window
        if window is None:
            return
        span = max(abs(int(j)) for j in support)
        while span > window:
            window *= 2
            if window > max_window:
                raise WindowInsufficient(origin, step, span, max_window)

    def c_of(j: int) -> int:
        if j not in counts:
            counts[j] = len(base.predecessors(j))
        return counts[j]

    terms: list[Fraction] = [Fraction(1)]
    # integer fast path: v[j] numerators over denom
    vec: dict[int, int] = {origin: 1}
    denom = 1
    uniform = True
    c0 = None
    for step in range(1, n_max + 1):
        if uniform:
            nxt: dict[int, int] = {}
            for j, num in vec.items():
                c = c_of(j)
                if c0 is None:
                    c0 = c
                if c != c0:
                    uniform = False
                    break
                for i in kernel.base.predecessors(j):
                    nxt[i] = nxt.get(i, 0) + num
            if uniform:
                vec = nxt
                denom *= c0
                guard(step, vec)
                terms.append(Fraction(vec.get(origin, 0), denom))
                continue
            # fall through: convert to fractions and redo this step
            fvec = {j: Fraction(n, denom) for j, n in vec.items()}
        else:
            fvec = vec  # type: ignore[assignment]
        nxtf: dict[int, Fraction] = {}
        for j, w in fvec.items():
            c = c_of(j)
            share = w / c
            for i in base.predecessors(j):
                nxtf[i] = nxtf.get(i, Fraction(0)) + share
        vec = nxtf  # type: ignore[assignment]
        guard(step, vec)
        terms.append(vec.get(origin, Fraction(0)))
    sums = []
    acc = Fraction(0)
    for t in terms:
        acc += Fraction(t)
        sums.append(acc)
    return SeriesResult(origin, tuple(Fraction(t) for t in terms), tuple(sums))


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
        return {k: getattr(self, k) for k in
                ("origin", "trials", "horizon", "seed", "returned", "escaped",
                 "frequency", "wilson_low", "wilson_high",
                 "mean_return_time_of_returners")}


def _wilson(k: int, n: int) -> tuple[float, float]:
    if n == 0:
        return 0.0, 1.0
    z2 = _Z95 * _Z95
    p = k / n
    den = 1 + z2 / n
    centre = (p + z2 / (2 * n)) / den
    half = _Z95 * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n)) / den
    return max(0.0, centre - half), min(1.0, centre + half)


def monte_carlo_return(kernel: BackwardKernel, trials: int, horizon: int,
                       seed: int, origin: int = 0,
                       escape_radius: int | None = None) -> ReturnEstimate:
    """Estimate the probability of returning to the origin within the horizon.

    Offset walks are stepped as vectorised batches; anything else runs a
    per-trial loop with cached row tables.  ``escape_radius`` optionally
    abandons trials that wander further than the radius from the origin,
    counting them as non-returns; callers enable it only for walks with a
    clear drift, where the abandoned return mass is negligible.
    """
    offs = kernel.step_offsets()
    law = (1, {0: offs}) if offs is not None else kernel.residue_step_offsets()
    rng = np.random.default_rng(seed)
    if law is not None:
        period, laws = law
        steps = {r: np.asarray(o, dtype=np.int64) for r, o in laws.items()}
        returned = 0
        escaped = 0
        time_sum = 0
        alive = np.full(trials, origin, dtype=np.int64)
        for t in range(1, horizon + 1):
            if alive.size == 0:
                break
            if period == 1:
                st = steps[0]
                alive = alive + st[rng.integers(0, st.size, size=alive.size)]
            else:
                delta = np.empty_like(alive)
                res = alive % period
                for r, st in steps.items():
                    mask = res == r
                    k = int(mask.sum())
                    if k:
                        delta[mask] = st[rng.integers(0, st.size, size=k)]
                alive = alive + delta
            back = alive == origin
            hits = int(back.sum())
            returned += hits
            time_sum += t * hits
            alive = alive[~back]
            if escape_radius is not None:
                out = np.abs(alive - origin) > escape_radius
                escaped += int(out.sum())
                alive = alive[~out]
        lo, hi = _wilson(returned, trials)
        mean_rt = time_sum / returned if returned else None
        return ReturnEstimate(origin, trials, horizon, seed, returned,
                              escaped, returned / trials, lo, hi, mean_rt)

    returned = 0
    escaped = 0
    time_sum = 0
    for _ in range(trials):
        s = origin
        for t in range(1, horizon + 1):
            targets, cum = kernel.cumulative_row(s)
            s = targets[bisect_left(cum, rng.random() * cum[-1])]
            if s == origin:
                returned += 1
                time_sum += t
                break
            if escape_radius is not None and abs(s - origin) > escape_radius:
                escaped += 1
                break
    lo, hi = _wilson(returned, trials)
    mean_rt = time_sum / returned if returned else None
    return ReturnEstimate(origin, trials, horizon, seed, returned, escaped,
                          returned / trials, lo, hi, mean_rt)


@dataclass(frozen=True)
class ClassifyPolicy:
    tolerance: float = 1e-10
    max_window: int = 2 ** 14
    series_nmax: int = 360
    series_nmax_mixed: int = 60     # cap when column counts vary (rational path)
    trials: int = 20_000
    horizons: tuple[int, ...] = (100, 1_000, 10_000)
    seed: int = 0
    origin: int = 0
    transient_upper: float = 0.99
    series_growth_eps: float = 1e-6
    escape_radius: int = 256


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
    origin = policy.origin if base.contains(policy.origin) else base.spiral(1)[0]
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

    probe_c = {len(base.predecessors(s)) for s in base.spiral(32)}
    n_max = policy.series_nmax if len(probe_c) == 1 else policy.series_nmax_mixed
    series = series_test(kernel, n_max=n_max, origin=origin)
    growth = series.last_quarter_growth()
    evidence["series"] = series.as_dict()
    series_converged = growth < policy.series_growth_eps

    offs = kernel.step_offsets()
    drift = None if offs is None else sum(offs) / len(offs)
    radius = policy.escape_radius if (drift is not None and abs(drift) > 0.1) else None
    evidence["monte_carlo"] = {"escape_radius": radius, "estimates": []}
    uppers = []
    top_estimate = None
    for h in policy.horizons:
        est = monte_carlo_return(kernel, trials=policy.trials, horizon=h,
                                 seed=policy.seed, origin=origin,
                                 escape_radius=radius)
        evidence["monte_carlo"]["estimates"].append(est.as_dict())
        uppers.append(est.wilson_high)
        top_estimate = est
    mc_transient = all(u < policy.transient_upper for u in uppers)
    mc_recurrent = top_estimate is not None and top_estimate.wilson_high >= policy.transient_upper

    if solver_out == "summable":
        verdict = "positive-recurrent"
    elif mc_transient and series_converged:
        verdict = "transient"
    elif solver_out == "escaping-mass" and mc_recurrent and not series_converged:
        verdict = "null-recurrent"
    else:
        verdict = "unknown"
    return Classification(verdict, evidence, series)
