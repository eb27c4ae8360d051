"""Seeded sampling of backward trajectories and their path statistics.

A backward path y_0, y_1, ... follows the kernel Q: each step moves to a
uniformly chosen predecessor of the current state.  Reading a window of
the path backwards, (y_n, y_{n-1}, ..., y_{n-k}), gives the forward word
seen by the fair measure, which is how the cylinder frequencies below
are counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import BackwardKernel, StuckWalk
from .measure import FairMeasure, cylinder_measure, integral_log_c

__all__ = [
    "BackwardPath", "sample_backward", "sample_paths", "path_statistics",
    "PathStats", "geo_mean_series", "geo_mean_target", "geo_mean_convergence",
    "GeoMeanReport", "equidistribution_test", "equidistribution_report",
]

_DRAW_BLOCK = 4096      # uniforms per draw; the stream does not depend on it


@dataclass(frozen=True)
class BackwardPath:
    states: np.ndarray          # length n+1, states[0] == start
    start: int
    seed: int
    chain: str = "custom"

    def __len__(self) -> int:
        return int(self.states.size)

    def origin_visits(self, origin: int | None = None) -> np.ndarray:
        target = self.start if origin is None else origin
        return np.nonzero(self.states == target)[0]


def sample_backward(kernel: BackwardKernel, start: int, length: int,
                    seed: int = 0) -> BackwardPath:
    """One backward trajectory of the given length from ``start``.

    Each step takes ``preds[int(u * c)]`` for a uniform u and column
    count c: in one vectorised pass over the ascending offsets when the
    kernel has one offset law everywhere, else from the rows of the
    kernel's column table, grown when the walk leaves its range.  The
    stream is a deterministic function of the seed.
    """
    if not kernel.contains(start):
        raise ValueError(f"start state {start} outside domain")
    rng = np.random.default_rng(seed)
    out = np.empty(length + 1, dtype=np.int64)
    out[0] = s = start
    offs = kernel.step_offsets()
    if offs is not None:
        steps = np.asarray(offs, dtype=np.int64)
        u = rng.random(length)
        u *= steps.size
        picks = steps[u.astype(np.int64)]
        np.cumsum(picks, out=out[1:])
        out[1:] += start
        return BackwardPath(out, start, seed, kernel.base.name)

    rows = kernel.columns(start, start).rows()
    preds, c = rows[start]
    for lo in range(1, length + 1, _DRAW_BLOCK):
        block: list[int] = []
        append = block.append
        draws = iter(rng.random(min(_DRAW_BLOCK, length + 1 - lo)).tolist())
        while True:
            try:
                for u in draws:
                    s = preds[int(u * c)]
                    append(s)
                    preds, c = rows[s]
                break
            except KeyError:        # the walk left the table's range
                rows = kernel.columns(s, s).rows()
                preds, c = rows[s]
            except IndexError:      # an empty column
                raise StuckWalk(f"state {s} has no predecessors; "
                                "backward walk is stuck") from None
        out[lo:lo + len(block)] = block
    return BackwardPath(out, start, seed, kernel.base.name)


def sample_paths(kernel: BackwardKernel, start: int, length: int,
                 n_paths: int, seed: int = 0) -> list[BackwardPath]:
    """Independent paths with seeds seed, seed+1, ..."""
    return [sample_backward(kernel, start, length, seed + k)
            for k in range(n_paths)]


@dataclass(frozen=True)
class PathStats:
    length: int
    visit_frequencies: dict[int, float]
    cylinder_frequencies: dict[tuple[int, ...], float]
    geo_mean_c: float                  # final running geometric mean of c
    last_visit: dict[int, int]         # state -> last index along the path

    def frequency(self, word: tuple[int, ...]) -> float:
        return self.cylinder_frequencies.get(tuple(word), 0.0)


def _ranked(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The path's distinct states, ascending, and each step's index among them.

    What ``np.unique`` plus ``np.searchsorted`` give, without a sort when
    the states fill a range shorter than the path, as a backward path's
    states do: one ``np.bincount`` of the offsets from the least state
    finds the visited states, and the offset is the index itself when no
    state of the range is skipped (else ``np.searchsorted`` on the visited
    states).  Any other path, and an empty one, goes through ``np.unique``.
    No more path-sized arrays are held than that sort-based ranking holds.
    """
    if states.size:
        lo = int(states.min())
        span = int(states.max()) - lo
        if span < states.size:
            offsets = states - lo
            vals = np.flatnonzero(np.bincount(offsets))
            vals += lo
            if vals.size == span + 1:
                return vals, offsets
            del offsets     # at most one path-sized array at a time
            return vals, np.searchsorted(vals, states)
    vals = np.unique(states)
    return vals, np.searchsorted(vals, states)


def _word_counts(states: np.ndarray, depth: int) -> dict[tuple[int, ...], int]:
    """Count forward words of length 1..depth read backwards along the path.

    Words are counted as integer keys.  The states are factorized to dense
    ids in [0, R); the key of the length-m word ending at step t extends
    the code of the length-(m-1) word there by the id of states[t-m+1]
    (key = code * R + id), and the distinct keys are numbered again before
    the next length, so every key stays below n*R.  Codes follow the
    sorted order of the states, so keys sort like their words and the
    counts come out in lexicographic word order.
    """
    n = states.size
    vals, ids = _ranked(states)
    codes = ids                                  # entry i: word ending at i+m-1
    words = vals[:, None]                        # row c: the word of code c
    counts: dict[tuple[int, ...], int] = {}
    for m in range(1, min(depth, n) + 1):
        if m > 1:
            codes = codes[1:] * vals.size
            codes += ids[:n - m + 1]
            keys = np.unique(codes)
            codes = np.searchsorted(keys, codes)
            prefix, last = np.divmod(keys, vals.size)
            words = np.column_stack([words[prefix], vals[last]])
        counts.update(zip(map(tuple, words.tolist()),
                          np.bincount(codes).tolist()))
    return counts


def path_statistics(path: BackwardPath, m, depth: int = 1) -> PathStats:
    """Visit and cylinder frequencies along one path.

    A length-m word's frequency is its count over the n-m+1 windows
    divided by that window count.  ``m`` is the transition rule set of the
    sampled chain, used for the column counts in the geometric mean.
    """
    states = path.states
    n = states.size
    vals, cnts = np.unique(states, return_counts=True)
    visits = {int(v): int(c) / n for v, c in zip(vals, cnts)}
    counts = _word_counts(states, depth)
    freqs = {w: c / (n - len(w) + 1) for w, c in counts.items()}
    logs = sum(math.log2(len(m.predecessors(int(v)))) * int(c)
               for v, c in zip(vals, cnts))
    rev_vals, rev_first = np.unique(states[::-1], return_index=True)
    last = {int(v): int(n - 1 - i) for v, i in zip(rev_vals, rev_first)}
    return PathStats(n - 1, visits, freqs, float(2.0 ** (logs / n)), last)


def geo_mean_series(path: BackwardPath, kernel: BackwardKernel) -> np.ndarray:
    """Running geometric mean of the column counts along the path.

    Entry t is (c(y_0) * ... * c(y_t)) ** (1/(t+1)); for a fair chain this
    converges to exp of the integral of log c.
    """
    states = path.states
    vals, ids = _ranked(states)
    # base-2 logs keep the arithmetic exact when every count is a power of
    # two (cumulative sums of small integers are exact in floats)
    logc = np.array([np.log2(len(kernel.preds(v)))
                     for v in vals.tolist()])
    logs = logc[ids]
    del ids     # the peak stays at three path-sized arrays
    return np.exp2(np.cumsum(logs) / np.arange(1, states.size + 1))


def _admissible_words(mu: FairMeasure, depth: int) -> list[tuple[int, ...]]:
    base = mu.base
    support = sorted(mu.pi.support())
    bound = max(abs(support[0]), abs(support[-1]))
    words: list[tuple[int, ...]] = []
    stack = [(s,) for s in support]
    supp = set(support)
    while stack:
        w = stack.pop()
        words.append(w)
        if len(w) < depth:
            for j in base.successors(w[-1], within=bound):
                if j in supp:
                    stack.append(w + (j,))
    return words


def equidistribution_test(paths: list[BackwardPath], mu: FairMeasure,
                          depth: int = 1) -> float:
    """Max discrepancy |empirical - mu| over admissible words up to depth."""
    return equidistribution_report(paths, mu, depth)["max_discrepancy"]


@dataclass(frozen=True)
class GeoMeanReport:
    means: np.ndarray
    target: float

    def final(self) -> float:
        return float(self.means[-1])


def geo_mean_target(mu: FairMeasure) -> float:
    """Limit of the running geometric means: exp of the integral of log c."""
    return math.exp(integral_log_c(mu, mu.base, window=math.inf))


def geo_mean_convergence(path: BackwardPath, mu: FairMeasure) -> GeoMeanReport:
    """Running geometric means of c along the path plus their limit target."""
    return GeoMeanReport(geo_mean_series(path, mu.kernel), geo_mean_target(mu))


def equidistribution_report(paths: list[BackwardPath], mu: FairMeasure,
                            depth: int = 1) -> dict:
    """Discrepancy between already-sampled paths and the fair measure.

    Returns the worst absolute discrepancy |empirical - mu| over
    admissible words up to the given depth, plus a small per-word table
    of the worst offenders.  Frequencies are pooled over the paths; words
    the paths never visit still contribute their measure, so a short or
    stuck sample shows up as a large discrepancy rather than a silent pass.
    """
    pooled: dict[tuple[int, ...], int] = {}
    windows = [0] * (depth + 1)
    for p in paths:
        for w, c in _word_counts(p.states, depth).items():
            pooled[w] = pooled.get(w, 0) + c
        for m in range(1, depth + 1):
            windows[m] += max(p.states.size - m + 1, 0)
    worst = 0.0
    table = []
    for w in _admissible_words(mu, depth):
        emp = pooled.get(w, 0) / max(windows[len(w)], 1)   # 0 if no windows
        ref = float(cylinder_measure(mu, w))
        worst = max(worst, abs(emp - ref))
        table.append({"word": list(w), "empirical": emp, "measure": ref})
    table.sort(key=lambda e: (-abs(e["empirical"] - e["measure"]), e["word"]))
    return {
        "paths": len(paths), "length": int(paths[0].states.size - 1),
        "depth": depth, "max_discrepancy": worst, "words": len(table),
        "worst_words": table[:10],
    }
