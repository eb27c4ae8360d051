"""Seeded backward trajectories, their geometric means and equidistribution.

A backward path y_0, y_1, ... follows the kernel Q: each step moves to a
uniformly chosen predecessor of the current state.  Reading a window of
the path backwards, (y_n, y_{n-1}, ..., y_{n-k}), gives the forward word
seen by the fair measure, which is how the cylinder frequencies below
are counted.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .chain import BackwardKernel, StuckWalk
from .measure import FairMeasure, cylinder_measure, integral_log_c

__all__ = [
    "BackwardPath", "sample_backward", "sample_paths", "geo_mean_series",
    "geo_mean_target", "equidistribution_report",
]

_BLOCK = 1 << 14    # uniforms per draw; no block size changes the stream


@dataclass(frozen=True)
class BackwardPath:
    states: np.ndarray          # length n+1, states[0] == start
    start: int
    seed: int

    def origin_visits(self) -> np.ndarray:
        return np.nonzero(self.states == self.start)[0]


def sample_backward(kernel: BackwardKernel, start: int, length: int,
                    seed: int = 0) -> BackwardPath:
    """One backward trajectory of the given length from ``start``.

    Each step takes ``preds[int(u * c)]`` for a uniform u and column
    count c.  While the visited states follow one column law (see
    ``_column_law``), as on the walks, origin-broadcast and the full
    shifts, the steps are taken in one vectorised pass per block of
    uniforms.  A range with no single law, as on five-three, the
    factorial chain or next to a bound that clips the rows, hands the
    uniforms it has not used to a loop that steps one state at a time
    through the kernel's ``cols``, filled over the walk's range when the
    walk reaches a state not yet in it.  Both take the same steps, so the
    stream is one deterministic function of the seed, and on a fresh
    kernel the table grows as under the stepping loop alone.
    """
    if not kernel.contains(start):
        raise ValueError(f"start state {start} outside domain")
    rng = np.random.default_rng(seed)
    out = np.empty(length + 1, dtype=np.int64)
    out[0] = start
    t, u = 0, np.empty(0)
    law = _column_law(kernel, start) if length else None
    while law is not None and t < length:
        lo, hi = law[:2]
        if lo is not None and not lo <= out[t] <= hi:
            law = _column_law(kernel, int(out[t]))
            continue
        if not u.size:
            u = rng.random(min(_BLOCK, length - t))
        n = _follow(law, u, out[t:t + u.size + 1])
        t += n
        u = u[n:]
    _step(kernel, out, t, u, rng)
    return BackwardPath(out, start, seed)


def _column_law(kernel: BackwardKernel, s: int):
    """The column law of a range of states that holds ``s``, or None.

    A law ``(lo, hi, absolute, values)`` says that every state j of
    lo..hi has ``values.size`` predecessors and that its k-th, ascending,
    is ``values[k]`` when ``absolute[k]`` and ``j + values[k]`` otherwise.
    When the rules certify one offset law on Z, the range is all of Z
    (lo and hi None) and every entry is relative; else the law is read
    off the kernel's column table, grown to hold s, over its in-domain
    states, and there is none when their counts differ or are 0, or an
    entry is neither fixed nor at a fixed offset.
    """
    offs = kernel.step_offsets()
    if offs is not None:
        return None, None, np.zeros(len(offs), bool), np.array(offs, np.int64)
    t = kernel.columns(s, s)
    m = kernel.base
    lo = t.lo if m.lo is None else max(t.lo, m.lo)
    hi = t.hi if m.hi is None else min(t.hi, m.hi)
    ptr = t.indptr[lo - t.lo:hi - t.lo + 2]
    c = int(ptr[1] - ptr[0])
    if not c or (np.diff(ptr) != c).any():
        return None
    preds = t.indices[ptr[0]:ptr[-1]].reshape(-1, c)       # from t.lo
    rel = preds - np.arange(lo - t.lo, hi - t.lo + 1)[:, None]
    absolute = (preds == preds[0]).all(axis=0)
    if not (absolute | (rel == rel[0]).all(axis=0)).all():
        return None
    return lo, hi, absolute, np.where(absolute, preds[0] + t.lo, rel[0])


def _follow(law, u: np.ndarray, out: np.ndarray) -> int:
    """Steps of the law from ``out[0]``, one per uniform, into ``out[1:]``.

    The path is the cumulative sum of the relative steps, restarted at
    each absolute draw.  Returns the number of states kept: all of them,
    or up to and including the first that leaves the law's range, whose
    own step the law does not cover.
    """
    lo, hi, absolute, values = law
    x = out[1:]
    picks = (u * values.size).astype(np.int64)
    steps = values[picks]
    restart = absolute[picks]
    if restart.any():
        at = np.flatnonzero(restart)
        fixed = steps[at]
        steps[at] = 0
        np.cumsum(steps, out=x)
        base = np.empty(at.size + 1, dtype=np.int64)
        base[0] = out[0]
        base[1:] = fixed - x[at]
        x += base[np.cumsum(restart)]
    else:
        np.cumsum(steps, out=x)
        x += out[0]
    if lo is not None:
        outside = x < lo
        outside |= x > hi
        first = int(outside.argmax())
        if outside[first]:
            return first + 1
    return x.size


def _step(kernel: BackwardKernel, out: np.ndarray, t: int,
          left: np.ndarray, rng: np.random.Generator) -> None:
    """Fill ``out[t + 1:]`` from ``out[t]`` one state at a time.

    The uniforms ``left`` come first, then blocks of ``_BLOCK``
    drawn from ``rng``; each block's states are stored at once.
    """
    length = out.size - 1
    if t == length:
        return
    cols = kernel.cols
    s = int(out[t])
    kernel.columns(s, s)
    preds, c = cols[s]
    while t < length:
        if not left.size:
            left = rng.random(min(_BLOCK, length - t))
        block: list[int] = []
        append = block.append
        draws = iter(left.tolist())
        while True:
            try:
                for u in draws:
                    s = preds[int(u * c)]
                    append(s)
                    preds, c = cols[s]
                break
            except KeyError:        # the walk reached a state not in cols
                kernel.columns(s, s)
                preds, c = cols[s]
            except IndexError:      # an empty column
                raise StuckWalk(f"state {s} has no predecessors; "
                                "backward walk is stuck") from None
        out[t + 1:t + 1 + len(block)] = block
        t += len(block)
        left = left[:0]


def sample_paths(kernel: BackwardKernel, start: int, length: int,
                 n_paths: int, seed: int = 0) -> list[BackwardPath]:
    """Independent paths with seeds seed, seed+1, ..."""
    return [sample_backward(kernel, start, length, seed + k)
            for k in range(n_paths)]


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
    """The words of 1..depth symbols that follow the rows of the measure."""
    words: list[tuple[int, ...]] = []
    stack = [(s,) for s in mu.pi.support()]
    while stack:
        w = stack.pop()
        words.append(w)
        if len(w) < depth:
            stack.extend(w + (j,) for j, _ in mu.row(w[-1]))
    return words


def geo_mean_target(mu: FairMeasure) -> float:
    """Limit of the running geometric means: exp of the integral of log c."""
    return math.exp(integral_log_c(mu))


def equidistribution_report(paths: list[BackwardPath], mu: FairMeasure,
                            depth: int = 1) -> dict:
    """Discrepancy between already-sampled paths and the fair measure.

    Returns the worst absolute discrepancy |empirical - mu| over
    admissible words up to the given depth, plus a small per-word table
    of the worst offenders.  Frequencies are pooled over the paths; words
    the paths never visit still contribute their measure, so a short or
    stuck sample shows up as a large discrepancy rather than a silent pass.
    """
    pooled: Counter[tuple[int, ...]] = Counter()
    for p in paths:
        pooled.update(_word_counts(p.states, depth))
    windows = [sum(max(p.states.size - m + 1, 0) for p in paths)
               for m in range(depth + 1)]
    worst = 0.0
    table = []
    for w in _admissible_words(mu, depth):
        emp = pooled[w] / max(windows[len(w)], 1)   # 0 if no windows
        ref = float(cylinder_measure(mu, w))
        worst = max(worst, abs(emp - ref))
        table.append({"word": list(w), "empirical": emp, "measure": ref})
    table.sort(key=lambda e: (-abs(e["empirical"] - e["measure"]), e["word"]))
    return {
        "paths": len(paths), "length": int(paths[0].states.size - 1),
        "depth": depth, "max_discrepancy": worst, "words": len(table),
        "worst_words": table[:10],
    }
