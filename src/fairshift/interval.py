"""Markov interval maps with exact rational branch arithmetic.

A map is a partition of (an interval of) the line into countably many
open intervals plus one affine monotone branch per interval.  The Markov
requirement is that every branch image is a union of partition
intervals; ``transition_matrix`` checks this while compiling the map to
a transition rule set, so the chain layer, the stationary solver and the
fair-measure machinery all apply verbatim.

``lebesgue_fair_model`` goes the other way: given a summable stationary
vector it rebuilds a piecewise affine model of the map for which
Lebesgue measure itself is fair, with slope magnitude on each piece
equal to the column count of the target interval.  Coordinates are kept
as exact right-anchored weight offsets (distance from 1 in units of the
unnormalised weights), so fairness of the constructed model can be
verified with zero rounding error even when the weight total is
irrational.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping

import numpy as np

from .chain import Abs, AbsRay, Rel, RelRay, TransitionRuleSet
from .measure import FairMeasure

__all__ = [
    "HitsPartitionPoint", "InadmissibleWord", "NotMarkov",
    "FinitePartition", "GeometricPartition", "IntegerPartition",
    "Branch", "MarkovIntervalMap",
    "tent_map", "staircase_map", "five_three_map",
    "transition_matrix", "itinerary", "cylinder_interval",
    "Enclosure", "point_from_itinerary",
    "PiecewiseAffineMap", "lebesgue_fair_model",
    "check_lebesgue_fair", "rohlin_entropy", "merged_segments",
]

Number = Fraction | float


class HitsPartitionPoint(ArithmeticError):
    """An orbit landed exactly on a partition point."""

    def __init__(self, point: Fraction, step: int | None = None):
        self.point = point
        self.step = step
        at = "" if step is None else f" at step {step}"
        super().__init__(f"orbit hits partition point {point}{at}")


class InadmissibleWord(ValueError):
    pass


class NotMarkov(ValueError):
    pass


@dataclass(frozen=True)
class FinitePartition:
    """Finitely many intervals; ids run 0..k-1 left to right."""

    points: tuple[Fraction, ...]
    # point -> its position in ``points``; equal Fractions hash alike
    _index: dict[Fraction, int] = field(init=False, repr=False,
                                        compare=False)

    kind = "finite"

    def __post_init__(self):
        pts = tuple(Fraction(p) for p in self.points)
        object.__setattr__(self, "points", pts)
        if len(pts) < 2 or any(a >= b for a, b in zip(pts, pts[1:])):
            raise ValueError("partition points must be strictly increasing")
        object.__setattr__(self, "_index", {p: k for k, p in enumerate(pts)})

    @property
    def n_intervals(self) -> int:
        return len(self.points) - 1

    def ids_within(self, window: int) -> list[int]:
        return list(range(self.n_intervals))

    def bounds(self, i: int) -> tuple[Fraction, Fraction]:
        if not 0 <= i < self.n_intervals:
            raise KeyError(f"no interval {i}")
        return self.points[i], self.points[i + 1]

    def locate(self, x: Fraction) -> int:
        if x in self._index:
            raise HitsPartitionPoint(x)
        if not self.points[0] < x < self.points[-1]:
            raise ValueError(f"{x} outside the partitioned interval")
        from bisect import bisect_right
        return bisect_right(self.points, x) - 1

    def covered(self, lo: Fraction, hi: Fraction):
        a, b = self._index.get(lo), self._index.get(hi)
        if a is None or b is None:
            raise NotMarkov(f"image ({lo}, {hi}) not bounded by partition points")
        return list(range(a, b))


@dataclass(frozen=True)
class GeometricPartition:
    """Intervals (r^n, r^{n-1}) for n >= 1, accumulating at 0."""

    ratio: Fraction = Fraction(1, 2)

    kind = "geometric"

    def __post_init__(self):
        r = Fraction(self.ratio)
        object.__setattr__(self, "ratio", r)
        if not 0 < r < 1:
            raise ValueError("ratio must lie in (0, 1)")

    def ids_within(self, window: int) -> list[int]:
        return list(range(1, window + 1))

    def bounds(self, n: int) -> tuple[Fraction, Fraction]:
        if n < 1:
            raise KeyError(f"no interval {n}")
        return self.ratio ** n, self.ratio ** (n - 1)

    def _power_index(self, x: Fraction) -> int | None:
        """a with ratio**a == x, or None."""
        if x == 1:
            return 0
        if x <= 0 or x > 1:
            return None
        p = self.ratio
        a = 1
        while p > x:
            p *= self.ratio
            a += 1
        return a if p == x else None

    def locate(self, x: Fraction) -> int:
        if not 0 < x < 1:
            raise ValueError(f"{x} outside (0, 1)")
        n = self._power_index(x)
        if n is not None:
            raise HitsPartitionPoint(x)
        n = 1
        p = self.ratio
        while x < p:
            p *= self.ratio
            n += 1
        return n

    def covered(self, lo: Fraction, hi: Fraction):
        b = self._power_index(hi)
        if b is None:
            raise NotMarkov(f"image top {hi} is not a power of the ratio")
        if lo == 0:
            return ("ray", b + 1)
        a = self._power_index(lo)
        if a is None or a <= b:
            raise NotMarkov(f"image ({lo}, {hi}) not bounded by partition points")
        return list(range(b + 1, a + 1))


@dataclass(frozen=True)
class IntegerPartition:
    """Unit intervals (k, k+1) for every integer k."""

    kind = "integers"

    def ids_within(self, window: int) -> list[int]:
        return list(range(-window, window + 1))

    def bounds(self, k: int) -> tuple[Fraction, Fraction]:
        return Fraction(k), Fraction(k + 1)

    def locate(self, x: Fraction) -> int:
        if Fraction(x).denominator == 1:
            raise HitsPartitionPoint(Fraction(x))
        return math.floor(x)

    def covered(self, lo: Fraction, hi: Fraction):
        if Fraction(lo).denominator != 1 or Fraction(hi).denominator != 1:
            raise NotMarkov(f"image ({lo}, {hi}) not bounded by integers")
        return list(range(int(lo), int(hi)))


Partition = FinitePartition | GeometricPartition | IntegerPartition


@dataclass(frozen=True, slots=True)
class Branch:
    """Affine monotone branch on one partition interval."""

    interval: int
    img_lo: Fraction
    img_hi: Fraction
    increasing: bool = True

    def __post_init__(self):
        object.__setattr__(self, "img_lo", Fraction(self.img_lo))
        object.__setattr__(self, "img_hi", Fraction(self.img_hi))
        if self.img_lo >= self.img_hi:
            raise ValueError("branch image must be a nonempty interval")


@dataclass(frozen=True)
class MarkovIntervalMap:
    partition: Partition
    table: Mapping[int, Branch] | None = None
    rule: Callable[[int], Branch] | None = None
    name: str = "custom"

    def __post_init__(self):
        # a finite partition given by a table needs one branch per interval
        part, named = self.partition, sorted(self.table or ())
        if self.rule is None and isinstance(part, FinitePartition) \
                and named != list(range(part.n_intervals)):
            raise ValueError(f"branches must name exactly the intervals "
                             f"0..{part.n_intervals - 1} of the partition, "
                             f"got {named}")

    def branch(self, i: int) -> Branch:
        if self.table is not None and i in self.table:
            return self.table[i]
        if self.rule is not None:
            return self.rule(i)
        raise KeyError(f"no branch for interval {i}")

    def affine(self, i: int) -> tuple[Fraction, Fraction]:
        """(a, b) with the branch acting as x -> a*x + b."""
        br = self.branch(i)
        lo, hi = self.partition.bounds(i)
        a = (br.img_hi - br.img_lo) / (hi - lo)
        if br.increasing:
            return a, br.img_lo - a * lo
        return -a, br.img_hi + a * lo

    def apply(self, i: int, x: Fraction) -> Fraction:
        a, b = self.affine(i)
        return a * x + b

    def slope(self, i: int) -> Fraction:
        a, _ = self.affine(i)
        return a


def tent_map() -> MarkovIntervalMap:
    part = FinitePartition((Fraction(0), Fraction(1, 2), Fraction(1)))
    table = {0: Branch(0, 0, 1, True), 1: Branch(1, 0, 1, False)}
    return MarkovIntervalMap(part, table=table, name="tent")


def staircase_map(ratio: Fraction = Fraction(1, 2)) -> MarkovIntervalMap:
    """Countable staircase on (0,1): step n >= 2 maps onto (0, r^{n-2}).

    Step 1 covers everything; every branch increases.  Its transition
    rule set coincides with the factorial chain when r = 1/2.
    """
    r = Fraction(ratio)
    part = GeometricPartition(r)

    def rule(n: int) -> Branch:
        if n < 1:
            raise KeyError(n)
        if n == 1:
            return Branch(1, 0, 1, True)
        return Branch(n, 0, r ** (n - 2), True)

    return MarkovIntervalMap(part, rule=rule, name="staircase")


def five_three_map() -> MarkovIntervalMap:
    """Lattice map with slope 5 up on even cells and slope 3 down on odd."""
    part = IntegerPartition()

    def rule(k: int) -> Branch:
        if k % 2 == 0:
            n = k // 2
            return Branch(k, 2 * n - 2, 2 * n + 3, True)
        n = (k - 1) // 2
        return Branch(k, 2 * n, 2 * n + 3, False)

    return MarkovIntervalMap(part, rule=rule, name="five-three-map")


# -- compilation to a transition rule set ---------------------------------

def _row_descriptor(imap: MarkovIntervalMap, i: int):
    br = imap.branch(i)
    return imap.partition.covered(br.img_lo, br.img_hi)


# a geometric partition's rows 1 .. _HEAD - 1 are explicit, and the rows
# _HEAD .. _HEAD + _PROBES - 1 must agree on one shift-invariant tail
_HEAD = 4
_PROBES = 4


def transition_matrix(imap: MarkovIntervalMap) -> TransitionRuleSet:
    """Compile the map's branch images into a transition rule set.

    Raises NotMarkov when a branch image is not a union of partition
    intervals, when an infinite partition has only a table of branches,
    or when its rows fail to settle into a translation-invariant tail
    within the probe range.  On a finite partition each branch image's
    row is built once and shared by every interval that maps onto it.
    """
    part = imap.partition
    name = f"{imap.name}-transitions"
    if isinstance(part, FinitePartition):
        k = part.n_intervals
        rows: dict[tuple[Fraction, Fraction], tuple[Abs, ...]] = {}
        explicit = {}
        for i in range(k):
            br = imap.branch(i)
            image = br.img_lo, br.img_hi
            row = rows.get(image)
            if row is None:
                row = rows[image] = tuple(Abs(j) for j in part.covered(*image))
            explicit[i] = row
        return TransitionRuleSet(lo=0, hi=k - 1, head=k, explicit=explicit,
                                 name=name)
    if imap.rule is None:
        raise NotMarkov(f"a table of branches leaves intervals of the "
                        f"infinite {part.kind} partition without a branch")

    if isinstance(part, GeometricPartition):
        explicit = {}
        for i in range(1, _HEAD):
            ids = _row_descriptor(imap, i)
            if isinstance(ids, tuple):
                explicit[i] = (AbsRay(ids[1]),)
            else:
                explicit[i] = tuple(Abs(j) for j in ids)
        deltas = []
        for i in range(_HEAD, _HEAD + _PROBES):
            ids = _row_descriptor(imap, i)
            if isinstance(ids, tuple):
                deltas.append(("ray", ids[1] - i))
            else:
                deltas.append(("list", tuple(j - i for j in ids)))
        if any(d != deltas[0] for d in deltas):
            raise NotMarkov("branch images do not settle into a shift-invariant tail")
        kind, val = deltas[0]
        tail_terms = (RelRay(val),) if kind == "ray" else tuple(Rel(o) for o in val)
        return TransitionRuleSet(lo=1, head=_HEAD, explicit=explicit,
                                 tail={0: tail_terms}, name=name)

    # integer lattice: find the smallest translation period of the rows
    for p in (1, 2, 3, 4):
        ok = True
        tails = {}
        for r in range(p):
            descs = []
            for i in (r, r + p, r - p, r + 2 * p, r - 2 * p):
                ids = _row_descriptor(imap, i)
                if isinstance(ids, tuple):
                    raise NotMarkov("unbounded branch image on the integer lattice")
                descs.append(tuple(j - i for j in ids))
            if any(d != descs[0] for d in descs):
                ok = False
                break
            tails[r] = tuple(Rel(o) for o in descs[0])
        if ok:
            return TransitionRuleSet(period=p, tail=tails, name=name)
    raise NotMarkov("rows are not translation periodic with period <= 4")


def itinerary(imap: MarkovIntervalMap, x: Fraction, n: int) -> tuple[int, ...]:
    """Exact symbolic orbit of length n; raises HitsPartitionPoint."""
    cur = Fraction(x)
    out = []
    for step in range(n):
        try:
            i = imap.partition.locate(cur)
        except HitsPartitionPoint as exc:
            raise HitsPartitionPoint(exc.point, step) from None
        out.append(i)
        cur = imap.apply(i, cur)
    return tuple(out)


def cylinder_interval(imap: MarkovIntervalMap, word: tuple[int, ...]) -> tuple[Fraction, Fraction]:
    """Exact open interval of points whose itinerary starts with the word.

    Pulled back branch by branch; the full image of the cylinder under
    len(word)-1 steps is exactly the last interval of the word.
    """
    if not word:
        raise ValueError("empty word")
    part = imap.partition
    lo, hi = part.bounds(word[-1])
    for k in range(len(word) - 2, -1, -1):
        i = word[k]
        br = imap.branch(i)
        # clip to the branch image; an empty overlap means the word is not
        # realisable by any orbit
        clo, chi = max(lo, br.img_lo), min(hi, br.img_hi)
        if clo >= chi:
            raise InadmissibleWord(f"no transition {i} -> {word[k + 1]}")
        if (clo, chi) != (lo, hi):
            raise InadmissibleWord(f"word not Markov at position {k}")
        a, b = imap.affine(i)
        u, v = (lo - b) / a, (hi - b) / a
        lo, hi = (u, v) if u < v else (v, u)
    return lo, hi


@dataclass(frozen=True)
class Enclosure:
    lo: Fraction
    hi: Fraction
    converged: bool

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def width(self) -> Fraction:
        return self.hi - self.lo


def point_from_itinerary(imap: MarkovIntervalMap, word: tuple[int, ...],
                         eps: Fraction = Fraction(1, 10 ** 12)) -> Enclosure:
    """Interval enclosure of all points with the given itinerary prefix."""
    lo, hi = cylinder_interval(imap, word)
    return Enclosure(lo, hi, hi - lo < eps)


# -- Lebesgue fair models ---------------------------------------------------

@dataclass(frozen=True, eq=False)
class PiecewiseAffineMap:
    """Piecewise affine interval map carrying its own fair bookkeeping.

    One row per affine piece, left to right along x: piece k maps the
    x-range ``x[k]`` in the slot of interval ``src[k]`` onto the whole
    slot ``y[k]`` of interval ``dst[k]``, with slope magnitude ``cmag[k]``
    (the column count of ``dst[k]`` for built models), increasing when
    ``increasing[k]``.  Ranges are (rho_right, rho_left) rows, rho being
    the weight-distance from the right end of [0, 1]; the actual coordinate
    of a rho value t is 1 - t/total.  ``x`` and ``y`` hold Fractions
    (dtype object) for exact weights and float64 otherwise, and that dtype
    alone decides whether the fairness check is exact.
    """

    src: np.ndarray
    dst: np.ndarray
    x: np.ndarray                      # n x 2
    y: np.ndarray                      # n x 2
    increasing: np.ndarray
    cmag: np.ndarray
    total: Number                      # full weight mass including any tail
    emitted: Number                    # weight mass covered by interval slots
    gap: Number                        # slot mass lost to window truncation
    name: str = "fair-model"

    def piece_count(self) -> int:
        return len(self.src)


def lebesgue_fair_model(imap: MarkovIntervalMap, mu: FairMeasure,
                        window: int | None = None) -> PiecewiseAffineMap:
    """Model of the map for which Lebesgue measure is fair.

    Interval i receives an x-slot of length w_i (its stationary weight);
    the slot is subdivided into one piece per successor j, of length
    w_i p_ij, mapped affinely onto the whole slot of j with the branch's
    orientation.  The slope magnitude is therefore exactly the column
    count of j.  Slots are laid out right-anchored so that the windowed
    weight tail only pushes the leftmost slots, never shifts the layout.
    """
    part = imap.partition
    ids = mu.states[mu.weights != 0]
    if window is not None:
        ids = ids[np.isin(ids, part.ids_within(window))]
    if not len(ids):
        raise ValueError("empty stationary support")
    # row r of every per-slot array is the r-th interval from the right;
    # the map's intervals and branches are read one slot at a time
    ids = sorted(ids.tolist(), key=lambda s: part.bounds(s)[0], reverse=True)
    at = np.array(ids) - mu.states[0]
    w = mu.weights[at]
    acc = np.cumsum(np.append(0, w))
    starts, ends = acc[:-1], acc[1:]
    inc = np.array([imap.branch(s).increasing for s in ids], bool)
    counts = mu.c[at]

    # the entries of P inside the model, ordered right to left along x
    # within each slot: an increasing branch lays its targets out left to
    # right, so its rightmost target comes first
    slot = np.full(len(mu.states), -1)         # of each window state
    slot[at] = np.arange(len(ids))
    src = slot[np.repeat(np.arange(len(mu.states)), np.diff(mu.indptr))]
    dst = slot[mu.succ - mu.states[0]]
    order = np.lexsort((np.where(inc[src], dst, -dst), src))
    order = order[(src[order] >= 0) & (dst[order] >= 0)]
    src, dst, p = src[order], dst[order], mu.p[order]

    # each slot's pieces start at the slot's own start and follow one
    # running sum, left to right along its row of the grid, so x-ranges
    # and slots agree to the last bit in floats
    deg = np.bincount(src, minlength=len(ids))
    col = np.arange(len(src)) - (np.cumsum(deg) - deg)[src] + 1
    grid = np.zeros((len(ids), deg.max() + 1), w.dtype)
    grid[src, col] = w[src] * p
    xs = np.cumsum(grid, axis=1)
    short = w - xs[:, -1]
    grid[:, 0] = starts
    np.cumsum(grid, axis=1, out=xs)
    lo, hi = xs[src, col - 1], xs[src, col]
    if w.dtype == float:
        # a float shortfall of a few eps * w_s per term of a slot's own sum
        # is rounding and solve residual, no loss: on the dendrite it stays
        # under 2 per term, while a truncated slot lacks 1e13 times more
        short[np.abs(short) <= 8 * (deg + 1) * math.ulp(1.0) * np.abs(w)] = 0.0
    # with float weights a far-tail length can be absorbed by the running
    # sum (or a whole slot can collapse); such a piece has no Lebesgue mass
    # and only degenerate affine data, so it is left out.  Rows run right
    # to left, so the kept pieces, reversed, run left to right along x
    keep = np.flatnonzero((hi > lo) & (ends[dst] > starts[dst]))[::-1]
    src, dst, ids = src[keep], dst[keep], np.array(ids)
    return PiecewiseAffineMap(
        src=ids[src], dst=ids[dst], x=np.stack((lo[keep], hi[keep]), axis=1),
        y=np.stack((starts, ends), axis=1)[dst], increasing=inc[src],
        cmag=counts[dst], total=mu.pi.total, emitted=ends.tolist()[-1],
        gap=np.cumsum(short).tolist()[-1], name=f"{imap.name}-fair-model")


def check_lebesgue_fair(model: PiecewiseAffineMap) -> Number:
    """Worst fairness defect of Lebesgue measure on the model, in weight units.

    Lebesgue measure is fair when the pieces out of each interval tile its
    slot and each of the N_j pieces onto slot j has the length |Y_j| / N_j
    of an equal share.  A built model gives every piece the slope c_j and
    slot j c_j pieces by construction; what is left is whether its weights
    make the pieces fit.  The check is the largest of two defects:

    - for each piece P onto slot j, ||X_P| - |Y_j| / N_j|;
    - for each slot s, the total length of the holes and overlaps that the
      x-ranges of the pieces out of s leave against s, from its start to
      its end.

    A truncated model (a gap, or an emitted mass short of the total) has
    no pieces onto or out of the intervals beyond its window.  So the hole
    at a slot's end is excused there, and so is the piece defect of a slot
    whose pieces' column counts differ from their number, as boundary
    states are in the chain checks.  An overflow past a slot's end always
    counts.

    Only the cells of single pieces are checked, as they decide every
    depth: an affine piece pulls a deeper cell back in proportion, so
    when the depth-1 cells are fair shares of tiled slots, so is every
    deeper cell.

    Pieces onto one slot must share one y-range, and slots must not
    overlap; otherwise NotMarkov is raised.  When the model's coordinates
    are Fractions (dtype object) the defect is an exact Fraction, zero for
    models built by ``lebesgue_fair_model`` from exact weights.  Otherwise
    it is a float, and a defect within the rounding of the coordinate sums
    it compares counts as zero.
    """
    x, y = model.x, model.y
    num = Fraction if x.dtype == object else float
    # coordinates are running sums, rounded relative to their magnitude;
    # a defect made of k differences of them may be off by about k units
    unit = 0 if num is Fraction else \
        8 * math.ulp(1.0) * float(abs(np.concatenate((x, y))).max(initial=0))
    truncated = model.gap != 0 or model.emitted != model.total
    # slot j is (c[j], d[j]), the y-range of every piece onto it, and
    # n[k] pieces go onto the slot of piece k
    slots, first, onto = np.unique(model.dst, return_index=True,
                                   return_inverse=True)
    c, d = y[first, 0], y[first, 1]
    split = (y[:, 0] != c[onto]) | (y[:, 1] != d[onto])
    if split.any():
        raise NotMarkov(f"the pieces onto slot {slots[onto[split.argmax()]]} "
                        f"differ in y-range")
    by_y = np.lexsort((d, c))
    if np.any(c[by_y[1:]] < d[by_y[:-1]]):
        raise NotMarkov("two slots overlap")

    n = np.bincount(onto)[onto]
    counted = np.ones(len(slots), bool)
    if truncated:
        counted[onto[model.cmag != n]] = False
    off = np.abs(n * (x[:, 1] - x[:, 0]) - (d - c)[onto])
    fails = counted[onto] & (off > (n + 1) * unit)
    defects = [off[fails] / n[fails]]

    # the pieces out of each slot along x leave one row of signed gaps:
    # start -> x_1, x_1 -> x_2, ..., x_k -> end
    home = np.minimum(np.searchsorted(slots, model.src), len(slots) - 1)
    out = np.flatnonzero(slots[home] == model.src)
    out = out[np.lexsort((x[out, 1], x[out, 0], home[out]))]
    h, lo, hi = home[out], x[out, 0], x[out, 1]
    k = np.bincount(h, minlength=len(slots))
    col = np.arange(len(out)) - (np.cumsum(k) - k)[h]
    grid = np.zeros((len(slots), k.max(initial=0) + 1), x.dtype)
    grid[h, col] = lo - np.where(col == 0, c[h], np.roll(hi, 1))
    end = c.copy()
    end[k > 0] = hi[(np.cumsum(k) - 1)[k > 0]]
    tail = d - end
    tail[truncated & (tail > 0)] = 0          # a truncated slot's end hole
    grid[np.arange(len(slots)), k] = tail
    off = np.cumsum(np.abs(grid), axis=1)[:, -1]
    defects.append(off[off > (k + 1) * unit])
    return num(np.concatenate(defects).max(initial=num(0)))


def rohlin_entropy(model: PiecewiseAffineMap) -> float:
    """Integral of log|slope| over the emitted pieces, in [0,1] mass."""
    slopes, at = np.unique(model.cmag, return_inverse=True)
    logs = np.array([math.log(c) for c in slopes.tolist()])
    terms = (model.x[:, 1] - model.x[:, 0]).astype(float) \
        / float(model.total) * logs[at]
    return float(np.cumsum(np.append(0.0, terms))[-1])


def merged_segments(model: PiecewiseAffineMap) -> list[tuple[float, float, int]]:
    """Maximal affine segments (x_lo, x_hi, signed slope) of the model.

    Adjacent pieces merge when their slopes agree and the images meet
    continuously at the junction.
    """
    x, y, inc = model.x, model.y, model.increasing
    if not len(x):
        return []
    slope = np.where(inc, model.cmag, -model.cmag)
    # the image of each piece's left and right end
    left, right = np.where(inc, y.T[::-1], y.T)
    joined = (x[:-1, 0] == x[1:, 1]) & (slope[:-1] == slope[1:]) \
        & (right[:-1] == left[1:])
    first = np.flatnonzero(np.append(True, ~joined))
    last = np.append(first[1:], len(x)) - 1
    total = float(model.total)
    x_lo = 1.0 - x[first, 1].astype(float) / total
    x_hi = 1.0 - x[last, 0].astype(float) / total
    return list(zip(x_lo.tolist(), x_hi.tolist(), slope[first].tolist()))
