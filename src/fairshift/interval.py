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

from .chain import Abs, AbsRay, Rel, RelRay, TransitionRuleSet
from .measure import FairMeasure

__all__ = [
    "HitsPartitionPoint", "InadmissibleWord", "NotMarkov",
    "FinitePartition", "GeometricPartition", "IntegerPartition",
    "Branch", "MarkovIntervalMap",
    "tent_map", "staircase_map", "five_three_map",
    "transition_matrix", "itinerary", "cylinder_interval",
    "Enclosure", "point_from_itinerary",
    "Piece", "PiecewiseAffineMap", "lebesgue_fair_model",
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

@dataclass(frozen=True, slots=True)
class Piece:
    """One affine piece, in right-anchored weight coordinates.

    ``xr`` and ``yr`` are (rho_right, rho_left) pairs, rho being the
    weight-distance from the right end of [0, 1]; the actual coordinate
    of a rho value t is 1 - t/total.
    """

    src: int
    dst: int
    xr: tuple[Number, Number]
    yr: tuple[Number, Number]
    increasing: bool
    cmag: Number                       # integer column count for built models

    def x_interval(self, total: float) -> tuple[float, float]:
        return 1.0 - float(self.xr[1]) / total, 1.0 - float(self.xr[0]) / total

    def y_interval(self, total: float) -> tuple[float, float]:
        return 1.0 - float(self.yr[1]) / total, 1.0 - float(self.yr[0]) / total

    def slope(self) -> Number:
        return self.cmag if self.increasing else -self.cmag


@dataclass(frozen=True)
class PiecewiseAffineMap:
    """Piecewise affine interval map carrying its own fair bookkeeping."""

    pieces: tuple[Piece, ...]          # sorted left to right along x
    total: Number                      # full weight mass including any tail
    emitted: Number                    # weight mass covered by interval slots
    gap: Number                        # slot mass lost to window truncation
    name: str = "fair-model"

    def piece_count(self) -> int:
        return len(self.pieces)


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
    pi = mu.pi
    part = imap.partition
    ids = [s for s in pi.support() if pi.weight(s) != 0]
    if window is not None:
        allowed = set(part.ids_within(window))
        ids = [s for s in ids if s in allowed]
    if not ids:
        raise ValueError("empty stationary support")
    ids.sort(key=lambda s: part.bounds(s)[0])
    rank = {s: r for r, s in enumerate(ids)}      # left-to-right order

    weights = {s: pi.weight(s) for s in ids}
    slots: dict[int, tuple[Number, Number]] = {}
    acc: Number = 0
    for s in reversed(ids):           # rightmost interval first
        w = weights[s]
        slots[s] = (acc, acc + w)
        acc = acc + w
    emitted = acc

    counts = {s: len(mu.kernel.preds(s)) for s in ids}
    pieces: list[Piece] = []
    gap: Number = 0
    accx: Number = 0
    for s in reversed(ids):
        br = imap.branch(s)
        succ = [(j, p) for j, p in mu.row(s) if j in rank]
        # successor pieces ordered right-to-left along x: an increasing
        # branch lays targets out left-to-right, so reverse its spatial order
        succ.sort(key=lambda jp: rank[jp[0]], reverse=br.increasing)
        placed: Number = 0
        for j, p in succ:
            length = weights[s] * p
            x_hi = accx + length
            # with float weights a far-tail length can be absorbed by the
            # accumulator (or a whole slot can collapse); such a piece has
            # no Lebesgue mass and only degenerate affine data, skip it
            if x_hi > accx and slots[j][1] > slots[j][0]:
                pieces.append(Piece(src=s, dst=j,
                                    xr=(accx, x_hi),
                                    yr=slots[j],
                                    increasing=br.increasing,
                                    cmag=counts[j]))
            accx = x_hi
            placed = placed + length
        short = weights[s] - placed
        accx = slots[s][1]            # the next slot's x-range starts here
        # a float shortfall of a few eps * w_s per term of this slot's own
        # sum is rounding and solve residual, no loss: on the dendrite it
        # stays under 2 per term, while a truncated slot lacks 1e13 times more
        if isinstance(short, float) and abs(short) <= (
                8 * (len(succ) + 1) * math.ulp(1.0) * abs(weights[s])):
            short = 0.0
        gap = gap + short
    pieces.reverse()                  # ascending x
    return PiecewiseAffineMap(tuple(pieces), total=pi.total, emitted=emitted,
                              gap=gap, name=f"{imap.name}-fair-model")


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
    overlap; otherwise NotMarkov is raised.  When every piece coordinate
    is an int or a Fraction the defect is an exact Fraction, zero for
    models built by ``lebesgue_fair_model`` from exact weights.  Otherwise
    it is a float, and a defect within the rounding of the coordinate sums
    it compares counts as zero.
    """
    ends = [t for p in model.pieces for t in (*p.xr, *p.yr)]
    num = Fraction if all(isinstance(t, (int, Fraction)) for t in ends) \
        else float
    # coordinates are running sums, rounded relative to their magnitude;
    # a defect made of k differences of them may be off by about k units
    unit = 0 if num is Fraction else \
        8 * math.ulp(1.0) * max(map(abs, ends), default=0.0)
    truncated = model.gap != 0 or model.emitted != model.total
    onto: dict[int, list[Piece]] = {}
    out_of: dict[int, list[tuple[Number, Number]]] = {}
    for p in model.pieces:
        onto.setdefault(p.dst, []).append(p)
        out_of.setdefault(p.src, []).append(p.xr)
    slots = {}
    for j, ps in onto.items():
        if any(p.yr != ps[0].yr for p in ps):
            raise NotMarkov(f"the pieces onto slot {j} differ in y-range")
        slots[j] = ps[0].yr
    ys = sorted(slots.values())
    if any(c < d for (_, d), (c, _) in zip(ys, ys[1:])):
        raise NotMarkov("two slots overlap")

    worst = num(0)
    for j, (c, d) in slots.items():
        ps, xs = onto[j], sorted(out_of.get(j, ()))
        n = len(ps)
        if not truncated or all(p.cmag == n for p in ps):
            for p in ps:
                off = abs(n * (p.xr[1] - p.xr[0]) - (d - c))
                if off > (n + 1) * unit:
                    worst = max(worst, num(off) / n)
        # the signed gaps start -> x_1, x_1 -> x_2, ..., x_k -> end
        marks = [c, *(t for x in xs for t in x), d]
        gaps = [marks[k + 1] - marks[k] for k in range(0, len(marks), 2)]
        if truncated and gaps[-1] > 0:
            gaps.pop()
        off = sum(map(abs, gaps), num(0))
        if off > (len(xs) + 1) * unit:
            worst = max(worst, off)
    return worst


def rohlin_entropy(model: PiecewiseAffineMap) -> float:
    """Integral of log|slope| over the emitted pieces, in [0,1] mass."""
    total = float(model.total)
    acc = 0.0
    for p in model.pieces:
        acc += float(p.xr[1] - p.xr[0]) / total * math.log(p.cmag)
    return acc


def merged_segments(model: PiecewiseAffineMap) -> list[tuple[float, float, int]]:
    """Maximal affine segments (x_lo, x_hi, signed slope) of the model.

    Adjacent pieces merge when their slopes agree and the images meet
    continuously at the junction.
    """
    total = float(model.total)
    segs: list[list] = []
    prev: Piece | None = None
    for p in model.pieces:            # ascending x = descending rho
        joined = False
        if prev is not None and segs:
            adjacent = prev.xr[0] == p.xr[1]
            if adjacent and prev.slope() == p.slope():
                left_y = prev.yr[0] if prev.increasing else prev.yr[1]
                right_y = p.yr[1] if p.increasing else p.yr[0]
                if left_y == right_y:
                    segs[-1][1] = p.xr[0]
                    joined = True
        if not joined:
            segs.append([p.xr[1], p.xr[0], p.slope()])
        prev = p
    out = []
    for rho_left, rho_right, slope in segs:
        out.append((1.0 - float(rho_left) / total,
                    1.0 - float(rho_right) / total, slope))
    return out
