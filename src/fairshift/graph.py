"""Markov self-maps of tame graphs, reduced to interval machinery.

A graph map is described combinatorially: finitely many free arcs, and
for each arc the ordered list of arcs its image traverses, each with an
orientation flag.  ``cut_and_paste`` places arc k on the dyadic slot
(2^-(k+1), 2^-k), subdivides it into one subarc per traversed target,
and produces an ordinary Markov interval map; ``refined_transition_matrix``
builds the same transition structure directly from the combinatorics.
The two must agree exactly, which is the cross-check used by the tests.

``dendrite_example`` is a star of infinitely many blades, truncated to a
window: the n-th pair of arcs on blade i wraps once around blade
max(1, i-1) + n, one arc forwards and one backwards.  Preimage counts
double the staircase pattern, so its fair entropy exceeds the staircase
entropy by exactly log 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .chain import Abs, TransitionRuleSet
from .interval import (Branch, FinitePartition, MarkovIntervalMap, NotMarkov)

__all__ = [
    "TameGraphMapSpec", "CutAndPasteModel", "cut_and_paste",
    "refined_transition_matrix", "dendrite_example",
]


@dataclass(frozen=True)
class TameGraphMapSpec:
    """Combinatorial graph map: arcs and the arcs their images traverse.

    ``arcs`` lists 1-based arc ids in placement order.  ``covers[a]`` is
    the ordered tuple of (target arc, preserves orientation) along the
    image of arc a.
    """

    arcs: tuple[int, ...]
    covers: Mapping[int, tuple[tuple[int, bool], ...]]
    name: str = "graph-map"
    meta: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if not self.arcs:
            raise NotMarkov("graph map needs at least one arc")
        if len(set(self.arcs)) != len(self.arcs):
            raise NotMarkov("duplicate arc ids")
        arcset = set(self.arcs)
        for a in self.covers:
            if a not in arcset:
                raise NotMarkov(f"covers name arc {a}, which is not in arcs")
        for a in self.arcs:
            row = self.covers.get(a, ())
            if not row:
                raise NotMarkov(f"arc {a} covers nothing")
            for t, _orient in row:
                if t not in arcset:
                    raise NotMarkov(f"arc {a} covers unknown arc {t}")

    def refined_states(self) -> list[tuple[int, int]]:
        """(arc, leg index) pairs in spatial order of the placed model.

        Arc k sits on slot (2^-(k+1), 2^-k), so later arcs lie further
        left; legs within an arc run left to right.
        """
        out: list[tuple[int, int]] = []
        for a in reversed(self.arcs):
            for t in range(len(self.covers[a])):
                out.append((a, t))
        return out


@dataclass(frozen=True)
class CutAndPasteModel:
    spec: TameGraphMapSpec
    interval_map: MarkovIntervalMap
    placements: dict[int, tuple[Fraction, Fraction]]
    state_of: dict[tuple[int, int], int]     # (arc, leg) -> partition id
    pair_of: dict[int, tuple[int, int]]


def cut_and_paste(spec: TameGraphMapSpec) -> CutAndPasteModel:
    """Place the arcs on dyadic slots and compile the interval map.

    Each slot is split evenly into one subinterval per leg of the arc's
    image; the leg maps affinely onto the full slot of its target arc,
    flipped when the orientation is reversed.
    """
    placements: dict[int, tuple[Fraction, Fraction]] = {}
    for k, a in enumerate(spec.arcs):
        placements[a] = (Fraction(1, 2 ** (k + 1)), Fraction(1, 2 ** k))

    state_of: dict[tuple[int, int], int] = {}
    pair_of: dict[int, tuple[int, int]] = {}
    for sid, pair in enumerate(spec.refined_states()):
        state_of[pair] = sid
        pair_of[sid] = pair

    pts: list[Fraction] = [placements[spec.arcs[-1]][0]]
    for a in reversed(spec.arcs):
        lo, hi = placements[a]
        parts = len(spec.covers[a])
        width = (hi - lo) / parts
        for t in range(1, parts):
            pts.append(lo + t * width)
        pts.append(hi)
    partition = FinitePartition(tuple(pts))

    table: dict[int, Branch] = {}
    for (a, t), sid in state_of.items():
        target, orient = spec.covers[a][t]
        tlo, thi = placements[target]
        table[sid] = Branch(sid, tlo, thi, orient)
    imap = MarkovIntervalMap(partition, table=table,
                             name=f"{spec.name}-cut-paste")
    return CutAndPasteModel(spec, imap, placements, state_of, pair_of)


def refined_transition_matrix(spec: TameGraphMapSpec) -> TransitionRuleSet:
    """Transition rule set on the refined (arc, leg) states.

    State (a, t) moves onto the whole of its target arc, hence to every
    leg of that arc.  Ids follow the same spatial enumeration as the
    cut-and-paste partition, so this matrix must coincide entry by entry
    with the one compiled from the interval map.  Each target arc's row
    is built once and shared by every state that covers the arc.
    """
    order = spec.refined_states()
    sid = {pair: k for k, pair in enumerate(order)}
    rows = {b: tuple(Abs(sid[(b, s)]) for s in range(len(spec.covers[b])))
            for b in spec.arcs}
    explicit = {k: rows[spec.covers[a][t][0]] for (a, t), k in sid.items()}
    n = len(order)
    return TransitionRuleSet(lo=0, hi=n - 1, head=n, explicit=explicit,
                             name=f"{spec.name}-refined")


def dendrite_example(window: int = 12) -> TameGraphMapSpec:
    """Star of blades truncated to a window, doubling the staircase chain.

    Blade i carries arc pairs n = 0, 1, ...; the n-th pair wraps around
    blade m = max(1, i-1) + n, the even arc forwards and the odd arc
    backwards.  Pairs whose target blade exceeds the window are dropped;
    blades up to window+1 are kept so that every in-window blade keeps
    its full preimage count 2(m+1).
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    arcs: list[int] = []
    blade_of: dict[int, int] = {}
    pair_of_arc: dict[int, tuple[int, int]] = {}   # arc -> (pair index, parity)
    arcs_of_blade: dict[int, list[int]] = {}
    nxt = 1
    for i in range(1, window + 2):
        base = max(1, i - 1)
        arcs_of_blade[i] = []
        for n in range(0, window - base + 1):
            for parity in (0, 1):
                arcs.append(nxt)
                blade_of[nxt] = i
                pair_of_arc[nxt] = (n, parity)
                arcs_of_blade[i].append(nxt)
                nxt += 1

    covers: dict[int, tuple[tuple[int, bool], ...]] = {}
    for a in arcs:
        i = blade_of[a]
        n, parity = pair_of_arc[a]
        m = max(1, i - 1) + n
        legs = arcs_of_blade[m]
        if parity == 0:
            covers[a] = tuple((b, True) for b in legs)
        else:
            covers[a] = tuple((b, False) for b in reversed(legs))
    return TameGraphMapSpec(tuple(arcs), covers, name=f"dendrite-{window}",
                            meta={"window": window, "blade_of": blade_of,
                                  "pair_of_arc": pair_of_arc})
