"""Builtin chain families.

Each constructor returns a TransitionRuleSet; where a stationary vector
of the backward kernel is known in closed form there is a companion
``*_stationary(window)`` helper producing exact weights.  Families:

* ``unbiased_walk``     steps +1/-1 on the integers, two preimages everywhere
* ``biased_walk``       steps +2/-1 on the integers
* ``origin_broadcast``  naturals; the origin maps onto everything, every
                        other state steps down by one
* ``factorial_chain``   states 1, 2, ...; state i covers every j >= max(1, i-1),
                        stationary weights 1/(j-1)! with total e
* ``five_three_chain``  integer lattice of an interval map with slopes 5 and -3;
                        columns alternate 5 and 3 so the natural stationary
                        profile (... 3 5 3 5 ...) is not summable
* ``full_shift(k)``     complete graph on k symbols
"""

from __future__ import annotations

import math
from fractions import Fraction

from .chain import AbsRay, Rel, RelRay, TransitionRuleSet
from .measure import StationaryVector

__all__ = [
    "unbiased_walk", "biased_walk", "origin_broadcast", "factorial_chain",
    "five_three_chain", "full_shift", "origin_broadcast_stationary",
    "factorial_stationary", "full_shift_stationary", "five_three_profile",
    "chain_by_name", "CHAIN_FAMILIES",
]


def unbiased_walk() -> TransitionRuleSet:
    return TransitionRuleSet(tail={0: (Rel(-1), Rel(1))}, name="unbiased-walk")


def biased_walk() -> TransitionRuleSet:
    return TransitionRuleSet(tail={0: (Rel(2), Rel(-1))}, name="biased-walk")


def origin_broadcast() -> TransitionRuleSet:
    return TransitionRuleSet(lo=0, head=1, explicit={0: (AbsRay(0),)},
                             tail={0: (Rel(-1),)}, name="origin-broadcast")


def factorial_chain() -> TransitionRuleSet:
    return TransitionRuleSet(lo=1, head=2, explicit={1: (AbsRay(1),)},
                             tail={0: (RelRay(-1),)}, name="factorial-chain")


def five_three_chain() -> TransitionRuleSet:
    return TransitionRuleSet(period=2,
                             tail={0: (Rel(-2), Rel(-1), Rel(0), Rel(1), Rel(2)),
                                   1: (Rel(-1), Rel(0), Rel(1))},
                             name="five-three")


def full_shift(k: int) -> TransitionRuleSet:
    if k < 1:
        raise ValueError("need at least one symbol")
    rows = {i: (AbsRay(0),) for i in range(k)}
    return TransitionRuleSet(lo=0, hi=k - 1, head=k, explicit=rows,
                             name=f"full-shift-{k}")


def origin_broadcast_stationary(window: int) -> StationaryVector:
    """pi_i = 2^-(i+1); exact, total mass exactly 1."""
    w = {i: Fraction(1, 2 ** (i + 1)) for i in range(window + 1)}
    return StationaryVector(weights=w, total=Fraction(1), provenance="closed-form",
                            window=window, tail_mass_bound=2.0 ** -(window + 1))


def factorial_stationary(window: int) -> StationaryVector:
    """Weights 1/(j-1)! for j = 1..window; the full total is e."""
    w = {j: Fraction(1, math.factorial(j - 1)) for j in range(1, window + 1)}
    tail = 2.0 / math.factorial(window)      # crude: sum_{j>W} 1/(j-1)! < 2/W!
    return StationaryVector(weights=w, total=math.e, provenance="closed-form",
                            window=window, tail_mass_bound=tail)


def full_shift_stationary(k: int) -> StationaryVector:
    w = {i: Fraction(1, k) for i in range(k)}
    return StationaryVector(weights=w, total=Fraction(1), provenance="closed-form",
                            window=k, tail_mass_bound=0.0)


def five_three_profile(window: int) -> dict[int, Fraction]:
    """The non-summable stationary profile (... 3 5 3 5 ...): weight 5 on
    even states, 3 on odd ones.  Satisfies pi Q = pi exactly but has no
    finite total, so it witnesses the absence of a fair measure."""
    return {i: Fraction(5 if i % 2 == 0 else 3) for i in range(-window, window + 1)}


CHAIN_FAMILIES = {
    "unbiased-walk": unbiased_walk,
    "biased-walk": biased_walk,
    "origin-broadcast": origin_broadcast,
    "factorial-chain": factorial_chain,
    "five-three": five_three_chain,
}


def chain_by_name(name: str, **params) -> TransitionRuleSet:
    if name.startswith("full-shift-"):
        return full_shift(int(name.rsplit("-", 1)[1]))
    try:
        return CHAIN_FAMILIES[name](**params)
    except KeyError:
        raise KeyError(f"unknown family {name!r}; known: "
                       f"{sorted(CHAIN_FAMILIES)} or full-shift-<k>") from None

