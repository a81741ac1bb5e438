"""The online policies, exposed behind one stateless decision interface.

Each policy sees only the current oblivious schedule and returns either a
single packet or a two-point lottery.  All golden-ratio comparisons are
decided exactly over rationals through the identity x <= phi  iff
x*x <= x + 1 (valid for x >= 0, since phi is the positive root of
x*x = x + 1); the golden ratio itself is never represented numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .model import Packet, order_key
from .offline import ObliviousSchedule

DETERMINISTIC_POLICIES = ("mg", "mg-prime", "greedy-weight", "edf-nondominated")
RANDOMIZED_POLICIES = ("rg",)
POLICIES = DETERMINISTIC_POLICIES + RANDOMIZED_POLICIES


@dataclass(frozen=True)
class PolicyDecision:
    """Either a deterministic packet choice or a probability-weighted pair."""

    deterministic: Packet | None = None
    lottery: tuple[tuple[Packet, Fraction], ...] | None = None

    def __post_init__(self):
        if (self.deterministic is None) == (self.lottery is None):
            raise ValueError("exactly one of deterministic/lottery must be set")
        if self.lottery is not None:
            if not 1 <= len(self.lottery) <= 2:
                raise ValueError("lottery must have one or two outcomes")
            # In integers over the common denominator: each numerator lies
            # in [0, scale] and together they sum to scale.
            scale = lcm(*(q.denominator for _, q in self.lottery))
            total = 0
            for _, probability in self.lottery:
                share = probability.numerator * (scale // probability.denominator)
                if not 0 <= share <= scale:
                    raise ValueError(f"probability {probability} outside [0, 1]")
                total += share
            if total != scale:
                raise ValueError(
                    f"lottery probabilities sum to {Fraction(total, scale)}, not 1"
                )

    @classmethod
    def sure(cls, packet: Packet) -> "PolicyDecision":
        return cls(deterministic=packet)

    @classmethod
    def mixed(cls, outcomes: tuple[tuple[Packet, Fraction], ...]) -> "PolicyDecision":
        return cls(lottery=outcomes)


def at_most_golden(x: Fraction) -> bool:
    """x <= phi, decided exactly for nonnegative rationals: with x = n/d,
    x*x <= x + 1 iff n*n <= n*d + d*d."""
    n, d = x.numerator, x.denominator
    if n < 0:
        raise ValueError("golden-ratio comparison needs a nonnegative value")
    return n * n <= n * d + d * d


def at_least_golden(x: Fraction) -> bool:
    """x >= phi, decided exactly for nonnegative rationals."""
    n, d = x.numerator, x.denominator
    if n < 0:
        raise ValueError("golden-ratio comparison needs a nonnegative value")
    return n * n >= n * d + d * d


def golden_test(w_e: Fraction, w_h: Fraction) -> bool:
    """True iff phi * w_e >= w_h, i.e. the weight gap is within the golden ratio.

    Over the common denominator the weights are the integers e and h, and
    h/e <= phi iff h*h <= h*e + e*e."""
    if w_e <= 0 or w_h <= 0:
        raise ValueError("weights must be positive")
    e = w_e.numerator * w_h.denominator
    h = w_h.numerator * w_e.denominator
    return h * h <= h * e + e * e


def mg_choose(oblivious: ObliviousSchedule) -> Packet:
    """Original greedy: the earliest packet when the gap is within the golden
    ratio, otherwise the order-minimal packet within a golden-ratio factor of
    both the earliest and the heaviest."""
    e, h = _require_pair(oblivious)
    if golden_test(e.weight, h.weight):
        return e
    candidates = [
        p
        for p in oblivious.schedule.packets
        if at_least_golden(p.weight / e.weight) and at_most_golden(h.weight / p.weight)
    ]
    if not candidates:
        raise RuntimeError("no candidate despite the heaviest packet qualifying")
    return min(candidates, key=order_key)


def mg_prime_choose(oblivious: ObliviousSchedule) -> Packet:
    """Simplified greedy: the earliest packet when the gap is within the
    golden ratio, otherwise the heaviest."""
    e, h = _require_pair(oblivious)
    return e if golden_test(e.weight, h.weight) else h


def rg_distribution(oblivious: ObliviousSchedule) -> PolicyDecision:
    """Randomized choice: the earliest packet with probability w_e / w_h,
    otherwise the heaviest."""
    e, h = _require_pair(oblivious)
    if e == h:
        return PolicyDecision.sure(e)
    p_earliest = e.weight / h.weight
    return PolicyDecision.mixed(((e, p_earliest), (h, 1 - p_earliest)))


def baseline_choose(name: str, oblivious: ObliviousSchedule) -> Packet:
    e, h = _require_pair(oblivious)
    if name == "greedy-weight":
        return h
    if name == "edf-nondominated":
        return e
    raise ValueError(f"unknown baseline {name!r}")


def decide(policy: str, oblivious: ObliviousSchedule) -> PolicyDecision:
    """Uniform entry point mapping a policy name to its decision."""
    if policy == "mg":
        return PolicyDecision.sure(mg_choose(oblivious))
    if policy == "mg-prime":
        return PolicyDecision.sure(mg_prime_choose(oblivious))
    if policy == "rg":
        return rg_distribution(oblivious)
    if policy in ("greedy-weight", "edf-nondominated"):
        return PolicyDecision.sure(baseline_choose(policy, oblivious))
    raise ValueError(f"unknown policy {policy!r}; choose one of {', '.join(POLICIES)}")


def _require_pair(oblivious: ObliviousSchedule) -> tuple[Packet, Packet]:
    if not oblivious.schedule or oblivious.earliest is None or oblivious.heaviest is None:
        raise ValueError("policy decision requires a nonempty oblivious schedule")
    return oblivious.earliest, oblivious.heaviest
