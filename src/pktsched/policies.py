"""The online policies, exposed behind one stateless decision interface.

Each policy sees only the current oblivious schedule and returns either a
single packet or a two-point lottery.  All golden-ratio comparisons are
decided exactly over rationals through the identity x <= phi  iff
x*x <= x + 1 (valid for x >= 0, since phi is the positive root of
x*x = x + 1); the golden ratio itself is never represented numerically.
The rules themselves (``_choose``, ``_rg_lottery``) read weights as
integers over a common denominator, so the engine applies the same rules
to the packet ranks of its compiled runs as to packets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Sequence, TypeVar

from .model import InvariantError, Packet, weight_scale
from .offline import ObliviousSchedule

_T = TypeVar("_T")

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


def _within_golden(e: int, h: int) -> bool:
    """h <= phi * e for positive integers: h/e <= phi iff h*h <= h*e + e*e."""
    return h * h <= h * e + e * e


def _choose(
    policy: str, e: _T, h: _T, sequence: Sequence[_T], weight: Callable[[_T], int]
) -> _T:
    """A deterministic policy's choice on an oblivious schedule, in integers.

    ``e`` and ``h`` are the schedule's earliest and heaviest members,
    ``sequence`` lists its members in the deadline-first order, so the
    first mg candidate in it is the order-minimal one (only mg reads it),
    and ``weight`` maps a member to its weight as an integer
    over a common denominator.  A member is a packet, or the rank of one
    in a compiled run (``offline._Compiled``).
    """
    if policy == "edf-nondominated":
        return e
    if policy == "greedy-weight":
        return h
    if policy not in ("mg", "mg-prime"):
        raise ValueError(f"unknown policy {policy!r}; choose one of {', '.join(POLICIES)}")
    w_e, w_h = weight(e), weight(h)
    if _within_golden(w_e, w_h):
        return e
    if policy == "mg-prime":
        return h
    # mg: the first member, in the deadline-first order, of weight at least
    # phi * w_e and at least w_h / phi.
    for p in sequence:
        w_p = weight(p)
        if not _within_golden(w_e, w_p) and _within_golden(w_p, w_h):
            return p
    raise RuntimeError("no candidate despite the heaviest packet qualifying")


def _rg_lottery(w_e: int, w_h: int) -> tuple[int, int, int]:
    """The randomized policy's lottery between the earliest packet, of
    weight ``w_e``, and the heaviest, of weight ``w_h`` (integers over one
    denominator): the denominator of w_e / w_h in lowest terms and, over
    it, the numerators of the earliest's probability w_e / w_h and the
    heaviest's 1 - w_e / w_h."""
    if not 0 < w_e <= w_h:
        raise InvariantError(f"earliest weight {w_e} outside (0, {w_h}]")
    g = gcd(w_e, w_h)
    return w_h // g, w_e // g, (w_h - w_e) // g


def rg_distribution(oblivious: ObliviousSchedule) -> PolicyDecision:
    """Randomized choice: the earliest packet with probability w_e / w_h,
    otherwise the heaviest."""
    e, h = _require_pair(oblivious)
    if e == h:
        return PolicyDecision.sure(e)
    denominator, p_e, p_h = _rg_lottery(
        e.weight.numerator * h.weight.denominator, h.weight.numerator * e.weight.denominator
    )
    return PolicyDecision.mixed(((e, Fraction(p_e, denominator)), (h, Fraction(p_h, denominator))))


def decide(policy: str, oblivious: ObliviousSchedule) -> PolicyDecision:
    """Uniform entry point mapping a policy name to its decision on an
    oblivious schedule's packets; a deterministic policy applies
    ``_choose`` to their weights over the schedule's common denominator."""
    if policy == "rg":
        return rg_distribution(oblivious)
    e, h = _require_pair(oblivious)
    sequence = oblivious.schedule.sequence()
    scale = weight_scale(sequence)

    def weight(p: Packet) -> int:
        return p.weight.numerator * (scale // p.weight.denominator)

    return PolicyDecision.sure(_choose(policy, e, h, sequence, weight))


def _require_pair(oblivious: ObliviousSchedule) -> tuple[Packet, Packet]:
    if not oblivious.schedule or oblivious.earliest is None or oblivious.heaviest is None:
        raise ValueError("policy decision requires a nonempty oblivious schedule")
    return oblivious.earliest, oblivious.heaviest
