"""The online policies, exposed behind one stateless decision interface.

Each policy sees only the current oblivious schedule, and ``decide``
returns its outcomes as ``(packet, probability)`` pairs: one sure packet,
or rg's two-point lottery.  All golden-ratio comparisons are
decided exactly over rationals through the identity x <= phi  iff
x*x <= x + 1 (valid for x >= 0, since phi is the positive root of
x*x = x + 1); the golden ratio itself is never represented numerically.
The rules themselves (``_choose``, ``_rg_lottery``) read weights as
integers over a common denominator, so the engine applies the same rules
to the packet ranks of its compiled runs as to packets.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Callable, Sequence, TypeVar

from .model import InvariantError, Packet, weight_scale
from .offline import ObliviousSchedule

_T = TypeVar("_T")

DETERMINISTIC_POLICIES = ("mg", "mg-prime", "greedy-weight", "edf-nondominated")
RANDOMIZED_POLICIES = ("rg",)
POLICIES = DETERMINISTIC_POLICIES + RANDOMIZED_POLICIES


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


def decide(policy: str, oblivious: ObliviousSchedule) -> tuple[tuple[Packet, Fraction], ...]:
    """A policy's decision on an oblivious schedule, as ``(packet,
    probability)`` outcomes: one, sure, for a deterministic policy and for
    rg with one candidate, and rg's lottery of two otherwise.  The rules
    read the packets' weights as integers over the schedule's common
    denominator."""
    e, h = oblivious.earliest, oblivious.heaviest
    if e is None or h is None:
        raise ValueError("policy decision requires a nonempty oblivious schedule")
    sequence = oblivious.schedule.sequence()
    scale = weight_scale(sequence)

    def weight(p: Packet) -> int:
        return p.weight.numerator * (scale // p.weight.denominator)

    if policy == "rg" and e != h:
        denominator, p_e, p_h = _rg_lottery(weight(e), weight(h))
        return (e, Fraction(p_e, denominator)), (h, Fraction(p_h, denominator))
    sent = e if policy == "rg" else _choose(policy, e, h, sequence, weight)
    return ((sent, Fraction(1)),)
