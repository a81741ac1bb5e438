"""Offline optima and canonical per-step schedules.

Sets of unit packets that can all be transmitted inside their windows form
a transversal matroid, so a weight greedy is exact: take packets by weight
descending (ties in the deadline-first order) and keep each one while the
kept set stays feasible.  The same greedy gives the offline optimum over
pending plus future packets and, over a pending set, the *oblivious
schedule* (optimal deadline-first-order schedule of the pending set, made
canonical by the tie order).  Three exact feasibility tests back the
greedy, chosen by the input: when every packet is released by the start,
the kept packets hold distinct steps (each the latest free one inside its
window); else, when the deadlines are agreeable, the kept packets go out
in release order, each at the earliest step it can, and a candidate is
probed by pushing back the run of slots that follow its own without a gap;
otherwise ``is_feasible_set`` simulates earliest-deadline-first with
release times.  Either way the kept set is laid out in the deadline-first
order.  The first two tests read a candidate's release and deadline
through accessors, so they serve packets and the integer keys of a
compiled instance alike (``engine._compile``: a key is a packet's rank in
the greedy order, so sorting keys gives that order).

The *conforming clairvoyant schedule* is built here as well, by one core
over keys (``_conforming_slots``): the greedy optimum over pending plus
future packets, whose already-pending part lies inside the oblivious
schedule because both greedies share one order, with its first packet
chosen to outweigh every order-earlier oblivious member.
``conforming_clairvoyant`` ranks its packets and calls that core;
``analysis.check_facts`` calls it on the ranks of its compiled instance.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter, sub
from typing import Callable, Collection, Iterable, Sequence, TypeVar

from .model import (
    InvariantError,
    Packet,
    Schedule,
    _edf_slots,
    _release,
    edf_schedule,
    has_agreeable_deadlines,
    is_feasible_set,
    weight_scale,
)

_deadline = attrgetter("deadline")
_T = TypeVar("_T")


def _greedy_order(packets: Iterable[Packet]) -> list[Packet]:
    """The packets by weight descending, ties in the deadline-first order.

    That is the reverse of ascending (weight, -deadline, -arrival_index);
    the sort is stable, so full ties keep their input order.  The weights
    compare as integers over their common denominator, which orders them
    exactly as the Fractions do, without Fraction arithmetic.
    """
    packets = list(packets)
    scale = weight_scale(packets)
    return sorted(
        packets,
        key=lambda p: (
            p.weight.numerator * (scale // p.weight.denominator),
            -p.deadline,
            -p.arrival_index,
        ),
        reverse=True,
    )


def _latest_free_steps(
    candidates: Iterable[_T], start: int, deadline: Callable[[_T], int] = _deadline
) -> list[_T]:
    """The weight greedy over packets all released by ``start``, visited in
    ``candidates``' order: a candidate is kept iff some step in
    ``[start, deadline)`` is still free, and it takes the latest such step
    (unit jobs with deadlines: the kept set stays feasible exactly then).
    Returns the kept candidates in visiting order.  A candidate is a packet
    or, with ``deadline`` mapping it to its packet's deadline, the rank of
    one in a compiled run (``engine._Compiled``)."""
    # A taken step t maps to a lower step below[t] such that every step in
    # (below[t], t] is taken; the first step reached that is not in
    # ``below`` is the latest free one.  Each step of a walk is pointed two
    # links down (path halving), which keeps the walks short.
    below: dict[int, int] = {}
    kept: list[_T] = []
    for p in candidates:
        step = deadline(p) - 1
        while step in below:
            lower = below[step]
            if lower in below:
                lower = below[step] = below[lower]
            step = lower
        if step >= start:
            below[step] = step - 1
            kept.append(p)
    return kept


def _fifo_slots(
    candidates: Iterable[_T],
    start: int,
    release: Callable[[_T], int] = _release,
    deadline: Callable[[_T], int] = _deadline,
) -> list[_T]:
    """The weight greedy over an agreeable set, visited in ``candidates``'
    order; returns the kept candidates in visiting order.  A candidate is a
    packet or, with ``release`` and ``deadline`` mapping it to its packet's,
    a key of a compiled instance.

    With ``r' = max(release, start)``, the deadlines of an agreeable set
    never decrease in ``(r', deadline)`` order, so earliest-deadline-first
    sends the kept packets in that order: each takes ``max(previous slot +
    1, r')``, and the set is feasible iff every slot lies before its
    deadline.  A candidate takes its slot in that order and pushes back by
    one only the run of kept packets whose slots follow on without a gap;
    a failed probe changes nothing.  Kept packets with equal ``(r',
    deadline)`` are interchangeable, so a candidate goes before them.
    """
    keys: list[tuple[int, int]] = []
    slots: list[int] = []
    deadlines: list[int] = []
    kept: list[_T] = []
    for p in candidates:
        d = deadline(p)
        key = (max(release(p), start), d)
        i = bisect_left(keys, key)
        slot = key[0] if i == 0 else max(slots[i - 1] + 1, key[0])
        if slot >= d:
            continue
        # The run is [i, end): slots[j] == slot + j - i there, and since the
        # slots rise by at least one per position, nowhere after it.
        low, end = i, len(slots)
        while low < end:
            mid = (low + end) // 2
            if slots[mid] - mid <= slot - i:
                low = mid + 1
            else:
                end = mid
        if end > i and min(map(sub, deadlines[i:end], slots[i:end])) < 2:
            continue
        keys.insert(i, key)
        slots[i:end] = range(slot, slot + end - i + 1)
        deadlines.insert(i, d)
        kept.append(p)
    return kept


def _greedy_optimal_set(packets: Iterable[Packet], start: int) -> list[Packet]:
    """Maximum-weight subset feasible from ``start``, by the weight greedy.

    Returns the kept packets in greedy order, so over a pending set the
    first one is the order-minimal packet of maximum weight.  The input
    picks one of three exact feasibility tests: when every packet is
    released by ``start`` the kept set takes distinct latest free steps
    (``_latest_free_steps``); else, when the deadlines are agreeable, the
    kept set's slots in release order are probed and shifted
    (``_fifo_slots``); otherwise each candidate is probed with the
    release-aware ``is_feasible_set``.
    """
    candidates = _greedy_order(packets)
    if all(p.release <= start for p in candidates):
        return _latest_free_steps(candidates, start)
    if has_agreeable_deadlines(candidates):
        return _fifo_slots(candidates, start)
    kept: list[Packet] = []
    for p in candidates:
        if is_feasible_set(kept + [p], start):
            kept.append(p)
    return kept


def opt_schedule(packets: Iterable[Packet], start: int) -> tuple[Schedule, Fraction]:
    """Maximum-weight feasible schedule from ``start`` and its exact value.

    Packets left out and idle steps are allowed; release times are
    respected, so future packets may appear with windows beyond ``start``.
    The schedule is the deadline-first-order schedule of the greedy set.
    """
    schedule = edf_schedule(_greedy_optimal_set(packets, start), start)
    return schedule, schedule.weight


@dataclass(frozen=True)
class ObliviousSchedule:
    """Canonical optimal deadline-first schedule of a pending set.

    ``earliest`` is the packet the schedule transmits first (the
    order-minimal non-dominated packet); ``heaviest`` is the order-minimal
    packet of maximum weight.  ``dominated`` holds the pending packets left
    out of the schedule.  The fields may be None only in artificially
    corrupted schedules built by test hooks.
    """

    schedule: Schedule
    start: int
    earliest: Packet | None
    heaviest: Packet | None
    dominated: frozenset[Packet]


def oblivious_schedule(pending: Iterable[Packet], step: int) -> ObliviousSchedule:
    """Optimal deadline-first-order schedule over the pending set.

    Canonicalized by the weight greedy of ``opt_schedule``: packets are
    considered by weight descending (ties in the deadline-first order) and
    kept while the kept set stays feasible.  Every packet is released, so
    the kept set goes out in the deadline-first order on consecutive steps
    from ``step``, and the greedy's first packet is the heaviest.  The test
    suite checks the result against exhaustive enumeration.
    """
    pending = list(pending)
    if not pending:
        raise ValueError("oblivious schedule of an empty pending set")
    for p in pending:
        if not p.pending_window(step):
            raise ValueError(f"packet {p.id} is not pending at step {step}")
    kept = _latest_free_steps(_greedy_order(pending), step)
    # Sorting is stable, so equal deadlines keep the greedy's heavier-first,
    # earlier-arrival-first order: the result is the deadline-first order.
    sequence = sorted(kept, key=_deadline)
    schedule = Schedule(tuple(enumerate(sequence, start=step)))
    dominated = frozenset(pending).difference(schedule.packets)
    return ObliviousSchedule(schedule, step, sequence[0], kept[0], dominated)


def conforming_clairvoyant(
    pending: Iterable[Packet],
    future: Iterable[Packet],
    step: int,
    oblivious: ObliviousSchedule,
) -> Schedule:
    """Optimal schedule over pending plus future packets that conforms with
    the oblivious schedule.

    The result is a deadline-first-order schedule, its already-pending part
    is contained in the oblivious schedule, and every oblivious packet that
    precedes its first packet in the order weighs strictly less.  Built as
    the greedy optimum of ``opt_schedule``, whose first packet is then
    substituted by the order-minimal non-dominated packet of equal weight.

    The greedy over pending plus future packets keeps a pending packet only
    if the pending-only greedy of the oblivious schedule keeps it: both
    visit packets in the same order, and a pending packet not spanned by
    the earlier packets of the union is not spanned by the earlier pending
    ones either.  So the pending part already lies inside a true oblivious
    schedule; a pending packet outside ``oblivious`` raises InvariantError.
    The packets are ranked in the greedy order and built by the core over
    ranks, ``_conforming_slots``.
    """
    pending = list(pending)
    future = list(future)
    if not pending:
        raise ValueError("conforming schedule requires a nonempty pending set")
    for p in pending:
        if not p.pending_window(step):
            raise ValueError(f"packet {p.id} is not pending at step {step}")
    for p in future:
        if p.release <= step:
            raise ValueError(f"packet {p.id} is not a future arrival at step {step}")
    universe = pending + future
    if not has_agreeable_deadlines(universe):
        raise ValueError("conforming schedules require agreeable deadlines")
    scheduled = oblivious.schedule.packets
    order = _greedy_order(scheduled.union(universe))
    rank = {p: k for k, p in enumerate(order)}
    slots = _conforming_slots(
        sorted(map(rank.__getitem__, universe)),
        step,
        set(map(rank.__getitem__, scheduled)),
        [p.release for p in order],
        [p.deadline for p in order],
        [p.weight for p in order],
        lambda k: order[k].id,
    )
    return Schedule(tuple((t, order[k]) for t, k in slots))


def _conforming_slots(
    candidates: list[int],
    step: int,
    oblivious: Collection[int],
    releases: Sequence[int],
    deadlines: Sequence[int],
    weights: Sequence,
    name: Callable[[int], str],
) -> list[tuple[int, int]]:
    """The conforming clairvoyant schedule over keys, as ``(step, key)``
    slots in step order.

    ``candidates`` are the keys of the pending and the future packets in
    increasing order, the greedy order, and together agreeable;
    ``oblivious`` holds the keys of the oblivious schedule.  ``releases``,
    ``deadlines`` and ``weights`` are indexed by key, and ``name`` names a
    key's packet in an error.  Among equal deadlines, key order is the
    deadline-first order, so ``(deadline, key)`` is that order.
    """
    release, deadline = releases.__getitem__, deadlines.__getitem__
    if max(map(release, candidates), default=step) <= step:
        kept = _latest_free_steps(candidates, step, deadline)
    else:
        kept = _fifo_slots(candidates, step, release, deadline)
    slots = _edf_slots(kept, step, release, lambda k: (deadlines[k], k))
    for _, k in slots:
        if release(k) <= step and k not in oblivious:
            raise InvariantError(
                f"pending packet {name(k)} of the optimum lies outside the "
                "oblivious schedule; the oblivious schedule is not optimal"
            )
    if not slots or slots[0][0] != step:
        raise InvariantError("conforming schedule leaves the current step idle")
    first = slots[0][1]
    # Among keys of one weight, key order is by deadline, then arrival.
    substitute = min((k for k in oblivious if weights[k] == weights[first]), default=None)
    if substitute is None:
        raise InvariantError(
            "first packet of the conforming schedule is not weight-matched "
            "in the oblivious schedule"
        )
    if substitute != first:
        if substitute in kept:
            raise InvariantError("equal-weight substitute already scheduled")
        slots[0] = (step, substitute)
    return slots
