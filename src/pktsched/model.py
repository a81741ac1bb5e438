"""Core data model: packets, instances, schedules and their feasibility.

Everything here is an immutable value type over exact rationals, so every
weight comparison and every gain total is decided without floating point.
Steps are 1-based integers; a packet with deadline d can be transmitted at
steps release..d-1 and is no longer pending from step d on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from heapq import heappop, heappush
from math import lcm
from operator import attrgetter, gt, itemgetter, le
from typing import Iterable, Iterator, Mapping


class InvariantError(RuntimeError):
    """An internal consistency guarantee was violated; indicates a bug."""


class PacketError(ValueError):
    """An input rule broken by the packet at arrival index ``index``."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


# Python's default limit for converting between int and str: a weight or
# a step with more digits could not be written.
MAX_DIGITS = 4300
_TOO_LONG = 10**MAX_DIGITS


def as_weight(value) -> Fraction:
    """The weight rule: ``value`` as an exact positive rational whose
    numerator and denominator have at most ``MAX_DIGITS`` digits, else
    ValueError.  ``value`` is a number, not a bool, or its text ("3/2",
    "1.5", "2e3"); a float keeps its exact binary value.  Text is sized
    before it is built, so "1e999999" allocates nothing, and the size is
    checked before the sign, so no message prints an oversized number.  A
    Fraction is kept as is (it is immutable), so packets built from one
    menu share its weights."""
    if isinstance(value, Fraction):
        weight = value
    else:
        if isinstance(value, str) and _text_digits(value) > MAX_DIGITS:
            raise ValueError(f"invalid weight: more than {MAX_DIGITS} digits")
        try:
            weight = None if type(value) is bool else Fraction(value)
        except (TypeError, ValueError, ZeroDivisionError, OverflowError):
            weight = None
        if weight is None:
            raise ValueError(f"invalid weight {value!r}: not a rational number")
    numerator, denominator = weight.numerator, weight.denominator
    if denominator >= _TOO_LONG or abs(numerator) >= _TOO_LONG:
        raise ValueError(f"invalid weight: more than {MAX_DIGITS} digits")
    if numerator <= 0:
        raise ValueError(f"invalid weight {weight}: a non-positive weight")
    return weight


def _text_digits(text: str) -> int:
    """A bound on the digits of the numerator and of the denominator that
    ``text`` would build: the digits on the longer side of its "/" plus the
    size of its exponent."""
    mantissa, _, exponent = text.lower().partition("e")
    digits = max(sum(map(str.isdigit, side)) for side in mantissa.split("/"))
    try:
        return digits + abs(int(exponent or 0))
    except ValueError:  # not an integer, or one too long to read
        return digits + len(exponent)


def _shown(value) -> str:
    """``repr(value)``, or its size for an int too long to write."""
    if isinstance(value, int) and abs(value) >= _TOO_LONG:
        return f"an int of more than {MAX_DIGITS} digits"
    return repr(value)


@dataclass(frozen=True, slots=True)
class Packet:
    """A packet with release step, deadline, weight and arrival tie-break.

    ``arrival_index`` is the packet's global position in the arrival
    sequence.  The deadline-first order puts the earlier deadline first,
    then the heavier packet, then the earlier arrival; the arrival index
    makes it a strict total order even between packets that agree on
    deadline and weight.  A broken rule raises ``PacketError``.
    """

    id: str
    release: int
    deadline: int
    weight: Fraction
    arrival_index: int
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        # Straight-line checks: this runs for every packet ever built.
        if type(self.id) is not str or not self.id:
            raise PacketError(
                f"packet id must be a nonempty string, not {_shown(self.id)}", self.arrival_index
            )
        # Exact type: a bool is an int subclass, and refused too.
        if type(self.release) is not int or type(self.deadline) is not int:
            raise PacketError(
                f"packet {self.id}: release and deadline must be integer steps, "
                f"not {_shown(self.release)} and {_shown(self.deadline)}; steps must be integers",
                self.arrival_index,
            )
        # Sized before any message prints a step.
        if abs(self.release) >= _TOO_LONG or abs(self.deadline) >= _TOO_LONG:
            raise PacketError(
                f"packet {self.id}: a step of more than {MAX_DIGITS} digits", self.arrival_index
            )
        if self.release < 1:
            raise PacketError(
                f"packet {self.id}: release {self.release} is not a positive step; "
                "release must be >= 1",
                self.arrival_index,
            )
        if self.deadline <= self.release:
            raise PacketError(
                f"packet {self.id}: deadline {self.deadline} <= release "
                f"{self.release}, an empty lifespan",
                self.arrival_index,
            )
        try:
            weight = as_weight(self.weight)
        except ValueError as err:
            raise PacketError(f"packet {self.id}: {err}", self.arrival_index) from None
        object.__setattr__(self, "weight", weight)
        # Hashed once from the compared fields other than the id, so packets
        # that differ only in weight or deadline (as on different search
        # paths) hash apart, and every set or dict operation reads an int.
        # Hashes of int tuples are the same in every process.
        object.__setattr__(
            self,
            "_hash",
            hash(
                (
                    self.arrival_index,
                    self.release,
                    self.deadline,
                    weight.numerator,
                    weight.denominator,
                )
            ),
        )

    @property
    def lifespan(self) -> int:
        return self.deadline - self.release

    def __hash__(self) -> int:
        return self._hash

    def pending_window(self, step: int) -> bool:
        """True if the step lies inside this packet's transmission window."""
        return self.release <= step < self.deadline

    def __repr__(self) -> str:
        return f"Packet({self.id}, r={self.release}, d={self.deadline}, w={self.weight})"


def weight_scale(packets: Iterable[Packet]) -> int:
    """The common denominator of the packets' weights."""
    return lcm(*(p.weight.denominator for p in packets))


def has_agreeable_deadlines(packets: Iterable[Packet]) -> bool:
    """True if packets released later never have earlier deadlines.

    Equivalently, the deadlines never decrease in ``(release, deadline)``
    order: equal releases are sorted by deadline, and each later release
    must reach every deadline before it.
    """
    floor = 0
    for packet in sorted(packets, key=lambda p: (p.release, p.deadline)):
        if packet.deadline < floor:
            return False
        floor = packet.deadline
    return True


@dataclass(frozen=True)
class Instance:
    """An arrival-ordered packet sequence."""

    packets: tuple[Packet, ...]

    def __post_init__(self):
        previous_release = 0
        seen_ids = set()
        last_index = -1
        for packet in self.packets:
            index = packet.arrival_index
            if packet.release < previous_release:
                raise PacketError(
                    f"packet {packet.id}: arrival order inconsistent with releases", index
                )
            if packet.id in seen_ids:
                raise PacketError(f"duplicate packet id {packet.id!r}", index)
            if index <= last_index:
                raise PacketError(
                    f"packet {packet.id}: arrival_index must strictly increase", index
                )
            previous_release = packet.release
            seen_ids.add(packet.id)
            last_index = index

    @classmethod
    def build(cls, specs: Iterable[tuple]) -> "Instance":
        """Build from ``(id, release, deadline, weight)`` rows in arrival order.

        Each row is taken as it is: ``Packet`` and ``Instance`` check every
        rule, and a ``PacketError`` names the row by its arrival index."""
        return cls(
            tuple(Packet(pid, r, d, w, index) for index, (pid, r, d, w) in enumerate(specs))
        )

    def __len__(self) -> int:
        return len(self.packets)

    def __iter__(self) -> Iterator[Packet]:
        return iter(self.packets)

    @cached_property
    def horizon(self) -> int:
        """Last usable step: max deadline minus one (0 for an empty instance)."""
        if not self.packets:
            return 0
        return max(p.deadline for p in self.packets) - 1

    @cached_property
    def first_release(self) -> int:
        if not self.packets:
            return 1
        return min(p.release for p in self.packets)

    @cached_property
    def is_agreeable(self) -> bool:
        """True if packets released later never have earlier deadlines."""
        return has_agreeable_deadlines(self.packets)

    @cached_property
    def arrivals_by_step(self) -> Mapping[int, tuple[Packet, ...]]:
        grouped: dict[int, list[Packet]] = {}
        for packet in self.packets:
            grouped.setdefault(packet.release, []).append(packet)
        return {step: tuple(batch) for step, batch in grouped.items()}


@dataclass(frozen=True)
class Schedule:
    """A partial injective assignment of steps to packets.

    Stored as slots sorted by step.  Every assigned step must lie in its
    packet's transmission window and no packet appears twice.
    """

    slots: tuple[tuple[int, Packet], ...]

    def __post_init__(self):
        # One pass over the slots for step order and windows; the packet set
        # is built once, for ``packets`` too, and is short of a slot iff
        # some packet is assigned twice.
        previous_step = None
        for step, packet in self.slots:
            if previous_step is not None and step <= previous_step:
                raise ValueError("schedule slots must be sorted by strictly increasing step")
            if not packet.release <= step < packet.deadline:
                raise ValueError(
                    f"packet {packet.id} assigned to step {step} outside its window "
                    f"[{packet.release}, {packet.deadline})"
                )
            previous_step = step
        packets = frozenset(packet for _, packet in self.slots)
        if len(packets) != len(self.slots):
            seen = set()
            for _, packet in self.slots:
                if packet in seen:
                    raise ValueError(f"packet {packet.id} assigned twice")
                seen.add(packet)
        # Where the cached property looks first.
        self.__dict__["packets"] = packets

    def __len__(self) -> int:
        return len(self.slots)

    def __bool__(self) -> bool:
        return bool(self.slots)

    @cached_property
    def packets(self) -> frozenset[Packet]:
        return frozenset(packet for _, packet in self.slots)

    def sequence(self) -> tuple[Packet, ...]:
        """Packets in transmission (step) order."""
        return tuple(packet for _, packet in self.slots)


def is_feasible_set(packets: Iterable[Packet], start: int) -> bool:
    """Can every packet be transmitted inside its window from ``start`` on?

    The earliest-deadline-first walk of ``_edf_slots`` over plain deadlines.
    EDF schedules a set of unit packets whenever any schedule does, so the
    answer is exact also for packets released after ``start``.
    """
    try:
        _edf_slots(packets, start, attrgetter("release"), lambda p: (p.deadline,))
    except ValueError:
        return False
    return True


def _edf_slots(members, start: int, release, key) -> list[tuple]:
    """The deadline-first-order schedule of a feasible set of ``members``,
    as ``(step, member)`` slots in step order.

    Each step from ``start`` on sends the order-minimal released member and
    idles when none is released; members with equal order keys keep their
    input order.  ``release`` maps a member to its release and ``key`` to
    its place in the deadline-first order, a tuple whose first item is the
    member's deadline.  A member is a packet or a key of a compiled
    instance (``offline._compile``).  Raises ValueError if a member misses
    its deadline, that is, if the set is not feasible from ``start``."""
    # The members in the order; equal keys keep their input order.
    ranked = sorted(members, key=key)
    releases = list(map(release, ranked))
    # The walk idles only when nothing is released, so its busy steps
    # follow from the releases alone.
    steps = []
    step = start
    for r in sorted(releases):
        if r > step:
            step = r
        steps.append(step)
        step += 1
    if not all(map(le, releases, steps)):
        # Some member is not released at its turn in the order.
        waiting = sorted(range(len(ranked)), key=releases.__getitem__, reverse=True)
        available: list[int] = []
        order = []
        for step in steps:
            while waiting and releases[waiting[-1]] <= step:
                heappush(available, waiting.pop())
            order.append(ranked[heappop(available)])
        ranked = order
    if not all(map(gt, map(itemgetter(0), map(key, ranked)), steps)):
        raise ValueError(f"packet set is not feasible from step {start}")
    return list(zip(steps, ranked))


def _follows_order(slots, start: int, release, key) -> bool:
    """Check that ``(step, member)`` slots in step order are the
    deadline-first-order schedule of their members from ``start``, as
    ``_edf_slots`` lays it out with the same ``release`` and ``key``: each
    step sends the order-minimal available member, and idles only when
    none is available.  Members that miss their deadline there fail it."""
    try:
        return list(slots) == _edf_slots(map(itemgetter(1), slots), start, release, key)
    except ValueError:
        return False
