"""Core data model: packets, instances, schedules and their feasibility.

Everything here is an immutable value type over exact rationals, so every
weight comparison and every gain total is decided without floating point.
Steps are 1-based integers; a packet with deadline d can be transmitted at
steps release..d-1 and is no longer pending from step d on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from typing import Iterable, Iterator, Mapping


class InvariantError(RuntimeError):
    """An internal consistency guarantee was violated; indicates a bug."""


def as_weight(value) -> Fraction:
    """Coerce to an exact positive rational weight."""
    weight = Fraction(value)
    if weight <= 0:
        raise ValueError(f"non-positive weight {value!r}")
    return weight


@dataclass(frozen=True)
class Packet:
    """A packet with release step, deadline, weight and arrival tie-break.

    ``arrival_index`` is the packet's global position in the arrival
    sequence; it makes the deadline-first order below a strict total order
    even between packets that agree on deadline and weight.
    """

    id: str
    release: int
    deadline: int
    weight: Fraction
    arrival_index: int

    def __post_init__(self):
        if self.release < 1:
            raise ValueError(f"packet {self.id}: release must be a positive step")
        if self.deadline <= self.release:
            raise ValueError(
                f"packet {self.id}: empty lifespan "
                f"(deadline {self.deadline} <= release {self.release})"
            )
        object.__setattr__(self, "weight", as_weight(self.weight))

    @property
    def lifespan(self) -> int:
        return self.deadline - self.release

    def pending_window(self, step: int) -> bool:
        """True if the step lies inside this packet's transmission window."""
        return self.release <= step < self.deadline

    def __repr__(self) -> str:
        return f"Packet({self.id}, r={self.release}, d={self.deadline}, w={self.weight})"


def order_key(packet: Packet):
    """Sort key of the deadline-first packet order.

    Earlier deadline first; among equal deadlines the heavier packet first;
    remaining ties broken by earlier arrival.  This is a strict total order
    on the packets of any single instance.
    """
    return (packet.deadline, -packet.weight, packet.arrival_index)


def precedes(first: Packet, second: Packet) -> bool:
    """True if ``first`` comes strictly before ``second`` in the order."""
    return order_key(first) < order_key(second)


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
            if packet.release < previous_release:
                raise ValueError(
                    f"packet {packet.id}: arrival order inconsistent with releases"
                )
            if packet.id in seen_ids:
                raise ValueError(f"duplicate packet id {packet.id!r}")
            if packet.arrival_index <= last_index:
                raise ValueError(
                    f"packet {packet.id}: arrival_index must strictly increase"
                )
            previous_release = packet.release
            seen_ids.add(packet.id)
            last_index = packet.arrival_index

    @classmethod
    def build(cls, specs: Iterable[tuple]) -> "Instance":
        """Build from ``(id, release, deadline, weight)`` rows in arrival order."""
        packets = tuple(
            Packet(str(pid), int(r), int(d), as_weight(w), index)
            for index, (pid, r, d, w) in enumerate(specs)
        )
        return cls(packets)

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

    @cached_property
    def total_weight(self) -> Fraction:
        return sum((p.weight for p in self.packets), Fraction(0))


@dataclass(frozen=True)
class Schedule:
    """A partial injective assignment of steps to packets.

    Stored as slots sorted by step.  Every assigned step must lie in its
    packet's transmission window and no packet appears twice.
    """

    slots: tuple[tuple[int, Packet], ...]

    def __post_init__(self):
        previous_step = None
        seen = set()
        for step, packet in self.slots:
            if previous_step is not None and step <= previous_step:
                raise ValueError("schedule slots must be sorted by strictly increasing step")
            if not packet.pending_window(step):
                raise ValueError(
                    f"packet {packet.id} assigned to step {step} outside its window "
                    f"[{packet.release}, {packet.deadline})"
                )
            if packet in seen:
                raise ValueError(f"packet {packet.id} assigned twice")
            previous_step = step
            seen.add(packet)

    @classmethod
    def from_map(cls, assignment: Mapping[int, Packet]) -> "Schedule":
        return cls(tuple(sorted(assignment.items())))

    def __len__(self) -> int:
        return len(self.slots)

    def __bool__(self) -> bool:
        return bool(self.slots)

    @cached_property
    def packets(self) -> frozenset[Packet]:
        return frozenset(packet for _, packet in self.slots)

    @cached_property
    def weight(self) -> Fraction:
        return sum((packet.weight for _, packet in self.slots), Fraction(0))

    def at(self, step: int) -> Packet | None:
        for slot_step, packet in self.slots:
            if slot_step == step:
                return packet
        return None

    def sequence(self) -> tuple[Packet, ...]:
        """Packets in transmission (step) order."""
        return tuple(packet for _, packet in self.slots)


EMPTY_SCHEDULE = Schedule(())


def is_feasible_set(packets: Iterable[Packet], start: int) -> bool:
    """Can every packet be transmitted inside its window from ``start`` on?

    Earliest-deadline-first simulation over plain deadlines: each step sends
    the released packet with the earliest deadline, and a step with nothing
    released is skipped.  EDF schedules a set of unit packets whenever any
    schedule does, so the answer is exact also for packets released after
    ``start``.
    """
    deadlines = []
    later = []
    for p in packets:
        if p.release <= start:
            deadlines.append(p.deadline)
        else:
            later.append((p.release, p.deadline))
    heapify(deadlines)
    later.sort(reverse=True)
    step = start
    while later:
        if not deadlines and later[-1][0] > step:
            step = later[-1][0]
        while later and later[-1][0] <= step:
            heappush(deadlines, later.pop()[1])
        if heappop(deadlines) <= step:
            return False
        step += 1
    # Everything is released: the rest go out in deadline order.
    for deadline in sorted(deadlines):
        if deadline <= step:
            return False
        step += 1
    return True


def edf_schedule(packets: Iterable[Packet], start: int) -> Schedule:
    """The deadline-first-order schedule of a feasible set.

    Each step from ``start`` on transmits the order-minimal released packet
    and idles when none is released; packets with equal order keys keep
    their input order.  Raises ValueError if a packet misses its deadline,
    that is, if the set is not feasible from ``start``.
    """
    waiting = sorted(
        ((p.release, i, p) for i, p in enumerate(packets)), reverse=True
    )
    available: list[tuple] = []
    slots = []
    step = start
    while waiting or available:
        if not available and waiting[-1][0] > step:
            step = waiting[-1][0]
        while waiting and waiting[-1][0] <= step:
            _, i, p = waiting.pop()
            heappush(available, (order_key(p), i, p))
        packet = heappop(available)[2]
        if packet.deadline <= step:
            raise ValueError(f"packet set is not feasible from step {start}")
        slots.append((step, packet))
        step += 1
    return Schedule(tuple(slots))


def follows_priority_order(schedule: Schedule, start: int) -> bool:
    """Check that a schedule always transmits its order-minimal available packet.

    Gaps are allowed only at steps where none of the schedule's remaining
    packets is available.
    """
    if not schedule.slots:
        return True
    remaining = set(schedule.packets)
    by_step = dict(schedule.slots)
    last_step = schedule.slots[-1][0]
    for step in range(start, last_step + 1):
        available = [p for p in remaining if p.pending_window(step)]
        assigned = by_step.get(step)
        if assigned is None:
            if available:
                return False
            continue
        if not available or assigned != min(available, key=order_key):
            return False
        remaining.remove(assigned)
    return not remaining
