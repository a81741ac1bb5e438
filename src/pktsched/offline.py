"""Offline optima and canonical per-step schedules, over compiled keys.

Sets of unit packets that can all be transmitted inside their windows form
a transversal matroid, so a weight greedy is exact: take packets by weight
descending (ties in the deadline-first order) and keep each one while the
kept set stays feasible.  ``_compile`` ranks a packet set in that order
once: a packet's key is its rank, so sorting keys gives the greedy order,
and the keys' releases, deadlines and weights (integers over a common
denominator) sit in lists indexed by key.  The engine's runs and the fact
checks of one instance share one compile and one optimum, ``_solved``.

The offline optimum over pending plus future packets has two paths.
When the deadlines never fall in release order from the start (agreeable
deadlines, or every key released by it), the kept keys go out in that
order, each at the earliest step it can, and one pass in that order,
``_fifo_solve``, keeps the greedy basis by matroid exchanges, each circuit
a run of consecutive slots.  The pass checks that order itself and gives
up at the first falling deadline; then ``_probed_keys`` keeps each key
whose packet passes ``is_feasible_set``, an earliest-deadline-first
simulation with release times, beside the kept ones.  The kept set is
laid out in the deadline-first order, which on keys is ``(deadline,
key)``.  ``opt_schedule`` is a compile and that optimum; ``_solved``
keeps an instance's compile and optimum, solved once.

Over a pending set, every key is released, and ``_ranked_step`` gives the
*oblivious schedule* (optimal deadline-first-order schedule of the pending
set, made canonical by the tie order) with its earliest and heaviest key.
It serves exact mode, the search and ``oblivious_schedule``, whose
pending sets branch.  A single path instead carries its oblivious
schedule, the greedy basis of its pending set, from step to step
(``_Basis``): the sent key, the lost slot and each arrival change it by
at most one exchange, found by a bisection and a scan that skips by slack.
One walk, ``_walk``, steps it for every single path, the engine's runs
and ``analysis.check_facts``, each of which only chooses the sent key.

The *conforming clairvoyant schedule* is built here as well: its kept set
C is the greedy optimum over pending plus future packets, whose pending
part lies inside the oblivious schedule because both greedies share one
order, and ``_conforming_front`` picks its first packet to outweigh every
order-earlier oblivious member.  ``conforming_clairvoyant`` solves C
afresh by ``_fifo_solve``, the reference; a single path carries it
(``_Conforming``), changed by the sent key, its replacement and the lost
slot, each one exchange found by a bisection or by Hall's condition on
C's slots.  ``analysis.check_facts`` steps it and reads its released
members, never laying all of C out.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress, count
from operator import eq, gt, sub
from typing import Callable, Collection, Iterable, Iterator, NamedTuple, Sequence

from .model import (
    Instance,
    InvariantError,
    Packet,
    Schedule,
    _edf_slots,
    is_feasible_set,
    weight_scale,
)


class _Compiled(NamedTuple):
    """A packet set compiled to its key space.

    A packet's key is its rank in the greedy order: weight descending, ties
    in the deadline-first order, full ties in input order.  So sorting keys
    gives their greedy order.  ``releases``, ``deadlines`` and ``weights``
    (integers over ``scale``) are indexed by key; ``arrivals`` and
    ``expiring`` map a step to the keys released at it and to the keys
    whose deadline it is, ``arrivals`` in step order.
    """

    packets: list[Packet]
    releases: list[int]
    deadlines: list[int]
    weights: list[int]
    scale: int
    arrivals: dict[int, list[int]]
    expiring: dict[int, list[int]]


def _compile(packets: Iterable[Packet]) -> _Compiled:
    """The key space of ``packets``: an instance's, or several instances'
    packets, whose keys sort in each instance's greedy order.  The weights
    compare as integers over their common denominator, which orders them
    exactly as the Fractions do, without Fraction arithmetic."""
    packets = list(packets)
    scale = weight_scale(packets)
    if scale == 1:
        scaled = [p.weight.numerator for p in packets]
    else:
        scaled = [p.weight.numerator * (scale // p.weight.denominator) for p in packets]
    ranked = sorted(
        range(len(packets)),
        key=lambda i: (-scaled[i], packets[i].deadline, packets[i].arrival_index),
    )
    packets = list(map(packets.__getitem__, ranked))
    releases = [p.release for p in packets]
    deadlines = [p.deadline for p in packets]
    arrivals: dict[int, list[int]] = {}
    for release, rank in sorted(zip(releases, count())):
        arrivals.setdefault(release, []).append(rank)
    expiring: dict[int, list[int]] = {}
    for rank, deadline in enumerate(deadlines):
        expiring.setdefault(deadline, []).append(rank)
    weights = list(map(scaled.__getitem__, ranked))
    return _Compiled(packets, releases, deadlines, weights, scale, arrivals, expiring)


@lru_cache(maxsize=1)
def _solved(instance: Instance) -> tuple[_Compiled, int, _Conforming | None]:
    """The compile of a frozen instance, its offline optimum's value from
    the first arrival step (over the scale) and the greedy set that gives
    it as ``_fifo_solve`` lays it out, None for deadlines that are not
    agreeable.  Kept for the last instance, so the runs and the fact checks
    of one instance (or of equal ones) share one compile and one solve,
    which they only read."""
    compiled = _compile(instance)
    everything, start = range(len(compiled.packets)), next(iter(compiled.arrivals), 1)
    solved = _fifo_solve(everything, start, compiled.releases, compiled.deadlines)
    kept = solved.keys if solved else _probed_keys(compiled.packets, start)
    return compiled, sum(map(compiled.weights.__getitem__, kept)), solved


def _latest_free_steps(
    candidates: Iterable[int], start: int, deadlines: Sequence[int]
) -> list[int]:
    """The weight greedy over keys all released by ``start``, visited in
    ``candidates``' order: a key is kept iff some step in ``[start,
    deadline)`` is still free, and it takes the latest such step (unit jobs
    with deadlines: the kept set stays feasible exactly then).  Returns the
    kept keys in visiting order; ``deadlines`` is indexed by key."""
    # A taken step t maps to a lower step below[t] such that every step in
    # (below[t], t] is taken; the first step reached that is not in
    # ``below`` is the latest free one.  Each step of a walk is pointed two
    # links down (path halving), which keeps the walks short.
    below: dict[int, int] = {}
    kept: list[int] = []
    for k in candidates:
        step = deadlines[k] - 1
        while step in below:
            lower = below[step]
            if lower in below:
                lower = below[step] = below[lower]
            step = lower
        if step >= start:
            below[step] = step - 1
            kept.append(k)
    return kept


def _fifo_solve(
    candidates: Iterable[int], start: int, releases: Sequence[int], deadlines: Sequence[int]
) -> _Conforming | None:
    """The weight greedy over the keys ``candidates`` from ``start``, as
    the four lists of a ``_Conforming``, or None if a deadline falls in the
    FIFO order ``(r', deadline)``, ``r' = max(release, start)``: the keys
    are not agreeable from ``start``.  ``releases`` and ``deadlines`` are
    indexed by key.

    Where the deadlines never fall in the FIFO order, the kept keys go out
    in that order, each at ``max(previous slot + 1, r')``.  Keys are
    visited in that order, ties by descending key, so each goes last, and
    the greedy basis is kept by exchanges: a key that misses its deadline
    closes a circuit with the members from the last *pinned* one (whose
    slot is its r') on, and its last-ranked key leaves.  No member after
    it waits for its release or has r' below the pinned one's, so each
    moves back one slot.
    """
    slots: list[int] = []
    keys: list[int] = []
    firsts: list[int] = []  # the members' r', which never falls
    pinned: list[int] = []  # the positions whose slot is their r', rising
    rest: list[int] = []
    floor = 0
    for k in sorted(candidates, key=lambda k: (max(releases[k], start), deadlines[k], -k)):
        d, r = deadlines[k], max(releases[k], start)
        if d < floor:
            return None
        floor = d
        if r >= d:
            rest.append(k)
            continue
        if slots and slots[-1] >= d - 1:
            p = pinned[-1]
            y = max(keys[p:])
            if y < k:
                rest.append(k)
                continue
            rest.append(y)
            i = keys.index(y, p)
            # The run's slots follow on from p, so moving the members after
            # y back by one drops the last slot.
            del keys[i], firsts[i], slots[-1]
            if i == p:
                pinned.pop()
            if i < len(slots):
                i = bisect_left(firsts, slots[i], i)  # r' never falls
                pinned.extend(compress(count(i), map(eq, firsts[i:], slots[i:])))
        slot = max(slots[-1] + 1, r) if slots else r
        if slot == r:
            pinned.append(len(slots))
        slots.append(slot)
        keys.append(k)
        firsts.append(r)
    rest.sort()
    return _Conforming(slots, list(map(deadlines.__getitem__, keys)), keys, rest)


def _run_end(slots: list[int], i: int, slot: int) -> int:
    """The end of the run of ``slots`` from position ``i`` that follows
    ``slot`` on without a gap: ``slots[j] == slot + j - i`` on ``[i,
    end)``, and since the slots rise by at least one per position, nowhere
    after it."""
    return bisect_right(range(len(slots)), slot - i, i, key=lambda j: slots[j] - j)


def _probed_keys(packets: Sequence[Packet], start: int) -> list[int]:
    """The weight greedy over every key of the compiled ``packets`` from
    ``start``, where ``_fifo_solve`` does not apply: a key is kept iff its
    packet and the kept ones pass ``is_feasible_set``, which simulates
    earliest-deadline-first with release times."""
    kept: list[int] = []
    for k in range(len(packets)):
        if is_feasible_set(map(packets.__getitem__, [*kept, k]), start):
            kept.append(k)
    return kept


def opt_schedule(packets: Iterable[Packet], start: int) -> tuple[Schedule, Fraction]:
    """Maximum-weight feasible schedule from ``start`` and its exact value.

    Packets left out and idle steps are allowed; release times are
    respected, so future packets may appear with windows beyond ``start``.
    The schedule is the deadline-first-order schedule of the greedy set.
    """
    compiled = _compile(packets)
    order, deadlines = compiled.packets, compiled.deadlines
    solved = _fifo_solve(range(len(order)), start, compiled.releases, deadlines)
    kept = solved.keys if solved else _probed_keys(order, start)
    slots = _edf_slots(kept, start, compiled.releases.__getitem__, lambda k: (deadlines[k], k))
    value = Fraction(sum(map(compiled.weights.__getitem__, kept)), compiled.scale)
    return Schedule(tuple((t, order[k]) for t, k in slots)), value


@dataclass(frozen=True)
class ObliviousSchedule:
    """Canonical optimal deadline-first schedule of a pending set.

    ``earliest`` is the packet the schedule transmits first (the
    order-minimal non-dominated packet); ``heaviest`` is the order-minimal
    packet of maximum weight.  The fields may be None only in artificially
    corrupted schedules built by test hooks.
    """

    schedule: Schedule
    start: int
    earliest: Packet | None
    heaviest: Packet | None


def _ranked_step(
    deadlines: Sequence[int], weights: Sequence[int], pending: Iterable[int], step: int
) -> tuple[list[int], int, int]:
    """The oblivious schedule of ``pending``, keys all pending at ``step``:
    its keys in the deadline-first order, its earliest key and its
    heaviest.  Raises InvariantError if a key's slot misses its deadline or
    the earliest outweighs the heaviest."""
    kept = _latest_free_steps(sorted(pending), step, deadlines)
    # Stable on the greedy order: the deadline-first order.
    deadline = deadlines.__getitem__
    sequence = sorted(kept, key=deadline)
    if not all(map(gt, map(deadline, sequence), count(step))):
        raise InvariantError(f"oblivious schedule at step {step} misses a deadline")
    e, h = sequence[0], kept[0]
    if not 0 < weights[e] <= weights[h]:
        raise InvariantError(f"earliest packet outweighs the heaviest at step {step}")
    return sequence, e, h


class _Basis(NamedTuple):
    """The oblivious schedule of a single path's pending set, carried from
    step to step by exchanges instead of re-solved.

    The sets of pending keys that fit from a step form a matroid, and the
    oblivious schedule is its greedy basis B (``_ranked_step``).  B is
    held in the deadline-first order, ``(deadline, key)``, in two parallel
    lists, ``deadlines`` and ``keys``; ``rest`` holds the pending
    non-members in key order, the greedy order.  B fits from step t iff
    ``deadlines[j] - j > t`` at every position j, and position j is
    *tight* at t when ``deadlines[j] - j == t + 1``: no key with a deadline
    up to its own fits in beside B.  ``keys`` is the schedule's sequence,
    so its first key is the earliest and its smallest the heaviest.  A
    pending key alone always fits, so B is empty only when nothing is
    pending.  ``_walk`` steps it by ``_basis_admit``, ``_basis_view``
    and ``_basis_send``, which read the per-key lists of the compile.
    """

    deadlines: list[int]
    keys: list[int]
    rest: list[int]


def busy_steps(arrivals: Iterable[int], carrying: Callable[[], bool]) -> Iterator[int]:
    """The steps a run visits: each arrival step, in the increasing order
    of ``arrivals``, and after a step the next one while ``carrying()``
    reports a nonempty carried set.  From an empty carry the run jumps to
    the next arrival step, skipping the idle steps in between, where
    nothing is pending."""
    arrival_steps = iter(arrivals)
    step = next(arrival_steps, None)
    while step is not None:
        yield step
        if carrying():
            step += 1
        else:
            step = next((s for s in arrival_steps if s > step), None)


def _walk(compiled: _Compiled, choose: Callable[[int, list[int], int, int], int]) -> int:
    """Step one path of ``compiled`` with its carried oblivious schedule
    and return the total weight sent, times the scale.

    At each busy step the arrivals join the basis, and ``choose(step,
    sequence, e, h)`` gets the schedule's keys in the deadline-first order
    (the live list, to be read before it returns), its earliest key and its
    heaviest, and returns the key to send, one of ``sequence``; the basis
    then moves on."""
    arrivals, expiring = compiled.arrivals, compiled.expiring
    deadlines, weights = compiled.deadlines, compiled.weights
    basis = _Basis([], [], [])
    total = 0
    for step in busy_steps(arrivals, lambda: bool(basis.keys)):
        arrived = arrivals.get(step)
        if arrived:
            _basis_admit(basis, arrived, step, deadlines)
        sequence, e, h = _basis_view(basis, step, weights)
        sent = choose(step, sequence, e, h)
        total += weights[sent]
        _basis_send(basis, sent, step, deadlines, expiring.get(step + 1, ()))
    return total


def _basis_admit(basis: _Basis, arrivals: Iterable[int], step: int, deadlines: list[int]) -> None:
    """Add the keys arriving at ``step`` to the carried ``basis``.

    A key x joins B if B plus x still fits, that is, if no position whose
    deadline is at least x's is tight.  Otherwise the circuit is x and
    every member up to the first such tight position, and its last-ranked
    key, the largest, goes to ``rest``."""
    dls, keys, rest = basis
    tight = step + 1
    for x in arrivals:
        d = deadlines[x]
        if not dls or d > dls[-1]:  # no position at or after d
            dls.append(d)
            keys.append(x)
            continue
        low = bisect_left(dls, d)
        end = _first_tight(dls, tight, low, len(dls)) + 1
        if end <= len(dls):
            y = max(keys[:end])
            if y < x:
                insort(rest, x)
                continue
            i = keys.index(y, 0, end)
            del dls[i], keys[i]
            insort(rest, y)
            low = bisect_left(dls, d)
        high = bisect_right(dls, d, low)
        i = bisect_left(keys, x, low, high)
        dls.insert(i, d)
        keys.insert(i, x)


def _basis_view(basis: _Basis, step: int, weights: list[int]) -> tuple[list[int], int, int]:
    """The oblivious schedule the carried ``basis`` holds at ``step``, as
    ``_ranked_step`` gives it: its keys in the deadline-first order (the
    live list, to be read before the basis moves on), its earliest key and
    its heaviest, under the same checks."""
    dls, keys, _ = basis
    if not all(map(gt, dls, count(step))):
        raise InvariantError(f"oblivious schedule at step {step} misses a deadline")
    e, h = keys[0], min(keys)
    if not 0 < weights[e] <= weights[h]:
        raise InvariantError(f"earliest packet outweighs the heaviest at step {step}")
    return keys, e, h


def _basis_send(
    basis: _Basis, sent: int, step: int, deadlines: list[int], expiring: Iterable[int]
) -> None:
    """Carry ``basis`` from ``step`` to the next step once its member
    ``sent`` went out; ``expiring`` are the keys whose deadline is the next
    step.

    The sent key leaves B, and the first-ranked non-member that fits takes
    its place: one whose deadline lies after B's last tight position.  Then
    the slot of ``step`` is lost: if B no longer fits, the circuit is every
    member up to the first position that broke, and its last-ranked key
    goes to ``rest``.  Only a position before the sent one can break,
    unless a replacement joined.  B then holds no expired key, so expiry
    only removes non-members."""
    dls, keys, rest = basis
    tight = step + 1
    i = keys.index(sent)
    del dls[i], keys[i]
    # The positions from i on gained a step of slack: none of them is tight.
    if rest:
        slack = list(map(sub, reversed(dls[:i]), range(i - 1, -1, -1)))
        after = dls[i - 1 - slack.index(tight)] if tight in slack else 0
        for r, x in enumerate(rest):
            d = deadlines[x]
            if d > after:
                del rest[r]
                low = bisect_left(dls, d)
                j = bisect_left(keys, x, low, bisect_right(dls, d, low))
                dls.insert(j, d)
                keys.insert(j, x)
                i = len(dls)
                break
    end = _first_tight(dls, tight, 0, i) + 1
    if end <= i:
        y = max(keys[:end])
        j = keys.index(y, 0, end)
        del dls[j], keys[j]
        insort(rest, y)
    if rest:
        _discard(rest, expiring)


def _first_tight(dls: list[int], tight: int, j: int, end: int) -> int:
    """The first position p in ``[j, end)`` with ``dls[p] - p == tight``,
    else ``end``.  The deadlines never fall, so ``dls[p] - p`` falls by at
    most one per position, and the scan jumps ahead by the slack it sees."""
    while j < end:
        slack = dls[j] - j - tight
        if not slack:
            return j
        j += slack if slack > 0 else 1
    return end


def _discard(rest: list[int], keys: Iterable[int]) -> None:
    """Remove ``keys`` from the sorted list ``rest`` where it holds them."""
    for x in keys:
        j = bisect_left(rest, x)
        if j < len(rest) and rest[j] == x:
            del rest[j]


class _Conforming(NamedTuple):
    """The greedy basis C of a single path's pending plus future keys from
    its step, with releases, carried by exchanges instead of re-solved.

    C is held as ``_fifo_solve`` gives it: in order of the *FIFO key*
    ``(max(release, t), deadline)`` at step t, with each member's slot, in
    the parallel lists ``slots``, ``deadlines`` and ``keys``; ``rest`` holds
    the non-members in key order.  A FIFO key is read off the release and
    the step, so a new step keeps the order and rewrites nothing.  A member
    is *tight* when its slot is the last of its window, and from the first
    slot of its run of consecutive slots to its deadline, members fill
    every slot: a *tight interval*.  By Hall's condition a key fits beside
    C iff its window lies inside no tight interval.  Arrivals leave pending
    plus future as it is, so only ``_conforming_send`` moves C.
    """

    slots: list[int]
    deadlines: list[int]
    keys: list[int]
    rest: list[int]


def _conforming_send(
    conforming: _Conforming,
    sent: int,
    step: int,
    releases: list[int],
    deadlines: list[int],
    expiring: Iterable[int],
) -> None:
    """Carry C from ``step`` to the next step once the pending key ``sent``
    went out; ``expiring`` are the keys whose deadline is the next step.

    A sent member leaves, the run its slot held back moves up, and the
    first-ranked non-member that fits joins (``_conforming_replace``).
    Then the slot of ``step`` is lost, a quotient: add a key e that only
    this slot serves, first-ranked, and contract it.  If C plus e does not
    fit, the circuit is e and the members up to the first tight one of the
    run at ``step``; its last-ranked member leaves and the ones before it
    move one slot on.  C then holds no expired key."""
    slots, dls, keys, rest = conforming
    r = bisect_left(rest, sent)
    if r < len(rest) and rest[r] == sent:
        del rest[r]
    else:
        i = keys.index(sent)  # in the pending prefix
        slot = slots[i]
        del slots[i], dls[i], keys[i]
        if i < len(slots) and slots[i] == slot + 1 and releases[keys[i]] <= slot:
            # The run that followed it moves back by one, up to its first
            # member that waits for its release (its slots are after the
            # step, so a slot is r' exactly when it is the release).
            end = _run_end(slots, i, slot + 1)
            released = map(releases.__getitem__, keys[i:end])
            end = next(compress(count(i), map(eq, released, slots[i:end])), end)
            slots[i:end] = range(slot, slot + end - i)
        if rest:
            _conforming_replace(conforming, step, releases, deadlines)
    if slots and slots[0] == step:
        end = _run_end(slots, 0, step)
        slack = list(map(sub, dls[:end], slots[:end]))
        if 1 in slack:
            end = slack.index(1) + 1
            y = max(keys[:end])
            end = keys.index(y, 0, end)
            del slots[end], dls[end], keys[end]
            insort(rest, y)
        slots[:end] = range(step + 1, step + 1 + end)
    if rest:
        _discard(rest, expiring)


def _conforming_replace(
    conforming: _Conforming, step: int, releases: list[int], deadlines: list[int]
) -> None:
    """Add to C, which just lost a member at ``step``, the first-ranked
    non-member whose window lies inside none of C's tight intervals, if
    any.  In the FIFO order (deadline order, ties by r') it goes ahead of
    members with equal ``(r', deadline)``, which are interchangeable, and
    pushes back by one the run of members whose slots follow its own
    without a gap.  Raises InvariantError if one of them then misses its
    deadline."""
    slots, dls, keys, rest = conforming
    # The tight intervals, disjoint and in order; slot minus position is
    # constant on a run of consecutive slots and rises from run to run.
    offsets = list(map(sub, slots, range(len(slots))))
    starts: list[int] = []
    ends: list[int] = []
    for j in compress(count(), map((1).__eq__, map(sub, dls, slots))):
        start = offsets[j] + bisect_left(offsets, offsets[j])
        if starts and starts[-1] == start:
            ends[-1] = dls[j]
        else:
            starts.append(start)
            ends.append(dls[j])
    for n, x in enumerate(rest):
        h = bisect_right(starts, max(releases[x], step))
        if not h or deadlines[x] > ends[h - 1]:
            break
    else:
        return
    del rest[n]
    d, r = deadlines[x], max(releases[x], step)
    i = bisect_left(dls, d)
    if r > step:
        # Past the members of deadline d whose r' is below r, that is,
        # whose release is: r' and release agree from r on.
        i = bisect_left(keys, r, i, bisect_right(dls, d, i), key=releases.__getitem__)
    slot = r if i == 0 else max(slots[i - 1] + 1, r)
    end = i if i == len(slots) or slots[i] > slot else _run_end(slots, i, slot)
    if slot >= d or end > i and min(map(sub, dls[i:end], slots[i:end])) < 2:
        raise InvariantError(f"the replacement at step {step} misses a deadline")
    slots[i:end] = range(slot, slot + end - i + 1)
    dls.insert(i, d)
    keys.insert(i, x)


def oblivious_schedule(pending: Iterable[Packet], step: int) -> ObliviousSchedule:
    """Optimal deadline-first-order schedule over the pending set.

    Canonicalized by the weight greedy of ``opt_schedule``: packets are
    considered by weight descending (ties in the deadline-first order) and
    kept while the kept set stays feasible.  Every packet is released, so
    the kept set goes out in the deadline-first order on consecutive steps
    from ``step``, and the greedy's first packet is the heaviest.  The
    pending set is compiled and laid out by ``_ranked_step``.  The test
    suite checks the result against exhaustive enumeration.
    """
    pending = list(pending)
    if not pending:
        raise ValueError("oblivious schedule of an empty pending set")
    for p in pending:
        if not p.pending_window(step):
            raise ValueError(f"packet {p.id} is not pending at step {step}")
    compiled = _compile(pending)
    order = compiled.packets
    sequence, e, h = _ranked_step(compiled.deadlines, compiled.weights, range(len(order)), step)
    schedule = Schedule(tuple(enumerate(map(order.__getitem__, sequence), start=step)))
    return ObliviousSchedule(schedule, step, order[e], order[h])


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
    The packets are compiled, and the greedy over their keys
    (``_fifo_solve``, which refuses keys not agreeable from ``step``) gets
    its first slot from ``_conforming_front``, the rest laid out in order.
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
    scheduled = oblivious.schedule.packets
    compiled = _compile(scheduled.union(universe))
    order, deadlines = compiled.packets, compiled.deadlines
    rank = {p: k for k, p in enumerate(order)}
    releases = compiled.releases
    solved = _fifo_solve(map(rank.__getitem__, universe), step, releases, deadlines)
    if solved is None:
        raise ValueError("conforming schedules require agreeable deadlines")
    oblivious_keys = set(map(rank.__getitem__, scheduled))
    _, _, substitute = _conforming_front(compiled, solved, step, oblivious_keys)
    slots = _edf_slots(solved.keys, step, releases.__getitem__, lambda k: (deadlines[k], k))
    slots[0] = (step, substitute)
    return Schedule(tuple((t, order[k]) for t, k in slots))


def _conforming_front(
    compiled: _Compiled, conforming: _Conforming, step: int, oblivious: Collection[int]
) -> tuple[int, int, int]:
    """The front of the conforming clairvoyant schedule, read off C's FIFO
    lists at ``step`` against the oblivious schedule's keys ``oblivious``,
    all released: the number n of C's released members, which lead the
    lists in deadline order (their FIFO key is ``(step, deadline)``), the
    key that C's deadline-first layout sends at ``step``, the lowest among
    the leading ones of deadline ``dls[0]``, and its substitute, the
    order-minimal key of equal weight in ``oblivious``.  Raises
    InvariantError for a released member outside ``oblivious`` (naming
    the order-first) and for an idle ``step`` (n = 0).  The first key is a
    released member, so it is in ``oblivious`` and has a substitute of no
    higher rank.  Keys of one weight rank by deadline, so a released
    substitute would have deadline ``dls[0]``, the least among the
    released members, and a rank no lower than the first key's, the
    least of theirs: it would be the first key."""
    releases, deadlines, weights = compiled.releases, compiled.deadlines, compiled.weights
    _, dls, keys, _ = conforming
    n = bisect_left(keys, True, key=lambda k: releases[k] > step)
    released = keys[:n]
    outside = [k for k in released if k not in oblivious]
    if outside:
        k = min(outside, key=lambda k: (deadlines[k], k))
        raise InvariantError(
            f"pending packet {compiled.packets[k].id} of the optimum lies outside "
            "the oblivious schedule; the oblivious schedule is not optimal"
        )
    if not n:
        raise InvariantError("conforming schedule leaves the current step idle")
    first = min(keys[: bisect_right(dls, dls[0], 0, n)])
    # Among keys of one weight, key order is by deadline, then arrival.
    substitute = min(k for k in oblivious if weights[k] == weights[first])
    return n, first, substitute
