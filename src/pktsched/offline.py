"""Offline optima and canonical per-step schedules, over compiled keys.

Sets of unit packets that can all be transmitted inside their windows form
a transversal matroid, so a weight greedy is exact: take packets by weight
descending (ties in the deadline-first order) and keep each one while the
kept set stays feasible.  ``_compile`` ranks a packet set in that order
once: a packet's key is its rank, so sorting keys gives the greedy order,
and the keys' releases, deadlines and weights (integers over a common
denominator) sit in lists indexed by key.  The engine's runs and the fact
checks of one instance share one compile, ``_compiled``.

One greedy over keys, ``_greedy_keys``, gives the offline optimum over
pending plus future packets, and three exact feasibility tests back it,
chosen by the input: when every candidate is released by the start, the
kept keys hold distinct steps (each the latest free one inside its window);
else, when the deadlines are agreeable, the kept keys go out in release
order, each at the earliest step it can, and a candidate is probed by
pushing back the run of slots that follow its own without a gap; otherwise
``is_feasible_set`` simulates earliest-deadline-first with release times.
The kept set is laid out in the deadline-first order, which on keys is
``(deadline, key)``.  ``opt_schedule`` is a compile and that greedy;
``_opt_weight`` is the optimum's value from a compile a run already holds.

Over a pending set, every key is released, and ``_ranked_step`` gives the
*oblivious schedule* (optimal deadline-first-order schedule of the pending
set, made canonical by the tie order) with its earliest and heaviest key.
It serves exact mode, the search and ``oblivious_schedule``, whose
pending sets branch.  A single path instead carries its oblivious
schedule, the greedy basis of its pending set, from step to step
(``_Basis``): the sent key, the lost slot and each arrival change it by
at most one exchange, found by a bisection and a scan of slacks in C.
The engine's single-path runs and ``analysis.check_facts`` step it.

The *conforming clairvoyant schedule* is built here as well: its kept set
C is the greedy optimum over pending plus future packets, whose pending
part lies inside the oblivious schedule because both greedies share one
order, and ``_conforming_layout`` lays C out with its first packet chosen
to outweigh every order-earlier oblivious member.  ``conforming_clairvoyant``
solves C afresh (``_conforming_slots``), the reference; a single path
carries it (``_Conforming``), changed by the sent key, its replacement and
the lost slot, each one exchange found by a bisection or by Hall's
condition on C's slots.  ``analysis.check_facts`` steps it and still lays C
out and checks it at every step (640 packets: 0.29 s, not 2.6 s).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress, count, repeat
from operator import eq, gt, itemgetter, sub
from typing import Callable, Collection, Iterable, NamedTuple, Sequence

from .model import (
    Instance,
    InvariantError,
    Packet,
    Schedule,
    _edf_slots,
    has_agreeable_deadlines,
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
    arrivals: dict[int, tuple[int, ...]]
    expiring: dict[int, tuple[int, ...]]


def _compile(packets: Iterable[Packet]) -> _Compiled:
    """The key space of ``packets``: an instance's, or several instances'
    packets, whose keys sort in each instance's greedy order.  The weights
    compare as integers over their common denominator, which orders them
    exactly as the Fractions do, without Fraction arithmetic."""
    packets = list(packets)
    scale = weight_scale(packets)
    scaled = [p.weight.numerator * (scale // p.weight.denominator) for p in packets]
    ranked = sorted(
        range(len(packets)),
        key=lambda i: (-scaled[i], packets[i].deadline, packets[i].arrival_index),
    )
    packets = list(map(packets.__getitem__, ranked))
    arrivals: dict[int, list[int]] = {}
    expiring: dict[int, list[int]] = {}
    for rank, p in enumerate(packets):
        arrivals.setdefault(p.release, []).append(rank)
        expiring.setdefault(p.deadline, []).append(rank)
    return _Compiled(
        packets,
        [p.release for p in packets],
        [p.deadline for p in packets],
        list(map(scaled.__getitem__, ranked)),
        scale,
        {step: tuple(ranks) for step, ranks in sorted(arrivals.items())},
        {step: tuple(ranks) for step, ranks in expiring.items()},
    )


@lru_cache(maxsize=1)
def _compiled(instance: Instance) -> _Compiled:
    """``_compile`` of a frozen instance, kept for the last one, so the runs
    and fact checks of one instance (or of equal ones) share one compile,
    which they only read."""
    return _compile(instance)


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


def _fifo_slots(
    kept: tuple[list, ...],
    candidates: Iterable[int],
    start: int,
    releases: Sequence[int],
    deadlines: Sequence[int],
) -> list[int]:
    """The weight greedy over the keys of an agreeable set, visited in
    ``candidates``' order, into ``kept``, the five lists of a
    ``_Conforming``: the kept keys join it in FIFO order and the others its
    ``rest``.  Returns the kept keys in visiting order.  ``releases`` and
    ``deadlines`` are indexed by key.

    With ``r' = max(release, start)``, the deadlines of an agreeable set
    never decrease in ``(r', deadline)`` order, so earliest-deadline-first
    sends the kept packets in that order: each takes ``max(previous slot +
    1, r')``, and the set is feasible iff every slot lies before its
    deadline.  A candidate takes its slot in that order and pushes back by
    one only the run of kept packets whose slots follow on without a gap;
    a failed probe changes nothing.  Kept packets with equal ``(r',
    deadline)`` are interchangeable, so a candidate goes before them.
    """
    fifo, slots, dls, keys, rest = kept
    visited: list[int] = []
    for k in candidates:
        d = deadlines[k]
        key = (max(releases[k], start), d)
        i = bisect_left(fifo, key)
        slot = key[0] if i == 0 else max(slots[i - 1] + 1, key[0])
        if slot >= d:
            rest.append(k)
            continue
        end = i if i == len(slots) or slots[i] > slot else _run_end(slots, i, slot)
        if end > i and min(map(sub, dls[i:end], slots[i:end])) < 2:
            rest.append(k)
            continue
        fifo.insert(i, key)
        slots[i:end] = range(slot, slot + end - i + 1)
        dls.insert(i, d)
        keys.insert(i, k)
        visited.append(k)
    return visited


def _run_end(slots: list[int], i: int, slot: int) -> int:
    """The end of the run of ``slots`` from position ``i`` that follows
    ``slot`` on without a gap: ``slots[j] == slot + j - i`` on ``[i,
    end)``, and since the slots rise by at least one per position, nowhere
    after it."""
    low, end = i, len(slots)
    while low < end:
        mid = (low + end) // 2
        if slots[mid] - mid <= slot - i:
            low = mid + 1
        else:
            end = mid
    return end


def _greedy_keys(
    compiled: _Compiled, candidates: Sequence[int], start: int, agreeable: bool
) -> list[int]:
    """Maximum-weight subset of ``candidates`` feasible from ``start``, by
    the weight greedy over keys of ``compiled`` in increasing order.

    Returns the kept keys in visiting order, so over a pending set the
    first one is the order-minimal key of maximum weight.  The input picks
    one of three exact feasibility tests: when every candidate is released
    by ``start`` the kept set takes distinct latest free steps
    (``_latest_free_steps``); else, when the caller knows the candidates
    to be ``agreeable``, the kept set's slots in release order are probed
    and shifted (``_fifo_slots``); otherwise each candidate's packet is
    probed with the kept ones by the release-aware ``is_feasible_set``.
    """
    releases, deadlines = compiled.releases, compiled.deadlines
    if max(map(releases.__getitem__, candidates), default=start) <= start:
        return _latest_free_steps(candidates, start, deadlines)
    if agreeable:
        return _fifo_slots(([], [], [], [], []), candidates, start, releases, deadlines)
    packets = compiled.packets
    kept: list[int] = []
    for k in candidates:
        if is_feasible_set(map(packets.__getitem__, [*kept, k]), start):
            kept.append(k)
    return kept


def _opt_weight(compiled: _Compiled, start: int, agreeable: bool) -> int:
    """The offline optimum's value over every packet of ``compiled`` from
    ``start``, as an integer over ``compiled.scale``; ``agreeable`` says
    whether the packets' deadlines are."""
    kept = _greedy_keys(compiled, range(len(compiled.packets)), start, agreeable)
    return sum(map(compiled.weights.__getitem__, kept))


def opt_schedule(packets: Iterable[Packet], start: int) -> tuple[Schedule, Fraction]:
    """Maximum-weight feasible schedule from ``start`` and its exact value.

    Packets left out and idle steps are allowed; release times are
    respected, so future packets may appear with windows beyond ``start``.
    The schedule is the deadline-first-order schedule of the greedy set.
    """
    compiled = _compile(packets)
    order, deadlines = compiled.packets, compiled.deadlines
    kept = _greedy_keys(compiled, range(len(order)), start, has_agreeable_deadlines(order))
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
    pending.  ``_basis_admit``, ``_basis_view`` and ``_basis_send`` step it; they
    read the per-key ``deadlines`` of the compile.
    """

    deadlines: list[int]
    keys: list[int]
    rest: list[int]


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
        if tight in map(sub, dls[low:], range(low, len(dls))):
            end = list(map(sub, dls, range(len(dls)))).index(tight, low) + 1
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
    if rest:
        slack = list(map(sub, reversed(dls), range(len(dls) - 1, -1, -1)))
        after = dls[-1 - slack.index(tight)] if tight in slack else 0
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
    if i and tight in map(sub, dls[:i], range(i)):
        end = list(map(sub, dls, range(i))).index(tight) + 1
        y = max(keys[:end])
        j = keys.index(y, 0, end)
        del dls[j], keys[j]
        insort(rest, y)
    if rest:
        _discard(rest, expiring)


def _discard(rest: list[int], keys: Iterable[int]) -> None:
    """Remove ``keys`` from the sorted list ``rest`` where it holds them."""
    for x in keys:
        j = bisect_left(rest, x)
        if j < len(rest) and rest[j] == x:
            del rest[j]


class _Conforming(NamedTuple):
    """The greedy basis C of a single path's pending plus future keys from
    its step, with releases, carried by exchanges instead of re-solved.

    C is held as ``_fifo_slots`` keeps it: in order of the *FIFO key*
    ``(max(release, t), deadline)`` at step t, with each member's slot, in
    the parallel lists ``fifo``, ``slots``, ``deadlines`` and ``keys``;
    ``rest`` holds the non-members in key order.  A member is *tight* when
    its slot is the last of its window, and from the first slot of its run
    of consecutive slots to its deadline, members fill every slot: a
    *tight interval*.  By Hall's condition a key fits beside C iff its
    window lies inside no tight interval.  Arrivals leave pending plus
    future as it is, so only ``_conforming_send`` moves C.
    """

    fifo: list[tuple[int, int]]
    slots: list[int]
    deadlines: list[int]
    keys: list[int]
    rest: list[int]


def _conforming_start(compiled: _Compiled, step: int) -> _Conforming:
    """C over every key of ``compiled`` from ``step``."""
    conforming = _Conforming([], [], [], [], [])
    candidates = range(len(compiled.releases))
    _fifo_slots(conforming, candidates, step, compiled.releases, compiled.deadlines)
    return conforming


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
    move one slot on.  The pending prefix's FIFO keys become ``(step + 1,
    deadline)``.  C then holds no expired key."""
    fifo, slots, dls, keys, rest = conforming
    r = bisect_left(rest, sent)
    if r < len(rest) and rest[r] == sent:
        del rest[r]
    else:
        i = keys.index(sent)  # in the pending prefix
        slot = slots[i]
        del fifo[i], slots[i], dls[i], keys[i]
        if i < len(slots) and slots[i] == slot + 1 and fifo[i][0] <= slot:
            # The run that followed it moves back by one, up to its first
            # member that waits for its release.
            end = _run_end(slots, i, slot + 1)
            released = map(itemgetter(0), fifo[i:end])
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
            del fifo[end], slots[end], dls[end], keys[end]
            insort(rest, y)
        slots[:end] = range(step + 1, step + 1 + end)
    pending = bisect_left(fifo, (step + 1,))
    if pending:
        fifo[:pending] = zip(repeat(step + 1), dls[:pending])
    if rest:
        _discard(rest, expiring)


def _conforming_replace(
    conforming: _Conforming, step: int, releases: list[int], deadlines: list[int]
) -> None:
    """Add to C, which just lost a member at ``step``, the first-ranked
    non-member whose window lies inside none of C's tight intervals, if
    any; it takes its slot as ``_fifo_slots`` gives a candidate one."""
    _, slots, dls, _, rest = conforming
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
    for r, x in enumerate(rest):
        key = (max(releases[x], step), deadlines[x])
        h = bisect_right(starts, key[0])
        if h and key[1] <= ends[h - 1]:
            continue
        del rest[r]
        _fifo_slots(conforming, (x,), step, releases, deadlines)
        return


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
    The packets are compiled and built by the core over keys,
    ``_conforming_slots``.
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
    compiled = _compile(scheduled.union(universe))
    order = compiled.packets
    rank = {p: k for k, p in enumerate(order)}
    slots = _conforming_slots(
        compiled,
        sorted(map(rank.__getitem__, universe)),
        step,
        set(map(rank.__getitem__, scheduled)),
    )
    return Schedule(tuple((t, order[k]) for t, k in slots))


def _conforming_slots(
    compiled: _Compiled, candidates: list[int], step: int, oblivious: Collection[int]
) -> list[tuple[int, int]]:
    """The conforming clairvoyant schedule over keys of ``compiled``, as
    ``(step, key)`` slots in step order, solved afresh.

    ``candidates`` are the keys of the pending and the future packets in
    increasing order, the greedy order, and together agreeable;
    ``oblivious`` holds the keys of the oblivious schedule.
    """
    deadlines = compiled.deadlines
    kept = _greedy_keys(compiled, candidates, step, True)
    return _conforming_layout(compiled, kept, step, oblivious, lambda k: (deadlines[k], k))


def _conforming_layout(
    compiled: _Compiled,
    kept: Sequence[int],
    step: int,
    oblivious: Collection[int],
    order: Callable[[int], tuple[int, int]],
) -> list[tuple[int, int]]:
    """The conforming clairvoyant schedule of ``kept``, the greedy basis of
    the pending and the future keys from ``step`` (``_conforming_slots``
    solves it, ``_Conforming`` carries it), as ``(step, key)`` slots in
    step order.  Among equal deadlines, key order is the deadline-first
    order, so ``order`` maps a key to ``(deadline, key)``."""
    releases, weights = compiled.releases, compiled.weights
    slots = _edf_slots(kept, step, releases.__getitem__, order)
    for _, k in slots:
        if releases[k] <= step and k not in oblivious:
            raise InvariantError(
                f"pending packet {compiled.packets[k].id} of the optimum lies outside "
                "the oblivious schedule; the oblivious schedule is not optimal"
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
