"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written by a different route than the
library: the offline optimum by exhaustive assignment enumeration instead
of the weight greedy, feasibility by that enumeration instead of the
deadline-first simulation, the greedy set by a full simulation per
candidate instead of an incremental slot probe, the canonical pending-set
schedule by subset enumeration instead of incremental greedy, golden-ratio
comparisons by 60-digit decimal arithmetic instead of the integer
quadratic, the deadline-first order check by listing every step's
available packets instead of comparing with the model's layout, the
monotone fact by comparing every pair instead of a single pass, the step
kernel's state map in ``Fraction``s instead of integers over a common
denominator, and single runs over packets instead of compiled ranks, with
the Monte Carlo threshold as a ``Fraction``, and the structural fact
checks over ``Packet``s and ``Schedule``s instead of compiled ranks,
and the instance reader handing every raw row to ``Instance.build``
instead of building each distinct weight text once.
``at_most_golden`` is no
oracle: it is the bound r*r <= r + 1 as the acceptance criterion states
it, for the tests' bound checks.  Nor are ``edf_schedule`` and
``follows_priority_order``: they lay out ``Packet`` schedules with the
model's deadline-first walk, ``_edf_slots``, and compare a schedule with
that layout of its own packets, for the tests and the reference fact
checks, which decide ``conforming_built`` by that whole re-layout where
``check_facts`` tests only the first slot's window.  Nor are
``order_key``, ``precedes``, ``schedule_weight`` and ``slot_at``: the
deadline-first packet order and two ``Schedule`` readings, which only the
tests and oracles need.
"""

from __future__ import annotations

import decimal
import hashlib
import json
import math
import random
from fractions import Fraction
from itertools import chain, combinations
from operator import attrgetter

from pktsched.analysis import FACT_CHECKS, StepFacts
from pktsched.model import (
    Instance,
    InvariantError,
    Packet,
    PacketError,
    Schedule,
    _edf_slots,
    is_feasible_set,
    weight_scale,
)
from pktsched.offline import ObliviousSchedule, oblivious_schedule
from pktsched.policies import decide

ZERO = Fraction(0)


def order_key(packet: Packet):
    """Sort key of the deadline-first packet order.

    Earlier deadline first; among equal deadlines the heavier packet first;
    remaining ties broken by earlier arrival.  This is a strict total order
    on the packets of any single instance.
    """
    return (packet.deadline, -packet.weight, packet.arrival_index)


def precedes(first: Packet, second: Packet) -> bool:
    """True if ``first`` comes strictly before ``second`` in the order.

    ``order_key`` compared without negating: the weights sit swapped."""
    return (first.deadline, second.weight, first.arrival_index) < (
        second.deadline,
        first.weight,
        second.arrival_index,
    )


def schedule_weight(schedule: Schedule) -> Fraction:
    """The total weight of a schedule's packets."""
    return sum((p.weight for _, p in schedule.slots), ZERO)


def slot_at(schedule: Schedule, step: int) -> Packet | None:
    """The packet a schedule sends at ``step``, or None if it idles."""
    return dict(schedule.slots).get(step)


def brute_force_opt(packets, start) -> Fraction:
    """Maximum schedulable weight by exhaustive branching over assignments.

    At every step each available packet is tried in turn; idling is only
    forced when nothing is available (transmitting something available never
    hurts the optimum because weights are positive).  Memoized on
    (step, remaining set), which still explores the entire assignment space.
    """
    memo: dict[tuple[int, frozenset[Packet]], Fraction] = {}

    def best(step: int, remaining: frozenset[Packet]) -> Fraction:
        remaining = frozenset(p for p in remaining if p.deadline > step)
        if not remaining:
            return ZERO
        key = (step, remaining)
        if key in memo:
            return memo[key]
        available = [p for p in remaining if p.release <= step]
        if available:
            value = max(p.weight + best(step + 1, remaining - {p}) for p in available)
        else:
            value = best(min(p.release for p in remaining), remaining)
        memo[key] = value
        return value

    return best(start, frozenset(packets))


def assignment_enumeration_opt(packets, start) -> Fraction:
    """Literal enumeration of every injective packet-to-step map.

    Exponential; only for very small sets.  Exists to cross-check
    brute_force_opt itself.
    """
    packets = list(packets)
    if not packets:
        return ZERO
    top = max(p.deadline for p in packets)
    steps = range(start, top)
    best = ZERO

    def assign(index: int, used: frozenset[int], value: Fraction) -> None:
        nonlocal best
        if index == len(packets):
            best = max(best, value)
            return
        packet = packets[index]
        assign(index + 1, used, value)  # leave it out
        for step in steps:
            if step not in used and packet.release <= step < packet.deadline:
                assign(index + 1, used | {step}, value + packet.weight)

    assign(0, frozenset(), ZERO)
    return best


def feasible_by_enumeration(packets, start) -> bool:
    """A set is feasible iff exhaustive assignment schedules all of it."""
    packets = list(packets)
    total = sum((p.weight for p in packets), ZERO)
    return brute_force_opt(packets, start) == total


def oracle_greedy_set(packets, start) -> list:
    """The weight greedy with a full feasibility probe per candidate.

    Packets are visited by weight descending, ties in the deadline-first
    order, and each is kept iff the kept set plus it passes the
    earliest-deadline-first simulation ``is_feasible_set``.  Returns the
    kept packets in visiting order: the list the library's greedy is
    specified to keep, whichever feasibility test it uses.
    """
    kept = []
    for p in sorted(packets, key=lambda p: (-p.weight, order_key(p))):
        if is_feasible_set(kept + [p], start):
            kept.append(p)
    return kept


def oracle_oblivious(pending, step):
    """Canonical optimal pending-set schedule by full subset enumeration.

    Among all maximum-weight feasible subsets, picks the one whose members
    come earliest in the (weight descending, then deadline-first) processing
    order; that is the set the library's greedy is specified to keep.
    Returns (sequence in transmission order, earliest, heaviest, dominated).
    """
    pending = list(pending)
    sigma = sorted(pending, key=lambda p: (-p.weight, order_key(p)))
    position = {p: i for i, p in enumerate(sigma)}
    best_subset = None
    best_value = None
    best_rank = None
    for subset in chain.from_iterable(
        combinations(pending, size) for size in range(len(pending) + 1)
    ):
        if not feasible_by_enumeration(subset, step):
            continue
        value = sum((p.weight for p in subset), ZERO)
        rank = tuple(sorted(position[p] for p in subset))
        if (
            best_value is None
            or value > best_value
            or (value == best_value and rank < best_rank)
        ):
            best_subset, best_value, best_rank = subset, value, rank
    sequence = tuple(sorted(best_subset, key=order_key))
    if not sequence:
        return sequence, None, None, frozenset(pending)
    earliest = sequence[0]
    top = max(p.weight for p in sequence)
    heaviest = min((p for p in sequence if p.weight == top), key=order_key)
    dominated = frozenset(pending) - frozenset(sequence)
    return sequence, earliest, heaviest, dominated


def oracle_follows_priority_order(schedule, start) -> bool:
    """``follows_priority_order`` step by step: at every step from ``start``
    to the last slot, the available remaining packets are listed, and the
    step must send their order-minimal one or, when none is available,
    idle."""
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


_release = attrgetter("release")


def _scaled_order_key(scale: int):
    """``order_key`` for packets whose weights are whole multiples of
    ``1/scale``, with the weight as a negated integer over ``scale``; it
    orders those packets exactly as ``order_key`` does, without building a
    negated Fraction per call."""
    return lambda p: (
        p.deadline,
        -(p.weight.numerator * (scale // p.weight.denominator)),
        p.arrival_index,
    )


def edf_schedule(packets, start: int) -> Schedule:
    """The deadline-first-order schedule of a feasible set.

    Each step from ``start`` on transmits the order-minimal released packet
    and idles when none is released; packets with equal order keys keep
    their input order.  Raises ValueError if a packet misses its deadline,
    that is, if the set is not feasible from ``start``.
    """
    packets = list(packets)
    key = _scaled_order_key(weight_scale(packets))
    return Schedule(tuple(_edf_slots(packets, start, _release, key)))


def follows_priority_order(schedule: Schedule, start: int) -> bool:
    """Check that a schedule always transmits its order-minimal available
    packet, idling only when none of its remaining packets is available:
    that is, that it is the deadline-first layout of its packets from
    ``start``."""
    slots = schedule.slots
    key = _scaled_order_key(weight_scale(p for _, p in slots))
    try:
        return list(slots) == _edf_slots((p for _, p in slots), start, _release, key)
    except ValueError:  # a packet misses its deadline in the layout
        return False


def oracle_heavier_scheduled_monotone(scheduled, chosen) -> bool:
    """``heavier_scheduled_monotone`` over every pair of packets."""
    return all(
        later in chosen
        for earlier in scheduled
        for later in scheduled
        if earlier.weight < later.weight
        and precedes(earlier, later)
        and earlier in chosen
    )


def golden_at_most(x: Fraction) -> bool:
    """x <= golden ratio via 60-digit decimal arithmetic.

    Raises if the comparison would be decided by less than 1e-40, which
    cannot happen for the rationals used in tests (the golden ratio is
    irrational, and test menus keep denominators small).
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        phi = (1 + decimal.Decimal(5).sqrt()) / 2
        value = decimal.Decimal(x.numerator) / decimal.Decimal(x.denominator)
        if abs(value - phi) < decimal.Decimal("1e-40"):
            raise AssertionError(f"golden comparison too close to call: {x}")
        return value < phi


def at_most_golden(r: Fraction) -> bool:
    """The bound r <= phi of a nonnegative ratio as the acceptance criterion
    states it, r*r <= r + 1, in integers: with r = n/d, n*n <= n*d + d*d."""
    n, d = r.numerator, r.denominator
    return n * n <= n * d + d * d


def oracle_golden_test(w_e: Fraction, w_h: Fraction) -> bool:
    return golden_at_most(Fraction(w_h) / Fraction(w_e))


def oracle_mg_prime_run(instance: Instance):
    """Independent simulation of the simplified golden-threshold policy.

    Uses oracle_oblivious for the canonical schedule and decimal arithmetic
    for the golden test.  Returns (total gain, transmitted ids in order).
    """

    def choose(sequence, earliest, heaviest):
        if oracle_golden_test(earliest.weight, heaviest.weight):
            return earliest
        return heaviest

    return _oracle_run(instance, choose)


def oracle_mg_run(instance: Instance):
    """Independent simulation of the original golden-threshold policy."""

    def choose(sequence, earliest, heaviest):
        if oracle_golden_test(earliest.weight, heaviest.weight):
            return earliest
        candidates = [
            p
            for p in sequence
            if not golden_at_most(p.weight / earliest.weight)
            and golden_at_most(heaviest.weight / p.weight)
        ]
        return min(candidates, key=order_key)

    return _oracle_run(instance, choose)


def oracle_greedy_weight_run(instance: Instance):
    """Independent simulation of the baseline that sends the heaviest packet."""
    return _oracle_run(instance, lambda sequence, earliest, heaviest: heaviest)


def oracle_edf_nondominated_run(instance: Instance):
    """Independent simulation of the baseline that sends the earliest packet."""
    return _oracle_run(instance, lambda sequence, earliest, heaviest: earliest)


def oracle_rg_mc(instance: Instance, trials: int, seed: int):
    """Monte Carlo of the randomized policy, from the stream's specification.

    Trial i seeds ``random.Random`` with the first 16 bytes, big-endian, of
    sha256("seed:i").  At each step whose earliest and heaviest packets
    (by oracle_oblivious) differ it draws 64 bits and sends the earliest
    iff draw / 2^64 < w_e / w_h, compared in Fractions.  Returns the mean
    of the trials' gains as floats and its standard error.
    """
    totals = []
    for trial in range(trials):
        digest = hashlib.sha256(f"{seed}:{trial}".encode("ascii")).digest()
        rng = random.Random(int.from_bytes(digest[:16], "big"))

        def choose(sequence, earliest, heaviest):
            if earliest == heaviest:
                return earliest
            draw = Fraction(rng.getrandbits(64), 2**64)
            return earliest if draw < earliest.weight / heaviest.weight else heaviest

        total, _ = _oracle_run(instance, choose)
        totals.append(float(total))
    mean = math.fsum(totals) / trials
    if trials == 1:
        return mean, 0.0
    variance = math.fsum((x - mean) ** 2 for x in totals) / (trials - 1)
    return mean, math.sqrt(variance / trials)


def _oracle_run(instance: Instance, choose):
    arrivals = instance.arrivals_by_step
    pending: set[Packet] = set()
    total = ZERO
    transmitted = []
    for step in range(instance.first_release, instance.horizon + 1):
        pending = {p for p in pending if p.deadline > step}
        pending.update(arrivals.get(step, ()))
        if not pending:
            continue
        sequence, earliest, heaviest, _ = oracle_oblivious(pending, step)
        chosen = choose(sequence, earliest, heaviest)
        total += chosen.weight
        transmitted.append(chosen.id)
        pending.remove(chosen)
    return total, transmitted


def oracle_rg_expectation(instance: Instance):
    """Expected gain of the randomized policy by full path enumeration.

    No memoization and no shared code with the engine.  Returns
    (expected gain, leaf count, total probability mass).
    """
    arrivals = instance.arrivals_by_step
    horizon = instance.horizon
    leaves = []

    def walk(step, pending: frozenset[Packet], probability, gain):
        pending = frozenset(p for p in pending if p.deadline > step) | frozenset(
            arrivals.get(step, ())
        )
        if step > horizon:
            leaves.append((probability, gain))
            return
        if not pending:
            walk(step + 1, pending, probability, gain)
            return
        _, earliest, heaviest, _ = oracle_oblivious(pending, step)
        if earliest == heaviest:
            walk(step + 1, pending - {earliest}, probability, gain + earliest.weight)
            return
        p_e = earliest.weight / heaviest.weight
        walk(step + 1, pending - {earliest}, probability * p_e, gain + earliest.weight)
        walk(
            step + 1,
            pending - {heaviest},
            probability * (1 - p_e),
            gain + heaviest.weight,
        )

    walk(instance.first_release, frozenset(), Fraction(1), ZERO)
    expected = sum((p * g for p, g in leaves), ZERO)
    mass = sum((p for p, _ in leaves), ZERO)
    return expected, len(leaves), mass


def oracle_advance(policy, states, step, arrivals):
    """One step of a policy's distribution over carried pending sets, in
    ``Fraction``s: the step kernel's reference.

    ``states`` maps each carried pending set to its probability, its
    probability-weighted gain and the number of tree paths reaching it.
    """
    arrivals = frozenset(arrivals)
    out: dict[frozenset[Packet], tuple[Fraction, Fraction, int]] = {}

    def put(carry, prob, weighted, paths):
        if carry in out:
            p0, w0, n0 = out[carry]
            out[carry] = (p0 + prob, w0 + weighted, n0 + paths)
        else:
            out[carry] = (prob, weighted, paths)

    for carry, (prob, weighted, paths) in states.items():
        pending = carry | arrivals
        if not pending:
            put(pending, prob, weighted, paths)
            continue
        for sent, q in decide(policy, oblivious_schedule(pending, step)):
            put(
                carry_after(pending, sent, step),
                prob * q,
                q * (weighted + prob * sent.weight),
                paths,
            )
    return out


def carry_after(pending: frozenset[Packet], sent: Packet, step: int) -> frozenset[Packet]:
    """The packets of ``pending`` other than ``sent`` that are still pending
    at ``step + 1``, i.e. whose deadline lies beyond it."""
    return pending.difference([p for p in pending if p.deadline <= step + 1], (sent,))


def oracle_check_facts(instance: Instance, drop: tuple[int, int] | None = None):
    """``analysis.check_facts`` over ``Packet``s: at every step of the
    mg-prime run, the public oblivious schedule, a conforming schedule built
    from the per-candidate greedy, and the six facts on ``Schedule``s, the
    monotone fact pair by pair.  ``drop = (step, position)`` removes that
    packet from the oblivious schedule handed to the checks, as
    ``drop_packet_corruption`` does.  Returns the list of ``StepFacts``."""
    if not instance.is_agreeable:
        raise ValueError("fact checks require an agreeable instance")
    arrivals = instance.arrivals_by_step
    steps = []
    carry: frozenset[Packet] = frozenset()
    step = instance.first_release
    while instance.packets and step <= instance.horizon:
        pending = carry.union(arrivals.get(step, ()))
        if pending:
            truth = oblivious_schedule(pending, step)
            checked = truth
            if drop is not None and drop[0] == step:
                checked = _oracle_drop(truth, drop[1])
            future = [p for p in instance.packets if p.release > step]
            steps.append(_oracle_check_step(pending, future, step, checked, truth))
            (sent, _), = decide("mg-prime", truth)
            carry = carry_after(pending, sent, step)
        step += 1
    return steps


def _oracle_drop(oblivious, position):
    sequence = oblivious.schedule.sequence()
    victim = sequence[position % len(sequence)]
    kept = [p for p in sequence if p != victim]
    if not kept:
        return ObliviousSchedule(Schedule(()), oblivious.start, None, None)
    return oblivious_schedule(kept, oblivious.start)


def _oracle_check_step(pending, future, step, oblivious, truth) -> StepFacts:
    results = {name: False for name in FACT_CHECKS}
    results["oblivious_optimal"] = schedule_weight(oblivious.schedule) == schedule_weight(
        truth.schedule
    )
    try:
        conforming = oracle_conforming(pending, future, step, oblivious)
    except (InvariantError, ValueError) as err:
        return StepFacts(step, results, note=str(err))
    results["conforming_built"] = follows_priority_order(conforming, step)
    scheduled = oblivious.schedule.packets
    results["pending_within_oblivious"] = all(
        p in scheduled for p in conforming.packets if p.release <= step
    )
    first = slot_at(conforming, step)
    results["first_packet_outweighs_earlier"] = first is not None and all(
        p.weight < first.weight for p in scheduled if p != first and precedes(p, first)
    )
    results["heavier_scheduled_monotone"] = oracle_heavier_scheduled_monotone(
        scheduled, conforming.packets
    )
    results["front_swap_feasible"] = _oracle_front_swap_feasible(conforming, step, oblivious)
    return StepFacts(step, results)


def oracle_conforming(pending, future, step, oblivious) -> Schedule:
    """The conforming clairvoyant schedule from ``Packet``s: the
    deadline-first schedule of ``oracle_greedy_set`` over pending plus
    future packets, its first packet replaced by the order-minimal
    oblivious packet of equal weight.  Raises as
    ``conforming_clairvoyant`` does, with its messages."""
    ordered = edf_schedule(oracle_greedy_set(list(pending) + list(future), step), step)
    for p in ordered.sequence():
        if p.release <= step and p not in oblivious.schedule.packets:
            raise InvariantError(
                f"pending packet {p.id} of the optimum lies outside the "
                "oblivious schedule; the oblivious schedule is not optimal"
            )
    first = slot_at(ordered, step)
    if first is None:
        raise InvariantError("conforming schedule leaves the current step idle")
    substitute = min(
        (p for p in oblivious.schedule.packets if p.weight == first.weight),
        key=order_key,
        default=None,
    )
    if substitute is None:
        raise InvariantError(
            "first packet of the conforming schedule is not weight-matched "
            "in the oblivious schedule"
        )
    if substitute != first:
        if substitute in ordered.packets:
            raise InvariantError("equal-weight substitute already scheduled")
        ordered = Schedule(tuple((t, substitute if t == step else p) for t, p in ordered.slots))
    return ordered


def _oracle_front_swap_feasible(conforming, step, oblivious) -> bool:
    earliest, heaviest = oblivious.earliest, oblivious.heaviest
    if earliest is None or heaviest is None:
        return False
    if earliest in conforming.packets:
        return True
    if heaviest not in conforming.packets:
        return False
    sequence = conforming.sequence()
    reordered = [heaviest]
    reordered += [p for p in sequence if p.release <= step and p != heaviest]
    reordered += [p for p in sequence if p.release > step]
    return oracle_first_late(reordered, step) is None


def oracle_first_late(packets, start: int) -> int | None:
    """The index of the first of ``packets`` that misses its deadline when
    each goes out, in the given order, at the first step from ``start``
    after the one before and at or after its release; None if none does."""
    current = start
    for index, packet in enumerate(packets):
        slot = max(current, packet.release)
        if slot >= packet.deadline:
            return index
        current = slot + 1
    return None


def oracle_parse_instance(path) -> Instance:
    """The instance reader without a weight memo, for files with no JSON
    integer too long to convert: each line's raw row, a float weight as its
    ``repr``, goes to ``Instance.build``, so every weight is built by its
    own packet.  Same format checks and messages as ``cli.parse_instance``."""
    specs, lines = [], []
    with open(path, encoding="utf-8") as handle:
        for number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except ValueError as err:
                raise ValueError(f"invalid JSON, line {number}: {err}") from None
            if not isinstance(row, dict):
                raise ValueError(f"expected an object, line {number}")
            for field in ("id", "r", "d", "w"):
                if field not in row:
                    raise ValueError(f"missing field {field!r}, line {number}")
            weight = repr(row["w"]) if type(row["w"]) is float else row["w"]
            specs.append((row["id"], row["r"], row["d"], weight))
            lines.append(number)
    try:
        return Instance.build(specs)
    except PacketError as err:
        raise ValueError(f"{err}, line {lines[err.index]}") from None
