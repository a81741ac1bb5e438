import random
from fractions import Fraction

import pytest

from conftest import mk, mk_instance
from oracles import feasible_by_enumeration

from pktsched.engine import START, advance, carry_after
from pktsched.model import (
    Instance,
    Schedule,
    edf_schedule,
    follows_priority_order,
    is_feasible_set,
    order_key,
    precedes,
)


class TestPacketOrder:
    def test_smaller_deadline_first(self):
        assert precedes(mk("a", 1, 2, 5, 0), mk("b", 1, 3, 1, 1))

    def test_equal_deadline_heavier_first(self):
        assert precedes(mk("a", 1, 3, 7, 0), mk("b", 1, 3, 2, 1))
        assert not precedes(mk("b", 1, 3, 2, 1), mk("a", 1, 3, 7, 0))

    def test_full_tie_breaks_on_arrival(self):
        first = mk("a", 1, 3, 2, 0)
        second = mk("b", 1, 3, 2, 1)
        assert precedes(first, second)
        assert not precedes(second, first)

    def test_strict_total_order_on_random_triples(self):
        rng = random.Random(11)
        packets = [
            mk(f"p{i}", 1, rng.randint(2, 6), Fraction(rng.randint(1, 5), rng.randint(1, 3)), i)
            for i in range(60)
        ]
        for _ in range(300):
            a, b, c = rng.sample(packets, 3)
            # totality + antisymmetry
            assert precedes(a, b) != precedes(b, a)
            # transitivity
            if precedes(a, b) and precedes(b, c):
                assert precedes(a, c)

    def test_order_key_matches_precedes(self):
        a, b = mk("a", 1, 4, 3, 0), mk("b", 2, 4, 3, 1)
        assert (order_key(a) < order_key(b)) == precedes(a, b)


class TestPacketValidation:
    def test_rejects_empty_lifespan(self):
        with pytest.raises(ValueError, match="empty lifespan"):
            mk("a", 3, 3, 1)

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError, match="non-positive weight"):
            mk("a", 1, 2, 0)
        with pytest.raises(ValueError, match="non-positive weight"):
            mk("a", 1, 2, Fraction(-1, 2))

    def test_rejects_bad_release(self):
        with pytest.raises(ValueError, match="positive step"):
            mk("a", 0, 2, 1)


class TestInstance:
    def test_agreeable_examples(self):
        assert mk_instance(("a", 1, 3, 1), ("b", 2, 3, 1)).is_agreeable
        assert not mk_instance(("a", 1, 4, 1), ("b", 2, 3, 1)).is_agreeable
        assert Instance(()).is_agreeable

    def test_agreeable_checks_all_earlier_releases(self):
        # b has a smaller deadline than a but arrives in the same step;
        # only c's later release makes the pair (a, c) a violation.
        inst = mk_instance(("a", 1, 5, 1), ("b", 1, 2, 1), ("c", 2, 3, 1))
        assert not inst.is_agreeable

    def test_horizon_and_first_release(self):
        inst = mk_instance(("a", 2, 4, 1), ("b", 3, 7, 1))
        assert inst.horizon == 6
        assert inst.first_release == 2
        assert Instance(()).horizon == 0
        assert Instance(()).first_release == 1

    def test_rejects_unsorted_arrivals(self):
        with pytest.raises(ValueError, match="arrival order"):
            mk_instance(("a", 2, 3, 1), ("b", 1, 2, 1))

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="duplicate"):
            mk_instance(("a", 1, 2, 1), ("a", 1, 3, 1))

    def test_arrival_index_must_increase(self):
        with pytest.raises(ValueError, match="arrival_index"):
            Instance((mk("a", 1, 2, 1, 1), mk("b", 1, 2, 1, 0)))


class TestBuffer:
    """The pending buffer from one step to the next: ``carry_after`` keeps
    what is still pending, ``advance`` admits the arrivals and refuses a
    packet outside its window."""

    def test_expiry_at_deadline(self):
        a, b = mk("a", 1, 2, 1, 0), mk("b", 1, 3, 2, 1)
        assert carry_after(frozenset({a, b}), b, 1) == frozenset()

    def test_arrival_joins_buffer(self):
        b = mk("b", 1, 5, 1)
        c = mk("c", 3, 5, 1, 1)
        states = advance("mg-prime", {frozenset({b}): (Fraction(1), Fraction(0), 1)}, 3, (c,))
        assert states == {frozenset({c}): (1, 1, 1)}

    def test_only_expired_dropped(self):
        a, b, x = mk("a", 1, 3, 1, 0), mk("b", 1, 4, 1, 1), mk("x", 2, 4, 1, 2)
        assert carry_after(frozenset({a, b, x}), x, 2) == {b}

    def test_rejects_step_jump(self):
        stale = {frozenset({mk("a", 1, 3, 1)}): (Fraction(1), Fraction(0), 1)}
        with pytest.raises(ValueError, match="not pending"):
            advance("mg-prime", stale, 3, ())

    def test_rejects_misdated_arrival(self):
        with pytest.raises(ValueError, match="not pending"):
            advance("mg-prime", START, 2, (mk("x", 3, 4, 1),))

    def test_never_retains_expired_never_drops_live(self):
        rng = random.Random(5)
        for _ in range(100):
            step = rng.randint(2, 6)
            packets = [mk(f"p{i}", 1, rng.randint(step, step + 3), 1, i) for i in range(4)]
            pending = frozenset(p for p in packets if p.deadline > step - 1)
            sent = packets[rng.randrange(4)]
            carry = carry_after(pending, sent, step - 1)
            assert all(p.deadline > step for p in carry)
            assert carry == {p for p in pending if p != sent and p.deadline > step}


class TestFeasibility:
    def test_two_packets_one_slot(self):
        assert not is_feasible_set([mk("a", 1, 2, 1, 0), mk("b", 1, 2, 1, 1)], 1)

    def test_two_packets_two_slots(self):
        assert is_feasible_set([mk("a", 1, 2, 1, 0), mk("b", 1, 3, 1, 1)], 1)

    def test_window_example_from_graph(self):
        packets = [
            mk("j1", 2, 3, 1, 0),
            mk("j2", 2, 4, 1, 1),
            mk("j3", 3, 7, 1, 2),
            mk("j4", 4, 7, 1, 3),
            mk("j5", 6, 7, 1, 4),
        ]
        assert is_feasible_set(packets, 2)

    def test_agrees_with_enumeration_for_available_sets(self):
        rng = random.Random(23)
        for _ in range(150):
            start = rng.randint(1, 3)
            size = rng.randint(0, 6)
            packets = []
            for i in range(size):
                release = rng.randint(1, start + 3)
                deadline = max(release, start) + rng.randint(1, 4)
                packets.append(mk(f"p{i}", release, deadline, 1, i))
            # releases fall before and after start, so the simulation must
            # respect them to agree with the exhaustive assignment
            assert is_feasible_set(packets, start) == feasible_by_enumeration(
                packets, start
            )


class TestEdfSchedule:
    def test_deadline_order(self):
        a, b = mk("a", 1, 2, 1, 0), mk("b", 1, 3, 9, 1)
        sched = edf_schedule([a, b], 1)
        assert sched.slots == ((1, a), (2, b))

    def test_equal_deadline_heavier_first(self):
        a, b = mk("a", 1, 3, 1, 0), mk("b", 1, 3, 9, 1)
        sched = edf_schedule([a, b], 1)
        assert sched.slots == ((1, b), (2, a))

    def test_empty(self):
        assert edf_schedule([], 1).slots == ()

    def test_infeasible_raises(self):
        with pytest.raises(ValueError, match="not feasible"):
            edf_schedule([mk("a", 1, 2, 1, 0), mk("b", 1, 2, 1, 1)], 1)

    def test_output_is_priority_schedule(self):
        rng = random.Random(3)
        for _ in range(100):
            packets = []
            for i in range(rng.randint(1, 6)):
                packets.append(mk(f"p{i}", 1, rng.randint(2, 9), rng.randint(1, 5), i))
            if not is_feasible_set(packets, 1):
                continue
            sched = edf_schedule(packets, 1)
            assert follows_priority_order(sched, 1)
            assert sched.weight == sum(p.weight for p in packets)


class TestSchedule:
    def test_rejects_out_of_window(self):
        with pytest.raises(ValueError, match="outside its window"):
            Schedule(((3, mk("a", 1, 2, 1)),))

    def test_rejects_duplicate_packet(self):
        a = mk("a", 1, 5, 1)
        with pytest.raises(ValueError, match="twice"):
            Schedule(((1, a), (2, a)))

    def test_rejects_unsorted_slots(self):
        a, b = mk("a", 1, 5, 1, 0), mk("b", 1, 5, 1, 1)
        with pytest.raises(ValueError, match="sorted"):
            Schedule(((2, a), (1, b)))

    def test_weight_and_lookup(self):
        a, b = mk("a", 1, 5, Fraction(1, 2), 0), mk("b", 1, 5, 2, 1)
        sched = Schedule(((1, a), (3, b)))
        assert sched.weight == Fraction(5, 2)
        assert sched.at(3) == b
        assert sched.at(2) is None
        assert sched.packets == {a, b}
