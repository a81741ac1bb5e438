import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import as_fractions, key_space, mk, mk_instance
from oracles import (
    carry_after,
    edf_schedule,
    feasible_by_enumeration,
    follows_priority_order,
    oracle_follows_priority_order,
    order_key,
    precedes,
    schedule_weight,
    slot_at,
)

from pktsched.engine import States, advance
from pktsched.model import (
    MAX_DIGITS,
    Instance,
    Packet,
    PacketError,
    Schedule,
    as_weight,
    is_feasible_set,
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

    @settings(max_examples=500, derandomize=True, database=None, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(2, 4),  # deadline
                st.integers(1, 4),  # weight numerator
                st.integers(1, 2),  # weight denominator
                st.integers(0, 2),  # arrival index
            ),
            min_size=2,
            max_size=2,
        )
    )
    def test_precedes_is_the_order_key_comparison(self, rows):
        # Short ranges, so equal deadlines, weights and arrival indices are
        # common, also all three at once.
        a, b = (mk(f"p{i}", 1, d, Fraction(n, q), k) for i, (d, n, q, k) in enumerate(rows))
        assert precedes(a, b) == (order_key(a) < order_key(b))
        assert precedes(b, a) == (order_key(b) < order_key(a))


class TestPacketHash:
    def test_equal_packets_hash_equal(self):
        assert mk("a", 1, 3, Fraction(3, 2), 5) == mk("a", 1, 3, Fraction(6, 4), 5)
        assert hash(mk("a", 1, 3, Fraction(3, 2), 5)) == hash(mk("a", 1, 3, Fraction(6, 4), 5))

    def test_same_arrival_index_different_weight_stay_apart(self):
        light, heavy = mk("a", 1, 3, 2, 5), mk("a", 1, 3, Fraction(7, 3), 5)
        assert light != heavy
        both = frozenset({light, heavy})
        assert len(both) == 2
        assert light in both and heavy in both
        assert both - {light} == {heavy}

    def test_weight_or_deadline_alone_moves_the_hash(self):
        by_weight = {hash(mk("a", 1, 3, Fraction(k, 7), 5)) for k in range(1, 1001)}
        by_deadline = {hash(mk("a", 1, d, 2, 5)) for d in range(2, 1002)}
        assert len(by_weight) == 1000 and len(by_deadline) == 1000

    def test_hash_is_stored_without_an_instance_dict(self):
        packet = mk("a", 1, 3, 2, 5)
        assert not hasattr(packet, "__dict__")
        assert packet == mk("a", 1, 3, 2, 5) and repr(packet) == "Packet(a, r=1, d=3, w=2)"


TOO_LONG = f"more than {MAX_DIGITS} digits"


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

    @pytest.mark.parametrize("value", [1.5, True, "1"])
    @pytest.mark.parametrize("name", ["release", "deadline"])
    def test_rejects_non_integer_steps(self, name, value):
        steps = {"release": 1, "deadline": 3, name: value}
        message = "packet a: release and deadline must be integer steps"
        with pytest.raises(ValueError, match=message):
            Packet("a", steps["release"], steps["deadline"], Fraction(1), 0)
        # Instance.build passes steps through as they are, never truncated.
        with pytest.raises(ValueError, match=message):
            Instance.build([("a", steps["release"], steps["deadline"], 1)])

    @pytest.mark.parametrize("pid", ["", 7, None, b"a", ("a",)])
    def test_rejects_an_id_that_is_not_a_nonempty_string(self, pid):
        message = "packet id must be a nonempty string"
        with pytest.raises(ValueError, match=message):
            Packet(pid, 1, 2, Fraction(1), 0)
        # Instance.build passes ids through as they are, never coerced.
        with pytest.raises(ValueError, match=message):
            Instance.build([(pid, 1, 2, 1)])

    @pytest.mark.parametrize(
        "row",
        [
            ("", 2, 3, 1),
            ("c", 2, 3.0, 1),
            ("c", 0, 3, 1),
            ("c", 3, 3, 1),
            ("c", 2, 3, 0),
            ("a", 2, 3, 1),  # the first row's id again
            ("c", 1, 3, 1),  # released before the row above it
            ("c", 2, 10**MAX_DIGITS, 1),  # a deadline too long to write
            ("c", 10**MAX_DIGITS, 3, 1),  # a release too long to write
            ("c", -(10**MAX_DIGITS), 3, 1),
            ("c", 2, -(10**MAX_DIGITS), 1),
            ("c", 10**MAX_DIGITS, 3.0, 1),  # and not an integer step either
            (10**MAX_DIGITS, 2, 3, 1),  # an id too long to write
        ],
    )
    def test_error_names_the_packet_by_arrival_index(self, row):
        with pytest.raises(PacketError) as caught:
            Instance.build([("a", 1, 2, 1), ("b", 2, 3, 1), row, ("d", 3, 4, 1)])
        assert caught.value.index == 2
        assert "Exceeds the limit" not in str(caught.value)

    @pytest.mark.parametrize(
        "weight, message",
        [
            (None, "not a rational number"),
            ("1/0", "not a rational number"),
            ("x", "not a rational number"),
            (float("nan"), "not a rational number"),
            (float("inf"), "not a rational number"),
            (True, "not a rational number"),
            (False, "not a rational number"),
            (0, "non-positive weight"),
            ("-1/2", "non-positive weight"),
            # Too long to write, in every form; the size is checked first.
            pytest.param(f"1e{MAX_DIGITS}", TOO_LONG, id="exponent-string"),
            pytest.param("1e999999", TOO_LONG, id="huge-exponent-string"),
            pytest.param("7" * (MAX_DIGITS + 1), TOO_LONG, id="digit-string"),
            pytest.param("1/" + "7" * (MAX_DIGITS + 1), TOO_LONG, id="denominator-string"),
            pytest.param(10**MAX_DIGITS, TOO_LONG, id="int"),
            pytest.param(-(10**MAX_DIGITS), TOO_LONG, id="negative-int"),
            pytest.param(Fraction(1, 10**MAX_DIGITS), TOO_LONG, id="fraction-denominator"),
        ],
    )
    def test_a_bad_weight_is_a_packet_error(self, weight, message):
        with pytest.raises(PacketError, match=f"packet b: .*{message}") as caught:
            Instance.build([("a", 1, 2, 1), ("b", 1, 2, weight)])
        assert caught.value.index == 1
        assert "Exceeds the limit" not in str(caught.value)
        # The one weight rule, which the command line's weight options use.
        with pytest.raises(ValueError, match=message):
            as_weight(weight)

    @pytest.mark.parametrize("weight", [1, "3/2", 1.5, Fraction(7, 3)])
    def test_a_weight_converts_to_its_fraction(self, weight):
        assert Instance.build([("a", 1, 2, weight)]).packets[0].weight == Fraction(weight)
        assert as_weight(weight) == Fraction(weight)


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
    key whose deadline has passed."""

    def test_expiry_at_deadline(self):
        a, b = mk("a", 1, 2, 1, 0), mk("b", 1, 3, 2, 1)
        assert carry_after(frozenset({a, b}), b, 1) == frozenset()

    def test_arrival_joins_buffer(self):
        b = mk("b", 1, 5, 1)
        c = mk("c", 3, 5, 1, 1)
        compiled, key = key_space([b, c])
        carried = States(1, 1, {frozenset({key[b]}): (1, 0, 1)})
        states = advance("mg-prime", carried, 3, (key[c],), compiled.deadlines, compiled.weights)
        assert as_fractions(states, compiled.packets) == {frozenset({c}): (1, 1, 1)}

    def test_only_expired_dropped(self):
        a, b, x = mk("a", 1, 3, 1, 0), mk("b", 1, 4, 1, 1), mk("x", 2, 4, 1, 2)
        assert carry_after(frozenset({a, b, x}), x, 2) == {b}

    def test_rejects_step_jump(self):
        a = mk("a", 1, 3, 1)
        compiled, key = key_space([a])
        stale = States(1, 1, {frozenset({key[a]}): (1, 0, 1)})
        with pytest.raises(ValueError, match="not pending"):
            advance("mg-prime", stale, 3, (), compiled.deadlines, compiled.weights)

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
            assert schedule_weight(sched) == sum(p.weight for p in packets)


@st.composite
def schedules(draw):
    """A start step and a schedule of up to 6 packets: either the
    deadline-first schedule of a feasible set or slots drawn inside the
    packets' windows, some of them before the start step."""
    start = draw(st.integers(1, 3))
    packets = []
    for i in range(draw(st.integers(0, 6))):
        release = draw(st.integers(1, start + 3))
        deadline = release + draw(st.integers(1, 4))
        weight = Fraction(draw(st.integers(1, 4)), draw(st.integers(1, 2)))
        packets.append(mk(f"p{i}", release, deadline, weight, i))
    if draw(st.booleans()):
        kept = [p for p in packets if is_feasible_set([p], start)]
        while kept and not is_feasible_set(kept, start):
            kept.pop()
        return edf_schedule(kept, start), start
    slots = {}
    for p in packets:
        step = draw(st.integers(p.release, p.deadline - 1))
        slots.setdefault(step, p)
    return Schedule(tuple(sorted(slots.items()))), start


class TestFollowsPriorityOrder:
    @settings(max_examples=500, derandomize=True, database=None, deadline=None)
    @given(schedules())
    def test_matches_stepwise_oracle(self, drawn):
        schedule, start = drawn
        assert follows_priority_order(schedule, start) == oracle_follows_priority_order(
            schedule, start
        )

    def test_idle_step_with_a_packet_available(self):
        a, b = mk("a", 1, 4, 1, 0), mk("b", 1, 4, 2, 1)
        assert follows_priority_order(Schedule(((1, b), (2, a))), 1)
        assert not follows_priority_order(Schedule(((1, b), (3, a))), 1)
        assert not follows_priority_order(Schedule(((2, b), (3, a))), 1)
        assert not follows_priority_order(Schedule(((1, b), (2, a))), 2)

    @pytest.mark.parametrize(
        "slots, start, expected",
        [
            pytest.param((), 1, True, id="empty"),
            pytest.param((), 5, True, id="empty-late-start"),
            # a and b are released at 1 and 2; c at 5.
            pytest.param(((1, "a"), (2, "b")), 2, False, id="slot-before-start"),
            pytest.param(((2, "a"),), 1, False, id="idle-while-released-at-start"),
            pytest.param(((1, "a"), (3, "b")), 1, False, id="idle-while-released"),
            pytest.param(((1, "a"), (2, "b"), (5, "c")), 1, True, id="legal-gap"),
            pytest.param(((1, "a"), (2, "b"), (6, "c")), 1, False, id="gap-past-a-release"),
            pytest.param(((1, "a"), (5, "c")), 1, True, id="legal-gap-one-member-left"),
            pytest.param(((2, "b"), (5, "c")), 1, True, id="idle-before-the-first-release"),
            pytest.param(((3, "b"), (5, "c")), 1, False, id="idle-after-a-release"),
        ],
    )
    def test_start_gaps_and_idle_steps(self, slots, start, expected):
        packets = {
            "a": mk("a", 1, 3, 1, 0),
            "b": mk("b", 2, 4, 2, 1),
            "c": mk("c", 5, 7, 1, 2),
        }
        schedule = Schedule(tuple((step, packets[pid]) for step, pid in slots))
        assert follows_priority_order(schedule, start) is expected
        assert oracle_follows_priority_order(schedule, start) is expected


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

    def test_duplicate_message_names_the_packet(self):
        a, b = mk("a", 1, 5, 1, 0), mk("b", 1, 5, 1, 1)
        with pytest.raises(ValueError, match="packet b assigned twice"):
            Schedule(((1, a), (2, b), (4, b)))

    def test_rejects_a_repeated_step(self):
        a, b = mk("a", 1, 5, 1, 0), mk("b", 1, 5, 1, 1)
        with pytest.raises(ValueError, match="strictly increasing"):
            Schedule(((1, a), (2, b), (2, a)))

    def test_weight_and_lookup(self):
        a, b = mk("a", 1, 5, Fraction(1, 2), 0), mk("b", 1, 5, 2, 1)
        sched = Schedule(((1, a), (3, b)))
        assert schedule_weight(sched) == Fraction(5, 2)
        assert slot_at(sched, 3) == b
        assert slot_at(sched, 2) is None
        assert sched.packets == {a, b}
