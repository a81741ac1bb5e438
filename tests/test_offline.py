import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import mk, mk_instance, random_agreeable
from oracles import (
    brute_force_opt,
    follows_priority_order,
    oracle_greedy_set,
    oracle_oblivious,
    order_key,
    precedes,
    schedule_weight,
    slot_at,
)

from pktsched import offline
from pktsched.engine import busy_steps
from pktsched.model import InvariantError, has_agreeable_deadlines, is_feasible_set
from pktsched.offline import (
    _Basis,
    _basis_admit,
    _basis_send,
    _basis_view,
    _compile,
    _conforming_send,
    _conforming_start,
    _greedy_keys,
    _ranked_step,
    conforming_clairvoyant,
    oblivious_schedule,
    opt_schedule,
)


def fig_packets():
    windows = [(2, 3), (2, 4), (3, 7), (4, 7), (6, 7)]
    return [mk(f"j{i+1}", r, d, 1, i) for i, (r, d) in enumerate(windows)]


@st.composite
def packets_around_start(draw):
    """Up to 8 packets, not necessarily agreeable, released before or after
    a start step (some already expired by it)."""
    start = draw(st.integers(1, 4))
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(1, start + 3),  # release
                st.integers(1, 4),  # lifespan
                st.integers(1, 9),  # weight numerator
                st.integers(1, 3),  # weight denominator
            ),
            max_size=8,
        )
    )
    packets = [
        mk(f"p{i}", r, r + span, Fraction(num, den), i)
        for i, (r, span, num, den) in enumerate(rows)
    ]
    return packets, start


@st.composite
def agreeable_around_start(draw):
    """Up to 9 packets with agreeable deadlines, released before or after a
    start step in 1..5 (some already expired by it).  Each deadline is
    raised to the largest one released at an earlier step, so deadlines
    never fall in release order, while packets of one release arrive in
    any deadline order; weights come from a small menu, so ties are
    common."""
    start = draw(st.integers(1, 5))
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(1, start + 4),  # release
                st.integers(1, 4),  # lifespan
                st.integers(1, 4),  # weight numerator
                st.integers(1, 2),  # weight denominator
            ),
            max_size=9,
        )
    )
    packets = []
    floor = top = 0
    for i, (r, span, num, den) in enumerate(sorted(rows, key=lambda row: row[0])):
        if packets and r > packets[-1].release:
            floor = top
        deadline = max(r + span, floor)
        top = max(top, deadline)
        packets.append(mk(f"p{i}", r, deadline, Fraction(num, den), i))
    return packets, start


@st.composite
def pending_at_step(draw):
    """1 to 8 packets pending at a step in 1..5: released by it, deadlines
    beyond it from a short range (so often repeated), and fractional weights
    from a small menu (so often tied, also across representations)."""
    step = draw(st.integers(1, 5))
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(1, step),  # release
                st.integers(1, 4),  # deadline - step
                st.integers(1, 4),  # weight numerator
                st.integers(1, 2),  # weight denominator
            ),
            min_size=1,
            max_size=8,
        )
    )
    pending = [
        mk(f"p{i}", r, step + span, Fraction(num, den), i)
        for i, (r, span, num, den) in enumerate(rows)
    ]
    return pending, step


class TestOptSchedule:
    def test_window_example_all_scheduled(self):
        sched, value = opt_schedule(fig_packets(), 2)
        assert value == 5
        assert len(sched) == 5
        assert value == brute_force_opt(fig_packets(), 2)

    def test_one_slot_heavier_wins(self):
        a, b = mk("a", 1, 2, 1, 0), mk("b", 1, 2, 9, 1)
        sched, value = opt_schedule([a, b], 1)
        assert value == 9
        assert slot_at(sched, 1) == b

    def test_three_packet_instance(self):
        inst = mk_instance(("a", 1, 2, 1), ("b", 1, 3, 2), ("c", 2, 3, 2))
        _, value = opt_schedule(inst.packets, 1)
        assert value == 4
        assert value == brute_force_opt(inst.packets, 1)

    def test_empty(self):
        sched, value = opt_schedule([], 1)
        assert value == 0 and not sched

    def test_value_invariant_under_input_order(self):
        rng = random.Random(17)
        inst = random_agreeable(rng)
        packets = list(inst.packets)
        _, reference = opt_schedule(packets, 1)
        for _ in range(5):
            rng.shuffle(packets)
            _, value = opt_schedule(packets, 1)
            assert value == reference

    def test_matches_brute_force_on_random_instances(self):
        rng = random.Random(99)
        for _ in range(150):
            rows = []
            for i in range(rng.randint(0, 7)):
                r = rng.randint(1, 4)
                rows.append(
                    (f"p{i}", r, r + rng.randint(1, 3), Fraction(rng.randint(1, 9), rng.randint(1, 3)))
                )
            rows.sort(key=lambda row: row[1])
            inst = mk_instance(*rows)
            _, value = opt_schedule(inst.packets, 1)
            assert value == brute_force_opt(inst.packets, 1)

    def test_respects_release_times(self):
        # the far packet cannot fill the early slot
        a, b = mk("a", 1, 2, 1, 0), mk("b", 3, 4, 5, 1)
        sched, value = opt_schedule([a, b], 1)
        assert value == 6
        assert sched.slots == ((1, a), (3, b))

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(packets_around_start())
    def test_greedy_matches_brute_force_on_non_agreeable_sets(self, case):
        packets, start = case
        sched, value = opt_schedule(packets, start)
        assert value == brute_force_opt(packets, start)
        assert follows_priority_order(sched, start)

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(agreeable_around_start())
    def test_agreeable_greedy_keeps_the_simulated_greedy_set(self, case):
        packets, start = case
        assert has_agreeable_deadlines(packets)
        compiled = _compile(packets)
        kept = _greedy_keys(compiled, range(len(packets)), start, True)
        assert [compiled.packets[k] for k in kept] == oracle_greedy_set(packets, start)
        sched, value = opt_schedule(packets, start)
        assert value == brute_force_opt(packets, start)
        assert follows_priority_order(sched, start)

    def test_agreeable_input_skips_the_simulation(self, monkeypatch):
        calls = []

        def counting(packets, start):
            calls.append(start)
            return is_feasible_set(packets, start)

        monkeypatch.setattr(offline, "is_feasible_set", counting)
        inst = random_agreeable(random.Random(5), max_steps=6, max_per_step=4)
        assert any(p.release > 1 for p in inst.packets)
        _, value = opt_schedule(inst.packets, 1)
        assert calls == []
        assert value == brute_force_opt(inst.packets, 1)
        # A later packet with an earlier deadline: the simulation decides.
        packets = [mk("a", 1, 5, 1, 0), mk("b", 2, 3, 2, 1), mk("c", 2, 3, 3, 2)]
        assert not has_agreeable_deadlines(packets)
        _, value = opt_schedule(packets, 1)
        assert calls
        assert value == brute_force_opt(packets, 1) == 4

    def test_large_deadline_does_not_blow_up(self):
        a = mk("a", 1, 10**6, 1, 0)
        sched, value = opt_schedule([a], 1)
        assert value == 1 and slot_at(sched, 1) == a


class TestObliviousSchedule:
    def test_dominated_light_tight_packet(self):
        a, b, c = mk("a", 1, 2, 3, 0), mk("b", 1, 2, 5, 1), mk("c", 1, 3, 4, 2)
        ob = oblivious_schedule({a, b, c}, 1)
        assert ob.schedule.sequence() == (b, c)
        assert ob.earliest == b and ob.heaviest == b
        assert {a, b, c} - ob.schedule.packets == {a}

    def test_both_fit(self):
        a, b = mk("a", 1, 2, 1, 0), mk("b", 1, 3, 3, 1)
        ob = oblivious_schedule({a, b}, 1)
        assert ob.schedule.sequence() == (a, b)
        assert ob.earliest == a and ob.heaviest == b
        assert {a, b} - ob.schedule.packets == frozenset()

    def test_singleton(self):
        x = mk("x", 1, 5, 2)
        ob = oblivious_schedule({x}, 1)
        assert ob.schedule.sequence() == (x,)
        assert ob.earliest == ob.heaviest == x

    def test_rejects_empty_or_stale(self):
        with pytest.raises(ValueError):
            oblivious_schedule([], 1)
        with pytest.raises(ValueError, match="not pending"):
            oblivious_schedule({mk("a", 1, 2, 1)}, 2)

    def test_exhaustive_small_sets_match_enumeration_oracle(self):
        # every pending multiset of up to 6 packets over this kind grid
        kinds = [(d, w) for d in (2, 3, 4) for w in (1, 2)]
        for size in range(1, 7):
            for combo in itertools.combinations_with_replacement(kinds, size):
                pending = [mk(f"p{i}", 1, d, w, i) for i, (d, w) in enumerate(combo)]
                ob = oblivious_schedule(pending, 1)
                seq, e, h, dom = oracle_oblivious(pending, 1)
                assert ob.schedule.sequence() == seq
                assert ob.earliest == e and ob.heaviest == h
                assert frozenset(pending) - ob.schedule.packets == dom
                _, value = opt_schedule(pending, 1)
                assert schedule_weight(ob.schedule) == value
                assert value == brute_force_opt(pending, 1)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(pending_at_step())
    def test_matches_oracles_on_pending_sets_at_any_step(self, case):
        pending, step = case
        ob = oblivious_schedule(pending, step)
        seq, e, h, dom = oracle_oblivious(pending, step)
        assert ob.schedule.sequence() == seq
        assert ob.earliest == e and ob.heaviest == h
        assert frozenset(pending) - ob.schedule.packets == dom
        _, value = opt_schedule(pending, step)
        assert schedule_weight(ob.schedule) == value == brute_force_opt(pending, step)

    def test_matches_matching_value_on_random_sets(self):
        rng = random.Random(4)
        for _ in range(200):
            step = rng.randint(1, 3)
            pending = [
                mk(
                    f"p{i}",
                    rng.randint(1, step),
                    step + rng.randint(1, 4),
                    Fraction(rng.randint(1, 9), rng.randint(1, 3)),
                    i,
                )
                for i in range(rng.randint(1, 7))
            ]
            ob = oblivious_schedule(pending, step)
            _, value = opt_schedule(pending, step)
            assert schedule_weight(ob.schedule) == value
            assert value == brute_force_opt(pending, step)
            assert follows_priority_order(ob.schedule, step)


@st.composite
def carried_runs(draw):
    """Up to 14 packets released over steps 1 to 12, with gaps, lifespans
    1 to 6 (not necessarily agreeable) and weights n/d from a short menu,
    so weights and deadlines tie; and the picks that choose each step's
    sent member."""
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(1, 12),  # release
                st.integers(1, 6),  # lifespan
                st.integers(1, 4),  # weight numerator
                st.integers(1, 2),  # weight denominator
            ),
            max_size=14,
        )
    )
    rows.sort(key=lambda row: row[0])
    inst = mk_instance(
        *((f"p{i}", r, r + span, Fraction(num, den)) for i, (r, span, num, den) in enumerate(rows))
    )
    return inst, draw(st.lists(st.integers(0, 13), min_size=1, max_size=20))


class TestCarriedBasis:
    """The carried basis (``offline._Basis``) against a full re-solve,
    ``_ranked_step``, at every step of a run that sends any member."""

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(carried_runs())
    # The member sent at step 1 spans a lighter key with a later deadline,
    # which re-enters the basis and is all that is left at step 2.
    @example((mk_instance(("e", 1, 2, 1), ("h", 1, 3, 3), ("x", 1, 3, 1)), [1]))
    def test_every_step_matches_a_full_re_solve(self, case):
        inst, picks = case
        compiled = _compile(inst)
        deadlines, weights, expiring = compiled.deadlines, compiled.weights, compiled.expiring
        basis = _Basis([], [], [])
        pending: set[int] = set()
        steps = busy_steps(compiled.arrivals, lambda: bool(basis.keys))
        for n, step in enumerate(steps):
            arrived = compiled.arrivals.get(step, ())
            pending.update(arrived)
            _basis_admit(basis, arrived, step, deadlines)
            sequence, e, h = _ranked_step(deadlines, weights, pending, step)
            assert _basis_view(basis, step, weights) == (sequence, e, h)
            assert basis.deadlines == [deadlines[k] for k in sequence]
            assert basis.rest == sorted(pending.difference(sequence))
            sent = sequence[picks[n % len(picks)] % len(sequence)]
            _basis_send(basis, sent, step, deadlines, expiring.get(step + 1, ()))
            pending.discard(sent)
            pending.difference_update(expiring.get(step + 1, ()))
        assert not pending and basis == ([], [], [])


@st.composite
def agreeable_runs(draw):
    """Up to 14 agreeable packets released over steps 1 to 12, with gaps:
    a packet's deadline is at least its release plus a lifespan of 1 to 6
    and at least every deadline of an earlier release.  Weights are n/d
    from a short menu, so weights and deadlines tie; the picks choose each
    step's sent member of the oblivious schedule."""
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(1, 12),  # release
                st.integers(1, 6),  # lifespan
                st.integers(1, 4),  # weight numerator
                st.integers(1, 2),  # weight denominator
            ),
            max_size=14,
        )
    )
    rows.sort(key=lambda row: row[0])
    packets = []
    floor = below = 0  # the latest deadline of the earlier releases
    for i, (r, span, num, den) in enumerate(rows):
        if i and r > rows[i - 1][0]:
            floor = below
        d = max(r + span, floor)
        below = max(below, d)
        packets.append((f"p{i}", r, d, Fraction(num, den)))
    return mk_instance(*packets), draw(st.lists(st.integers(0, 13), min_size=1, max_size=20))


class TestCarriedConforming:
    """The carried conforming basis (``offline._Conforming``) against a
    full re-solve, the key greedy over pending plus future keys, at every
    step of a run that sends any member of the oblivious schedule."""

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(agreeable_runs())
    # Idle steps 2 and 3 are jumped over.
    @example((mk_instance(("a", 1, 2, 1), ("b", 4, 6, 2), ("c", 4, 5, 2)), [0]))
    # Weight and deadline ties.
    @example(
        (
            mk_instance(
                ("a", 1, 3, 2), ("b", 1, 3, 2), ("c", 2, 4, 2), ("d", 2, 4, 2), ("e", 3, 4, 2)
            ),
            [0, 1],
        )
    )
    # Fractional weights.
    @example(
        (
            mk_instance(
                ("a", 1, 3, Fraction(1, 2)),
                ("b", 1, 2, Fraction(3, 2)),
                ("c", 2, 4, Fraction(1, 3)),
                ("d", 3, 4, Fraction(5, 2)),
            ),
            [1, 0],
        )
    )
    # C is {f, b} at step 1, and the oblivious schedule's a is sent.
    @example((mk_instance(("a", 1, 3, 1), ("b", 1, 3, 3), ("f", 2, 3, 5)), [1]))
    # The future x is outside C at step 1 and replaces the sent b.
    @example((mk_instance(("a", 1, 2, 9), ("b", 1, 3, 8), ("x", 2, 3, 1)), [1]))
    def test_every_step_matches_a_full_re_solve(self, case):
        inst, picks = case
        compiled = _compile(inst)
        releases, deadlines, weights = compiled.releases, compiled.deadlines, compiled.weights
        conforming = _conforming_start(compiled, next(iter(compiled.arrivals), 0))
        pending: set[int] = set()
        future = set(range(len(compiled.packets)))
        steps = busy_steps(compiled.arrivals, lambda: bool(pending))
        for n, step in enumerate(steps):
            arrived = compiled.arrivals.get(step, ())
            pending.update(arrived)
            future.difference_update(arrived)
            kept = _greedy_keys(compiled, sorted(pending | future), step, True)
            fifo, slots, dls, keys, rest = conforming
            assert sorted(keys) == sorted(kept)
            assert rest == sorted((pending | future).difference(kept))
            assert fifo == sorted(fifo)
            assert fifo == [(max(releases[k], step), deadlines[k]) for k in keys]
            assert dls == [deadlines[k] for k in keys]
            layout = []
            for r, _ in fifo:
                layout.append(max(layout[-1] + 1, r) if layout else r)
            assert slots == layout and all(map(int.__lt__, slots, dls))
            sequence, _, _ = _ranked_step(deadlines, weights, pending, step)
            sent = sequence[picks[n % len(picks)] % len(sequence)]
            expiring = compiled.expiring.get(step + 1, ())
            _conforming_send(conforming, sent, step, releases, deadlines, expiring)
            pending.discard(sent)
            pending.difference_update(expiring)
        assert not pending and not future and conforming == ([], [], [], [], [])


@st.composite
def pending_and_future(draw):
    """A pending set at a step in 1..4 and future arrivals after it, at most
    8 packets, not necessarily agreeable.  Deadlines come from a short range
    and weights from a small menu, so weight and deadline ties are common."""
    step = draw(st.integers(1, 4))
    weights = st.builds(Fraction, st.integers(1, 4), st.integers(1, 2))
    pending_rows = draw(
        st.lists(
            st.tuples(st.integers(1, step), st.integers(1, 3), weights),
            min_size=1,
            max_size=5,
        )
    )
    future_rows = draw(
        st.lists(
            st.tuples(st.integers(step + 1, step + 3), st.integers(1, 3), weights),
            max_size=8 - len(pending_rows),
        )
    )
    pending = [
        mk(f"p{i}", r, step + span, w, i)
        for i, (r, span, w) in enumerate(sorted(pending_rows, key=lambda row: row[0]))
    ]
    future = [
        mk(f"f{i}", r, r + span, w, len(pending) + i)
        for i, (r, span, w) in enumerate(sorted(future_rows, key=lambda row: row[0]))
    ]
    return pending, future, step


def assert_conforms(pending, future, step, ob):
    """The clauses of a conforming clairvoyant schedule against ``ob``."""
    conf = conforming_clairvoyant(pending, future, step, ob)
    # optimal over pending plus future
    _, best = opt_schedule(list(pending) + future, step)
    assert schedule_weight(conf) == best
    # deadline-first order
    assert follows_priority_order(conf, step)
    # pending part inside the oblivious schedule
    assert all(
        p in ob.schedule.packets
        for p in conf.packets
        if p.release <= step
    )
    # first-packet clause
    first = slot_at(conf, step)
    assert first is not None
    assert all(
        p.weight < first.weight
        for p in ob.schedule.packets
        if p != first and precedes(p, first)
    )


class TestConformingClairvoyant:
    def test_no_future_keeps_pending_plan(self):
        a, b = mk("a", 1, 2, 1, 0), mk("b", 1, 3, 3, 1)
        ob = oblivious_schedule({a, b}, 1)
        conf = conforming_clairvoyant([a, b], [], 1, ob)
        assert conf.slots == ((1, a), (2, b))

    def test_future_displaces_light_packet(self):
        a, b = mk("a", 1, 2, 1, 0), mk("b", 1, 3, 3, 1)
        c = mk("c", 2, 3, 3, 2)
        ob = oblivious_schedule({a, b}, 1)
        conf = conforming_clairvoyant([a, b], [c], 1, ob)
        assert conf.slots == ((1, b), (2, c))
        # the only order-earlier oblivious member weighs strictly less
        assert a.weight < b.weight

    def test_singleton(self):
        x = mk("x", 1, 4, 2)
        ob = oblivious_schedule({x}, 2)
        conf = conforming_clairvoyant([x], [], 2, ob)
        assert conf.slots == ((2, x),)

    def test_rejects_non_agreeable_universe(self):
        a = mk("a", 1, 5, 1, 0)
        late = mk("b", 2, 3, 1, 1)
        ob = oblivious_schedule({a}, 1)
        with pytest.raises(ValueError, match="agreeable"):
            conforming_clairvoyant([a], [late], 1, ob)

    def test_conformance_clauses_on_random_instances(self):
        rng = random.Random(31)
        checked = 0
        for _ in range(120):
            inst = random_agreeable(rng)
            if not len(inst):
                continue
            arrivals = inst.arrivals_by_step
            pending = frozenset()
            for step in range(inst.first_release, inst.horizon + 1):
                pending = frozenset(
                    p for p in pending if p.deadline > step
                ) | frozenset(arrivals.get(step, ()))
                if not pending:
                    continue
                ob = oblivious_schedule(pending, step)
                future = [p for p in inst.packets if p.release > step]
                assert_conforms(pending, future, step, ob)
                checked += 1
                # consume the earliest packet to vary the pending sets
                pending = pending - {min(pending, key=order_key)}
        assert checked > 150

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(pending_and_future())
    def test_pending_part_of_union_optimum_lies_in_oblivious(self, case):
        # the greedy over pending plus future packets keeps only pending
        # packets that the canonical oblivious schedule keeps, so the
        # conforming schedule can start from the greedy optimum itself
        pending, future, step = case
        sched, value = opt_schedule(pending + future, step)
        sequence, _, _, _ = oracle_oblivious(pending, step)
        assert {p for p in sched.packets if p.release <= step} <= set(sequence)
        assert value == brute_force_opt(pending + future, step)
        if has_agreeable_deadlines(pending + future):
            assert_conforms(pending, future, step, oblivious_schedule(pending, step))

    def test_displaced_earliest_with_middle_first_packet(self):
        # future arrival pushes the earliest packet out of the optimum and
        # the conforming schedule starts with a packet strictly between the
        # earliest and the heaviest; the heaviest must still be frontable
        e = mk("e", 1, 2, 1, 0)
        j = mk("j", 1, 3, 2, 1)
        h = mk("h", 1, 4, 3, 2)
        x = mk("x", 2, 4, 10, 3)
        ob = oblivious_schedule({e, j, h}, 1)
        assert ob.schedule.sequence() == (e, j, h)
        conf = conforming_clairvoyant([e, j, h], [x], 1, ob)
        assert conf.slots == ((1, j), (2, x), (3, h))
        assert ob.earliest not in conf.packets
        assert slot_at(conf, 1) not in (ob.earliest, ob.heaviest)
        # moving the heaviest to the front keeps feasibility: h@1, j@2, x@3
        assert h.deadline > 1 and j.deadline > 2 and x.deadline > 3

    def test_corrupted_oblivious_is_rejected(self):
        # dropping a packet from the oblivious schedule leaves a pending
        # packet of the optimum outside it
        a, b = mk("a", 1, 3, 1, 0), mk("b", 1, 3, 1, 1)
        ob = oblivious_schedule({a, b}, 1)
        from pktsched.offline import ObliviousSchedule
        from pktsched.model import Schedule

        crippled = ObliviousSchedule(Schedule(((1, a),)), 1, a, a)
        with pytest.raises(InvariantError):
            conforming_clairvoyant([a, b], [], 1, crippled)
