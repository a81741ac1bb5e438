import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mk
from oracles import oracle_golden_test, precedes

from pktsched.model import Schedule
from pktsched.offline import ObliviousSchedule, oblivious_schedule
from pktsched.policies import POLICIES, _rg_lottery, _within_golden, decide


def pending_schedule(*packets):
    start = min(p.release for p in packets)
    return oblivious_schedule(set(packets), start)


def choose(policy, oblivious):
    """A deterministic policy's choice on an oblivious schedule."""
    ((sent, probability),) = decide(policy, oblivious)
    assert probability == 1
    return sent


def random_positive(rng):
    return Fraction(rng.randint(1, 400), rng.randint(1, 400))


def within(w_e, w_h):
    """``_within_golden`` on two rational weights, as the integers over
    their common denominator that a policy compares."""
    return _within_golden(w_e.numerator * w_h.denominator, w_h.numerator * w_e.denominator)


class TestGoldenTest:
    """``_within_golden(e, h)``: h <= phi * e for positive integer weights."""

    def test_equal_weights(self):
        assert _within_golden(1, 1)

    def test_double_exceeds(self):
        assert not _within_golden(1, 2)

    def test_three_halves_within(self):
        assert _within_golden(2, 3)

    def test_scale_invariance_properties(self):
        rng = random.Random(8)
        for _ in range(200):
            w = random_positive(rng)
            assert within(w, w)
            assert not within(w, 2 * w)

    def test_rejects_nonpositive(self):
        # The integer test assumes positive weights; the model refuses the
        # others before any policy compares them.
        with pytest.raises(ValueError, match="non-positive weight"):
            mk("e", 1, 2, 0)
        with pytest.raises(ValueError, match="non-positive weight"):
            mk("h", 1, 2, -1)

    def test_agrees_with_high_precision_oracle(self):
        rng = random.Random(123)
        for _ in range(10_000):
            w_e = random_positive(rng)
            w_h = random_positive(rng)
            assert within(w_e, w_h) == oracle_golden_test(w_e, w_h)

    def test_quadratic_equality_never_hit_by_rationals(self):
        # w_h/w_e equal to the golden ratio would need an irrational value,
        # so the deciding quadratic is always strict.
        rng = random.Random(5)
        for _ in range(2000):
            w_e = random_positive(rng)
            w_h = random_positive(rng)
            assert w_h * w_h != w_h * w_e + w_e * w_e

    def test_golden_bounds_helpers(self):
        # 8/5 lies below phi and 5/3 above it.
        assert _within_golden(5, 8)
        assert not _within_golden(3, 5)

    def test_fibonacci_ratios_on_both_sides_of_phi(self):
        # Consecutive Fibonacci ratios close in on phi from alternating
        # sides: 987/610 lies just below it, 1597/987 just above.
        assert _within_golden(610, 987) and not _within_golden(987, 1597)
        for scale in (Fraction(1), Fraction(3, 7), Fraction(11, 2)):
            assert within(610 * scale, 987 * scale)
            assert not within(987 * scale, 1597 * scale)
        for w_e, w_h in ((Fraction(610), Fraction(987)), (Fraction(987, 5), Fraction(1597, 5))):
            assert within(w_e, w_h) == oracle_golden_test(w_e, w_h)


class TestMgChoose:
    def test_falls_back_to_heaviest(self):
        e, h = mk("e", 1, 2, 1, 0), mk("h", 1, 3, 3, 1)
        assert choose("mg", pending_schedule(e, h)) == h

    def test_takes_middle_candidate(self):
        e = mk("e", 1, 2, 1, 0)
        f = mk("f", 1, 3, 2, 1)
        h = mk("h", 1, 4, 3, 2)
        assert choose("mg", pending_schedule(e, f, h)) == f

    def test_skips_a_member_within_golden_of_the_earliest(self):
        # f is within phi of the heaviest but not above phi times e.
        e = mk("e", 1, 2, 1, 0)
        f = mk("f", 1, 3, Fraction(3, 2), 1)
        h = mk("h", 1, 4, 2, 2)
        assert choose("mg", pending_schedule(e, f, h)) == h

    def test_singleton(self):
        x = mk("x", 1, 2, 1)
        assert choose("mg", pending_schedule(x)) == x

    def test_agrees_with_simplified_when_within_golden(self):
        rng = random.Random(77)
        for _ in range(200):
            packets = [
                mk(f"p{i}", 1, 1 + rng.randint(1, 4), random_positive(rng), i)
                for i in range(rng.randint(1, 5))
            ]
            ob = oblivious_schedule(packets, 1)
            if within(ob.earliest.weight, ob.heaviest.weight):
                assert choose("mg", ob) == choose("mg-prime", ob) == ob.earliest
            else:
                chosen = choose("mg", ob)
                # between the earliest and the heaviest in the order
                assert not precedes(chosen, ob.earliest)
                assert not precedes(ob.heaviest, chosen)


class TestMgPrimeChoose:
    def test_sends_heaviest_outside_golden(self):
        e, h = mk("e", 1, 2, 1, 0), mk("h", 1, 4, 3, 1)
        assert choose("mg-prime", pending_schedule(e, h)) == h

    def test_sends_earliest_within_golden(self):
        e, h = mk("e", 1, 2, 2, 0), mk("h", 1, 4, 3, 1)
        assert choose("mg-prime", pending_schedule(e, h)) == e

    def test_singleton(self):
        x = mk("x", 1, 2, 1)
        assert choose("mg-prime", pending_schedule(x)) == x

    def test_always_earliest_or_heaviest(self):
        rng = random.Random(13)
        for _ in range(200):
            packets = [
                mk(f"p{i}", 1, 1 + rng.randint(1, 4), random_positive(rng), i)
                for i in range(rng.randint(1, 5))
            ]
            ob = oblivious_schedule(packets, 1)
            assert choose("mg-prime", ob) in (ob.earliest, ob.heaviest)


class TestRgDistribution:
    def test_one_third_two_thirds(self):
        e, h = mk("e", 1, 2, 1, 0), mk("h", 1, 3, 3, 1)
        assert decide("rg", pending_schedule(e, h)) == ((e, Fraction(1, 3)), (h, Fraction(2, 3)))

    def test_collapses_when_same_packet(self):
        x = mk("x", 1, 2, 2)
        assert decide("rg", pending_schedule(x)) == ((x, Fraction(1)),)

    def test_even_split(self):
        e, h = mk("e", 1, 2, 1, 0), mk("h", 1, 3, 2, 1)
        assert decide("rg", pending_schedule(e, h)) == ((e, Fraction(1, 2)), (h, Fraction(1, 2)))

    def test_expected_gain_identity_and_bound(self):
        rng = random.Random(21)
        for _ in range(2000):
            w_e = random_positive(rng)
            w_h = w_e + random_positive(rng)  # e is never heavier than h
            expected = (w_e / w_h) * w_e + (1 - w_e / w_h) * w_h
            closed_form = (w_e * w_e - w_e * w_h + w_h * w_h) / w_h
            assert expected == closed_form
            assert expected >= Fraction(3, 4) * w_h


class TestBaselinesAndRegistry:
    def test_baselines(self):
        e, h = mk("e", 1, 2, 1, 0), mk("h", 1, 3, 5, 1)
        ob = pending_schedule(e, h)
        assert choose("greedy-weight", ob) == h
        assert choose("edf-nondominated", ob) == e
        x = mk("x", 1, 2, 1)
        single = pending_schedule(x)
        assert choose("greedy-weight", single) == x
        assert choose("edf-nondominated", single) == x

    def test_unknown_names_raise(self):
        ob = pending_schedule(mk("x", 1, 2, 1))
        with pytest.raises(ValueError, match="unknown policy 'bogus'"):
            decide("bogus", ob)

    def test_decide_dispatch(self):
        e, h = mk("e", 1, 2, 1, 0), mk("h", 1, 3, 3, 1)
        ob = pending_schedule(e, h)
        assert decide("mg", ob) == ((h, 1),)
        assert decide("mg-prime", ob) == ((h, 1),)
        assert decide("greedy-weight", ob) == ((h, 1),)
        assert decide("edf-nondominated", ob) == ((e, 1),)
        assert len(decide("rg", ob)) == 2

    @pytest.mark.parametrize("policy", POLICIES)
    def test_an_empty_schedule_is_refused(self, policy):
        empty = ObliviousSchedule(Schedule(()), 1, None, None)
        with pytest.raises(ValueError, match="nonempty oblivious schedule"):
            decide(policy, empty)


class TestDecisionShape:
    """``decide`` returns one or two ``(packet, probability)`` outcomes."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(1, 4), st.integers(1, 9), st.integers(1, 4)),
            min_size=1,
            max_size=6,
        )
    )
    def test_outcomes_are_a_distribution_over_the_schedule(self, rows):
        packets = [
            mk(f"p{i}", 1, 1 + lifespan, Fraction(n, d), i)
            for i, (lifespan, n, d) in enumerate(rows)
        ]
        ob = oblivious_schedule(packets, 1)
        for policy in POLICIES:
            outcomes = decide(policy, ob)
            assert 1 <= len(outcomes) <= 2
            assert all(p in ob.schedule.packets for p, _ in outcomes)
            assert all(0 < q <= 1 for _, q in outcomes)
            assert sum(q for _, q in outcomes) == 1
            if policy != "rg":
                assert outcomes[0][1] == 1 and len(outcomes) == 1
        e, h = ob.earliest, ob.heaviest
        if e == h:
            assert decide("rg", ob) == ((e, 1),)
        else:
            scale = lcm(e.weight.denominator, h.weight.denominator)
            denominator, p_e, p_h = _rg_lottery(int(e.weight * scale), int(h.weight * scale))
            assert decide("rg", ob) == (
                (e, Fraction(p_e, denominator)),
                (h, Fraction(p_h, denominator)),
            )
