import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mk_instance, random_agreeable
from oracles import (
    brute_force_opt,
    oracle_mg_prime_run,
    oracle_mg_run,
    oracle_rg_expectation,
)

from pktsched.analysis import golden_chain
from pktsched.engine import (
    START,
    ExactCapExceeded,
    advance,
    run_policy,
    run_rg_exact,
    run_rg_mc,
)
from pktsched.model import Instance
from pktsched.policies import DETERMINISTIC_POLICIES


def three_packet_instance():
    return mk_instance(("a", 1, 2, 1), ("b", 1, 3, 2), ("c", 2, 3, 2))


@st.composite
def small_agreeable(draw):
    """Up to 4 release steps with up to 3 arrivals each; every deadline
    reaches the latest deadline released before it, so the instance is
    agreeable by construction."""
    rows = []
    floor = 0
    for step in range(1, draw(st.integers(1, 4)) + 1):
        batch_max = 0
        arrivals = st.tuples(st.integers(0, 2), st.integers(1, 9), st.integers(1, 3))
        for spread, num, den in draw(st.lists(arrivals, max_size=3)):
            deadline = max(floor, step + 1) + spread
            rows.append((f"p{len(rows)}", step, deadline, Fraction(num, den)))
            batch_max = max(batch_max, deadline)
        floor = max(floor, batch_max)
    return Instance.build(rows)


def step_states(instance, policy):
    """The state map after ``advance`` has stepped through every step."""
    states = START
    for step in range(instance.first_release, instance.horizon + 1):
        states = advance(policy, states, step, instance.arrivals_by_step.get(step, ()))
    return states


def gadget_horizon(gadgets):
    """Ten steps per gadget: a tight packet of weight 1 and a flexible one
    of weight 2 whose lottery splits every path in two; a last packet of
    weight 1 closes the horizon at step 10 * gadgets."""
    rows = []
    for k in range(gadgets):
        rows.append((f"t{k}", 10 * k + 1, 10 * k + 2, 1))
        rows.append((f"f{k}", 10 * k + 1, 10 * k + 3, 2))
    rows.append(("z", 10 * gadgets - 9, 10 * gadgets + 1, 1))
    return mk_instance(*rows)


class TestRunPolicy:
    def test_three_packet_trace(self):
        report = run_policy(three_packet_instance(), "mg-prime")
        oracle_total, oracle_ids = oracle_mg_prime_run(three_packet_instance())
        assert report.total_gain == oracle_total == 4
        assert [r.transmitted.id for r in report.per_step] == oracle_ids == ["b", "c"]
        assert report.opt_value == 4
        assert report.ratio == 1

    def test_single_packet(self):
        inst = mk_instance(("x", 1, 2, 5))
        for policy in ("mg", "mg-prime", "greedy-weight", "edf-nondominated"):
            report = run_policy(inst, policy)
            assert report.total_gain == 5
            assert report.ratio == 1

    def test_empty_instance(self):
        report = run_policy(Instance(()), "mg-prime")
        assert report.total_gain == 0
        assert report.opt_value == 0
        assert report.ratio == 1

    def test_rejects_randomized_policy(self):
        with pytest.raises(ValueError, match="deterministic"):
            run_policy(three_packet_instance(), "rg")

    def test_matches_independent_simulator(self):
        rng = random.Random(42)
        for _ in range(100):
            inst = random_agreeable(rng, max_steps=3, max_per_step=2)
            report = run_policy(inst, "mg-prime")
            total, ids = oracle_mg_prime_run(inst)
            assert report.total_gain == total
            assert [r.transmitted.id for r in report.per_step] == ids
            mg_report = run_policy(inst, "mg")
            mg_total, mg_ids = oracle_mg_run(inst)
            assert mg_report.total_gain == mg_total
            assert [r.transmitted.id for r in mg_report.per_step] == mg_ids

    def test_every_gain_below_optimum(self):
        rng = random.Random(57)
        for _ in range(60):
            inst = random_agreeable(rng)
            for policy in ("mg", "mg-prime", "greedy-weight", "edf-nondominated"):
                report = run_policy(inst, policy)
                assert report.total_gain <= report.opt_value
                if report.opt_value > 0:
                    assert report.ratio >= 1

    def test_transmits_only_scheduled_packets(self):
        rng = random.Random(3)
        for _ in range(40):
            inst = random_agreeable(rng)
            report = run_policy(inst, "mg-prime")
            for record in report.per_step:
                assert record.transmitted.id in record.scheduled_ids


class TestRunRgExact:
    def test_three_packet_expectation(self):
        value, leaves = run_rg_exact(three_packet_instance())
        oracle_value, oracle_leaves, mass = oracle_rg_expectation(three_packet_instance())
        assert value == oracle_value == Fraction(7, 2)
        assert leaves == oracle_leaves == 2
        assert mass == 1

    def test_single_packet(self):
        value, leaves = run_rg_exact(mk_instance(("x", 1, 3, 7)))
        assert value == 7
        assert leaves == 1

    def test_equal_weights_degenerate_to_deterministic(self):
        inst = mk_instance(("a", 1, 2, 3), ("b", 1, 3, 3), ("c", 2, 4, 3))
        value, leaves = run_rg_exact(inst)
        assert leaves == 1
        assert value == run_policy(inst, "mg-prime").total_gain

    def test_matches_enumeration_oracle(self):
        rng = random.Random(91)
        for _ in range(60):
            inst = random_agreeable(rng, max_steps=3, max_per_step=2)
            value, leaves = run_rg_exact(inst)
            oracle_value, oracle_leaves, mass = oracle_rg_expectation(inst)
            assert value == oracle_value
            assert leaves == oracle_leaves
            assert mass == 1

    def test_memoization_does_not_change_result(self):
        rng = random.Random(14)
        for _ in range(40):
            inst = random_agreeable(rng, max_steps=3, max_per_step=2)
            value, leaves = run_rg_exact(inst)
            oracle_value, oracle_leaves, mass = oracle_rg_expectation(inst)
            assert mass == 1
            assert oracle_value == value
            assert oracle_leaves == leaves

    def test_expectation_bounded_by_optimum(self):
        rng = random.Random(8)
        for _ in range(40):
            inst = random_agreeable(rng)
            value, _ = run_rg_exact(inst)
            assert value <= brute_force_opt(inst.packets, inst.first_release)

    def test_cap_exceeded(self):
        inst = three_packet_instance()
        with pytest.raises(ExactCapExceeded, match="too large for exact mode"):
            run_rg_exact(inst, cap=1)

    def test_long_horizon_without_recursion(self):
        value, leaves = run_rg_exact(gadget_horizon(500))
        assert value == 1251
        assert leaves == 2**500

    def test_golden_chain_matches_oracle(self):
        for length in range(4, 9):
            inst = golden_chain(length)
            value, leaves = run_rg_exact(inst)
            oracle_value, oracle_leaves, mass = oracle_rg_expectation(inst)
            assert (value, leaves, mass) == (oracle_value, oracle_leaves, 1)
            assert sum(prob for prob, _, _ in step_states(inst, "rg").values()) == 1

    def test_long_golden_chain_finishes_exactly(self):
        inst = golden_chain(40)
        value, leaves = run_rg_exact(inst)
        assert leaves == 2**40
        ratio = brute_force_opt(inst.packets, inst.first_release) / value
        assert 1 < ratio <= Fraction(4, 3)


class TestAdvance:
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(small_agreeable())
    def test_deterministic_policy_keeps_one_sure_state(self, inst):
        for policy in DETERMINISTIC_POLICIES:
            states = step_states(inst, policy)
            assert len(states) == 1
            ((prob, gain, paths),) = states.values()
            assert prob == 1 and paths == 1
            assert gain == run_policy(inst, policy).total_gain


class TestRunRgMc:
    def test_deterministic_instance_has_zero_stderr(self):
        inst = mk_instance(("a", 1, 2, 3), ("b", 1, 3, 3))
        mean, stderr = run_rg_mc(inst, trials=50, seed=9)
        assert mean == 6.0
        assert stderr == 0.0

    def test_reruns_are_bit_identical(self):
        inst = three_packet_instance()
        first = run_rg_mc(inst, trials=4000, seed=1234)
        second = run_rg_mc(inst, trials=4000, seed=1234)
        assert first == second

    def test_converges_to_exact_value(self):
        inst = three_packet_instance()
        exact, _ = run_rg_exact(inst)
        mean, stderr = run_rg_mc(inst, trials=20_000, seed=7)
        assert stderr > 0
        assert abs(mean - float(exact)) <= 4 * stderr

    def test_single_trial(self):
        mean, stderr = run_rg_mc(mk_instance(("x", 1, 2, 2)), trials=1, seed=0)
        assert mean == 2.0 and stderr == 0.0

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            run_rg_mc(three_packet_instance(), trials=0, seed=0)
