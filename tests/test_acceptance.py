"""Acceptance gate.

Each test enforces one acceptance criterion at its stated tolerance (all
weight/gain comparisons are exact rationals, zero tolerance) and prints one
pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``.

The shared exhaustive family is every canonical two-bounded instance with
at most 4 release steps, 1-2 arrivals per step, at most 4 packets total and
weights from {1, 2, 3, 5, 8} (31,791 instances).  Instances with an idle
arrival step decompose into independent shorter members of the same family,
so the canonical enumeration covers the full grid's behaviour.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

import pytest

from oracles import (
    at_most_golden,
    brute_force_opt,
    follows_priority_order,
    oracle_rg_expectation,
    schedule_weight,
)

from pktsched.analysis import (
    GeneratorSpec,
    adversary_search,
    check_facts,
    drop_packet_corruption,
    enumerate_two_bounded,
    generate,
)
from pktsched.engine import run_policy, run_rg_exact, run_rg_mc
from pktsched.model import Instance
from pktsched.offline import oblivious_schedule, opt_schedule

MENU = (Fraction(1), Fraction(2), Fraction(3), Fraction(5), Fraction(8))
SWEEP_STEPS = 4
SWEEP_PER_STEP = 2
SWEEP_MAX_PACKETS = 4
FOUR_THIRDS = Fraction(4, 3)


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if passed else 'FAIL'}: {detail}")


@dataclass
class SweepData:
    count: int = 0
    pairs: set[tuple[Fraction, Fraction]] = field(default_factory=set)
    max_mg_prime_ratio: Fraction = Fraction(0)
    mg_prime_violations: int = 0
    max_rg_ratio: Fraction = Fraction(0)
    rg_violations: int = 0
    fact_failures: list = field(default_factory=list)
    oracle_crosschecks: int = 0


@pytest.fixture(scope="module")
def sweep() -> SweepData:
    data = SweepData()
    for instance in enumerate_two_bounded(
        SWEEP_STEPS, SWEEP_PER_STEP, MENU, max_packets=SWEEP_MAX_PACKETS
    ):
        data.count += 1
        run = run_policy(instance, "mg-prime")
        for record in run.per_step:
            if record.earliest != record.heaviest:
                data.pairs.add((record.earliest.weight, record.heaviest.weight))
        if run.ratio > data.max_mg_prime_ratio:
            data.max_mg_prime_ratio = run.ratio
        if not at_most_golden(run.ratio):
            data.mg_prime_violations += 1
        expected, _ = run_rg_exact(instance)
        rg_ratio = (
            Fraction(1) if run.opt_value == 0 else run.opt_value / expected
        )
        if rg_ratio > data.max_rg_ratio:
            data.max_rg_ratio = rg_ratio
        if rg_ratio > FOUR_THIRDS:
            data.rg_violations += 1
        facts = check_facts(instance)
        if not facts.passed:
            data.fact_failures.append((instance, facts.failures()))
        if data.count % 977 == 0:
            # keep the sweep honest against the enumeration oracle
            assert run.opt_value == brute_force_opt(
                instance.packets, instance.first_release
            )
            data.oracle_crosschecks += 1
    return data


@pytest.fixture(scope="module")
def random_agreeable_suite() -> list[tuple[Instance, Fraction, Fraction]]:
    """10^3 random agreeable instances (<= 10 packets) with their offline
    optimum and exact randomized expectation."""
    suite = []
    seed = 0
    while len(suite) < 1000:
        spec = GeneratorSpec(
            "agreeable-random", steps=5, max_per_step=2, deadline_spread=4, seed=seed
        )
        seed += 1
        instance = generate(spec)
        if not len(instance) or len(instance) > 10:
            continue
        expected, _ = run_rg_exact(instance)
        _, opt_value = opt_schedule(instance.packets, instance.first_release)
        suite.append((instance, opt_value, expected))
    return suite


class TestCriterion1PerStepGainBound:
    def test_per_step_expected_gain_identity_and_bound(self, sweep):
        checked = 0
        ok = True
        rng = random.Random(0xC1)
        grid = [
            (w_e, w_e + Fraction(rng.randint(0, 300), rng.randint(1, 60)))
            for w_e in (
                Fraction(rng.randint(1, 300), rng.randint(1, 60)) for _ in range(10_000)
            )
        ]
        for w_e, w_h in sorted(sweep.pairs) + grid:
            assert 0 < w_e <= w_h
            lottery_gain = (w_e / w_h) * w_e + (1 - w_e / w_h) * w_h
            closed_form = (w_e * w_e - w_e * w_h + w_h * w_h) / w_h
            if lottery_gain != closed_form or lottery_gain < Fraction(3, 4) * w_h:
                ok = False
                break
            checked += 1
        report(
            1,
            ok,
            f"identity and 3/4 bound exact on {checked} pairs "
            f"({len(sweep.pairs)} from runs + 10^4 grid)",
        )
        assert ok


class TestCriterion2DeterministicWithinGolden:
    def test_mg_prime_ratio_within_golden(self, sweep):
        ok = sweep.mg_prime_violations == 0
        report(
            2,
            ok,
            f"r^2 <= r + 1 for all {sweep.count} enumerated instances "
            f"(max ratio {sweep.max_mg_prime_ratio} "
            f"~ {float(sweep.max_mg_prime_ratio):.4f}; "
            f"{sweep.oracle_crosschecks} optimum cross-checks)",
        )
        assert ok


class TestCriterion3RandomizedWithinFourThirds:
    def test_rg_ratio_at_most_four_thirds(self, sweep, random_agreeable_suite):
        random_max = Fraction(0)
        random_violations = 0
        for _, opt_value, expected in random_agreeable_suite:
            ratio = Fraction(1) if opt_value == 0 else opt_value / expected
            random_max = max(random_max, ratio)
            if ratio > FOUR_THIRDS:
                random_violations += 1
        ok = sweep.rg_violations == 0 and random_violations == 0
        report(
            3,
            ok,
            f"OPT/E <= 4/3 on {sweep.count} enumerated + "
            f"{len(random_agreeable_suite)} random instances "
            f"(max {max(sweep.max_rg_ratio, random_max)} "
            f"~ {float(max(sweep.max_rg_ratio, random_max)):.4f})",
        )
        assert ok


class TestCriterion4OfflineOracle:
    def test_matching_equals_brute_force(self):
        rng = random.Random(0xC4)
        mismatches = 0
        for _ in range(1000):
            rows = []
            for i in range(rng.randint(0, 8)):
                release = rng.randint(1, 5)
                rows.append(
                    (
                        f"p{i}",
                        release,
                        release + rng.randint(1, 4),
                        Fraction(rng.randint(1, 12), rng.randint(1, 4)),
                    )
                )
            rows.sort(key=lambda row: row[1])
            instance = Instance.build(rows)
            _, value = opt_schedule(instance.packets, 1)
            if value != brute_force_opt(instance.packets, 1):
                mismatches += 1
        ok = mismatches == 0
        report(4, ok, "optimum == brute force on 1000 random instances (<= 8 packets)")
        assert ok


class TestCriterion5ObliviousOptimality:
    def test_greedy_equals_matching_and_order(self):
        rng = random.Random(0xC5)
        bad = 0
        for _ in range(1000):
            step = rng.randint(1, 4)
            rows = [
                # released by `step`, alive at `step`
                (
                    f"p{i}",
                    rng.randint(1, step),
                    step + rng.randint(1, 4),
                    Fraction(rng.randint(1, 12), rng.randint(1, 4)),
                )
                for i in range(rng.randint(1, 8))
            ]
            rows.sort(key=lambda row: row[1])
            pending = Instance.build(rows).packets
            oblivious = oblivious_schedule(pending, step)
            _, value = opt_schedule(pending, step)
            if (
                schedule_weight(oblivious.schedule) != value
                or value != brute_force_opt(pending, step)
                or not follows_priority_order(oblivious.schedule, step)
            ):
                bad += 1
        ok = bad == 0
        report(
            5,
            ok,
            "greedy weight == optimum == brute force and valid deadline-first order "
            "on 1000 random pending sets",
        )
        assert ok


class TestCriterion6StructuralChecks:
    def test_facts_hold_everywhere(self, sweep, random_agreeable_suite):
        random_failures = []
        for instance, _, _ in random_agreeable_suite:
            result = check_facts(instance)
            if not result.passed:
                random_failures.append(result.failures())
        ok = not sweep.fact_failures and not random_failures
        report(
            6,
            ok,
            f"all structural checks passed on {sweep.count} enumerated + "
            f"{len(random_agreeable_suite)} random instances "
            f"({len(sweep.fact_failures) + len(random_failures)} failures)",
        )
        assert ok

    def test_mutation_hook_detected_every_time(self):
        rng = random.Random(0xC6)
        detected = 0
        trials = 0
        while trials < 100:
            instance = generate(
                GeneratorSpec("agreeable-random", steps=4, max_per_step=2, seed=rng.randrange(10**9))
            )
            if not instance.is_agreeable or not len(instance):
                continue
            records = run_policy(instance, "mg-prime").per_step
            if not records:
                continue
            trials += 1
            record = rng.choice(records)
            corruption = drop_packet_corruption(
                record.step, rng.randrange(len(record.scheduled_ids))
            )
            if not check_facts(instance, corrupt=corruption).passed:
                detected += 1
        ok = detected == trials == 100
        report(6, ok, f"corrupted schedules detected in {detected}/{trials} trials")
        assert ok


class TestCriterion7RegressionValues:
    def test_three_packet_regression(self):
        instance = Instance.build(
            [("a", 1, 2, 1), ("b", 1, 3, 2), ("c", 2, 3, 2)]
        )
        _, opt_value = opt_schedule(instance.packets, 1)
        expected, leaves = run_rg_exact(instance)
        ratio = opt_value / expected
        # confirm through the independent oracles before trusting the values
        oracle_expected, oracle_leaves, mass = oracle_rg_expectation(instance)
        oracle_opt = brute_force_opt(instance.packets, 1)
        ok = (
            opt_value == oracle_opt == 4
            and expected == oracle_expected == Fraction(7, 2)
            and leaves == oracle_leaves == 2
            and mass == 1
            and ratio == Fraction(8, 7)
        )
        report(7, ok, f"OPT={opt_value}, E={expected}, ratio={ratio} (oracle-confirmed)")
        assert ok


class TestCriterion8SearchPower:
    def test_deterministic_search_depth_four(self):
        # beam width 4300 > 65^2 keeps every level-1/2 state, so the result
        # dominates the exhaustive depth-2 maximum; deeper levels are pruned
        # deterministically (full depth-4 exhaustion is ~1.9e7 nodes).
        result = adversary_search("mg-prime", 4, MENU, beam_width=4300)
        from pktsched.analysis import competitive_ratio

        replay = competitive_ratio(result.witness, "mg-prime")
        ok = result.ratio >= Fraction(8, 7) and replay == result.ratio
        report(
            8,
            ok,
            f"mg-prime depth-4 witness ratio {result.ratio} "
            f"~ {float(result.ratio):.4f} >= 8/7 "
            f"({result.nodes} nodes, replay exact)",
        )
        assert ok

    def test_randomized_search_stays_under_four_thirds(self):
        result = adversary_search("rg", 3, MENU)
        from pktsched.analysis import competitive_ratio

        replay = competitive_ratio(result.witness, "rg")
        ok = 1 < result.ratio <= FOUR_THIRDS and replay == result.ratio
        report(
            8,
            ok,
            f"rg depth-3 exhaustive witness ratio {result.ratio} "
            f"~ {float(result.ratio):.4f} in (1, 4/3] "
            f"({result.nodes} nodes, replay exact)",
        )
        assert ok


class TestCriterion9MonteCarlo:
    def test_monte_carlo_consistency(self):
        instance = Instance.build(
            [("a", 1, 2, 1), ("b", 1, 3, 2), ("c", 2, 3, 2)]
        )
        mean, stderr = run_rg_mc(instance, trials=100_000, seed=2718)
        again = run_rg_mc(instance, trials=100_000, seed=2718)
        ok = stderr > 0 and abs(mean - 3.5) <= 4 * stderr and (mean, stderr) == again
        report(
            9,
            ok,
            f"mean {mean:.5f} within 4 stderr ({stderr:.5f}) of 3.5; "
            "rerun bit-identical",
        )
        assert ok
