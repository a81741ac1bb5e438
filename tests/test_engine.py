import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import as_fractions, key_space, mk_instance, random_agreeable
from oracles import (
    brute_force_opt,
    oracle_advance,
    oracle_edf_nondominated_run,
    oracle_greedy_set,
    oracle_greedy_weight_run,
    oracle_mg_prime_run,
    oracle_mg_run,
    oracle_oblivious,
    oracle_rg_expectation,
    oracle_rg_mc,
)

from pktsched import analysis, offline
from pktsched.analysis import (
    GeneratorSpec,
    check_facts,
    competitive_ratio,
    generate,
    golden_chain,
)
from pktsched.engine import (
    ExactCapExceeded,
    _rg_exact,
    advance,
    run_policy,
    run_rg_exact,
    run_rg_mc,
    start,
)
from pktsched.model import Instance
from pktsched.offline import oblivious_schedule, opt_schedule
from pktsched.policies import DETERMINISTIC_POLICIES, POLICIES


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


@st.composite
def small_non_agreeable(draw):
    """2 to 6 packets released at steps 1 to 3, in release order, whose
    deadlines are not agreeable: some packet released later has an earlier
    deadline than one released before it."""
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(1, 3),  # release
                st.integers(1, 4),  # lifespan
                st.integers(1, 9),  # weight numerator
                st.integers(1, 3),  # weight denominator
            ),
            min_size=2,
            max_size=6,
        )
    )
    rows.sort(key=lambda row: row[0])
    inst = Instance.build(
        (f"p{i}", r, r + span, Fraction(num, den)) for i, (r, span, num, den) in enumerate(rows)
    )
    assume(not inst.is_agreeable)
    return inst


def advance_packets(policy, states, step, arrivals, space, memo=None):
    """``advance`` with packet ``arrivals``, stepped as their keys in
    ``space``: a key space and its packet -> key map (``key_space``)."""
    compiled, key = space
    keys = [key[p] for p in arrivals]
    return advance(policy, states, step, keys, compiled.deadlines, compiled.weights, memo)


def step_states(instance, policy, memo=None, space=None):
    """The state map after ``advance`` has stepped through every step, in
    ``Fraction``s over packets; the keys come from ``space``, by default
    the instance's own key space."""
    space = key_space(instance) if space is None else space
    states = start(space[0].scale)
    for step in range(instance.first_release, instance.horizon + 1):
        arrivals = instance.arrivals_by_step.get(step, ())
        states = advance_packets(policy, states, step, arrivals, space, memo)
    return as_fractions(states, space[0].packets)


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

    def test_idle_steps_cost_no_states(self):
        # two pending steps around 1,999 idle ones: only the former count
        inst = mk_instance(("a", 1, 2, 1), ("b", 2001, 2002, 1))
        assert run_rg_exact(inst, cap=1000) == (2, 1)

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


class TestNonAgreeableOptimum:
    """The runs take the offline optimum from the compile they step; on
    non-agreeable instances its greedy probes each candidate with
    ``is_feasible_set``, as ``opt_schedule`` does."""

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(small_non_agreeable())
    def test_every_optimum_matches_brute_force(self, inst):
        best = brute_force_opt(inst.packets, inst.first_release)
        assert opt_schedule(inst.packets, inst.first_release)[1] == best
        for policy in DETERMINISTIC_POLICIES:
            assert run_policy(inst, policy).opt_value == best
        expected, _, opt_value, ratio = _rg_exact(inst, 1 << 20)
        assert opt_value == best
        assert competitive_ratio(inst, "rg") == ratio == best / expected


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

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(small_agreeable(), small_agreeable())
    def test_shared_memo_changes_nothing(self, first, second):
        # One memo per policy serves two instances whose packets share
        # arrival indices, then a rebuilt copy of the first, whose packets
        # are equal to, not identical with, the remembered ones and so map
        # to the same keys.  A memo serves one key space.
        copy = Instance.build((p.id, p.release, p.deadline, p.weight) for p in first)
        space = key_space(first, second)
        for policy in POLICIES:
            memo = {}
            for inst in (first, second):
                assert step_states(inst, policy, memo, space) == step_states(inst, policy)
            remembered = len(memo)
            assert step_states(copy, policy, memo, space) == step_states(first, policy)
            assert len(memo) == remembered  # every decision was found again

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(small_agreeable(), small_agreeable())
    def test_matches_fraction_reference(self, first, second):
        # After every step, alone and with one memo shared by two
        # instances over one key space, the integer map, its keys mapped
        # back to packets, equals the Fraction reference entry for entry:
        # carried sets, probabilities, gains and path counts.
        shared_space = key_space(first, second)
        for policy in POLICIES:
            memo = {}
            for inst in (first, second):
                own_space = key_space(inst)
                reference = {frozenset(): (Fraction(1), Fraction(0), 1)}
                alone = start(own_space[0].scale)
                shared = start(shared_space[0].scale)
                for step in range(inst.first_release, inst.horizon + 1):
                    arrivals = inst.arrivals_by_step.get(step, ())
                    reference = oracle_advance(policy, reference, step, arrivals)
                    alone = advance_packets(policy, alone, step, arrivals, own_space)
                    shared = advance_packets(policy, shared, step, arrivals, shared_space, memo)
                    assert as_fractions(alone, own_space[0].packets) == reference
                    assert as_fractions(shared, shared_space[0].packets) == reference


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

    def test_skips_long_idle_gap(self):
        inst = mk_instance(("a", 1, 2, 1), ("b", 2 + 2**20, 3 + 2**20, 1))
        assert run_rg_mc(inst, trials=50, seed=0) == (2.0, 0.0)
        assert run_policy(inst, "mg-prime").total_gain == 2

    def test_single_trial(self):
        mean, stderr = run_rg_mc(mk_instance(("x", 1, 2, 2)), trials=1, seed=0)
        assert mean == 2.0 and stderr == 0.0

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            run_rg_mc(three_packet_instance(), trials=0, seed=0)

    @pytest.mark.parametrize(
        "seed, mc, mg_prime_gain",
        [
            (1, (282.6666666666667, 0.34069257193462343), Fraction(833, 3)),
            (2, (273.1041666666667, 0.14752421108802058), Fraction(1609, 6)),
            (3, (318.1875, 0.0625), Fraction(1251, 4)),
        ],
    )
    def test_pinned_streams(self, seed, mc, mg_prime_gain):
        # Pinned bit for bit on 60-step instances whose weights have
        # denominators 2, 3 and 4; Monte Carlo sums its gains as integers
        # over their common denominator.
        spec = GeneratorSpec(
            "agreeable-random",
            steps=60,
            max_per_step=4,
            deadline_spread=12,
            weights=(Fraction(1, 2), Fraction(1), Fraction(7, 3), Fraction(11, 4), Fraction(5)),
            seed=seed,
        )
        inst = generate(spec)
        assert run_rg_mc(inst, 8, 1234) == mc
        assert run_policy(inst, "mg-prime").total_gain == mg_prime_gain


class TestRankedSchedules:
    """The single-path runs and ``check_facts`` step over packet ranks,
    their keys, through one walk, ``offline._walk``, whose per-step view is
    ``offline._basis_view``.  Every step of each agrees with the public
    schedule and the oracle."""

    @settings(max_examples=120, derandomize=True, database=None, deadline=None)
    @given(small_agreeable(), st.integers(0, 99))
    def test_every_step_matches_the_public_schedule_and_the_oracle(self, inst, seed):
        view_core = offline._basis_view
        views = []

        def record_view(basis, step, weights):
            sequence, earliest, heaviest = view_core(basis, step, weights)
            pending = frozenset([*basis.keys, *basis.rest])
            views.append((pending, step, (list(sequence), earliest, heaviest)))
            return sequence, earliest, heaviest

        calls = {}
        with mock.patch.object(offline, "_basis_view", record_view):
            for policy in DETERMINISTIC_POLICIES:
                before = len(views)
                steps = len(run_policy(inst, policy).per_step)
                calls[policy] = len(views) - before
                assert calls[policy] == steps
            before = len(views)
            run_rg_mc(inst, 3, seed)
            calls["rg"] = len(views) - before
            before = len(views)
            steps = len(check_facts(inst).steps)
            calls["check_facts"] = len(views) - before
            assert calls["check_facts"] == steps
        # Every caller went through its core, unless there is no step.
        assert all(n > 0 for n in calls.values()) == bool(inst.packets)
        packets = offline._compile(inst).packets
        for pending, step, (sequence, earliest, heaviest) in views:
            pending = frozenset(packets[r] for r in pending)
            public = oblivious_schedule(pending, step)
            expected = oracle_oblivious(pending, step)
            assert tuple(packets[r] for r in sequence) == public.schedule.sequence() == expected[0]
            assert (packets[earliest], packets[heaviest]) == (public.earliest, public.heaviest)
            assert (public.earliest, public.heaviest) == expected[1:3]
            # The ranks left out are the dominated packets.
            dominated = pending - public.schedule.packets
            assert pending.difference(packets[r] for r in sequence) == dominated == expected[3]


ORACLE_RUNS = {
    "mg": oracle_mg_run,
    "mg-prime": oracle_mg_prime_run,
    "greedy-weight": oracle_greedy_weight_run,
    "edf-nondominated": oracle_edf_nondominated_run,
}


class TestPacketOracles:
    """The compiled single-path runs against the Packet-level simulators
    of ``tests/oracles.py``, on fractional weights."""

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(small_agreeable(), st.integers(0, 99))
    def test_runs_match_the_oracles(self, inst, seed):
        for policy, oracle in ORACLE_RUNS.items():
            report = run_policy(inst, policy)
            total, ids = oracle(inst)
            assert report.total_gain == total
            assert [r.transmitted.id for r in report.per_step] == ids
        assert run_rg_mc(inst, 5, seed) == oracle_rg_mc(inst, 5, seed)

    def test_mg_skips_a_member_within_phi_of_the_earliest(self):
        # h/e = 2 is beyond phi.  The middle packet is within phi of the
        # heaviest but also of the earliest (3/2 < phi), so it is no
        # candidate and mg sends the heaviest.
        inst = mk_instance(("e", 1, 2, 1), ("p", 1, 3, Fraction(3, 2)), ("h", 1, 4, 2))
        report = run_policy(inst, "mg")
        assert [r.transmitted.id for r in report.per_step] == ["h", "p"]
        assert (report.total_gain, ["h", "p"]) == oracle_mg_run(inst)

    @pytest.mark.parametrize("draw, gain", [(1 << 63, 2.0), ((1 << 63) - 1, 3.0)])
    def test_draw_at_the_threshold_sends_the_heaviest(self, draw, gain):
        # w_e / w_h = 1/2: a draw of exactly 2^63 is not below the
        # threshold, so the heaviest goes out and the earliest expires; one
        # less sends the earliest first.
        inst = mk_instance(("e", 1, 2, 1), ("h", 1, 3, 2))

        class Fixed:
            def __init__(self, seed):
                pass

            def getrandbits(self, bits):
                return draw

        with mock.patch("random.Random", Fixed):
            assert run_rg_mc(inst, 2, 0) == oracle_rg_mc(inst, 2, 0) == (gain, 0.0)


class TestSharedCompile:
    """The runs and the fact checks of one instance share one compile
    (``offline._solved``), and equal instances share it too."""

    def test_one_compile_across_the_runs_of_an_instance(self):
        inst = golden_chain(5)
        offline._solved.cache_clear()
        with mock.patch.object(offline, "_compile", wraps=offline._compile) as compile_:
            reports = (run_policy(inst, "mg-prime"), run_rg_exact(inst), check_facts(inst))
            assert compile_.call_count == 1
            twin = Instance.build((p.id, p.release, p.deadline, p.weight) for p in inst)
            assert twin == inst and twin is not inst
            assert (run_policy(twin, "mg-prime"), run_rg_exact(twin), check_facts(twin)) == reports
            assert compile_.call_count == 1
        # A fresh compile of the twin gives the same reports.
        offline._solved.cache_clear()
        assert (run_policy(twin, "mg-prime"), run_rg_exact(twin), check_facts(twin)) == reports

    def test_instances_in_a_row_each_get_their_own_compile(self):
        # Many instances of one size in a row: a compile kept for another
        # instance would give its runs another instance's packets.
        offline._solved.cache_clear()
        instances = list(analysis.enumerate_two_bounded(2, 2, (1, 2, 3), max_packets=3))
        with mock.patch.object(offline, "_compile", wraps=offline._compile) as compile_:
            for inst in instances:
                total, ids = oracle_mg_prime_run(inst)
                report = run_policy(inst, "mg-prime")
                assert (report.total_gain, [r.transmitted.id for r in report.per_step]) == (
                    total,
                    ids,
                )
                assert run_rg_exact(inst) == oracle_rg_expectation(inst)[:2]
                assert check_facts(inst).passed
        assert compile_.call_count == len(instances)


class TestSharedSolve:
    """The runs and the fact checks of an agreeable instance share one
    start solve (``offline._solved``): the greedy optimum over every key
    from the first arrival step, which the runs read and ``check_facts``
    copies."""

    # The first arrival is at step 2, and c and d arrive later.
    LATER = (("a", 2, 3, 1), ("b", 2, 4, 2), ("c", 3, 4, 2), ("d", 5, 7, 3))

    def test_one_start_solve_across_the_runs_of_an_instance(self):
        inst = mk_instance(*self.LATER)
        offline._solved.cache_clear()
        with mock.patch.object(offline, "_fifo_solve", wraps=offline._fifo_solve) as solve:
            mc = run_rg_mc(inst, 3, 7)
            assert solve.call_count == 0  # Monte Carlo needs no optimum
            reports = (run_policy(inst, "mg-prime"), run_rg_exact(inst), check_facts(inst))
            assert solve.call_count == 1
            assert solve.call_args.args[1] == 2  # from the first arrival step
        assert reports[2].passed and mc == oracle_rg_mc(inst, 3, 7)
        assert reports[0].opt_value == brute_force_opt(inst.packets, 2) == 7

    def test_the_shared_solve_is_never_changed(self):
        inst = mk_instance(*self.LATER)
        offline._solved.cache_clear()
        facts = check_facts(inst)
        compiled, opt, solved = offline._solved(inst)
        kept = tuple(map(list.copy, solved))
        assert check_facts(inst) == facts
        assert run_policy(inst, "mg-prime").opt_value == opt == 7
        assert offline._solved(inst) == (compiled, opt, kept)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.one_of(small_agreeable(), small_non_agreeable()))
    # Every packet is released at the first arrival step, 2: the start
    # solve takes the FIFO pass, whose order is then the deadline order.
    @example(mk_instance(("a", 2, 3, 1), ("b", 2, 4, 3), ("c", 2, 4, 2), ("d", 2, 4, 1)))
    # Not agreeable: b, released later, has the earlier deadline.
    @example(mk_instance(("a", 1, 5, 1), ("b", 2, 3, 2), ("c", 2, 3, 3)))
    def test_the_shared_optimum_is_the_optimum(self, inst):
        offline._solved.cache_clear()
        compiled, opt, solved = offline._solved(inst)
        assert (solved is None) == (not inst.is_agreeable)
        first = inst.first_release
        assert Fraction(opt, compiled.scale) == brute_force_opt(inst.packets, first)
        rank = {p: k for k, p in enumerate(compiled.packets)}
        fresh = sorted(rank[p] for p in oracle_greedy_set(inst.packets, first))
        assert opt == sum(map(compiled.weights.__getitem__, fresh))
        if solved is not None:
            assert sorted(solved.keys) == fresh  # one greedy basis
