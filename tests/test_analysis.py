import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import mk, mk_instance, random_agreeable
from oracles import (
    at_most_golden,
    brute_force_opt,
    oracle_check_facts,
    oracle_heavier_scheduled_monotone,
    order_key,
)

from pktsched import analysis, engine, model, offline
from pktsched.analysis import (
    FACT_CHECKS,
    GeneratorSpec,
    adversary_search,
    check_facts,
    competitive_ratio,
    drop_packet_corruption,
    enumerate_two_bounded,
    generate,
    golden_chain,
    heavier_scheduled_monotone,
    two_bounded_step_options,
)
from pktsched.engine import run_policy
from pktsched.model import Instance
from pktsched.offline import _compile
from pktsched.policies import POLICIES

MENU12 = (Fraction(1), Fraction(2))
MENU13_OPTIONS = two_bounded_step_options((Fraction(1), Fraction(3)), 2)

# Few weights, two of them fractional, so that weights tie often.
TIE_MENU = (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(7, 3), Fraction(3), Fraction(8))


def three_packet_instance():
    return mk_instance(("a", 1, 2, 1), ("b", 1, 3, 2), ("c", 2, 3, 2))


@st.composite
def tied_agreeable(draw):
    """Up to 4 release steps, one or two apart, with up to 3 arrivals each
    whose weights come from ``TIE_MENU`` and whose deadlines lie close
    together, so weights and deadlines tie often.  Every deadline reaches
    the latest deadline released before it, so the instance is agreeable."""
    rows = []
    floor = 0
    step = 0
    for _ in range(draw(st.integers(1, 4))):
        step += draw(st.integers(1, 2))
        batch_max = 0
        arrivals = st.tuples(st.integers(0, 3), st.sampled_from(TIE_MENU))
        for spread, weight in draw(st.lists(arrivals, max_size=3)):
            deadline = max(floor, step + 1) + spread
            rows.append((f"p{len(rows)}", step, deadline, weight))
            batch_max = max(batch_max, deadline)
        floor = max(floor, batch_max)
    return Instance.build(rows)


def as_rows(steps):
    """Step facts as comparable rows, the results in their order."""
    return [(entry.step, list(entry.results.items()), entry.note) for entry in steps]


def drops(inst):
    """Every ``(step, position)`` of a drop from an oblivious schedule of
    the mg-prime run; one position past the end wraps around to the first."""
    return [
        (record.step, position)
        for record in run_policy(inst, "mg-prime").per_step
        for position in range(len(record.scheduled_ids) + 1)
    ]


# At step 1 the oblivious schedule is e, j, h, and C is h, j and the
# future x: the earliest, e, is skipped, and moving h to the front walks
# j and then x.
FRONT_SWAP_THROUGH_FUTURE = Instance.build(
    [("e", 1, 2, 1), ("j", 1, 3, 2), ("h", 1, 4, 3), ("x", 2, 4, 10)]
)


def front_swap_walks(inst, drop=None):
    """The front-swap walks of ``oracle_check_facts(inst, drop)``: per
    walk, its number of released packets (which lead it), the index of its
    first late packet or None, and its length."""
    walks = []
    first_late = oracles.oracle_first_late

    def spy(packets, start):
        late = first_late(packets, start)
        walks.append((sum(p.release <= start for p in packets), late, len(packets)))
        return late

    with mock.patch.object(oracles, "oracle_first_late", spy):
        oracle_check_facts(inst, drop)
    return walks


class TestCompetitiveRatio:
    def test_randomized_on_three_packets(self):
        assert competitive_ratio(three_packet_instance(), "rg") == Fraction(8, 7)

    def test_single_packet_any_policy(self):
        inst = mk_instance(("x", 1, 2, 4))
        for policy in ("mg", "mg-prime", "rg", "greedy-weight", "edf-nondominated"):
            assert competitive_ratio(inst, policy) == 1

    def test_deterministic_on_three_packets(self):
        assert competitive_ratio(three_packet_instance(), "mg-prime") == 1

    def test_empty_instance(self):
        assert competitive_ratio(Instance(()), "rg") == 1


class TestGenerators:
    def test_families_satisfy_their_property(self):
        for seed in range(25):
            agreeable = generate(GeneratorSpec("agreeable-random", seed=seed))
            assert agreeable.is_agreeable
            bounded = generate(GeneratorSpec("two-bounded", seed=seed))
            assert bounded.is_agreeable
            assert all(p.lifespan in (1, 2) for p in bounded)
            uniform = generate(GeneratorSpec("s-uniform", lifespan=3, seed=seed))
            assert all(p.lifespan == 3 for p in uniform)
            assert uniform.is_agreeable

    def test_one_step_lifespan_forces_immediate_send(self):
        inst = generate(GeneratorSpec("s-uniform", lifespan=1, seed=5))
        assert all(p.deadline == p.release + 1 for p in inst)

    def test_deterministic_in_seed(self):
        a = generate(GeneratorSpec("two-bounded", seed=3))
        b = generate(GeneratorSpec("two-bounded", seed=3))
        assert a == b
        c = generate(GeneratorSpec("two-bounded", seed=4))
        assert a != c  # astronomically unlikely to collide

    def test_rejects_unknown_family_and_bad_params(self):
        with pytest.raises(ValueError):
            generate(GeneratorSpec("bogus"))
        with pytest.raises(ValueError):
            generate(GeneratorSpec("two-bounded", steps=0))
        with pytest.raises(ValueError):
            generate(GeneratorSpec("s-uniform", lifespan=0))
        with pytest.raises(ValueError):
            generate(GeneratorSpec("agreeable-random", weights=()))


class TestGoldenChain:
    def test_structure(self):
        inst = golden_chain(2)
        assert len(inst) == 4
        assert inst.is_agreeable
        assert all(p.lifespan in (1, 2) for p in inst)
        growth = Fraction(987, 610)
        weights = [p.weight for p in inst]
        assert weights == [1, growth, growth, growth**2]

    def test_custom_growth_keeps_shape(self):
        inst = golden_chain(2, growth=Fraction(2))
        assert all(p.lifespan in (1, 2) for p in inst)
        assert inst.is_agreeable

    def test_ratio_measured_by_engine(self):
        inst = golden_chain(2)
        ratio = competitive_ratio(inst, "mg-prime")
        assert 1 <= ratio
        assert at_most_golden(ratio)

    def test_any_length_agreeable(self):
        for k in (2, 3, 6, 10):
            assert golden_chain(k).is_agreeable

    def test_rejects_short_chain(self):
        with pytest.raises(ValueError):
            golden_chain(1)


class TestEnumeration:
    def test_count_matches_independent_formula(self):
        options = two_bounded_step_options((1, 2, 3, 5, 8), 2)
        assert len(options) == 65  # 10 singletons + 55 unordered pairs
        # lengths 0..4, 1..2 arrivals per step, at most 4 packets total
        singles = sum(1 for o in options if len(o) == 1)
        pairs = sum(1 for o in options if len(o) == 2)
        expected = 1  # empty
        expected += singles + pairs  # one step
        expected += (singles + pairs) ** 2  # two steps (max 4 packets)
        expected += singles**3 + 3 * singles**2 * pairs  # three steps
        expected += singles**4  # four steps
        got = sum(1 for _ in enumerate_two_bounded(4, 2, (1, 2, 3, 5, 8), max_packets=4))
        assert got == expected == 31791

    def test_enumerated_instances_are_canonical(self):
        seen = set()
        for inst in enumerate_two_bounded(3, 2, MENU12, max_packets=4):
            key = tuple((p.release, p.deadline, p.weight) for p in inst)
            assert key not in seen
            seen.add(key)
            assert inst.is_agreeable
            assert all(p.lifespan in (1, 2) for p in inst)
            assert len(inst) <= 4
            if len(inst):
                steps = {p.release for p in inst}
                assert steps == set(range(1, max(steps) + 1))

    def test_contains_the_regression_witness(self):
        target = (((1, 2, Fraction(1)), (1, 3, Fraction(2)), (2, 3, Fraction(2))))
        keys = {
            tuple((p.release, p.deadline, p.weight) for p in inst)
            for inst in enumerate_two_bounded(2, 2, (1, 2), max_packets=4)
        }
        assert target in keys


class TestAdversarySearch:
    def test_depth_one_at_least_one(self):
        result = adversary_search("mg-prime", 1, MENU12)
        assert result.ratio >= 1
        assert result.complete

    def test_matches_exhaustive_enumeration(self):
        # the incremental game tree must agree with a from-scratch replay of
        # every enumerated instance through the engine
        for policy in ("mg-prime", "rg", "greedy-weight"):
            best = max(
                (
                    competitive_ratio(inst, policy)
                    for inst in enumerate_two_bounded(2, 2, MENU12)
                    if len(inst)
                ),
            )
            result = adversary_search(policy, 2, MENU12)
            assert result.ratio == best

    def test_depth_two_small_menu_beats_eight_sevenths(self):
        result = adversary_search("mg-prime", 2, MENU12)
        assert result.ratio >= Fraction(8, 7)

    def test_witness_replays_to_reported_ratio(self):
        for policy in ("mg-prime", "rg"):
            result = adversary_search(policy, 2, MENU12)
            assert competitive_ratio(result.witness, policy) == result.ratio

    def test_monotone_in_depth_and_menu(self):
        shallow = adversary_search("mg-prime", 1, MENU12)
        middle = adversary_search("mg-prime", 2, MENU12)
        deep = adversary_search("mg-prime", 3, MENU12)
        assert shallow.ratio <= middle.ratio <= deep.ratio
        small = adversary_search("mg-prime", 2, (Fraction(2),))
        grown = adversary_search("mg-prime", 2, (Fraction(1), Fraction(2)))
        wide = adversary_search("mg-prime", 2, (Fraction(1), Fraction(2), Fraction(3)))
        assert small.ratio <= grown.ratio <= wide.ratio

    def test_wide_beam_matches_exhaustive(self):
        exhaustive = adversary_search("rg", 2, MENU12)
        beam = adversary_search("rg", 2, MENU12, beam_width=10_000)
        assert beam.ratio == exhaustive.ratio
        assert beam.witness == exhaustive.witness

    @pytest.mark.parametrize("policy", ["mg-prime", "rg"])
    def test_narrow_beam_prunes_by_exact_ratio(self, policy):
        # A beam replayed from scratch: every node's instance is scored by
        # competitive_ratio, and each level keeps the best ratios, ties by
        # path, as Fractions.
        # On this menu, rg's best two-step witness (90/73) survives a beam
        # of two only when the first level is ranked by exact ratio.
        menu = (Fraction(1, 2), Fraction(1), Fraction(5, 2))
        options = two_bounded_step_options(menu, 2)
        best, best_path, frontier = None, None, [()]
        for _ in range(2):
            scored = []
            for path in frontier:
                for oi in range(len(options)):
                    child = path + (oi,)
                    rows = [
                        (f"s{step}p{k}", step, step + lifespan, weight)
                        for step, index in enumerate(child, start=1)
                        for k, (lifespan, weight) in enumerate(options[index])
                    ]
                    ratio = competitive_ratio(Instance.build(rows), policy)
                    if best is None or ratio > best:
                        best, best_path = ratio, rows
                    scored.append((ratio, child))
            scored.sort(key=lambda row: (-row[0], row[1]))
            frontier = [path for _, path in scored[:2]]
        result = adversary_search(policy, 2, menu, beam_width=2)
        assert result.ratio == best
        assert result.witness == Instance.build(best_path)

    def test_node_budget_flags_partial_result(self):
        result = adversary_search("mg-prime", 2, MENU12, max_nodes=5)
        assert not result.complete
        assert result.nodes == 5

    def test_parallel_matches_serial(self):
        # jobs starts no workers: jobs=2 is the serial search, on a budget too.
        for max_nodes in (None, 1):
            serial = adversary_search("mg-prime", 2, MENU12, max_nodes=max_nodes, jobs=1)
            assert adversary_search("mg-prime", 2, MENU12, max_nodes=max_nodes, jobs=2) == serial

    def test_node_budget_is_a_total_over_workers(self):
        # One walk for any jobs, so the budget is exactly the nodes explored.
        exhaustive = adversary_search("mg-prime", 2, MENU12)
        for jobs in (1, 2, 3):
            for max_nodes in (1, 2, 5, 7, exhaustive.nodes - 1):
                result = adversary_search("mg-prime", 2, MENU12, max_nodes=max_nodes, jobs=jobs)
                assert (result.nodes, result.complete) == (max_nodes, False)
            # A budget of the tree's size gives the exhaustive result.
            exact = adversary_search("mg-prime", 2, MENU12, max_nodes=exhaustive.nodes, jobs=jobs)
            assert exact == exhaustive

    @pytest.mark.parametrize(
        "policy,ratio,witness",
        [
            ("mg-prime", Fraction(3, 2), [(1, 2, 1), (2, 3, 2), (2, 4, 3), (3, 4, 3), (3, 5, 5)]),
            ("rg", Fraction(100, 83), [(1, 2, 1), (2, 3, 1), (2, 4, 2), (3, 4, 2), (3, 5, 5)]),
        ],
    )
    def test_budgeted_walk_answers(self, policy, ratio, witness):
        # The first 1,000 nodes in pre-order, in one walk.
        result = adversary_search(policy, 3, (1, 2, 3, 5), max_nodes=1000)
        assert (result.ratio, result.nodes, result.complete) == (ratio, 1000, False)
        assert [(p.release, p.deadline, p.weight) for p in result.witness] == witness

    @pytest.mark.parametrize(
        "policy,ratio", [("rg", Fraction(90, 73)), ("mg-prime", Fraction(8, 5))]
    )
    def test_exhaustive_depth_four(self, policy, ratio):
        result = adversary_search(policy, 4, (1, 2, 3, 5), jobs=1)
        assert (result.ratio, result.nodes, result.complete) == (ratio, 3835260, True)
        assert competitive_ratio(result.witness, policy) == ratio

    def test_randomized_never_beats_four_thirds(self):
        result = adversary_search("rg", 2, (Fraction(1), Fraction(2), Fraction(3)))
        assert 1 < result.ratio <= Fraction(4, 3)

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            adversary_search("mg-prime", 0, MENU12)
        with pytest.raises(ValueError):
            adversary_search("mg-prime", 1, ())
        with pytest.raises(ValueError):
            adversary_search("mg-prime", 1, MENU12, max_nodes=0)
        with pytest.raises(ValueError):
            adversary_search("mg-prime", 1, MENU12, beam_width=0)
        with pytest.raises(ValueError, match="branching"):
            adversary_search("mg-prime", 1, MENU12, branching=0)
        for jobs in (0, -3):
            with pytest.raises(ValueError, match="jobs"):
                adversary_search("mg-prime", 1, MENU12, jobs=jobs)


@st.composite
def search_paths(draw):
    """The step options of a menu of up to three fractional weights at a
    branching of 1-3, a depth of 1-4, that branching, and a path of up to
    ``depth`` options."""
    weights = st.fractions(min_value=Fraction(1, 4), max_value=8, max_denominator=4)
    menu = draw(st.lists(weights, min_size=1, max_size=3, unique=True))
    depth, branching = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    options = two_bounded_step_options(menu, branching)
    path = draw(st.lists(st.integers(0, len(options) - 1), min_size=1, max_size=depth))
    return options, depth, branching, path


@st.composite
def small_searches(draw):
    """A menu of up to four fractional weights, a branching of 1-3 and a
    depth of 1-3 whose tree the walk covers quickly."""
    weights = st.fractions(min_value=Fraction(1, 4), max_value=8, max_denominator=4)
    menu = draw(st.lists(weights, min_size=1, max_size=4, unique=True))
    branching = draw(st.integers(1, 3))
    width = len(two_bounded_step_options(menu, branching))
    depth = draw(st.integers(1, max(d for d in (1, 2, 3) if d == 1 or width**d <= 3000)))
    return menu, depth, branching


class TestDagSearch:
    """The exhaustive search over the transposition DAG against the tree
    walk over every first-step option."""

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(small_searches(), st.sampled_from(POLICIES))
    # Nodes that differ only in the offline table's shape.
    @example(([Fraction(2), Fraction(3)], 3, 2), "mg-prime")
    # Nodes that differ only in the probabilities of their carried sets: a
    # 3-step rg witness through such a node, which no small tree holds.
    @example(([Fraction(1), Fraction(2), Fraction(3), Fraction(8)], 3, 2), "rg")
    # Nodes that differ only in a carried weight below the heaviest: at
    # step 2, options (1:1, 2:1) then (2:1, 2:1) carry 1 and 1, and
    # (1:1, 2:3) then (2:1, 2:1) carry 1 and 1 or, when rg sent the 3 at
    # step 1, the lone 1.
    @example(([Fraction(1), Fraction(3)], 3, 2), "rg")
    def test_matches_the_tree_walk(self, drawn, policy):
        menu, depth, branching = drawn
        options = two_bounded_step_options(menu, branching)
        ratio, path, nodes, complete = analysis._explore_roots(
            policy, depth, branching, options, None
        )
        result = adversary_search(policy, depth, menu, branching)
        assert (result.ratio, result.witness, result.nodes, result.complete) == (
            ratio,
            analysis._instance_from_path(options, path),
            nodes,
            complete,
        )
        # From 1, at most every ratio, Dinkelbach's method takes more than
        # one pass on some draws, which the kernel's best ratio spares.
        _, dag = analysis._dag_build(policy, depth, branching, options)
        assert analysis._dag_solve(dag, 1, 1) == (ratio, path)

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(small_searches(), st.sampled_from(POLICIES))
    @example(([Fraction(1, 2), Fraction(1), Fraction(5, 2)], 3, 1), "rg")
    @example(([Fraction(3, 2), Fraction(2), Fraction(7, 3)], 2, 2), "rg")
    @example(([Fraction(1), Fraction(3)], 1, 2), "rg")
    @example(([Fraction(2), Fraction(3)], 1, 3), "mg")
    def test_last_level_rows_match_the_kernel(self, drawn, policy):
        # Each last-level parent's front, scored from the rows, against the
        # Pareto front of its children stepped one by one by kernel.node,
        # from the parent's first path in the build's order.
        menu, depth, branching = drawn
        options = two_bounded_step_options(menu, branching)
        _, (edges, _, fronts) = analysis._dag_build(policy, depth, branching, options)
        kernel = analysis._SearchKernel(policy, options, depth, branching)
        unit = analysis._gain_lcm(kernel) ** depth
        paths = [()]
        for rows in edges:
            reached = {}
            for path, row in zip(paths, rows):
                for oi, (child, _, _) in enumerate(row):
                    reached.setdefault(child, path + (oi,))
            paths = [reached[child] for child in range(len(reached))]
        assert len(paths) == len(fronts)
        for path, front in zip(paths, fronts):
            state, table = kernel.start, kernel.table_start
            for step, oi in enumerate(path, start=1):
                state, table, _ = kernel.node(state, table, step, oi)
            gained = sum(w for _, w, _ in state.carried.values()) * (unit // state.denominator)
            triples = []
            for oi in range(len(options)):
                state2, (sid, offset2), ratio = kernel.node(state, table, depth, oi)
                x = (offset2 + kernel.drained[sid] - table[1]) * unit
                triples.append((x, ratio[1] * (unit // state2.denominator) - gained, oi))
            assert front == pareto_front(triples)

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(small_searches(), st.sampled_from(POLICIES))
    @example(([Fraction(1), Fraction(3)], 3, 2), "rg")
    def test_every_tree_node_scores_along_its_dag_path(self, drawn, policy):
        # Every tree node, stepped by kernel.node, against its path in the
        # DAG: above the last level, the path's summed edges plus its DAG
        # node's end give the node's drained optimum and expected gain, so
        # every path into a DAG node has the representative's future; a
        # leaf's pair past its parent's sums is its option's front member,
        # or a front member beats it.
        menu, depth, branching = drawn
        options = two_bounded_step_options(menu, branching)
        _, (edges, ends, fronts) = analysis._dag_build(policy, depth, branching, options)
        kernel = analysis._SearchKernel(policy, options, depth, branching)
        unit = analysis._gain_lcm(kernel) ** depth
        stack = [(kernel.start, kernel.table_start, 1, 0, 0, 0)]
        while stack:
            state, table, step, node, a_sum, b_sum = stack.pop()
            front = {oi: (x, y) for x, y, oi in fronts[node]} if step == depth else None
            for oi in range(len(options)):
                state2, (sid, offset), ratio = kernel.node(state, table, step, oi)
                opt = (offset + kernel.drained[sid]) * unit - a_sum
                gain = ratio[1] * (unit // state2.denominator) - b_sum
                if front is None:
                    child, da, db = edges[step - 1][node][oi]
                    assert (da, db) == (opt - ends[step][child][0], gain - ends[step][child][1])
                    stack.append((state2, (sid, offset), step + 1, child, a_sum + da, b_sum + db))
                elif oi in front:
                    assert front[oi] == (opt, gain)
                else:
                    assert any(x >= opt and y <= gain for x, y in front.values())

    @pytest.mark.parametrize(
        "policy,menu,depth,branching",
        [
            ("rg", (1, 3), 1, 2),
            ("mg-prime", (1, 2, 3), 2, 2),
            ("rg", (Fraction(1, 2), 1, Fraction(5, 2)), 3, 2),
            ("edf-nondominated", (1, 2, 3, 5), 3, 1),
        ],
    )
    def test_kernel_steps_no_node_of_the_last_level(
        self, monkeypatch, policy, menu, depth, branching
    ):
        # kernel.node runs once per option on each DAG node above the last
        # level's parents, and never on the last level.
        steps = []
        node = analysis._SearchKernel.node

        def counted(kernel, state, table, step, oi):
            steps.append(step)
            return node(kernel, state, table, step, oi)

        monkeypatch.setattr(analysis._SearchKernel, "node", counted)
        options = two_bounded_step_options(menu, branching)
        _, (edges, _, fronts) = analysis._dag_build(policy, depth, branching, options)
        assert len(steps) == len(options) * sum(map(len, edges))
        assert all(step < depth for step in steps)
        assert fronts and (depth > 1) == bool(steps)


def pareto_front(triples):
    """The (x, y, option) triples, in option order, that no other triple
    beats: none with x and y both at least as good (x higher, y lower),
    one of them better or, on equal pairs, an earlier option."""
    return tuple(
        t
        for t in triples
        if not any(
            u[0] >= t[0] and u[1] <= t[1] and (u[0] > t[0] or u[1] < t[1] or u[2] < t[2])
            for u in triples
        )
    )


class TestSearchKeys:
    """The search's key space: key = ((n_w - 1 - weight index) * D +
    deadline) * A + (2 - lifespan) * branching + k, with D = depth + 3,
    A = 2 * branching and k the packet's place in its option."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(search_paths(), st.sampled_from(POLICIES))
    def test_keys_sort_as_the_witness_packets(self, drawn, policy):
        options, depth, branching, path = drawn
        slots = 2 * branching
        packets = analysis._instance_from_path(options, path).packets
        # A packet by its (deadline, slot); at any step, the pending ones
        # have distinct ones.
        arrived = {}
        kernel = analysis._SearchKernel(policy, options, depth, branching)
        state, table = kernel.start, kernel.table_start
        for step, oi in enumerate(path, start=1):
            arrivals = kernel.keys(step, oi)
            released = [p for p in packets if p.release == step]
            assert len(arrivals) == len(released)
            for k, (lifespan, _) in enumerate(options[oi]):
                arrived[step + lifespan, (2 - lifespan) * branching + k] = released[k]
            for carry in state.carried:
                keys = sorted(carry | arrivals)
                pending = [arrived[kernel.deadlines[k], k % slots] for k in keys]
                assert all(p.release <= step < p.deadline for p in pending)
                assert pending == _compile(pending).packets
                assert [kernel.deadlines[k] for k in keys] == [p.deadline for p in pending]
                assert [Fraction(kernel.weights[k], kernel.scale) for k in keys] == [
                    p.weight for p in pending
                ]
            state, table, _ = kernel.node(state, table, step, oi)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(search_paths(), st.sampled_from(POLICIES))
    # rg on 1,3 carries both long-lived 1s into step 3 when it sends the
    # carried 3 at step 2, and one more 1 arrives there.
    @example((MENU13_OPTIONS, 3, 2, [7, 11, 2]), "rg")
    def test_only_the_heaviest_carried_key_counts(self, drawn, policy):
        # The lemma behind the heaviest-carried keys: a step's decision on a
        # carried set plus the arrivals is the one on its heaviest key plus
        # the arrivals, outcome by outcome.
        options, depth, branching, path = drawn
        kernel = analysis._SearchKernel(policy, options, depth, branching)
        deadlines, weights = kernel.deadlines, kernel.weights
        state, table = kernel.start, kernel.table_start
        for step, oi in enumerate(path, start=1):
            arrivals = kernel.keys(step, oi)
            for carry in filter(None, state.carried):
                den, outcomes = engine._transition(
                    policy, carry | arrivals, step, deadlines, weights, None
                )
                top_den, top_outcomes = engine._transition(
                    policy, arrivals | {min(carry)}, step, deadlines, weights, None
                )
                assert den == top_den
                assert len(outcomes) == len(top_outcomes)
                for (c, prob, sent), (top_c, top_prob, top_sent) in zip(outcomes, top_outcomes):
                    assert (prob, sent) == (top_prob, top_sent)
                    assert min(c, default=None) == min(top_c, default=None)
            state, table, _ = kernel.node(state, table, step, oi)

    @pytest.mark.parametrize("weights,depth,branching", [(1, 1, 1), (2, 3, 2), (4, 5, 3)])
    def test_deadline_list_holds_every_keys_deadline(self, weights, depth, branching):
        menu = [Fraction(w) for w in range(1, weights + 1)]
        options = two_bounded_step_options(menu, branching)
        kernel = analysis._SearchKernel("rg", options, depth, branching)
        span, slots = depth + 3, 2 * branching
        assert len(kernel.deadlines) == weights * span * slots
        assert kernel.deadlines == [key // slots % span for key in range(weights * span * slots)]


def walk_drained_optima(kernel, options, path):
    """The kernel's drained offline optimum, times the scale, at every node
    along ``path``."""
    state, (shape, offset) = kernel.start, kernel.table_start
    optima = []
    for step, oi in enumerate(path, start=1):
        state, (shape, offset), _ = kernel.node(state, (shape, offset), step, oi)
        optima.append(kernel.drained[shape] + offset)
    return optima


class TestOfflineTableMemo:
    """The offline table as an interned shape plus an offset, stepped
    through the (shape, move) memo, against the brute-force optimum."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(search_paths(), st.data())
    def test_drained_optimum_matches_brute_force(self, drawn, data):
        options, depth, branching, path = drawn
        other = data.draw(st.lists(st.integers(0, len(options) - 1), min_size=1, max_size=depth))
        expected = []
        for step in range(1, len(path) + 1):
            instance = analysis._instance_from_path(options, path[:step])
            expected.append(brute_force_opt(instance.packets, instance.first_release))
        cold = analysis._SearchKernel("mg-prime", options, depth, branching)
        warm = analysis._SearchKernel("mg-prime", options, depth, branching)
        # Walking another path from the same first option leaves table
        # steps that ``path`` hits.
        walk_drained_optima(warm, options, (path[:1] + other)[:depth])
        for kernel in (cold, warm):
            optima = walk_drained_optima(kernel, options, path)
            assert [Fraction(opt, kernel.scale) for opt in optima] == expected


class TestCheckFacts:
    @settings(max_examples=500, derandomize=True, database=None, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(2, 5), st.integers(1, 4), st.booleans()), max_size=7
        )
    )
    def test_monotone_check_matches_pairwise_oracle(self, rows):
        scheduled = [mk(f"p{i}", 1, d, w, i) for i, (d, w, _) in enumerate(rows)]
        chosen = frozenset(p for p, (_, _, keep) in zip(scheduled, rows) if keep)
        sequence = sorted(scheduled, key=order_key)
        assert heavier_scheduled_monotone(
            sequence, chosen, lambda p: p.weight
        ) == oracle_heavier_scheduled_monotone(scheduled, chosen)

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(tied_agreeable())
    # The future p2 goes out at step 2, ahead of the released p1 of equal
    # deadline.
    @example(Instance.build([("p0", 1, 2, 1), ("p1", 1, 4, 1), ("p2", 2, 4, 8)]))
    # The first slot's rank, p0, shares its weight and deadline with p1,
    # which C's FIFO lists hold first: the substitute rule picks p0.
    @example(Instance.build([("p0", 1, 3, 1), ("p1", 1, 3, 1), ("p2", 2, 4, 2)]))
    @example(FRONT_SWAP_THROUGH_FUTURE)
    def test_matches_the_packet_oracle_with_and_without_a_corruption(self, inst):
        report = check_facts(inst)
        assert as_rows(report.steps) == as_rows(oracle_check_facts(inst))
        assert all(list(entry.results) == list(FACT_CHECKS) for entry in report.steps)
        for step, position in drops(inst):
            corrupt = drop_packet_corruption(step, position)
            assert as_rows(check_facts(inst, corrupt).steps) == as_rows(
                oracle_check_facts(inst, (step, position))
            )

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(tied_agreeable())
    @example(FRONT_SWAP_THROUGH_FUTURE)
    def test_the_front_swap_walk_never_fails_among_future_ranks(self, inst):
        # So check_facts walks only C's released members.
        for drop in [None, *drops(inst)]:
            for released, late, _ in front_swap_walks(inst, drop):
                assert late is None or late < released

    def test_the_front_swap_walk_reaches_future_ranks(self):
        walks = front_swap_walks(FRONT_SWAP_THROUGH_FUTURE)
        assert any(late is None and released < total for released, late, total in walks)

    def test_builds_no_deadline_first_layout(self, monkeypatch):
        calls = []
        edf_slots = model._edf_slots

        def counted(*args):
            calls.append(args)
            return edf_slots(*args)

        monkeypatch.setattr(model, "_edf_slots", counted)
        monkeypatch.setattr(offline, "_edf_slots", counted)
        spec = GeneratorSpec("agreeable-random", steps=40, max_per_step=4, deadline_spread=12)
        inst = Instance(generate(spec).packets[:40])
        report = check_facts(inst)
        assert report.passed and len(report.steps) > 20
        assert calls == []
        offline.opt_schedule(inst.packets, inst.first_release)  # the counter counts
        assert len(calls) == 1

    def test_passes_on_random_agreeable_instances(self):
        rng = random.Random(2024)
        nonempty = 0
        for _ in range(60):
            inst = random_agreeable(rng)
            report = check_facts(inst)
            assert report.passed, report.failures()
            nonempty += bool(report.steps)
        assert nonempty > 40

    def test_passes_on_golden_chain(self):
        assert check_facts(golden_chain(5)).passed

    def test_passes_where_front_swap_is_nontrivial(self):
        inst = mk_instance(
            ("e", 1, 2, 1), ("j", 1, 3, 2), ("h", 1, 4, 3), ("x", 2, 4, 10)
        )
        report = check_facts(inst)
        assert report.passed, report.failures()

    def test_singleton_vacuous(self):
        report = check_facts(mk_instance(("x", 1, 2, 1)))
        assert report.passed
        assert len(report.steps) == 1

    def test_empty_instance(self):
        report = check_facts(Instance(()))
        assert report.passed
        assert report.steps == []

    def test_rejects_non_agreeable(self):
        inst = mk_instance(("a", 1, 4, 1), ("b", 2, 3, 1))
        with pytest.raises(ValueError, match="agreeable"):
            check_facts(inst)

    def test_an_expired_substitute_fails_the_conforming_order_without_a_note(self):
        # Ranks: s1p0 is 0 and s2p0 is 1.  At step 2 the hook appends the
        # expired rank 0, an equal-weight oblivious member ranked before
        # s2p0, so the layout puts it in the first slot, past its deadline.
        inst = mk_instance(("s1p0", 1, 2, 1), ("s2p0", 2, 3, 1))
        report = check_facts(inst, lambda step, seq: seq + (0,) if step == 2 else None)
        entry = report.steps[1]
        assert (entry.step, entry.note) == (2, None)
        assert entry.results == {
            "oblivious_optimal": False,
            "conforming_built": False,
            "pending_within_oblivious": True,
            "first_packet_outweighs_earlier": True,
            "heavier_scheduled_monotone": True,
            "front_swap_feasible": False,
        }

    def test_corrupted_schedule_detected(self):
        inst = three_packet_instance()
        clean = run_policy(inst, "mg-prime")
        for record in clean.per_step:
            for position in range(len(record.scheduled_ids)):
                report = check_facts(
                    inst, corrupt=drop_packet_corruption(record.step, position)
                )
                assert not report.passed

    def test_corruption_always_breaks_optimality_check(self):
        rng = random.Random(31337)
        detected = 0
        trials = 0
        while trials < 40:
            inst = random_agreeable(rng)
            steps = run_policy(inst, "mg-prime").per_step
            if not steps:
                continue
            trials += 1
            record = rng.choice(steps)
            position = rng.randrange(len(record.scheduled_ids))
            report = check_facts(
                inst, corrupt=drop_packet_corruption(record.step, position)
            )
            if not report.passed:
                detected += 1
            entry = next(e for e in report.steps if e.step == record.step)
            assert not entry.results["oblivious_optimal"]
        assert detected == trials
