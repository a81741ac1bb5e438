"""Competitive-ratio evaluation, instance generators, adversarial search,
and executable checks of the structural properties behind the policies.

The adversarial search explores two-bounded agreeable injections (every
packet lives one or two steps).  That restriction keeps the game tree
tractable and loses little: the known worst-case families for this problem
are two-bounded.  Because a two-bounded packet never survives two steps,
both the policy's pending set and the offline optimum carry at most the
current step's long-lived arrivals, which lets the search step the
engine's state map (``engine.advance``) and an offline-optimum table
incrementally instead of re-simulating every prefix.
"""

from __future__ import annotations

import itertools
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from .engine import (
    DEFAULT_EXACT_CAP,
    START,
    advance,
    carry_after,
    run_policy,
    run_rg_exact,
)
from .model import (
    EMPTY_SCHEDULE,
    Instance,
    InvariantError,
    Packet,
    Schedule,
    as_weight,
    edf_schedule,
    follows_priority_order,
    precedes,
)
from .offline import (
    ObliviousSchedule,
    conforming_clairvoyant,
    oblivious_schedule,
    opt_schedule,
    select_earliest_heaviest,
)
from .policies import decide

FAMILIES = ("agreeable-random", "two-bounded", "s-uniform", "golden-chain")

ZERO = Fraction(0)


def competitive_ratio(
    instance: Instance, policy: str, cap: int = DEFAULT_EXACT_CAP
) -> Fraction:
    """Offline optimum divided by the policy's (expected) gain; 1 when the
    optimum is zero."""
    if policy == "rg":
        expected, _ = run_rg_exact(instance, cap)
        _, opt_value = opt_schedule(instance.packets, instance.first_release)
        if opt_value == 0:
            return Fraction(1)
        return opt_value / expected
    return run_policy(instance, policy).ratio


# ---------------------------------------------------------------------------
# Instance generators


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters of one instance family draw."""

    family: str
    steps: int = 4
    max_per_step: int = 2
    weights: tuple[Fraction, ...] = (
        Fraction(1),
        Fraction(2),
        Fraction(3),
        Fraction(5),
        Fraction(8),
    )
    lifespan: int = 2
    chain_length: int = 4
    growth: Fraction = Fraction(987, 610)
    deadline_spread: int = 3
    seed: int = 0


def generate(spec: GeneratorSpec) -> Instance:
    """Draw one instance; deterministic in the seed.  The family's defining
    property is checked on the result."""
    if spec.family not in FAMILIES:
        raise ValueError(f"unknown family {spec.family!r}; choose one of {FAMILIES}")
    if spec.family != "golden-chain":
        if spec.steps < 1 or spec.max_per_step < 1:
            raise ValueError("steps and max_per_step must be positive")
        if not spec.weights or any(Fraction(w) <= 0 for w in spec.weights):
            raise ValueError("weight menu must be nonempty and positive")
    rng = random.Random(spec.seed)
    if spec.family == "golden-chain":
        instance = golden_chain(spec.chain_length, spec.growth)
    elif spec.family == "agreeable-random":
        instance = _generate_agreeable(spec, rng)
    elif spec.family == "two-bounded":
        instance = _generate_lifespan_menu(spec, rng, (1, 2))
    else:  # s-uniform
        if spec.lifespan < 1:
            raise ValueError("lifespan must be >= 1")
        instance = _generate_lifespan_menu(spec, rng, (spec.lifespan,))
    _verify_family(instance, spec)
    return instance


def _generate_agreeable(spec: GeneratorSpec, rng: random.Random) -> Instance:
    if spec.deadline_spread < 1:
        raise ValueError("deadline_spread must be >= 1")
    specs = []
    floor = 0
    counter = 0
    for step in range(1, spec.steps + 1):
        batch_max = 0
        for _ in range(rng.randint(0, spec.max_per_step)):
            deadline = max(floor, step + 1) + rng.randrange(spec.deadline_spread)
            weight = rng.choice(spec.weights)
            specs.append((f"p{counter}", step, deadline, weight))
            counter += 1
            batch_max = max(batch_max, deadline)
        floor = max(floor, batch_max)
    return Instance.build(specs)


def _generate_lifespan_menu(
    spec: GeneratorSpec, rng: random.Random, lifespans: tuple[int, ...]
) -> Instance:
    specs = []
    counter = 0
    for step in range(1, spec.steps + 1):
        for _ in range(rng.randint(0, spec.max_per_step)):
            lifespan = rng.choice(lifespans)
            weight = rng.choice(spec.weights)
            specs.append((f"p{counter}", step, step + lifespan, weight))
            counter += 1
    return Instance.build(specs)


def _verify_family(instance: Instance, spec: GeneratorSpec) -> None:
    if not instance.is_agreeable:
        raise InvariantError(f"{spec.family} generator produced a non-agreeable instance")
    if spec.family == "two-bounded" or spec.family == "golden-chain":
        if any(p.lifespan not in (1, 2) for p in instance):
            raise InvariantError(f"{spec.family} generator produced a lifespan outside {{1, 2}}")
    if spec.family == "s-uniform":
        if any(p.lifespan != spec.lifespan for p in instance):
            raise InvariantError("s-uniform generator produced a wrong lifespan")


def golden_chain(length: int, growth: Fraction = Fraction(987, 610)) -> Instance:
    """Two-bounded chain of geometrically growing weights.

    Step t releases a tight packet (one-step lifespan, weight growth**(t-1))
    and a flexible packet (two-step lifespan, weight growth**t).  The default
    growth factor is a close rational approximant of the golden ratio, which
    makes the chain a natural stress case for the golden-threshold policies.
    """
    if length < 2:
        raise ValueError("chain length must be >= 2")
    growth = as_weight(growth)
    specs = []
    for step in range(1, length + 1):
        specs.append((f"t{step}", step, step + 1, growth ** (step - 1)))
        specs.append((f"f{step}", step, step + 2, growth**step))
    return Instance.build(specs)


# ---------------------------------------------------------------------------
# Exhaustive two-bounded enumeration


def two_bounded_step_options(
    weights: Iterable[Fraction], max_per_step: int
) -> tuple[tuple[tuple[int, Fraction], ...], ...]:
    """All nonempty per-step arrival multisets of at most ``max_per_step``
    packets, each packet a (lifespan, weight) pair with lifespan in {1, 2}."""
    menu = tuple(sorted({as_weight(w) for w in weights}))
    if not menu:
        raise ValueError("weight menu must be nonempty")
    if max_per_step < 1:
        raise ValueError("max_per_step must be >= 1")
    kinds = [(lifespan, w) for lifespan in (1, 2) for w in menu]
    options: list[tuple[tuple[int, Fraction], ...]] = []
    for size in range(1, max_per_step + 1):
        options.extend(itertools.combinations_with_replacement(kinds, size))
    return tuple(options)


def enumerate_two_bounded(
    max_steps: int,
    max_per_step: int,
    weights: Iterable[Fraction],
    max_packets: int | None = None,
) -> Iterator[Instance]:
    """Every canonical two-bounded instance up to the given sizes.

    Canonical means: arrivals start at step 1 and no arrival step is empty.
    An instance with an idle arrival step splits into two independent
    shorter instances (no two-bounded packet survives across the gap), so
    skipping those loses nothing; each part is enumerated on its own.
    Reordering same-step packets with distinct (deadline, weight) never
    changes behaviour, so per-step arrivals are canonical multisets.
    """
    options = two_bounded_step_options(weights, max_per_step)
    yield Instance(())

    def extend(specs: list, step: int, count: int) -> Iterator[Instance]:
        for option in options:
            if max_packets is not None and count + len(option) > max_packets:
                continue
            batch = [
                (f"s{step}p{k}", step, step + lifespan, weight)
                for k, (lifespan, weight) in enumerate(option)
            ]
            extended = specs + batch
            yield Instance.build(extended)
            if step < max_steps:
                yield from extend(extended, step + 1, count + len(option))

    if max_steps >= 1:
        yield from extend([], 1, 0)


# ---------------------------------------------------------------------------
# Adversarial search


@dataclass(frozen=True)
class SearchResult:
    """Best witness found by the adversarial search."""

    witness: Instance
    policy: str
    ratio: Fraction
    nodes: int
    complete: bool


def adversary_search(
    policy: str,
    depth: int,
    menu: Iterable[Fraction],
    branching: int = 2,
    beam_width: int | None = None,
    max_nodes: int | None = None,
    jobs: int = 1,
) -> SearchResult:
    """Search two-bounded agreeable injections for the worst ratio.

    Exhaustive by default; with ``beam_width`` set, a level-synchronous beam
    keeps only the best states per step (deterministic: states are ranked by
    ratio, ties by witness).  Every explored node is evaluated as a complete
    instance (remaining packets drain), so results are monotone in depth.
    Every policy is scored by the exact expected gain of its state map,
    which a deterministic policy keeps as a single state.  ``jobs``
    parallelizes the exhaustive mode over first-step injections; the merge
    order makes the result independent of scheduling.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if max_nodes is not None and max_nodes < 1:
        raise ValueError("max_nodes must be >= 1")
    menu = tuple(sorted({as_weight(w) for w in menu}))
    options = two_bounded_step_options(menu, branching)
    if beam_width is not None:
        if beam_width < 1:
            raise ValueError("beam_width must be >= 1")
        best_ratio, best_path, nodes, complete = _beam_search(
            policy, depth, options, beam_width, max_nodes
        )
    elif jobs > 1:
        chunks = [tuple(range(len(options))[i::jobs]) for i in range(jobs)]
        chunks = [c for c in chunks if c]
        args = [(policy, depth, menu, branching, chunk, max_nodes) for chunk in chunks]
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            partials = list(pool.map(_search_subtree, args))
        best_ratio, best_path = None, None
        nodes = sum(p[2] for p in partials)
        complete = all(p[3] for p in partials)
        for ratio, path, _, _ in partials:
            if ratio is None:
                continue
            if (
                best_ratio is None
                or ratio > best_ratio
                or (ratio == best_ratio and path < best_path)
            ):
                best_ratio, best_path = ratio, path
    else:
        best_ratio, best_path, nodes, complete = _explore_roots(
            policy, depth, options, tuple(range(len(options))), max_nodes
        )
    if best_path is None:
        raise RuntimeError("search explored no nodes; raise max_nodes")
    witness = _instance_from_path(options, best_path)
    return SearchResult(witness, policy, best_ratio, nodes, complete)


def _search_subtree(args) -> tuple[Fraction | None, tuple | None, int, bool]:
    policy, depth, menu, branching, roots, max_nodes = args
    options = two_bounded_step_options(menu, branching)
    return _explore_roots(policy, depth, options, roots, max_nodes)


def _explore_roots(policy, depth, options, roots, max_nodes):
    best_ratio: Fraction | None = None
    best_path: tuple | None = None
    nodes = 0
    complete = True

    def explore(step, state, dp, base, path, allowed):
        nonlocal best_ratio, best_path, nodes, complete
        indices = allowed if allowed is not None else range(len(options))
        for oi in indices:
            if max_nodes is not None and nodes >= max_nodes:
                complete = False
                return
            nodes += 1
            option = options[oi]
            packets = _materialize_option(option, step, base)
            state2 = advance(policy, state, step, packets)
            dp2 = _advance_opt_state(dp, step, packets)
            ratio = _node_ratio(state2, dp2)
            child = path + (oi,)
            if best_ratio is None or ratio > best_ratio:
                best_ratio, best_path = ratio, child
            if step < depth:
                explore(step + 1, state2, dp2, base + len(option), child, None)

    explore(1, START, {frozenset(): ZERO}, 0, (), tuple(roots))
    return best_ratio, best_path, nodes, complete


def _beam_search(policy, depth, options, beam_width, max_nodes):
    best_ratio: Fraction | None = None
    best_path: tuple | None = None
    nodes = 0
    complete = True
    frontier = [(START, {frozenset(): ZERO}, 0, ())]
    for step in range(1, depth + 1):
        scored = []
        for state, dp, base, path in frontier:
            for oi, option in enumerate(options):
                if max_nodes is not None and nodes >= max_nodes:
                    complete = False
                    break
                nodes += 1
                packets = _materialize_option(option, step, base)
                state2 = advance(policy, state, step, packets)
                dp2 = _advance_opt_state(dp, step, packets)
                ratio = _node_ratio(state2, dp2)
                child = path + (oi,)
                if best_ratio is None or ratio > best_ratio:
                    best_ratio, best_path = ratio, child
                scored.append((ratio, child, state2, dp2, base + len(option)))
            if not complete:
                break
        if not complete or not scored:
            break
        scored.sort(key=lambda row: (-row[0], row[1]))
        frontier = [(s, d, b, p) for _, p, s, d, b in scored[:beam_width]]
    return best_ratio, best_path, nodes, complete


def _materialize_option(option, step, base):
    return tuple(
        Packet(f"s{step}p{k}", step, step + lifespan, weight, base + k)
        for k, (lifespan, weight) in enumerate(option)
    )


def _instance_from_path(options, path) -> Instance:
    specs = []
    for step, oi in enumerate(path, start=1):
        for k, (lifespan, weight) in enumerate(options[oi]):
            specs.append((f"s{step}p{k}", step, step + lifespan, weight))
    return Instance.build(specs)


def _advance_opt_state(dp, step, packets):
    long_lived = frozenset(p for p in packets if p.deadline > step + 1)
    out: dict[frozenset, Fraction] = {}

    def put(key, value):
        if key not in out or value > out[key]:
            out[key] = value

    for carry, value in dp.items():
        put(long_lived, value)  # offline may idle
        for packet in carry | frozenset(packets):
            put(long_lived - {packet}, value + packet.weight)
    return out


def _drain_gain(carry):
    # Every carried packet has deadline step + 2, so at step + 1 the
    # oblivious schedule is the heaviest one alone and every policy, like
    # the optimum, transmits it.
    return max((p.weight for p in carry), default=ZERO)


def _node_ratio(states, dp):
    opt_value = max(value + _drain_gain(carry) for carry, value in dp.items())
    algorithm = sum(
        (weighted + prob * _drain_gain(carry) for carry, (prob, weighted, _) in states.items()),
        ZERO,
    )
    if opt_value == 0:
        return Fraction(1)
    if algorithm == 0:
        raise InvariantError("policy gained nothing on a nonempty injection")
    return opt_value / algorithm


# ---------------------------------------------------------------------------
# Structural fact checks

FACT_CHECKS = (
    "oblivious_optimal",
    "conforming_built",
    "pending_within_oblivious",
    "first_packet_outweighs_earlier",
    "heavier_scheduled_monotone",
    "front_swap_feasible",
)

Corruption = Callable[[int, ObliviousSchedule], ObliviousSchedule | None]


@dataclass
class StepFacts:
    step: int
    results: dict[str, bool]
    note: str | None = None

    @property
    def passed(self) -> bool:
        return all(self.results.values())


@dataclass
class FactsReport:
    steps: list[StepFacts] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(entry.passed for entry in self.steps)

    def failures(self) -> list[tuple[int, str]]:
        return [
            (entry.step, name)
            for entry in self.steps
            for name, ok in entry.results.items()
            if not ok
        ]


def check_facts(instance: Instance, corrupt: Corruption | None = None) -> FactsReport:
    """Verify the structural properties of the canonical schedules at every
    step of a deterministic (mg-prime) run.

    Checked per step with nonempty buffer: the oblivious schedule reaches
    the ``opt_schedule`` optimum of the pending set; a conforming clairvoyant
    schedule can be built and follows the deadline-first order; its
    already-pending packets lie inside the oblivious schedule; every
    oblivious packet order-before its first packet weighs strictly less;
    for oblivious packets i order-before j with w_i < w_j, scheduling i
    implies scheduling j; and when the earliest packet is skipped, the
    heaviest can be moved to the front without breaking feasibility.

    ``corrupt`` may replace the oblivious schedule handed to the checks at
    chosen steps (mutation-testing hook); the run itself is driven by the
    true schedules.  Failures are findings, not exceptions.
    """
    if not instance.is_agreeable:
        raise ValueError("fact checks require an agreeable instance")
    arrivals = instance.arrivals_by_step
    report = FactsReport()
    carry: frozenset[Packet] = frozenset()
    for step in range(instance.first_release, instance.horizon + 1):
        pending = carry | frozenset(arrivals.get(step, ()))
        if not pending:
            continue
        truth = oblivious_schedule(pending, step)
        checked = truth
        if corrupt is not None:
            replacement = corrupt(step, truth)
            if replacement is not None:
                checked = replacement
        future = [p for p in instance.packets if p.release > step]
        report.steps.append(_check_step(pending, future, step, checked))
        choice = decide("mg-prime", truth).deterministic
        carry = carry_after(pending, choice, step)
    return report


def _check_step(pending, future, step, oblivious: ObliviousSchedule) -> StepFacts:
    results = {name: False for name in FACT_CHECKS}
    note = None
    _, pending_opt = opt_schedule(pending, step)
    results["oblivious_optimal"] = oblivious.schedule.weight == pending_opt
    try:
        conforming = conforming_clairvoyant(pending, future, step, oblivious)
    except (InvariantError, ValueError) as err:
        return StepFacts(step, results, note=str(err))
    results["conforming_built"] = follows_priority_order(conforming, step)
    scheduled = oblivious.schedule.packets
    results["pending_within_oblivious"] = all(
        p in scheduled for p in conforming.packets if p.release <= step
    )
    first = conforming.at(step)
    results["first_packet_outweighs_earlier"] = first is not None and all(
        p.weight < first.weight
        for p in scheduled
        if p != first and precedes(p, first)
    )
    results["heavier_scheduled_monotone"] = all(
        later in conforming.packets
        for earlier in scheduled
        for later in scheduled
        if earlier.weight < later.weight
        and precedes(earlier, later)
        and earlier in conforming.packets
    )
    results["front_swap_feasible"] = _front_swap_feasible(
        conforming, step, oblivious
    )
    return StepFacts(step, results, note)


def _front_swap_feasible(
    conforming: Schedule, step: int, oblivious: ObliviousSchedule
) -> bool:
    """When the oblivious schedule's first packet is skipped, the heaviest
    one must be movable to the front of the conforming schedule."""
    earliest, heaviest = oblivious.earliest, oblivious.heaviest
    if earliest is None or heaviest is None:
        return False
    if earliest in conforming.packets:
        return True  # nothing to reorder
    if heaviest not in conforming.packets:
        return False
    sequence = conforming.sequence()
    already_pending = [p for p in sequence if p.release <= step]
    not_yet = [p for p in sequence if p.release > step]
    reordered = [heaviest]
    reordered += [p for p in already_pending if p != heaviest]
    reordered += not_yet
    current = step
    for packet in reordered:
        slot = max(current, packet.release)
        if slot >= packet.deadline:
            return False
        current = slot + 1
    return True


def drop_packet_corruption(target_step: int, drop_position: int) -> Corruption:
    """Mutation hook: remove one packet from the oblivious schedule of the
    chosen step (position taken modulo the schedule length)."""

    def corrupt(step: int, oblivious: ObliviousSchedule) -> ObliviousSchedule | None:
        if step != target_step:
            return None
        sequence = oblivious.schedule.sequence()
        victim = sequence[drop_position % len(sequence)]
        kept = [p for p in sequence if p != victim]
        if kept:
            schedule = edf_schedule(kept, step)
            earliest, heaviest = select_earliest_heaviest(schedule)
        else:
            schedule, earliest, heaviest = EMPTY_SCHEDULE, None, None
        return ObliviousSchedule(
            schedule, step, earliest, heaviest, oblivious.dominated | {victim}
        )

    return corrupt
