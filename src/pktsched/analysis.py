"""Competitive-ratio evaluation, instance generators, adversarial search,
and executable checks of the structural properties behind the policies.

The adversarial search explores two-bounded agreeable injections (every
packet lives one or two steps).  That restriction keeps the game tree
tractable and loses little: the known worst-case families for this problem
are two-bounded.  Because a two-bounded packet never survives two steps,
both the policy's pending set and the offline optimum carry at most the
current step's long-lived arrivals, and only the heaviest of them counts.
So the search steps the engine's state map (``engine.advance``), keyed by
that weight, and an offline-optimum table incrementally instead of
re-simulating every prefix, each in closed form per step; no ``Packet``
is built per node.  The table is an interned shape plus an offset,
stepped through a memo, so most nodes cost one lookup for it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from operator import itemgetter
from math import gcd, lcm
from typing import Callable, Container, Iterable, Iterator, Sequence, TypeVar

from .engine import DEFAULT_EXACT_CAP, States, _rg_exact, advance, run_policy
from .model import Instance, InvariantError, as_weight
from .offline import _Conforming, _conforming_front, _conforming_send, _solved, _walk
from .policies import _choose, _rg_lottery

_T = TypeVar("_T")

FAMILIES = ("agreeable-random", "two-bounded", "s-uniform", "golden-chain")


def competitive_ratio(
    instance: Instance, policy: str, cap: int = DEFAULT_EXACT_CAP
) -> Fraction:
    """Offline optimum divided by the policy's (expected) gain; 1 when the
    optimum is zero."""
    if policy == "rg":
        return _rg_exact(instance, cap)[3]
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
        if not spec.weights:
            raise ValueError("weight menu must be nonempty")
        for weight in spec.weights:
            as_weight(weight)
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
            extended = specs + _step_specs(step, option)
            yield Instance.build(extended)
            if step < max_steps:
                yield from extend(extended, step + 1, count + len(option))

    if max_steps >= 1:
        yield from extend([], 1, 0)


def _step_specs(step: int, option) -> list[tuple]:
    """The ``Instance.build`` rows of ``option``'s packets arriving at ``step``."""
    return [
        (f"s{step}p{k}", step, step + lifespan, weight)
        for k, (lifespan, weight) in enumerate(option)
    ]


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
    which a deterministic policy keeps as a single state.  The witness is
    the first best node in pre-order, children in option order.

    An exhaustive search (no beam, and no ``max_nodes`` below the tree's
    size) builds the tree's transposition DAG (``_dag_build``), solves it
    from the best ratio met while building it (``_dag_solve``) and reports
    the tree's node count.  A budgeted search walks the tree in pre-order
    up to ``max_nodes`` nodes.  The search runs in one process, so ``jobs``
    (at least 1) has no effect; it stays for callers, perfbench among
    them, that still pass it.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if max_nodes is not None and max_nodes < 1:
        raise ValueError("max_nodes must be >= 1")
    if branching < 1:
        raise ValueError("branching must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    options = two_bounded_step_options(menu, branching)
    width = len(options)  # at least 2: every weight comes with both lifespans
    # The tree has at least 2**depth nodes, more than a budget of fewer bits.
    tree = None
    if max_nodes is None or depth <= max_nodes.bit_length():
        tree = (width ** (depth + 1) - width) // (width - 1)
    if beam_width is not None:
        if beam_width < 1:
            raise ValueError("beam_width must be >= 1")
        best_ratio, best_path, nodes, complete = _beam_search(
            policy, depth, options, beam_width, max_nodes
        )
    elif tree is not None and (max_nodes is None or tree <= max_nodes):
        best, dag = _dag_build(policy, depth, options)
        best_ratio, best_path = _dag_solve(dag, *best)
        nodes, complete = tree, True
    else:
        best_ratio, best_path, nodes, complete = _explore_roots(
            policy, depth, options, max_nodes
        )
    witness = _instance_from_path(options, best_path)
    return SearchResult(witness, policy, best_ratio, nodes, complete)


def _explore_roots(policy, depth, options, max_nodes):
    """The tree walk, in pre-order and option order up to ``max_nodes``
    nodes, on an explicit stack so any depth fits."""
    best = None  # the best ratio, as (numerator, denominator)
    nodes = 0
    complete = True
    kernel = _SearchKernel(policy, options)
    indices = range(len(options))
    stack = [(kernel.start, kernel.table_start, (), iter(indices))]
    while stack:
        state, table, path, children = stack[-1]
        oi = next(children, None)
        if oi is None:
            stack.pop()
            continue
        if max_nodes is not None and nodes >= max_nodes:
            complete = False
            break
        nodes += 1
        step = len(path) + 1
        state2, table2, ratio = kernel.node(state, table, oi)
        child = path + (oi,)
        if best is None or ratio[0] * best[1] > best[0] * ratio[1]:
            best, best_path = ratio, child
        if step < depth:
            stack.append((state2, table2, child, iter(indices)))
    return Fraction(*best), best_path, nodes, complete


def _beam_search(policy, depth, options, beam_width, max_nodes):
    best = None
    nodes = 0
    complete = True
    kernel = _SearchKernel(policy, options)
    frontier = [(kernel.start, kernel.table_start, ())]
    for step in range(1, depth + 1):
        scored = []
        for state, table, path in frontier:
            for oi in range(len(options)):
                if max_nodes is not None and nodes >= max_nodes:
                    complete = False
                    break
                nodes += 1
                state2, table2, ratio = kernel.node(state, table, oi)
                child = path + (oi,)
                if best is None or ratio[0] * best[1] > best[0] * ratio[1]:
                    best, best_path = ratio, child
                scored.append((ratio, child, state2, table2))
            if not complete:
                break
        if not complete or not scored:
            break
        # Two distinct ratios over denominators below 2**bits differ by more
        # than 4**-bits, so their floors times 4**bits differ: the integer
        # keys order the ratios exactly.
        bits = max(ratio[1].bit_length() for ratio, *_ in scored)
        scored.sort(key=lambda row: (-((row[0][0] << 2 * bits) // row[0][1]), row[1]))
        frontier = [(s, t, p) for _, p, s, t in scored[:beam_width]]
    return Fraction(*best), best_path, nodes, complete


def _dag_build(policy, depth, options):
    """The tree's transposition DAG, and the best ratio among its nodes,
    as (numerator, denominator).

    A node's future depends only on its step, its state map over the
    heaviest carried weights and its offline table's shape, so nodes equal
    in those are one DAG node (``_dag_key``), expanded once from one
    representative: the first path that reaches it.  A tree node's ratio
    is (A + a) / (B + b): the path's drained-optimum offset A and expected
    gain B, each a sum of fixed (dA, dB) per DAG edge, over the node's
    drained optimum a above the offset and drained expected gain b.  Gains
    are integers in one unit for the whole search, L**depth
    (``_gain_lcm``), and A and a are scaled by it, so every ratio is a
    quotient of two integers.

    ``_SearchKernel.node`` steps each child above the last level.  The
    last level steps no state map and scores moves, not options: options
    with one move have one leaf pair, so only the first of them can enter
    a front.  Per move, a leaf's dA + a is the offset's change plus the
    child shape's drained maximum, a row per parent shape from
    ``table_step`` and ``drained``, sorted by it once, and its dB + b the
    sum, over the parent's carried weights, of the weight's probability
    times its row of ``_SearchKernel.gains``, times the unit over L and
    the denominator.

    Only two levels of representatives are kept.  The DAG is (edges,
    ends, fronts): per level above the last parents, per node, one
    (child, dA, dB) per option; per level, per node, its (a, b), none for
    the root; and per last-level parent, its children's (dA + a, dB + b,
    option) pairs that no other pair beats in both, in option order,
    since only such a pair can attain a best value."""
    kernel = _SearchKernel(policy, options)
    lottery = _gain_lcm(kernel)
    unit = lottery**depth
    drained = kernel.drained
    indices = range(len(options))
    best = None
    edges, ends = [], [()]
    # Per node of the level: its representative state map, table and
    # expected gain B (A is the table's offset).
    frontier = [(kernel.start, kernel.table_start, 0)]
    for _ in range(1, depth):
        children: dict[tuple, int] = {}
        reps, level_ends, rows = [], [], []
        for state, table, gained in frontier:
            offset = table[1]
            row = []
            for oi in indices:
                state2, (sid, offset2), ratio = kernel.node(state, table, oi)
                if best is None or ratio[0] * best[1] > best[0] * ratio[1]:
                    best = ratio
                spread = unit // state2.denominator
                key = _dag_key(state2, sid)
                child = children.get(key)
                if child is None:
                    child = children[key] = len(reps)
                    gained2 = sum(w for _, w, _ in state2.carried.values()) * spread
                    reps.append((state2, (sid, offset2), gained2))
                    level_ends.append((drained[sid] * unit, ratio[1] * spread - gained2))
                a, b = level_ends[child]
                x = (offset2 + drained[sid] - offset) * unit  # dA + a
                row.append((child, x - a, ratio[1] * spread - gained - b))
            rows.append(tuple(row))
        edges.append(rows)
        ends.append(level_ends)
        frontier = reps
    moves = range(len(kernel.moves))
    first = [kernel.move_ids.index(move) for move in moves]  # its first option
    fronts, optima, gains = [], {}, {}
    frontier.reverse()
    while frontier:  # each parent's state map goes once it is scored
        state, (sid, offset), gained = frontier.pop()
        xs = optima.get(sid)
        if xs is None:  # (x, move), x falling, then in option order
            steps = map(kernel.table_step, itertools.repeat(sid), moves)
            xs = [((delta + drained[nxt]) * unit, move) for move, (nxt, delta) in zip(moves, steps)]
            xs = optima[sid] = sorted(xs, key=itemgetter(0), reverse=True)  # stable
        ys, spread = [0] * len(moves), unit // state.denominator // lottery
        for top, (prob, _, _) in state.carried.items():
            row = gains.get(top)
            if row is None:
                row = gains[top] = kernel.gains(top, lottery)
            ys = [y + prob * spread * h for y, h in zip(ys, row)]
        if not gained and not all(ys):
            raise InvariantError("policy gained nothing on a nonempty injection")
        front = []  # (move, x, y), x falling and y strictly falling
        for x, move in xs:
            y = ys[move]
            if not front or y < front[-1][2]:
                if front and x == front[-1][1]:
                    front.pop()
                front.append((move, x, y))
        for _, x, y in front:
            ratio = (offset * unit + x, gained + y)
            if best is None or ratio[0] * best[1] > best[0] * ratio[1]:
                best = ratio
        front.sort()
        # From a list: tuples grown from a generator raise the peak RSS of
        # repeated searches.
        fronts.append(tuple([(x, y, first[move]) for move, x, y in front]))
    return best, (edges, ends, fronts)


def _dag_solve(dag, p, q):
    """The DAG's best ratio and the first path in pre-order that attains
    it, by Dinkelbach's parametric method from the ratio p/q: a backward
    pass gives each node the best q·A - p·B that its descendants add
    (``_dag_values``), and the first path in pre-order that attains the
    root's value (``_dag_descent``) gives the next ratio, until the root's
    value is 0.  That path is then the tree walk's witness."""
    while True:
        gain, path, a, b = _dag_descent(*dag, _dag_values(*dag, p, q), p, q)
        if gain == 0:
            return Fraction(p, q), tuple(path)
        p, q = a, b


def _dag_key(states, sid):
    """The DAG node of a state map at some step with offline table shape
    ``sid``: the shape, and the map's distribution over the heaviest
    carried weights, divided by its gcd.  A state's future is fixed by
    that weight (``_SearchKernel``)."""
    divisor = gcd(*(prob for prob, _, _ in states.carried.values()))
    return sid, frozenset((top, prob // divisor) for top, (prob, _, _) in states.carried.items())


def _gain_lcm(kernel):
    """L, the least common multiple of rg's lottery denominators over the
    menu (1 for a deterministic policy): each step multiplies a state
    map's denominator by at most L, so every expected gain times the
    scale is an integer in the unit L**depth."""
    if kernel.policy != "rg":
        return 1
    scaled = {w for move in kernel.moves for w in move if w}  # the menu
    return lcm(*(_rg_lottery(e, h)[0] for e in scaled for h in scaled if e <= h))


def _dag_values(edges, ends, fronts, p, q):
    """Per level, per node: the best q·A - p·B that a path from the node
    adds down to one of its descendants, in a backward pass."""
    values = [[max(q * x - p * y for x, y, _ in front) for front in fronts]]
    for rows, level_ends in zip(reversed(edges), reversed(ends)):
        below = [max(q * a - p * b, v) for (a, b), v in zip(level_ends, values[-1])]
        values.append([max(q * da - p * db + below[c] for c, da, db in row) for row in rows])
    values.reverse()
    return values


def _dag_descent(edges, ends, fronts, values, p, q):
    """The root's value, the first path in pre-order that attains it, and
    the path's A and B.  The descent checks a child before its
    descendants, and children in option order."""
    target = values[0][0]
    path, gained, a_sum, b_sum, node = [], 0, 0, 0, 0
    for level, rows in enumerate(edges, start=1):
        for oi, (child, da, db) in enumerate(rows[node]):
            here = gained + q * da - p * db
            a, b = ends[level][child]
            if here + q * a - p * b == target:
                return target, path + [oi], a_sum + da + a, b_sum + db + b
            if here + values[level][child] == target:
                path.append(oi)
                gained, a_sum, b_sum, node = here, a_sum + da, b_sum + db, child
                break
        else:
            raise InvariantError("no path attains the DAG's best value")
    for x, y, oi in fronts[node]:
        if gained + q * x - p * y == target:
            return target, path + [oi], a_sum + x, b_sum + y
    raise InvariantError("no path attains the DAG's best value")


class _SearchKernel:
    """One search node's work, in integers: the policy's state map stepped
    by ``engine.advance``, the offline table, and the ratio of their
    drained gains (``node``).  A node of the search's last level needs
    only the two drained gains: ``table_step`` and ``drained`` give its
    drained optimum and ``gains`` its expected gain per heaviest carried
    weight, so the DAG build calls ``node`` above that level only.

    Only a carried set's heaviest packet counts.  A packet carried into
    step t has deadline t + 1, like the step's one-step arrivals: step t's
    slot is the only one they can use.  The oblivious schedule, the
    matroid greedy in the greedy order, keeps the first of them in that
    order or none, and a carried packet ranks before a one-step arrival of
    equal weight; a rejected packet changes none of the greedy's later
    choices.  So a carried packet other than the heaviest never enters the
    oblivious schedule, is never sent, and expires, and the optimum can
    send one of them at most: each state's future, and the offline
    table's, is fixed by its heaviest carried weight alone.  The state map
    is keyed by that weight (0 for none), and a step's decision on it is
    the closed form ``_decision`` on the option's move (E, L1, L2).

    The offline table maps the heaviest carried weight (0 for none) to
    the best gain so far, in at most two items (``_advance_opt_state``).
    A table is (shape id, offset): its items less their smallest value,
    interned in ``tables`` with the drained maximum in ``drained``, and
    that value.  A table step shifts with its input, so ``steps`` maps
    (shape id, move id) to (next shape id, offset delta)."""

    def __init__(self, policy, options):
        self.policy = policy
        self.scale, moves = _offline_moves(options)
        ids: dict[tuple, int] = {}  # options with equal moves share an id
        self.move_ids = [ids.setdefault(move, len(ids)) for move in moves]
        self.moves = list(ids)
        self.decisions = [partial(_decision, policy, *move) for move in moves]
        self.shapes: dict[tuple, int] = {}
        self.tables: list[tuple] = []
        self.drained: list[int] = []
        self.steps: dict[tuple[int, int], tuple[int, int]] = {}
        self.table_start = self._intern({0: 0})
        self.start = States(self.scale, 1, {0: (1, 0, 1)})

    def _intern(self, table):
        """The dict ``table`` as (shape id, offset)."""
        offset = min(table.values())
        shape = tuple(sorted((top, value - offset) for top, value in table.items()))
        sid = self.shapes.get(shape)
        if sid is None:
            sid = self.shapes[shape] = len(self.tables)
            self.tables.append(shape)
            self.drained.append(max(top + value for top, value in shape))
        return sid, offset

    def table_step(self, sid, move):
        """The next shape id and the offset's change after an option of
        move id ``move`` arrives on the table of shape ``sid``."""
        nxt = self.steps.get((sid, move))
        if nxt is None:
            nxt = self.steps[sid, move] = self._intern(
                _advance_opt_state(self.tables[sid], *self.moves[move])
            )
        return nxt

    def node(self, state, table, oi):
        """The state map, offline table and ratio after option ``oi``
        arrives."""
        state2 = advance(state, self.decisions[oi])
        sid, delta = self.table_step(table[0], self.move_ids[oi])
        offset = table[1] + delta
        return state2, (sid, offset), self._node_ratio(state2, offset + self.drained[sid])

    def gains(self, top, lottery):
        """Per move arriving on the heaviest carried weight ``top``: the
        policy's expected gain there plus the drain of what it carries on,
        times the scale and ``lottery``, a multiple of every lottery's
        denominator."""
        row = []
        for move in self.moves:
            den, outcomes = _decision(self.policy, *move, top)
            row.append(lottery // den * sum(f * (sent + carry) for carry, f, sent in outcomes))
        return row

    def _node_ratio(self, states, opt_scaled):
        """OPT over the policy's expected gain, both drained, as an
        unreduced (numerator, denominator) pair; ``opt_scaled`` is the
        drained optimum times the scale.  Every carried packet has deadline
        step + 2, so at step + 1 the oblivious schedule is the heaviest
        alone, and every policy, like the optimum, transmits it."""
        algorithm = 0  # times the map's denominator and the scale
        for top, (prob, weighted, _) in states.carried.items():
            algorithm += weighted + prob * top
        if opt_scaled == 0:
            return 1, 1
        if algorithm == 0:
            raise InvariantError("policy gained nothing on a nonempty injection")
        return opt_scaled * states.denominator, algorithm


def _instance_from_path(options, path) -> Instance:
    return Instance.build(
        row for step, oi in enumerate(path, start=1) for row in _step_specs(step, options[oi])
    )


def _offline_moves(options):
    """The common denominator of the options' weights and, per option, what
    the offline table and the policy's step (``_decision``) need of it,
    (E, L1, L2): the heaviest scaled weight among the packets that expire
    after this step and the two heaviest among the ones it may carry, each
    0 if absent."""
    scale = lcm(*(w.denominator for option in options for _, w in option))
    moves = []
    for option in options:
        scaled = [(lifespan, w.numerator * (scale // w.denominator)) for lifespan, w in option]
        l1, l2, *_ = sorted((w for lifespan, w in scaled if lifespan == 2), reverse=True) + [0, 0]
        moves.append((max((w for lifespan, w in scaled if lifespan == 1), default=0), l1, l2))
    return scale, moves


def _advance_opt_state(items, expiring, l1, l2):
    """One step of the offline table, given as its (heaviest carried
    weight, best gain so far) items, on the move (E, L1, L2) of
    ``_offline_moves``; returns the next table as a dict.  The step sends
    the heavier of the carried one and E, or a long-lived arrival other
    than L1, at best L2, and carries L1 on; or it sends L1 and carries L2
    on, which gains no more when L1 = L2.  Weights and gains are ints,
    the menu's weights times their common denominator."""
    keep = max(value + max(expiring, top, l2) for top, value in items)
    if l1 == l2:
        return {l1: keep}
    return {l1: keep, l2: max(value for _, value in items) + l1}


def _decision(policy, expiring, l1, l2, top):
    """The policy's transition (``engine.Transition``) as the move (E, L1,
    L2) of ``_offline_moves`` arrives on the heaviest carried weight
    ``top`` (0 for none); each outcome carries its heaviest weight on.
    The step's slot is the only one for A = max(top, E), and the
    oblivious schedule keeps A, ahead of an equal L2, beside L1, or else
    L1 and L2.  So A is both the earliest and the heaviest when A >= L1,
    ties going deadline-first, and L1 is when there is no A or L2 > A:
    every policy sends it.  Otherwise A is the earliest and L1 the
    heaviest, and the rules choose.  Sending A carries L1 on, and sending
    L1 carries L2 on."""
    a = max(top, expiring)
    if a >= l1:
        return 1, ((l1, 1, a),)
    if a == 0 or l2 > a:
        return 1, ((l2, 1, l1),)
    if policy == "rg":
        denominator, p_a, p_l1 = _rg_lottery(a, l1)
        return denominator, ((l1, p_a, a), (l2, p_l1, l1))
    sent = _choose(policy, a, l1, (a, l1), int)
    return 1, ((l1 if sent == a else l2, 1, sent),)


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

# (step, the oblivious schedule's ranks in the deadline-first order) -> a
# replacement sequence of ranks released by the step, or None to keep it.
Corruption = Callable[[int, tuple[int, ...]], Sequence[int] | None]


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
    the optimum of the pending set (the value of the true oblivious
    schedule, which is the greedy of ``opt_schedule``); a conforming clairvoyant
    schedule can be built and follows the deadline-first order; its
    already-pending part lies inside the oblivious schedule; every
    oblivious packet order-before its first packet weighs strictly less;
    for oblivious packets i order-before j with w_i < w_j, scheduling i
    implies scheduling j; and when the earliest packet is skipped, the
    heaviest can be moved to the front without breaking feasibility.

    The run is the single-path walk that ``run_policy`` takes
    (``offline._walk``), whose chooser checks each step before it sends
    the mg-prime choice: packets are their ranks in the greedy order,
    weights integers over the instance's common denominator, and the
    deadline-first order is ``(deadline, rank)``.  The greedy optimum over
    pending plus future ranks, which the conforming schedule lays out, is
    carried from step to step (``offline._Conforming``) as the oblivious
    schedule is.  A packet is looked up only to name it in a step's note.
    ``_check_step`` decides each fact once, from C's released members.

    ``corrupt(step, sequence)`` is a mutation-testing hook: it gets the
    ranks of the step's oblivious schedule in the deadline-first order and
    may return a replacement sequence of ranks released by the step, in
    the same order, to hand to the checks in its place.  The checked
    earliest packet is the replacement's first member and the checked
    heaviest its smallest rank.  The run itself is driven by the true
    schedules.  Failures are findings, not exceptions.
    """
    if not instance.is_agreeable:
        raise ValueError("fact checks require an agreeable instance")
    compiled, _, solved = _solved(instance)
    expiring, weights = compiled.expiring, compiled.weights
    releases, deadlines = compiled.releases, compiled.deadlines
    order = list(zip(deadlines, itertools.count())).__getitem__  # (deadline, rank)
    report = FactsReport()
    conforming = _Conforming(*map(list.copy, solved))  # C's moves leave the cache as it is

    def choose(step: int, sequence: list[int], e: int, h: int) -> int:
        checked = sequence
        if corrupt is not None:
            replacement = corrupt(step, tuple(sequence))
            if replacement is not None:
                checked = replacement
        report.steps.append(_check_step(compiled, step, conforming, checked, sequence, order))
        choice = _choose("mg-prime", e, h, sequence, weights.__getitem__)
        expired = expiring.get(step + 1, ())
        _conforming_send(conforming, choice, step, releases, deadlines, expired)
        return choice

    _walk(compiled, choose)
    return report


def _check_step(compiled, step: int, conforming, checked, truth, order) -> StepFacts:
    """The facts at one step over the ranks of ``compiled``: ``conforming``
    holds C, the greedy basis of the pending and the future ranks from
    ``step``, ``checked`` the oblivious schedule handed to the checks and
    ``truth`` the true one, both in the deadline-first order, and
    ``order`` maps a rank to its place in that order, ``(deadline, rank)``.

    The facts ask only about the released ranks of ``checked``, so C's
    released members, the lead of its lists, decide them all.
    ``_conforming_front`` raises, giving a note, for a released rank of C
    outside ``checked``, and its first-slot substitute is in ``checked``,
    so ``pending_within_oblivious`` holds when it returns.  The substitute
    comes before the rank it replaces in the order, so the layout is the
    deadline-first one of its own ranks, ``conforming_built``, iff the
    first slot's rank is pending at ``step``."""
    releases, deadlines, weights = compiled.releases, compiled.deadlines, compiled.weights
    results = dict.fromkeys(FACT_CHECKS, False)
    weight = weights.__getitem__
    results["oblivious_optimal"] = sum(map(weight, checked)) == sum(map(weight, truth))
    try:
        n, replaced, first = _conforming_front(compiled, conforming, step, set(checked))
    except InvariantError as err:
        return StepFacts(step, results, note=str(err))
    chosen = set(conforming.keys[:n])
    chosen.remove(replaced)
    chosen.add(first)
    results["conforming_built"] = releases[first] <= step < deadlines[first]
    results["pending_within_oblivious"] = True
    heaviest, before = weights[first], order(first)
    results["first_packet_outweighs_earlier"] = all(
        weights[k] < heaviest for k in checked if order(k) < before
    )
    results["heavier_scheduled_monotone"] = heavier_scheduled_monotone(checked, chosen, weight)
    results["front_swap_feasible"] = _front_swap_feasible(first, chosen, step, checked, order)
    return StepFacts(step, results)


def heavier_scheduled_monotone(
    sequence: Sequence[_T], chosen: Container[_T], weight: Callable[[_T], int | Fraction]
) -> bool:
    """For members i before j in ``sequence``, the oblivious schedule in
    the deadline-first order, with w_i < w_j: i in ``chosen`` implies j in
    ``chosen``.

    One pass: a member left out of ``chosen`` must weigh no more than
    every chosen member before it.
    """
    lightest = None  # of the chosen members seen so far
    for p in sequence:
        w = weight(p)
        if p in chosen:
            if lightest is None or w < lightest:
                lightest = w
        elif lightest is not None and lightest < w:
            return False
    return True


def _front_swap_feasible(
    first: int, chosen: set[int], step: int, checked: Sequence[int], order: Callable
) -> bool:
    """When the first rank of ``checked``, the oblivious schedule, is
    skipped, its heaviest (its smallest rank) must be movable to the front
    of the conforming schedule, the rest following in its order, each at
    the first free step from its release.  ``chosen`` holds C's released
    members, the first slot's rank ``first`` among them; they are walked
    on consecutive steps from ``step``: the heaviest, ``first``, then the
    others in the order ``(deadline, rank)``.  C's n released members and
    future members f_1, ..., f_i sent in that order by the schedule all
    have deadlines up to d_i (agreeable deadlines: f_j goes out before f_i
    in the order or before its release), so the feasible C fits them
    before d_i, and f_j, ..., f_i go out on distinct steps from r_j.  So
    f_i's step, the latest of step + n + i - 1 and r_j + i - j (j <= i),
    is below d_i: the future members never fail."""
    if not checked:
        return False
    if checked[0] in chosen:
        return True  # nothing to reorder
    heaviest = min(checked)
    if heaviest not in chosen:
        return False
    front = dict.fromkeys((heaviest, first))
    walk = [*front, *sorted(chosen.difference(front), key=order)]
    return all(order(k)[0] > t for t, k in enumerate(walk, start=step))


def drop_packet_corruption(target_step: int, drop_position: int) -> Corruption:
    """Mutation hook: remove one packet from the oblivious schedule of the
    chosen step (position taken modulo the schedule length)."""

    def corrupt(step: int, sequence: tuple[int, ...]) -> tuple[int, ...] | None:
        if step != target_step:
            return None
        victim = drop_position % len(sequence)
        return sequence[:victim] + sequence[victim + 1 :]

    return corrupt
