"""Step-loop simulation over instances.

Every mode steps the same rule, over integer keys.  A key stands for one
packet; sorting keys gives the greedy order (weight descending, ties in
the deadline-first order), and the key's deadline and weight, an integer
over a common denominator, sit in lists indexed by key.  An instance's
keys are its packets' ranks, from its compile; the adversarial search
builds its own key space (``analysis._SearchKernel``).  At each step the
arrivals join the pending set, the policy rule reads the integer weights
of the oblivious schedule's earliest and heaviest key, and the sent key
and every key whose deadline has come leave.  A run checks its gain
against the offline optimum, which one shared solve per instance gives
with the compile (``offline._solved``), for ``analysis.check_facts`` too.

One walk, ``offline._walk``, steps every single path: ``run_policy``,
each Monte Carlo trial and ``check_facts`` only choose the key to send
from the oblivious schedule it carries.  Exact mode and the search branch
instead: their pending sets are frozensets of keys, merged per step and
memoised by the search, and ``offline._ranked_step`` solves each one
afresh.

``advance`` takes that step for a distribution over carried sets,
merging outcomes that carry the same set.  ``offline.busy_steps`` lists
the steps a run visits, skipping the idle ones where nothing is pending.  A
transition memo (``Transitions``) lets search paths that meet a pending
set again at the same step decide it once.

Inside the kernel everything is an integer: weights over their common
denominator, and a state map's probabilities and gains over one
denominator per map (``States``).  A ``Fraction`` is built once, for the
result, and packets are looked up only for the report.

Three execution modes:

* ``run_policy``   - deterministic policies, one pass over the steps;
* ``run_rg_exact`` - exact expected gain of the randomized policy: a
  forward pass of ``advance`` over the steps, keeping per carried pending
  set (which fully determines the future) its exact probability, its
  probability-weighted gain and the number of tree paths reaching it;
* ``run_rg_mc``    - seeded Monte Carlo estimate for instances too large
  for exact mode; every draw compares a 64-bit uniform integer with the
  exact rational threshold, so the lottery itself is bias-free.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, NamedTuple

from .model import Instance, InvariantError, Packet
from .offline import _compile, _ranked_step, _solved, _walk, busy_steps
from .policies import DETERMINISTIC_POLICIES, _choose, _rg_lottery

DEFAULT_EXACT_CAP = 1 << 20


class States(NamedTuple):
    """A distribution over carried pending sets, in integers.

    Weights are integers over ``scale``.  Each carried set of keys maps to
    its probability, as a numerator over ``denominator``; its
    probability-weighted gain so far, as a numerator over
    ``denominator * scale``; and the number of branching-tree paths
    reaching it.
    """

    scale: int
    denominator: int
    carried: Mapping[frozenset[int], tuple[int, int, int]]


def start(scale: int) -> States:
    """The map before the first step: nothing carried, reached surely by
    one path.  ``scale`` must make every weight of the run an integer."""
    return States(scale, 1, {frozenset(): (1, 0, 1)})


# One policy decision as integers: the common denominator of its
# probabilities and, per outcome, the carried set of keys, the
# probability's numerator over that denominator and the sent key's weight
# times the scale.
Transition = tuple[int, tuple[tuple[frozenset[int], int, int], ...]]

# (step, pending keys) -> the transition of one policy there.
Transitions = dict[tuple[int, frozenset[int]], Transition]

# An empty pending set sends nothing and carries nothing.
_IDLE: Transition = (1, ((frozenset(), 1, 0),))


class ExactCapExceeded(RuntimeError):
    """Exact mode outgrew the configured state cap."""


@dataclass(frozen=True)
class StepRecord:
    """What happened in one simulated step; its gain is ``transmitted.weight``."""

    step: int
    scheduled_ids: tuple[str, ...]
    earliest: Packet
    heaviest: Packet
    transmitted: Packet


@dataclass(frozen=True)
class RunReport:
    """Transcript and totals of one deterministic run."""

    policy: str
    per_step: tuple[StepRecord, ...]
    total_gain: Fraction
    opt_value: Fraction
    ratio: Fraction


def _transition(
    policy: str,
    pending: frozenset[int],
    step: int,
    deadlines: list[int],
    weights: list[int],
    memo: Transitions | None,
) -> Transition:
    """The outcomes of the policy's decision on the oblivious schedule of
    ``pending``, taken from ``memo`` when it holds this step and pending
    set, and stored there otherwise.  The policy rule reads the keys'
    integer weights; rg's lottery is w_e / w_h in lowest terms.  A memo
    serves one policy and one key space."""
    key = (step, pending)
    if memo is not None:
        transition = memo.get(key)
        if transition is not None:
            return transition
    if min(map(deadlines.__getitem__, pending)) <= step:
        raise ValueError(f"a key of the pending set is not pending at step {step}")
    expired = [k for k in pending if deadlines[k] == step + 1]
    sequence, e, h = _ranked_step(deadlines, weights, pending, step)
    if policy == "rg" and e != h:
        denominator, p_e, p_h = _rg_lottery(weights[e], weights[h])
        outcomes = ((e, p_e), (h, p_h))
    else:  # rg with one candidate sends it surely
        denominator = 1
        sent = e if policy == "rg" else _choose(policy, e, h, sequence, weights.__getitem__)
        outcomes = ((sent, 1),)
    transition = (
        denominator,
        tuple((pending.difference(expired, (k,)), p, weights[k]) for k, p in outcomes),
    )
    if memo is not None:
        memo[key] = transition
    return transition


def advance(
    policy: str,
    states: States,
    step: int,
    arrivals: Iterable[int],
    deadlines: list[int],
    weights: list[int],
    memo: Transitions | None = None,
) -> States:
    """One step of a policy's distribution over carried pending sets.

    The arrivals join every carried set, the policy decides on the
    oblivious schedule of the result, and every outcome of the decision is
    carried on with its probability; outcomes that carry the same set are
    merged.  ``deadlines`` and ``weights`` (integers over the map's scale)
    are indexed by key.  The new denominator is the old one times the
    least common multiple of the step's lottery denominators, divided by
    the gcd of the map when a lottery multiplied it.  A deterministic
    policy keeps a single state of probability 1.  ``memo``, if given,
    remembers the policy's transitions across calls.
    """
    scale, denominator, current = states
    arrivals = frozenset(arrivals)
    moves = []
    common = 1
    for carry, value in current.items():
        pending = carry | arrivals
        if pending:
            transition = _transition(policy, pending, step, deadlines, weights, memo)
            if transition[0] != 1:
                common = lcm(common, transition[0])
        else:
            transition = _IDLE
        moves.append((value, transition))
    out: dict[frozenset[int], tuple[int, int, int]] = {}
    for (prob, weighted, paths), (lottery, outcomes) in moves:
        spread = common // lottery
        for carry, factor, sent in outcomes:
            factor *= spread
            prob2 = prob * factor
            weighted2 = (weighted + prob * sent) * factor
            entry = out.get(carry)
            if entry is None:
                out[carry] = (prob2, weighted2, paths)
            else:
                out[carry] = (entry[0] + prob2, entry[1] + weighted2, entry[2] + paths)
    denominator *= common
    if common != 1:
        divisor = gcd(denominator, *(n for p, w, _ in out.values() for n in (p, w)))
        if divisor != 1:
            denominator //= divisor
            out = {
                carry: (prob // divisor, weighted // divisor, paths)
                for carry, (prob, weighted, paths) in out.items()
            }
    return States(scale, denominator, out)


def run_policy(instance: Instance, policy: str) -> RunReport:
    """Simulate a deterministic policy over all steps and report exact totals."""
    if policy not in DETERMINISTIC_POLICIES:
        raise ValueError(
            f"run_policy needs a deterministic policy, not {policy!r}; "
            "use run_rg_exact or run_rg_mc for rg"
        )
    compiled, opt, _ = _solved(instance)
    packets, weights = compiled.packets, compiled.weights
    ids = [p.id for p in packets]
    records: list[StepRecord] = []

    def choose(step: int, sequence: list[int], e: int, h: int) -> int:
        choice = _choose(policy, e, h, sequence, weights.__getitem__)
        if choice not in sequence:
            raise InvariantError(f"policy {policy} chose outside the oblivious schedule")
        records.append(
            StepRecord(
                step, tuple(map(ids.__getitem__, sequence)), packets[e], packets[h], packets[choice]
            )
        )
        return choice

    total = _walk(compiled, choose)  # times the scale
    if total > opt:
        raise InvariantError("online gain exceeded the offline optimum")
    ratio = _ratio(opt, total)
    scale = compiled.scale
    return RunReport(policy, tuple(records), Fraction(total, scale), Fraction(opt, scale), ratio)


def _ratio(opt: int, gain: int) -> Fraction:
    """The competitive ratio: optimum over (expected) gain, 1 if the optimum is 0."""
    return Fraction(1) if opt == 0 else Fraction(opt, gain)


def run_rg_exact(
    instance: Instance, cap: int = DEFAULT_EXACT_CAP
) -> tuple[Fraction, int]:
    """Exact expected gain of the randomized policy and the branching-tree
    leaf count.

    A forward pass of ``advance`` over the steps.  Merging the paths that
    carry the same pending set cannot change the expectation, because that
    set determines everything that follows; their path counts add up to
    the tree's leaves.  Raises ExactCapExceeded once the number of states,
    summed over the steps where something is pending, passes ``cap``; each
    state costs at most one oblivious schedule.
    """
    value, leaves, _, _ = _rg_exact(instance, cap)
    return value, leaves


def _rg_exact(instance: Instance, cap: int) -> tuple[Fraction, int, Fraction, Fraction]:
    """``run_rg_exact`` plus the offline optimum it checks the value against
    and the ratio of the two, so that callers reporting them compute the
    optimum once."""
    compiled, opt, _ = _solved(instance)
    arrivals, deadlines, weights = compiled.arrivals, compiled.deadlines, compiled.weights
    states = start(compiled.scale)
    spent = 0
    for step in busy_steps(arrivals, lambda: any(states.carried)):
        spent += len(states.carried)
        if spent > cap:
            raise ExactCapExceeded(
                f"instance too large for exact mode (exact states > {cap})"
            )
        states = advance("rg", states, step, arrivals.get(step, ()), deadlines, weights)
    scale, denominator, final = states
    gain = sum(weighted for _, weighted, _ in final.values())  # times denominator * scale
    leaves = sum(paths for _, _, paths in final.values())
    opt *= denominator
    if gain > opt:
        raise InvariantError("expected gain exceeded the offline optimum")
    scale *= denominator
    return Fraction(gain, scale), leaves, Fraction(opt, scale), _ratio(opt, gain)


def _trial_seed(seed: int, trial: int) -> int:
    """Counter-based per-trial seed; stable across platforms."""
    digest = hashlib.sha256(f"{seed}:{trial}".encode("ascii")).digest()
    return int.from_bytes(digest[:16], "big")


def run_rg_mc(instance: Instance, trials: int, seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of the randomized policy's total gain.

    Trial i draws from a stream derived from (seed, i), so identical
    arguments reproduce identical output bit for bit.  Returns the sample
    mean and its standard error.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    compiled = _compile(instance)
    weights = compiled.weights
    totals: list[float] = []
    shift = 1 << 64
    for trial in range(trials):
        draw = random.Random(_trial_seed(seed, trial)).getrandbits

        # The earliest with probability w_e / w_h: draw / 2^64 < w_e / w_h,
        # compared exactly in integers.  A sure choice draws nothing.
        def choose(step: int, sequence: list[int], e: int, h: int) -> int:
            return e if e == h or draw(64) * weights[h] < weights[e] * shift else h

        # int / int rounds correctly, so this is float(Fraction(gain, scale)).
        totals.append(_walk(compiled, choose) / compiled.scale)
    mean = math.fsum(totals) / trials
    if trials == 1:
        return mean, 0.0
    variance = math.fsum((x - mean) ** 2 for x in totals) / (trials - 1)
    return mean, math.sqrt(variance / trials)
