"""Step-loop simulation over instances.

Every mode steps the same rule.  At each step the arrivals join the
carried pending set, the policy decides on its oblivious schedule, and
``carry_after`` drops the sent packet and every packet whose deadline has
come.  ``advance`` takes that step for a distribution over carried sets,
merging outcomes that carry the same set.

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
from types import MappingProxyType
from typing import Iterable, Mapping

from .model import Instance, InvariantError, Packet
from .offline import oblivious_schedule, opt_schedule
from .policies import DETERMINISTIC_POLICIES, PolicyDecision, decide

DEFAULT_EXACT_CAP = 1 << 20

# Carried pending set -> (probability of reaching it, probability-weighted
# gain so far, number of branching-tree paths reaching it).
States = Mapping[frozenset[Packet], tuple[Fraction, Fraction, int]]

# Before the first step: nothing carried, reached surely by one path.
START: States = MappingProxyType({frozenset(): (Fraction(1), Fraction(0), 1)})


class ExactCapExceeded(RuntimeError):
    """Exact mode outgrew the configured state cap."""


@dataclass(frozen=True)
class StepRecord:
    """What happened in one simulated step."""

    step: int
    scheduled_ids: tuple[str, ...]
    earliest: Packet
    heaviest: Packet
    transmitted: Packet
    gain: Fraction


@dataclass(frozen=True)
class RunReport:
    """Transcript and totals of one deterministic run."""

    policy: str
    per_step: tuple[StepRecord, ...]
    total_gain: Fraction
    opt_value: Fraction
    ratio: Fraction


def carry_after(pending: frozenset[Packet], sent: Packet, step: int) -> frozenset[Packet]:
    """The packets of ``pending`` other than ``sent`` that are still pending
    at ``step + 1``, i.e. whose deadline lies beyond it."""
    return frozenset(p for p in pending if p != sent and p.deadline > step + 1)


def advance(policy: str, states: States, step: int, arrivals: Iterable[Packet]) -> States:
    """One step of a policy's distribution over carried pending sets.

    The arrivals join every carried set, the policy decides on the
    oblivious schedule of the result, and every outcome of the decision is
    carried on with its probability; outcomes that carry the same set are
    merged.  A deterministic policy keeps a single state of probability 1.
    """
    arrivals = frozenset(arrivals)
    out: dict[frozenset[Packet], tuple[Fraction, Fraction, int]] = {}

    def put(carry, prob, weighted, paths):
        if carry in out:
            p0, w0, n0 = out[carry]
            out[carry] = (p0 + prob, w0 + weighted, n0 + paths)
        else:
            out[carry] = (prob, weighted, paths)

    for carry, (prob, weighted, paths) in states.items():
        pending = carry | arrivals
        if not pending:
            put(pending, prob, weighted, paths)
            continue
        decision = decide(policy, oblivious_schedule(pending, step))
        if decision.deterministic is not None:
            sent = decision.deterministic
            put(carry_after(pending, sent, step), prob, weighted + prob * sent.weight, paths)
            continue
        for sent, q in decision.lottery:
            put(
                carry_after(pending, sent, step),
                prob * q,
                q * (weighted + prob * sent.weight),
                paths,
            )
    return out


def run_policy(instance: Instance, policy: str) -> RunReport:
    """Simulate a deterministic policy over all steps and report exact totals."""
    if policy not in DETERMINISTIC_POLICIES:
        raise ValueError(
            f"run_policy needs a deterministic policy, not {policy!r}; "
            "use run_rg_exact or run_rg_mc for rg"
        )
    arrivals = instance.arrivals_by_step
    carry: frozenset[Packet] = frozenset()
    records: list[StepRecord] = []
    total = Fraction(0)
    for step in range(instance.first_release, instance.horizon + 1):
        pending = carry | frozenset(arrivals.get(step, ()))
        if not pending:
            continue
        oblivious = oblivious_schedule(pending, step)
        choice = decide(policy, oblivious).deterministic
        if choice is None or choice not in oblivious.schedule.packets:
            raise InvariantError(f"policy {policy} chose outside the oblivious schedule")
        total += choice.weight
        records.append(
            StepRecord(
                step,
                tuple(p.id for p in oblivious.schedule.sequence()),
                oblivious.earliest,
                oblivious.heaviest,
                choice,
                choice.weight,
            )
        )
        carry = carry_after(pending, choice, step)
    _, opt_value = opt_schedule(instance.packets, instance.first_release)
    if total > opt_value:
        raise InvariantError("online gain exceeded the offline optimum")
    ratio = Fraction(1) if opt_value == 0 else opt_value / total
    return RunReport(policy, tuple(records), total, opt_value, ratio)


def run_rg_exact(
    instance: Instance, cap: int = DEFAULT_EXACT_CAP
) -> tuple[Fraction, int]:
    """Exact expected gain of the randomized policy and the branching-tree
    leaf count.

    A forward pass of ``advance`` over the steps.  Merging the paths that
    carry the same pending set cannot change the expectation, because that
    set determines everything that follows; their path counts add up to
    the tree's leaves.  Raises ExactCapExceeded once the number of states,
    summed over the steps, passes ``cap``; each state costs at most one
    oblivious schedule.
    """
    arrivals = instance.arrivals_by_step
    states = START
    spent = 0
    for step in range(instance.first_release, instance.horizon + 1):
        spent += len(states)
        if spent > cap:
            raise ExactCapExceeded(
                f"instance too large for exact mode (exact states > {cap})"
            )
        states = advance("rg", states, step, arrivals.get(step, ()))
    value = sum((weighted for _, weighted, _ in states.values()), Fraction(0))
    leaves = sum(paths for _, _, paths in states.values())
    _, opt_value = opt_schedule(instance.packets, instance.first_release)
    if value > opt_value:
        raise InvariantError("expected gain exceeded the offline optimum")
    return value, leaves


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
    arrivals = instance.arrivals_by_step
    horizon = instance.horizon
    start = instance.first_release
    cache: dict[tuple[int, frozenset[Packet]], PolicyDecision] = {}
    totals: list[float] = []
    shift = 1 << 64
    for trial in range(trials):
        rng = random.Random(_trial_seed(seed, trial))
        carry: frozenset[Packet] = frozenset()
        gain = Fraction(0)
        for step in range(start, horizon + 1):
            pending = carry | frozenset(arrivals.get(step, ()))
            if not pending:
                continue
            key = (step, pending)
            decision = cache.get(key)
            if decision is None:
                decision = decide("rg", oblivious_schedule(pending, step))
                cache[key] = decision
            chosen = decision.deterministic
            if chosen is None:
                (e, p_e), (h, _) = decision.lottery
                draw = rng.getrandbits(64)
                # draw / 2^64 < p_e, compared exactly in integers.
                chosen = e if draw * p_e.denominator < p_e.numerator * shift else h
            gain += chosen.weight
            carry = carry_after(pending, chosen, step)
        totals.append(float(gain))
    mean = math.fsum(totals) / trials
    if trials == 1:
        return mean, 0.0
    variance = math.fsum((x - mean) ** 2 for x in totals) / (trials - 1)
    return mean, math.sqrt(variance / trials)
