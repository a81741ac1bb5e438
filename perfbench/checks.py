"""Independent references the benchmark checks the program's outputs against.

They share no code with ``pktsched`` beyond its value types: the offline
optimum is a weight-greedy over the transversal matroid of schedulable
packet sets, with feasibility decided by an earliest-deadline-first
simulation that respects releases; the randomized policy's expectation is a
forward pass over carried pending sets, built on ``tests/oracles.py``'s
subset-enumeration oblivious schedule.
"""

from __future__ import annotations

import heapq
from fractions import Fraction


def edf_feasible(packets) -> bool:
    """Can every packet be sent inside its window [release, deadline)?"""
    ordered = sorted(packets, key=lambda p: p.release)
    waiting: list[int] = []
    step = 0
    i = 0
    while i < len(ordered) or waiting:
        if not waiting:
            step = max(step, ordered[i].release)
        while i < len(ordered) and ordered[i].release <= step:
            heapq.heappush(waiting, ordered[i].deadline)
            i += 1
        if heapq.heappop(waiting) <= step:
            return False
        step += 1
    return True


def greedy_opt(packets) -> Fraction:
    """Exact maximum schedulable weight (release times respected)."""
    kept = []
    for packet in sorted(packets, key=lambda p: p.weight, reverse=True):
        if edf_feasible(kept + [packet]):
            kept.append(packet)
    return sum((p.weight for p in kept), Fraction(0))


def rg_forward(instance, oracle_oblivious) -> tuple[Fraction, int]:
    """Exact expected gain of rg and its branching-tree leaf count.

    Walks the steps forward keeping, per carried pending set, the
    probability of reaching it, the probability-weighted gain so far and
    the number of tree paths reaching it.  Needs no recursion, so it also
    covers horizons the recursive engine cannot reach.
    """
    arrivals = instance.arrivals_by_step
    states = {frozenset(): (Fraction(1), Fraction(0), 1)}
    for step in range(instance.first_release, instance.horizon + 1):
        nxt: dict = {}

        def put(key, prob, weighted, paths):
            if key in nxt:
                p0, w0, n0 = nxt[key]
                nxt[key] = (p0 + prob, w0 + weighted, n0 + paths)
            else:
                nxt[key] = (prob, weighted, paths)

        for carry, (prob, weighted, paths) in states.items():
            pending = frozenset(p for p in carry if p.deadline > step)
            pending |= frozenset(arrivals.get(step, ()))
            if not pending:
                put(pending, prob, weighted, paths)
                continue
            _, e, h, _ = oracle_oblivious(pending, step)
            if e == h:
                put(pending - {e}, prob, weighted + prob * e.weight, paths)
                continue
            q = e.weight / h.weight
            put(pending - {e}, prob * q, q * (weighted + prob * e.weight), paths)
            put(pending - {h}, prob * (1 - q), (1 - q) * (weighted + prob * h.weight), paths)
        states = nxt
    expected = sum((weighted for _, weighted, _ in states.values()), Fraction(0))
    leaves = sum(paths for _, _, paths in states.values())
    return expected, leaves


def at_most_golden(ratio: Fraction) -> bool:
    """ratio <= golden ratio, as r*r <= r + 1."""
    return ratio * ratio <= ratio + 1
