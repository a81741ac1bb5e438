"""Shared test helpers."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain

from pktsched.engine import _transition, advance
from pktsched.offline import _compile
from pktsched.model import Instance, Packet


def mk(pid: str, release: int, deadline: int, weight, index: int = 0) -> Packet:
    return Packet(pid, release, deadline, Fraction(weight), index)


def key_space(*packet_sets):
    """One compiled key space over the distinct packets of ``packet_sets``
    (``offline._compile``), and each packet's key in it.  Equal packets
    share a key."""
    compiled = _compile(dict.fromkeys(chain(*packet_sets)))
    return compiled, {p: k for k, p in enumerate(compiled.packets)}


def advance_keys(policy, states, step, keys, compiled):
    """``engine.advance`` as exact mode steps it: the policy decides on
    each carried set of keys plus ``keys`` (``engine._transition``), over
    ``compiled``'s key space."""
    arrived = frozenset(keys)
    deadlines, weights = compiled.deadlines, compiled.weights
    return advance(
        states, lambda carry: _transition(policy, carry | arrived, step, deadlines, weights)
    )


def as_fractions(states, packets) -> dict:
    """An ``engine.States`` map in ``Fraction``s, each key mapped back to
    its packet in ``packets``: carried packets -> (probability,
    probability-weighted gain, path count)."""
    scale, denominator, entries = states
    return {
        frozenset(packets[k] for k in carry): (
            Fraction(prob, denominator),
            Fraction(weighted, denominator * scale),
            paths,
        )
        for carry, (prob, weighted, paths) in entries.items()
    }


def mk_instance(*rows) -> Instance:
    """Instance from ``(id, release, deadline, weight)`` rows."""
    return Instance.build(rows)


def random_agreeable(rng: random.Random, max_steps=4, max_per_step=3, spread=3) -> Instance:
    """Small random agreeable instance (duplicates the generator on purpose:
    tests should not trust the code under test for their inputs)."""
    rows = []
    floor = 0
    counter = 0
    for step in range(1, max_steps + 1):
        batch_max = 0
        for _ in range(rng.randint(0, max_per_step)):
            deadline = max(floor, step + 1) + rng.randrange(spread)
            weight = Fraction(rng.randint(1, 9), rng.randint(1, 3))
            rows.append((f"p{counter}", step, deadline, weight))
            counter += 1
            batch_max = max(batch_max, deadline)
        floor = max(floor, batch_max)
    return Instance.build(rows)
