"""The machine's speed, sampled while the benchmark measures.

On a shared host the speed of a vCPU changes within seconds, because of
other tenants.  While sampling is on, a timer interrupts the program every
``INTERVAL_S`` and times a small fixed probe that shares no code with the
program: integer arithmetic and dict updates on ints only, so neither the
program nor its garbage-collector settings change it.  ``clock`` leaves the
sampling time out, and ``take_scale`` gives the factor that brings the time
measured since its last call to reference speed: ``REFERENCE_S`` over the
mean probe time.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.02
PROBE_LOOPS = 500
REFERENCE_S = 120e-6  # brings times close to wall times on an unloaded 2-vCPU reference machine

samples: list[float] = []  # probe times since the last take_scale
taken: list[float] = []  # every probe time, for the report
_stolen = 0.0  # seconds spent sampling
_scale = 1.0


def probe_seconds() -> float:
    began = time.perf_counter()
    table = {}
    x = 1
    for i in range(PROBE_LOOPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = x & 1023
        table[key] = table.get(key, 0) + (i & 7)
    return time.perf_counter() - began


def _sample(signum, frame) -> None:
    global _stolen
    began = time.perf_counter()
    samples.append(probe_seconds())
    _stolen += time.perf_counter() - began


def clock() -> float:
    """``time.perf_counter`` less the time spent sampling."""
    return time.perf_counter() - _stolen


def start() -> None:
    signal.signal(signal.SIGALRM, _sample)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)


def stop() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0, 0)


def take_scale() -> float:
    """The factor for the time measured since the last call; the previous
    factor if no probe ran in between."""
    global _scale
    if samples:
        _scale = REFERENCE_S * len(samples) / sum(samples)
        taken.extend(samples)
        samples.clear()
    return _scale
