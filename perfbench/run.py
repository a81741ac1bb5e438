"""pktsched benchmark: one workload per run, closed loop, outputs checked.

    python3 perfbench/run.py --workload sweep|search|large --seed N \
        --seconds S --trace 0|1

Run from the repository root (or anywhere: paths are resolved from this
file).  The program is imported from ``src/`` and the independent oracles
from ``tests/oracles.py``; nothing is installed or built.  Scratch files go
to a private directory under ``.perfbench_work/`` at the repository root,
removed at exit; traced runs leave their spans there.

``--trace 0`` runs whole rounds for ``--seconds`` and prints the end-to-end
metrics listed in BENCHMARK.json.  Their times are given at reference speed
(``speed.py``): the machine's speed is sampled during the measured work and
each stretch of operations is scaled by it, so that the machine's own
changes of speed, from other tenants of a shared host, cancel out.

``--trace 1`` runs a fixed number of rounds instead (each workload's
``trace_rounds``, sized to take 20-30 s on a 2-vCPU virtual machine), so its
totals cover the same work on every commit; it runs each operation once
untraced and once traced, checks that both give identical outputs, and
prints the per-layer metrics.

Human-readable lines go first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import speed
from tracing import Tracer, layer_metrics
from workloads import WORKLOADS, Modules, Op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5  # the run's own set-up and four more, each in a new interpreter
MIN_SAMPLES = 5  # speed samples per scaled stretch of operations


def import_modules():
    """Import pktsched and the oracles."""
    layers = {
        name: importlib.import_module(f"pktsched.{name}")
        for name in ("model", "offline", "policies", "engine", "analysis", "cli")
    }
    return Modules(**layers, oracles=importlib.import_module("oracles"))


def set_up(name: str, seed: int, work: Path, pins: dict):
    """Import the program, make the inputs and warm up.  Called first thing
    in a process, so the import is a fresh one.  Returns the workload and
    the set-up time, at reference speed and as measured."""
    speed.start()
    began = speed.clock()
    workload = WORKLOADS[name](import_modules(), seed, work, pins)
    workload.setup()
    workload.warm()
    seconds = speed.clock() - began
    speed.stop()
    return workload, (seconds * speed.take_scale(), seconds)


def fresh_setup_seconds(name: str, seed: int, work: Path) -> tuple:
    """The set-up times of one more set-up, in a new interpreter: this
    script run with ``--setup-only``, waited for before returning."""
    child = tempfile.mkdtemp(prefix="setup-", dir=work)
    done = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed),
         "--seconds", "0", "--setup-only", child],
        stdout=subprocess.PIPE, text=True, check=True, timeout=120,
    )
    return tuple(json.loads(done.stdout.splitlines()[-1]))


def closed_loop(workload, seconds: float, outcomes) -> None:
    """Run whole rounds, each operation after the previous one returns,
    until ``seconds`` of wall time have passed (at least one round), then
    the workload's final operations.  Once ``MIN_SAMPLES`` speed samples
    have been taken, the operations since the last such point are checked,
    counted and recorded at reference speed."""
    window = []

    def step(spec):
        window.append(run_op(workload, spec))
        if len(speed.samples) >= MIN_SAMPLES:
            flush()

    def flush():
        scale = speed.take_scale()
        for op in window:
            outcomes.add(op, bool(op.times) and workload.record(op, scale))
        window.clear()

    speed.start()
    try:
        began = time.perf_counter()
        for n, batch in enumerate(workload.rounds(trace=False)):
            if n and time.perf_counter() - began >= seconds:
                break
            for spec in batch:
                step(spec)
        for spec in workload.final():
            step(spec)
    finally:
        speed.stop()
    flush()


def checked_op(workload, outcomes, spec) -> None:
    """Run one operation untraced, check it and count it."""
    op = run_op(workload, spec)
    outcomes.add(op, bool(op.times) and workload.record(op))


def run_op(workload, spec):
    try:
        return workload.run(spec)
    except Exception as err:  # a crash is a failed operation, reported below
        workload.fail(f"{spec}: {traceback.format_exc()}")
        return Op(spec, {}, 0, repr(err), failed=True)


class Outcomes:
    """Operations attempted and failed, and the known defects among the failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known = []

    def add(self, op: Op, mismatch: bool = False) -> None:
        """Count one operation; a crash, an error exit or a wrong output fails it."""
        self.attempted += 1
        self.failed += op.failed or mismatch
        if op.known_defect:
            self.known.append(op.known_defect)

    def report(self, workload) -> None:
        print(f"ops_failed_ratio = {self.failed / self.attempted:.6g} "
              f"({self.failed}/{self.attempted}, known-defect probes: "
              f"{', '.join(self.known) or 'none'})")
        for message in workload.errors[:20]:
            print(f"CHECK FAILED {message}", file=sys.stderr)

    def line(self, workload, values: dict, declared: list) -> str:
        """The result object: every declared metric, by name, with its unit."""
        metrics = {e["name"]: {"value": values[e["name"]], "unit": e["unit"]} for e in declared}
        return json.dumps({
            "correct": not workload.errors,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        })


def measure(args, declared) -> int:
    workload, first = set_up(args.workload, args.seed, args.work, args.pins)
    setups = [first] + [
        fresh_setup_seconds(args.workload, args.seed, args.work)
        for _ in range(SETUP_REPEATS - 1)
    ]
    outcomes = Outcomes()

    closed_loop(workload, args.seconds, outcomes)
    workload.finish()
    measured = workload.measures()
    values = {
        "setup_s": statistics.median(s for s, _ in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "work_per_s": measured["work_per_s"],
        "kind_geomean_us": measured["kind_geomean_us"],
    }
    print(f"workload {args.workload}, seed {args.seed}: {outcomes.attempted} operations, "
          f"set-up done {SETUP_REPEATS} times, each in a new interpreter: "
          f"{', '.join(f'{x:.4g}' for _, x in setups)} s as measured")
    print(f"speed probe: median {statistics.median(speed.taken) * 1e6:.4g} us over "
          f"{len(speed.taken)} samples, reference {speed.REFERENCE_S * 1e6:.4g} us; "
          f"times below are at reference speed")
    for name, (value, unit) in measured["named"].items():
        print(f"{name} = {value:.6g} {unit}")
    for entry in declared:
        print(f"{entry['name']} = {values[entry['name']]:.6g} {entry['unit']}")
    outcomes.report(workload)
    print(outcomes.line(workload, values, declared))
    return 0


def trace(args, declared) -> int:
    pk = import_modules()
    workload = WORKLOADS[args.workload](pk, args.seed, args.work, args.pins)
    tracer = Tracer(pk.layers())
    tracer.install()
    try:
        workload.setup()  # traced: set-up work shows in its layers
    finally:
        tracer.uninstall()
    workload.warm()
    outcomes = Outcomes()
    seconds = {"untraced": 0.0, "traced": 0.0}

    def pair(spec):
        # Each operation runs untraced and traced, alternating which goes
        # first, and each is scaled to reference speed, so that drifts in
        # machine speed are not taken for overhead.
        ops = {}
        for traced in (True, False)[:: 1 if outcomes.attempted % 4 else -1]:
            if traced:
                tracer.install()
            try:
                ops[traced] = run_op(workload, spec)
            finally:
                tracer.uninstall()
            seconds["traced" if traced else "untraced"] += (
                sum(ops[traced].times.values()) * speed.take_scale())
        mismatch = ops[True].output != ops[False].output
        if mismatch:
            workload.fail(f"{spec}: traced output {ops[True].output} != untraced {ops[False].output}")
        if ops[False].times:
            mismatch |= workload.record(ops[False])
        for op in ops.values():
            outcomes.add(op, mismatch)

    speed.start()
    try:
        for batch in itertools.islice(workload.rounds(trace=True), workload.trace_rounds):
            for spec in batch:
                pair(spec)
    finally:
        speed.stop()
    # Final operations are checks (and the search's use worker processes,
    # whose spans would be lost): run once, untraced.
    for spec in workload.final():
        checked_op(workload, outcomes, spec)
    workload.finish()
    values = layer_metrics(tracer.summary())
    untraced, traced = seconds["untraced"], seconds["traced"]
    values.update({
        "trace.untraced_s": untraced,
        "trace.traced_s": traced,
        "trace.overhead_s": traced - untraced,
        "trace.overhead_ratio": (traced - untraced) / untraced,
        "trace.spans": len(tracer.start),
    })
    spans = args.work.parent / f"spans-{args.workload}.tsv.gz"
    tracer.write(spans)
    print(f"workload {args.workload}, seed {args.seed}: {workload.trace_rounds} rounds, "
          f"each operation run untraced and traced; spans written to {spans.relative_to(ROOT)}")
    for entry in declared:
        print(f"{entry['name']} = {values[entry['name']]:.6g} {entry['unit']}")
    outcomes.report(workload)
    print(outcomes.line(workload, values, declared))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    missing = [p for p in ("src/pktsched/__init__.py", "tests/oracles.py", "BENCHMARK.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a pktsched checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    args.pins = json.loads((HERE / "pins.json").read_text())
    if args.setup_only:  # one set-up for fresh_setup_seconds; its caller removes DIR
        print(json.dumps(set_up(args.workload, args.seed, Path(args.setup_only), args.pins)[1]))
        return 0
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    args.work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        if args.trace:
            return trace(args, benchmark["per_layer"])
        return measure(args, benchmark["end_to_end"])
    finally:
        shutil.rmtree(args.work)


if __name__ == "__main__":
    sys.exit(main())
