"""Regenerate perfbench/pins.json: exact outputs the benchmark compares with.

    python3 perfbench/make_pins.py

Search pins (witness ratio and witness per weight menu and policy) cover
every menu the ``search`` workload can draw and the four-weight menu it
checks once per run.  Large pins (mg-prime gain and ratio, Monte Carlo mean
and standard error bit for bit, fact-check step count) cover
``workloads.PINNED_SEEDS`` and the held-out seed; for other seeds the
``large`` workload still checks the optimum against an independent reference
and every repeat against the first.  Pins are taken from the program as it is when this is run, so
run it only on a commit whose outputs are trusted.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import run
import workloads


def ratio_text(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def search_pins(pk) -> dict:
    pins = {}
    for menu in (*workloads.SEARCH_MENUS, workloads.CHECK_MENU):
        entry = {}
        for policy in ("mg-prime", "rg"):
            result = pk.analysis.adversary_search(
                policy, workloads.SEARCH_DEPTH, [Fraction(w) for w in menu]
            )
            entry[policy] = {
                "ratio": ratio_text(result.ratio),
                "witness": [[p.id, p.release, p.deadline, str(p.weight)] for p in result.witness],
            }
        pins[",".join(map(str, menu))] = entry
        print(f"search menu {menu}: {entry['mg-prime']['ratio']}, {entry['rg']['ratio']}",
              file=sys.stderr)
    return pins


def large_pins(pk, seed: int, work) -> list:
    large = workloads.Large(pk, seed, work, {})
    large.setup()
    pins = []
    for instance, mc_seed in zip(large.instances, large.mc_seeds):
        report = pk.engine.run_policy(instance, "mg-prime")
        mean, stderr = pk.engine.run_rg_mc(instance, workloads.LARGE_TRIALS, mc_seed)
        facts_instance = pk.model.Instance(instance.packets[: workloads.LARGE_FACTS_PACKETS])
        facts = pk.analysis.check_facts(facts_instance)
        if not facts.passed:
            raise SystemExit(f"seed {seed}: fact checks fail; refusing to pin")
        pins.append({
            "mg_prime_gain": ratio_text(report.total_gain),
            "mg_prime_ratio": ratio_text(report.ratio),
            "mc_mean": repr(mean),
            "mc_stderr": repr(stderr),
            "facts_steps": len(facts.steps),
        })
    return pins


def main() -> int:
    sys.path[:0] = [str(run.ROOT / "src"), str(run.ROOT / "tests")]
    scratch = run.ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="pins-", dir=scratch))
    pk = run.import_modules()
    pins = {"search": search_pins(pk), "large": {}}
    try:
        for seed in [*workloads.PINNED_SEEDS, workloads.HELD_OUT_SEED]:
            pins["large"][str(seed)] = large_pins(pk, seed, work)
            print(f"large seed {seed}: pinned", file=sys.stderr)
    finally:
        shutil.rmtree(work)
    (run.HERE / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
