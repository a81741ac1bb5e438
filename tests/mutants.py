"""The mutation gate: each mutant is one exact-text edit of the program that
the tests it names must fail.

    python tests/mutants.py

For each mutant the script copies ``src/``, ``tests/`` and
``pyproject.toml`` into a temporary directory, applies the edit there,
runs pytest on the mutant's node ids and prints KILLED (a test failed) or
SURVIVED (every test passed).  The checkout itself is never edited.  It exits 1 if a mutant survives, if the inert mutant (a comment
edit, which no test can see) does not, if pytest reports anything but
passed or failed tests, or if a mutant's old text does not occur exactly
once in its file: a refactor must re-express a mutant, not lose it.
Without a ``test_`` prefix this file is not collected by pytest; in the
mutants' runs it is loaded as a pytest plugin, which turns off hypothesis's
shrinking, since a verdict needs a failure, not the smallest one.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
OFFLINE = "src/pktsched/offline.py"
CARRIED_BASIS = ("tests/test_offline.py::TestCarriedBasis",)
CARRIED_CONFORMING = ("tests/test_offline.py::TestCarriedConforming",)
SOLVE = (
    "tests/test_offline.py::TestOptSchedule",
    "tests/test_offline.py::TestCarriedConforming",
    "tests/test_offline.py::TestConformingClairvoyant",
)
WALK = ("tests/test_engine.py::TestRunPolicy", "tests/test_analysis.py")
SHARED_SOLVE = ("tests/test_engine.py::TestSharedSolve",)
ANALYSIS = "src/pktsched/analysis.py"
FACTS = (
    "tests/test_analysis.py::TestCheckFacts",
    "tests/test_offline.py::TestConformingClairvoyant",
)
CHECK_FACTS = ("tests/test_analysis.py::TestCheckFacts",)
DAG = ("tests/test_analysis.py::TestDagSearch",)
TABLE = ("tests/test_analysis.py::TestOfflineTableMemo",)
DECISION = ("tests/test_analysis.py::TestSearchDecisions::test_every_node_matches_the_engine",)
CLI = "src/pktsched/cli.py"
POLICIES = "src/pktsched/policies.py"
ENGINE = "src/pktsched/engine.py"
MODEL = "src/pktsched/model.py"
WEIGHT_MEMO = (
    "tests/test_cli.py::TestInstanceFiles::test_weight_faults_keep_their_place",
    "tests/test_cli.py::TestInstanceFiles::test_reader_matches_the_reader_without_a_weight_memo",
)


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]
    survives: bool = False  # only the inert mutant


MUTANTS = (
    # The carried oblivious schedule, offline._Basis.
    Mutant(
        "basis: first-ranked circuit member dropped on arrival",
        OFFLINE,
        "if end <= len(dls):\n            y = max(keys[:end])",
        "if end <= len(dls):\n            y = min(keys[:end])",
        CARRIED_BASIS,
    ),
    Mutant(
        "basis: first-ranked circuit member dropped on the lost slot",
        OFFLINE,
        "    if end <= i:\n        y = max(keys[:end])",
        "    if end <= i:\n        y = min(keys[:end])",
        CARRIED_BASIS,
    ),
    Mutant(
        "basis: replacement skipped",
        OFFLINE,
        "    if rest:\n        slack = list(",
        "    if False:\n        slack = list(",
        CARRIED_BASIS,
    ),
    Mutant(
        "basis: lost slot ignored",
        OFFLINE,
        "    if end <= i:",
        "    if False:",
        CARRIED_BASIS,
    ),
    Mutant(
        "basis: lost-slot scan cut to the prefix after a replacement",
        OFFLINE,
        "                i = len(dls)\n",
        "",
        CARRIED_BASIS,
    ),
    Mutant(
        "basis: the tight scan jumps one position past its slack",
        OFFLINE,
        "j += slack if slack > 0 else 1",
        "j += slack + 1 if slack > 0 else 1",
        CARRIED_BASIS,
    ),
    # The carried conforming basis, offline._Conforming.
    Mutant(
        "conforming: first-ranked circuit member dropped",
        OFFLINE,
        "slack.index(1) + 1\n            y = max(keys[:end])",
        "slack.index(1) + 1\n            y = min(keys[:end])",
        CARRIED_CONFORMING,
    ),
    Mutant(
        "conforming: replacement skipped",
        OFFLINE,
        "        if rest:\n            _conforming_replace(",
        "        if False:\n            _conforming_replace(",
        CARRIED_CONFORMING,
    ),
    Mutant(
        "conforming: lost slot ignored",
        OFFLINE,
        "    if slots and slots[0] == step:",
        "    if False:",
        CARRIED_CONFORMING,
    ),
    Mutant(
        "conforming: r' placement among equal deadlines skipped",
        OFFLINE,
        "    if r > step:\n        # Past the members",
        "    if False:\n        # Past the members",
        CARRIED_CONFORMING,
    ),
    Mutant(
        "conforming: a member released at the sent slot does not move up",
        OFFLINE,
        "releases[keys[i]] <= slot",
        "releases[keys[i]] < slot",
        CARRIED_CONFORMING,
    ),
    Mutant(
        "conforming: the waiting scan reads the next member's release",
        OFFLINE,
        "map(releases.__getitem__, keys[i:end])",
        "map(releases.__getitem__, keys[i + 1:end + 1])",
        CARRIED_CONFORMING,
    ),
    # The agreeable optimum's exchange pass, offline._fifo_solve.
    Mutant(
        "solve: first-ranked circuit member leaves",
        OFFLINE,
        "            y = max(keys[p:])",
        "            y = min(keys[p:])",
        SOLVE,
    ),
    Mutant(
        "solve: the circuit taken from the first pin",
        OFFLINE,
        "            p = pinned[-1]",
        "            p = pinned[0]",
        SOLVE,
    ),
    Mutant(
        "solve: the pin scan after a drop starts one r' too high",
        OFFLINE,
        "bisect_left(firsts, slots[i], i)",
        "bisect_left(firsts, slots[i] + 1, i)",
        SOLVE,
    ),
    Mutant(
        "solve: no new pins recorded after a drop",
        OFFLINE,
        "                pinned.extend(compress(count(i), map(eq, firsts[i:], slots[i:])))\n",
        "",
        SOLVE,
    ),
    Mutant(
        "solve: the leaver's slot dropped instead of the run moving back",
        OFFLINE,
        "del keys[i], firsts[i], slots[-1]",
        "del keys[i], firsts[i], slots[i]",
        SOLVE,
    ),
    # The single-path walk, offline._walk.
    Mutant(
        "walk: expiry read at the step instead of the next",
        OFFLINE,
        "deadlines, expiring.get(step + 1, ()))",
        "deadlines, expiring.get(step, ()))",
        WALK,
    ),
    Mutant(
        "walk: the total adds the earliest key's weight",
        OFFLINE,
        "        total += weights[sent]",
        "        total += weights[e]",
        WALK,
    ),
    Mutant(
        "walk: the earliest key overrides the chooser beyond two keys",
        OFFLINE,
        "        sent = choose(step, sequence, e, h)",
        "        sent = choose(step, sequence, e, h) if len(sequence) <= 2 else e",
        WALK,
    ),
    # The start solve that an instance's runs and fact checks share,
    # offline._solved.  Solving from step 1 instead of the first arrival
    # step gives the same lists (every key has r' = max(release, start) =
    # release either way), so only the solve's start argument shows it.
    Mutant(
        "shared solve: check_facts moves the cached lists, not a copy",
        ANALYSIS,
        "_Conforming(*map(list.copy, solved))",
        "_Conforming(*solved)",
        SHARED_SOLVE,
    ),
    Mutant(
        "shared solve: taken from step 1, not the first arrival step",
        OFFLINE,
        "everything, start = range(len(compiled.packets)), next(iter(compiled.arrivals), 1)",
        "everything, start = range(len(compiled.packets)), 1",
        SHARED_SOLVE,
    ),
    Mutant(
        "shared solve: taken from the step after the first arrival",
        OFFLINE,
        "everything, start = range(len(compiled.packets)), next(iter(compiled.arrivals), 1)",
        "everything, start = range(len(compiled.packets)), next(iter(compiled.arrivals)) + 1",
        SHARED_SOLVE,
    ),
    Mutant(
        "shared solve: the FIFO pass accepts a falling deadline",
        OFFLINE,
        "        if d < floor:",
        "        if False:",
        SHARED_SOLVE,
    ),
    # The conforming schedule's front and the fact checks,
    # offline._conforming_front and analysis._check_step.
    Mutant(
        "layout: the largest equal-weight substitute",
        OFFLINE,
        "substitute = min(k for k in oblivious",
        "substitute = max(k for k in oblivious",
        FACTS,
    ),
    Mutant(
        "layout: the first slot keyed (deadline, -rank)",
        OFFLINE,
        "first = min(keys[: bisect_right(dls, dls[0], 0, n)])",
        "first = max(keys[: bisect_right(dls, dls[0], 0, n)])",
        FACTS,
    ),
    Mutant(
        "front: the first slot taken as C's first FIFO member",
        OFFLINE,
        "first = min(keys[: bisect_right(dls, dls[0], 0, n)])",
        "first = keys[0]",
        CHECK_FACTS,
    ),
    Mutant(
        "front: a future rank counted among the released ones",
        OFFLINE,
        "key=lambda k: releases[k] > step)",
        "key=lambda k: releases[k] > step + 1)",
        CHECK_FACTS,
    ),
    Mutant(
        "facts: the conforming order always holds",
        ANALYSIS,
        'results["conforming_built"] = releases[first] <= step < deadlines[first]',
        'results["conforming_built"] = True',
        FACTS,
    ),
    Mutant(
        "facts: the first slot's window includes its deadline",
        ANALYSIS,
        "releases[first] <= step < deadlines[first]",
        "releases[first] <= step <= deadlines[first]",
        FACTS,
    ),
    Mutant(
        "facts: the first slot's window excludes its release",
        ANALYSIS,
        "releases[first] <= step < deadlines[first]",
        "releases[first] < step < deadlines[first]",
        FACTS,
    ),
    # The exhaustive search's transposition DAG, analysis._dag_build,
    # _dag_key and _dag_descent, and the rows that score its last level.
    Mutant(
        "dag: nodes keyed without their table shape",
        ANALYSIS,
        "    return sid, frozenset((top, prob // divisor) for top, (prob, _, _) in states",
        "    return frozenset((top, prob // divisor) for top, (prob, _, _) in states",
        DAG,
    ),
    Mutant(
        "dag: nodes keyed without their probabilities",
        ANALYSIS,
        "    return sid, frozenset((top, prob // divisor) for top, (prob, _, _) in states.carried.items())",
        "    return sid, frozenset(states.carried)",
        DAG,
    ),
    Mutant(
        "dag: the descent enters the last attaining child",
        ANALYSIS,
        "for oi, (child, da, db) in enumerate(rows[node]):",
        "for oi, (child, da, db) in reversed(list(enumerate(rows[node]))):",
        DAG,
    ),
    Mutant(
        "dag rows: the gain row drops the drain of the carried weight",
        ANALYSIS,
        "f * (sent + carry)",
        "f * sent",
        DAG,
    ),
    Mutant(
        "dag rows: the gain row not rescaled to the lottery lcm",
        ANALYSIS,
        "row.append(lottery // den * sum(",
        "row.append(sum(",
        DAG,
    ),
    Mutant(
        "dag rows: a front keeps a pair that an equal-x pair after it beats",
        ANALYSIS,
        "if front and x == front[-1][1]:",
        "if False:",
        DAG,
    ),
    Mutant(
        "dag rows: the optimum row drains the parent's shape",
        ANALYSIS,
        "(delta + drained[nxt]) * unit",
        "drained[sid] * unit",
        DAG,
    ),
    # The search's closed-form policy step, analysis._decision.
    Mutant(
        "decision: the carried weight ignored",
        ANALYSIS,
        "    a = max(top, expiring)",
        "    a = expiring",
        DECISION,
    ),
    Mutant(
        "decision: no one-slot packet taken for one that is kept",
        ANALYSIS,
        "    if a == 0 or l2 > a:",
        "    if l2 > a:",
        DECISION,
    ),
    Mutant(
        "decision: the one-slot packet loses a tie with L2",
        ANALYSIS,
        "    if a == 0 or l2 > a:",
        "    if a == 0 or l2 >= a:",
        DECISION,
    ),
    Mutant(
        "decision: sending the one-slot packet carries L2 on",
        ANALYSIS,
        "    if a >= l1:\n        return 1, ((l1, 1, a),)",
        "    if a >= l1:\n        return 1, ((l2, 1, a),)",
        DECISION,
    ),
    # The offline table's step, analysis._advance_opt_state through the
    # (shape, move) memo of _SearchKernel.table_step.
    Mutant(
        "table: the step drops the second long-lived arrival",
        ANALYSIS,
        "max(expiring, top, l2)",
        "max(expiring, top)",
        TABLE,
    ),
    Mutant(
        "table: the step drops its send-L1-now entry",
        ANALYSIS,
        "    return {l1: keep, l2: max(value for _, value in items) + l1}",
        "    return {l1: keep}",
        TABLE,
    ),
    Mutant(
        "table: the memo keyed by shape alone",
        ANALYSIS,
        "nxt = self.steps.get((sid, move))\n        if nxt is None:\n            nxt = self.steps[sid, move]",
        "nxt = self.steps.get(sid)\n        if nxt is None:\n            nxt = self.steps[sid]",
        TABLE,
    ),
    Mutant(
        "table: the offset not carried",
        ANALYSIS,
        "        offset = table[1] + delta",
        "        offset = delta",
        TABLE,
    ),
    # The instance reader's C scanner, cli.parse_instance.
    Mutant(
        "reader: a line the scanner read only in part accepted",
        CLI,
        "            if end != len(line):",
        "            if end is None:",
        ("tests/test_cli.py::TestInstanceFiles::test_json_faults_keep_the_decoder_message",),
    ),
    # The instance reader's weight memo, cli.parse_instance.
    Mutant(
        "reader: the memo keyed by value, booleans included",
        CLI,
        "            if type(weight) is str:",
        "            if type(weight) in (str, int, bool):",
        WEIGHT_MEMO,
    ),
    Mutant(
        "reader: as_weight's error raised by the reader",
        CLI,
        "                    except ValueError:\n                        shared = weight",
        "                    except ValueError:\n                        raise",
        WEIGHT_MEMO,
    ),
    Mutant(
        "reader: a refused text mapped to an accepted weight",
        CLI,
        "                        shared = weight",
        "                        shared = Fraction(1)",
        WEIGHT_MEMO,
    ),
    # The policies' rules, policies._rg_lottery and policies._choose.
    Mutant(
        "policies: rg's lottery numerators swapped",
        POLICIES,
        "return w_h // g, w_e // g, (w_h - w_e) // g",
        "return w_h // g, (w_h - w_e) // g, w_e // g",
        ("tests/test_policies.py::TestRgDistribution",),
    ),
    Mutant(
        "policies: mg's candidate needs no weight above phi * w_e",
        POLICIES,
        "if not _within_golden(w_e, w_p) and _within_golden(w_p, w_h):",
        "if _within_golden(w_p, w_h):",
        ("tests/test_policies.py::TestMgChoose",),
    ),
    # The exact expectation's state merge and the Monte Carlo streams.
    Mutant(
        "engine: merged outcomes keep one path count",
        ENGINE,
        "entry[2] + paths)",
        "entry[2])",
        ("tests/test_engine.py::TestRunRgExact",),
    ),
    Mutant(
        "engine: a trial's seed text reversed",
        ENGINE,
        'f"{seed}:{trial}"',
        'f"{trial}:{seed}"',
        ("tests/test_engine.py::TestRunRgMc",),
    ),
    # The weight rule and the agreeable test, model.as_weight and
    # model.has_agreeable_deadlines.
    Mutant(
        "model: a bool accepted as a weight",
        MODEL,
        "weight = None if type(value) is bool else Fraction(value)",
        "weight = Fraction(value)",
        ("tests/test_model.py::TestPacketValidation",),
    ),
    Mutant(
        "model: an equal deadline of a later release breaks agreeability",
        MODEL,
        "        if packet.deadline < floor:",
        "        if packet.deadline <= floor:",
        ("tests/test_model.py::TestInstance",),
    ),
    Mutant(
        "inert: a comment reworded",
        OFFLINE,
        "# Stable on the greedy order: the deadline-first order.",
        "# Stable on the greedy order, which is the deadline-first order.",
        CARRIED_CONFORMING,
        survives=True,
    ),
)


def run(mutant: Mutant) -> tuple[str, bool]:
    """Apply ``mutant`` to a fresh copy and run its tests; returns the
    verdict and whether it is the expected one."""
    text = (ROOT / mutant.path).read_text()
    found = text.count(mutant.old)
    if found != 1:
        return f"OLD TEXT FOUND {found} TIMES", False
    with tempfile.TemporaryDirectory(prefix="pktsched-mutant-") as tmp:
        copy = Path(tmp)
        for tree in ("src", "tests"):
            shutil.copytree(
                ROOT / tree, copy / tree, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis")
            )
        shutil.copy(ROOT / "pyproject.toml", copy)
        (copy / mutant.path).write_text(text.replace(mutant.old, mutant.new))
        path = os.pathsep.join(("src", "tests"))
        env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
        options = ["-x", "-q", "-p", "no:cacheprovider", "-p", "mutants"]
        done = subprocess.run(
            [sys.executable, "-m", "pytest", *options, *mutant.tests],
            cwd=copy,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
    if done.returncode == 0:
        return "SURVIVED", mutant.survives
    if done.returncode == 1:
        return "KILLED", not mutant.survives
    return f"PYTEST EXIT {done.returncode}", False


def pytest_configure(config) -> None:
    """In a mutant's run: hypothesis stops at a failing example unshrunk."""
    from hypothesis import Phase, settings

    settings.register_profile("mutants", phases=(Phase.explicit, Phase.reuse, Phase.generate))
    settings.load_profile("mutants")


def main() -> int:
    failed = 0
    for mutant in MUTANTS:
        began = time.perf_counter()
        verdict, expected = run(mutant)
        mark = "" if expected else "  <-- unexpected"
        print(f"{verdict:9} {time.perf_counter() - began:5.1f} s  {mutant.name}{mark}", flush=True)
        failed += not expected
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants as expected")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
