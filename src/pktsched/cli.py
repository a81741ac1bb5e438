"""Command-line front end and file formats.

Instance files are JSON Lines, one packet per line in arrival order:

    {"id": "a", "r": 1, "d": 2, "w": "1/1"}

Weights accept any rational ("3/2", "3", 1.5); authoritative output fields
are always "numerator/denominator" strings, with decimal fields added only
as readable annotations.  Exit codes: 0 success, 1 validation error,
2 internal invariant violation (a structural check failing signals a bug).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import cache

from .analysis import (
    FAMILIES,
    GeneratorSpec,
    SearchResult,
    adversary_search,
    check_facts,
    competitive_ratio,
    generate,
)
from .engine import (
    DEFAULT_EXACT_CAP,
    ExactCapExceeded,
    RunReport,
    _rg_exact,
    run_policy,
    run_rg_mc,
)
from .model import MAX_DIGITS, _TOO_LONG, Instance, InvariantError, Packet, PacketError, as_weight
from .offline import opt_schedule
from .policies import POLICIES

CAP_ENV_VAR = "SCHED_EXACT_CAP"
_scan = json.JSONDecoder().scan_once


def parse_weight(text: str, option: str) -> Fraction:
    """The weight given on the command line as ``option``."""
    try:
        return as_weight(text)
    except ValueError as err:
        raise ValueError(f"{err} in {option}") from None


def format_rational(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def parse_instance(path: str) -> Instance:
    """Read a JSON Lines instance file; errors name the offending line.

    The reader checks only the format: one JSON object per line with the
    four fields.  It builds each distinct weight text once with the
    model's rule (``as_weight``), so packets with equal text share one
    ``Fraction``; a text the rule refuses is left as it is, for its packet
    to refuse after the id and steps.  ``Instance.build`` checks every
    packet and instance rule, and its ``PacketError`` is mapped from the
    packet's arrival index back to its line.
    """
    specs = []
    lines = []  # the line number of each packet, by arrival index
    weights = {}  # weight text -> its Fraction, or the text itself if refused
    with open(path, encoding="utf-8") as handle:
        for number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            try:  # the C scanner, which must read the whole line
                row, end = _scan(line, 0)
            except (StopIteration, ValueError, RecursionError):
                end = None
            if end != len(line):
                row = _reread(line, number)
            if not isinstance(row, dict):
                raise ValueError(f"expected an object, line {number}")
            try:
                pid, release, deadline, weight = row["id"], row["r"], row["d"], row["w"]
            except KeyError as err:
                raise ValueError(f"missing field {err.args[0]!r}, line {number}") from None
            if type(weight) is float:
                # Read through its shortest decimal form: 1.5 means exactly 3/2.
                weight = repr(weight)
            if type(weight) is str:
                # Keyed by text only: a value key would let true pass as 1.
                shared = weights.get(weight)
                if shared is None:
                    try:
                        shared = as_weight(weight)
                    except ValueError:
                        shared = weight
                    weights[weight] = shared
                weight = shared
            specs.append((pid, release, deadline, weight))
            lines.append(number)
    try:
        return Instance.build(specs)
    except PacketError as err:
        raise ValueError(f"{err}, line {lines[err.index]}") from None


def _reread(line: str, number: int):
    """Line ``number``, which the scanner did not read whole, parsed with
    every integer of more than ``MAX_DIGITS`` digits, which Python refuses
    to convert, read as the smallest int of its sign that long, so that the
    model refuses it in its own words.  A line that is still not JSON is a
    format fault."""

    def sized_int(text: str) -> int:
        negative = text.startswith("-")
        if len(text) - negative > MAX_DIGITS:
            return -_TOO_LONG if negative else _TOO_LONG
        return int(text)

    try:
        return json.loads(line, parse_int=sized_int)
    except (ValueError, RecursionError) as err:
        # RecursionError: nesting too deep for the decoder.
        raise ValueError(f"invalid JSON, line {number}: {err}") from None


def _packet_row(p: Packet) -> dict:
    """A packet as one instance-file object."""
    return {"id": p.id, "r": p.release, "d": p.deadline, "w": format_rational(p.weight)}


def write_instance(instance: Instance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for packet in instance:
            handle.write(json.dumps(_packet_row(packet)) + "\n")


def _rational_fields(name: str, value: Fraction) -> dict:
    return {name: format_rational(value), f"{name}_dec": float(value)}


def run_report_json(report: RunReport) -> dict:
    payload = {
        "command": "run",
        "policy": report.policy,
        "per_step": [
            {
                "step": record.step,
                "oblivious": list(record.scheduled_ids),
                "earliest": record.earliest.id,
                "heaviest": record.heaviest.id,
                "transmitted": record.transmitted.id,
                **_rational_fields("gain", record.transmitted.weight),
            }
            for record in report.per_step
        ],
    }
    payload.update(_rational_fields("total_gain", report.total_gain))
    payload.update(_rational_fields("opt", report.opt_value))
    payload.update(_rational_fields("ratio", report.ratio))
    return payload


def search_result_json(result: SearchResult) -> dict:
    payload = {
        "command": "search",
        "policy": result.policy,
        "nodes": result.nodes,
        "complete": result.complete,
        "witness": [_packet_row(p) for p in result.witness],
    }
    payload.update(_rational_fields("ratio", result.ratio))
    return payload


def _exact_cap() -> int:
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_EXACT_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"{CAP_ENV_VAR} must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ValueError(f"{CAP_ENV_VAR} must be positive")
    return cap


def _load(args, require_agreeable: bool) -> Instance:
    instance = parse_instance(args.instance)
    if require_agreeable and not instance.is_agreeable:
        raise ValueError(
            "instance is not agreeable (a later release has an earlier deadline); "
            "this command requires agreeable deadlines"
        )
    return instance


def _write_report(args, payload: dict) -> None:
    if getattr(args, "out", None):
        # Compact, in one write: with an indent, json takes its pure-Python
        # encoder, and json.dump writes every token apart.
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload, separators=(",", ":")) + "\n")


def _ratio_line(label: str, value: Fraction) -> str:
    return f"{label} = {format_rational(value)} (≈ {float(value):.3f})"


def _print_ratio(label: str, value: Fraction) -> None:
    print(_ratio_line(label, value))


def _cmd_run(args) -> int:
    instance = _load(args, require_agreeable=True)
    if args.policy == "rg":
        if args.trials is None:
            raise ValueError(
                "policy rg needs --trials for Monte Carlo runs; "
                "use the `expected` command for the exact expectation"
            )
        mean, stderr = run_rg_mc(instance, args.trials, args.seed)
        print(f"mean gain over {args.trials} trials = {mean!r} (stderr {stderr!r})")
        _write_report(
            args,
            {
                "command": "run",
                "policy": "rg",
                "trials": args.trials,
                "seed": args.seed,
                "mean": mean,
                "stderr": stderr,
            },
        )
        return 0
    report = run_policy(instance, args.policy)
    lines = [
        f"step {record.step}: transmit {record.transmitted.id} "
        f"(w={format_rational(record.transmitted.weight)}) "
        f"[oblivious: {','.join(record.scheduled_ids)} | "
        f"earliest {record.earliest.id}, heaviest {record.heaviest.id}]"
        for record in report.per_step
    ]
    lines.append(_ratio_line("total gain", report.total_gain))
    lines.append(_ratio_line("optimum", report.opt_value))
    lines.append(_ratio_line("ratio", report.ratio))
    print("\n".join(lines))
    _write_report(args, run_report_json(report))
    return 0


def _cmd_opt(args) -> int:
    instance = _load(args, require_agreeable=False)
    schedule, value = opt_schedule(instance.packets, instance.first_release)
    lines = [f"step {t}: {p.id} (w={format_rational(p.weight)})" for t, p in schedule.slots]
    lines.append(_ratio_line("optimum", value))
    print("\n".join(lines))
    payload = {
        "command": "opt",
        "slots": [{"step": t, "id": p.id} for t, p in schedule.slots],
    }
    payload.update(_rational_fields("opt", value))
    _write_report(args, payload)
    return 0


def _cmd_ratio(args) -> int:
    instance = _load(args, require_agreeable=True)
    ratio = competitive_ratio(instance, args.policy, cap=_exact_cap())
    _print_ratio("ratio", ratio)
    payload = {"command": "ratio", "policy": args.policy}
    payload.update(_rational_fields("ratio", ratio))
    _write_report(args, payload)
    return 0


def _cmd_expected(args) -> int:
    instance = _load(args, require_agreeable=True)
    expected, leaves, opt_value, ratio = _rg_exact(instance, cap=_exact_cap())
    _print_ratio("expected gain", expected)
    _print_ratio("optimum", opt_value)
    _print_ratio("ratio", ratio)
    print(f"branching leaves = {leaves}")
    payload = {"command": "expected", "leaves": leaves}
    payload.update(_rational_fields("expected_gain", expected))
    payload.update(_rational_fields("opt", opt_value))
    payload.update(_rational_fields("ratio", ratio))
    _write_report(args, payload)
    return 0


def _cmd_gen(args) -> int:
    spec = GeneratorSpec(
        family=args.family,
        steps=args.steps,
        max_per_step=args.per_step,
        weights=tuple(parse_weight(w, "--weights") for w in args.weights.split(",")),
        lifespan=args.lifespan,
        chain_length=args.chain_length,
        growth=parse_weight(args.growth, "--growth"),
        deadline_spread=args.spread,
        seed=args.seed,
    )
    instance = generate(spec)
    write_instance(instance, args.out)
    print(f"wrote {len(instance)} packets ({args.family}, seed {args.seed}) to {args.out}")
    return 0


def _cmd_search(args) -> int:
    menu = tuple(parse_weight(w, "--menu") for w in args.menu.split(","))
    result = adversary_search(
        args.policy,
        args.depth,
        menu,
        branching=args.branching,
        beam_width=args.beam,
        max_nodes=args.max_nodes,
    )
    status = "complete" if result.complete else "PARTIAL (node budget hit)"
    _print_ratio("best ratio", result.ratio)
    print(f"nodes explored = {result.nodes} ({status})")
    for packet in result.witness:
        print(
            f"  {packet.id}: r={packet.release} d={packet.deadline} "
            f"w={format_rational(packet.weight)}"
        )
    if args.witness_out:
        write_instance(result.witness, args.witness_out)
        print(f"witness written to {args.witness_out}")
    _write_report(args, search_result_json(result))
    return 0


def _cmd_check_facts(args) -> int:
    instance = _load(args, require_agreeable=True)
    report = check_facts(instance)
    lines = []
    for entry in report.steps:
        failed = [name for name, ok in entry.results.items() if not ok]
        status = "ok" if not failed else f"FAIL ({', '.join(failed)})"
        lines.append(f"step {entry.step}: {status}")
        if entry.note:
            lines.append(f"  note: {entry.note}")
    if report.passed:
        lines.append(f"all checks passed over {len(report.steps)} steps")
    print("\n".join(lines))
    payload = {
        "command": "check-facts",
        "passed": report.passed,
        "steps": [
            {"step": entry.step, "results": entry.results, "note": entry.note}
            for entry in report.steps
        ],
    }
    _write_report(args, payload)
    if report.passed:
        return 0
    print("structural checks FAILED; this indicates a bug", file=sys.stderr)
    return 2


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing reads it
    and leaves it as it was, so every ``main`` call can share it."""
    parser = argparse.ArgumentParser(
        prog="pktsched",
        description="Exact workbench for online packet scheduling with agreeable deadlines.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="simulate a policy over an instance")
    run.add_argument("--policy", required=True, choices=POLICIES)
    run.add_argument("--instance", required=True)
    run.add_argument("--trials", type=int, default=None, help="Monte Carlo trials (rg)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--out", help="write a JSON report")
    run.set_defaults(handler=_cmd_run)

    opt = commands.add_parser("opt", help="exact offline optimum")
    opt.add_argument("--instance", required=True)
    opt.add_argument("--out")
    opt.set_defaults(handler=_cmd_opt)

    ratio = commands.add_parser("ratio", help="competitive ratio of a policy")
    ratio.add_argument("--policy", required=True, choices=POLICIES)
    ratio.add_argument("--instance", required=True)
    ratio.add_argument("--out")
    ratio.set_defaults(handler=_cmd_ratio)

    expected = commands.add_parser(
        "expected", help="exact expected gain of the randomized policy"
    )
    expected.add_argument("--instance", required=True)
    expected.add_argument("--out")
    expected.set_defaults(handler=_cmd_expected)

    gen = commands.add_parser("gen", help="generate an instance file")
    gen.add_argument("--family", required=True, choices=FAMILIES)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.add_argument("--steps", type=int, default=4)
    gen.add_argument("--per-step", dest="per_step", type=int, default=2)
    gen.add_argument("--weights", default="1,2,3,5,8", help="comma-separated rationals")
    gen.add_argument("--lifespan", type=int, default=2, help="lifespan for s-uniform")
    gen.add_argument("--chain-length", dest="chain_length", type=int, default=4)
    gen.add_argument("--growth", default="987/610", help="golden-chain weight ratio")
    gen.add_argument("--spread", type=int, default=3, help="agreeable-random deadline spread")
    gen.set_defaults(handler=_cmd_gen)

    search = commands.add_parser("search", help="adversarial worst-case search")
    search.add_argument("--policy", required=True, choices=POLICIES)
    search.add_argument("--depth", type=int, required=True)
    search.add_argument("--menu", required=True, help="comma-separated weights")
    search.add_argument("--branching", type=int, default=2)
    search.add_argument("--beam", type=int, default=None, help="beam width (default exhaustive)")
    search.add_argument("--max-nodes", dest="max_nodes", type=int, default=None)
    search.add_argument("--witness-out", dest="witness_out")
    search.add_argument("--out")
    search.set_defaults(handler=_cmd_search)

    facts = commands.add_parser(
        "check-facts", help="verify structural schedule properties step by step"
    )
    facts.add_argument("--instance", required=True)
    facts.add_argument("--out")
    facts.set_defaults(handler=_cmd_check_facts)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.handler(args)
    except ExactCapExceeded as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except InvariantError as err:
        print(f"internal invariant violation: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
