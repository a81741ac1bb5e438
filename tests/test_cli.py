import json
import re
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import mk_instance

from pktsched import analysis, cli, engine, offline
from pktsched.analysis import golden_chain
from pktsched.model import MAX_DIGITS, Instance, InvariantError


@st.composite
def instances(draw):
    """Up to 6 packets with distinct ids of any text, quotes and non-ASCII
    included, nondecreasing releases from 1 on, lifespans from 1 and
    weights n/d."""
    ids = draw(st.lists(st.text(min_size=1, max_size=8), max_size=6, unique=True))
    rows = []
    release = 1
    for pid in ids:
        release += draw(st.integers(0, 3))
        lifespan = draw(st.integers(1, 5))
        weight = Fraction(draw(st.integers(1, 10**6)), draw(st.integers(1, 10**6)))
        rows.append((pid, release, release + lifespan, weight))
    return Instance.build(rows)


def _line(pid, release, deadline, weight) -> str:
    return json.dumps({"id": pid, "r": release, "d": deadline, "w": weight})


# One malformed line for the reader: kind -> the line, given a valid row
# (id, release, deadline, weight text) and the first line's id.  The first
# four are format faults the reader finds; the rest break a packet or
# instance rule that the model finds.  Every release of a valid file is at
# least 2, so "earlier-release" moves a packet before the line above it.
MALFORMED = {
    "bad-json": lambda row, first: _line(*row)[:-1],
    "non-object": lambda row, first: json.dumps(list(row)),
    "missing-field": lambda row, first: json.dumps({"id": row[0], "r": row[1], "w": row[3]}),
    "bool-step": lambda row, first: _line(row[0], True, row[2], row[3]),
    "float-step": lambda row, first: _line(row[0], row[1], float(row[2]), row[3]),
    "str-step": lambda row, first: _line(row[0], str(row[1]), row[2], row[3]),
    "release-0": lambda row, first: _line(row[0], 0, row[2], row[3]),
    "empty-lifespan": lambda row, first: _line(row[0], row[1], row[1], row[3]),
    "weight-0": lambda row, first: _line(row[0], row[1], row[2], 0),
    "weight-negative": lambda row, first: _line(row[0], row[1], row[2], "-1"),
    "weight-1/0": lambda row, first: _line(row[0], row[1], row[2], "1/0"),
    "weight-huge-exponent": lambda row, first: _line(row[0], row[1], row[2], "1e999999"),
    "empty-id": lambda row, first: _line("", row[1], row[2], row[3]),
    "repeated-id": lambda row, first: _line(first, row[1], row[2], row[3]),
    "earlier-release": lambda row, first: _line(row[0], 1, row[2], row[3]),
}
AFTER_THE_FIRST = {"repeated-id", "earlier-release"}


@st.composite
def malformed_files(draw):
    """A valid instance file with blank lines between its packet lines and
    its k-th line made malformed: the file's text, k and the fault."""
    kind = draw(st.sampled_from(sorted(MALFORMED)))
    count = draw(st.integers(2 if kind in AFTER_THE_FIRST else 1, 6))
    rows = []
    release = 2
    for i in range(count):
        release += draw(st.integers(0, 2))
        weight = f"{draw(st.integers(1, 9))}/{draw(st.integers(1, 4))}"
        rows.append((f"p{i}", release, release + draw(st.integers(1, 3)), weight))
    bad = draw(st.integers(1 if kind in AFTER_THE_FIRST else 0, count - 1))
    lines = []
    for i, row in enumerate(rows):
        lines.extend([""] * draw(st.integers(0, 2)))
        if i == bad:
            number = len(lines) + 1
            lines.append(MALFORMED[kind](row, rows[0][0]))
        else:
            lines.append(_line(*row))
    return "\n".join(lines) + "\n", number, kind


@pytest.fixture
def tiny(tmp_path):
    path = tmp_path / "tiny.jsonl"
    path.write_text(
        '{"id":"a","r":1,"d":2,"w":"1/1"}\n'
        '{"id":"b","r":1,"d":3,"w":"2/1"}\n'
        '{"id":"c","r":2,"d":3,"w":"2/1"}\n'
    )
    return str(path)


class TestInstanceFiles:
    def test_round_trip_preserves_everything(self, tmp_path):
        inst = mk_instance(
            ("a", 1, 2, Fraction(1)),
            ("b", 1, 3, Fraction(7, 3)),
            ("c", 2, 5, Fraction(2, 4)),  # not in lowest terms on input
        )
        path = tmp_path / "roundtrip.jsonl"
        cli.write_instance(inst, str(path))
        assert cli.parse_instance(str(path)) == inst
        # weights serialized in lowest terms
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows[2]["w"] == "1/2"

    def test_accepts_plain_and_fractional_weights(self, tmp_path):
        path = tmp_path / "weights.jsonl"
        path.write_text(
            '{"id":"a","r":1,"d":2,"w":"3"}\n'
            '{"id":"b","r":1,"d":3,"w":3}\n'
            '{"id":"c","r":2,"d":4,"w":1.5}\n'
            '{"id":"d","r":2,"d":4,"w":"0.1"}\n'
        )
        inst = cli.parse_instance(str(path))
        assert [p.weight for p in inst] == [3, 3, Fraction(3, 2), Fraction(1, 10)]

    @pytest.mark.parametrize(
        "line,message",
        [
            ('{"id":"a","r":1,"d":2,"w":"-1/2"}', "non-positive weight, line 1"),
            ('{"id":"a","r":3,"d":3,"w":"1"}', "empty lifespan, line 1"),
            ('{"id":"a","r":1,"d":2}', "missing field 'w', line 1"),
            ("not json", "invalid JSON, line 1"),
            ('{"id":"a","r":0,"d":2,"w":"1"}', "release must be >= 1, line 1"),
            ('{"id":"a","r":1,"d":2,"w":"1/0"}', "invalid weight"),
            ('{"id":"a","r":"1","d":2,"w":"1"}', "must be integers, line 1"),
        ],
    )
    def test_line_errors(self, tmp_path, line, message):
        path = tmp_path / "bad.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(ValueError, match=re.escape(message)):
            cli.parse_instance(str(path))

    @pytest.mark.parametrize(
        "line",
        [
            pytest.param('{"id":"b","r":true,"d":3,"w":"1"}', id="boolean-release"),
            pytest.param("[" * 100_000, id="deep-nesting"),
            pytest.param('{"id":"b","r":1,"d":3,"w":"1e999999"}', id="huge-exponent"),
        ],
    )
    def test_malformed_line_exits_one_naming_it(self, tmp_path, capsys, line):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id":"a","r":1,"d":2,"w":"1"}\n' + line + "\n")
        assert cli.main(["opt", "--instance", str(path)]) == 1
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field,sign,message",
        [
            ("r", "", "a step of more than"),
            ("d", "", "a step of more than"),
            ("d", "-", "a step of more than"),
            ("w", "", "invalid weight: more than"),
            ("w", "-", "invalid weight: more than"),
            ("id", "", "not an int of more than"),
        ],
    )
    def test_json_integer_too_long_to_convert_exits_one(
        self, tmp_path, capsys, field, sign, message
    ):
        row = {"id": '"b"', "r": "1", "d": "3", "w": "1"}
        row[field] = sign + "9" * (MAX_DIGITS + 700)
        path = tmp_path / "long.jsonl"
        path.write_text(
            '{"id":"a","r":1,"d":2,"w":1}\n'
            + "{" + ", ".join(f'"{key}": {text}' for key, text in row.items()) + "}\n"
        )
        assert cli.main(["opt", "--instance", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{message} {MAX_DIGITS} digits, line 2" in err
        assert "Traceback" not in err and "Exceeds the limit" not in err

    def test_json_integer_too_long_in_a_broken_line_names_the_json_fault(self, tmp_path):
        path = tmp_path / "long.jsonl"
        broken = '{"id":"b","r":1,"d":3,"w":' + "9" * 5000  # no closing brace
        path.write_text('{"id":"a","r":1,"d":2,"w":1}\n' + broken + "\n")
        with pytest.raises(ValueError, match="invalid JSON, line 2: Expecting") as err:
            cli.parse_instance(str(path))
        assert "Exceeds the limit" not in str(err.value)

    def test_duplicate_and_order_errors_name_lines(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        path.write_text(
            '{"id":"a","r":1,"d":2,"w":"1"}\n{"id":"a","r":1,"d":3,"w":"1"}\n'
        )
        with pytest.raises(ValueError, match="line 2"):
            cli.parse_instance(str(path))
        path.write_text(
            '{"id":"a","r":2,"d":3,"w":"1"}\n{"id":"b","r":1,"d":2,"w":"1"}\n'
        )
        with pytest.raises(ValueError, match="line 2"):
            cli.parse_instance(str(path))

    @settings(max_examples=200, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(instances())
    def test_written_instance_reads_back_equal(self, tmp_path, inst):
        path = tmp_path / "written.jsonl"
        cli.write_instance(inst, str(path))
        assert cli.parse_instance(str(path)) == inst

    @pytest.mark.parametrize(
        "weight",
        [
            pytest.param(10**MAX_DIGITS - 1, id="numerator"),
            pytest.param(Fraction(1, 10**MAX_DIGITS - 1), id="denominator"),
            pytest.param(Fraction(10**MAX_DIGITS - 1, 7), id="both"),
            pytest.param("9" * MAX_DIGITS, id="digit-string"),
            pytest.param(f"1e{MAX_DIGITS - 1}", id="exponent-string"),
        ],
    )
    def test_weight_of_max_digits_reads_back_equal(self, tmp_path, weight):
        inst = mk_instance(("a", 1, 2, weight), ("b", 1, 3, 1))
        path = tmp_path / "long.jsonl"
        cli.write_instance(inst, str(path))
        assert cli.parse_instance(str(path)) == inst

    @settings(max_examples=300, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(malformed_files())
    def test_any_malformed_line_exits_one_naming_it(self, tmp_path, capsys, drawn):
        text, number, kind = drawn
        path = tmp_path / "malformed.jsonl"
        path.write_text(text, encoding="utf-8")
        assert cli.main(["opt", "--instance", str(path)]) == 1, kind
        err = capsys.readouterr().err
        assert err.startswith("error: ") and re.search(rf"\bline {number}\b", err), (kind, err)
        assert "Traceback" not in err

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "blank.jsonl"
        path.write_text('\n{"id":"a","r":1,"d":2,"w":"1"}\n\n')
        assert len(cli.parse_instance(str(path))) == 1


class TestCommands:
    def test_ratio_output_format(self, tiny, capsys):
        assert cli.main(["ratio", "--policy", "rg", "--instance", tiny]) == 0
        out = capsys.readouterr().out
        assert "ratio = 8/7 (≈ 1.143)" in out

    def test_run_deterministic_with_report(self, tiny, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code = cli.main(
            ["run", "--policy", "mg-prime", "--instance", tiny, "--out", str(out_path)]
        )
        assert code == 0
        text = out_path.read_text()
        # One compact JSON object on one line.
        assert text.endswith("}\n") and text.count("\n") == 1 and ", " not in text
        payload = json.loads(text)
        assert payload["total_gain"] == "4/1"
        assert payload["total_gain_dec"] == 4.0
        assert payload["ratio"] == "1/1"
        assert [s["transmitted"] for s in payload["per_step"]] == ["b", "c"]

    def test_expected_command(self, tiny, capsys):
        assert cli.main(["expected", "--instance", tiny]) == 0
        out = capsys.readouterr().out
        assert "expected gain = 7/2" in out
        assert "ratio = 8/7" in out

    def test_run_rg_requires_trials(self, tiny, capsys):
        assert cli.main(["run", "--policy", "rg", "--instance", tiny]) == 1
        assert "--trials" in capsys.readouterr().err

    def test_run_rg_monte_carlo(self, tiny, capsys):
        assert (
            cli.main(
                ["run", "--policy", "rg", "--instance", tiny, "--trials", "500", "--seed", "3"]
            )
            == 0
        )
        assert "mean gain over 500 trials" in capsys.readouterr().out

    def test_opt_allows_non_agreeable(self, tmp_path, capsys):
        path = tmp_path / "na.jsonl"
        path.write_text(
            '{"id":"a","r":1,"d":9,"w":"1"}\n{"id":"b","r":2,"d":3,"w":"4"}\n'
        )
        assert cli.main(["opt", "--instance", str(path)]) == 0
        assert "optimum = 5/1" in capsys.readouterr().out

    def test_agreeable_required_elsewhere(self, tmp_path, capsys):
        path = tmp_path / "na.jsonl"
        path.write_text(
            '{"id":"a","r":1,"d":9,"w":"1"}\n{"id":"b","r":2,"d":3,"w":"4"}\n'
        )
        for argv in (
            ["run", "--policy", "mg-prime", "--instance", str(path)],
            ["ratio", "--policy", "mg", "--instance", str(path)],
            ["expected", "--instance", str(path)],
            ["check-facts", "--instance", str(path)],
        ):
            assert cli.main(argv) == 1
            assert "agreeable" in capsys.readouterr().err

    def test_check_facts_passes(self, tiny, capsys):
        assert cli.main(["check-facts", "--instance", tiny]) == 0
        out = capsys.readouterr().out
        assert "all checks passed over 2 steps" in out

    def test_check_facts_reports_invariant_violation(self, tiny, monkeypatch, capsys):
        def boom(instance):
            raise InvariantError("synthetic failure")

        monkeypatch.setattr(cli, "check_facts", boom)
        assert cli.main(["check-facts", "--instance", tiny]) == 2
        assert "invariant" in capsys.readouterr().err

    def test_exact_cap_env(self, tiny, monkeypatch, capsys):
        monkeypatch.setenv(cli.CAP_ENV_VAR, "1")
        assert cli.main(["expected", "--instance", tiny]) == 1
        assert "too large for exact mode" in capsys.readouterr().err
        monkeypatch.setenv(cli.CAP_ENV_VAR, "banana")
        assert cli.main(["expected", "--instance", tiny]) == 1

    def test_expected_on_long_horizon(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv(cli.CAP_ENV_VAR, raising=False)
        rows = [(f"c{t}", t, t + 1, 1 + t % 9) for t in range(1, 1500)]
        path = tmp_path / "steps.jsonl"
        cli.write_instance(mk_instance(*rows), str(path))
        assert cli.main(["expected", "--instance", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"expected gain = {sum(row[3] for row in rows)}/1" in out
        assert "branching leaves = 1\n" in out

    def test_expected_counts_states_not_leaves(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv(cli.CAP_ENV_VAR, raising=False)
        path = tmp_path / "chain.jsonl"
        cli.write_instance(golden_chain(22), str(path))
        assert 2**22 > cli.DEFAULT_EXACT_CAP
        assert cli.main(["expected", "--instance", str(path)]) == 0
        assert f"branching leaves = {2**22}" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [["expected"], ["ratio", "--policy", "rg"], ["ratio", "--policy", "mg-prime"]],
    )
    def test_optimum_computed_once_per_command(self, tiny, monkeypatch, argv):
        calls = []

        def counting(original):
            def counted(*args):
                calls.append(original.__name__)
                return original(*args)

            return counted

        # The runs take the optimum from the compile they step, through
        # ``_opt_weight``.  A module that does not import a name today gets
        # it anyway, so any call made through it later counts too.
        for module in (engine, analysis, cli):
            for name in ("_opt_weight", "opt_schedule"):
                counted = counting(getattr(offline, name))
                monkeypatch.setattr(module, name, counted, raising=False)
        assert cli.main(argv + ["--instance", tiny]) == 0
        assert calls == ["_opt_weight"]

    def test_gen_then_ratio_pipeline(self, tmp_path, capsys):
        out = tmp_path / "gen.jsonl"
        assert (
            cli.main(
                [
                    "gen",
                    "--family",
                    "two-bounded",
                    "--seed",
                    "11",
                    "--steps",
                    "3",
                    "--weights",
                    "1,2,3",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        inst = cli.parse_instance(str(out))
        assert inst.is_agreeable
        capsys.readouterr()
        assert cli.main(["ratio", "--policy", "mg-prime", "--instance", str(out)]) == 0

    def test_search_command(self, tmp_path, capsys):
        witness = tmp_path / "witness.jsonl"
        report = tmp_path / "search.json"
        code = cli.main(
            [
                "search",
                "--policy",
                "mg-prime",
                "--depth",
                "1",
                "--menu",
                "1,2",
                "--witness-out",
                str(witness),
                "--out",
                str(report),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "best ratio" in out
        payload = json.loads(report.read_text())
        assert payload["complete"] is True
        replay = cli.parse_instance(str(witness))
        assert len(replay) >= 1

    @pytest.mark.parametrize("flag,value", [("--branching", "0")])
    def test_search_refuses_non_positive_counts(self, capsys, flag, value):
        argv = ["search", "--policy", "mg-prime", "--depth", "1", "--menu", "1,2", flag, value]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert f"{flag[2:]} must be >= 1" in err

    @pytest.mark.parametrize(
        "argv,option",
        [
            (["search", "--policy", "rg", "--depth", "1", "--menu", "1,1e999999"], "--menu"),
            (["gen", "--family", "two-bounded", "--weights", "1,1e999999"], "--weights"),
            (["gen", "--family", "golden-chain", "--growth", "1e999999"], "--growth"),
        ],
    )
    def test_huge_option_weight_exits_one(self, tmp_path, capsys, argv, option):
        out = tmp_path / "gen.jsonl"
        assert cli.main(argv + ["--out", str(out)]) == 1
        assert f"in {option}" in capsys.readouterr().err
        assert not out.exists()

    def test_gen_refuses_weights_too_long_to_write(self, tmp_path, capsys):
        out = tmp_path / "chain.jsonl"
        argv = ["gen", "--family", "golden-chain", "--chain-length", "1500", "--out", str(out)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert f"more than {MAX_DIGITS} digits" in err and "Exceeds the limit" not in err
        assert not out.exists()

    def test_deep_budgeted_search(self, capsys):
        argv = ["search", "--policy", "mg-prime", "--depth", "1200", "--menu", "1,2"]
        assert cli.main(argv + ["--max-nodes", "1100"]) == 0
        assert "nodes explored = 1100 (PARTIAL (node budget hit))" in capsys.readouterr().out

    def test_usage_errors_exit_one(self, capsys):
        assert cli.main(["frobnicate"]) == 1
        assert cli.main(["run", "--policy", "nope", "--instance", "x"]) == 1
        assert cli.main([]) == 1

    def test_missing_file_exits_one(self, capsys):
        assert cli.main(["opt", "--instance", "/nonexistent/file.jsonl"]) == 1
        assert "error" in capsys.readouterr().err
