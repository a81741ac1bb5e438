import json
import re
from fractions import Fraction

import pytest

from conftest import mk_instance

from pktsched import cli
from pktsched.analysis import golden_chain
from pktsched.model import InvariantError


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
        payload = json.loads(out_path.read_text())
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

    def test_usage_errors_exit_one(self, capsys):
        assert cli.main(["frobnicate"]) == 1
        assert cli.main(["run", "--policy", "nope", "--instance", "x"]) == 1
        assert cli.main([]) == 1

    def test_missing_file_exits_one(self, capsys):
        assert cli.main(["opt", "--instance", "/nonexistent/file.jsonl"]) == 1
        assert "error" in capsys.readouterr().err
