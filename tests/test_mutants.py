"""The mutation gate's harness (``tests/mutants.py``) refuses the two ways a
mutant can go wrong without being killed."""

import mutants
from mutants import ROOT, Mutant


def test_an_old_text_found_twice_is_refused(monkeypatch, capsys):
    old = "    if rest:\n"
    found = (ROOT / mutants.OFFLINE).read_text().count(old)
    assert found > 1
    mutant = Mutant("twice", mutants.OFFLINE, old, "    if False:\n", mutants.CARRIED_BASIS)
    assert mutants.run(mutant) == (f"OLD TEXT FOUND {found} TIMES", False)
    monkeypatch.setattr(mutants, "MUTANTS", (mutant,))
    assert mutants.main() == 1
    assert "0 of 1 mutants as expected" in capsys.readouterr().out


def test_a_collection_error_is_refused(monkeypatch, capsys):
    # A test module whose import fails stops pytest at collection, with
    # exit code 2 (a failing conftest import would give 4).
    mutant = Mutant(
        "broken import",
        "tests/test_policies.py",
        "from pktsched.policies import POLICIES,",
        "from pktsched.policies import NO_SUCH_NAME, POLICIES,",
        ("tests/test_policies.py",),
    )
    assert mutants.run(mutant) == ("PYTEST EXIT 2", False)
    monkeypatch.setattr(mutants, "MUTANTS", (mutant,))
    assert mutants.main() == 1
    assert "PYTEST EXIT 2" in capsys.readouterr().out
