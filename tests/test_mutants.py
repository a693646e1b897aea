"""The mutant gate's rows still match the source they mutate.

``tools/mutants.py`` refuses a row whose ``old`` text does not occur exactly
once, but only when the gate runs; this catches a row that a refactor broke
in the ordinary test run, without starting a subprocess.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_gate():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    return mutants


def test_every_mutant_row_occurs_exactly_once_in_its_source():
    mutants = load_gate()
    assert mutants.MUTANTS
    for file, old, new, reason in mutants.MUTANTS:
        count = (ROOT / "src" / file).read_text().count(old)
        assert count == 1, f"{file} ({reason}): {old!r} occurs {count} times"
        assert new != old, f"{file} ({reason}): the edit changes nothing"


def test_gate_children_run_without_bytecode(monkeypatch):
    # a .pyc cached for the unmutated copy could stand in for a same-length
    # mutant written within the same second
    mutants = load_gate()
    calls = []
    monkeypatch.setattr(mutants.subprocess, "run", lambda argv, **kw: calls.append(argv))
    mutants.run(ROOT / "src")
    assert calls and calls[0][1] == "-B", calls
