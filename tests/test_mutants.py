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
    for file, old, new, reason, _ in mutants.MUTANTS:
        count = (ROOT / "src" / file).read_text().count(old)
        assert count == 1, f"{file} ({reason}): {old!r} occurs {count} times"
        assert new != old, f"{file} ({reason}): the edit changes nothing"


def test_every_shared_fault_row_also_runs_report():
    # a fault in the determinant kernel or the scale factor reaches every
    # route of a record alike, so only the anchor sees it, and ``report``
    # runs the anchor as ``verify`` does
    mutants = load_gate()
    shared = {reason for *_, reason, commands in mutants.MUTANTS if commands == mutants.SHARED}
    assert shared == {
        "scale factor raised to dim(R_k) - 1 instead of dim(R_k)",
        "scale factor inverted: multiplies by the scaling instead of undoing it",
        "primitive_part drops the denominator scaling: (1/2, 1/3) reads as (1, 1) / 6",
        "Bareiss returns 0 on any nonzero row",
        "Bareiss runs past the last column, which finds no pivot: 0",
        "Bareiss returns an entry its elimination has zeroed",
        "ExactMatrix.row starts each row at entry r // cols",
    }
    assert all(commands in (mutants.OWN, mutants.SHARED) for *_, commands in mutants.MUTANTS)
    assert mutants.SHARED == (mutants.VERIFY, mutants.REPORT)
    assert mutants.REPORT[2:] == ["report", "--d", "2", "--q", "2", "--k", "1", "--u", "1",
                                  "--forms", "2,1;1,3"]


def test_gate_children_run_without_bytecode(monkeypatch):
    # a .pyc cached for the unmutated copy could stand in for a same-length
    # mutant written within the same second
    mutants = load_gate()
    calls = []
    monkeypatch.setattr(mutants.subprocess, "run", lambda argv, **kw: calls.append(argv))
    mutants.run(ROOT / "src", mutants.VERIFY)
    assert calls and calls[0][1] == "-B", calls
