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
    # route of a record alike, so only the anchor sees it; ``report`` and
    # ``det --method closed|expansion`` run their one cell's full anchor, as
    # ``verify`` does for each of its cells
    mutants = load_gate()
    shared = {reason for *_, reason, commands in mutants.MUTANTS if commands == mutants.SHARED}
    assert shared == {
        "scale factor raised to dim(R_k) - 1 instead of dim(R_k)",
        "scale factor inverted: multiplies by the scaling instead of undoing it",
        "primitive_part drops the denominator scaling: (1/2, 1/3) reads as (1, 1) / 6",
        "scale factor's gcd half divides by each form's gcd instead of multiplying",
        "Bareiss returns 0 on any nonzero row",
        "Bareiss runs past the last column, which finds no pivot: 0",
        "Bareiss returns an entry its elimination has zeroed",
        "ExactMatrix.row starts each row at entry r // cols",
    }
    assert all(
        commands in (mutants.OWN, mutants.SHARED, mutants.FRACTION)
        for *_, commands in mutants.MUTANTS
    )
    assert mutants.DET_EXPANSION[2:] == ["det", "--d", "3", "--q", "2", "--k", "1", "--u", "2",
                                         "--method", "expansion", "--forms=2/3,1;1,3;-5/2,7"]
    # a command that reaches Bareiss on Fraction entries: Schur values as given
    assert mutants.FRACTION == (mutants.SCHUR,)
    assert mutants.SCHUR[2:] == ["schur", "--partition", "[2,1]", "--values", "1/2,-3,5"]
    assert [reason for *_, reason, commands in mutants.MUTANTS
            if commands == mutants.FRACTION] == ["Bareiss halves every rational determinant"]
    assert mutants.SHARED == (mutants.VERIFY, mutants.REPORT, mutants.DET_CLOSED,
                              mutants.DET_EXPANSION)
    assert mutants.REPORT[2:] == ["report", "--d", "2", "--q", "2", "--k", "1", "--u", "1",
                                  "--forms", "2,1;1,3"]
    assert mutants.DET_CLOSED[2:] == ["det", "--d", "2", "--q", "2", "--k", "1",
                                      "--method", "closed", "--forms", "2,1;1,3"]


def test_the_expansion_term_rows_need_only_verify():
    # an expansion's value is the sum of its terms, so a fault in the terms
    # the record prints, or in that sum, reaches verify's verdict
    mutants = load_gate()
    rows = {row[:3]: row[4] for row in mutants.MUTANTS}
    assert rows.get(("lefdet/formulas.py", "t.value * factor", "t.value // factor")) == mutants.OWN
    assert rows.get(("lefdet/formulas.py", "sum(t.value for t in self.terms)",
                     "sum(t.value for t in self.terms[1:])")) == mutants.OWN


def test_the_e_table_top_entry_has_its_own_row():
    # the top entry is the one place where E_n becomes the product of the a's
    mutants = load_gate()
    rows = {row[:3]: row[4] for row in mutants.MUTANTS}
    key = ("lefdet/symfunc.py", "table.append(a_i * table[-1])", "table.append(b_i * table[-1])")
    assert rows.get(key) == mutants.OWN


def test_gate_children_run_without_bytecode(monkeypatch):
    # a .pyc cached for the unmutated copy could stand in for a same-length
    # mutant written within the same second
    mutants = load_gate()
    calls = []
    monkeypatch.setattr(mutants.subprocess, "run", lambda argv, **kw: calls.append(argv))
    mutants.run(ROOT / "src", mutants.VERIFY)
    assert calls and calls[0][1] == "-B", calls


def test_scan_mutates_one_span_and_leaves_every_gate_row_applicable():
    # the scan edits source spans and re-renders nothing, so a gate row's
    # text survives every scan mutant that does not touch the row itself
    mutants = load_gate()
    rows = {}
    for file, old, *_ in mutants.MUTANTS:
        rows.setdefault(file, []).append(old)
    assert set(rows) <= {f"lefdet/{name}" for name in mutants.SCAN_FILES}
    scanned = 0
    for name in mutants.SCAN_FILES:
        file = f"lefdet/{name}"
        text = (ROOT / "src" / file).read_text()
        for m in mutants.scan_mutants(text, file):
            scanned += 1
            assert text[m.start : m.end] == m.old != m.new, m
            assert text.count("\n", 0, m.start) + 1 == m.line, m
            mutated = m.apply(text)
            assert len(mutated) - len(text) == len(m.new) - len(m.old), m
            for old in rows.get(file, ()):
                at = text.index(old)
                if m.end <= at or at + len(old) <= m.start:
                    assert mutated.count(old) == 1, (m, old)
    assert scanned > 400
