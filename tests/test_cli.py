import hashlib
import json
from fractions import Fraction

import pytest

from lefdet.cli import (
    cell_rng,
    main,
    parse_forms,
    parse_values,
    random_form,
)
from lefdet.ring import LinearForm


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


# --- wire formats ------------------------------------------------------------


def test_parse_forms():
    assert parse_forms("2,1;1,3") == [
        LinearForm(Fraction(2), Fraction(1)),
        LinearForm(Fraction(1), Fraction(3)),
    ]
    assert parse_forms("-1/2,3/4") == [LinearForm(Fraction(-1, 2), Fraction(3, 4))]
    assert parse_forms("") == []
    with pytest.raises(ValueError):
        parse_forms("1,2,3")
    with pytest.raises(ValueError):
        parse_forms("1,x")
    with pytest.raises(ValueError):
        parse_forms("1/0,2")


def test_parse_values():
    assert parse_values("2,1") == (Fraction(2), Fraction(1))
    assert parse_values("") == ()


def test_cell_rng_is_stable_and_coordinate_dependent():
    a = cell_rng(7, 2, 2, 1, 0, 0).random()
    b = cell_rng(7, 2, 2, 1, 0, 0).random()
    c = cell_rng(7, 2, 2, 1, 0, 1).random()
    assert a == b != c


def test_random_form_ranges():
    rng = cell_rng(0, "forms")
    for _ in range(50):
        f = random_form(rng)
        for coord in (f.a, f.b):
            assert coord != 0
            assert 1 <= abs(coord.numerator) <= 9
            assert 1 <= coord.denominator <= 9
    saw_zero = False
    for _ in range(100):
        f = random_form(rng, allow_zero=True)
        assert f.a != 0 or f.b != 0
        saw_zero = saw_zero or f.a == 0 or f.b == 0
    assert saw_zero


# --- det ---------------------------------------------------------------------


def test_det_direct(capsys):
    code, doc = run_json(
        capsys, "det", "--d", "2", "--q", "2", "--k", "1", "--forms", "2,1;1,3",
        "--method", "direct",
    )
    assert code == 0
    assert doc["det"] == "43"
    assert doc["schema"] == "lefdet/1"


def test_det_closed_reports_match(capsys):
    code, doc = run_json(
        capsys, "det", "--d", "2", "--q", "2", "--k", "1", "--forms", "2,1;1,3",
        "--method", "closed",
    )
    assert code == 0
    assert doc["det"] == "43" and doc["match_direct"] is True


def test_det_expansion_has_trace(capsys):
    code, doc = run_json(
        capsys, "det", "--d", "2", "--q", "2", "--k", "1", "--forms", "2,1;1,3",
        "--method", "expansion", "--u", "1",
    )
    assert code == 0
    assert doc["det"] == "43" and doc["match_direct"] is True
    assert [t["value"] for t in doc["terms"]] == ["36", "6", "1"]
    assert doc["terms"][0]["lam"] == "[1,1]"


def test_det_empty_forms_at_top_k(capsys):
    code, doc = run_json(capsys, "det", "--d", "2", "--q", "2", "--k", "2")
    assert code == 0 and doc["det"] == "1"


def test_det_malformed_forms_exit_2(capsys):
    code, doc = run_json(
        capsys, "det", "--d", "2", "--q", "2", "--k", "1", "--forms", "oops"
    )
    assert code == 2 and "error" in doc


def test_unknown_flag_exit_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["det", "--bogus"])
    assert err.value.code == 2


# --- slp / schur / duality ---------------------------------------------------


def test_slp_holds(capsys):
    code, doc = run_json(capsys, "slp", "--d", "3", "--q", "2", "--forms", "1,1")
    assert code == 0
    assert doc["slp"] is True
    assert all(entry["nonzero"] for entry in doc["per_k"])


def test_slp_fails_for_pure_x(capsys):
    code, doc = run_json(capsys, "slp", "--d", "2", "--q", "1", "--forms", "1,0")
    assert code == 0
    assert doc["slp"] is False
    assert doc["per_k"][0] == {"k": 0, "det": "0", "nonzero": False}


def test_slp_d1_q1(capsys):
    code, doc = run_json(capsys, "slp", "--d", "1", "--q", "1", "--forms", "1,1")
    assert [e["det"] for e in doc["per_k"]] == ["2", "1"]


def test_slp_needs_exactly_one_form(capsys):
    code, doc = run_json(capsys, "slp", "--d", "2", "--q", "1", "--forms", "1,1;2,1")
    assert code == 2 and "error" in doc


def test_schur_trio(capsys):
    code, doc = run_json(capsys, "schur", "--partition", "[2,1]", "--values", "2,1")
    assert code == 0
    assert doc["jacobi_trudi_of_conjugate"] == "6"
    assert doc["bialternant"] == "6"
    assert doc["tableaux"] == "6"
    assert doc["agree"] is True


def test_schur_reports_per_evaluator_preconditions(capsys):
    code, doc = run_json(capsys, "schur", "--partition", "[2,2]", "--values", "1,1")
    assert doc["bialternant"] is None
    assert "non-distinct" in doc["bialternant_error"]
    assert doc["jacobi_trudi_of_conjugate"] == doc["tableaux"]


def test_duality_rectangle(capsys):
    code, doc = run_json(
        capsys, "duality", "--r", "1", "--m", "1", "--a", "1,2", "--b", "3,4"
    )
    assert code == 0
    assert (doc["lhs"], doc["rhs"], doc["equal"]) == ("10", "10", True)


def test_duality_complement_identity(capsys):
    code, doc = run_json(
        capsys, "duality", "--r", "2", "--n", "2", "--partition", "[1]",
        "--x", "1,1", "--y", "1,2",
    )
    assert code == 0
    assert doc["equal"] is True and doc["mu"] == "[2,1]"
    code, doc = run_json(
        capsys, "duality", "--r", "2", "--n", "2", "--partition", "[]",
        "--x", "1,3", "--y", "2,5",
    )
    assert code == 0 and doc["equal"] is True


# --- verify / sweep / report -------------------------------------------------


def test_verify_single_cell_flags_literal_but_exits_zero(capsys):
    code, doc = run_json(
        capsys, "verify", "--d", "2", "--q", "2", "--k", "1", "--u", "1",
        "--trials", "2", "--seed", "0",
    )
    assert code == 0
    assert doc["summary"]["mismatches"] == 0
    assert doc["summary"]["literal_case_flagged_cells"] == [[2, 2, 1, 1]]
    for row in doc["cells"][0]["trials"]:
        assert row["match"] is True


def test_verify_small_lattice(capsys):
    code, doc = run_json(capsys, "verify", "--dmax", "4", "--trials", "2")
    assert code == 0
    assert doc["summary"]["mismatches"] == 0
    assert doc["inputs"]["cells"] == len(doc["cells"]) > 0


def test_verify_byte_identical_across_thread_counts(capsys):
    args = ["verify", "--dmax", "4", "--trials", "2", "--seed", "5"]
    _, out1 = run(capsys, *args, "--threads", "1")
    _, out2 = run(capsys, *args, "--threads", "4")
    assert out1 == out2


def test_sweep_csv_columns(capsys):
    code, out = run(
        capsys, "sweep", "--d", "2", "--q", "2", "--k", "1", "--trials", "1",
        "--output", "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "d,q,k,u,seed,trial,det_direct,det_expansion,det_closed,match"
    assert len(lines) == 1 + 3  # u = 0, 1, 2
    assert all(line.endswith(",true") for line in lines[1:])


def test_csv_only_for_sweep(capsys):
    code, doc = run_json(
        capsys, "det", "--d", "1", "--q", "1", "--k", "0", "--forms", "1,1;1,1",
        "--output", "csv",
    )
    assert code == 2 and "error" in doc


def test_report_document(capsys):
    code, doc = run_json(
        capsys, "report", "--d", "2", "--q", "2", "--k", "1", "--u", "1",
        "--forms", "2,1;1,3",
    )
    assert code == 0
    assert doc["det_direct"] == doc["det_expansion"] == "43"
    assert doc["det_closed_form"] is None
    audit = doc["literal_case_audit"]
    assert any(c["value"] == "36" and not c["matches_direct"] for c in audit)
    assert doc["matches"]["expansion"] is True


def test_text_output_renders(capsys):
    code, out = run(
        capsys, "slp", "--d", "1", "--q", "1", "--forms", "1,1", "--output", "text"
    )
    assert code == 0
    assert out.startswith("slp\n")
    assert "slp: true" in out


def test_identical_config_byte_identical_output(capsys):
    args = ["sweep", "--dmax", "3", "--trials", "2", "--seed", "9"]
    _, out1 = run(capsys, *args)
    _, out2 = run(capsys, *args)
    assert out1 == out2


def test_verify_rejects_out_of_range_k(capsys):
    code, doc = run_json(capsys, "verify", "--d", "1", "--q", "1", "--k", "5")
    assert code == 2 and "error" in doc


def test_verify_exits_1_when_a_route_disagrees(capsys, monkeypatch):
    import lefdet.cli as cli

    monkeypatch.setattr(cli, "det_closed_form", lambda rp, k, forms: Fraction(10**9))
    code, doc = run_json(
        capsys, "verify", "--d", "1", "--q", "1", "--k", "0", "--trials", "1"
    )
    assert code == 1
    assert doc["summary"]["mismatches"] > 0


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--dmax", "1"],
        ["verify", "--dmax", "-3"],
        ["verify", "--trials", "0"],
        ["sweep", "--trials", "-2"],
        ["sweep", "--dmax", "1", "--output", "csv"],
        ["verify", "--d", "2", "--q", "2", "--k", "1", "--trials", "0"],
    ],
)
def test_vacuous_sweeps_are_usage_errors(capsys, argv):
    code, doc = run_json(capsys, *argv)
    assert code == 2 and "error" in doc


def test_threads_flag_is_accepted_and_ignored(capsys, monkeypatch):
    args = ["sweep", "--dmax", "3", "--trials", "1", "--seed", "4"]
    _, plain = run(capsys, *args)
    monkeypatch.setenv("LEFDET_THREADS", "abc")
    for extra in ([], ["--threads", "3"]):
        code, out = run(capsys, *args, *extra)
        assert code == 0 and out == plain


# --- pinned output bytes -----------------------------------------------------

# sha256 of stdout and the exit code.  These bytes are the wire format: a
# refactor must leave them unchanged, and a deliberate format change must
# update them here.
GOLDEN = [
    (
        ["verify", "--dmax", "5", "--trials", "3", "--seed", "11"],
        0, "a8112c7ef2cf814455bae14d55620e546e97329d653053fe72912b238c8d9c0e",
    ),
    (
        ["verify", "--dmax", "4", "--trials", "2", "--allow-zero"],
        0, "1b568fa8c061935e34d4863e1f7196d34aef407aeee8f5629e9391755733269e",
    ),
    (
        ["sweep", "--dmax", "4", "--trials", "2", "--seed", "9", "--output", "csv"],
        0, "34ca7c7d5ac0506921dd85ebab65487e8fd6b4706c84f2615340b28a9a944491",
    ),
    (
        ["report", "--d", "2", "--q", "2", "--k", "1", "--u", "1", "--forms", "2,1;1,3"],
        0, "aba9598fff7ece709817afc3c0a01d911e60f8dd490d9dda740f49eb0098eba1",
    ),
    (
        ["det", "--d", "4", "--q", "4", "--k", "1", "--u", "3", "--method", "expansion",
         "--forms", "2,1;1,3;-1,2;3,-5;1/2,7;4,-1/3"],
        0, "52f30e6f2e2984f5f6f2aeeff799ab45afbccfa995ee2f91801820475e562e93",
    ),
]


@pytest.mark.parametrize(
    "argv,code,digest", GOLDEN,
    ids=["verify-seed-11", "verify-allow-zero", "sweep-csv", "report", "det-expansion"],
)
def test_output_bytes_are_pinned(capsys, argv, code, digest):
    got_code, out = run(capsys, *argv)
    assert (got_code, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)
