import hashlib
import json
import random
import shlex
import sys
from fractions import Fraction

import pytest

from lefdet.cli import (
    cell_rng,
    fmt,
    main,
    parse_forms,
    parse_values,
    random_form,
)
from lefdet.ring import LinearForm, RingParams, det_direct


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
    for spelling in ("1.5", ".5", "1e2", "1_0", "\u0663"):
        with pytest.raises(ValueError):
            parse_forms(f"{spelling},1")


def test_parse_values():
    assert parse_values("2,1") == (Fraction(2), Fraction(1))
    assert parse_values("") == ()
    assert parse_values(" +3 ,-4/6") == (Fraction(3), Fraction(-2, 3))
    for spelling in ("1.5", ".5", "1e2", "1_0", "\u0663", "1/2/3", "1 /2", "0x1"):
        with pytest.raises(ValueError):
            parse_values(f"1,{spelling}")


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


@pytest.mark.parametrize("method", ["direct", "closed"])
def test_det_split_only_for_the_expansion(capsys, method):
    # --u splits the expansion; the other methods must not accept and ignore it
    code, doc = run_json(
        capsys, "det", "--d", "2", "--q", "2", "--k", "1", "--forms", "2,1;1,3",
        "--method", method, "--u", "7",
    )
    assert code == 2 and "--u" in doc["error"]


def test_det_malformed_forms_exit_2(capsys):
    code, doc = run_json(
        capsys, "det", "--d", "2", "--q", "2", "--k", "1", "--forms", "oops"
    )
    assert code == 2 and "error" in doc


CELL = ["--d", "1", "--q", "1", "--k", "0", "--forms", "1,1;1,1"]


@pytest.mark.parametrize(
    "argv",
    [
        ["det", "--bogus"],
        ["verify", "--dmax", "x"],
        ["det", *CELL, "--method", "foo"],
        [],
        ["det", "--d", "1", "--q", "1"],
        ["verify", "--dmax", "3", "--d", "2", "--q", "1"],
        ["det", *CELL, "--output", "csv"],
        ["det", "--d", "1", "--q", "1", "--k", "0", "--forms", "1e5,1;1,1"],
        ["slp", "--d", "1_0", "--q", "2", "--forms", "1,1"],
        ["slp", "--d", "\u0662", "--q", "1", "--forms", "1,1"],
        ["schur", "--partition", "[1_0]", "--values", "1,2"],
        ["verify", "--d", "2"],
        ["duality", "--r", "2", "--partition", "[1]", "--x", "1,1", "--y", "1,2"],
        ["duality", "--r", "1", "--a", "1,2", "--b", "3,4"],
    ],
    ids=["unknown-flag", "non-int", "bad-choice", "no-subcommand", "missing-flag",
         "dmax-with-d", "csv-off-sweep", "exponent-rational", "int-underscore",
         "int-non-ascii-digit", "partition-underscore", "d-without-q",
         "complement-without-n", "rectangle-without-m"],
)
def test_argparse_usage_errors_are_error_documents(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert set(json.loads(captured.out)) == {"schema", "error"}
    assert captured.err == ""


def test_results_of_any_size_are_printed_exactly(capsys):
    # a 36,000-digit determinant: str() of it passes Python's digit limit,
    # which fmt lifts for the conversion and restores afterwards
    big = "7" * 600
    limit = sys.get_int_max_str_digits()
    code, doc = run_json(
        capsys, "det", "--d", "10", "--q", "10", "--k", "5", "--method", "direct",
        "--forms=" + ";".join([f"{big},1"] * 10),
    )
    assert code == 0 and len(doc["det"]) > limit
    assert sys.get_int_max_str_digits() == limit
    expected = det_direct(RingParams(10, 10), 5, [LinearForm(int(big), 1)] * 10)
    sys.set_int_max_str_digits(0)
    try:
        assert Fraction(doc["det"]) == expected
    finally:
        sys.set_int_max_str_digits(limit)


def test_fmt_matches_str_for_values_of_any_size():
    # fmt never touches the digit limit; str needs it lifted past 4,300 digits
    rng = random.Random(2002)
    ints = [0, 1, -1, 10**4299, 10**4300, -(10**20000) + 1, 10**200000]
    for bits in (13_999, 14_000, 14_001, 50_000, 200_000):
        n = rng.getrandbits(bits) | 1 << (bits - 1)
        ints += [n, -n]
    ints.append(-rng.getrandbits(660_000))
    values = ints + [Fraction(n, 7**9000) for n in ints[:6]] + [
        Fraction(rng.getrandbits(90_000), rng.getrandbits(120_000) | 1),
        Fraction(-rng.getrandbits(300), 10**50000),
    ]
    limit = sys.get_int_max_str_digits()
    printed = [fmt(v) for v in values]
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        assert printed == [str(Fraction(v)) for v in values]
    finally:
        sys.set_int_max_str_digits(limit)


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--help"])
    assert err.value.code == 0


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


@pytest.mark.parametrize(
    "partition, values, reason",
    [("[6,5]", "1,1,1,1,1,1", "bialternant: bialternant undefined at non-distinct point; "
                               "tableaux: tableau enumeration guard"),
     ("[3]", "", "at least one value")],
)
def test_schur_with_fewer_than_two_evaluators_is_an_error(capsys, partition, values, reason):
    code, doc = run_json(capsys, "schur", "--partition", partition, "--values", values)
    assert code == 2 and set(doc) == {"schema", "error"}
    assert reason in doc["error"]


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


@pytest.mark.parametrize(
    "argv",
    [
        ["duality", "--r", "1", "--m", "1", "--a", "1,2", "--b", "3,4", "--x", "1,1"],
        ["duality", "--r", "1", "--m", "1", "--a", "1,2", "--b", "3,4", "--n", "2"],
        ["duality", "--r", "2", "--n", "2", "--partition", "[1]", "--x", "1,1",
         "--y", "1,2", "--m", "1"],
        ["duality", "--r", "2", "--n", "2", "--partition", "[1]", "--x", "1,1",
         "--y", "1,2", "--b", "3,4"],
    ],
)
def test_duality_rejects_the_other_identitys_flags(capsys, argv):
    code, doc = run_json(capsys, *argv)
    assert code == 2 and "do not apply" in doc["error"]


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


def test_verify_byte_identical_from_run_to_run(capsys):
    args = ["verify", "--dmax", "4", "--trials", "2", "--seed", "5"]
    _, out1 = run(capsys, *args)
    _, out2 = run(capsys, *args)
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
    assert doc["det_closed_form"] == "43"
    audit = doc["literal_case_audit"]
    assert any(c["value"] == "36" and not c["matches_direct"] for c in audit)
    assert doc["matches"] == {"expansion": True, "closed_form": True}


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
    import lefdet.formulas as formulas

    monkeypatch.setattr(
        formulas, "_closed_form_scaled", lambda rp, k, scaled, factor: Fraction(10**9)
    )
    code, doc = run_json(
        capsys, "verify", "--d", "1", "--q", "1", "--k", "0", "--trials", "1"
    )
    assert code == 1
    assert doc["summary"]["mismatches"] > 0


def test_only_the_declared_audit_case_is_recorded_as_undefined(capsys, monkeypatch):
    # a fault inside an audit box sum is an error, not an "undefined" audit
    import lefdet.formulas as formulas

    def faulty_comb(*args):
        raise ValueError("injected box-sum fault")

    monkeypatch.setattr(formulas, "comb", faulty_comb)
    rp = RingParams(2, 2)
    mixed = formulas.SplitForms(check=[LinearForm(2, 1)], hat=[LinearForm(1, 3)])
    with pytest.raises(ValueError, match="injected box-sum fault"):
        formulas.discrepancy_report(rp, 1, mixed)
    code, doc = run_json(
        capsys, "report", "--d", "2", "--q", "2", "--k", "1", "--u", "1", "--forms", "2,1;1,3"
    )
    assert code == 2 and set(doc) == {"error", "schema"}
    assert doc["error"] == "injected box-sum fault"
    # the audit's one declared precondition, a zero b in the check group
    zero_b = formulas.SplitForms(check=[LinearForm(1, 0)], hat=[LinearForm(1, 3)])
    record = formulas.discrepancy_report(rp, 1, zero_b)
    assert record.literal == () and "undefined" in record.literal_error


def test_a_fault_in_a_subcommand_is_exit_2_not_a_mismatch(capsys, monkeypatch):
    # exit 1 means a verified mismatch; an IndexError escaping a route is not one
    import lefdet.cli as cli

    def faulty_report(*args):
        raise IndexError("injected route fault")

    monkeypatch.setattr(cli, "discrepancy_report", faulty_report)
    code = main(["verify", "--dmax", "3", "--trials", "1"])
    captured = capsys.readouterr()
    assert code == 2
    doc = json.loads(captured.out)
    assert set(doc) == {"error", "schema"} and "injected route fault" in doc["error"]
    assert captured.err == ""


@pytest.fixture
def closed_form_off_by_one(monkeypatch):
    """Make the closed form in every cell record wrong by 1."""
    import lefdet.formulas as formulas

    exact = formulas._closed_form_scaled
    monkeypatch.setattr(
        formulas,
        "_closed_form_scaled",
        lambda rp, k, scaled, factor: exact(rp, k, scaled, factor) + 1,
    )


def test_verify_mismatch_names_a_reproducing_report_command(capsys, closed_form_off_by_one):
    code = main(["verify", "--dmax", "3"])
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert code == 1
    cell, row = next(
        (cell, row) for cell in doc["cells"] for row in cell["trials"] if not row["match"]
    )
    # the first mismatch is at a mixed split (u < n): report must check the
    # closed form there too, not only at u == n
    assert cell["u"] < cell["d"] + cell["q"] - 2 * cell["k"]
    lines = captured.err.splitlines()
    assert len(lines) == 1
    where = f"({cell['d']},{cell['q']},{cell['k']},{cell['u']},{row['trial']})"
    # the anchors fail too, but a mismatching trial is the one line
    assert f"first mismatch at (d,q,k,u,trial) = {where}" in lines[0]
    command = shlex.split(lines[0].split("reproduce with: ", 1)[1])
    assert command[:2] == ["lefdet", "report"]

    # the command recomputes that very trial: same forms, same direct
    # determinant, and the same wrong closed form, so it exits 1 too
    code, report = run_json(capsys, *command[1:])
    assert code == 1
    assert [report["inputs"][key] for key in "dqku"] == [cell[key] for key in "dqku"]
    assert report["inputs"]["forms"] == row["forms"]
    assert report["det_direct"] == row["det_direct"]
    assert report["det_closed_form"] == row["det_closed"] != report["det_direct"]
    assert report["matches"]["closed_form"] is False


def test_csv_is_rejected_before_the_lattice_runs(capsys, closed_form_off_by_one):
    # a usage error, not a mismatch: no trial runs and no reproduce line
    code = main(["verify", "--dmax", "3", "--output", "csv"])
    captured = capsys.readouterr()
    assert code == 2 and "error" in json.loads(captured.out)
    assert captured.err == ""


def test_sweep_names_the_same_first_mismatch_and_only_on_exit_1(capsys, request):
    args = ["--dmax", "3", "--seed", "4"]
    assert main(["sweep", *args]) == 0
    assert capsys.readouterr().err == ""
    request.getfixturevalue("closed_form_off_by_one")
    assert main(["verify", *args]) == 1
    verify_err = capsys.readouterr().err
    assert verify_err.startswith("lefdet: first mismatch at")
    assert main(["sweep", *args, "--output", "csv"]) == 1
    assert capsys.readouterr().err == verify_err


def assert_only_the_anchor_fails(capsys):
    """``verify --dmax 4`` exits 1 on a fault that every trial's routes share,
    and the one stderr line names a command that exits 1 on it again."""
    code = main(["verify", "--dmax", "4"])
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert code == 1
    # every trial agrees with itself: the mismatch count still counts trials
    assert doc["summary"]["mismatches"] == 0
    assert all(row["match"] for cell in doc["cells"] for row in cell["trials"])
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("lefdet: anchor failed at (d,q,k,u) = ")
    command = shlex.split(lines[0].split("reproduce with: ", 1)[1])
    assert command[:2] == ["lefdet", "verify"]
    assert command[2:-2:2] == ["--d", "--q", "--k", "--u"] and command[-2:] == ["--trials", "1"]
    assert main(command[1:]) == 1
    assert capsys.readouterr().err == captured.err


@pytest.fixture
def zero_kernel(monkeypatch):
    """Make every determinant of size 2 or more 0."""
    import lefdet.linalg as linalg

    exact = linalg._det_bareiss
    monkeypatch.setattr(
        linalg, "_det_bareiss", lambda m, types: 0 if m.rows >= 2 else exact(m, types)
    )


@pytest.fixture
def inverted_scaling(monkeypatch):
    """Make ``scaled_forms`` multiply by the scaling instead of undoing it,
    for ``det_direct`` (in ``ring``) and every other route (in ``formulas``)."""
    import lefdet.formulas as formulas
    import lefdet.ring as ring
    from lefdet.ring import scaled_forms

    def inverted(rp, k, forms):
        scaled, factor = scaled_forms(rp, k, forms)
        return scaled, 1 / factor

    monkeypatch.setattr(ring, "scaled_forms", inverted)
    monkeypatch.setattr(formulas, "scaled_forms", inverted)


def test_anchor_catches_a_scaling_fault_that_every_route_shares(capsys, inverted_scaling):
    assert_only_the_anchor_fails(capsys)


def test_anchor_catches_a_determinant_kernel_that_returns_0(capsys, zero_kernel):
    assert_only_the_anchor_fails(capsys)


def assert_one_anchor_line(capsys, argv, cell) -> dict:
    """``argv`` exits 1 with verify's one anchor line for ``cell``, whose
    command exits 1 on it again; returns the stdout document."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"lefdet: anchor failed at (d,q,k,u) = {cell}")
    command = shlex.split(lines[0].split("reproduce with: ", 1)[1])
    assert main(command[1:]) == 1
    assert capsys.readouterr().err == captured.err
    return json.loads(captured.out)


REPORT_ARGV = ["report", "--d", "2", "--q", "2", "--k", "1", "--u", "1", "--forms", "2,1;1,3"]


def assert_report_anchor_fails(capsys):
    """``report`` exits 1 on a fault that its record's routes share."""
    doc = assert_one_anchor_line(capsys, REPORT_ARGV, "(2,2,1,1)")
    assert doc["matches"] == {"expansion": True, "closed_form": True}


def test_report_anchor_catches_a_determinant_kernel_that_returns_0(capsys, zero_kernel):
    assert_report_anchor_fails(capsys)


def test_report_anchor_catches_a_scaling_fault_that_every_route_shares(capsys, inverted_scaling):
    assert_report_anchor_fails(capsys)


def test_report_with_a_holding_anchor_writes_nothing_on_stderr(capsys):
    assert main(REPORT_ARGV) == 0
    assert capsys.readouterr().err == ""


DET_CLOSED_ARGV = ["det", "--d", "2", "--q", "2", "--k", "1", "--method", "closed",
                   "--forms", "2,1;1,3"]


def assert_det_closed_anchor_fails(capsys):
    """``det --method closed`` exits 1 on a fault that its two routes share;
    the anchor names the closed form's split, u = d+q-2k."""
    doc = assert_one_anchor_line(capsys, DET_CLOSED_ARGV, "(2,2,1,2)")
    assert doc["match_direct"] is True


def test_det_closed_anchor_catches_a_determinant_kernel_that_returns_0(capsys, zero_kernel):
    assert_det_closed_anchor_fails(capsys)


def test_det_closed_anchor_catches_a_scaling_fault_that_both_routes_share(
    capsys, inverted_scaling
):
    assert_det_closed_anchor_fails(capsys)


def test_det_closed_with_a_holding_anchor_writes_nothing_on_stderr(capsys):
    assert main(DET_CLOSED_ARGV) == 0
    assert capsys.readouterr().err == ""


def test_the_anchor_builds_no_literal_audit(capsys, monkeypatch):
    # one audit per trial: 160 cells x 5 trials, and none for the 160 anchors
    import lefdet.formulas as formulas

    calls = []
    audit = formulas._literal_cases_scaled
    monkeypatch.setattr(
        formulas, "_literal_cases_scaled", lambda *a: calls.append(a) or audit(*a)
    )
    assert main(["verify", "--dmax", "7", "--trials", "5", "--seed", "1"]) == 0
    capsys.readouterr()
    assert len(calls) == 800


def test_every_lattice_cell_is_anchored(capsys, monkeypatch):
    import lefdet.cli as cli

    anchored = []
    exact = cli.degree_anchor

    def recorded(rp, k, splits):
        anchored.extend((rp.d, rp.q, k, u) for u in splits)
        return exact(rp, k, splits)

    monkeypatch.setattr(cli, "degree_anchor", recorded)
    cells = cli.lattice_cells(7)
    assert cli.anchors_hold(cells)
    assert anchored == cells
    assert capsys.readouterr().err == ""


def doubled_expansion(at_split):
    def patch(monkeypatch):
        import lefdet.formulas as formulas

        exact = formulas.det_schur_expansion

        def expansion(rp, k, sf):
            value = exact(rp, k, sf)
            if at_split in (None, sf.u):
                return formulas.Expansion(value.value * 2, value.terms)
            return value

        monkeypatch.setattr(formulas, "det_schur_expansion", expansion)
    return patch


def doubled(route):
    def patch(monkeypatch):
        import lefdet.formulas as formulas

        exact = getattr(formulas, route)
        monkeypatch.setattr(formulas, route, lambda *a: exact(*a) * 2)
    return patch


@pytest.mark.parametrize("fault, holds", [
    (None, lambda u: True),
    (doubled("_det_direct_scaled"), lambda u: False),
    (doubled("_closed_form_scaled"), lambda u: False),
    (doubled_expansion(None), lambda u: False),
    (doubled_expansion(1), lambda u: u != 1),
], ids=["exact", "direct", "closed", "expansion", "expansion-at-u-1"])
def test_anchors_hold_is_degree_anchor_per_cell(capsys, monkeypatch, fault, holds):
    from lefdet.cli import anchors_hold, lattice_cells
    from lefdet.formulas import degree_anchor

    if fault is not None:
        fault(monkeypatch)
    cells = lattice_cells(7)
    per_cell = [degree_anchor(RingParams(d, q), k, [u])[0] for d, q, k, u in cells]
    assert per_cell == [holds(u) for *_, u in cells]
    assert anchors_hold(cells) == all(per_cell)
    err = capsys.readouterr().err
    failing = [cell for cell, anchored in zip(cells, per_cell) if not anchored]
    if failing:
        # one line, for the first failing cell
        assert err.count("\n") == 1
        assert err.startswith("lefdet: anchor failed at (d,q,k,u) = (%d,%d,%d,%d):" % failing[0])
    else:
        assert err == ""


def test_det_closed_anchor_runs_the_expansion_its_reproduce_command_runs(capsys, monkeypatch):
    # a fault in the expansion at u = d+q-2k, where the hat group is empty:
    # the command that the anchor line names exits 1 on it, so det must too
    doubled_expansion(2)(monkeypatch)
    code = main(DET_CLOSED_ARGV)
    captured = capsys.readouterr()
    assert code == 1 and json.loads(captured.out)["match_direct"] is True
    assert captured.err.startswith("lefdet: anchor failed at (d,q,k,u) = (2,2,1,2):")
    command = shlex.split(captured.err.split("reproduce with: ", 1)[1])
    assert command[command.index("--u") + 1] == "2"
    assert main(command[1:]) == 1


def test_verify_with_a_mismatching_trial_runs_no_anchor(
    capsys, monkeypatch, closed_form_off_by_one
):
    # the mismatch is the one stderr line, so the anchor's verdict is not needed
    import lefdet.cli as cli

    calls = []
    monkeypatch.setattr(cli, "degree_anchor", lambda *a: calls.append(a))
    assert main(["verify", "--dmax", "3"]) == 1
    assert capsys.readouterr().err.startswith("lefdet: first mismatch at")
    assert calls == []


def test_verify_runs_det_power_once_per_ring_degree(capsys, monkeypatch):
    import lefdet.formulas as formulas

    calls = []
    exact = formulas.det_power
    monkeypatch.setattr(formulas, "det_power", lambda *a: calls.append(a[:2]) or exact(*a))
    assert main(["verify", "--dmax", "7", "--trials", "5", "--seed", "1"]) == 0
    capsys.readouterr()
    # 160 cells over 40 degrees (d, q, k)
    assert len(calls) == len(set(calls)) == 40


def test_arithmetic_fault_is_an_error_document_not_a_mismatch(capsys, monkeypatch):
    # a failed Bareiss exactness check is a fault of the program, not a
    # verified disagreement between routes, so it must not exit 1
    import lefdet.linalg as linalg

    monkeypatch.setattr(linalg, "divmod", lambda a, b: (a // b, 1), raising=False)
    code, doc = run_json(
        capsys, "det", "--d", "4", "--q", "3", "--k", "1", "--forms=1,2;3,5;1,1;2,7;1,3",
    )
    assert code == 2
    assert doc["error"] == "Bareiss interior division must be exact"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--dmax", "1"],
        ["verify", "--dmax", "-3"],
        ["verify", "--trials", "0"],
        ["sweep", "--trials", "-2"],
        ["sweep", "--dmax", "1", "--output", "csv"],
        ["verify", "--d", "2", "--q", "2", "--k", "1", "--trials", "0"],
        ["verify", "--k", "99", "--dmax", "3"],
        ["sweep", "--q", "2"],
        ["verify", "--u", "0", "--dmax", "2"],
        ["verify", "--d", "2", "--q", "1", "--dmax", "99", "--trials", "1"],
        ["sweep", "--d", "2", "--q", "2", "--k", "1", "--dmax", "6"],
        ["verify", "--d", "-5", "--q", "1"],
    ],
)
def test_vacuous_sweeps_are_usage_errors(capsys, argv):
    code, doc = run_json(capsys, *argv)
    assert code == 2 and "error" in doc


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--d", "-5", "--q", "1"], "need d >= q >= 1, got d=-5, q=1"),
        (["sweep", "--d", "1", "--q", "-2"], "need d >= q >= 1, got d=1, q=-2"),
    ],
)
def test_single_cell_mode_reports_a_bad_ring_by_the_ring_rule(capsys, argv, message):
    code, doc = run_json(capsys, *argv)
    assert code == 2 and doc["error"] == message


def test_threads_flag_is_accepted_and_ignored(capsys):
    args = ["sweep", "--dmax", "3", "--trials", "1", "--seed", "4"]
    _, plain = run(capsys, *args)
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
        0, "f1980e80eeb47c18efb13aff5192995aab8d346c3b5c95096f977595494f5690",
    ),
    (
        ["det", "--d", "4", "--q", "4", "--k", "1", "--u", "3", "--method", "expansion",
         "--forms", "2,1;1,3;-1,2;3,-5;1/2,7;4,-1/3"],
        0, "52f30e6f2e2984f5f6f2aeeff799ab45afbccfa995ee2f91801820475e562e93",
    ),
    (
        ["slp", "--d", "12", "--q", "9", "--forms=-7/2,5/3"],
        0, "4fc69d3767304474b2435671bca24cf65f2fbb99bedf5c772544d10b3a2fe38c",
    ),
    (
        ["slp", "--d", "6", "--q", "4", "--forms=0,3"],
        0, "c91b656ac62229d4ce274d64289bfd3e63f73711a7eb0be4e496cef87b2e6dd4",
    ),
    (
        ["det", "--d", "7", "--q", "5", "--k", "2", "--method", "direct",
         "--forms=3,-1/2;0,5;-7/4,2;6,0;1/3,-9/7;-2,-3;5/6,1;4,-11/10"],
        0, "5c62e27eeecd9546f78fef874b0fe200dbb1f6205359ccd5dbadd529cd24b39e",
    ),
    (
        ["duality", "--r", "2", "--m", "2", "--a", "1,2,-3,5/2", "--b", "3,4,1/7,-2"],
        0, "ea8b2f28c068bd4ba8ef1f27f0bfd656c0bf48fbf84eef2d9c7ab6e28f19125c",
    ),
    (
        ["schur", "--partition", "[2,1]", "--values", "1/2,-3,5"],
        0, "89657f9066ecf6d70289152a1c64c09ebce63f679d0b3d073dfac331a4cc0568",
    ),
    (
        ["duality", "--r", "2", "--n", "2", "--partition", "[1]", "--x", "1,1", "--y", "1,2"],
        0, "f82f0e5788882693e242fb6f24125ca0005fbef26e3d82fe5d6e5ca5c128de69",
    ),
    (
        ["det", "--d", "7", "--q", "5", "--k", "2", "--method", "closed",
         "--forms=3,-1/2;0,5;-7/4,2;6,0;1/3,-9/7;-2,-3;5/6,1;4,-11/10"],
        0, "a3608567236cdf7ce1ff7e5b1a1df90566c5c4a16452919d186130d94a2057f2",
    ),
    (
        ["report", "--d", "2", "--q", "2", "--k", "0", "--u", "4",
         "--forms=3/2,-1/4;5,2/3;-7/5,1/6;2,9/7"],
        0, "ba5baf91417983a645de19254d52c85146b397218005b8b132bf111f423d9ec7",
    ),
    (
        ["report", "--d", "4", "--q", "2", "--k", "2", "--u", "1", "--forms=3/2,-1/4;5,2/3"],
        0, "ff213fce7dd69d105f5219e858e96520427ebad9834748c6cbb34626207016eb",
    ),
]


@pytest.mark.parametrize(
    "argv,code,digest", GOLDEN,
    ids=["verify-seed-11", "verify-allow-zero", "sweep-csv", "report", "det-expansion",
         "slp-rational", "slp-zero-dets", "det-direct-mixed", "duality", "schur",
         "duality-complement", "det-closed-mixed", "report-case3-skips",
         "report-cases-1-4"],
)
def test_output_bytes_are_pinned(capsys, argv, code, digest):
    got_code, out = run(capsys, *argv)
    assert (got_code, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)
