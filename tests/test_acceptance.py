"""Acceptance gate: every criterion is exact (tolerance zero).

Each test prints one pass/fail line; run with ``pytest tests/test_acceptance.py -v -s``.
The expensive lattice walk (criteria 1 and 8) happens once in a module fixture.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest

from lefdet.cli import cell_rng, lattice_cells, random_form
from lefdet.formulas import (
    SplitForms,
    complement_identity_check,
    det_closed_form,
    det_schur_expansion,
    discrepancy_report,
    duality_check,
    slp_check,
    symbolic_forms,
)
from lefdet.linalg import ExactMatrix, cauchy_binet_check
from lefdet.mpoly import MultiPoly
from lefdet.partitions import enumerate_in_rectangle
from lefdet.ring import LinearForm, RingParams, det_direct
from lefdet.symfunc import schur_bialternant, schur_jacobi_trudi, schur_tableaux

SEED = 0
TRIALS_PER_CELL = 20


def report(criterion, text):
    print(f"ACCEPTANCE {criterion}: PASS  {text}")


@pytest.fixture(scope="module")
def lattice_walk():
    """One pass over d >= q >= 1, d+q <= 10, every k, every split, 20 trials.

    Trials 10..19 allow zero coordinates so the division-free paths are
    exercised.  Stores mismatch lists for the expansion (criterion 1) and the
    transposed evaluation (criterion 8).
    """
    expansion_bad = []
    transpose_bad = []
    trials = 0
    t0 = time.time()
    for d, q, k, u in lattice_cells(10):
        rp = RingParams(d, q)
        # the (q, d) ring, which RingParams would refuse for q < d
        flipped = SimpleNamespace(d=q, q=d, socle=d + q)
        n = d + q - 2 * k
        for t in range(TRIALS_PER_CELL):
            rng = cell_rng(SEED, d, q, k, u, t)
            forms = [random_form(rng, allow_zero=t >= 10) for _ in range(n)]
            direct = det_direct(rp, k, forms)
            expansion = det_schur_expansion(rp, k, SplitForms.split(forms, u)).value
            if expansion != direct:
                expansion_bad.append((d, q, k, u, t))
            swapped = det_direct(flipped, k, [LinearForm(f.b, f.a) for f in forms])
            if swapped != direct:
                transpose_bad.append((d, q, k, u, t))
            trials += 1
    return {
        "trials": trials,
        "elapsed": time.time() - t0,
        "expansion_bad": expansion_bad,
        "transpose_bad": transpose_bad,
    }


def test_criterion_1_expansion_equals_brute_force(lattice_walk):
    assert lattice_walk["expansion_bad"] == []
    assert lattice_walk["elapsed"] < 300
    report(
        1,
        f"expansion == direct on {lattice_walk['trials']} trials "
        f"(d+q <= 10, every k and split, zero coordinates included) "
        f"in {lattice_walk['elapsed']:.1f}s",
    )


def test_criterion_2_closed_form_equals_brute_force():
    bad = []
    trials = 0
    for s in range(2, 11):
        for q in range(1, s // 2 + 1):
            d = s - q
            rp = RingParams(d, q)
            for k in range(s // 2 + 1):
                n = s - 2 * k
                for t in range(TRIALS_PER_CELL):
                    rng = cell_rng(SEED, "closed", d, q, k, t)
                    forms = [random_form(rng, allow_zero=t >= 10) for _ in range(n)]
                    if det_closed_form(rp, k, forms) != det_direct(rp, k, forms):
                        bad.append((d, q, k, t))
                    trials += 1
    assert bad == []
    report(2, f"closed form == direct on {trials} trials, zero coordinates included")


def test_criterion_3_symbolic_polynomial_identity():
    t0 = time.time()
    cells = 0
    for s in range(2, 7):
        for q in range(1, s // 2 + 1):
            d = s - q
            rp = RingParams(d, q)
            for k in range(s // 2 + 1):
                n = s - 2 * k
                forms, _ = symbolic_forms(n)
                direct = det_direct(rp, k, forms)
                for u in range(n + 1):
                    got = det_schur_expansion(rp, k, SplitForms.split(forms, u)).value
                    assert got == direct, (d, q, k, u)
                    cells += 1
    elapsed = time.time() - t0
    assert elapsed < 120
    report(3, f"expansion == direct as polynomials on {cells} cells (d+q <= 6) in {elapsed:.1f}s")


def test_symbolic_polynomial_identity_at_socle_7_and_8():
    # criterion 3 stops at d+q <= 6; this extends the proof to the cells of
    # the symbolic benchmark lattice, the closed form included
    t0 = time.time()
    cells = 0
    for s in (7, 8):
        for q in range(1, s // 2 + 1):
            d = s - q
            rp = RingParams(d, q)
            for k in range(s // 2 + 1):
                n = s - 2 * k
                forms, _ = symbolic_forms(n)
                direct = det_direct(rp, k, forms)
                assert det_closed_form(rp, k, forms) == direct, (d, q, k)
                for u in range(n + 1):
                    got = det_schur_expansion(rp, k, SplitForms.split(forms, u)).value
                    assert got == direct, (d, q, k, u)
                    cells += 1
    assert cells == 160
    print(
        f"ACCEPTANCE 3+: PASS  expansion == closed == direct as polynomials on {cells} cells "
        f"(d+q in {{7, 8}}) in {time.time() - t0:.1f}s"
    )


def test_criterion_4_schur_evaluator_triple_agreement():
    shapes = [p for p in enumerate_in_rectangle(8, 8) if p.weight <= 8]
    assert len(shapes) == 67  # partitions of 0..8
    checked = 0
    for lam in shapes:
        for n in range(5):
            rng = cell_rng(SEED, "schur", str(lam), n)
            values = []
            while len(values) < n:
                v = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                if v not in values:
                    values.append(v)
            jt = schur_jacobi_trudi(lam.conjugate(), values)
            assert jt == schur_tableaux(lam, values), (lam, values)
            if len(lam) <= n:
                assert jt == schur_bialternant(lam, values), (lam, values)
            checked += 1
    report(4, f"three evaluators agree on {checked} (shape, point) pairs")


def test_criterion_5_cauchy_binet():
    for i in range(200):
        rng = cell_rng(SEED, "cb", i)
        p = rng.randint(0, 4)
        m = rng.randint(p, 7)
        Y = ExactMatrix(
            p, m, [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(p * m)]
        )
        X = ExactMatrix(
            m, p, [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(m * p)]
        )
        assert cauchy_binet_check(Y, X).equal, i
    x, y = MultiPoly.variables(2)
    pool = [x, y, x + y, x - y, x * y, MultiPoly.constant(2, 1)]
    for i in range(20):
        rng = cell_rng(SEED, "cb-poly", i)
        p = rng.randint(1, 3)
        m = rng.randint(p, 5)
        Y = ExactMatrix(p, m, [rng.choice(pool) * rng.randint(-3, 3) for _ in range(p * m)])
        X = ExactMatrix(m, p, [rng.choice(pool) * rng.randint(-3, 3) for _ in range(m * p)])
        assert cauchy_binet_check(Y, X).equal, i
    report(5, "det(YX) == minor sum on 200 rational + 20 polynomial instances")


def test_criterion_6_duality_identities():
    def nonzero(rng):
        return Fraction(rng.choice([n for n in range(-9, 10) if n]), rng.randint(1, 9))

    checked = 0
    for r in range(1, 5):
        for m in range(1, 5):
            for t in range(10):
                rng = cell_rng(SEED, "duality", r, m, t)
                a = [nonzero(rng) for _ in range(2 * m)]
                b = [nonzero(rng) for _ in range(2 * m)]
                assert duality_check(r, m, a, b).equal, (r, m, t)
                checked += 1
    for r in range(1, 4):
        for n in range(1, 4):
            for lam in enumerate_in_rectangle(r, n):
                for t in range(10):
                    rng = cell_rng(SEED, "complement", r, n, str(lam), t)
                    x = [nonzero(rng) for _ in range(n)]
                    y = [nonzero(rng) for _ in range(n)]
                    assert complement_identity_check(lam, r, n, x, y).equal, (r, n, lam, t)
                    checked += 1
    report(6, f"rectangle duality and complement identity hold on {checked} instances")


def test_criterion_7_strong_lefschetz_for_x_plus_y():
    one = LinearForm(Fraction(1), Fraction(1))
    pairs = 0
    for s in range(2, 13):
        for q in range(1, s // 2 + 1):
            d = s - q
            result = slp_check(RingParams(d, q), one)
            assert result.holds, (d, q, [(e.k, e.det) for e in result.entries])
            for e in result.entries:
                direct = det_direct(RingParams(d, q), e.k, [one] * (s - 2 * e.k))
                assert e.det == direct, (d, q, e.k)
            pairs += 1
    report(7, f"every per-k determinant nonzero for x+y across {pairs} rings (d+q <= 12)")


def test_criterion_8_transposition_symmetry(lattice_walk):
    assert lattice_walk["transpose_bad"] == []
    report(
        8,
        f"determinant invariant under the (d,q)/(a,b) swap on "
        f"{lattice_walk['trials']} trials",
    )


def test_criterion_9_audit_fixtures():
    rp = RingParams(2, 2)
    forms = [LinearForm(Fraction(2), Fraction(1)), LinearForm(Fraction(1), Fraction(3))]
    record = discrepancy_report(rp, 1, SplitForms.split(forms, 1))
    assert record.direct == 43
    assert record.expansion.value == 43
    case2 = next(c for c in record.literal if c.case_id == 2)
    assert case2.value == 36 != record.direct

    symb, _ = symbolic_forms(2)
    record = discrepancy_report(RingParams(4, 2), 2, SplitForms.split(symb, 1))
    a1, a2, b1, b2 = (*[f.a for f in symb], *[f.b for f in symb])
    assert record.direct == a1**3 * a2**3
    assert record.expansion_matches is True
    case1 = next(c for c in record.literal if c.case_id == 1)
    assert case1.value == a1**3 * b2**3
    assert case1.value != record.direct
    report(9, "(2,2,1,1): direct=expansion=43, literal 36 flagged; "
              "(4,2,2,1) symbolic: direct a1^3*a2^3 vs literal a1^3*b2^3 flagged")


def test_criterion_10_verify_is_byte_identical_from_run_to_run():
    argv = [sys.executable, "-m", "lefdet", "verify", "--dmax", "5", "--trials", "3",
            "--seed", "11"]
    outputs = []
    for _ in range(2):
        run = subprocess.run(argv, capture_output=True, text=True, check=True)
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]
    doc = json.loads(outputs[0])
    assert doc["summary"]["mismatches"] == 0
    report(10, f"run-to-run determinism: verify output byte-identical across two runs "
               f"of the same argv ({len(outputs[0])} bytes, {doc['inputs']['cells']} cells)")
