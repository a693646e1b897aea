import random
from fractions import Fraction

import pytest

from lefdet.linalg import ExactMatrix
from lefdet.mpoly import MultiPoly
from lefdet.ring import (
    LinearForm,
    RingParams,
    basis,
    det_direct,
    dim,
    mult_matrix,
    mult_matrix_block,
    product_coefficients,
    slp_check,
)
from lefdet.symfunc import elementary


def F(a, b):
    return LinearForm(Fraction(a), Fraction(b))


def random_forms(rng, n, nonzero=False):
    forms = []
    while len(forms) < n:
        a = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        b = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if a == 0 and b == 0:
            continue
        if nonzero and (a == 0 or b == 0):
            continue
        forms.append(LinearForm(a, b))
    return forms


def expand_product_in_xy(forms):
    """Oracle: multiply the linear forms out as 2-variable polynomials."""
    x, y = MultiPoly.variables(2)
    prod = MultiPoly.constant(2, 1)
    for f in forms:
        prod = prod * (f.a * x + f.b * y)
    u = len(forms)
    return [prod.terms.get((u - i, i), Fraction(0)) for i in range(u + 1)]


# --- parameters and forms ----------------------------------------------------


def test_ring_params_validation():
    RingParams(3, 2)
    RingParams(1, 1)
    with pytest.raises(ValueError):
        RingParams(2, 3)
    with pytest.raises(ValueError):
        RingParams(1, 0)


def test_swapped_twin_bypasses_normalization():
    swapped = RingParams(3, 1).swapped()
    assert (swapped.d, swapped.q) == (1, 3)
    assert dim(swapped, 2) == 2


def test_linear_form_must_be_nonzero():
    with pytest.raises(ValueError):
        LinearForm(0, Fraction(0))
    LinearForm(Fraction(0), Fraction(1))


def test_linear_form_rejects_inexact_coefficients():
    for a, b in ((0.5, 1), (1, 3.0), ("1", 2), (None, 1)):
        with pytest.raises(ValueError, match="not exact"):
            LinearForm(a, b)
    x = MultiPoly.variable(2, 0)
    assert LinearForm(x, Fraction(1, 2)).a == x


# --- bases and dimensions ----------------------------------------------------


def test_basis_examples():
    rp = RingParams(3, 2)
    assert basis(rp, 3).monomials == ((3, 0), (2, 1), (1, 2))
    assert basis(rp, 0).monomials == ((0, 0),)
    assert basis(rp, 5).monomials == ((3, 2),)
    with pytest.raises(ValueError):
        basis(rp, 6)


def test_basis_matches_monomial_filter():
    for d in range(1, 5):
        for q in range(1, d + 1):
            rp = RingParams(d, q)
            for k in range(d + q + 1):
                expected = [
                    (i, k - i) for i in range(min(d, k), -1, -1) if 0 <= k - i <= q
                ]
                assert list(basis(rp, k).monomials) == expected
                assert dim(rp, k) == len(expected)


def test_dim_examples_and_symmetry():
    rp = RingParams(3, 2)
    assert [dim(rp, k) for k in range(6)] == [1, 2, 3, 3, 2, 1]
    assert dim(rp, -1) == 0 and dim(rp, 6) == 0
    for d in range(1, 6):
        for q in range(1, d + 1):
            rp = RingParams(d, q)
            s = d + q
            for k in range(s + 1):
                assert dim(rp, k) == dim(rp, s - k)
            if q <= d:
                assert dim(rp, q) == q + 1


def test_dims_unimodal():
    for d in range(1, 7):
        for q in range(1, d + 1):
            rp = RingParams(d, q)
            dims = [dim(rp, k) for k in range(d + q + 1)]
            mid = (d + q) // 2
            assert all(dims[k] <= dims[k + 1] for k in range(mid))
            assert dims == dims[::-1]


# --- product coefficients ----------------------------------------------------


def test_product_coefficients_examples():
    assert product_coefficients([F(2, 1), F(1, 3)]) == [2, 7, 3]
    assert product_coefficients([]) == [1]
    assert product_coefficients([F(1, 1), F(1, 1)]) == [1, 2, 1]


def test_product_coefficients_against_xy_expansion():
    rng = random.Random(8)
    for _ in range(25):
        forms = random_forms(rng, rng.randint(0, 5))
        assert product_coefficients(forms) == expand_product_in_xy(forms)


# --- multiplication matrices -------------------------------------------------


def test_mult_matrix_examples():
    assert mult_matrix(RingParams(2, 2), F(1, 1), 1) == ExactMatrix.from_rows(
        [[1, 0], [1, 1], [0, 1]]
    )
    a, b = Fraction(5), Fraction(7)
    assert mult_matrix(RingParams(2, 1), LinearForm(a, b), 1) == ExactMatrix.from_rows(
        [[a, 0], [b, a]]
    )
    assert mult_matrix(RingParams(1, 1), F(0, 1), 0) == ExactMatrix.from_rows([[0], [1]])


def test_block_matrix_example_and_identity():
    rp = RingParams(2, 2)
    assert mult_matrix_block(rp, [F(2, 1), F(1, 3)], 1) == ExactMatrix.from_rows(
        [[7, 2], [3, 7]]
    )
    assert mult_matrix_block(rp, [], 1) == ExactMatrix.identity(2)


def test_matrix_degree_range_errors():
    rp = RingParams(2, 2)
    with pytest.raises(ValueError):
        mult_matrix(rp, F(1, 1), 4)
    with pytest.raises(ValueError):
        mult_matrix_block(rp, [F(1, 1)], 4)
    with pytest.raises(ValueError):
        mult_matrix_block(rp, [F(1, 1)] * 3, 2)


def test_block_equals_chained_single_form_matrices():
    rng = random.Random(9)
    for d in range(1, 7):
        for q in range(1, min(d, 8 - d) + 1):
            rp = RingParams(d, q)
            s = d + q
            for k in range(s + 1):
                for _ in range(2):
                    u = rng.randint(0, s - k)
                    forms = random_forms(rng, u)
                    chained = ExactMatrix.identity(dim(rp, k))
                    for t, f in enumerate(forms):
                        chained = mult_matrix(rp, f, k + t) @ chained
                    assert mult_matrix_block(rp, forms, k) == chained


def test_block_entry_law_both_mirrors():
    rng = random.Random(10)
    for _ in range(10):
        d, q = 4, 2
        rp = RingParams(d, q)
        k = rng.randint(0, 2)
        u = rng.randint(0, d + q - 2 * k)
        forms = random_forms(rng, u, nonzero=True)
        m = mult_matrix_block(rp, forms, k)
        src = basis(rp, k).y_exponents
        tgt = basis(rp, k + u).y_exponents
        prod_b = prod_a = Fraction(1)
        for f in forms:
            prod_b *= f.b
            prod_a *= f.a
        over_b = tuple(f.a / f.b for f in forms)
        over_a = tuple(f.b / f.a for f in forms)
        for r, i in enumerate(tgt):
            for c, j in enumerate(src):
                assert m[r, c] == prod_b * elementary(u + j - i, over_b)
                assert m[r, c] == prod_a * elementary(i - j, over_a)


# --- brute-force determinants ------------------------------------------------


def test_det_direct_examples():
    assert det_direct(RingParams(1, 1), 0, [F(1, 2), F(3, 1)]) == 7
    assert det_direct(RingParams(2, 2), 1, [F(2, 1), F(1, 3)]) == 43
    assert det_direct(RingParams(2, 2), 2, []) == 1


def test_det_direct_wrong_form_count():
    with pytest.raises(ValueError, match="non-square"):
        det_direct(RingParams(2, 2), 1, [F(1, 1)])
    with pytest.raises(ValueError):
        det_direct(RingParams(2, 2), 3, [])


def test_det_direct_invariant_under_form_permutation():
    rng = random.Random(11)
    for _ in range(10):
        d = rng.randint(1, 4)
        q = rng.randint(1, d)
        rp = RingParams(d, q)
        k = rng.randint(0, (d + q) // 2)
        forms = random_forms(rng, d + q - 2 * k)
        reference = det_direct(rp, k, forms)
        for _ in range(3):
            shuffled = forms[:]
            rng.shuffle(shuffled)
            assert det_direct(rp, k, shuffled) == reference


def test_transposition_symmetry():
    rng = random.Random(12)
    for _ in range(20):
        d = rng.randint(1, 4)
        q = rng.randint(1, d)
        rp = RingParams(d, q)
        k = rng.randint(0, (d + q) // 2)
        forms = random_forms(rng, d + q - 2 * k)
        swapped_forms = [LinearForm(f.b, f.a) for f in forms]
        assert det_direct(rp, k, forms) == det_direct(rp.swapped(), k, swapped_forms)


# --- strong Lefschetz scan ---------------------------------------------------


def test_slp_examples():
    report = slp_check(RingParams(1, 1), F(1, 1))
    assert [(e.k, e.det) for e in report.entries] == [(0, 2), (1, 1)]
    assert report.holds

    report = slp_check(RingParams(2, 1), F(1, 0))
    by_k = {e.k: e for e in report.entries}
    assert by_k[1].det == 1 and by_k[1].nonzero
    assert by_k[0].det == 0 and not by_k[0].nonzero
    assert not report.holds


def test_slp_holds_for_sum_of_variables_small():
    for d in range(1, 5):
        for q in range(1, d + 1):
            assert slp_check(RingParams(d, q), F(1, 1)).holds
