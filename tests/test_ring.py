import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from lefdet.formulas import SplitForms, det_schur_expansion, slp_check, symbolic_forms
from lefdet.linalg import ExactMatrix, det_bareiss, det_laplace
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
    scaled_forms,
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


def test_exponents_must_be_ints():
    # inexact or non-integral degrees are rejected at the boundary; bool is an
    # int subclass, so it needs a case of its own
    for d, q in ((2.0, 1), (2, 1.0), (Fraction(2), 1), (True, True), (2, True)):
        with pytest.raises(ValueError, match="not an int"):
            RingParams(d, q)


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
    assert basis(rp, 3) == ((3, 0), (2, 1), (1, 2))
    assert basis(rp, 0) == ((0, 0),)
    assert basis(rp, 5) == ((3, 2),)
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
                assert list(basis(rp, k)) == expected
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


def test_block_degree_guard_reports_its_own_range():
    # k + u past the socle must stop at the block's guard; a later ValueError
    # from basis(rp, k + u) would hide a guard that lets it through
    with pytest.raises(ValueError, match=r"^degrees 2\.\.5 outside 0\.\.4$"):
        mult_matrix_block(RingParams(2, 2), [LinearForm(1, 1)] * 3, 2)


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
        src = [j for _, j in basis(rp, k)]
        tgt = [j for _, j in basis(rp, k + u)]
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
        # RingParams fixes d >= q; the functions below read only d, q and socle
        flipped = SimpleNamespace(d=q, q=d, socle=d + q)
        swapped_forms = [LinearForm(f.b, f.a) for f in forms]
        assert det_direct(rp, k, forms) == det_direct(flipped, k, swapped_forms)


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


@st.composite
def cells_and_points(draw):
    """A cell (d, q, k, u) with d+q <= 6 and a point with nonzero rational coordinates."""
    q = draw(st.integers(min_value=1, max_value=3))
    d = draw(st.integers(min_value=q, max_value=6 - q))
    k = draw(st.integers(min_value=0, max_value=(d + q) // 2))
    n = d + q - 2 * k
    u = draw(st.integers(min_value=0, max_value=n))
    nonzero = st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool)
    point = draw(st.lists(nonzero, min_size=2 * n, max_size=2 * n))
    return d, q, k, u, point


@given(cells_and_points())
def test_symbolic_evaluation_agrees_with_both_rational_determinants(case):
    # the symbolic determinant, evaluated, against Bareiss and Laplace on the
    # rational forms at the same point: three independent routes
    d, q, k, u, point = case
    rp = RingParams(d, q)
    n = d + q - 2 * k
    forms, _ = symbolic_forms(n)
    rational = [LinearForm(point[i], point[n + i]) for i in range(n)]
    block = mult_matrix_block(rp, rational, k)
    expected = det_bareiss(block)
    assert det_laplace(block) == expected
    symbolic = det_direct(rp, k, forms)
    value = symbolic.eval(point) if isinstance(symbolic, MultiPoly) else symbolic
    assert value == expected
    expansion = det_schur_expansion(rp, k, SplitForms.split(forms, u)).value
    assert expansion == symbolic


@st.composite
def rational_cells(draw):
    """A cell (d, q, k) with d+q <= 9 and forms mixing int and Fraction coefficients.

    Coefficients carry either sign, may be zero (never both in one form) and
    have denominators up to 10^6, so the primitive integer scaling in
    ``det_direct`` meets nontrivial lcms and gcds.
    """
    q = draw(st.integers(min_value=1, max_value=4))
    d = draw(st.integers(min_value=q, max_value=9 - q))
    k = draw(st.integers(min_value=0, max_value=(d + q) // 2))
    coeff = st.one_of(
        st.integers(min_value=-12, max_value=12),
        st.builds(
            Fraction,
            st.integers(min_value=-(10**6), max_value=10**6),
            st.integers(min_value=1, max_value=10**6),
        ),
    )
    pair = st.tuples(coeff, coeff).filter(lambda ab: ab != (0, 0))
    pairs = draw(st.lists(pair, min_size=d + q - 2 * k, max_size=d + q - 2 * k))
    return d, q, k, [LinearForm(a, b) for a, b in pairs]


@given(rational_cells())
def test_integer_route_agrees_with_laplace_on_the_rational_block(case):
    # a record reduces the block of the primitive integer pairs and undoes the
    # scaling by one factor; Laplace on the unscaled rational block shares none of that
    d, q, k, forms = case
    rp = RingParams(d, q)
    scaled, factor = scaled_forms(rp, k, forms)
    assert det_direct(rp, k, scaled) * factor == det_laplace(mult_matrix_block(rp, forms, k))


def test_scaled_forms_returns_symbolic_forms_unchanged_with_the_int_factor_one():
    # n >= 1: an empty list has no symbolic coefficient and takes the rational path
    for n in range(1, 6):
        forms, _ = symbolic_forms(n)
        # n forms make a square cell on degree 1 of (n+1, 1)
        scaled, factor = scaled_forms(RingParams(n + 1, 1), 1, forms)
        assert scaled == tuple(forms)
        assert all(s is f for s, f in zip(scaled, forms))
        assert type(factor) is int and factor == 1


def test_scaled_forms_makes_primitive_integer_pairs_and_one_factor():
    rp, k = RingParams(3, 2), 1
    forms = [F("3/2", "-9/4"), LinearForm(4, 6), F(0, "5/7")]
    scaled, factor = scaled_forms(rp, k, forms)
    assert scaled == (LinearForm(2, -3), LinearForm(2, 3), LinearForm(0, 1))
    assert all(type(c) is int for f in scaled for c in (f.a, f.b))
    # s_t = 4/3, 1/2, 7/5 and dim(R_1) = 2
    assert type(factor) is Fraction
    assert factor == 1 / (Fraction(4, 3) * Fraction(1, 2) * Fraction(7, 5)) ** 2
