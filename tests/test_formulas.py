import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

from lefdet.formulas import (
    ANCHOR_FORM,
    SplitForms,
    _rectangle_sides,
    _rectangle_tableaux,
    complement_identity_check,
    degree_anchor,
    det_closed_form,
    det_literal_cases,
    det_power,
    det_schur_expansion,
    discrepancy_report,
    duality_check,
    form_pair,
    slp_check,
    symbolic_forms,
)
from lefdet.mpoly import MultiPoly
from lefdet.partitions import Partition, enumerate_in_rectangle, rectangle
from lefdet.linalg import det_mod, primitive_part
from lefdet.ring import LinearForm, RingParams, det_direct, dim, mult_matrix_block, scaled_forms
from lefdet.symfunc import schur, schur_homog, schur_jacobi_trudi


def F(a, b):
    return LinearForm(Fraction(a), Fraction(b))


def random_forms(rng, n, allow_zero=False):
    forms = []
    while len(forms) < n:
        a = Fraction(rng.randint(-9, 9) if allow_zero else rng.choice([1, 2, 3, -1, -2, 5]),
                     rng.randint(1, 4))
        b = Fraction(rng.randint(-9, 9) if allow_zero else rng.choice([1, 2, 3, -1, -4, 7]),
                     rng.randint(1, 4))
        if a == 0 and b == 0:
            continue
        forms.append(LinearForm(a, b))
    return forms


def prod(values):
    out = Fraction(1)
    for v in values:
        out *= v
    return out


def literal_case_by_ratios(case_id, rp, k, sf):
    """Oracle: the displayed per-case ratio formulas, transcribed directly."""
    d, q = rp.d, rp.q
    u, v = len(sf.check), len(sf.hat)
    beta = prod(f.b for f in sf.check)
    alpha = prod(f.a for f in sf.hat)
    cr = tuple(f.a / f.b for f in sf.check)
    hr = tuple(f.b / f.a for f in sf.hat)
    if case_id == 1:
        return (
            alpha ** (q + 1)
            * beta ** (q + 1)
            * schur(rectangle(q + 1, u), cr)
            * schur(rectangle(q + 1, v), hr)
        )
    scale = alpha ** (k + 1) * beta ** (k + 1)
    if case_id == 2:
        box = rectangle(u, k + 1)
    elif case_id == 4:
        box = rectangle(q - k, k + 1)
    else:
        box = rectangle(u, k + 1)
    total = Fraction(0)
    for lam in enumerate_in_rectangle(box.part(0), k + 1):
        if lam.part(0) > d:
            continue
        mu = lam.complement(d, k + 1)
        if case_id == 3:
            total += schur_jacobi_trudi(mu, cr) * schur_jacobi_trudi(lam, hr)
        else:
            total += schur_jacobi_trudi(lam, cr) * schur_jacobi_trudi(mu, hr)
    return scale * total


# --- the expansion -----------------------------------------------------------


def test_expansion_example_2_2_split_1():
    rp = RingParams(2, 2)
    sf = SplitForms(check=[F(2, 1)], hat=[F(1, 3)])
    got = det_schur_expansion(rp, 1, sf)
    assert got.value == 43 == det_direct(rp, 1, sf.all_forms)
    assert [(t.delta, t.lam, t.nu, t.value) for t in got.terms] == [
        ((0, 1), Partition([1, 1]), Partition([1, 1]), 36),
        ((0, 2), Partition([1]), Partition([1]), 6),
        ((1, 2), Partition(), Partition(), 1),
    ]


def test_expansion_example_empty_check_group():
    rp = RingParams(2, 1)
    sf = SplitForms(check=[], hat=[F(2, 3)])
    got = det_schur_expansion(rp, 1, sf)
    assert got.value == 4 == det_direct(rp, 1, sf.all_forms)
    assert len(got.terms) == 1
    term = got.terms[0]
    assert term.delta == (0, 1)
    assert term.lam == Partition() and term.nu == Partition()


def test_expansion_example_symbolic_4_2():
    forms, _ = symbolic_forms(2)
    rp = RingParams(4, 2)
    sf = SplitForms.split(forms, 1)
    got = det_schur_expansion(rp, 2, sf)
    direct = det_direct(rp, 2, forms)
    a1, a2 = forms[0].a, forms[1].a
    assert direct == a1**3 * a2**3
    assert got.value == direct
    assert len(got.terms) == 1
    assert got.terms[0].lam == Partition([1, 1, 1])
    assert got.terms[0].nu == Partition()


def test_symbolic_forms_rejects_a_negative_count():
    assert symbolic_forms(0) == ([], [])
    with pytest.raises(ValueError, match="form count -1 is negative"):
        symbolic_forms(-1)


def test_expansion_split_size_validation():
    rp = RingParams(2, 2)
    with pytest.raises(ValueError):
        det_schur_expansion(rp, 1, SplitForms(check=[F(1, 1)], hat=[]))
    with pytest.raises(ValueError):
        SplitForms.split([F(1, 1)], 2)


def test_expansion_agrees_with_direct_on_random_sweep():
    rng = random.Random(21)
    for s in range(2, 7):
        for q in range(1, s // 2 + 1):
            d = s - q
            rp = RingParams(d, q)
            for k in range(s // 2 + 1):
                n = s - 2 * k
                for u in range(n + 1):
                    for trial in range(3):
                        forms = random_forms(rng, n, allow_zero=trial == 2)
                        sf = SplitForms.split(forms, u)
                        assert det_schur_expansion(rp, k, sf).value == det_direct(
                            rp, k, forms
                        ), (d, q, k, u, forms)


def test_expansion_trace_consistency():
    rng = random.Random(22)
    from lefdet.ring import dim

    for _ in range(20):
        d = rng.randint(1, 5)
        q = rng.randint(1, d)
        rp = RingParams(d, q)
        k = rng.randint(0, (d + q) // 2)
        n = d + q - 2 * k
        u = rng.randint(0, n)
        sf = SplitForms.split(random_forms(rng, n), u)
        got = det_schur_expansion(rp, k, sf)
        size = dim(rp, k)
        box = rectangle(u, size)
        assert len(got.terms) <= comb(u + size, size)
        for term in got.terms:
            assert box.contains(term.lam)
            assert len(term.delta) == size
            assert all(a < b for a, b in zip(term.delta, term.delta[1:]))


def test_empty_hat_degenerates_to_the_closed_form_term_for_term():
    rng = random.Random(23)
    for _ in range(15):
        d = rng.randint(1, 5)
        q = rng.randint(1, d)
        rp = RingParams(d, q)
        k = rng.randint(0, (d + q) // 2)
        n = d + q - 2 * k
        forms = random_forms(rng, n)
        got = det_schur_expansion(rp, k, SplitForms(check=forms, hat=[]))
        assert len(got.terms) == 1
        term = got.terms[0]
        assert term.nu == Partition()
        if k <= q:
            assert term.lam == rectangle(d - k, k + 1)
        else:
            assert term.lam == rectangle(d + q - 2 * k, q + 1)
        assert term.value == got.value == det_closed_form(rp, k, forms)


# --- the closed form ---------------------------------------------------------


def test_closed_form_examples():
    assert det_closed_form(RingParams(1, 1), 0, [F(1, 2), F(3, 1)]) == 7
    assert det_closed_form(RingParams(2, 2), 1, [F(1, 1), F(1, 1)]) == 3
    assert det_closed_form(RingParams(2, 1), 1, [F(2, 3)]) == 4


def test_closed_form_agrees_with_direct_including_zero_coordinates():
    rng = random.Random(24)
    for s in range(2, 8):
        for q in range(1, s // 2 + 1):
            d = s - q
            rp = RingParams(d, q)
            for k in range(s // 2 + 1):
                n = s - 2 * k
                for trial in range(4):
                    forms = random_forms(rng, n, allow_zero=trial >= 2)
                    assert det_closed_form(rp, k, forms) == det_direct(rp, k, forms)


@st.composite
def closed_form_cells(draw):
    """A cell with d+q <= 12 and forms with int or Fraction coordinates, one may be zero."""
    q = draw(st.integers(min_value=1, max_value=6))
    d = draw(st.integers(min_value=q, max_value=12 - q))
    k = draw(st.integers(min_value=0, max_value=(d + q) // 2))
    coeff = st.one_of(
        st.integers(min_value=-10**6, max_value=10**6),
        st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6),
    )
    pairs = draw(st.lists(
        st.tuples(coeff, coeff).filter(lambda ab: ab != (0, 0)),
        min_size=d + q - 2 * k, max_size=d + q - 2 * k,
    ))
    return RingParams(d, q), k, [LinearForm(a, b) for a, b in pairs]


@given(closed_form_cells())
def test_closed_form_on_integer_pairs_equals_the_rational_pair_evaluation(cell):
    rp, k, forms = cell
    width, height = (rp.d - k, k + 1) if k <= rp.q else (rp.socle - 2 * k, rp.q + 1)
    scaled, factor = scaled_forms(rp, k, forms)
    got = det_closed_form(rp, k, scaled) * factor
    assert got == schur_homog(rectangle(width, height), form_pair(forms), rows=height)


def test_closed_form_size_validation():
    with pytest.raises(ValueError):
        det_closed_form(RingParams(2, 2), 1, [F(1, 1)])


@pytest.mark.parametrize("k,nforms", [(1, 1), (1, 3), (3, 0), (-1, 6), (1.0, 2), (True, 2)])
def test_every_route_raises_the_one_cell_rule(k, nforms):
    # one rule, one message: every route and scaled_forms call ring.check_cell
    rp = RingParams(2, 2)
    forms = [F(1, 1)] * nforms
    with pytest.raises(ValueError) as direct:
        det_direct(rp, k, forms)
    routes = (
        lambda: det_closed_form(rp, k, forms),
        lambda: det_schur_expansion(rp, k, SplitForms.split(forms, 0)),
        lambda: det_literal_cases(rp, k, SplitForms.split(forms, 0)),
        lambda: discrepancy_report(rp, k, SplitForms.split(forms, 0)),
        lambda: scaled_forms(rp, k, forms),
    )
    for route in routes:
        with pytest.raises(ValueError) as err:
            route()
        assert str(err.value) == str(direct.value)


# --- powers of one form: the hook-content product ----------------------------


def test_power_equals_direct_as_a_polynomial_identity():
    # a and b symbolic: one identity per cell covers every form on it
    form = LinearForm(*MultiPoly.variables(2))
    cells = 0
    for s in range(2, 21):
        for q in range(1, s // 2 + 1):
            rp = RingParams(s - q, q)
            for k in range(s // 2 + 1):
                direct = det_direct(rp, k, [form] * (s - 2 * k))
                assert det_power(rp, k, form) == direct, (s - q, q, k)
                cells += 1
    assert cells == 770


def test_power_equals_the_block_modulo_a_prime_on_every_k_of_40_30():
    # Gaussian elimination mod p on the primitive integer block shares no
    # code with the hook-content product; a match is a certificate mod p
    p = 2**61 - 1
    rp, form = RingParams(40, 30), LinearForm(Fraction(7, 2), Fraction(-5, 3))
    for k in range(rp.socle // 2 + 1):
        scaled, factor = scaled_forms(rp, k, [form] * (rp.socle - 2 * k))
        integer = det_power(rp, k, form) / factor
        assert integer.denominator == 1
        assert det_mod(mult_matrix_block(rp, scaled, k), p) == integer.numerator % p, k


@st.composite
def slp_rings_and_forms(draw):
    """A ring with d+q <= 14 and a form with int or Fraction coordinates, one may be zero."""
    q = draw(st.integers(min_value=1, max_value=7))
    d = draw(st.integers(min_value=q, max_value=14 - q))
    coeff = st.one_of(
        st.integers(min_value=-50, max_value=50),
        st.fractions(min_value=-50, max_value=50, max_denominator=50),
    )
    a, b = draw(st.tuples(coeff, coeff).filter(lambda ab: ab != (0, 0)))
    return RingParams(d, q), LinearForm(a, b)


@given(slp_rings_and_forms())
def test_slp_scan_equals_direct_and_holds_exactly_when_ab_is_nonzero(case):
    rp, form = case
    report = slp_check(rp, form)
    assert [e.k for e in report.entries] == list(range(rp.socle // 2 + 1))
    rational = Fraction in (type(form.a), type(form.b))
    for e in report.entries:
        assert type(e.det) is (Fraction if rational else int)
        assert e.det == det_direct(rp, e.k, [form] * (rp.socle - 2 * e.k))
        assert e.nonzero is (e.det != 0)
    # every hook-content factor is positive, so only a zero coordinate can fail
    assert report.holds is (form.a != 0 and form.b != 0)


def test_tableau_count_is_the_same_over_a_rectangle_and_its_complement():
    # det_power counts over min(W, n-W) rows; the W-row loop must give the same
    for n in range(41):
        for width in range(n + 1):
            for height in range(n + 1):
                assert _rectangle_tableaux(n, width, height) == _rectangle_tableaux(
                    n, n - width, height
                ), (n, width, height)


@pytest.mark.parametrize("k", [3, -1, "1"])
def test_power_raises_the_one_cell_rule(k):
    rp = RingParams(2, 2)
    with pytest.raises(ValueError):
        det_power(rp, k, F(1, 1))


# --- literal case audit ------------------------------------------------------


def test_literal_case_1_trivial_split_matches_direct():
    forms, _ = symbolic_forms(2)
    rp = RingParams(4, 2)
    sf = SplitForms.split(forms, 2)
    direct = det_direct(rp, 2, forms)
    cases = {c.case_id: c for c in det_literal_cases(rp, 2, sf)}
    a1, a2 = forms[0].a, forms[1].a
    assert cases[1].value == (a1 * a2) ** 3 == direct


def test_literal_case_1_mixed_split_disagrees():
    forms, _ = symbolic_forms(2)
    rp = RingParams(4, 2)
    sf = SplitForms.split(forms, 1)
    direct = det_direct(rp, 2, forms)
    cases = {c.case_id: c for c in det_literal_cases(rp, 2, sf)}
    a1, b2 = forms[0].a, forms[1].b
    assert cases[1].value == a1**3 * b2**3
    assert cases[1].value != direct


def test_literal_case_2_flagged_on_the_2_2_instance():
    rp = RingParams(2, 2)
    sf = SplitForms(check=[F(2, 1)], hat=[F(1, 3)])
    cases = {c.case_id: c for c in det_literal_cases(rp, 1, sf)}
    assert cases[2].value == 36
    assert det_direct(rp, 1, sf.all_forms) == 43


def test_literal_cases_error_on_vanishing_group_product():
    # the audit's one declared precondition: it is None, not an error
    rp = RingParams(2, 2)
    assert det_literal_cases(rp, 1, SplitForms(check=[F(1, 0)], hat=[F(1, 3)])) is None
    assert det_literal_cases(rp, 1, SplitForms(check=[F(2, 1)], hat=[F(0, 3)])) is None


def test_literal_carriers_match_ratio_transcription():
    rng = random.Random(25)
    for _ in range(25):
        d = rng.randint(1, 5)
        q = rng.randint(1, d)
        rp = RingParams(d, q)
        k = rng.randint(0, (d + q) // 2)
        n = d + q - 2 * k
        u = rng.randint(0, n)
        forms = []
        while len(forms) < n:  # every coordinate nonzero so the ratios exist
            a = Fraction(rng.choice([1, 2, 3, -1, -2]), rng.randint(1, 3))
            b = Fraction(rng.choice([1, 2, -1, -3, 4]), rng.randint(1, 3))
            forms.append(LinearForm(a, b))
        sf = SplitForms.split(forms, u)
        for case in det_literal_cases(rp, k, sf):
            assert case.value == literal_case_by_ratios(case.case_id, rp, k, sf), (
                d, q, k, u, case.case_id,
            )


def test_literal_case_3_skips_oversized_complements():
    # with u > d the displayed sum asks for complements that do not exist
    rp = RingParams(2, 2)
    forms = [F(1, 2), F(2, 1), F(1, 1), F(3, 1)]
    sf = SplitForms.split(forms, 3)
    cases = {c.case_id: c for c in det_literal_cases(rp, 0, sf)}
    assert cases[3].skipped_terms > 0


def literal_cases_on_rational_pairs(rp, k, sf):
    """Reference: the audit's displayed formulas on ``sf.check_pair()`` and
    ``sf.hat_pair()`` themselves, as (case_id, value, skipped_terms), or None
    when a group product vanishes."""
    d, q, u, v = rp.d, rp.q, sf.u, len(sf.hat)
    if prod(f.b for f in sf.check) == 0 or prod(f.a for f in sf.hat) == 0:
        return None
    check_pair, hat_pair = sf.check_pair(), sf.hat_pair()
    cases = []
    if q <= k:
        value = schur_homog(rectangle(u, q + 1), check_pair, rows=q + 1) * schur_homog(
            rectangle(v, q + 1), hat_pair, rows=q + 1
        )
        cases.append((1, value, 0))

    def box_sum(width, first_pair, second_pair):
        value, skipped = Fraction(0), 0
        for lam in enumerate_in_rectangle(width, k + 1):
            if lam.part(0) > d:
                skipped += 1
                continue
            mu = lam.complement(d, k + 1)
            value += schur_homog(lam, first_pair, rows=k + 1) * schur_homog(
                mu, second_pair, rows=k + 1
            )
        return value, skipped

    if k + u <= q:
        cases.append((2, *box_sum(u, check_pair, hat_pair)))
    if k <= q and d <= k + u:
        cases.append((3, *box_sum(u, hat_pair, check_pair)))
    if k <= q <= k + u <= d:
        cases.append((4, *box_sum(q - k, check_pair, hat_pair)))
    return cases


def test_literal_cases_on_integer_pairs_equal_the_rational_pair_evaluation():
    rng = random.Random(28)
    defined = undefined = 0
    for s in range(2, 10):
        for q in range(1, s // 2 + 1):
            rp = RingParams(s - q, q)
            for k in range(s // 2 + 1):
                n = s - 2 * k
                for u in range(n + 1):
                    for allow_zero in (False, True):
                        sf = SplitForms.split(random_forms(rng, n, allow_zero), u)
                        expected = literal_cases_on_rational_pairs(rp, k, sf)
                        if expected is None:
                            assert det_literal_cases(rp, k, sf) is None, (rp, k, u, sf)
                            undefined += 1
                            continue
                        got = [(c.case_id, c.value, c.skipped_terms)
                               for c in det_literal_cases(rp, k, sf)]
                        assert got == expected, (rp, k, u, sf)
                        defined += 1
    assert defined > 0 and undefined > 0


def test_closed_form_height_and_audit_rows_equal_dim_rk():
    # the one exponent in scaled_forms' factor: every route that multiplies by
    # it has dim(R_k) rows
    triples = 0
    for s in range(2, 41):
        for q in range(1, s // 2 + 1):
            d = s - q
            rp = RingParams(d, q)
            for k in range(s // 2 + 1):
                rows = dim(rp, k)
                assert _rectangle_sides(rp, k)[1] == rows
                for u in range(s - 2 * k + 1):
                    if q <= k:
                        assert q + 1 == rows
                    if k + u <= q or k <= q <= d <= k + u or k <= q <= k + u <= d:
                        assert k + 1 == rows
                triples += 1
    assert triples == 5740


def test_every_route_is_its_value_on_the_scaled_forms_times_the_factor():
    rng = random.Random(15)
    undefined = 0
    for s in range(2, 10):
        for q in range(1, s // 2 + 1):
            rp = RingParams(s - q, q)
            for k in range(s // 2 + 1):
                n = s - 2 * k
                for allow_zero in (False, True):
                    forms = random_forms(rng, n, allow_zero)
                    scaled, factor = scaled_forms(rp, k, forms)
                    assert all(type(c) is int for f in scaled for c in (f.a, f.b))
                    assert det_direct(rp, k, forms) == det_direct(rp, k, scaled) * factor
                    assert det_closed_form(rp, k, forms) == det_closed_form(rp, k, scaled) * factor
                    for u in range(n + 1):
                        sf, scaled_sf = SplitForms.split(forms, u), SplitForms.split(scaled, u)
                        terms = det_schur_expansion(rp, k, sf).terms
                        scaled_terms = det_schur_expansion(rp, k, scaled_sf).terms
                        assert [t.value for t in terms] == [t.value * factor for t in scaled_terms]
                        cases = det_literal_cases(rp, k, sf)
                        if cases is None:
                            assert det_literal_cases(rp, k, scaled_sf) is None
                            undefined += 1
                            continue
                        scaled_cases = det_literal_cases(rp, k, scaled_sf)
                        assert [(c.case_id, c.value) for c in cases] == [
                            (c.case_id, c.value * factor) for c in scaled_cases
                        ]
    assert undefined > 0


def test_literal_cases_undefined_rule_on_symbolic_forms():
    forms, _ = symbolic_forms(2)
    rp = RingParams(2, 2)
    assert det_literal_cases(rp, 1, SplitForms.split(forms, 1))
    assert det_literal_cases(rp, 1, SplitForms([LinearForm(forms[0].a, 0)], forms[1:])) is None
    assert det_literal_cases(rp, 1, SplitForms(forms[:1], [LinearForm(0, forms[1].b)])) is None


def test_literal_box_sums_equal_the_per_partition_loop_as_polynomials():
    # one Cauchy-Binet determinant per box sum against one Jacobi-Trudi pair
    # per partition, on free coefficients: a polynomial identity for d+q <= 6
    seen = set()
    for s in range(2, 7):
        for q in range(1, s // 2 + 1):
            rp = RingParams(s - q, q)
            for k in range(s // 2 + 1):
                forms, _ = symbolic_forms(s - 2 * k)
                for u in range(len(forms) + 1):
                    sf = SplitForms.split(forms, u)
                    got = [(c.case_id, c.value, c.skipped_terms)
                           for c in det_literal_cases(rp, k, sf)]
                    assert got == literal_cases_on_rational_pairs(rp, k, sf), (rp, k, u)
                    seen.update(case_id for case_id, _, _ in got)
    assert seen == {1, 2, 3, 4}


def test_literal_skipped_terms_equal_the_enumerated_count():
    # comb(width+r, r) - comb(min(width, d)+r, r) partitions of the width x r
    # box are wider than d, for every (width, k, d) the audit reaches
    counts = {}
    for s in range(2, 15):
        for q in range(1, s // 2 + 1):
            d = s - q
            rp = RingParams(d, q)
            for k in range(s // 2 + 1):
                n = s - 2 * k
                for u in range(n + 1):
                    sf = SplitForms.split([LinearForm(1, 1)] * n, u)
                    for case in det_literal_cases(rp, k, sf):
                        if case.case_id == 1:
                            continue
                        width = q - k if case.case_id == 4 else u
                        key = (width, k, d)
                        if key not in counts:
                            counts[key] = sum(
                                1 for lam in enumerate_in_rectangle(width, k + 1)
                                if lam.part(0) > d
                            )
                        assert case.skipped_terms == counts[key], (rp, k, u, case.case_id)
    assert any(counts.values())


# --- duality identities ------------------------------------------------------


def test_duality_example_and_symmetric_point():
    result = duality_check(1, 1, (1, 2), (3, 4))
    assert (result.lhs, result.rhs, result.equal) == (10, 10, True)
    a = (Fraction(2), Fraction(3), Fraction(5), Fraction(7))
    result = duality_check(2, 2, a, a)
    assert result.equal


def test_duality_random_nonzero_points():
    rng = random.Random(26)
    for r in range(1, 5):
        for m in range(1, 5):
            for _ in range(3):
                a = [Fraction(rng.choice([1, 2, 3, -1, -2, 5]), rng.randint(1, 4))
                     for _ in range(2 * m)]
                b = [Fraction(rng.choice([1, 2, 3, -1, -2, 7]), rng.randint(1, 4))
                     for _ in range(2 * m)]
                assert duality_check(r, m, a, b).equal


def test_duality_validation():
    with pytest.raises(ValueError):
        duality_check(1, 1, (1, 0), (1, 1))
    with pytest.raises(ValueError):
        duality_check(1, 2, (1, 1), (1, 1))
    for r, m in ((0, 1), (1, 0)):
        with pytest.raises(ValueError, match=r"need r >= 1 and m >= 1"):
            duality_check(r, m, (1, 1), (1, 1))


def test_complement_identity_example():
    result = complement_identity_check(Partition([1]), 2, 2, (1, 1), (1, 2))
    assert result.mu == Partition([2, 1])
    assert (result.lhs, result.rhs, result.equal) == (6, 6, True)


def test_complement_identity_extremes():
    rng = random.Random(27)
    for r in range(1, 4):
        for n in range(1, 4):
            x = tuple(Fraction(rng.choice([1, 2, -1, 3]), rng.randint(1, 3)) for _ in range(n))
            y = tuple(Fraction(rng.choice([1, -2, 2, 5]), rng.randint(1, 3)) for _ in range(n))
            empty = complement_identity_check(Partition(), r, n, x, y)
            full = complement_identity_check(rectangle(r, n), r, n, x, y)
            assert empty.equal and full.equal
            assert empty.mu == rectangle(r, n) and full.mu == Partition()


def test_complement_identity_validation():
    with pytest.raises(ValueError):
        complement_identity_check(Partition([3]), 2, 2, (1, 1), (1, 1))
    with pytest.raises(ValueError):
        complement_identity_check(Partition([1]), 2, 2, (0, 1), (1, 1))
    for r, n in ((0, 2), (2, 0)):
        with pytest.raises(ValueError, match=r"need r >= 1 and n >= 1"):
            complement_identity_check(Partition(), r, n, (1, 1), (1, 1))


# --- discrepancy report ------------------------------------------------------


def test_report_trivial_split_all_routes_agree():
    rp = RingParams(1, 1)
    record = discrepancy_report(rp, 0, SplitForms.split([F(1, 2), F(3, 1)], 2))
    assert record.direct == record.expansion.value == 7
    assert record.closed == 7
    assert (record.expansion_matches, record.closed_matches) == (True, True)
    assert record.agrees is True


def test_report_mixed_split_flags_literal_only():
    rp = RingParams(2, 2)
    record = discrepancy_report(rp, 1, SplitForms(check=[F(2, 1)], hat=[F(1, 3)]))
    assert record.expansion_matches is True
    assert record.closed == record.direct == 43 and record.closed_matches is True
    flagged = [c for c in record.literal if c.value != record.direct]
    assert flagged and all(c.value == 36 for c in record.literal)


def test_one_report_scales_its_cell_once(monkeypatch):
    # every route of the record runs on one scaled cell
    import lefdet.formulas as formulas

    calls = []

    def counted(*args):
        calls.append(args)
        return scaled_forms(*args)

    monkeypatch.setattr(formulas, "scaled_forms", counted)
    rp = RingParams(3, 2)
    sf = SplitForms.split([F(1, 2), F(-3, 4), F(5, 1)], 1)
    record = discrepancy_report(rp, 1, sf)
    assert record.agrees and record.literal
    assert len(calls) == 1


def test_the_record_and_the_anchor_scale_through_one_evaluator(monkeypatch):
    # one call site of scaled_forms, in the evaluator that both build on, so
    # a fault in the record's scaling is one in the anchor's too
    import ast
    import inspect

    import lefdet.formulas as formulas

    tree = ast.parse(inspect.getsource(formulas))
    sites = [fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
             for node in ast.walk(fn)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "scaled_forms"]
    assert sites == ["_evaluate"]
    splits = []
    exact = formulas._evaluate
    monkeypatch.setattr(formulas, "_evaluate", lambda *a: splits.append(list(a[3])) or exact(*a))
    rp = RingParams(3, 2)
    assert discrepancy_report(rp, 1, SplitForms.split([F(1, 2), F(-3, 4), F(5, 1)], 1)).agrees
    assert degree_anchor(rp, 1, range(0, 4, 2)) == [True, True]
    assert splits == [[1], [0, 2]]


def test_degree_anchor_is_true_at_every_split_of_every_cell_and_builds_no_audit(monkeypatch):
    import lefdet.formulas as formulas

    # a scale factor of 1, or a gcd half of 1, would hide a scaling fault
    assert scaled_forms(RingParams(1, 1), 0, [ANCHOR_FORM] * 2)[1] != 1
    assert primitive_part((ANCHOR_FORM.a, ANCHOR_FORM.b))[1] > 1
    monkeypatch.setattr(formulas, "det_literal_cases", lambda *a: pytest.fail("audit built"))
    for d, q in [(1, 1), (2, 1), (3, 2), (4, 4), (5, 2)]:
        rp = RingParams(d, q)
        for k in range(rp.socle // 2 + 1):
            splits = range(rp.socle - 2 * k + 1)
            assert degree_anchor(rp, k, splits) == [True] * len(splits), (d, q, k)


@pytest.mark.parametrize("route", ["det_direct", "det_closed_form"])
def test_anchor_fails_when_one_route_misses_det_power(monkeypatch, route):
    import lefdet.formulas as formulas

    exact = getattr(formulas, route)
    monkeypatch.setattr(formulas, route, lambda *a: exact(*a) * 2)
    # the route does not depend on the split, so every split of the degree fails
    assert degree_anchor(RingParams(3, 2), 1, range(4)) == [False] * 4


def test_anchor_fails_when_the_expansion_misses_det_power(monkeypatch):
    import lefdet.formulas as formulas

    exact = formulas.det_schur_expansion
    monkeypatch.setattr(
        formulas, "det_schur_expansion",
        lambda rp, k, sf: formulas.Expansion(tuple(
            formulas.ExpansionTerm(t.delta, t.lam, t.nu, 0) for t in exact(rp, k, sf).terms)),
    )
    assert degree_anchor(RingParams(3, 2), 1, [1]) == [False]


def test_report_routes_equal_the_public_routes_on_every_lattice_cell():
    # each record's direct, expansion, closed and literal values are what
    # det_direct, det_schur_expansion, det_closed_form and det_literal_cases
    # return on the same forms, term by term in order for the expansion
    from lefdet.cli import lattice_cells, random_form

    def public_literal(rp, k, sf):
        cases = det_literal_cases(rp, k, sf)
        return None if cases is None else tuple(cases)

    rng = random.Random(24)
    records = undefined = 0
    for d, q, k, u in lattice_cells(7):
        rp, n = RingParams(d, q), d + q - 2 * k
        trials = [[random_form(rng) for _ in range(n)],
                  [random_form(rng, allow_zero=True) for _ in range(n)]]
        if d + q <= 5:
            trials.append(symbolic_forms(n)[0])
        for forms in trials:
            sf = SplitForms.split(forms, u)
            record = discrepancy_report(rp, k, sf)
            assert record.direct == det_direct(rp, k, forms), (d, q, k, u)
            public = det_schur_expansion(rp, k, sf)
            assert record.expansion.value == public.value, (d, q, k, u)
            assert list(record.expansion.terms) == list(public.terms), (d, q, k, u)
            assert record.closed == det_closed_form(rp, k, forms), (d, q, k, u)
            assert record.literal == public_literal(rp, k, sf)
            records += 1
            undefined += record.literal is None
    assert records == 2 * len(lattice_cells(7)) + len(lattice_cells(5))
    assert undefined > 0


def test_every_public_route_evaluates_rational_forms_without_scaling(monkeypatch):
    # only the cell evaluator of the record and the anchor scales; each route
    # takes the forms as given
    import lefdet.formulas as formulas
    import lefdet.ring as ring

    def unused(*args):
        raise AssertionError("scaled_forms called")

    monkeypatch.setattr(ring, "scaled_forms", unused)
    monkeypatch.setattr(formulas, "scaled_forms", unused)
    rp, k, form = RingParams(3, 2), 1, F("2/3", "-5/2")
    forms = [form, F(1, "3/4"), F("-7/5", 2)]
    sf = SplitForms.split(forms, 1)
    direct = det_direct(rp, k, forms)
    assert type(direct) is Fraction and direct != 0
    assert det_closed_form(rp, k, forms) == direct
    assert det_schur_expansion(rp, k, sf).value == direct
    assert det_literal_cases(rp, k, sf)
    assert det_power(rp, k, form) == det_direct(rp, k, [form] * 3)


def test_report_literal_error_recorded_not_raised():
    rp = RingParams(2, 2)
    record = discrepancy_report(rp, 1, SplitForms(check=[F(1, 0)], hat=[F(1, 3)]))
    assert record.literal is None
    assert record.expansion_matches is True
