import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import lefdet
from lefdet.formulas import SplitForms, det_closed_form, det_schur_expansion, symbolic_forms
from lefdet.mpoly import FIELD, MAX_EXPONENT, MultiPoly, _pack, parse_int, render
from lefdet.ring import RingParams, det_direct


def P(arity, terms):
    return MultiPoly(arity, terms)


@st.composite
def polys(draw, arity=3, max_terms=8):
    n_terms = draw(st.integers(min_value=0, max_value=max_terms))
    terms = []
    for _ in range(n_terms):
        expo = tuple(draw(st.integers(min_value=0, max_value=3)) for _ in range(arity))
        num = draw(st.integers(min_value=-9, max_value=9))
        den = draw(st.integers(min_value=1, max_value=9))
        terms.append((expo, Fraction(num, den)))
    return MultiPoly(arity, terms)


points = st.tuples(*(st.integers(min_value=-5, max_value=5) for _ in range(3)))


def test_zero_coefficients_never_stored():
    p = P(2, {(1, 0): 0, (0, 1): 2})
    assert p.terms == {(0, 1): Fraction(2)}
    assert not P(2, {})
    assert P(1, [((1,), 1), ((1,), -1)]) == 0


def test_arity_validation():
    with pytest.raises(ValueError):
        P(2, {(1,): 1})
    with pytest.raises(ValueError):
        P(2, {(1, -1): 1})
    with pytest.raises(ValueError):
        P(2, {(1, 0): 1}) + P(3, {(1, 0, 0): 1})
    with pytest.raises(ValueError, match="arity must be nonnegative"):
        MultiPoly(-1)


def test_add_examples():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    assert (x + y) + (x - y) == 2 * x
    assert x + 0 == x
    assert (2 * x * y) + (-2 * x * y) == 0


def test_mul_examples():
    # (a1 x + b1 y)(a2 x + b2 y) over the six variables a1,a2,b1,b2,x,y
    a1, a2, b1, b2, x, y = MultiPoly.variables(6)
    got = (a1 * x + b1 * y) * (a2 * x + b2 * y)
    expected = a1 * a2 * x**2 + (a1 * b2 + a2 * b1) * x * y + b1 * b2 * y**2
    assert got == expected
    p = a1 * x + 3
    assert p * 1 == p
    assert p * 0 == 0


def test_eval_examples():
    x, y = MultiPoly.variables(2)
    assert (x**2 + y).eval((2, 3)) == 7
    assert MultiPoly(2).eval((5, 5)) == 0
    with pytest.raises(ValueError):
        (x + y).eval((1,))


def test_eval_of_symbolic_subset_sum_matches_numeric_one():
    from lefdet.symfunc import HomogPair, elementary_homog

    a1, a2, b1, b2 = MultiPoly.variables(4)
    symbolic = elementary_homog(1, HomogPair((a1, a2), (b1, b2)))
    assert symbolic == a1 * b2 + a2 * b1
    assert symbolic.eval((1, 3, 2, 1)) == 7
    assert elementary_homog(1, HomogPair((1, 3), (2, 1))) == 7


def test_scalar_equality_both_ways():
    assert MultiPoly.constant(3, Fraction(1, 2)) == Fraction(1, 2)
    assert MultiPoly.constant(3, 0) == 0
    assert MultiPoly.variable(2, 0) != 1


def test_render_deterministic():
    x, y = MultiPoly.variables(2)
    p = 2 * x**2 * y - y + Fraction(1, 3)
    assert render(p) == "2*x0^2*x1 - x1 + 1/3"
    assert render(p, ["a", "b"]) == "2*a^2*b - b + 1/3"
    assert render(MultiPoly(2)) == "0"
    for names in (["a"], ["a", "b", "c"]):
        with pytest.raises(ValueError, match="one name per variable is required"):
            render(p, names)


def test_negative_powers_are_rejected():
    x = MultiPoly.variable(1, 0)
    assert x**0 == 1
    with pytest.raises(ValueError, match="negative powers are not defined"):
        x**-1


@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + 0 == p
    assert p * 1 == p
    assert p + (-p) == 0


@given(polys(), polys(), points)
def test_eval_is_a_ring_homomorphism(p, q, pt):
    assert (p + q).eval(pt) == p.eval(pt) + q.eval(pt)
    assert (p * q).eval(pt) == p.eval(pt) * q.eval(pt)


def naive_product(p, q):
    """Oracle: the product over tuple-keyed term dicts, exponents added per entry."""
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            expo = tuple(a + b for a, b in zip(e1, e2))
            out[expo] = out.get(expo, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


@given(polys(arity=4, max_terms=10), polys(arity=4, max_terms=10))
def test_packed_product_matches_tuple_product(p, q):
    assert (p * q).terms == naive_product(p, q)
    assert dict((p * q).terms) == naive_product(q, p)


nonzero_coefficients = st.one_of(
    st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-3, 4)]),
    st.fractions(max_denominator=9).filter(bool),
)


@st.composite
def monomials(draw, arity=4):
    expo = tuple(draw(st.integers(min_value=0, max_value=3)) for _ in range(arity))
    return MultiPoly(arity, {expo: draw(nonzero_coefficients)})


def stored_exactly(p):
    """Nonzero coefficients, each an int when integral and a Fraction otherwise."""
    return all(
        c != 0 and (type(c) is int or (type(c) is Fraction and c.denominator != 1))
        for c in p._terms.values()
    )


@given(monomials(), polys(arity=4, max_terms=10))
def test_monomial_product_matches_tuple_product_on_either_side(m, p):
    for product in (m * p, p * m, m * m):
        assert stored_exactly(product)
    assert (m * p).terms == naive_product(m, p)
    assert (p * m).terms == naive_product(p, m)
    assert (m * m).terms == naive_product(m, m)


def test_monomial_product_settles_coefficients():
    x, y = MultiPoly.variables(2)
    half_x, two_y = Fraction(1, 2) * x, 2 * y
    for product in (half_x * two_y, two_y * half_x):
        assert product._terms == {_pack((1, 1)): 1}
        assert type(product._terms[_pack((1, 1))]) is int
    assert (-x) * (x + y) == -(x**2) - x * y
    assert (x + Fraction(1, 3)) * (3 * y) == 3 * x * y + y


def naive_sum(p, q):
    out = dict(p.terms)
    for e, c in q.terms.items():
        out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


SUMMAND = {(1, 0, 0, 0): Fraction(1, 2), (0, 2, 0, 0): 3, (0, 0, 1, 1): Fraction(-4, 3)}


@given(polys(arity=4, max_terms=10), polys(arity=4, max_terms=3))
# disjoint supports: the sum is one merge of the two term dicts
@example(P(4, SUMMAND), P(4, {(0, 0, 0, 2): Fraction(-2, 3), (2, 0, 0, 0): 1}))
# one shared key, which cancels
@example(P(4, SUMMAND), P(4, {(1, 0, 0, 0): Fraction(-1, 2), (0, 0, 0, 2): 5}))
def test_sum_matches_tuple_sum_whichever_side_is_larger(p, q):
    for total in (p + q, q + p, p - q, q - p):
        assert stored_exactly(total)
    assert (p + q).terms == naive_sum(p, q) == (q + p).terms
    assert (p - q).terms == naive_sum(p, -q)


@given(polys(arity=4, max_terms=10))
@example(P(4, {(1, 0, 2, 0): Fraction(-3, 4)}))  # a single shared key
def test_sums_that_cancel_leave_the_empty_polynomial(p):
    for zero in (p + (-p), (-p) + p, p - p):
        assert zero._terms == {} and not zero and zero == 0 and zero.terms == {}
    half = Fraction(1, 2) * p
    assert half + half == p and stored_exactly(half + half)


def test_operands_of_different_arity_are_rejected():
    x2, x3 = MultiPoly.variable(2, 0), MultiPoly.variable(3, 0)
    wide = x3 + MultiPoly.variable(3, 1) + 1
    for a, b in ((x2, x3), (x3, x2), (x2, wide), (wide, x2)):
        for op in (lambda: a + b, lambda: a - b, lambda: a * b):
            with pytest.raises(ValueError, match="arity mismatch"):
                op()
        assert a != b


def test_carry_guard_covers_monomial_times_polynomial():
    top = MAX_EXPONENT
    x = MultiPoly.variable(2, 0)
    poly = MultiPoly(2, {(top, 0): 1, (0, 1): 3})
    for mono in (x, 2 * x, Fraction(-1, 2) * x):
        with pytest.raises(OverflowError):
            mono * poly
        with pytest.raises(OverflowError):
            poly * mono
    edge = MultiPoly(2, {(top - 1, 0): 1, (0, 1): 3})
    assert (x * edge).terms == {(top, 0): 1, (1, 1): 3}


# p op v for p = 2*x0 + 1/2*x1 + 3 and v given as source text: the rendered
# result, "self" when p itself comes back, or the exception raised; for
# (+, -, *).  v + p and v * p give the same as p + v and p * v, v - p the
# negation of p - v, and p == v is False for every v.
SCALAR_PARITY = {
    "0": ("self", "2*x0 + 1/2*x1 + 3", "0"),
    "1": ("2*x0 + 1/2*x1 + 4", "2*x0 + 1/2*x1 + 2", "self"),
    "-2": ("2*x0 + 1/2*x1 + 1", "2*x0 + 1/2*x1 + 5", "-4*x0 - x1 - 6"),
    "Fraction(1, 3)": ("2*x0 + 1/2*x1 + 10/3", "2*x0 + 1/2*x1 + 8/3", "2/3*x0 + 1/6*x1 + 1"),
    "Fraction(4, 2)": ("2*x0 + 1/2*x1 + 5", "2*x0 + 1/2*x1 + 1", "4*x0 + x1 + 6"),
    "True": (ValueError, ValueError, "self"),
    "False": ("self", ValueError, "0"),
    "1.5": (TypeError, TypeError, TypeError),
    "0.0": (TypeError, TypeError, TypeError),
}


def _outcome(p, fn):
    try:
        got = fn()
    except Exception as exc:
        return type(exc)
    return "self" if got is p else render(got)


@pytest.mark.parametrize("text", sorted(SCALAR_PARITY))
def test_scalar_operands_give_the_pinned_result_or_exception(text):
    x, y = MultiPoly.variables(2)
    p = 2 * x + Fraction(1, 2) * y + 3
    v = eval(text)
    add, sub, mul = SCALAR_PARITY[text]
    assert _outcome(p, lambda: p + v) == add == _outcome(p, lambda: v + p)
    assert _outcome(p, lambda: p * v) == mul == _outcome(p, lambda: v * p)
    assert _outcome(p, lambda: p - v) == sub
    if isinstance(sub, str):
        assert render(v - p) == render(-(p - v))
    else:
        with pytest.raises(sub):
            v - p
    assert (p == v) is False and (v == p) is False


def test_constant_equality_against_scalars_is_pinned():
    two, one, zero = MultiPoly.constant(2, 2), MultiPoly.constant(2, 1), MultiPoly(2)
    for poly, v, equal in (
        (two, 2, True), (two, Fraction(4, 2), True), (two, True, False), (two, 2.0, False),
        (one, True, True), (one, 1.0, False), (zero, False, True), (zero, 0.0, False),
    ):
        assert (poly == v) is equal and (v == poly) is equal, (poly, v)


def test_integral_coefficients_are_stored_as_int():
    assert MultiPoly.constant(3, Fraction(3)) == MultiPoly.constant(3, 3)
    assert hash(MultiPoly.constant(3, Fraction(3))) == hash(MultiPoly.constant(3, 3))
    x, y = MultiPoly.variables(2)
    half = Fraction(1, 2) * x
    for p in (half + half, 2 * half, (x + Fraction(1, 3)) * 3, x * y * Fraction(4, 2)):
        assert all(type(c) is int for c in p._terms.values()), p
    assert [type(c) for c in half._terms.values()] == [Fraction]
    assert all(type(c) is Fraction for c in (half + half).terms.values())


def test_constants_hash_like_the_scalar_they_equal():
    for value in (0, 3, Fraction(3), Fraction(-2, 7)):
        p = MultiPoly.constant(2, value)
        assert p == value
        assert hash(p) == hash(value)
    assert len({MultiPoly.constant(2, 5), 5, Fraction(5)}) == 1


def test_arity_zero():
    zero, three = MultiPoly(0), MultiPoly.constant(0, 3)
    assert MultiPoly.variables(0) == []
    assert three.terms == {(): Fraction(3)}
    assert three * three == 9 and three + zero == three and zero == 0
    assert (three - 3) == zero and not zero
    assert three.eval(()) == 3
    assert render(three) == "3" and render(zero) == "0"
    with pytest.raises(ValueError):
        MultiPoly.variable(0, 0)


def test_variables_are_the_generators_variable_builds():
    def fields(p):
        return p.arity, [(k, type(c), c) for k, c in p._terms.items()], p._top, hash(p)

    for arity in range(9):
        assert [fields(v) for v in MultiPoly.variables(arity)] == [
            fields(MultiPoly.variable(arity, i)) for i in range(arity)
        ]
        assert [v.terms for v in MultiPoly.variables(arity)] == [
            MultiPoly.variable(arity, i).terms for i in range(arity)
        ]
    for bad in (-1, True, 2.0, "a"):
        with pytest.raises(ValueError):
            MultiPoly.variables(bad)
        with pytest.raises(ValueError):
            MultiPoly.variable(bad, 0)


def test_term_view_reads_like_a_dict():
    x, y = MultiPoly.variables(2)
    p = 2 * x**2 * y - y + Fraction(1, 3)
    assert len(p.terms) == 3
    assert p.terms[(2, 1)] == 2 and p.terms.get((0, 1)) == -1
    assert p.terms.get((5, 5)) is None and (1, 1) not in p.terms
    assert p.terms.get((-1, 0)) is None and p.terms.get((1,)) is None
    assert sorted(p.terms) == [(0, 0), (0, 1), (2, 1)]
    assert p.terms == {(2, 1): 2, (0, 1): -1, (0, 0): Fraction(1, 3)}
    assert eval(repr(p.terms)) == dict(p.terms)
    with pytest.raises(TypeError):
        p.terms[(0, 0)] = 1


def test_term_view_holds_only_int_exponents():
    p = MultiPoly.variable(1, 0) + 1
    assert (1,) in p.terms and (0,) in p.terms
    assert (1.5,) not in p.terms and (True,) not in p.terms and (Fraction(1),) not in p.terms
    assert p.terms.get((True,)) is None
    for key in (5, None, [1, 0], [1], (1, 0), "1"):
        assert key not in p.terms and p.terms.get(key, "missing") == "missing"
    with pytest.raises(KeyError):
        p.terms[(1.0,)]


def test_exponents_up_to_the_field_maximum_round_trip():
    top = MAX_EXPONENT
    p = MultiPoly(3, {(top, 0, top): 1, (0, top, 1): -2})
    assert p.terms == {(top, 0, top): 1, (0, top, 1): -2}
    assert render(p) == f"x0^{top}*x2^{top} - 2*x1^{top}*x2"
    with pytest.raises(OverflowError):
        MultiPoly(2, {(top + 1, 0): 1})


def test_carry_guard_raises_instead_of_carrying():
    big = MultiPoly(1, {(2**FIELD - 1,): 1})
    x = MultiPoly.variable(1, 0)
    with pytest.raises(OverflowError):
        big * x
    with pytest.raises(OverflowError):
        x * big
    # a carry out of the low field would turn y^(2^FIELD) into x
    low = MultiPoly(2, {(0, 2**FIELD - 1): 1})
    with pytest.raises(OverflowError):
        low * MultiPoly.variable(2, 1)
    assert (big * 1) == big and big * 0 == 0 and big * MultiPoly(1) == 0


def test_carry_guard_survives_optimize():
    import lefdet

    script = (
        "from lefdet.mpoly import FIELD, MultiPoly\n"
        "big = MultiPoly(1, {(2**FIELD - 1,): 1})\n"
        "try:\n"
        "    print(big * MultiPoly.variable(1, 0))\n"
        "except OverflowError as exc:\n"
        "    print('OverflowError:', exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(lefdet.__file__).resolve().parents[1]))
    run = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert run.stdout.startswith("OverflowError:")


def term_digest(p):
    text = json.dumps(sorted((list(e), str(c)) for e, c in p.terms.items()))
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of each cell's sorted term list, pinned from the tuple-keyed kernel;
# direct, closed form and every split's expansion share it
SYMBOLIC_GOLDEN = {
    (4, 3, 1): "f3a2cc50c4b610c85b3481e52f62f52fcd0cf925fbabeb3f25e953df816df50e",
    (5, 3, 2): "4a6437056eacdd050b65ec7228671653b65e3c616033ab8eddf705a4279edfb7",
    (4, 4, 0): "907d6d0ec63c16cd137f4b8d9be60160547333c0036b122602c12136a4311c89",
}


@pytest.mark.parametrize("cell", sorted(SYMBOLIC_GOLDEN))
def test_symbolic_determinants_match_golden_digests(cell):
    d, q, k = cell
    rp = RingParams(d, q)
    n = d + q - 2 * k
    forms, _ = symbolic_forms(n)
    values = [det_direct(rp, k, forms), det_closed_form(rp, k, forms)]
    values += [det_schur_expansion(rp, k, SplitForms.split(forms, u)).value for u in range(n + 1)]
    assert [term_digest(v) for v in values] == [SYMBOLIC_GOLDEN[cell]] * (n + 3)


def test_readme_symbolic_example_renders_unchanged():
    forms, names = symbolic_forms(2)
    assert render(det_direct(RingParams(4, 2), 2, forms), names) == "a1^3*a2^3"


# --- the one exactness rule, at every public entry point ---------------------

# rule -> (message every rejection carries, bad values as source text); an
# integer boundary also rejects an integral Fraction, so nothing is truncated
EXACTNESS_RULES = {
    "int": ("not an int", ("1.5", "True", "Fraction(1)")),
    "rational": ("not exact: need int or Fraction", ("0.5", "True")),
    "exact": ("not exact", ("0.5", "True")),
}

# boundary -> (rule, a call with the bad value v)
EXACTNESS_BOUNDARIES = {
    "Partition": ("int", "Partition([2, v])"),
    "Partition.padded": ("int", "Partition([2, 1]).padded(v)"),
    "rectangle-width": ("int", "rectangle(v, 2)"),
    "rectangle-height": ("int", "rectangle(2, v)"),
    "enumerate_in_rectangle": ("int", "enumerate_in_rectangle(v, 2)"),
    "MultiPoly-arity": ("int", "MultiPoly(v)"),
    "MultiPoly-exponent": ("int", "MultiPoly(1, {(v,): 1})"),
    "MultiPoly-coefficient": ("rational", "MultiPoly(1, {(1,): v})"),
    "MultiPoly.variable": ("int", "MultiPoly.variable(2, v)"),
    "MultiPoly-power": ("int", "MultiPoly.variable(1, 0) ** v"),
    "MultiPoly.eval": ("rational", "MultiPoly.variable(1, 0).eval([v])"),
    "RingParams": ("int", "RingParams(3, v)"),
    "dim": ("int", "dim(RingParams(2, 2), v)"),
    "basis": ("int", "basis(RingParams(2, 2), v)"),
    "mult_matrix": ("int", "mult_matrix(RingParams(2, 2), LinearForm(1, 1), v)"),
    "LinearForm": ("exact", "LinearForm(v, 1)"),
    "SplitForms.split": ("int", "SplitForms.split([LinearForm(1, 1)] * 2, v)"),
    "HomogPair": ("exact", "HomogPair((v, 2), (1, 1))"),
    "elementary_homog-degree": ("int", "elementary_homog(v, HomogPair((1, 2), (1, 1)))"),
    "elementary": ("exact", "elementary(1, [v, 2])"),
    "schur_jacobi_trudi": ("exact", "schur_jacobi_trudi(Partition([1]), [v, 2])"),
    "schur_homog-rows": ("int", "schur_homog(Partition([1]), HomogPair((1,), (1,)), rows=v)"),
    "schur_tableaux": ("exact", "schur_tableaux(Partition([1]), [v, 2])"),
    "schur_bialternant": ("rational", "schur_bialternant(Partition([1]), [v, 2])"),
    "complement_identity_check":
        ("rational", "complement_identity_check(Partition([1]), 2, 2, [v, 1], [1, 2])"),
    "duality_check": ("rational", "duality_check(1, 1, [v, 2], [3, 4])"),
    "ExactMatrix-rows": ("int", "ExactMatrix(v, 2, [1, 2, 3])"),
    "ExactMatrix-cols": ("int", "ExactMatrix(1, v, [1])"),
    "det": ("rational", "det(ExactMatrix(1, 1, [v]))"),
    "det-symbolic": ("exact", "det(ExactMatrix(2, 2, [MultiPoly.variable(1, 0), v, 1, 1]))"),
    "det_bareiss": ("rational", "det_bareiss(ExactMatrix(1, 1, [v]))"),
    "det_laplace": ("exact", "det_laplace(ExactMatrix(1, 1, [v]))"),
    "minor_det": ("int", "minor_det(ExactMatrix(1, 1, [3]), (v,), (0,))"),
    "symbolic_forms": ("int", "symbolic_forms(v)"),
    "det_power": ("int", "det_power(RingParams(2, 2), v, LinearForm(1, 1))"),
}

HELPERS = ("require_int", "require_rational", "require_exact")

# Evaluates every case; prints one line per case that is not rejected by a
# ValueError with the rule's message, raised inside an mpoly helper.
EXACTNESS_SCRIPT = """
import json, sys, traceback
from fractions import Fraction
import lefdet
rules, boundaries, helpers = json.loads(sys.argv[1])
for name, (rule, call) in boundaries.items():
    message, bad = rules[rule]
    for text in bad:
        try:
            got = eval(call, {**vars(lefdet), "Fraction": Fraction, "v": eval(text)})
        except ValueError as exc:
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            if message in str(exc) and frame.name in helpers:
                continue
            got = f"{exc!r} from {frame.name}"
        except Exception as exc:
            got = repr(exc)
        print(f"{name} at {text}: {got!r}")
"""


def _exactness_run(boundaries, *flags):
    env = dict(os.environ, PYTHONPATH=str(Path(lefdet.__file__).resolve().parents[1]))
    payload = json.dumps([EXACTNESS_RULES, boundaries, HELPERS])
    run = subprocess.run([sys.executable, *flags, "-c", EXACTNESS_SCRIPT, payload],
                         capture_output=True, text=True, env=env, check=True)
    return run.stdout.splitlines()


@pytest.mark.parametrize("name", sorted(EXACTNESS_BOUNDARIES))
def test_every_boundary_rejects_inexact_input_from_the_one_rule(name):
    rule, call = EXACTNESS_BOUNDARIES[name]
    message, bad = EXACTNESS_RULES[rule]
    for text in bad:
        with pytest.raises(ValueError, match=re.escape(message)) as exc:
            eval(call, {**vars(lefdet), "Fraction": Fraction, "v": eval(text)})
        assert exc.traceback[-1].name in HELPERS, (name, text)


def test_every_boundary_rejects_inexact_input_under_optimize():
    assert _exactness_run(EXACTNESS_BOUNDARIES, "-O") == []


def test_exactness_script_reports_a_boundary_that_accepts_floats():
    # the subprocess check is not vacuous: an unchecked call is reported
    assert _exactness_run({"abs": ("exact", "abs(v)")}) == [
        "abs at 0.5: 0.5", "abs at True: 1"
    ]


def test_parse_int_reads_only_ascii_digits_with_a_sign():
    assert [parse_int(t) for t in ("0", "+7", " -12 ", "007")] == [0, 7, -12, 7]
    for spelling in ("", "+", "1_0", "\u0662", "1.0", "1e2", "0x1", "1 2", "9" * 5000):
        with pytest.raises(ValueError):
            parse_int(spelling)
