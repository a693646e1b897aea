import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import permutations
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from lefdet.linalg import (
    ExactMatrix,
    cauchy_binet_check,
    det,
    det_bareiss,
    det_laplace,
    det_mod,
    minor_det,
    primitive_part,
)
from lefdet.mpoly import MultiPoly


# --- oracles -----------------------------------------------------------------


def det_by_permutations(m: ExactMatrix):
    """Leibniz sum; independent of both elimination routes."""
    n = m.rows
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):  # count inversions
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        prod = 1
        for i in range(n):
            prod = prod * m[i, perm[i]]
        total = total + sign * prod
    return total


def random_matrix(rng, rows, cols):
    return ExactMatrix(
        rows,
        cols,
        [
            Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            for _ in range(rows * cols)
        ],
    )


# --- construction ------------------------------------------------------------


def test_matrix_is_frozen():
    m = ExactMatrix.identity(2)
    with pytest.raises(AttributeError):
        m.entries = (0, 0, 0, 0)
    assert m == ExactMatrix(2, 2, [1, 0, 0, 1]) and hash(m) == hash(ExactMatrix.identity(2))


def test_from_rows_rejects_ragged_rows():
    assert ExactMatrix.from_rows([]) == ExactMatrix(0, 0, [])
    for rows in ([[1, 2], [3]], [[1], [2, 3]]):
        with pytest.raises(ValueError, match="ragged rows"):
            ExactMatrix.from_rows(rows)


def test_row_rejects_an_index_outside_the_matrix():
    m = ExactMatrix(2, 2, [1, 2, 3, 4])
    assert m.row(0) == (1, 2) and m.row(1) == (3, 4)
    for bad in (-1, 2):
        with pytest.raises(IndexError, match="outside 2x2"):
            m.row(bad)
    with pytest.raises(IndexError):
        ExactMatrix(0, 3, []).row(0)


def test_indexing_rejects_a_bool_or_other_non_int_index():
    m = ExactMatrix(2, 2, [1, 2, 3, 4])
    assert m[1, 0] == 3
    for bad in (True, False, 1.0, Fraction(1)):
        with pytest.raises(ValueError, match="not an int"):
            m[bad, 0]
        with pytest.raises(ValueError, match="not an int"):
            m[0, bad]
        with pytest.raises(ValueError, match="not an int"):
            m.row(bad)
    with pytest.raises(IndexError, match="outside 2x2"):
        m[-1, 0]


def test_matmul_by_a_non_matrix_is_a_type_error():
    m = ExactMatrix(2, 2, [1, 2, 3, 4])
    for other in (5, Fraction(1, 2), (1, 2, 3, 4), None):
        with pytest.raises(TypeError):
            m @ other
        with pytest.raises(TypeError):
            other @ m
    assert m.__matmul__(5) is NotImplemented


# --- determinants ------------------------------------------------------------


def test_det_examples():
    assert det(ExactMatrix.from_rows([[1, 2], [3, 4]])) == -2
    assert det(ExactMatrix.identity(4)) == 1
    # representation matrix of multiplication by 2x+3y on degree 1 of the
    # d=2, q=1 algebra: upper-left triangular with the x coefficient twice
    assert det(ExactMatrix.from_rows([[2, 3], [0, 2]])) == 4


def test_det_empty_and_single():
    assert det(ExactMatrix(0, 0, [])) == 1
    assert det(ExactMatrix(1, 1, [Fraction(5, 7)])) == Fraction(5, 7)


def test_det_non_square_errors():
    with pytest.raises(ValueError):
        det(ExactMatrix(2, 3, [1] * 6))
    with pytest.raises(ValueError):
        det_bareiss(ExactMatrix(2, 3, [1] * 6))
    with pytest.raises(ValueError):
        det_laplace(ExactMatrix(2, 3, [1] * 6))


def test_det_singular_needs_column_search():
    m = ExactMatrix.from_rows([[0, 1, 2], [0, 3, 4], [0, 5, 6]])
    assert det(m) == 0
    m = ExactMatrix.from_rows([[0, 1], [2, 3]])
    assert det(m) == -2  # row swap, sign tracked


def test_bareiss_equals_laplace_equals_leibniz():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n, n)
        b = det_bareiss(m)
        l = det_laplace(m)
        assert b == l
        if n <= 4:
            assert b == det_by_permutations(m)


def test_det_is_multiplicative():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 4)
        m1 = random_matrix(rng, n, n)
        m2 = random_matrix(rng, n, n)
        assert det(m1 @ m2) == det(m1) * det(m2)


def test_matmul_of_rectangular_and_empty_shapes():
    a = ExactMatrix.from_rows([[1, 2, Fraction(1, 2)], [0, -1, 3]])
    b = ExactMatrix.from_rows([[4], [5], [6]])
    assert (a @ b).entries == (17, 13) and (a @ b).cols == 1
    inner_empty = ExactMatrix(2, 0, []) @ ExactMatrix(0, 3, [])
    assert (inner_empty.rows, inner_empty.cols, inner_empty.entries) == (2, 3, (0,) * 6)
    assert (b @ ExactMatrix(1, 0, [])).entries == ()
    with pytest.raises(ValueError, match="cannot multiply"):
        a @ a


def test_det_rejects_inexact_entries():
    # a 1x1 determinant is its entry only for an exact entry
    for bad in (0.5, True, False):
        with pytest.raises(ValueError, match="not exact"):
            det(ExactMatrix(1, 1, [bad]))
    x, _ = MultiPoly.variables(2)
    with pytest.raises(ValueError, match="not exact"):
        det(ExactMatrix.from_rows([[x, 1.0], [1, x]]))
    for entries in ([0.5], [x]):
        with pytest.raises(ValueError, match="int or Fraction"):
            det_bareiss(ExactMatrix(1, 1, entries))


@pytest.mark.parametrize("bad", [1.5, True])
@pytest.mark.parametrize("route", [det, det_bareiss])
def test_an_inexact_entry_after_a_zero_row_is_rejected(route, bad):
    # the zero row would give 0 at once; every entry is checked before that
    m = ExactMatrix.from_rows([[0, 0], [bad, 1]])
    with pytest.raises(ValueError, match="not exact"):
        route(m)


def test_det_sends_a_multipoly_in_any_position_to_laplace(monkeypatch):
    import lefdet.linalg as linalg

    x, _ = MultiPoly.variables(2)
    calls = []
    laplace = linalg.det_laplace
    monkeypatch.setattr(linalg, "det_laplace", lambda m: calls.append(m) or laplace(m))
    monkeypatch.setattr(linalg, "det_bareiss", lambda m: pytest.fail("Bareiss got a MultiPoly"))
    for position in range(9):
        entries = [Fraction(i + 1, 2) if i % 2 else i + 1 for i in range(9)]
        entries[position] = x
        m = ExactMatrix(3, 3, entries)
        assert det(m) == det_by_permutations(m)
    assert len(calls) == 9


def test_inexact_entries_are_rejected_even_under_optimize():
    import lefdet

    script = (
        "import lefdet.linalg as la\n"
        "for f in (la.det, la.det_bareiss):\n"
        "    for bad in (0.5, True):\n"
        "        try:\n"
        "            print(f(la.ExactMatrix(1, 1, [bad])))\n"
        "        except ValueError:\n"
        "            print('ValueError')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(lefdet.__file__).resolve().parents[1]))
    run = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert run.stdout.split() == ["ValueError"] * 4


@st.composite
def rational_matrices(draw):
    """Rational matrices up to 6x6, some with a zero row or column or a planted factor."""
    n = draw(st.integers(min_value=1, max_value=6))
    entry = st.fractions(min_value=-50, max_value=50, max_denominator=30)
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    r, c = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    factor = draw(st.fractions(min_value=-40, max_value=40, max_denominator=7).filter(bool))
    plant = draw(st.sampled_from(["none", "zero row", "zero column", "row factor",
                                  "column factor", "both factors"]))
    if plant == "zero row":
        rows[r] = [Fraction(0)] * n
    if plant == "zero column":
        for row in rows:
            row[c] = Fraction(0)
    if plant in ("row factor", "both factors"):
        rows[r] = [x * factor for x in rows[r]]
    if plant in ("column factor", "both factors"):
        for row in rows:
            row[c] *= factor
    return ExactMatrix.from_rows(rows)


@given(rational_matrices())
def test_content_reduced_bareiss_equals_laplace(m):
    value = det_bareiss(m)
    assert type(value) is Fraction
    assert value == det_laplace(m)


rational_values = st.lists(
    st.one_of(
        st.integers(-10**6, 10**6),
        st.just(0),
        st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6)),
    ),
    min_size=1,
    max_size=6,
)


@given(rational_values)
def test_primitive_part_is_the_primitive_vector_and_its_scale(values):
    ints, g, den = primitive_part(values)
    assert all(type(x) is int for x in ints) and type(g) is int and type(den) is int
    assert [Fraction(g, den) * x for x in ints] == values
    assert gcd(*ints) == (1 if any(values) else 0)
    assert den == lcm(*(Fraction(v).denominator for v in values))
    assert (g == 0) == all(v == 0 for v in values)


def test_det_dispatches_to_laplace_for_polynomials():
    x, y = MultiPoly.variables(2)
    m = ExactMatrix.from_rows([[x, y], [y, x]])
    assert det(m) == x**2 - y**2


@st.composite
def polynomial_matrices(draw, arity=2):
    """Small matrices of int, Fraction and MultiPoly entries, often with zero
    entries, and with a zero row, a repeated row or a zero lower-left block
    planted so that whole minors vanish."""
    n = draw(st.integers(min_value=1, max_value=4))
    term = st.tuples(
        st.tuples(*(st.integers(min_value=0, max_value=2) for _ in range(arity))),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
    )
    entry = st.one_of(
        st.just(0),
        st.integers(min_value=-3, max_value=3),
        st.lists(term, max_size=3).map(lambda terms: MultiPoly(arity, terms)),
    )
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    plant = draw(st.sampled_from(["none", "zero row", "repeated row", "zero block"]))
    r = draw(st.integers(min_value=0, max_value=n - 1))
    c = draw(st.integers(min_value=0, max_value=n - 1))
    if plant == "zero row":
        rows[r] = [0] * n
    if plant == "repeated row" and r != c:
        rows[max(r, c)] = list(rows[min(r, c)])
    if plant == "zero block":
        for i in range(r, n):
            for j in range(c + 1):
                rows[i][j] = 0
    return ExactMatrix.from_rows(rows)


def evaluated(value, point):
    return value.eval(point) if isinstance(value, MultiPoly) else Fraction(value)


nonzero_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool)


@given(polynomial_matrices(), st.tuples(nonzero_rationals, nonzero_rationals))
def test_laplace_over_polynomials_evaluates_to_bareiss(m, point):
    value = det_laplace(m)
    at_point = ExactMatrix(m.rows, m.cols, [evaluated(e, point) for e in m.entries])
    assert evaluated(value, point) == det_bareiss(at_point)


def test_laplace_result_type_counts_zero_terms():
    # the type is read from the entries, as the unskipped cofactor sum's
    # would be, wherever a zero entry or a zero minor sits
    x, y = MultiPoly.variables(2)
    for rows, kind, value in (
        ([[x, y], [0, 0]], MultiPoly, 0),
        ([[x, 1], [1, 0]], MultiPoly, -1),
        ([[1, 0], [x, 1]], MultiPoly, 1),
        ([[1, x], [0, 1]], MultiPoly, 1),
        ([[x * 0]], MultiPoly, 0),
        ([[Fraction(1, 2), 1], [0, 0]], Fraction, 0),
        ([[2, 1], [1, 1]], int, 1),
    ):
        m = ExactMatrix.from_rows(rows)
        got = det_laplace(m)
        assert type(got) is kind and got == value, rows
        assert type(det(m)) is kind, rows


# each reaches a different return of Bareiss: empty, single entry, zero row,
# zero pivot column, a swap, and a product of pivots
TYPED_ROWS = [
    [],
    [[5]],
    [[0, 0], [1, 2]],
    [[0, 1], [0, 2]],
    [[0, 1], [2, 3]],
    [[2, 1, 0], [1, 3, 1], [0, 1, 4]],
]


@pytest.mark.parametrize("route", [det, det_bareiss, det_laplace])
@pytest.mark.parametrize("rows", TYPED_ROWS)
def test_an_int_matrix_has_an_int_determinant(route, rows):
    m = ExactMatrix.from_rows(rows)
    value = route(m)
    assert type(value) is int and value == det_by_permutations(m)


@pytest.mark.parametrize("route", [det, det_bareiss, det_laplace])
@pytest.mark.parametrize("rows", TYPED_ROWS[1:])
@pytest.mark.parametrize("at", [0, -1])
def test_one_fraction_entry_makes_a_fraction_determinant(route, rows, at):
    # the type rule reads types, not values: Fraction(0) and Fraction(5) count
    entries = [list(row) for row in rows]
    entries[at][at] = Fraction(entries[at][at])
    m = ExactMatrix.from_rows(entries)
    value = route(m)
    assert type(value) is Fraction and value == det_by_permutations(m)


def test_laplace_and_bareiss_return_the_same_type_on_rational_matrices():
    # zero entries add no Laplace term, so a sum can skip every Fraction entry
    rng = random.Random(28)
    matrices = [[[0, 0], [Fraction(1, 2), 1]], [[1, 0], [Fraction(1, 2), 1]]]
    for _ in range(200):
        n = rng.randint(1, 4)
        matrices.append([
            [rng.choice([0, 0, 1, -2, Fraction(0), Fraction(3), Fraction(-1, 2)])
             for _ in range(n)]
            for _ in range(n)
        ])
    for rows in matrices:
        m = ExactMatrix.from_rows(rows)
        laplace, bareiss = det_laplace(m), det_bareiss(m)
        assert type(laplace) is type(bareiss) and laplace == bareiss, rows


X, _ = MultiPoly.variables(2)


@pytest.mark.parametrize(
    "entry", [0, -7, 2**80, Fraction(0), Fraction(4), Fraction(-3, 5), X, X * 0, X * X + 3],
)
def test_det_of_a_1x1_matrix_is_its_entry_without_a_route(monkeypatch, entry):
    import lefdet.linalg as linalg

    m = ExactMatrix(1, 1, [entry])
    route = det_laplace(m) if type(entry) is MultiPoly else det_bareiss(m)
    monkeypatch.setattr(linalg, "det_bareiss", lambda m: pytest.fail("Bareiss ran"))
    monkeypatch.setattr(linalg, "det_laplace", lambda m: pytest.fail("Laplace ran"))
    value = det(m)
    assert value is entry and value == route and type(route) is type(entry)


# --- minors ------------------------------------------------------------------


def test_minor_examples():
    m = ExactMatrix.from_rows([[2, 0], [1, 2], [0, 1]])
    assert minor_det(m, (0, 1), (0, 1)) == 4
    assert minor_det(m, (1, 2), (0, 1)) == 1
    assert minor_det(m, (), ()) == 1


def test_minor_bad_indices():
    m = ExactMatrix.from_rows([[2, 0], [1, 2], [0, 1]])
    with pytest.raises(ValueError):
        minor_det(m, (1, 0), (0, 1))  # not increasing
    with pytest.raises(ValueError):
        minor_det(m, (0, 3), (0, 1))  # out of range
    with pytest.raises(ValueError):
        minor_det(m, (0, 1), (0,))  # size mismatch


# --- Cauchy-Binet ------------------------------------------------------------


def test_cauchy_binet_examples():
    r = cauchy_binet_check(
        ExactMatrix.from_rows([[1, 2, 3]]),
        ExactMatrix.from_rows([[1], [1], [1]]),
    )
    assert (r.lhs, r.rhs, r.equal) == (6, 6, True)

    r = cauchy_binet_check(ExactMatrix.identity(3), ExactMatrix.identity(3))
    assert (r.lhs, r.rhs, r.equal) == (1, 1, True)

    # the d=q=2, k=1 instance with forms (2,1) and (1,3)
    r = cauchy_binet_check(
        ExactMatrix.from_rows([[3, 1, 0], [0, 3, 1]]),
        ExactMatrix.from_rows([[2, 0], [1, 2], [0, 1]]),
    )
    assert (r.lhs, r.rhs, r.equal) == (43, 43, True)


def test_cauchy_binet_shape_errors():
    with pytest.raises(ValueError):
        cauchy_binet_check(ExactMatrix(2, 3, [1] * 6), ExactMatrix(2, 3, [1] * 6))
    with pytest.raises(ValueError):
        cauchy_binet_check(ExactMatrix(3, 2, [1] * 6), ExactMatrix(2, 3, [1] * 6))


def test_cauchy_binet_random_rationals():
    rng = random.Random(3)
    for _ in range(60):
        p = rng.randint(0, 4)
        m = rng.randint(p, 7)
        Y = random_matrix(rng, p, m)
        X = random_matrix(rng, m, p)
        assert cauchy_binet_check(Y, X).equal


def test_cauchy_binet_random_polynomials():
    rng = random.Random(5)
    x, y = MultiPoly.variables(2)
    gens = [x, y, x + y, x - y, MultiPoly.constant(2, 1)]
    for _ in range(10):
        p = rng.randint(1, 2)
        m = rng.randint(p, 4)
        Y = ExactMatrix(p, m, [rng.choice(gens) * rng.randint(-2, 2) for _ in range(p * m)])
        X = ExactMatrix(m, p, [rng.choice(gens) * rng.randint(-2, 2) for _ in range(m * p)])
        assert cauchy_binet_check(Y, X).equal


def test_bareiss_inexact_division_raises_even_under_optimize():
    # a corrupted divmod makes every interior division look inexact; the
    # check must not vanish with the asserts under ``python -O``
    import lefdet

    script = (
        "import lefdet.linalg as la\n"
        "la.divmod = lambda a, b: (a // b, 1)\n"
        "try:\n"
        "    print(la.det_bareiss(la.ExactMatrix.from_rows([[2, 1, 0], [1, 3, 1], [0, 1, 4]])))\n"
        "except ArithmeticError as exc:\n"
        "    print('ArithmeticError:', exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(lefdet.__file__).resolve().parents[1]))
    run = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert run.stdout.startswith("ArithmeticError: Bareiss interior division must be exact")


# --- determinants modulo a prime --------------------------------------------

P61 = 2**61 - 1


def test_det_mod_equals_bareiss_mod_p_on_random_integer_matrices():
    rng = random.Random(5)
    for p in (2, 3, 7, 101, P61):
        for _ in range(40):
            n = rng.randint(0, 6)
            m = ExactMatrix(n, n, [rng.randint(-50, 50) for _ in range(n * n)])
            value = det_bareiss(m)
            assert type(value) is int
            assert det_mod(m, p) == value % p, (p, m)


def test_det_mod_finds_singular_matrices_and_tracks_swaps():
    assert det_mod(ExactMatrix.from_rows([[0, 1], [1, 0]]), 7) == 6
    assert det_mod(ExactMatrix.from_rows([[3, 5], [6, 10]]), 101) == 0
    # singular mod p only: det = 7
    assert det_mod(ExactMatrix.from_rows([[3, 1], [1, 5]]), 7) == 0
    assert det_mod(ExactMatrix(0, 0, []), 5) == 1


@pytest.mark.parametrize(
    "m, p, message",
    [
        (ExactMatrix(1, 1, [Fraction(1, 2)]), 7, "not an int"),
        (ExactMatrix(1, 1, [True]), 7, "not an int"),
        (ExactMatrix(1, 1, [1]), 1, "at least 2"),
        (ExactMatrix(1, 1, [1]), 7.0, "not an int"),
        (ExactMatrix(1, 2, [1, 2]), 7, "non-square"),
    ],
)
def test_det_mod_rejects_bad_input(m, p, message):
    with pytest.raises(ValueError, match=message):
        det_mod(m, p)


def test_det_mod_refuses_a_pivot_that_is_not_a_unit():
    # mod 6 the pivot 2 has no inverse; a value is never silently wrong
    with pytest.raises(ValueError):
        det_mod(ExactMatrix.from_rows([[2, 1], [1, 1]]), 6)
