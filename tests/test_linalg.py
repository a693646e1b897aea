import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest

from lefdet.linalg import (
    ExactMatrix,
    cauchy_binet_check,
    det,
    det_bareiss,
    det_laplace,
    minor_det,
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


def test_det_dispatches_to_laplace_for_polynomials():
    x, y = MultiPoly.variables(2)
    m = ExactMatrix.from_rows([[x, y], [y, x]])
    assert det(m) == x**2 - y**2


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
