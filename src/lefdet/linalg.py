"""Dense exact matrices: determinants, minors, and a Cauchy-Binet verifier.

Two determinant routes are kept deliberately independent: fraction-free
Bareiss elimination (rational entries; every intermediate division is
checked exact) and memoized Laplace expansion (any exact coefficient ring,
and the small-size cross-check for Bareiss).  ``det`` picks Bareiss when all
entries are rational and Laplace otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm


class ExactMatrix:
    """Row-major dense matrix over an exact commutative ring."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        entries = tuple(entries)
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(entries) != rows * cols:
            raise ValueError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, rows_data) -> "ExactMatrix":
        rows_data = [list(r) for r in rows_data]
        nrows = len(rows_data)
        ncols = len(rows_data[0]) if rows_data else 0
        if any(len(r) != ncols for r in rows_data):
            raise ValueError("ragged rows")
        return cls(nrows, ncols, [e for r in rows_data for e in r])

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    def __getitem__(self, rc):
        r, c = rc
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError(f"entry ({r},{c}) outside {self.rows}x{self.cols}")
        return self.entries[r * self.cols + c]

    def row(self, r: int):
        return self.entries[r * self.cols : (r + 1) * self.cols]

    def submatrix(self, row_indices, col_indices) -> "ExactMatrix":
        row_indices = tuple(row_indices)
        col_indices = tuple(col_indices)
        return ExactMatrix(
            len(row_indices),
            len(col_indices),
            [self[r, c] for r in row_indices for c in col_indices],
        )

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        entries = []
        for r in range(self.rows):
            row = self.row(r)
            for c in range(other.cols):
                entries.append(sum(row[i] * other[i, c] for i in range(self.cols)))
        return ExactMatrix(self.rows, other.cols, entries)

    def __eq__(self, other):
        if isinstance(other, ExactMatrix):
            return (
                self.rows == other.rows
                and self.cols == other.cols
                and self.entries == other.entries
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        body = "; ".join(
            " ".join(str(e) for e in self.row(r)) for r in range(self.rows)
        )
        return f"ExactMatrix({self.rows}x{self.cols}: {body})"


def det_bareiss(m: ExactMatrix) -> Fraction:
    """Fraction-free determinant for rational entries.

    Denominators are cleared row by row, the integer Bareiss recurrence runs
    with first-nonzero pivoting and sign tracking, and every interior
    division is checked remainder-free (``ArithmeticError`` otherwise).
    """
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return Fraction(1)
    scale = 1
    a: list[list[int]] = []
    for r in range(n):
        row = [Fraction(x) for x in m.row(r)]
        den = lcm(*(f.denominator for f in row))
        scale *= den
        a.append([int(f * den) for f in row])
    sign = 1
    prev = 1
    for col in range(n - 1):
        pivot_row = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            sign = -sign
        pivot = a[col][col]
        top = a[col]
        for r in range(col + 1, n):
            cur = a[r]
            lead = cur[col]
            for c in range(col + 1, n):
                quot, rem = divmod(cur[c] * pivot - lead * top[c], prev)
                if rem:
                    raise ArithmeticError("Bareiss interior division must be exact")
                cur[c] = quot
            cur[col] = 0
        prev = pivot
    return Fraction(sign * a[n - 1][n - 1], scale)


def det_laplace(m: ExactMatrix):
    """Cofactor expansion over any exact ring, memoized on column subsets."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    memo: dict[int, object] = {}

    def rec(r: int, mask: int):
        if r == n:
            return 1
        cached = memo.get(mask)
        if cached is not None:
            return cached
        total = 0
        sign = 1
        for c in range(n):
            bit = 1 << c
            if not mask & bit:
                continue
            e = m[r, c]
            if e != 0:
                total = total + sign * e * rec(r + 1, mask & ~bit)
            sign = -sign
        memo[mask] = total
        return total

    return rec(0, (1 << n) - 1)


def det(m: ExactMatrix):
    """Exact determinant; Bareiss over rationals, Laplace otherwise."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    if all(isinstance(e, (int, Fraction)) for e in m.entries):
        return det_bareiss(m)
    return det_laplace(m)


def _check_index_set(indices, bound: int, what: str) -> tuple[int, ...]:
    indices = tuple(indices)
    for a, b in zip(indices, indices[1:]):
        if a >= b:
            raise ValueError(f"{what} indices must be strictly increasing: {indices}")
    if indices and not (0 <= indices[0] and indices[-1] < bound):
        raise ValueError(f"{what} indices {indices} out of range 0..{bound - 1}")
    return indices


def minor_det(m: ExactMatrix, rowset, colset):
    """Determinant of the submatrix on the given index sets; empty sets give 1."""
    rowset = _check_index_set(rowset, m.rows, "row")
    colset = _check_index_set(colset, m.cols, "column")
    if len(rowset) != len(colset):
        raise ValueError("row and column sets must have equal size")
    return det(m.submatrix(rowset, colset))


@dataclass(frozen=True)
class CauchyBinetResult:
    lhs: object
    rhs: object
    equal: bool


def cauchy_binet_check(Y: ExactMatrix, X: ExactMatrix) -> CauchyBinetResult:
    """det(YX) against the sum of maximal-minor products, independently.

    Y is p x m and X is m x p with p <= m; the right side sums
    det(Y columns S) * det(X rows S) over all p-subsets S of the inner
    dimension.
    """
    p, mm = Y.rows, Y.cols
    if X.rows != mm or X.cols != p:
        raise ValueError(
            f"shape mismatch: Y is {p}x{mm} so X must be {mm}x{p}, got {X.rows}x{X.cols}"
        )
    if p > mm:
        raise ValueError(f"need p <= m, got p={p}, m={mm}")
    lhs = det(Y @ X)
    all_rows = tuple(range(p))
    rhs = 0
    for S in combinations(range(mm), p):
        rhs = rhs + minor_det(Y, all_rows, S) * minor_det(X, S, all_rows)
    return CauchyBinetResult(lhs=lhs, rhs=rhs, equal=lhs == rhs)
