"""Dense exact matrices: determinants, minors, and a Cauchy-Binet verifier.

Two determinant routes are kept deliberately independent: fraction-free
Bareiss elimination (rational entries, each row taken to its
``primitive_part`` and no column pass; least-magnitude pivots, so a lost
swap sign shows on ordinary inputs; every intermediate division is checked
exact) and memoized Laplace expansion (any exact coefficient ring, and the
small-size cross-check for Bareiss).  ``det`` picks Laplace when some
entry is a ``MultiPoly`` and Bareiss otherwise; each route checks its own
entries with the ``mpoly`` exactness rule, in one pass over the whole
matrix before any arithmetic.  A 1x1 matrix of an ``int``, ``Fraction``
or ``MultiPoly`` entry takes neither route: ``det`` returns the entry, and
any other 1x1 entry still reaches its route's check.  Integer matrices
give integer determinants: when every entry is an ``int`` (the empty
matrix included) both routes return an ``int``, both return a
``Fraction`` when one entry is a ``Fraction``, and Laplace returns a
``MultiPoly`` when one entry is a ``MultiPoly``.  The rule reads entry
types, never values: an integral ``Fraction`` entry still gives a
``Fraction``, and a zero ``MultiPoly`` a ``MultiPoly``.
``det_mod`` is a third route, for ``int`` matrices modulo a prime: it
shares no code with the other two, and its values stay below the modulus,
so it can check large integer determinants.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from ._record import Record, set_field
from .mpoly import MultiPoly, require_exact, require_int, require_rational

# the entry types Bareiss reduces, and those Laplace expands and ``det``
# returns as a 1x1 determinant; ``type`` tests, so ``bool`` is in neither
_RATIONAL = frozenset((int, Fraction))
_EXACT = frozenset((int, Fraction, MultiPoly))


class ExactMatrix(Record):
    """Row-major dense matrix over an exact commutative ring; frozen."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple):
        entries = tuple(entries)
        require_int("matrix size", rows, cols)
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(entries) != rows * cols:
            raise ValueError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        set_field(self, "rows", rows)
        set_field(self, "cols", cols)
        set_field(self, "entries", entries)

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
        require_int("matrix index", r, c)
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError(f"entry ({r},{c}) outside {self.rows}x{self.cols}")
        return self.entries[r * self.cols + c]

    def row(self, r: int):
        # runs once per Bareiss row: one type test, one chained comparison
        if type(r) is not int:
            raise ValueError(f"row index {r!r} is not an int")
        if not 0 <= r < self.rows:
            raise IndexError(f"row {r} outside {self.rows}x{self.cols}")
        return self.entries[r * self.cols : (r + 1) * self.cols]

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        rows = [self.row(r) for r in range(self.rows)]
        columns = [other.entries[c :: other.cols] for c in range(other.cols)]
        entries = [sum(x * y for x, y in zip(row, column)) for row in rows for column in columns]
        return ExactMatrix(self.rows, other.cols, entries)

    def __repr__(self):
        body = "; ".join(
            " ".join(str(e) for e in self.row(r)) for r in range(self.rows)
        )
        return f"ExactMatrix({self.rows}x{self.cols}: {body})"


def primitive_part(values) -> tuple[list[int], int, int]:
    """The primitive integer vector of ``int``/``Fraction`` values, with its scale.

    Returns ``(ints, g, den)`` with ``values[i] == Fraction(g, den) * ints[i]``,
    ``den`` the lcm of the denominators and ``g >= 0`` the gcd of the scaled
    numerators, so ``gcd(*ints) == 1``; ``g == 0`` exactly when every value is
    0, and then ``ints`` is all zeros.  This is the package's one step from
    rationals to integers: each Bareiss row and each ``ring.scaled_forms`` pair.
    """
    den = lcm(*(x.denominator for x in values))
    if den == 1:
        ints = [x.numerator for x in values]
    else:
        ints = [x.numerator * (den // x.denominator) for x in values]
    g = gcd(*ints)
    if g > 1:
        ints = [x // g for x in ints]
    return ints, g, den


def det_bareiss(m: ExactMatrix) -> int | Fraction:
    """Fraction-free determinant for rational (``int`` or ``Fraction``) entries.

    Each row is taken to its ``primitive_part`` (scaled by the lcm of its
    denominators, its content divided out; both multiplied back in at the
    end), and a zero row gives 0 at once.  The integer Bareiss recurrence
    runs on what is left with sign tracking, and every interior division is
    checked remainder-free (``ArithmeticError`` otherwise).  Its pivot is
    the column's nonzero entry of least absolute value, topmost on ties:
    the interior divisions are exact under any nonzero pivot, and this one
    swaps rows on the small blocks ``verify`` builds, where a first-nonzero
    pivot would not, so a lost swap sign changes a verdict there.  Any
    other entry type, ``bool`` included, is a ``ValueError``, wherever it
    sits: every entry is checked before the first row is reduced.

    The result is an ``int`` when every entry is an ``int`` (1 for the
    empty matrix) and a ``Fraction`` when some entry is a ``Fraction``,
    whatever the values: ``Fraction(4)`` alone gives ``Fraction(4)``.
    """
    return _det_bareiss(m, set(map(type, m.entries)))


def _det_bareiss(m: ExactMatrix, types) -> int | Fraction:
    """``det_bareiss`` given the set of ``m``'s entry types, which ``det`` has built."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    if not _RATIONAL.issuperset(types):
        require_rational("matrix entry", *m.entries)
    rational = Fraction in types
    n = m.rows
    if n == 0:
        return 1
    scale = 1
    content = 1
    a: list[list[int]] = []
    for r in range(n):
        ints, g, den = primitive_part(m.row(r))
        if g == 0:
            return Fraction(0) if rational else 0
        scale *= den
        content *= g
        a.append(ints)
    sign = 1
    prev = 1
    for col in range(n - 1):
        nonzero = [r for r in range(col, n) if a[r][col] != 0]
        if not nonzero:
            return Fraction(0) if rational else 0
        pivot_row = min(nonzero, key=lambda r: abs(a[r][col]))
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
    value = sign * content * a[n - 1][n - 1]
    # an int matrix has every denominator 1, so its scale is 1
    return Fraction(value, scale) if rational else value


def det_laplace(m: ExactMatrix):
    """Cofactor expansion over any exact ring (checked), memoized on column subsets.

    Row ``r`` expands over the columns left in ``mask``, so the mask alone
    names a minor.  A zero entry or a zero minor adds no term.  The result's
    type is read from the entry types, never from where a zero sits: a
    ``MultiPoly`` when some entry is one (a scalar sum becomes a constant of
    that entry's arity), and otherwise Bareiss's rule, an ``int`` when every
    entry is an ``int`` (1 for the empty matrix) and a ``Fraction`` when
    some entry is a ``Fraction``.
    """
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    entries = m.entries
    types = set(map(type, entries))
    if not _EXACT.issuperset(types):
        require_exact("matrix entry", *entries)
    n = m.rows
    if n == 0:
        return 1
    memo: dict[int, object] = {}

    def rec(r: int, mask: int):
        if r == n:
            return 1
        if mask in memo:
            return memo[mask]
        total = 0
        negate = False
        for c in range(n):
            bit = 1 << c
            if not mask & bit:
                continue
            e = entries[r * n + c]
            if e:
                minor = rec(r + 1, mask ^ bit)
                if minor:
                    total = total - e * minor if negate else total + e * minor
            negate = not negate
        memo[mask] = total
        return total

    value = rec(0, (1 << n) - 1)
    if MultiPoly in types and type(value) is not MultiPoly:
        return MultiPoly.constant(next(e.arity for e in entries if type(e) is MultiPoly), value)
    return Fraction(value) if type(value) is int and Fraction in types else value


def det(m: ExactMatrix):
    """Exact determinant; Laplace over ``MultiPoly``, Bareiss otherwise.

    A 1x1 matrix whose entry is an ``int``, a ``Fraction`` or a
    ``MultiPoly`` is its entry, with no set-up: the value and type its
    route returns.  Any other matrix is only dispatched, on the set of
    entry types, which ``det`` builds once and hands to Bareiss: the chosen
    route rejects an inexact entry (a ``float`` or a ``bool``, a 1x1 one
    included) anywhere in the matrix with a ``ValueError``.
    """
    if m.rows == 1 == m.cols and type(m.entries[0]) in _EXACT:
        return m.entries[0]
    types = set(map(type, m.entries))
    if MultiPoly in types:
        return det_laplace(m)
    return _det_bareiss(m, types)


def det_mod(m: ExactMatrix, p: int) -> int:
    """The determinant of an ``int`` matrix modulo ``p``, in ``0..p-1``.

    Gaussian elimination over the integers mod ``p``: no ``Fraction``, no
    growth, and no code shared with Bareiss or Laplace.  ``p`` should be a
    prime; every pivot is inverted mod ``p``, so for a composite ``p`` a
    pivot that is not a unit raises ``ValueError``, and any value returned
    is still the determinant mod ``p``.

    A match against another route is a certificate modulo ``p``, not a
    proof: two integers agree mod ``p`` exactly when ``p`` divides their
    difference, so a wrong value survives only when ``p`` divides its error.
    """
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    require_int("modulus", p)
    if p < 2:
        raise ValueError(f"modulus {p} must be at least 2")
    require_int("matrix entry", *m.entries)
    n = m.rows
    a = [[e % p for e in m.row(r)] for r in range(n)]
    value = 1
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if a[r][col]), None)
        if pivot_row is None:
            return 0
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            value = -value
        pivot = a[col][col]
        value = value * pivot % p
        inverse = pow(pivot, -1, p)
        # columns up to col are never read again, so only the rest is reduced
        top = a[col][col + 1 :]
        for r in range(col + 1, n):
            row = a[r]
            factor = row[col] * inverse % p
            if factor:
                row[col + 1 :] = [(x - factor * y) % p for x, y in zip(row[col + 1 :], top)]
    return value % p


def _check_index_set(indices, bound: int, what: str) -> tuple[int, ...]:
    indices = tuple(indices)
    require_int(f"{what} index", *indices)
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
    return det(ExactMatrix(len(rowset), len(colset), [m[r, c] for r in rowset for c in colset]))


class CauchyBinetResult(Record):
    __slots__ = ("lhs", "rhs", "equal")


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
