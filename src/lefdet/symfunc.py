"""Exact evaluation of elementary symmetric and Schur polynomials.

Three independent Schur evaluators are provided so they can cross-check each
other: a determinant in elementary symmetric values, the bialternant ratio,
and a semistandard-tableau sum.  Conventions throughout: e_0 = 1, and
e_k = 0 for k < 0 or k > (number of values); consequently a Schur value over
the empty variable list is 1 for the empty partition and 0 otherwise.

``schur_jacobi_trudi(lam, x)`` deliberately returns the Schur value of the
CONJUGATE of its input, i.e. det(e_{lam_i + j - i}(x)), so determinant
formulas written in that shape transcribe with no extra conjugations.  Use
``schur`` when the input partition should be the output shape.

The ``*_homog`` variants take paired coefficient lists (a, b) instead of the
ratio vector a/b.  E_k(a; b) sums, over k-subsets S, the product of a over S
times the product of b off S, so E_k(a; b) = (prod b) * e_k(a/b) whenever no
b entry vanishes; the determinant variants carry the matching power of
prod b.  They are polynomial in a and b, hence defined with zero entries too.
The table [E_0, ..., E_n] belongs to the pair (``HomogPair.table``);
``e_matrix`` is the one reader of its rows, zero off the table, and
``schur_homog`` is the one kernel that builds a Jacobi-Trudi matrix with it.
``elementary`` and ``schur_jacobi_trudi`` run on that kernel at the pair
(values; 1, ..., 1), since E_k(a; 1) = e_k(a), and share its exactness check.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement

from ._record import Record, set_field
from .linalg import ExactMatrix, det
from .mpoly import require_exact, require_int, require_rational
from .partitions import Partition


class HomogPair(Record):
    """Paired coefficient lists of equal length (numerators, denominators)."""

    __slots__ = ("a", "b")

    def __init__(self, a: tuple, b: tuple):
        a, b = tuple(a), tuple(b)
        require_exact("coefficient", *a, *b)
        if len(a) != len(b):
            raise ValueError(f"paired lists must have equal length, got {len(a)} and {len(b)}")
        set_field(self, "a", a)
        set_field(self, "b", b)

    def __len__(self):
        return len(self.a)

    def table(self) -> list:
        """[E_0, ..., E_n] with E_k(a; b) the degree-k subset sum.

        E_0 is the product of the b's and E_n the product of the a's, each
        with its product's type; the entries between mix both.  A pair of
        all ``int``s, all ``Fraction``s or all ``MultiPoly``s keeps that one
        type throughout.
        """
        table: list = [1]
        for a_i, b_i in zip(self.a, self.b):
            table.append(a_i * table[-1])
            for j in range(len(table) - 2, 0, -1):
                table[j] = b_i * table[j] + a_i * table[j - 1]
            table[0] = b_i * table[0]
        return table


def e_matrix(table, index_rows) -> ExactMatrix:
    """Row i holds table[m] for each m in index_rows[i], 0 where m is off the table.

    The one reader of an E-table: Jacobi-Trudi matrices and the literal
    audit's Toeplitz blocks are such row selections.  Each index row is a
    sized iterable (a ``range`` in every caller); rows of unequal length
    raise ``ValueError``.
    """
    n = len(table)
    index_rows = list(index_rows)
    cols = len(index_rows[0]) if index_rows else 0
    if any(len(row) != cols for row in index_rows):
        raise ValueError("ragged rows")
    entries = [table[m] if 0 <= m < n else 0 for row in index_rows for m in row]
    return ExactMatrix(len(index_rows), cols, entries)


def _unit_pair(values) -> HomogPair:
    """The pair (values; 1, ..., 1), whose E_k are the e_k of the values."""
    values = tuple(values)
    return HomogPair(values, (1,) * len(values))


def elementary_homog(k: int, pair: HomogPair):
    """E_k(a; b); 0 outside 0..len(pair), prod(b) at k = 0."""
    require_int("degree", k)
    if k < 0 or k > len(pair):
        return 0
    return pair.table()[k]


def elementary(k: int, values):
    """The k-th elementary symmetric value; 0 outside 0..len(values)."""
    return elementary_homog(k, _unit_pair(values))


def schur_jacobi_trudi(lam: Partition, values):
    """det(e_{lam_i + j - i}(values)); this is the Schur value of conjugate(lam)."""
    return schur_homog(lam, _unit_pair(values))


def schur(lam: Partition, values):
    """The Schur value of lam itself (conjugation-normalized convenience)."""
    return schur_jacobi_trudi(lam.conjugate(), values)


def schur_homog(lam: Partition, pair: HomogPair, rows: int | None = None):
    """det(E_{lam_i + j - i}(a; b)) over ``rows`` rows (default: number of parts).

    Equals (prod b)^rows times the Schur value of conjugate(lam) at a/b when
    no b entry vanishes; zero-padding lam to extra rows multiplies by prod b
    per row, which is why the row count is explicit.
    """
    size = len(lam) if rows is None else rows
    require_int("rows", size)
    if size < len(lam):
        raise ValueError(f"rows={rows} cannot hold {len(lam)} parts")
    if size == 0:
        return 1
    jt_rows = [range(p - i, p - i + size) for i, p in enumerate(lam.padded(size))]
    return det(e_matrix(pair.table(), jt_rows))


def schur_bialternant(lam: Partition, values) -> Fraction:
    """Ratio of alternants; needs pairwise distinct values and enough of them.

    A ``Fraction`` whatever the value types: two ``int`` alternants divide
    exactly, not into a ``float``.
    """
    values = tuple(values)
    require_rational("value", *values)
    n = len(values)
    if len(lam) > n:
        raise ValueError(
            f"partition with {len(lam)} parts needs at least that many values, got {n}"
        )
    if len(set(values)) != n:
        raise ValueError("bialternant undefined at non-distinct point")
    if n == 0:
        return Fraction(1)
    padded = lam.padded(n)
    num = det(
        ExactMatrix(
            n, n, [values[j] ** (padded[i] + n - 1 - i) for i in range(n) for j in range(n)]
        )
    )
    den = det(
        ExactMatrix(n, n, [values[j] ** (n - 1 - i) for i in range(n) for j in range(n)])
    )
    return Fraction(num, den)


def schur_tableaux(lam: Partition, values):
    """Sum over semistandard tableaux of shape lam with entries up to len(values).

    Independent combinatorial oracle; guarded to small inputs because the
    tableau count explodes.
    """
    values = tuple(values)
    require_exact("value", *values)
    n = len(values)
    if lam.weight > 10 or n > 5:
        raise ValueError(
            f"tableau enumeration guard: need weight <= 10 and <= 5 values, "
            f"got weight {lam.weight} in {n} values"
        )
    if len(lam) == 0:
        return 1
    if len(lam) > n:
        return 0

    shape = lam.parts

    def rec(i: int, above: tuple[int, ...]):
        if i == len(shape):
            return 1
        total = 0
        # weakly increasing along the row, strictly below the row above
        for row in combinations_with_replacement(range(n), shape[i]):
            if not all(v > a for v, a in zip(row, above)):
                continue
            weight = 1
            for v in row:
                weight = weight * values[v]
            total = total + weight * rec(i + 1, row)
        return total

    return rec(0, ())
