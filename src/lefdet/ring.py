"""The graded algebra K[x,y] modulo x^(d+1) and y^(q+1).

Monomial bases per degree, representation matrices of multiplication by
products of linear forms, brute-force determinants of those maps, and the
strong Lefschetz scan.  Everything here is computed directly from monomials,
so this module is the ground truth that the closed forms in ``formulas`` are
checked against.

Basis order is fixed to strictly decreasing x-exponent (x^k, x^{k-1}y, ...),
which pins down every determinant sign.  A monomial whose x-exponent exceeds
d or whose y-exponent exceeds q is dead and stays dead under further
multiplication by linear forms, so the one-shot product matrix equals the
ordered product of the single-form matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import ExactMatrix, det
from .mpoly import MultiPoly
from .symfunc import HomogPair, _homog_table


@dataclass(frozen=True)
class RingParams:
    """Exponent parameters d >= q >= 1; the socle degree is d + q."""

    d: int
    q: int

    def __post_init__(self):
        if not self.d >= self.q >= 1:
            raise ValueError(f"need d >= q >= 1, got d={self.d}, q={self.q}")

    @property
    def socle(self) -> int:
        return self.d + self.q

    def swapped(self) -> "RingParams":
        """The (q, d) twin, skipping the d >= q normalization check.

        Used only to evaluate the transposed determinant identity; all basis
        and matrix computations below are valid for any d, q >= 1.
        """
        rp = object.__new__(RingParams)
        object.__setattr__(rp, "d", self.q)
        object.__setattr__(rp, "q", self.d)
        return rp


@dataclass(frozen=True)
class LinearForm:
    """a*x + b*y with exact coefficients, not both zero."""

    a: object
    b: object

    def __post_init__(self):
        for coeff in (self.a, self.b):
            if not isinstance(coeff, (int, Fraction, MultiPoly)):
                raise ValueError(
                    f"form coefficient {coeff!r} is not exact: "
                    "need int, Fraction or MultiPoly"
                )
        if self.a == 0 and self.b == 0:
            raise ValueError("linear form must be nonzero")


@dataclass(frozen=True)
class GradedBasis:
    degree: int
    monomials: tuple[tuple[int, int], ...]

    @property
    def y_exponents(self) -> tuple[int, ...]:
        return tuple(j for _, j in self.monomials)

    def __len__(self):
        return len(self.monomials)


def basis(rp: RingParams, k: int) -> GradedBasis:
    """Monomials x^i y^(k-i) with 0 <= i <= d and 0 <= k-i <= q, x-degree descending."""
    if not 0 <= k <= rp.socle:
        raise ValueError(f"degree {k} outside 0..{rp.socle}")
    top = min(rp.d, k)
    bottom = max(0, k - rp.q)
    return GradedBasis(k, tuple((i, k - i) for i in range(top, bottom - 1, -1)))


def dim(rp: RingParams, k: int) -> int:
    """Dimension of the degree-k component; 0 outside 0..d+q."""
    if not 0 <= k <= rp.socle:
        return 0
    return min(rp.d, k) - max(0, k - rp.q) + 1


def product_coefficients(forms) -> list:
    """Coefficients of prod(a_t x + b_t y), indexed by y-exponent.

    Entry i is E_{u-i}(a; b): choosing the x-part from a size-(u-i) subset of
    the factors and the y-part from the rest.  The empty product gives [1].
    """
    forms = tuple(forms)
    pair = HomogPair(tuple(f.a for f in forms), tuple(f.b for f in forms))
    return list(reversed(_homog_table(pair)))


def mult_matrix(rp: RingParams, form: LinearForm, k: int) -> ExactMatrix:
    """Matrix of multiplication by one linear form, degree k to k+1."""
    if not 0 <= k < rp.socle:
        raise ValueError(f"degree {k} outside 0..{rp.socle - 1}")
    src = basis(rp, k)
    tgt = basis(rp, k + 1)
    row_of = {mono: r for r, mono in enumerate(tgt.monomials)}
    entries = [[0] * len(src) for _ in range(len(tgt))]
    for c, (i, j) in enumerate(src.monomials):
        up_x = (i + 1, j)
        if up_x in row_of:
            entries[row_of[up_x]][c] = form.a
        up_y = (i, j + 1)
        if up_y in row_of:
            entries[row_of[up_y]][c] = form.b
    return ExactMatrix.from_rows(entries)


def mult_matrix_block(rp: RingParams, forms, k: int) -> ExactMatrix:
    """One-shot matrix of multiplication by the whole product, degree k to k+u.

    The entry at target y-degree i, source y-degree j is coefficient i-j of
    the expanded product; it equals the ordered product of the single-form
    matrices.
    """
    forms = tuple(forms)
    u = len(forms)
    if not (0 <= k and k + u <= rp.socle):
        raise ValueError(f"degrees {k}..{k + u} outside 0..{rp.socle}")
    coeffs = product_coefficients(forms)
    src = basis(rp, k)
    tgt = basis(rp, k + u)
    entries = []
    for i in tgt.y_exponents:
        for j in src.y_exponents:
            shift = i - j
            entries.append(coeffs[shift] if 0 <= shift <= u else 0)
    return ExactMatrix(len(tgt), len(src), entries)


def det_direct(rp: RingParams, k: int, forms):
    """Brute-force determinant of multiplication by d+q-2k linear forms on degree k.

    This is the artifact-wide ground truth; dimension symmetry makes the map
    square exactly when the number of forms is d+q-2k.
    """
    forms = tuple(forms)
    n = rp.socle - 2 * k
    if k < 0 or n < 0:
        raise ValueError(f"need 0 <= k <= {rp.socle // 2}, got k={k}")
    if len(forms) != n:
        raise ValueError(
            f"non-square multiplication map: need {n} forms for k={k}, got {len(forms)}"
        )
    return det(mult_matrix_block(rp, forms, k))


@dataclass(frozen=True)
class SlpEntry:
    k: int
    det: object
    nonzero: bool


@dataclass(frozen=True)
class SlpReport:
    entries: tuple[SlpEntry, ...]
    holds: bool


def slp_check(rp: RingParams, form: LinearForm) -> SlpReport:
    """Determinant of multiplication by form^(d+q-2k) for every k up to (d+q)/2.

    The form witnesses the strong Lefschetz property exactly when every
    determinant is nonzero.
    """
    entries = []
    for k in range(rp.socle // 2 + 1):
        value = det_direct(rp, k, [form] * (rp.socle - 2 * k))
        entries.append(SlpEntry(k=k, det=value, nonzero=value != 0))
    return SlpReport(entries=tuple(entries), holds=all(e.nonzero for e in entries))
