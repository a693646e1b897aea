"""The graded algebra K[x,y] modulo x^(d+1) and y^(q+1).

Monomial bases per degree, representation matrices of multiplication by
products of linear forms, and brute-force determinants of those maps.
Everything here is computed directly from monomials, so this module is the
ground truth that the closed forms in ``formulas`` (the strong Lefschetz
scan's hook-content product among them) are checked against.

Basis order is fixed to strictly decreasing x-exponent (x^k, x^{k-1}y, ...),
which pins down every determinant sign.  A monomial whose x-exponent exceeds
d or whose y-exponent exceeds q is dead and stays dead under further
multiplication by linear forms, so the one-shot product matrix equals the
ordered product of the single-form matrices.

``scaled_forms`` takes rational forms to primitive integer pairs with
``linalg.primitive_part`` and returns the one factor that undoes it (its
docstring states the degree fact behind that factor).  Every determinant
route, ``det_direct`` here and the expansion, the closed form, the audit and
``det_power`` in ``formulas``, applies the cell rule of ``check_cell`` and
evaluates the forms it is given.  Only ``formulas.discrepancy_report`` and
``formulas.degree_anchor`` scale: each calls ``scaled_forms`` once, runs the
routes on its integer forms and multiplies their values by the factor.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record, set_field
from .linalg import ExactMatrix, det, primitive_part
from .mpoly import RATIONAL, require_exact, require_int


class RingParams(Record):
    """Exponent parameters d >= q >= 1; the socle degree is d + q."""

    __slots__ = ("d", "q")

    def __init__(self, d: int, q: int):
        require_int("exponent", d, q)
        if not d >= q >= 1:
            raise ValueError(f"need d >= q >= 1, got d={d}, q={q}")
        set_field(self, "d", d)
        set_field(self, "q", q)

    @property
    def socle(self) -> int:
        return self.d + self.q


class LinearForm(Record):
    """a*x + b*y with exact coefficients, not both zero."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        require_exact("form coefficient", a, b)
        if a == 0 and b == 0:
            raise ValueError("linear form must be nonzero")
        set_field(self, "a", a)
        set_field(self, "b", b)


def basis(rp: RingParams, k: int) -> tuple[tuple[int, int], ...]:
    """Monomials x^i y^(k-i) with 0 <= i <= d and 0 <= k-i <= q, x-degree descending."""
    require_int("degree", k)
    if not 0 <= k <= rp.socle:
        raise ValueError(f"degree {k} outside 0..{rp.socle}")
    top = min(rp.d, k)
    bottom = max(0, k - rp.q)
    return tuple((i, k - i) for i in range(top, bottom - 1, -1))


def dim(rp: RingParams, k: int) -> int:
    """Dimension of the degree-k component; 0 outside 0..d+q."""
    require_int("degree", k)
    if not 0 <= k <= rp.socle:
        return 0
    return min(rp.d, k) - max(0, k - rp.q) + 1


def product_coefficients(forms) -> list:
    """Coefficients of prod(a_t x + b_t y), indexed by y-exponent.

    Expanded one factor at a time from monomials: multiplying by a x + b y
    keeps a term's y-exponent through a and raises it by one through b, so
    c'[i] = a c[i] + b c[i-1].  Entry i is thus E_{u-i}(a; b), a choice of
    the x-part from u-i of the factors and the y-part from the rest, but it
    shares no code with ``HomogPair.table``, which the closed forms read.
    The empty product gives [1].
    """
    coeffs: list = [1]
    for f in forms:
        coeffs.append(0)
        for i in range(len(coeffs) - 1, 0, -1):
            coeffs[i] = f.a * coeffs[i] + f.b * coeffs[i - 1]
        coeffs[0] = f.a * coeffs[0]
    return coeffs


def mult_matrix(rp: RingParams, form: LinearForm, k: int) -> ExactMatrix:
    """Matrix of multiplication by one linear form, degree k to k+1."""
    if not 0 <= k < rp.socle:
        raise ValueError(f"degree {k} outside 0..{rp.socle - 1}")
    src = basis(rp, k)
    tgt = basis(rp, k + 1)
    row_of = {mono: r for r, mono in enumerate(tgt)}
    entries = [[0] * len(src) for _ in range(len(tgt))]
    for c, (i, j) in enumerate(src):
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
    src = [j for _, j in basis(rp, k)]
    tgt = [i for _, i in basis(rp, k + u)]
    entries = []
    for i in tgt:
        for j in src:
            shift = i - j
            entries.append(coeffs[shift] if 0 <= shift <= u else 0)
    return ExactMatrix(len(tgt), len(src), entries)


def check_cell(rp: RingParams, k: int, nforms: int) -> None:
    """The cell rule: multiplication by ``nforms`` linear forms on degree k is
    a square map exactly when k is an int, 0 <= k <= (d+q)/2 and
    nforms = d+q-2k; any other (k, nforms) raises ``ValueError``."""
    require_int("degree", k)
    n = rp.socle - 2 * k
    if k < 0 or n < 0:
        raise ValueError(f"need 0 <= k <= {rp.socle // 2}, got k={k}")
    if nforms != n:
        raise ValueError(
            f"non-square multiplication map: need {n} forms for k={k}, got {nforms}"
        )


def scaled_forms(rp: RingParams, k: int, forms) -> tuple[tuple[LinearForm, ...], Fraction | int]:
    """The forms to evaluate a cell on, with the one factor that undoes the scaling.

    The forms must make a cell on degree k: ``check_cell`` raises its
    ``ValueError`` otherwise.

    Multiplication by l_1 ... l_(d+q-2k) on R_k has a determinant that is
    homogeneous of degree dim(R_k) in each pair (a_t, b_t), and so is every
    formula for it here: the closed form's rectangle height and the row count
    of every literal audit case both equal dim(R_k).  Rational form t becomes
    its ``linalg.primitive_part``, the primitive integer pair s_t * (a_t, b_t)
    with s_t = den / g > 0 (den the lcm of the denominators, g the gcd of
    the scaled numerators), and
    factor = 1 / prod(s_t)**dim(R_k), a ``Fraction``; any such value is its
    value on the returned forms times ``factor``.  When some coefficient is
    not an ``int`` or a ``Fraction`` (``MultiPoly`` forms) the forms come back
    unchanged with the ``int`` factor 1.
    """
    forms = tuple(forms)
    check_cell(rp, k, len(forms))
    if not all(type(c) in RATIONAL for f in forms for c in (f.a, f.b)):
        return forms, 1
    dens = gcds = 1
    primitive = []
    for f in forms:
        (a, b), g, den = primitive_part((f.a, f.b))
        dens *= den
        gcds *= g
        primitive.append(LinearForm(a, b))
    power = dim(rp, k)
    return tuple(primitive), Fraction(gcds**power, dens**power)


def det_direct(rp: RingParams, k: int, forms):
    """Brute-force determinant of multiplication by d+q-2k linear forms on degree k.

    This is the artifact-wide ground truth; dimension symmetry makes the map
    square exactly when the number of forms is d+q-2k, and ``check_cell``
    rejects any other count.  The block is built on the forms as given and
    reduced by ``linalg.det``, so its value has that function's type.
    """
    forms = tuple(forms)
    check_cell(rp, k, len(forms))
    return det(mult_matrix_block(rp, forms, k))
