"""Closed forms for the multiplication-map determinant, with term traces.

The engine is ``det_schur_expansion``.  Split the d+q-2k forms into an
ordered "check" group of size u (factored through the y-side coefficients b)
and a "hat" group (factored through the x-side coefficients a), and write
the map through the intermediate degree k+u.  Cauchy-Binet turns the
determinant into a sum over size-(dim R_k) subsets delta of the intermediate
basis positions, and each minor is itself a determinant of homogenized
elementary symmetric values, i.e. a division-free Schur value: the check
minor carries the partition lam(delta)_r = u + r - delta_r and the hat minor
carries nu(delta)_r = max(0, q-k) + r - delta_r.  Everything is polynomial
in the coefficients, so the expansion reproduces the brute-force determinant
exactly, with no nonvanishing hypotheses, over rationals and over symbolic
coefficients alike.  An ``Expansion`` holds only its terms; its value is
their sum, so the library route, a record and the anchor read one total.

``det_closed_form`` is a single rectangular Schur value of the unsplit
product, the u = d+q-2k degeneration of the expansion.  The determinant does
not depend on how the forms are split, so the closed form applies at every u.

Every route here, like ``ring.det_direct``, applies ``check_cell`` and
evaluates the forms it is given, so each returns what ``linalg.det`` would:
an ``int`` on ``int`` forms, a ``Fraction`` once a coefficient is one, a
``MultiPoly`` on symbolic forms.  One private evaluator, ``_evaluate``,
scales: it calls ``ring.scaled_forms`` once per cell, runs the verdict
routes on the primitive integer forms and multiplies every value, each
expansion term included, by the one factor.  ``discrepancy_report`` and
``degree_anchor`` both evaluate through it, and the record multiplies its
audit cases by the same factor; ``scaled_forms``' docstring says why one
factor serves every route, terms and cases too, since each is homogeneous
of degree dim R_k in every form.  So a record runs every route in ``int``.
``scaled_forms`` returns ``MultiPoly`` forms unchanged with the factor 1,
so the symbolic identity still checks each term's Schur values.

Every verdict route of a record shares the evaluator's scaling and
``linalg.det``, so a fault in either can make them all agree.  ``det_power``
shares neither: ``degree_anchor`` checks the direct route, the expansion and
the closed form at n copies of ``ANCHOR_FORM``, a form with non-integer
coefficients, against it, for the cells of one degree k at the given
splits, and the CLI runs it for every cell it gives a verdict on.  Only the
expansion depends on the split, so ``det_power``, the scaling, the direct
route and the closed form run once per call.

``det_power`` is the closed form for n = d+q-2k copies of one form ax + by.
There E_m(a; b) = C(n, m) a^m b^(n-m), so the rectangle's Jacobi-Trudi
determinant factors as a^(WH) b^((n-W)H) times the number of semistandard
tableaux of the rectangle with entries at most n, a hook-content product of
positive factors (Macdonald, Symmetric Functions and Hall Polynomials, I.3
Ex. 4).  ``slp_check``, the strong Lefschetz scan, runs on it and builds no
matrix; the ``ring`` ground truth checks it in the tests.

``det_literal_cases`` is audit-only.  It evaluates a tempting per-case set
of ratio formulas (organized by how k and k+u sit relative to q and d) whose
mixed-split cases are KNOWN to disagree with the direct determinant: the hat
group's entry law mirrors through a, not b, and the four case statements do
not account for that.  ``discrepancy_report`` computes every route side by
side as one ``CellRecord``, so the disagreement is documented evidence,
never silently trusted.  The audit is ``None`` only when its one declared
precondition fails, a vanishing group product; any error in the audit
reaches the caller.

Audit cases 2-4 are box sums: over the partitions lam of a width x r box,
r = k+1, the sum of s_lam(first) s_mu(second), mu the complement of lam in
the d x r box.  Both Jacobi-Trudi factors are maximal minors of Toeplitz
matrices in the E-values (Bump and Diaconis, "Toeplitz minors", J. Combin.
Theory A 97, 2002; Macdonald I.3), taken on the same row set
{lam_i + k - i}, so Cauchy-Binet gives the whole sum as one r x r
determinant det(P^T Q), with no Schur value per partition.  A lam wider
than d meets an all-zero row of Q, which is exactly the audit's rule that
such a summand is skipped.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, perm, prod

from ._record import Record, set_field
from .linalg import det
from .mpoly import MultiPoly, require_int, require_rational
from .partitions import Partition, rectangle
from .ring import LinearForm, RingParams, check_cell, det_direct, dim, scaled_forms
from .symfunc import HomogPair, e_matrix, schur, schur_homog


def form_pair(forms) -> HomogPair:
    """The pair ((a_t); (b_t)) of a form list: x-side against y-side coefficients."""
    forms = tuple(forms)
    return HomogPair(tuple(f.a for f in forms), tuple(f.b for f in forms))


class SplitForms(Record):
    """An ordered two-group split of the form list.

    ``check`` is factored through b (its homogenized values are built from
    the pair (a; b)); ``hat`` is factored through a (pair (b; a)).
    """

    __slots__ = ("check", "hat")

    def __init__(self, check: tuple[LinearForm, ...], hat: tuple[LinearForm, ...]):
        set_field(self, "check", tuple(check))
        set_field(self, "hat", tuple(hat))

    @classmethod
    def split(cls, forms, u: int) -> "SplitForms":
        forms = tuple(forms)
        require_int("split point", u)
        if not 0 <= u <= len(forms):
            raise ValueError(f"split point {u} outside 0..{len(forms)}")
        return cls(check=forms[:u], hat=forms[u:])

    @property
    def all_forms(self) -> tuple[LinearForm, ...]:
        return self.check + self.hat

    @property
    def u(self) -> int:
        return len(self.check)

    def check_pair(self) -> HomogPair:
        return form_pair(self.check)

    def hat_pair(self) -> HomogPair:
        """The hat group with roles swapped: numerators b, denominators a."""
        pair = form_pair(self.hat)
        return HomogPair(pair.b, pair.a)


class ExpansionTerm(Record):
    __slots__ = ("delta", "lam", "nu", "value")


class Expansion(Record):
    """The expansion's terms; its value is their sum, the one Cauchy-Binet total."""

    __slots__ = ("terms",)

    @property
    def value(self):
        return sum(t.value for t in self.terms)


@lru_cache(maxsize=256)
def _term_skeleton(lo: int, hi: int, size: int, u: int, nu_base: int) -> tuple:
    """Each delta of the expansion with its partitions, as (delta, lam, nu) triples.

    The triples depend only on the cell's shape, not on the forms, so one
    skeleton serves every expansion of that shape; it holds only tuples and
    frozen ``Partition``s.  The cells with d+q <= 10 have 220 shapes, so
    256 holds every shape a lattice run up to there meets.
    """
    return tuple(
        (
            delta,
            Partition(u + r - delta[r] for r in range(size)),
            Partition(nu_base + r - delta[r] for r in range(size)),
        )
        for delta in combinations(range(lo, hi + 1), size)
    )


def det_schur_expansion(rp: RingParams, k: int, sf: SplitForms) -> Expansion:
    """Minor-expansion determinant with a full term trace.

    The subsets delta run over the y-degrees of the intermediate basis,
    max(0, k+u-d) .. min(k+u, q); each term is the product of the two
    division-free Schur minors described in the module docstring.  Their
    sum, the expansion's value, equals ``det_direct`` on the concatenated
    form list, including sign.
    """
    check_cell(rp, k, len(sf.all_forms))
    u = sf.u
    size = dim(rp, k)
    lo = max(0, k + u - rp.d)
    hi = min(k + u, rp.q)
    nu_base = max(0, rp.q - k)
    check_pair = sf.check_pair()
    hat_pair = sf.hat_pair()
    return Expansion(tuple(
        ExpansionTerm(delta, lam, nu, schur_homog(nu, hat_pair, rows=size)
                      * schur_homog(lam, check_pair, rows=size))
        for delta, lam, nu in _term_skeleton(lo, hi, size, u, nu_base)
    ))


def _rectangle_sides(rp: RingParams, k: int) -> tuple[int, int]:
    """Width and height of the closed form's rectangle on degree k."""
    if k <= rp.q:
        return rp.d - k, k + 1
    return rp.socle - 2 * k, rp.q + 1


def det_closed_form(rp: RingParams, k: int, forms):
    """Single rectangular Schur value for the unsplit product.

    For k <= q the rectangle is (d-k) wide and k+1 tall; for k >= q it is
    (d+q-2k) wide and q+1 tall.  Division-free, so it matches ``det_direct``
    on every input, zero coefficients included.
    """
    forms = tuple(forms)
    check_cell(rp, k, len(forms))
    width, height = _rectangle_sides(rp, k)
    return schur_homog(rectangle(width, height), form_pair(forms), rows=height)


def _rectangle_tableaux(n: int, rows: int, length: int) -> int:
    """Semistandard tableaux with ``rows`` rows of length ``length``, entries <= n.

    The count is invariant under rows -> n - rows (the rectangle's complement
    in the n-row box), so callers pass the shorter of the two.
    """
    count = 1
    for i in range(rows):
        # perm(m, L) = m!/(m-L)!; each quotient is exact, the count for i+1 rows
        count = count * perm(n - i + length - 1, length) // perm(i + length, length)
    return count


def det_power(rp: RingParams, k: int, form: LinearForm):
    """Determinant of multiplication by form^(d+q-2k) on degree k, in closed form.

    With n = d+q-2k, form = ax + by and (W, H) the closed form's rectangle,
    the value is a^(WH) * b^((n-W)H) * N, where
    N = prod_{i<W} (n-i+H-1)! i! / ((n-i-1)! (i+H)!) counts the semistandard
    tableaux with W rows of length H and entries at most n.  The complement
    rectangle, n-W rows of length H, has the same count, so the product runs
    over min(W, n-W) rows.  Every hook-content factor is positive, so N > 0
    and the determinant is zero exactly when a = 0 with W > 0 or b = 0 with
    n > W.  Division-free in a and b, so it serves symbolic coefficients too.
    Like ``det_direct`` it returns an ``int`` for an ``int`` form and a
    ``Fraction`` once a coefficient is one.
    """
    require_int("degree", k)
    n = rp.socle - 2 * k
    check_cell(rp, k, n)
    width, height = _rectangle_sides(rp, k)
    tableaux = _rectangle_tableaux(n, min(width, n - width), height)
    return form.a ** (width * height) * form.b ** ((n - width) * height) * tableaux


# the anchor's form: two non-integer coefficients whose scaled numerators
# (28, -30) share the gcd 2, so both halves of its scale factor are not 1
ANCHOR_FORM = LinearForm(Fraction(4, 3), Fraction(-10, 7))


def degree_anchor(rp: RingParams, k: int, splits) -> list[bool]:
    """Whether every verdict route gives ``det_power`` at n copies of ``ANCHOR_FORM``,
    one verdict per split point u in ``splits``, in order.

    n = d+q-2k.  The copies go through ``_evaluate``, the cell evaluator that
    every record is built by, so the anchor judges the very scaling and the
    very scaled terms that a record prints: the direct route, the closed form
    and the expansion at u must each equal ``det_power`` on the unscaled
    form, which takes no determinant, builds no E-table and never calls
    ``scaled_forms``.  So a fault that every route shares, such as a
    determinant kernel that returns 0 or a wrong scale factor, fails the
    anchor even where the routes still agree with each other.  Only the
    expansion depends on the split: the direct route and the closed form run
    once, and if either misses, every split reads False.  The literal audit
    gives no verdict and is not evaluated.
    """
    expected = det_power(rp, k, ANCHOR_FORM)
    _, direct, closed, expansions = _evaluate(rp, k, (ANCHOR_FORM,) * (rp.socle - 2 * k), splits)
    unsplit = direct == expected and closed == expected
    return [unsplit and expansion.value == expected for _, expansion in expansions]


class SlpEntry(Record):
    __slots__ = ("k", "det", "nonzero")


class SlpReport(Record):
    __slots__ = ("entries", "holds")


def slp_check(rp: RingParams, form: LinearForm) -> SlpReport:
    """Determinant of multiplication by form^(d+q-2k) for every k up to (d+q)/2.

    The form witnesses the strong Lefschetz property exactly when every
    determinant is nonzero.  Each one is ``det_power``; no matrix is built.
    """
    entries = []
    for k in range(rp.socle // 2 + 1):
        value = det_power(rp, k, form)
        entries.append(SlpEntry(k=k, det=value, nonzero=value != 0))
    return SlpReport(entries=tuple(entries), holds=all(e.nonzero for e in entries))


class LiteralCase(Record):
    __slots__ = ("case_id", "condition", "value", "skipped_terms")


def det_literal_cases(rp: RingParams, k: int, sf: SplitForms) -> list[LiteralCase] | None:
    """Audit-only evaluation of the four per-case ratio formulas.

    Each formula is computed through its division-free carrier, which agrees
    with the displayed ratio form whenever the group products are nonzero.
    The formulas require that: with a zero b in the check group or a zero a
    in the hat group they are undefined, and the audit returns ``None``.
    Case 3 as displayed can ask for a rectangle complement that does not
    exist (a part exceeding d); such summands are skipped and counted in
    ``skipped_terms``.

    Cases 2-4 sum s_lam(first) * s_mu(second) over lam in a width x r box,
    r = k+1, with mu the complement of lam in the d x r box.  With c running
    over 0..width+k, P[c][j] = E_first[c-k+j] and Q[c][j] = E_second[d+k-c-j]
    (zero outside the pair's table); the rows c_i = lam_i + k - i of P are
    lam's Jacobi-Trudi matrix, and the same rows of Q are mu's with both
    indices reversed, so no sign appears.  ``symfunc.e_matrix`` reads both
    from the groups' tables, each built once per cell: P^T's rows ascending,
    Q's descending.  By Cauchy-Binet the box sum is det(P^T Q).  A lam with
    lam_0 > d gives the row d - lam_0 - j < 0 of Q, all zero, so the skipped
    summands contribute nothing and number C(width+r, r) - C(min(width, d)+r, r).

    The returned values are NOT ground truth: only the fully-checked trivial
    split (hat empty, case 1 or the closed form) matches ``det_direct`` in
    general.  Compare via ``discrepancy_report``.
    """
    check_cell(rp, k, len(sf.all_forms))
    d, q = rp.d, rp.q
    u = sf.u
    v = len(sf.hat)
    if any(f.b == 0 for f in sf.check) or any(f.a == 0 for f in sf.hat):
        return None
    check_pair = sf.check_pair()
    hat_pair = sf.hat_pair()
    cases = []

    if q <= k:
        value = schur_homog(rectangle(u, q + 1), check_pair, rows=q + 1) * schur_homog(
            rectangle(v, q + 1), hat_pair, rows=q + 1
        )
        cases.append(LiteralCase(1, "q <= k <= (q+d)/2", value, 0))

    if q < k:
        return cases  # cases 2-4 all need k <= q
    check_table, hat_table = check_pair.table(), hat_pair.table()

    def box_sum(width, first, second):
        # det(P^T Q) by Cauchy-Binet, P and Q as in the docstring
        r, w = k + 1, width + k + 1
        pt = e_matrix(first, [range(j - k, j - k + w) for j in range(r)])
        qm = e_matrix(second, [range(d + k - c, d + k - c - r, -1) for c in range(w)])
        skipped = comb(width + r, r) - comb(min(width, d) + r, r)
        return det(pt @ qm), skipped

    if k + u <= q:
        cases.append(LiteralCase(2, "0 <= k <= k+u <= q", *box_sum(u, check_table, hat_table)))

    if d <= k + u:
        cases.append(
            LiteralCase(3, "0 <= k <= q <= d <= k+u", *box_sum(u, hat_table, check_table))
        )

    if q <= k + u <= d:
        cases.append(LiteralCase(4, "k <= q <= k+u <= d", *box_sum(q - k, check_table, hat_table)))

    return cases


def duality_check(r: int, m: int, a, b) -> ComplementIdentityResult:
    """(prod b)^r s_{(r^m)}(a/b) against (prod a)^r s_{(r^m)}(b/a).

    The rectangle (r^m) is its own complement in the r-column, 2m-row box, so
    this is ``complement_identity_check`` at that shape; it requires 2m
    nonzero entries on each side.
    """
    if r < 1 or m < 1:
        raise ValueError("need r >= 1 and m >= 1")
    return complement_identity_check(rectangle(r, m), r, 2 * m, a, b)


class ComplementIdentityResult(Record):
    __slots__ = ("mu", "lhs", "rhs", "equal")


def complement_identity_check(
    lam: Partition, r: int, n: int, x, y
) -> ComplementIdentityResult:
    """(prod y)^r s_lam(x/y) against (prod x)^r s_mu(y/x), mu the box complement.

    lam must fit in the r-column, n-row box; x and y need n nonzero entries
    each.  Both sides are evaluated independently.
    """
    if r < 1 or n < 1:
        raise ValueError("need r >= 1 and n >= 1")
    x, y = tuple(x), tuple(y)
    require_rational("value", *x, *y)
    if len(x) != n or len(y) != n:
        raise ValueError(f"need exactly n = {n} entries on each side")
    if any(v == 0 for v in x) or any(v == 0 for v in y):
        raise ValueError("ratio vectors need nonzero entries")
    mu = lam.complement(r, n)
    lhs = prod(y) ** r * schur(lam, [Fraction(xi, yi) for xi, yi in zip(x, y)])
    rhs = prod(x) ** r * schur(mu, [Fraction(yi, xi) for xi, yi in zip(x, y)])
    return ComplementIdentityResult(mu=mu, lhs=lhs, rhs=rhs, equal=lhs == rhs)


class CellRecord(Record):
    """Every determinant route for one instance, side by side.

    Values are live ring values (Fraction or MultiPoly).  ``literal`` holds
    the audit cases, or is ``None`` exactly when the audit is undefined (a
    vanishing group product); they never influence the two verdicts.
    """

    __slots__ = ("direct", "expansion", "closed", "literal")

    @property
    def expansion_matches(self) -> bool:
        return self.expansion.value == self.direct

    @property
    def closed_matches(self) -> bool:
        return self.closed == self.direct

    @property
    def agrees(self) -> bool:
        """The cell's verdict: both closed routes equal the direct determinant."""
        return self.expansion_matches and self.closed_matches


def _evaluate(rp: RingParams, k: int, forms, splits) -> tuple:
    """The verdict routes of one cell, scaled once: the one evaluator of
    ``discrepancy_report`` and ``degree_anchor``.

    One ``scaled_forms`` call gives the forms every route runs on and the
    factor that multiplies every value it returns.  Returns the factor, the
    direct route and the closed form, each times the factor, and for each
    split point u in ``splits``, in order, the pair (the scaled forms split
    at u, their expansion with every term times the factor).  A term has the
    total's degree dim(R_k) in every form, so this is exact, and each value
    equals what its public route returns on the forms as given.
    """
    scaled, factor = scaled_forms(rp, k, forms)
    direct = det_direct(rp, k, scaled) * factor
    closed = det_closed_form(rp, k, scaled) * factor
    expansions = []
    for u in splits:
        sf = SplitForms.split(scaled, u)
        expansions.append((sf, Expansion(tuple(
            ExpansionTerm(t.delta, t.lam, t.nu, t.value * factor)
            for t in det_schur_expansion(rp, k, sf).terms))))
    return factor, direct, closed, expansions


def discrepancy_report(rp: RingParams, k: int, sf: SplitForms) -> CellRecord:
    """Compute the direct, expansion and closed-form routes and the literal
    audit for one instance.

    The closed form is computed on every split: it is the determinant of the
    unsplit product, which the split does not change.  ``literal`` is
    ``None`` when ``det_literal_cases`` is; any error in a route propagates.

    The verdict routes come from ``_evaluate``, the evaluator that
    ``degree_anchor`` checks, and the audit runs on the scaled split it
    gives back, each case times the same factor: a case, like a term, has
    the total's degree dim(R_k) in every form.  The expansion holds only its
    scaled terms and its value is their sum, so a verdict on the total reads
    the very terms a caller prints.  Scaling keeps every zero coefficient,
    so the audit's precondition reads the same on the scaled split.
    """
    factor, direct, closed, [(evaluated, expansion)] = _evaluate(rp, k, sf.all_forms, [sf.u])
    cases = det_literal_cases(rp, k, evaluated)
    literal = None if cases is None else tuple(
        LiteralCase(c.case_id, c.condition, c.value * factor, c.skipped_terms) for c in cases)
    return CellRecord(direct, expansion, closed, literal)


def symbolic_forms(n: int) -> tuple[list[LinearForm], list[str]]:
    """n linear forms with fresh symbolic coefficients, plus variable names.

    Variables are a1..an then b1..bn in a 2n-variable polynomial ring, so a
    report over these forms reads like the formulas it checks.
    """
    require_int("form count", n)
    if n < 0:
        raise ValueError(f"form count {n} is negative")
    names = [f"a{i + 1}" for i in range(n)] + [f"b{i + 1}" for i in range(n)]
    gens = MultiPoly.variables(2 * n)
    forms = [LinearForm(gens[i], gens[n + i]) for i in range(n)]
    return forms, names
