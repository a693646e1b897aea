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
coefficients alike.

``det_closed_form`` is the u = d+q-2k degeneration: a single rectangular
Schur value.

``det_literal_cases`` is audit-only.  It evaluates a tempting per-case set
of ratio formulas (organized by how k and k+u sit relative to q and d) whose
mixed-split cases are KNOWN to disagree with the direct determinant: the hat
group's entry law mirrors through a, not b, and the four case statements do
not account for that.  ``discrepancy_report`` computes everything side by
side and flags each comparison, so the disagreement is documented evidence,
never silently trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .mpoly import MultiPoly
from .partitions import Partition, enumerate_in_rectangle, rectangle
from .ring import LinearForm, RingParams, det_direct, dim
from .symfunc import HomogPair, schur, schur_homog


@dataclass(frozen=True)
class SplitForms:
    """An ordered two-group split of the form list.

    ``check`` is factored through b (its homogenized values are built from
    the pair (a; b)); ``hat`` is factored through a (pair (b; a)).
    """

    check: tuple[LinearForm, ...]
    hat: tuple[LinearForm, ...]

    def __post_init__(self):
        object.__setattr__(self, "check", tuple(self.check))
        object.__setattr__(self, "hat", tuple(self.hat))

    @classmethod
    def split(cls, forms, u: int) -> "SplitForms":
        forms = tuple(forms)
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
        return HomogPair(tuple(f.a for f in self.check), tuple(f.b for f in self.check))

    def hat_pair(self) -> HomogPair:
        """The hat group with roles swapped: numerators b, denominators a."""
        return HomogPair(tuple(f.b for f in self.hat), tuple(f.a for f in self.hat))


@dataclass(frozen=True)
class ExpansionTerm:
    delta: tuple[int, ...]
    lam: Partition
    nu: Partition
    value: object


@dataclass(frozen=True)
class Expansion:
    value: object
    terms: tuple[ExpansionTerm, ...]


def _validate_cell(rp: RingParams, k: int, nforms: int) -> int:
    n = rp.socle - 2 * k
    if k < 0 or n < 0:
        raise ValueError(f"need 0 <= k <= {rp.socle // 2}, got k={k}")
    if nforms != n:
        raise ValueError(f"need {n} forms for k={k}, got {nforms}")
    return n


def det_schur_expansion(rp: RingParams, k: int, sf: SplitForms) -> Expansion:
    """Minor-expansion determinant with a full term trace.

    The subsets delta run over the y-degrees of the intermediate basis,
    max(0, k+u-d) .. min(k+u, q); each term is the product of the two
    division-free Schur minors described in the module docstring.  The total
    equals ``det_direct`` on the concatenated form list, including sign.
    """
    _validate_cell(rp, k, len(sf.all_forms))
    u = sf.u
    size = dim(rp, k)
    lo = max(0, k + u - rp.d)
    hi = min(k + u, rp.q)
    nu_base = max(0, rp.q - k)
    check_pair = sf.check_pair()
    hat_pair = sf.hat_pair()
    terms = []
    total = 0
    for delta in combinations(range(lo, hi + 1), size):
        lam = Partition(u + r - delta[r] for r in range(size))
        nu = Partition(nu_base + r - delta[r] for r in range(size))
        value = schur_homog(nu, hat_pair, rows=size) * schur_homog(
            lam, check_pair, rows=size
        )
        terms.append(ExpansionTerm(delta=delta, lam=lam, nu=nu, value=value))
        total = total + value
    return Expansion(value=total, terms=tuple(terms))


def det_closed_form(rp: RingParams, k: int, forms):
    """Single rectangular Schur value for the unsplit product.

    For k <= q the rectangle is (d-k) wide and k+1 tall; for k >= q it is
    (d+q-2k) wide and q+1 tall.  Division-free, so it matches ``det_direct``
    on every input, zero coefficients included.
    """
    forms = tuple(forms)
    _validate_cell(rp, k, len(forms))
    pair = HomogPair(tuple(f.a for f in forms), tuple(f.b for f in forms))
    if k <= rp.q:
        width, height = rp.d - k, k + 1
    else:
        width, height = rp.socle - 2 * k, rp.q + 1
    return schur_homog(rectangle(width, height), pair, rows=height)


@dataclass(frozen=True)
class LiteralCase:
    case_id: int
    condition: str
    value: object
    skipped_terms: int


def _product(values):
    out = 1
    for v in values:
        out = out * v
    return out


def det_literal_cases(rp: RingParams, k: int, sf: SplitForms) -> list[LiteralCase]:
    """Audit-only evaluation of the four per-case ratio formulas.

    Each formula is computed through its division-free carrier, which agrees
    with the displayed ratio form whenever the group products are nonzero
    (enforced here, as the formulas require).  Case 3 as displayed can ask
    for a rectangle complement that does not exist (a part exceeding d);
    such summands are skipped and counted in ``skipped_terms``.

    The returned values are NOT ground truth: only the fully-checked trivial
    split (hat empty, case 1 or the closed form) matches ``det_direct`` in
    general.  Compare via ``discrepancy_report``.
    """
    _validate_cell(rp, k, len(sf.all_forms))
    d, q = rp.d, rp.q
    u = sf.u
    v = len(sf.hat)
    beta_check = _product(f.b for f in sf.check)
    alpha_hat = _product(f.a for f in sf.hat)
    if beta_check == 0 or alpha_hat == 0:
        raise ValueError("literal case formula undefined: a group product vanishes")
    check_pair = sf.check_pair()
    hat_pair = sf.hat_pair()
    cases = []

    if q <= k:
        value = schur_homog(rectangle(u, q + 1), check_pair, rows=q + 1) * schur_homog(
            rectangle(v, q + 1), hat_pair, rows=q + 1
        )
        cases.append(LiteralCase(1, "q <= k <= (q+d)/2", value, 0))

    def box_sum(width, first_pair, second_pair):
        # sum of s_lam(first) * s_mu(second) over lam in the width x (k+1) box,
        # mu its complement in the d x (k+1) box; a lam wider than d is skipped
        value, skipped = 0, 0
        for lam in enumerate_in_rectangle(width, k + 1):
            if lam.part(0) > d:
                skipped += 1
                continue
            mu = lam.complement(d, k + 1)
            value = value + schur_homog(lam, first_pair, rows=k + 1) * schur_homog(
                mu, second_pair, rows=k + 1
            )
        return value, skipped

    if k + u <= q:
        cases.append(LiteralCase(2, "0 <= k <= k+u <= q", *box_sum(u, check_pair, hat_pair)))

    if k <= q and d <= k + u:
        cases.append(
            LiteralCase(3, "0 <= k <= q <= d <= k+u", *box_sum(u, hat_pair, check_pair))
        )

    if k <= q <= k + u <= d:
        cases.append(LiteralCase(4, "k <= q <= k+u <= d", *box_sum(q - k, check_pair, hat_pair)))

    return cases


@dataclass(frozen=True)
class DualityResult:
    lhs: object
    rhs: object
    equal: bool


def duality_check(r: int, m: int, a, b) -> DualityResult:
    """(prod b)^r s_{(r^m)}(a/b) against (prod a)^r s_{(r^m)}(b/a).

    Both sides are evaluated independently through ratio vectors; requires
    2m nonzero entries on each side.
    """
    if r < 1 or m < 1:
        raise ValueError("need r >= 1 and m >= 1")
    a = tuple(Fraction(x) for x in a)
    b = tuple(Fraction(x) for x in b)
    if len(a) != 2 * m or len(b) != 2 * m:
        raise ValueError(f"need exactly 2m = {2 * m} entries on each side")
    if any(x == 0 for x in a) or any(x == 0 for x in b):
        raise ValueError("ratio vectors need nonzero entries")
    shape = rectangle(r, m)
    lhs = _product(b) ** r * schur(shape, [x / y for x, y in zip(a, b)])
    rhs = _product(a) ** r * schur(shape, [y / x for x, y in zip(a, b)])
    return DualityResult(lhs=lhs, rhs=rhs, equal=lhs == rhs)


@dataclass(frozen=True)
class ComplementIdentityResult:
    mu: Partition
    lhs: object
    rhs: object
    equal: bool


def complement_identity_check(
    lam: Partition, r: int, n: int, x, y
) -> ComplementIdentityResult:
    """(prod y)^r s_lam(x/y) against (prod x)^r s_mu(y/x), mu the box complement.

    lam must fit in the r-column, n-row box; x and y need n nonzero entries
    each.  Both sides are evaluated independently.
    """
    if r < 1 or n < 1:
        raise ValueError("need r >= 1 and n >= 1")
    x = tuple(Fraction(v) for v in x)
    y = tuple(Fraction(v) for v in y)
    if len(x) != n or len(y) != n:
        raise ValueError(f"need exactly n = {n} entries on each side")
    if any(v == 0 for v in x) or any(v == 0 for v in y):
        raise ValueError("ratio vectors need nonzero entries")
    mu = lam.complement(r, n)
    lhs = _product(y) ** r * schur(lam, [xi / yi for xi, yi in zip(x, y)])
    rhs = _product(x) ** r * schur(mu, [yi / xi for xi, yi in zip(x, y)])
    return ComplementIdentityResult(mu=mu, lhs=lhs, rhs=rhs, equal=lhs == rhs)


def discrepancy_report(rp: RingParams, k: int, sf: SplitForms) -> dict:
    """Side-by-side record of every determinant route for one instance.

    Keys hold live ring values (Fraction or MultiPoly); the closed form is
    included only for the trivial split (hat empty), where it applies.
    Literal cases carry per-case match flags and never influence the
    ``matches`` verdicts.
    """
    n = _validate_cell(rp, k, len(sf.all_forms))
    direct = det_direct(rp, k, sf.all_forms)
    expansion = det_schur_expansion(rp, k, sf)
    closed = det_closed_form(rp, k, sf.all_forms) if sf.u == n else None
    try:
        literal = [
            {
                "case": c.case_id,
                "condition": c.condition,
                "value": c.value,
                "skipped_terms": c.skipped_terms,
                "matches_direct": c.value == direct,
            }
            for c in det_literal_cases(rp, k, sf)
        ]
        literal_error = None
    except ValueError as exc:
        literal = []
        literal_error = str(exc)
    return {
        "d": rp.d,
        "q": rp.q,
        "k": k,
        "u": sf.u,
        "det_direct": direct,
        "det_expansion": expansion.value,
        "expansion_terms": expansion.terms,
        "det_closed_form": closed,
        "literal_case_audit": literal,
        "literal_case_error": literal_error,
        "matches": {
            "expansion": expansion.value == direct,
            "closed_form": None if closed is None else closed == direct,
        },
    }


def symbolic_forms(n: int) -> tuple[list[LinearForm], list[str]]:
    """n linear forms with fresh symbolic coefficients, plus variable names.

    Variables are a1..an then b1..bn in a 2n-variable polynomial ring, so a
    report over these forms reads like the formulas it checks.
    """
    names = [f"a{i + 1}" for i in range(n)] + [f"b{i + 1}" for i in range(n)]
    gens = MultiPoly.variables(2 * n)
    forms = [LinearForm(gens[i], gens[n + i]) for i in range(n)]
    return forms, names
