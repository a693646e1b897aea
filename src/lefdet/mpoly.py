"""Sparse multivariate polynomials with exact rational coefficients.

``MultiPoly`` provides the same arithmetic surface the rest of the package
expects from a coefficient ring: ``+``, ``-``, ``*``, ``**`` and decidable
``==``, all exact.  ``Fraction`` and ``int`` satisfy the same implicit
contract, so generic code (determinants, symmetric-function tables, the
formula engine) runs unchanged over either ring; feeding symbolic
coefficients turns every numeric check into a polynomial-identity check.

Terms are stored packed (Monagan and Pearce, "Polynomial division using
dynamic arrays, heaps, and packed exponent vectors", CASC 2007): each key is
one ``int`` holding the exponent vector in ``FIELD``-bit fields, variable 0
in the most significant field, so a monomial product is one ``int`` addition
and key order is the lexicographic order of the exponent tuples.  Every
polynomial carries an upper bound on its exponents; a product whose bound
would exceed ``MAX_EXPONENT`` raises ``OverflowError`` instead of carrying
into the neighbouring field.  A product with a one-term factor (each E-table
step multiplies by one variable) is a monomial shift: every key of the other
factor moves by that one key, with no accumulation and no zero filter, since
distinct keys stay distinct and a product of nonzero rationals is nonzero.
The operators test for a ``MultiPoly`` operand first, as the common case;
scalar operands then take the ``int``/``Fraction`` branches unchanged.  A
coefficient is an ``int`` when it is integral and a ``Fraction`` otherwise,
and zero coefficients are never stored.  The ``terms`` property is a
read-only ``{exponent tuple: Fraction}`` view.

The ``require_*`` helpers below are the package's one exactness rule, called at
every public entry point, and ``RATIONAL`` and ``EXACT`` are its type sets.
Types match exactly, so ``bool`` never passes: an integer is ``int``, a
rational ``int`` or ``Fraction`` (``RATIONAL``), a ring element either or
``MultiPoly`` (``EXACT``).
``parse_int`` is the one rule for an integer written as text.
"""

from __future__ import annotations

import re
from collections.abc import ItemsView, Mapping
from fractions import Fraction

FIELD = 32
MAX_EXPONENT = (1 << FIELD) - 1
RATIONAL = frozenset((int, Fraction))
_INTEGER = re.compile(r"[+-]?[0-9]+")


def parse_int(text: str) -> int:
    """ASCII digits with an optional sign; ``int`` would also read ``1_0`` or Arabic digits."""
    text = text.strip()
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"bad integer {text!r}: need ASCII digits with an optional sign")
    return int(text)


def require_int(what: str, *values) -> None:
    """Raise ``ValueError`` unless every value is exactly an ``int``."""
    for v in values:
        if type(v) is not int:
            raise ValueError(f"{what} {v!r} is not an int")


def require_rational(what: str, *values) -> None:
    """Raise ``ValueError`` unless every value is an ``int`` or a ``Fraction``."""
    for v in values:
        if type(v) not in RATIONAL:
            raise ValueError(f"{what} {v!r} is not exact: need int or Fraction")


def require_exact(what: str, *values) -> None:
    """Raise ``ValueError`` unless every value is an ``int``, ``Fraction`` or ``MultiPoly``."""
    for v in values:
        if type(v) not in EXACT:
            raise ValueError(f"{what} {v!r} is not exact: need int, Fraction or MultiPoly")


def _settle(c):
    """``c`` as an ``int`` when it is integral, else unchanged."""
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


def _pack(expo) -> int:
    key = 0
    for e in expo:
        key = key << FIELD | e
    return key


def _unpack(key: int, arity: int) -> tuple[int, ...]:
    return tuple(
        key >> (FIELD * (arity - 1 - i)) & MAX_EXPONENT for i in range(arity)
    )


def _poly(arity: int, terms: dict, top: int) -> "MultiPoly":
    """A MultiPoly around an already packed, zero-free, settled term dict."""
    out = object.__new__(MultiPoly)
    out.arity = arity
    out._terms = terms
    out._top = top if terms else 0
    return out


def _shift(terms: dict, mono: dict, arity: int, top: int) -> "MultiPoly":
    """``terms`` times the one-term ``mono``, as a monomial shift."""
    ((k0, c0),) = mono.items()
    if c0 == 1:
        shifted = {key + k0: c for key, c in terms.items()}
    else:
        shifted = {key + k0: _settle(c * c0) for key, c in terms.items()}
    return _poly(arity, shifted, top)


class MultiPoly:
    # _terms: packed exponent key -> int or Fraction coefficient
    # _top: upper bound on every exponent of every term
    __slots__ = ("arity", "_terms", "_top")

    def __init__(self, arity: int, terms=None):
        require_int("arity", arity)
        if arity < 0:
            raise ValueError("arity must be nonnegative")
        clean: dict[int, object] = {}
        top = 0
        if terms:
            items = terms.items() if hasattr(terms, "items") else terms
            for expo, coeff in items:
                expo = tuple(expo)
                require_int("exponent", *expo)
                require_rational("coefficient", coeff)
                if len(expo) != arity:
                    raise ValueError(
                        f"exponent vector {expo} does not match arity {arity}"
                    )
                if any(e < 0 for e in expo):
                    raise ValueError(f"negative exponent in {expo}")
                if any(e > MAX_EXPONENT for e in expo):
                    raise OverflowError(
                        f"exponent in {expo} exceeds {MAX_EXPONENT}, "
                        f"the largest a {FIELD}-bit field holds"
                    )
                key = _pack(expo)
                c = clean.get(key, 0) + coeff
                if c:
                    clean[key] = c
                    top = max(top, max(expo, default=0))
                elif key in clean:
                    del clean[key]
        self.arity = arity
        self._terms = {key: _settle(c) for key, c in clean.items()}
        self._top = top if clean else 0

    @classmethod
    def constant(cls, arity: int, value) -> "MultiPoly":
        return cls(arity, {(0,) * arity: value})

    @classmethod
    def variable(cls, arity: int, index: int) -> "MultiPoly":
        require_int("variable index", index)
        generators = cls.variables(arity)
        if not 0 <= index < arity:
            raise ValueError(f"variable index {index} out of range for arity {arity}")
        return generators[index]

    @classmethod
    def variables(cls, arity: int) -> list["MultiPoly"]:
        """Every ``variable(arity, i)``, built straight into the packed store."""
        require_int("arity", arity)
        if arity < 0:
            raise ValueError("arity must be nonnegative")
        return [_poly(arity, {1 << FIELD * (arity - 1 - i): 1}, 1) for i in range(arity)]

    @property
    def terms(self) -> "TermView":
        """The terms as a read-only ``{exponent tuple: Fraction}`` mapping."""
        return TermView(self)

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.arity != self.arity:
                raise ValueError(
                    f"arity mismatch: {self.arity} vs {other.arity}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.constant(self.arity, other)
        return None

    def __add__(self, other):
        if type(other) is not MultiPoly and isinstance(other, (int, Fraction)) and other == 0:
            return self  # generic sums start from the int 0
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        big, small = self._terms, other._terms
        if len(big) < len(small):
            big, small = small, big
        terms = dict(big)
        if terms.keys().isdisjoint(small):
            terms.update(small)  # both sides are already zero-free and settled
        else:
            get = terms.get
            for key, coeff in small.items():
                c = get(key, 0) + coeff
                if c:
                    terms[key] = c if type(c) is int else _settle(c)
                else:
                    del terms[key]
        return _poly(self.arity, terms, max(self._top, other._top))

    __radd__ = __add__

    def __neg__(self):
        return _poly(
            self.arity, {key: -c for key, c in self._terms.items()}, self._top
        )

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if type(other) is not MultiPoly and isinstance(other, (int, Fraction)):
            # a scalar scales the coefficients; no monomial work
            if other == 1:
                return self
            if other == 0:
                return _poly(self.arity, {}, 0)
            return _poly(
                self.arity,
                {key: _settle(c * other) for key, c in self._terms.items()},
                self._top,
            )
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        top = self._top + other._top
        if top > MAX_EXPONENT:
            raise OverflowError(
                f"product exponents may reach {top}, beyond {MAX_EXPONENT}, "
                f"the largest a {FIELD}-bit field holds"
            )
        if len(other._terms) == 1:
            return _shift(self._terms, other._terms, self.arity, top)
        if len(self._terms) == 1:
            return _shift(other._terms, self._terms, self.arity, top)
        terms: dict[int, object] = {}
        get = terms.get
        right = list(other._terms.items())
        for k1, c1 in self._terms.items():
            for k2, c2 in right:
                key = k1 + k2
                terms[key] = get(key, 0) + c1 * c2
        terms = {key: _settle(c) for key, c in terms.items() if c}
        return _poly(self.arity, terms, top)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        require_int("power", n)
        if n < 0:
            raise ValueError("negative powers are not defined")
        result = MultiPoly.constant(self.arity, 1)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return self.arity == other.arity and self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            if not self._terms:
                return other == 0
            return self._terms == {0: other}
        return NotImplemented

    def __hash__(self):
        if self._terms.keys() <= {0}:
            # a constant hashes like the scalar it equals
            return hash(self._terms.get(0, 0))
        return hash((self.arity, frozenset(self._terms.items())))

    def __bool__(self):
        return bool(self._terms)

    def eval(self, point) -> Fraction:
        """Substitute a rational value for every variable."""
        point = tuple(point)
        require_rational("point entry", *point)
        if len(point) != self.arity:
            raise ValueError(
                f"point of length {len(point)} does not match arity {self.arity}"
            )
        total = Fraction(0)
        for key, coeff in self._terms.items():
            value = coeff
            for v, e in zip(point, _unpack(key, self.arity)):
                value *= v**e
            total += value
        return total

    def __str__(self):
        return render(self)

    def __repr__(self):
        return f"MultiPoly({self.arity}, {self})"


EXACT = RATIONAL | {MultiPoly}


class TermView(Mapping):
    """Read-only ``{exponent tuple: Fraction}`` view of a MultiPoly's terms.

    Keys are unpacked on demand, so ``len`` costs nothing and a lookup packs
    one tuple; any key that is not such a tuple is missing.
    """

    __slots__ = ("_poly",)

    def __init__(self, poly: MultiPoly):
        self._poly = poly

    def __len__(self):
        return len(self._poly._terms)

    def __iter__(self):
        arity = self._poly.arity
        return (_unpack(key, arity) for key in self._poly._terms)

    def __getitem__(self, expo):
        if type(expo) is not tuple or len(expo) != self._poly.arity or not all(
            type(e) is int and 0 <= e <= MAX_EXPONENT for e in expo
        ):
            raise KeyError(expo)
        return Fraction(self._poly._terms[_pack(expo)])

    def items(self) -> "_TermItems":
        return _TermItems(self)

    def __repr__(self):
        return repr(dict(self))


class _TermItems(ItemsView):
    """``(exponent tuple, Fraction)`` pairs read off the packed dict in one pass."""

    __slots__ = ()

    def __iter__(self):
        poly = self._mapping._poly
        arity = poly.arity
        for key, coeff in poly._terms.items():
            yield _unpack(key, arity), Fraction(coeff)


def render(p: MultiPoly, names: list[str] | None = None) -> str:
    """Debug text such as ``2*a1^2*b1 - 1/3``; term order is fixed."""
    if names is None:
        names = [f"x{i}" for i in range(p.arity)]
    if len(names) != p.arity:
        raise ValueError("one name per variable is required")
    if not p._terms:
        return "0"
    pieces = []
    for key in sorted(p._terms, reverse=True):
        coeff = p._terms[key]
        factors = [
            names[i] if e == 1 else f"{names[i]}^{e}"
            for i, e in enumerate(_unpack(key, p.arity))
            if e
        ]
        mag = abs(coeff)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        body = "*".join(factors)
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)
