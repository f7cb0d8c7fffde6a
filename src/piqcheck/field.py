"""Exact arithmetic over the rational function field Q(m) and its quadratic extensions.

Three layers, all immutable with canonical forms so equality is structural:

  * :class:`Poly` -- dense univariate polynomial over rationals in the
    multiplier variable m, with no trailing zero coefficients;
  * :class:`RatFunc` -- quotient of two polynomials, gcd-reduced with a monic
    denominator;
  * :class:`QuadExt` -- an element (A + B*s) / D of the quadratic extension
    defined by s^2 = u(m), where the modulus u is itself a rational function.

A polynomial is stored once, in one canonical integer form, the way a
Laurent series is: integer numerators with no trailing zeros over one
positive denominator coprime to their content.  ``coeffs`` is a Fraction
view built when it is read.  The form is unique, so equality and hashing
compare the stored integers, and the kernels read them directly:

  * ``Poly.__mul__`` multiplies the numerator lists over the product of the
    two denominators;
  * one exact division kernel over Z serves ``divmod`` (on the dividend
    scaled by lb^(deg a - deg b + 1), lb the divisor's leading entry, so
    every step divides exactly), the pseudo-remainders of :func:`poly_gcd`
    and the one reduction below;
  * :func:`poly_gcd` runs the primitive polynomial remainder sequence over Z
    (Collins, "Subresultants and reduced polynomial remainder sequences",
    JACM 1967): pseudo-remainders, each divided by its content; the monic
    gcd it returns has that primitive gcd as its numerators.

Rational functions and extension elements share one reduction,
:func:`_reduced`: integer polynomial parts are divided exactly by their
primitive gcd (by Gauss's lemma it divides each over Z; no chain when a part
is constant), then by their integer content, and the last part's lead is
made positive.  ``RatFunc(num, den)`` reduces N / D, N and D the integer
parts of num / den, and stores N and D over D's lead, so the denominator is
monic.  Its ``+``, ``*`` and inverse are the plain formulas (ad + cb) / (bd),
(ac) / (bd) and b / a, each reduced once; a power a^e / b^e, a negation
-a / b and a lift p / 1 are reduced already.

An extension element is stored on one common denominator: A, B and D are
integer polynomials in the kernels' list form that share no polynomial
factor, whose integer content together is 1, and D has a positive lead.
That form of a = A / D and b = B / D is unique, so ``==``, ``hash`` and
:func:`quadext_equal` compare the stored parts; ``a`` and ``b`` are reduced
``RatFunc``s built when read.  Each operator forms its result on the kernels
and reduces it once, with :func:`_reduced`.  With u = U / V:

  * a product is ((A1 A2 V + B1 B2 U) + (A1 B2 + A2 B1) V s) / (D1 D2 V); a
    square takes three products, not four, and an operand with B = 0 skips
    the U and V terms;
  * a sum over equal D is one addition;
  * the inverse is D V (A - B s) / (A^2 V - B^2 U), which for B = 0 is D / A
    and needs no gcd, as negation and conjugation need none.

The canonical forms are the same as the Euclidean algorithm over Q gives,
coefficient for coefficient.  Degrees stay small (32 at most in the modular
goals), so dense lists and quadratic loops are adequate.  A polynomial is
written by ``exact.terms_str`` and its repr by ``exact.exact_repr``, as a
series is; rational functions and extension elements print their polynomials.

Each layer writes only what is its own: ``_lift`` (into this layer, else
None; ``QuadExt`` raises), ``+``, unary ``-``, ``*``, ``/``, powers and
printing; ``exact._Ring`` derives ``-`` and the reflected ``+ * -``, and its
subclass ``_Field`` adds ``c / x`` as ``lift(c) / x``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, compress, repeat
from math import gcd, lcm
from operator import add, mul

from .exact import _frac, _Frozen, _power, _Ring, _scaled_ints, exact_repr, terms_str


class FieldError(ValueError):
    """Base class for failures in the polynomial / rational-function tower.

    A ValueError, so that callers, the CLI among them, handle it with the
    other bad-argument failures without importing this module.
    """


class DivisionByZeroRatFunc(FieldError):
    """Division by the zero polynomial or zero rational function."""


class ModulusMismatch(FieldError):
    """Combination of quadratic-extension elements over different moduli."""


class ZeroNormInverse(FieldError):
    """Inversion of a quadratic-extension element with zero norm."""


# ----------------------------------------------------------------------
# integer kernels: dense coefficient lists over Z, constant term first, no
# trailing zeros


def _scaled(a, c: int):
    """The entries of a times the integer c."""
    return a if c == 1 else [c * x for x in a]


def _zz_primitive(a: list[int]) -> list[int]:
    """a divided by its content, the gcd of its entries."""
    c = gcd(*a)
    return a if c == 1 else [x // c for x in a]


def _zz_divmod(a, b) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b over Z, when every step divides exactly.

    That holds when b divides a, and when a was scaled by lb^(deg a - deg b + 1)
    for b's leading entry lb (then the remainder is the pseudo-remainder).
    """
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    q = [0] * (len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        c = r.pop() // lb
        q[k] = c
        if c:
            r[k:] = map(add, r[k:], map(mul, repeat(-c), b[:db]))
    while r and not r[-1]:
        r.pop()
    return q, r


def _zz_gcd(a: list[int], b: list[int]) -> list[int]:
    """A primitive gcd of two nonzero integer polynomials, up to its sign.

    The primitive polynomial remainder sequence (Collins, JACM 1967): each
    pseudo-remainder is divided by its content before the next step.
    """
    if len(a) < len(b):
        a, b = b, a
    a, b = _zz_primitive(a), _zz_primitive(b)
    while len(b) > 1:
        r = _zz_divmod(_scaled(a, b[-1] ** (len(a) - len(b) + 1)), b)[1]
        if not r:
            return b
        a, b = b, _zz_primitive(r)
    return [1]


def _zz_mul(a, b) -> list[int]:
    """Product of two integer polynomials; rows of a skip its zeros."""
    if len(b) == 1:
        return _scaled(a, b[0])
    if not a or not b:
        return []
    n = len(b)
    out = [0] * (len(a) + n - 1)
    for i in compress(range(len(a)), a):
        out[i : i + n] = map(add, out[i : i + n], map(mul, repeat(a[i]), b))
    return out


def _zz_add(a, b) -> list[int]:
    """Sum of two integer polynomials."""
    if len(a) < len(b):
        a, b = b, a
    out = [*map(add, a, b), *a[len(b) :]]
    while out and not out[-1]:
        out.pop()
    return out


class _Field(_Ring):
    """``c / x`` as ``lift(c) / x``, for the layers that have ``/``."""

    __slots__ = ()

    def __rtruediv__(self, other):
        lhs = self._lift(other)
        if lhs is None:
            return NotImplemented
        return lhs / self


class Poly(_Ring, _Frozen):
    """Dense polynomial sum(coeffs[i] * m^i), stored as _nums[i] / _den.

    ``Poly(coeffs)`` accepts ints, Fractions and anything else ``Fraction``
    parses exactly, and rejects floats with ``TypeError``.
    """

    _nums: tuple[int, ...]
    _den: int

    def __init__(self, coeffs) -> None:
        self._set(*_scaled_ints(tuple(map(_frac, coeffs))))

    def _set(self, nums, den: int) -> None:
        """Store nums / den in canonical form; den is a nonzero int."""
        nums = list(nums)
        while nums and not nums[-1]:
            nums.pop()
        c = gcd(den, *nums)  # |den| when nums is empty, so zero gets den 1
        if den < 0:
            c = -c
        if c != 1:
            nums, den = [x // c for x in nums], den // c
        object.__setattr__(self, "_nums", tuple(nums))
        object.__setattr__(self, "_den", den)

    @classmethod
    def _build(cls, nums, den: int) -> Poly:
        """The polynomial with coefficients nums[i] / den, in canonical form."""
        self = object.__new__(cls)
        self._set(nums, den)
        return self

    def __repr__(self) -> str:
        return f"Poly(coeffs={exact_repr(self.coeffs)})"

    # ------------------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, constant term first (built on each read)."""
        if self._den == 1:
            return tuple(map(Fraction, self._nums))
        return tuple(Fraction(x, self._den) for x in self._nums)

    @property
    def is_zero(self) -> bool:
        return not self._nums

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._nums) - 1

    @property
    def leading_coefficient(self) -> Fraction:
        return Fraction(self._nums[-1], self._den) if self._nums else Fraction(0)

    def monic(self) -> Poly:
        if self.is_zero or self._nums[-1] == self._den:
            return self
        return Poly._build(self._nums, self._nums[-1])

    # ------------------------------------------------------------------

    @staticmethod
    def _lift(other) -> Poly | None:
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly._build((other.numerator,), other.denominator)
        return None

    def __add__(self, other) -> Poly:
        rhs = Poly._lift(other)
        if rhs is None:
            return NotImplemented
        den = lcm(self._den, rhs._den)
        a, b = _scaled(self._nums, den // self._den), _scaled(rhs._nums, den // rhs._den)
        return Poly._build(_zz_add(a, b), den)

    def __neg__(self) -> Poly:
        return Poly._build([-x for x in self._nums], self._den)

    def __mul__(self, other) -> Poly:
        rhs = Poly._lift(other)
        if rhs is None:
            return NotImplemented
        return Poly._build(_zz_mul(self._nums, rhs._nums), self._den * rhs._den)

    def __pow__(self, e: int) -> Poly:
        if not isinstance(e, int) or e < 0:
            raise ValueError("polynomial power must be a nonnegative integer")
        return _power(self, e) if e else _ONE

    def __divmod__(self, other: Poly) -> tuple[Poly, Poly]:
        if other.is_zero:
            raise DivisionByZeroRatFunc("polynomial division by zero")
        if self.degree < other.degree:
            return _ZERO, self
        # lb^k a = q b + r over Z, with k = deg a - deg b + 1; then
        # (a/da) = (q db / (lb^k da)) (b/db) + r / (lb^k da)
        scale = other._nums[-1] ** (self.degree - other.degree + 1)
        q, r = _zz_divmod(_scaled(self._nums, scale), other._nums)
        den = scale * self._den
        return Poly._build(_scaled(q, other._den), den), Poly._build(r, den)

    def __str__(self) -> str:
        cs = self.coeffs
        terms = [(cs[i], "m" if i == 1 else f"m^{i}" if i else "") for i in reversed(range(len(cs)))]
        return terms_str(t for t in terms if t[0]) or "0"


_ZERO = Poly(())
_ONE = Poly((1,))
M = Poly((0, 1))
"""The polynomial variable m."""


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor; gcd(p, 0) is the monic normalization of p.

    Computed on the integer numerators by :func:`_zz_gcd`; the result's
    numerators are that primitive gcd, with a positive leading entry.
    """
    if a.is_zero or b.is_zero:
        return (b if a.is_zero else a).monic()
    g = _zz_gcd(a._nums, b._nums)
    return Poly._build(g, g[-1])


def _common_factor(parts) -> list[int] | None:
    """The primitive gcd of nonzero integer polynomials, shortest first; None if constant."""
    if min(map(len, parts)) == 1:
        return None
    g, *rest = sorted(parts, key=len)
    for p in rest:
        g = poly_gcd(Poly._build(g, 1), Poly._build(p, 1))._nums
        if len(g) == 1:
            return None
    return g


def _reduced(parts, coprime: bool = False) -> list:
    """Integer polynomials over their common factor and content, the last with a positive lead.

    The last part is nonzero, and is 1 when the others are all zero.  The
    common factor is one :func:`poly_gcd` chain, skipped if ``coprime``.
    """
    if not any(parts[:-1]):
        return [*parts[:-1], (1,)]
    if not coprime and (g := _common_factor([p for p in parts if p])):
        parts = [_zz_divmod(p, g)[0] for p in parts]
    c = gcd(*chain.from_iterable(parts))
    if parts[-1][-1] < 0:
        c = -c
    return parts if c == 1 else [[x // c for x in p] for p in parts]


def _zz_parts(r) -> tuple[list[int], list[int]]:
    """Integer polynomials N and D with N / D = r.num / r.den."""
    num, den = r.num, r.den
    return _scaled(num._nums, den._den), _scaled(den._nums, num._den)


class RatFunc(_Field, _Frozen):
    """Canonical quotient of polynomials: gcd-reduced, monic denominator.

    ``RatFunc(num, den)`` reduces any pair, on integer parts, with the
    extension elements' :func:`_reduced`.  ``+``, ``*`` and the inverse are
    the plain formulas, reduced by that constructor; negation, powers and
    lifts are reduced already.
    """

    num: Poly
    den: Poly

    def __post_init__(self) -> None:
        if self.den.is_zero:
            raise DivisionByZeroRatFunc("rational function with zero denominator")
        num, den = _reduced(_zz_parts(self))
        object.__setattr__(self, "num", Poly._build(num, den[-1]))
        object.__setattr__(self, "den", Poly._build(den, den[-1]))

    @classmethod
    def _raw(cls, num: Poly, den: Poly) -> RatFunc:
        """A rational function from parts that are already in canonical form."""
        self = object.__new__(cls)
        vars(self).update(num=num, den=den)
        return self

    # ------------------------------------------------------------------

    @staticmethod
    def of(num, den=1) -> RatFunc:
        n = Poly._lift(num)
        d = Poly._lift(den)
        if n is None or d is None:
            raise TypeError("RatFunc.of expects Poly, int or Fraction arguments")
        return RatFunc(n, d)

    @staticmethod
    def _lift(other) -> RatFunc | None:
        if isinstance(other, RatFunc):
            return other
        p = Poly._lift(other)
        if p is None:
            return None
        return RatFunc._raw(p, _ONE)

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __add__(self, other) -> RatFunc:
        rhs = RatFunc._lift(other)
        if rhs is None:
            return NotImplemented
        a, b, c, d = self.num, self.den, rhs.num, rhs.den
        return RatFunc(a * d + c * b, b * d)

    def __neg__(self) -> RatFunc:
        return RatFunc._raw(-self.num, self.den)

    def __mul__(self, other) -> RatFunc:
        rhs = RatFunc._lift(other)
        if rhs is None:
            return NotImplemented
        return RatFunc(self.num * rhs.num, self.den * rhs.den)

    def _inverse(self) -> RatFunc:
        """1 / self."""
        if self.is_zero:
            raise DivisionByZeroRatFunc("division by the zero rational function")
        return RatFunc(self.den, self.num)

    def __truediv__(self, other) -> RatFunc:
        rhs = RatFunc._lift(other)
        if rhs is None:
            return NotImplemented
        return self * rhs._inverse()

    def __pow__(self, e: int) -> RatFunc:
        if not isinstance(e, int):
            raise ValueError("rational-function power must be an integer")
        if e < 0:
            return self._inverse() ** (-e)
        return RatFunc._raw(self.num**e, self.den**e)

    def __str__(self) -> str:
        if self.den.degree == 0:
            return str(self.num)
        return f"({self.num}) / ({self.den})"


class QuadExt(_Field, _Frozen):
    """Element (A + B*s) / D of the quadratic extension with s^2 = u.

    A, B and D are stored as ``_num``, ``_rad`` and ``_den`` in the canonical
    form of the module docstring.  Elements over different moduli cannot be
    combined.
    """

    _num: tuple[int, ...]
    _rad: tuple[int, ...]
    _den: tuple[int, ...]
    u: RatFunc

    def __init__(self, a: RatFunc, b: RatFunc, u: RatFunc) -> None:
        (na, da), (nb, db) = _zz_parts(a), _zz_parts(b)
        self._set(_zz_mul(na, db), _zz_mul(nb, da), _zz_mul(da, db), u)

    def _set(self, a, b, d, u: RatFunc, coprime: bool = False) -> None:
        """Store (a + b*s) / d, d != 0, reduced by :func:`_reduced`."""
        a, b, d = _reduced((a, b, d), coprime)
        vars(self).update(_num=tuple(a), _rad=tuple(b), _den=tuple(d), u=u)

    @classmethod
    def _build(cls, a, b, d, u: RatFunc, coprime: bool = False) -> QuadExt:
        """The element (a + b*s) / d over s^2 = u, in canonical form."""
        self = object.__new__(cls)
        self._set(a, b, d, u, coprime)
        return self

    def __repr__(self) -> str:
        return f"QuadExt(a={self.a!r}, b={self.b!r}, u={self.u!r})"

    # ------------------------------------------------------------------

    @staticmethod
    def scalar(value, u: RatFunc) -> QuadExt:
        r = RatFunc._lift(value)
        if r is None:
            raise TypeError("scalar part must be RatFunc, Poly, int or Fraction")
        num, den = _zz_parts(r)
        return QuadExt._build(num, (), den, u, coprime=True)

    @staticmethod
    def root(u: RatFunc) -> QuadExt:
        """The adjoined square root s itself."""
        return QuadExt._build((), (1,), (1,), u, coprime=True)

    @property
    def a(self) -> RatFunc:
        """The rational part A / D, reduced (built on each read)."""
        return RatFunc(Poly._build(self._num, 1), Poly._build(self._den, 1))

    @property
    def b(self) -> RatFunc:
        """The coefficient B / D of s, reduced (built on each read)."""
        return RatFunc(Poly._build(self._rad, 1), Poly._build(self._den, 1))

    @property
    def is_rational(self) -> bool:
        return not self._rad

    def _lift(self, other) -> QuadExt:
        if isinstance(other, QuadExt):
            if other.u != self.u:
                raise ModulusMismatch(
                    f"cannot combine extensions with moduli {self.u} and {other.u}"
                )
            return other
        r = RatFunc._lift(other)
        if r is None:
            raise TypeError(f"cannot combine QuadExt with {type(other).__name__}")
        return QuadExt.scalar(r, self.u)

    def __add__(self, other) -> QuadExt:
        rhs = self._lift(other)
        a, b, d = self._num, self._rad, self._den
        c, e, f = rhs._num, rhs._rad, rhs._den
        if d != f:
            a, b, c, e, d = _zz_mul(a, f), _zz_mul(b, f), _zz_mul(c, d), _zz_mul(e, d), _zz_mul(d, f)
        return QuadExt._build(_zz_add(a, c), _zz_add(b, e), d, self.u)

    def __neg__(self) -> QuadExt:
        num, rad = _scaled(self._num, -1), _scaled(self._rad, -1)
        return QuadExt._build(num, rad, self._den, self.u, coprime=True)

    def __mul__(self, other) -> QuadExt:
        rhs = self._lift(other)
        a, b, d = self._num, self._rad, self._den
        c, e, f = rhs._num, rhs._rad, rhs._den
        # over d f V: (ac V + be U) + (ae + bc) V s, where V = 1 and be = 0 when b or e is
        nu, nv = _zz_parts(self.u) if b and e else ((), (1,))
        if rhs is self:
            ac, be, ae = _zz_mul(a, a), _zz_mul(b, b), _zz_mul(_scaled(a, 2), b)
        else:
            ac, be, ae = _zz_mul(a, c), _zz_mul(b, e), _zz_add(_zz_mul(a, e), _zz_mul(b, c))
        num, rad = _zz_add(_zz_mul(ac, nv), _zz_mul(be, nu)), _zz_mul(ae, nv)
        return QuadExt._build(num, rad, _zz_mul(_zz_mul(d, f), nv), self.u)

    def conjugate(self) -> QuadExt:
        return QuadExt._build(self._num, _scaled(self._rad, -1), self._den, self.u, coprime=True)

    def norm(self) -> RatFunc:
        """a^2 - b^2 * u, the product with the conjugate."""
        return (self * self.conjugate()).a

    def inverse(self) -> QuadExt:
        """D V (A - B s) / (A^2 V - B^2 U); for B = 0, D / A, already coprime."""
        a, b, d = self._num, self._rad, self._den
        nu, nv = _zz_parts(self.u)
        n = _zz_add(_zz_mul(_zz_mul(a, a), nv), _scaled(_zz_mul(_zz_mul(b, b), nu), -1)) if b else a
        if not n:
            raise ZeroNormInverse("element has zero norm and no inverse")
        if not b:
            return QuadExt._build(d, (), a, self.u, coprime=True)
        dv = _zz_mul(d, nv)
        return QuadExt._build(_zz_mul(dv, a), _scaled(_zz_mul(dv, b), -1), n, self.u)

    def __truediv__(self, other) -> QuadExt:
        return self * self._lift(other).inverse()

    def __pow__(self, e: int) -> QuadExt:
        if not isinstance(e, int):
            raise ValueError("power must be an integer")
        if e < 0:
            return self.inverse() ** (-e)
        return _power(self, e) if e else QuadExt.scalar(1, self.u)

    def __str__(self) -> str:
        if not self._rad:
            return str(self.a)
        if not self._num:
            return f"({self.b}) * s"
        return f"({self.a}) + ({self.b}) * s"


def quadext_equal(x: QuadExt, y: QuadExt) -> bool:
    """Exact equality of two extension elements; moduli must match."""
    if x.u != y.u:
        raise ModulusMismatch(f"cannot compare extensions with moduli {x.u} and {y.u}")
    return x == y
