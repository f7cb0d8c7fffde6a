"""Exact arithmetic over the rational function field Q(m) and its quadratic extensions.

Three layers, all immutable with canonical forms so equality is structural:

  * :class:`Poly` -- dense univariate polynomial over rationals in the
    multiplier variable m, with no trailing zero coefficients;
  * :class:`RatFunc` -- quotient of two polynomials, gcd-reduced with a monic
    denominator;
  * :class:`QuadExt` -- an element a(m) + b(m)*s of the quadratic extension
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
    and the exact division of a ``RatFunc`` by its gcd;
  * :func:`poly_gcd` runs the primitive polynomial remainder sequence over Z
    (Collins, "Subresultants and reduced polynomial remainder sequences",
    JACM 1967): pseudo-remainders, each divided by its content; the monic
    gcd it returns has that primitive gcd as its numerators;
  * ``RatFunc(num, den)`` divides the numerator and the denominator
    numerators by it exactly (by Gauss's lemma the primitive gcd divides
    both over Z), then makes the denominator monic.

The ``RatFunc`` operators keep reduced operands reduced (Henrici, "A
subroutine for computations with rational numbers", JACM 1956; Knuth,
TAOCP vol. 2, 4.5.1), so none of them takes the gcd of an unreduced
result.  For a/b and c/d, each reduced with b and d monic:

  * a product takes g1 = gcd(a, d) and g2 = gcd(c, b), and is
    (a/g1)(c/g2) / ((b/g2)(d/g1));
  * a sum over b = d takes one gcd, of a + c and b.  Otherwise it takes
    g = gcd(b, d); if g = 1 it is (ad + bc) / (bd), with no other gcd,
    else it takes t = a(d/g) + c(b/g) and g2 = gcd(t, g), and is
    (t/g2) / ((b/g)(d/g2));
  * a quotient is a product by the inverse, d/c with c made monic, which
    takes no gcd;
  * a power a^e / b^e, a negation -a / b and a lift p / 1 take none.

A gcd with a constant operand is 1 and is never computed.

The canonical forms are the same as the Euclidean algorithm over Q gives,
coefficient for coefficient.  Degrees stay small (32 at most in the modular
goals), so dense lists and quadratic loops are adequate.  A polynomial is
written by ``series.terms_str`` and its repr by ``series.exact_repr``, as a
series is; rational functions and extension elements print their polynomials.

Each layer writes only what is its own: ``_lift`` (an int, a Fraction or an
element of a lower layer into this one, else None; ``QuadExt`` raises), ``+``,
unary ``-``, ``*``, ``/``, powers and printing.  ``series._Ring``, the base
``LaurentSeries`` shares, derives ``-`` and the reflected ``+ * -`` from
those; its subclass ``_Field`` adds ``c / x`` as ``lift(c) / x`` for
``RatFunc`` and ``QuadExt``.  Powers stay per layer: ``RatFunc`` raises
numerator and denominator apart, so a power takes no gcd, not one per step.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, repeat
from math import gcd, lcm
from operator import add, mul

from .series import _frac, _Frozen, _power, _Ring, _scaled_ints, exact_repr, terms_str


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
    """Product of two nonzero integer polynomials; rows of a skip its zeros."""
    n = len(b)
    out = [0] * (len(a) + n - 1)
    for i in compress(range(len(a)), a):
        out[i : i + n] = map(add, out[i : i + n], map(mul, repeat(a[i]), b))
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
        if len(a) > len(b):
            a, b = b, a
        return Poly._build([*map(add, a, b), *b[len(a) :]], den)

    def __neg__(self) -> Poly:
        return Poly._build([-x for x in self._nums], self._den)

    def __mul__(self, other) -> Poly:
        rhs = Poly._lift(other)
        if rhs is None:
            return NotImplemented
        if self.is_zero or rhs.is_zero:
            return _ZERO
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


def _quo(p: Poly, g: Poly) -> Poly:
    """p divided exactly by g's integer numerators, which divide p's (Gauss's lemma)."""
    return Poly._build(_zz_divmod(p._nums, g._nums)[0], p._den)


def _cancel(a: Poly, b: Poly) -> tuple[Poly | None, Poly, Poly]:
    """(g, a / g, b / g) for g = poly_gcd(a, b), a and b nonzero.

    g is None, and a and b come back as they are, when the gcd is 1 or
    when a or b is a constant, whose gcd with anything is 1 and is not
    computed.  Each quotient is over g's integer numerators, a constant
    multiple of g, so a / g and b / g are off by the same constant and
    their ratio is exact.
    """
    if a.degree < 1 or b.degree < 1:
        return None, a, b
    g = poly_gcd(a, b)
    if not g.degree:
        return None, a, b
    return g, _quo(a, g), _quo(b, g)


def _monic_den(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """num / den with den scaled to be monic; num is scaled by the same constant."""
    # den = d / dd with leading entry lc = d[-1]: num / den = (num dd / lc) / (d / lc)
    lc = den._nums[-1]
    if lc == den._den:
        return num, den
    return Poly._build(_scaled(num._nums, den._den), num._den * lc), Poly._build(den._nums, lc)


class RatFunc(_Field, _Frozen):
    """Canonical quotient of polynomials: gcd-reduced, monic denominator.

    ``RatFunc(num, den)`` and ``RatFunc.of`` reduce any pair.  The operators
    build their results already reduced from reduced operands, taking gcds
    of their operands' parts only (see the module docstring).
    """

    num: Poly
    den: Poly

    def __post_init__(self) -> None:
        num, den = self.num, self.den
        if den.is_zero:
            raise DivisionByZeroRatFunc("rational function with zero denominator")
        if num.is_zero:
            num, den = _ZERO, _ONE
        else:
            num, den = _monic_den(*_cancel(num, den)[1:])
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

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
        if rhs.is_zero:
            return self
        if self.is_zero:
            return rhs
        a, b, c, d = self.num, self.den, rhs.num, rhs.den
        if b == d:
            t = a + c
            return RF_ZERO if t.is_zero else RatFunc._raw(*_monic_den(*_cancel(t, b)[1:]))
        # a/b + c/d = t / ((b/g) d) with t = a (d/g) + c (b/g); t shares with
        # (b/g) d only what it shares with g
        g, b1, d1 = _cancel(b, d)
        t = a * d1 + c * b1
        if g is None:
            return RatFunc._raw(t, b * d)
        h, t, _ = _cancel(t, g)
        return RatFunc._raw(*_monic_den(t, b1 * (d if h is None else _quo(d, h))))

    def __neg__(self) -> RatFunc:
        return RatFunc._raw(-self.num, self.den)

    def __mul__(self, other) -> RatFunc:
        rhs = RatFunc._lift(other)
        if rhs is None:
            return NotImplemented
        if self.is_zero or rhs.is_zero:
            return RF_ZERO
        _, a, d = _cancel(self.num, rhs.den)
        _, c, b = _cancel(rhs.num, self.den)
        return RatFunc._raw(*_monic_den(a * c, b * d))

    def _inverse(self) -> RatFunc:
        """1 / self: numerator and denominator change places, with no gcd."""
        if self.is_zero:
            raise DivisionByZeroRatFunc("division by the zero rational function")
        return RatFunc._raw(*_monic_den(self.den, self.num))

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

RF_ZERO = RatFunc.of(0)
RF_ONE = RatFunc.of(1)


class QuadExt(_Field, _Frozen):
    """Element a + b*s of the quadratic extension with s^2 = u.

    Elements over different moduli cannot be combined; the product rule
    (a + b*s)(c + d*s) = (ac + bd*u) + (ad + bc)*s rewrites s^2 to u at every
    multiplication, and both components stay in canonical rational form.
    """

    a: RatFunc
    b: RatFunc
    u: RatFunc

    # ------------------------------------------------------------------

    @staticmethod
    def scalar(value, u: RatFunc) -> QuadExt:
        r = RatFunc._lift(value)
        if r is None:
            raise TypeError("scalar part must be RatFunc, Poly, int or Fraction")
        return QuadExt(r, RF_ZERO, u)

    @staticmethod
    def root(u: RatFunc) -> QuadExt:
        """The adjoined square root s itself."""
        return QuadExt(RF_ZERO, RF_ONE, u)

    @property
    def is_rational(self) -> bool:
        return self.b.is_zero

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
        return QuadExt(r, RF_ZERO, self.u)

    def __add__(self, other) -> QuadExt:
        rhs = self._lift(other)
        return QuadExt(self.a + rhs.a, self.b + rhs.b, self.u)

    def __neg__(self) -> QuadExt:
        return QuadExt(-self.a, -self.b, self.u)

    def __mul__(self, other) -> QuadExt:
        rhs = self._lift(other)
        return QuadExt(
            self.a * rhs.a + self.b * rhs.b * self.u,
            self.a * rhs.b + self.b * rhs.a,
            self.u,
        )

    def conjugate(self) -> QuadExt:
        return QuadExt(self.a, -self.b, self.u)

    def norm(self) -> RatFunc:
        """a^2 - b^2 * u, the product with the conjugate."""
        return self.a * self.a - self.b * self.b * self.u

    def inverse(self) -> QuadExt:
        n = self.norm()
        if n.is_zero:
            raise ZeroNormInverse("element has zero norm and no inverse")
        return QuadExt(self.a / n, -self.b / n, self.u)

    def __truediv__(self, other) -> QuadExt:
        return self * self._lift(other).inverse()

    def __pow__(self, e: int) -> QuadExt:
        if not isinstance(e, int):
            raise ValueError("power must be an integer")
        if e < 0:
            return self.inverse() ** (-e)
        return _power(self, e) if e else QuadExt.scalar(1, self.u)

    def __str__(self) -> str:
        if self.b.is_zero:
            return str(self.a)
        if self.a.is_zero:
            return f"({self.b}) * s"
        return f"({self.a}) + ({self.b}) * s"


def quadext_equal(x: QuadExt, y: QuadExt) -> bool:
    """Exact equality of two extension elements; moduli must match."""
    if x.u != y.u:
        raise ModulusMismatch(f"cannot compare extensions with moduli {x.u} and {y.u}")
    return x.a == y.a and x.b == y.b
