"""Exact arithmetic over the rational function field Q(m) and its quadratic extensions.

Three layers, all immutable with canonical forms so equality is structural:

  * :class:`Poly` -- dense univariate polynomial over rationals in the
    multiplier variable m, with no trailing zero coefficients;
  * :class:`RatFunc` -- quotient of two polynomials, gcd-reduced with a monic
    denominator;
  * :class:`QuadExt` -- an element a(m) + b(m)*s of the quadratic extension
    defined by s^2 = u(m), where the modulus u is itself a rational function.

Coefficients stay ``Fraction`` tuples in the public representation; the
arithmetic that dominates the modular goals runs beneath it on integers, the
way the series kernels do.  A polynomial is read as integer numerators over
one common denominator, and:

  * ``Poly.__mul__`` multiplies the numerator lists and divides by the
    product of the two denominators once per coefficient;
  * :func:`poly_gcd` runs the primitive polynomial remainder sequence over Z
    (Collins, "Subresultants and reduced polynomial remainder sequences",
    JACM 1967): pseudo-remainders, each divided by its content, so no
    Fraction arises until the primitive gcd is made monic;
  * ``RatFunc`` divides the numerator and the denominator by that gcd
    exactly, in integers (a monic gcd clears to a primitive integer
    polynomial, and by Gauss's lemma it divides both there), then makes the
    denominator monic with one Fraction per coefficient.

The canonical forms are the same as the Euclidean algorithm over Q gives,
coefficient for coefficient.  Degrees stay small (32 at most in the modular
goals), so dense lists and quadratic loops are adequate; division with
remainder (``divmod``, ``//``, ``%``) keeps the plain Fraction loop, as
nothing on a hot path calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, repeat
from math import gcd
from operator import add, mul

from .series import _frac, _scaled_ints


class FieldError(Exception):
    """Base class for failures in the polynomial / rational-function tower."""


class DivisionByZeroRatFunc(FieldError):
    """Division by the zero polynomial or zero rational function."""


class ModulusMismatch(FieldError):
    """Combination of quadratic-extension elements over different moduli."""


class ZeroNormInverse(FieldError):
    """Inversion of a quadratic-extension element with zero norm."""


# ----------------------------------------------------------------------
# integer kernels: dense coefficient lists over Z, constant term first, no
# trailing zeros


def _zz_primitive(a: list[int]) -> list[int]:
    """a divided by its content, the gcd of its entries."""
    c = gcd(*a)
    return a if c == 1 else [x // c for x in a]


def _zz_prem(a: list[int], b: list[int]) -> list[int]:
    """A nonzero integer multiple of the remainder of a by b, deg a >= deg b.

    Each step cancels the top entry of the running remainder r with
    r = (lb/h) r - (c/h) m^k b, where lb is b's leading entry, c is r's and
    h = gcd(lb, c): a pseudo-division that keeps the numbers small.
    """
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    for k in range(len(a) - len(b), -1, -1):
        c = r.pop()
        if c:
            h = gcd(lb, c)
            sa, sc = lb // h, c // h
            if sa != 1:
                r = [sa * x for x in r]
            r[k:] = map(add, r[k:], map(mul, repeat(-sc), b[:db]))
    while r and not r[-1]:
        r.pop()
    return r


def _zz_gcd(a: list[int], b: list[int]) -> list[int]:
    """A primitive gcd of two nonzero integer polynomials, up to its sign.

    The primitive polynomial remainder sequence (Collins, JACM 1967): each
    pseudo-remainder is divided by its content before the next step.
    """
    if len(a) < len(b):
        a, b = b, a
    a, b = _zz_primitive(a), _zz_primitive(b)
    while len(b) > 1:
        r = _zz_prem(a, b)
        if not r:
            return b
        a, b = b, _zz_primitive(r)
    return [1]


def _zz_divexact(a: list[int], b: list[int]) -> list[int]:
    """The quotient a / b of integer polynomials when b divides a over Z."""
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    q = [0] * (len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        c = r.pop() // lb
        q[k] = c
        if c:
            r[k:] = map(add, r[k:], map(mul, repeat(-c), b[:db]))
    return q


def _zz_mul(a: list[int], b: list[int]) -> list[int]:
    """Product of two nonzero integer polynomials; rows of a skip its zeros."""
    n = len(b)
    out = [0] * (len(a) + n - 1)
    for i in compress(range(len(a)), a):
        out[i : i + n] = map(add, out[i : i + n], map(mul, repeat(a[i]), b))
    return out


def _fracs(a: list[int], den: int) -> tuple[Fraction, ...]:
    """The coefficients a[i] / den as Fractions."""
    if den == 1:
        return tuple(map(Fraction, a))
    return tuple(Fraction(x, den) for x in a)


@dataclass(frozen=True)
class Poly:
    """Dense polynomial sum(coeffs[i] * m^i) with canonical degree."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        cs = tuple(_frac(c) for c in self.coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    @classmethod
    def _of(cls, coeffs: tuple[Fraction, ...]) -> Poly:
        """Constructor for Fractions already free of trailing zeros."""
        self = object.__new__(cls)
        object.__setattr__(self, "coeffs", coeffs)
        return self

    # ------------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading_coefficient(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def monic(self) -> Poly:
        if self.is_zero:
            return self
        lc = self.coeffs[-1]
        if lc == 1:
            return self
        return Poly(tuple(c / lc for c in self.coeffs))

    # ------------------------------------------------------------------

    @staticmethod
    def _lift(other) -> Poly | None:
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly((_frac(other),))
        return None

    def __add__(self, other) -> Poly:
        rhs = Poly._lift(other)
        if rhs is None:
            return NotImplemented
        n = max(len(self.coeffs), len(rhs.coeffs))
        a = self.coeffs + (Fraction(0),) * (n - len(self.coeffs))
        b = rhs.coeffs + (Fraction(0),) * (n - len(rhs.coeffs))
        return Poly(tuple(x + y for x, y in zip(a, b)))

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> Poly:
        rhs = Poly._lift(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other) -> Poly:
        return (-self) + other

    def __mul__(self, other) -> Poly:
        rhs = Poly._lift(other)
        if rhs is None:
            return NotImplemented
        if self.is_zero or rhs.is_zero:
            return Poly(())
        a, da = _scaled_ints(self.coeffs)
        b, db = _scaled_ints(rhs.coeffs)
        return Poly._of(_fracs(_zz_mul(a, b), da * db))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> Poly:
        if not isinstance(e, int) or e < 0:
            raise ValueError("polynomial power must be a nonnegative integer")
        result = Poly((Fraction(1),))
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __divmod__(self, other: Poly) -> tuple[Poly, Poly]:
        if other.is_zero:
            raise DivisionByZeroRatFunc("polynomial division by zero")
        if self.degree < other.degree:
            return Poly(()), self
        rem = list(self.coeffs)
        dq = self.degree - other.degree
        quot = [Fraction(0)] * (dq + 1)
        blc = other.coeffs[-1]
        for shift in range(dq, -1, -1):
            c = rem[shift + other.degree] / blc
            quot[shift] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[shift + j] -= c * b
        return Poly(tuple(quot)), Poly(tuple(rem[: other.degree]))

    def __floordiv__(self, other: Poly) -> Poly:
        return divmod(self, other)[0]

    def __mod__(self, other: Poly) -> Poly:
        return divmod(self, other)[1]

    def __call__(self, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("m" if c == 1 else ("-m" if c == -1 else f"{c}*m"))
            else:
                parts.append(f"m^{i}" if c == 1 else (f"-m^{i}" if c == -1 else f"{c}*m^{i}"))
        return " + ".join(parts).replace("+ -", "- ")


M = Poly((0, 1))
"""The polynomial variable m."""


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor; gcd(p, 0) is the monic normalization of p.

    Computed on the cleared-denominator integer forms by :func:`_zz_gcd`.
    """
    if a.is_zero or b.is_zero:
        return (b if a.is_zero else a).monic()
    g = _zz_gcd(_scaled_ints(a.coeffs)[0], _scaled_ints(b.coeffs)[0])
    return Poly._of(_fracs(g, g[-1]))


@dataclass(frozen=True)
class RatFunc:
    """Canonical quotient of polynomials: gcd-reduced, monic denominator."""

    num: Poly
    den: Poly

    def __post_init__(self) -> None:
        num, den = self.num, self.den
        if den.is_zero:
            raise DivisionByZeroRatFunc("rational function with zero denominator")
        if num.is_zero:
            num, den = Poly(()), Poly((Fraction(1),))
        else:
            # num = n / dn and den = d / dd with integer n, d; the gcd and
            # both exact quotients by it are taken over Z (Gauss's lemma: the
            # gcd's cleared form is primitive, so it divides n and d there)
            g = poly_gcd(num, den)
            n, dn = _scaled_ints(num.coeffs)
            d, dd = _scaled_ints(den.coeffs)
            if g.degree > 0:
                gz = _scaled_ints(g.coeffs)[0]
                n, d = _zz_divexact(n, gz), _zz_divexact(d, gz)
            lc = d[-1]
            num = Poly._of(tuple(Fraction(x * dd, dn * lc) for x in n))
            den = Poly._of(_fracs(d, lc))
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

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
        return RatFunc(p, Poly((Fraction(1),)))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __add__(self, other) -> RatFunc:
        rhs = RatFunc._lift(other)
        if rhs is None:
            return NotImplemented
        return RatFunc(self.num * rhs.den + rhs.num * self.den, self.den * rhs.den)

    __radd__ = __add__

    def __neg__(self) -> RatFunc:
        return RatFunc(-self.num, self.den)

    def __sub__(self, other) -> RatFunc:
        rhs = RatFunc._lift(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other) -> RatFunc:
        return (-self) + other

    def __mul__(self, other) -> RatFunc:
        rhs = RatFunc._lift(other)
        if rhs is None:
            return NotImplemented
        return RatFunc(self.num * rhs.num, self.den * rhs.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> RatFunc:
        rhs = RatFunc._lift(other)
        if rhs is None:
            return NotImplemented
        if rhs.is_zero:
            raise DivisionByZeroRatFunc("division by the zero rational function")
        return RatFunc(self.num * rhs.den, self.den * rhs.num)

    def __rtruediv__(self, other) -> RatFunc:
        lhs = RatFunc._lift(other)
        if lhs is None:
            return NotImplemented
        return lhs / self

    def __pow__(self, e: int) -> RatFunc:
        if not isinstance(e, int):
            raise ValueError("rational-function power must be an integer")
        if e < 0:
            return (RatFunc._lift(1) / self) ** (-e)
        return RatFunc(self.num**e, self.den**e)

    def __str__(self) -> str:
        if self.den.degree == 0:
            return str(self.num)
        return f"({self.num}) / ({self.den})"


RF_ZERO = RatFunc.of(0)
RF_ONE = RatFunc.of(1)


@dataclass(frozen=True)
class QuadExt:
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

    def _join(self, other) -> QuadExt:
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
        rhs = self._join(other)
        return QuadExt(self.a + rhs.a, self.b + rhs.b, self.u)

    __radd__ = __add__

    def __neg__(self) -> QuadExt:
        return QuadExt(-self.a, -self.b, self.u)

    def __sub__(self, other) -> QuadExt:
        return self + (-self._join(other))

    def __rsub__(self, other) -> QuadExt:
        return (-self) + other

    def __mul__(self, other) -> QuadExt:
        rhs = self._join(other)
        return QuadExt(
            self.a * rhs.a + self.b * rhs.b * self.u,
            self.a * rhs.b + self.b * rhs.a,
            self.u,
        )

    __rmul__ = __mul__

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
        return self * self._join(other).inverse()

    def __rtruediv__(self, other) -> QuadExt:
        return self._join(other) / self

    def __pow__(self, e: int) -> QuadExt:
        if not isinstance(e, int):
            raise ValueError("power must be an integer")
        if e < 0:
            return self.inverse() ** (-e)
        result = QuadExt.scalar(1, self.u)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

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
