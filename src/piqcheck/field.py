"""Exact arithmetic over the rational function field Q(m) and its quadratic extensions.

Three layers, all immutable with canonical forms so equality is structural:

  * :class:`Poly` -- dense univariate polynomial over rationals in the
    multiplier variable m, with no trailing zero coefficients;
  * :class:`RatFunc` -- quotient of two polynomials, gcd-reduced with a monic
    denominator;
  * :class:`QuadExt` -- an element a(m) + b(m)*s of the quadratic extension
    defined by s^2 = u(m), where the modulus u is itself a rational function.

Degrees stay small (below ~40) in every computation performed here, so the
dense representation and plain Euclidean gcd are entirely adequate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class FieldError(Exception):
    """Base class for failures in the polynomial / rational-function tower."""


class DivisionByZeroRatFunc(FieldError):
    """Division by the zero polynomial or zero rational function."""


class ModulusMismatch(FieldError):
    """Combination of quadratic-extension elements over different moduli."""


class ZeroNormInverse(FieldError):
    """Inversion of a quadratic-extension element with zero norm."""


def _frac(x) -> Fraction:
    """Coerce an exact number to Fraction; a float is rejected as inexact."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError(f"float {x!r} is not an exact coefficient; use an int, a Fraction or a str")
    return Fraction(x)


@dataclass(frozen=True)
class Poly:
    """Dense polynomial sum(coeffs[i] * m^i) with canonical degree."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        cs = tuple(_frac(c) for c in self.coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

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
        out = [Fraction(0)] * (len(self.coeffs) + len(rhs.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(rhs.coeffs):
                if b:
                    out[i + j] += a * b
        return Poly(tuple(out))

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
    """Monic greatest common divisor; gcd(p, 0) is the monic normalization of p."""
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


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
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, den = num // g, den // g
            lc = den.leading_coefficient
            if lc != 1:
                num = num * (Fraction(1) / lc)
                den = den.monic()
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
