"""Exact arithmetic over the rational function field Q(m) and its quadratic extensions.

Three layers, all immutable with canonical forms so equality is structural:

  * :class:`Poly` -- dense univariate polynomial over rationals in the
    multiplier variable m, with no trailing zero coefficients;
  * :class:`RatFunc` -- quotient of two polynomials, reduced, monic denominator;
  * :class:`QuadExt` -- an element (A + B*s) / D of the quadratic extension
    defined by s^2 = u(m), where the modulus u is itself a rational function.

A polynomial is stored once, in one canonical integer form, the way a
Laurent series is: integer numerators with no trailing zeros over one
positive denominator coprime to their content.  ``Poly._build`` makes it,
for the constructor and for each result.  ``coeffs`` is a Fraction view
built when it is read.  The form is unique, so equality and hashing
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

Rational functions and extension elements have one stored form,
(A + B*s) / D with B = 0 for a rational function: integer polynomials that
share no polynomial factor, whose content together is 1, and D's lead is
positive.  It is unique, so ``==``, ``hash`` and :func:`quadext_equal`
compare the stored parts; ``num`` and ``den`` (over D's lead, so the
denominator is monic), ``a`` and ``b`` are built when read.
:func:`_reduced` makes the form: it divides the parts exactly by their
primitive gcd (by Gauss's lemma it divides each over Z; no chain when a
part is constant), then by their content, and makes D's lead positive.
The constructors store what it returns; a result of the arithmetic is
built from it by ``_Frozen._of``, which runs no ``__init__``.

One arithmetic, in the private base of both classes, forms each result on
the kernels and reduces it once.  With u = U / V:

  * a product is ((A1 A2 V + B1 B2 U) + (A1 B2 + A2 B1) V s) / (D1 D2 V); a
    square takes three products, not four, and an operand with B = 0 skips
    the U and V terms, so a rational function never reads a modulus;
  * a sum over equal D is one addition;
  * the inverse is D V (A - B s) / (A^2 V - B^2 U), which for B = 0 is D / A
    and needs no gcd, as negation, conjugation, a lift and a power
    A^e / D^e of a B = 0 value need none.

The canonical forms are the same as the Euclidean algorithm over Q gives,
coefficient for coefficient.  Degrees stay small (32 at most in the modular
goals), so dense lists and quadratic loops are adequate.  A polynomial is
written by ``exact.terms_str`` and its repr by ``exact.exact_repr``, as a
series is; rational functions and extension elements print their polynomials.

``Poly`` and the base write ``_lift`` (into the layer, else None; ``QuadExt``
raises), ``+``, unary ``-``, ``*``, powers and printing, the base also ``/``
and ``c / x``; ``exact._Ring`` derives ``-`` and the reflected ``+ * -``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, compress, repeat
from math import gcd, lcm
from operator import add, mul

from .exact import _check_int, _frac, _Frozen, _power, _Ring, _scaled_ints, exact_repr, terms_str


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


class Poly(_Ring, _Frozen):
    """Dense polynomial sum(coeffs[i] * m^i), stored as _nums[i] / _den.

    ``Poly(coeffs)`` accepts ints, Fractions and anything else ``Fraction``
    parses exactly, and rejects floats with ``TypeError``.
    """

    _nums: tuple[int, ...]
    _den: int

    def __init__(self, coeffs) -> None:
        self._fill(self._values(Poly._build(*_scaled_ints(tuple(map(_frac, coeffs))))))

    @classmethod
    def _build(cls, nums, den: int) -> Poly:
        """The polynomial with coefficients nums[i] / den, in canonical form; den is a nonzero int."""
        nums = list(nums)
        while nums and not nums[-1]:
            nums.pop()
        c = gcd(den, *nums)  # |den| when nums is empty, so zero gets den 1
        if den < 0:
            c = -c
        if c != 1:
            nums, den = [x // c for x in nums], den // c
        return cls._of(tuple(nums), den)

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
        _check_int(e, "power")
        if e < 0:
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


def _reduced(parts, coprime: bool = False) -> tuple[tuple[int, ...], ...]:
    """The stored form of integer polynomials: tuples over their common factor
    and content, the last with a positive lead.

    The last part is nonzero, and is 1 when the others are all zero.  The
    common factor is one :func:`poly_gcd` chain, skipped if ``coprime``.
    """
    if not any(parts[:-1]):
        return ((),) * (len(parts) - 1) + ((1,),)
    if not coprime and (g := _common_factor([p for p in parts if p])):
        parts = [_zz_divmod(p, g)[0] for p in parts]
    c = gcd(*chain.from_iterable(parts))
    if parts[-1][-1] < 0:
        c = -c
    return tuple(map(tuple, parts if c == 1 else ([x // c for x in p] for p in parts)))


def _parts(x, name: str = "") -> tuple | None:
    """Integer polynomials N and D with N / D = x, in the stored form below.

    x is a RatFunc, Poly, int or Fraction; anything else gives None, or a
    TypeError that names the argument when ``name`` is given.
    """
    if isinstance(x, RatFunc):
        return x._num, x._den
    p = Poly._lift(x)
    if p is not None:
        return p._nums, (p._den,)
    if name:
        raise TypeError(f"{name} must be a RatFunc, Poly, int or Fraction, not {type(x).__name__}")
    return None


class _Quotient(_Ring, _Frozen):
    """The stored form (A + B*s) / D and the one arithmetic of RatFunc and QuadExt.

    Each result is built by :meth:`_new`, in the operand's class and modulus.
    """

    _num: tuple[int, ...]
    _rad: tuple[int, ...]
    _den: tuple[int, ...]

    def _new(self, a, b, d, coprime: bool = False):
        """(a + b*s) / d, d != 0, reduced, of self's class and modulus."""
        # the fields after the stored form, QuadExt's modulus, are self's
        return self._of(*_reduced((a, b, d), coprime), *self._values(self)[3:])

    def _lift(self, other):
        """other in self's class and modulus; None unless it is one or a rational value."""
        if type(other) is type(self):
            return other
        parts = _parts(other)
        return None if parts is None else self._new(parts[0], (), parts[1], coprime=True)

    def __add__(self, other):
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        a, b, d = self._num, self._rad, self._den
        c, e, f = rhs._num, rhs._rad, rhs._den
        if d != f:
            a, b, c, e, d = _zz_mul(a, f), _zz_mul(b, f), _zz_mul(c, d), _zz_mul(e, d), _zz_mul(d, f)
        return self._new(_zz_add(a, c), _zz_add(b, e), d)

    def __neg__(self):
        return self._new(_scaled(self._num, -1), _scaled(self._rad, -1), self._den, coprime=True)

    def __mul__(self, other):
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        a, b, d = self._num, self._rad, self._den
        c, e, f = rhs._num, rhs._rad, rhs._den
        # over d f V: (ac V + be U) + (ae + bc) V s, where V = 1 and be = 0 when b or e is
        nu, nv = (self.u._num, self.u._den) if b and e else ((), (1,))
        if rhs is self:
            ac, be, ae = _zz_mul(a, a), _zz_mul(b, b), _zz_mul(_scaled(a, 2), b)
        else:
            ac, be, ae = _zz_mul(a, c), _zz_mul(b, e), _zz_add(_zz_mul(a, e), _zz_mul(b, c))
        num, rad = _zz_add(_zz_mul(ac, nv), _zz_mul(be, nu)), _zz_mul(ae, nv)
        return self._new(num, rad, _zz_mul(_zz_mul(d, f), nv))

    def inverse(self):
        """D V (A - B s) / (A^2 V - B^2 U); for B = 0, D / A, already coprime."""
        a, b, d = self._num, self._rad, self._den
        nu, nv = (self.u._num, self.u._den) if b else ((), (1,))
        n = _zz_add(_zz_mul(_zz_mul(a, a), nv), _scaled(_zz_mul(_zz_mul(b, b), nu), -1)) if b else a
        if not n:
            error, text = self._no_inverse
            raise error(text)
        if not b:
            return self._new(d, (), a, coprime=True)
        dv = _zz_mul(d, nv)
        return self._new(_zz_mul(dv, a), _scaled(_zz_mul(dv, b), -1), n)

    def __truediv__(self, other):
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        return self * rhs.inverse()

    def __rtruediv__(self, other):
        lhs = self._lift(other)
        if lhs is None:
            return NotImplemented
        return lhs / self

    def __pow__(self, e: int):
        _check_int(e, "power")
        if e < 0:
            return self.inverse() ** (-e)
        if self._rad and e:
            return _power(self, e)
        # A^e / D^e, coprime as A and D are; for B != 0 this is e = 0, so 1
        a, d = (Poly._build(p, 1) ** e for p in (self._num, self._den))
        return self._new(a._nums, (), d._nums, coprime=True)


class RatFunc(_Quotient):
    """Canonical quotient of polynomials: the B = 0 case of the stored form.

    ``RatFunc(num, den=1)``, also spelled ``RatFunc.of``, reduces num / den,
    each a RatFunc, Poly, int or Fraction.
    """

    _no_inverse = DivisionByZeroRatFunc, "division by the zero rational function"

    def __init__(self, num, den=1) -> None:
        (a, b), (c, d) = _parts(num, "RatFunc() argument 'num'"), _parts(den, "RatFunc() argument 'den'")
        if not c:
            raise DivisionByZeroRatFunc("rational function with zero denominator")
        self._fill(_reduced((_zz_mul(a, d), (), _zz_mul(b, c))))

    def __repr__(self) -> str:
        return f"RatFunc(num={self.num!r}, den={self.den!r})"

    @property
    def num(self) -> Poly:
        """The numerator, over the denominator's lead (built on each read)."""
        return Poly._build(self._num, self._den[-1])

    @property
    def den(self) -> Poly:
        """The monic denominator (built on each read)."""
        return Poly._build(self._den, self._den[-1])

    @property
    def is_zero(self) -> bool:
        return not self._num

    def __str__(self) -> str:
        if len(self._den) == 1:
            return str(self.num)
        return f"({self.num}) / ({self.den})"


RatFunc.of = RatFunc


class QuadExt(_Quotient):
    """Element (A + B*s) / D of the quadratic extension with s^2 = u.

    ``QuadExt(a, b, u)`` lifts a, b and u as ``RatFunc`` lifts its
    arguments.  Elements over different moduli cannot be combined.
    """

    u: RatFunc
    _no_inverse = ZeroNormInverse, "element has zero norm and no inverse"

    def __init__(self, a, b, u) -> None:
        (na, da), (nb, db), _ = (_parts(x, f"QuadExt() argument {n!r}") for x, n in zip((a, b, u), "abu"))
        # coprime when a or b is zero: the parts are then the other's reduced form
        parts = _reduced((_zz_mul(na, db), _zz_mul(nb, da), _zz_mul(da, db)), not (na and nb))
        self._fill((*parts, u if isinstance(u, RatFunc) else RatFunc(u)))

    def __repr__(self) -> str:
        return f"QuadExt(a={self.a!r}, b={self.b!r}, u={self.u!r})"

    @staticmethod
    def scalar(value, u) -> QuadExt:
        """``QuadExt(value, 0, u)``."""
        return QuadExt(value, 0, u)

    @staticmethod
    def root(u) -> QuadExt:
        """The adjoined square root s itself."""
        return QuadExt(0, 1, u)

    @property
    def a(self) -> RatFunc:
        """The rational part A / D, reduced (built on each read by u, a RatFunc)."""
        return self.u._new(self._num, (), self._den)

    @property
    def b(self) -> RatFunc:
        """The coefficient B / D of s, reduced (built on each read by u, a RatFunc)."""
        return self.u._new(self._rad, (), self._den)

    @property
    def is_rational(self) -> bool:
        return not self._rad

    def _lift(self, other) -> QuadExt:
        if isinstance(other, QuadExt) and other.u != self.u:
            raise ModulusMismatch(f"cannot combine extensions with moduli {self.u} and {other.u}")
        rhs = super()._lift(other)
        if rhs is None:
            raise TypeError(f"cannot combine QuadExt with {type(other).__name__}")
        return rhs

    def conjugate(self) -> QuadExt:
        return self._new(self._num, _scaled(self._rad, -1), self._den, coprime=True)

    def norm(self) -> RatFunc:
        """a^2 - b^2 * u, the product with the conjugate."""
        return (self * self.conjugate()).a

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
