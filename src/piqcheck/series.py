"""Exact truncated Laurent series in one variable t over arbitrary-precision rationals.

Everything downstream computes in the variable t with q = t^4, so that the
fractional powers q^(1/4) = t and q^(1/2) = t^2 occurring in the classical
identities are plain integer powers of t.

A series carries three pieces of state:

  * ``valuation`` -- the exponent of the lowest stored term (may be negative),
  * ``coeffs``    -- exact rational coefficients for exponents
                     valuation, valuation+1, ..., order-1,
  * ``order``     -- an *exclusive* bound: coefficients at exponents >= order
                     are unknown, not zero.

The order is a soundness contract, not a display convenience: an operation
never claims knowledge of a coefficient it cannot derive from the known
windows of its inputs.  Multiplication and division propagate orders by the
min rule (relative precision is preserved); addition takes the minimum of the
two orders.  Comparisons only ever look below the tracked order; asking for a
specific coefficient at or beyond it raises :class:`InsufficientPrecision`.

The canonical zero-to-order series is represented with an empty coefficient
tuple and ``valuation == order``, so precision keeps propagating through
cancellations.

Coefficients are exact: constructors accept ints, Fractions and anything
else ``Fraction`` parses exactly, and reject floats with ``TypeError``.

Product, quotient and square root share one scheme, the stride-compressed
integer kernel.  Each finds the lattice step g shared by its operands: the
gcd of the offsets, counted from the valuation, of every nonzero
coefficient below the result window n.  Coefficients at or beyond the
tracked order are unknown, so they never enter g.  The operands are then
read at offsets 0, g, 2g, ... only (ceil(n/g) entries), with their
denominators cleared (integer numerators over one common denominator), the
recurrence runs on those Python ints, and the result is spread back onto
the n-wide window with zeros between the lattice points.  For the catalog's series, which in t
live on lattices of step 4 or 8, that makes the quadratic recurrences 16 to
64 times shorter.

  * Product: the sparser operand drives row updates, so zero rows cost
    nothing.
  * Quotient: long division by the leading integer b0.  Each step divides
    exactly when b0 divides the partial sum and falls back to a Fraction
    when it does not, so unit and non-unit divisors share one loop.
  * Square root: of a / d, computed as sqrt(a * d) / d, so that its leading
    term isqrt(a[0] * d) is an integer.  Each step sums every symmetric pair
    of products once and divides by twice that leading term with the same
    exact-or-Fraction step.

All values are immutable after construction and all operations are pure
functions, so series may be shared freely across threads or tasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, repeat
from math import gcd, isqrt, lcm
from operator import add, mul

_ZERO = Fraction(0)


class SeriesError(Exception):
    """Base class for series arithmetic failures."""


class DivisionByZeroSeries(SeriesError):
    """Division by a series that is zero up to its tracked order."""


class OddValuation(SeriesError):
    """Square root of a series whose valuation is odd."""


class NonSquareLeadingCoefficient(SeriesError):
    """Square root of a series whose leading coefficient has no rational root."""


class InsufficientPrecision(SeriesError):
    """A coefficient or comparison was requested beyond the tracked order."""


def sqrt_fraction(c: Fraction) -> Fraction | None:
    """Exact positive square root of a rational, or None if it is not a square."""
    if c < 0:
        return None
    rn = isqrt(c.numerator)
    rd = isqrt(c.denominator)
    if rn * rn == c.numerator and rd * rd == c.denominator:
        return Fraction(rn, rd)
    return None


def _scaled_ints(coeffs: tuple[Fraction, ...]) -> tuple[list[int], int]:
    """Clear denominators: return (integer coefficients, common denominator)."""
    den = lcm(*(c.denominator for c in coeffs)) if coeffs else 1
    if den == 1:
        return [c.numerator for c in coeffs], 1
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _frac(x) -> Fraction:
    """Coerce an exact number to Fraction; a float is rejected as inexact."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError(f"float {x!r} is not an exact coefficient; use an int, a Fraction or a str")
    return Fraction(x)


def _stride(n: int, *windows: tuple[Fraction, ...]) -> int:
    """Lattice step shared by the coefficient windows below offset n.

    The gcd of every offset in 1..n-1 at which some window is nonzero, or n
    when only the leading entries are nonzero.
    """
    return gcd(*chain.from_iterable(compress(range(1, n), w[1:n]) for w in windows)) or n


def _exact_div(acc, d: int):
    """acc / d: an int when d divides acc, otherwise a Fraction."""
    q, r = divmod(acc, d)
    return Fraction(acc, d) if r else q


def _expand(vals: list, den: int, n: int, g: int) -> tuple[Fraction, ...]:
    """The n-wide window holding vals[j] / den at offset j*g and zeros elsewhere."""
    if den == 1:
        fracs = [Fraction(v) for v in vals]
    else:
        fracs = [Fraction(v, den) for v in vals]
    if g == 1:
        return tuple(fracs)
    out = [_ZERO] * n
    out[::g] = fracs
    return tuple(out)


@dataclass(frozen=True)
class LaurentSeries:
    """An immutable truncated Laurent series with exact rational coefficients.

    The constructor normalizes: coefficients are coerced to Fraction, the
    window is padded with zeros up to ``order - valuation``, and leading zeros
    are stripped (raising the valuation).  A series that is zero everywhere
    below its order collapses to the canonical zero with ``valuation == order``.
    """

    valuation: int
    coeffs: tuple[Fraction, ...]
    order: int

    def __post_init__(self) -> None:
        coeffs = tuple(c if isinstance(c, Fraction) else _frac(c) for c in self.coeffs)
        self._normalize(self.valuation, coeffs, self.order)

    def _normalize(self, valuation: int, coeffs: tuple[Fraction, ...], order: int) -> None:
        window = order - valuation
        if window < 0:
            raise ValueError("order must be >= valuation")
        if len(coeffs) > window:
            raise ValueError("coefficient list longer than order - valuation")
        if len(coeffs) < window:
            coeffs = coeffs + (_ZERO,) * (window - len(coeffs))
        lead = 0
        while lead < len(coeffs) and coeffs[lead] == 0:
            lead += 1
        if lead == len(coeffs):
            object.__setattr__(self, "valuation", order)
            object.__setattr__(self, "coeffs", ())
        else:
            object.__setattr__(self, "valuation", valuation + lead)
            object.__setattr__(self, "coeffs", coeffs[lead:])
        object.__setattr__(self, "order", order)

    @classmethod
    def _of(cls, valuation: int, coeffs: tuple[Fraction, ...], order: int) -> LaurentSeries:
        """Normalizing constructor for coefficients that are already Fractions."""
        self = object.__new__(cls)
        self._normalize(valuation, coeffs, order)
        return self

    # ------------------------------------------------------------------
    # constructors

    @staticmethod
    def zero(order: int) -> LaurentSeries:
        """The canonical zero-to-order series."""
        return LaurentSeries(order, (), order)

    @staticmethod
    def constant(value, order: int) -> LaurentSeries:
        if order <= 0:
            return LaurentSeries.zero(order)
        return LaurentSeries(0, (_frac(value),), order)

    @staticmethod
    def monomial(exponent: int, order: int, coeff=1) -> LaurentSeries:
        """coeff * t^exponent.  Collapses to zero-to-order when exponent >= order."""
        if exponent >= order:
            return LaurentSeries.zero(order)
        return LaurentSeries(exponent, (_frac(coeff),), order)

    @staticmethod
    def from_coefficients(valuation: int, coeffs, order: int) -> LaurentSeries:
        return LaurentSeries(valuation, tuple(coeffs), order)

    # ------------------------------------------------------------------
    # inspection

    @property
    def is_zero(self) -> bool:
        """True when the series is zero everywhere below its order."""
        return not self.coeffs

    @property
    def precision(self) -> int:
        """Number of known coefficients counted from the valuation."""
        return self.order - self.valuation

    @property
    def leading_coefficient(self) -> Fraction:
        if self.is_zero:
            raise DivisionByZeroSeries("zero series has no leading coefficient")
        return self.coeffs[0]

    def coefficient(self, n: int) -> Fraction:
        """The coefficient of t^n.  Exponents below the valuation are known zero."""
        if n >= self.order:
            raise InsufficientPrecision(
                f"coefficient at t^{n} requested but series is only known below t^{self.order}"
            )
        if n < self.valuation:
            return Fraction(0)
        return self.coeffs[n - self.valuation]

    def first_nonzero_exponent(self) -> int | None:
        """Lowest exponent with a nonzero known coefficient, None for zero-to-order."""
        return None if self.is_zero else self.valuation

    def is_zero_up_to(self, n: int | None = None) -> bool:
        """True when every known coefficient below min(order, n) vanishes."""
        bound = self.order if n is None else min(self.order, n)
        return self.is_zero or self.valuation >= bound

    def equal_up_to(self, other: LaurentSeries, n: int | None = None) -> bool:
        """Compare coefficients at every exponent below min(both orders, n)."""
        bound = min(self.order, other.order)
        if n is not None:
            bound = min(bound, n)
        return (self - other).is_zero_up_to(bound)

    # ------------------------------------------------------------------
    # arithmetic

    def _coerce(self, other) -> LaurentSeries | None:
        if isinstance(other, LaurentSeries):
            return other
        if isinstance(other, (int, Fraction, float)):
            return LaurentSeries.constant(other, self.order)  # rejects the float
        return None

    def __add__(self, other) -> LaurentSeries:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        order = min(self.order, rhs.order)
        lo, hi = (self, rhs) if self.valuation <= rhs.valuation else (rhs, self)
        start = min(lo.valuation, order)
        # lo's window starts at `start`; hi's starts `off` places later and
        # both end at `order`, so the overlap lines up slice against slice.
        # Zeros of hi, most of a strided series, cost no Fraction addition.
        coeffs = lo.coeffs[: order - start]
        if hi.valuation < order:
            off = hi.valuation - start
            tail = zip(coeffs[off:], hi.coeffs[: order - hi.valuation])
            coeffs = coeffs[:off] + tuple(x + y if y else x for x, y in tail)
        return LaurentSeries._of(start, coeffs, order)

    __radd__ = __add__

    def __neg__(self) -> LaurentSeries:
        return LaurentSeries._of(self.valuation, tuple(-c for c in self.coeffs), self.order)

    def __sub__(self, other) -> LaurentSeries:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other) -> LaurentSeries:
        return (-self) + other

    def __mul__(self, other) -> LaurentSeries:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if self.is_zero or rhs.is_zero:
            return LaurentSeries.zero(
                min(self.order + rhs.valuation, rhs.order + self.valuation)
            )
        n = min(len(self.coeffs), len(rhs.coeffs))
        val = self.valuation + rhs.valuation
        g = _stride(n, self.coeffs, rhs.coeffs)
        rows, da = _scaled_ints(self.coeffs[:n:g])
        other, db = _scaled_ints(rhs.coeffs[:n:g])
        if sum(map(bool, rows)) > sum(map(bool, other)):
            rows, other = other, rows
        m = len(other)
        prod = [0] * m
        for i in compress(range(m), rows):
            prod[i:] = map(add, prod[i:], map(mul, repeat(rows[i]), other[: m - i]))
        return LaurentSeries._of(val, _expand(prod, da * db, n, g), val + n)

    def __rmul__(self, other) -> LaurentSeries:
        return self * other

    def scale(self, c) -> LaurentSeries:
        c = _frac(c)
        if c == 0:
            return LaurentSeries.zero(self.order)
        return LaurentSeries._of(self.valuation, tuple(c * v for v in self.coeffs), self.order)

    def __truediv__(self, other) -> LaurentSeries:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise DivisionByZeroSeries("division by the zero constant")
            return self.scale(Fraction(1) / Fraction(other))
        if rhs.is_zero:
            raise DivisionByZeroSeries(
                f"divisor is zero up to its tracked order t^{rhs.order}"
            )
        if self.is_zero:
            return LaurentSeries.zero(self.order - rhs.valuation)
        n = min(len(self.coeffs), len(rhs.coeffs))
        val = self.valuation - rhs.valuation
        g = _stride(n, self.coeffs, rhs.coeffs)
        a, da = _scaled_ints(self.coeffs[:n:g])
        b, db = _scaled_ints(rhs.coeffs[:n:g])
        m = len(b)
        tail = b[:0:-1]  # tail[m - 1 - k:] is b[k], ..., b[1]
        quot: list = []
        for k in range(m):
            acc = a[k] - sum(map(mul, quot, tail[m - 1 - k:]))
            quot.append(_exact_div(acc, b[0]))
        if db != 1:
            quot = [v * db for v in quot]
        return LaurentSeries._of(val, _expand(quot, da, n, g), val + n)

    def __rtruediv__(self, other) -> LaurentSeries:
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        num = LaurentSeries.constant(other, max(self.precision, 1))
        return num / self

    def __pow__(self, e: int) -> LaurentSeries:
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return (1 / self) ** (-e)
        if e == 0:
            return LaurentSeries.constant(1, max(self.precision, 1))
        result = None
        base = self
        k = e
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def shift(self, j: int) -> LaurentSeries:
        """Multiply by the exact monomial t^j (shifts the knowledge window too)."""
        return LaurentSeries(self.valuation + j, self.coeffs, self.order + j)

    def substitute_power(self, k: int) -> LaurentSeries:
        """Exponent map n -> k*n, realizing q -> q^k.  Result order is k*order."""
        if not isinstance(k, int) or k < 1:
            raise ValueError("substitution power must be a positive integer")
        if self.is_zero:
            return LaurentSeries.zero(k * self.order)
        n = len(self.coeffs)
        out = [Fraction(0)] * (k * n)
        for i, c in enumerate(self.coeffs):
            out[i * k] = c
        return LaurentSeries(k * self.valuation, tuple(out), k * self.order)

    def sqrt(self) -> LaurentSeries:
        """Positive-branch square root.

        Requires an even valuation and a leading coefficient that is the square
        of a rational; the root's leading coefficient is the positive rational
        square root.  The square of the result agrees with the input on the
        input's full valid range.
        """
        if self.is_zero:
            return LaurentSeries.zero((self.order + 1) // 2)
        if self.valuation % 2:
            raise OddValuation(f"sqrt of series with odd valuation {self.valuation}")
        root0 = sqrt_fraction(self.coeffs[0])
        if root0 is None or root0 == 0:
            raise NonSquareLeadingCoefficient(
                f"leading coefficient {self.coeffs[0]} is not the square of a rational"
            )
        n = len(self.coeffs)
        g = _stride(n, self.coeffs)
        a, d = _scaled_ints(self.coeffs[::g])
        sq = [v * d for v in a]
        root = [isqrt(sq[0])]
        twice = 2 * root[0]
        for k in range(1, len(sq)):
            h = (k - 1) // 2  # pairs (i, k - i) with 1 <= i < k - i
            acc = sq[k] - 2 * sum(map(mul, root[1 : h + 1], root[k - 1 : k - h - 1 : -1]))
            if not k % 2:
                acc -= root[k // 2] ** 2
            root.append(_exact_div(acc, twice))
        val = self.valuation // 2
        return LaurentSeries._of(val, _expand(root, d, n, g), val + n)

    def truncate(self, order: int) -> LaurentSeries:
        """Restrict the knowledge window to a smaller order."""
        if order >= self.order:
            return self
        if order <= self.valuation:
            return LaurentSeries.zero(order)
        return LaurentSeries(self.valuation, self.coeffs[: order - self.valuation], order)

    # ------------------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero:
            return f"O(t^{self.order})"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            e = self.valuation + i
            if e == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append(f"t^{e}")
            elif c == -1:
                parts.append(f"-t^{e}")
            else:
                parts.append(f"{c}*t^{e}")
        return " + ".join(parts).replace("+ -", "- ") + f" + O(t^{self.order})"
