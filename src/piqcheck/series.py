"""Exact truncated Laurent series in one variable t over arbitrary-precision rationals.

Everything downstream computes in the variable t with q = t^4, so that the
fractional powers q^(1/4) = t and q^(1/2) = t^2 occurring in the classical
identities are plain integer powers of t.

A series is known at the exponents valuation, valuation+1, ..., order-1:

  * ``valuation`` -- the exponent of the lowest nonzero term (may be negative),
  * ``order``     -- an *exclusive* bound: coefficients at exponents >= order
                     are unknown, not zero.

The order is a soundness contract, not a display convenience: an operation
never claims knowledge of a coefficient it cannot derive from the known
windows of its inputs.  Multiplication and division propagate orders by the
min rule (relative precision is preserved); addition takes the minimum of the
two orders.  Comparisons only ever look below the tracked order; asking for a
specific coefficient at or beyond it raises :class:`InsufficientPrecision`,
and so does ``compare`` when the difference is known only below the content
of both sides.

The known window is stored in its canonical integer form:

  * ``g``    -- the lattice step of the nonzero terms: the gcd of their
                offsets from the valuation, 0 when there is only one term;
  * ``nums`` -- integer numerators at offsets 0, g, 2g, ... up to the last
                nonzero term (so nums[0] and nums[-1] are nonzero);
  * ``den``  -- one positive common denominator, coprime to the content of
                the numerators.

Every coefficient between the lattice points, and every one after the last
numerator up to the order, is zero.  The form is unique, so two series are
equal exactly when their valuation, order, g, numerators and denominator
are.  The zero-to-order series has no numerators, ``valuation == order`` and
g = 0, so precision keeps propagating through cancellations.  ``coeffs``
gives the whole window as a tuple of Fractions, built on each read.

Coefficients are exact: the constructor accepts ints, Fractions and anything
else ``Fraction`` parses exactly, and rejects floats with ``TypeError``; every
constructor also refuses a valuation, exponent or order that is not an int.

Sum, difference, product, quotient and square root read the stored
numerators directly.  A binary kernel runs on the step gcd(g_a, g_b) (a sum
also folds in the distance between the valuations); an operand whose own g
is coarser is spread onto that step with zeros, except a quotient's divisor,
which is inverted on its own lattice, and only its entries below the result
window are read.  The recurrence runs on Python ints and its result list is
brought back to canonical form: leading and trailing zeros dropped, g read
from the offsets of the nonzero entries, content divided out of the
denominator.  For the catalog's series, which in t live on lattices of step
4 or 8, that makes the quadratic recurrences 16 to 64 times shorter.

  * Product: a factor with a single term c * t^e / d scales the other
    factor's numerators by c.  Both factors are in lowest terms, so the
    result shares gcd(c, den) * gcd(d, nums) with its denominator and no
    gcd runs over the scaled numerators; the square of c / d needs none.
    Otherwise both lattice lists, cut to the result window, are multiplied
    as one big integer each (Kronecker substitution, see :func:`_packed_mul`).
  * Quotient: a divisor with a single term c * t^e / d scales the
    dividend, cut to the quotient's window, by d / c and shifts it by -e.
    Every other divisor is inverted on its own lattice by Newton's method,
    with its content and lead scaled out so that the doubling runs on
    integers (see :func:`_reciprocal`), and the quotient is one product by
    the kernel of ``*``.  The reciprocal is memoized on the divisor's
    canonical form and the window, so the quotients of a run by one
    divisor invert it once.
  * Square root: of a / d, computed as sqrt(a * d) / d, so that its leading
    term isqrt(a[0] * d) is an integer.  Each step sums every symmetric pair
    of products once and divides by twice that leading term, exactly when
    it divides the sum and as a Fraction when it does not.

A power first bounds the size of each coefficient of its result
(:data:`MAX_POWER_BITS`).

All values are immutable after construction and all operations are pure
functions, so series may be shared freely across threads or tasks.

The value and ring bases, the series errors, the order rule and exact text
live in :mod:`.exact`, so ``prove-modular``, which computes no series, does
not load this module.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache
from fractions import Fraction
from itertools import compress, repeat
from math import gcd, isqrt, lcm
from operator import add, mul, neg, sub

from .exact import (
    DivisionByZeroSeries,
    InsufficientPrecision,
    NonSquareLeadingCoefficient,
    OddValuation,
    UsageError,
    _check_int,
    _frac,
    _Frozen,
    _power,
    _Ring,
    _scaled_ints,
    exact_repr,
    exact_str,
    terms_str,
)

_ZERO = Fraction(0)

# unsigned native formats by item size, for writing and reading word-sized product slots
_WORD_CODES = {memoryview(bytes(8)).cast(c).itemsize: c for c in "BHILQ"}


MAX_POWER_BITS = 1_000_000
"""Largest bound, in bits, on a coefficient of a power; ``x ** e`` raises
:class:`PowerTooLarge` past it before any work.  ``2^1000000`` takes exactly
10^6, ``Pi(q)^10000000`` at order 8 takes 27, and the powers of the catalog
and of ``check-param`` stay under 30000 at every order up to ``MAX_ORDER``.
The window, which ``MAX_ORDER`` bounds, sets how many coefficients a power has."""


class PowerTooLarge(UsageError):
    """A power whose coefficient bound passes MAX_POWER_BITS, refused before any work."""


def _exact_div(acc, d: int):
    """acc / d: an int when d divides acc, otherwise a Fraction."""
    q, r = divmod(acc, d)
    return Fraction(acc, d) if r else q


def _halves(width: int, n: int) -> int:
    """Half a slot in each of n slots: sum(half * 256**(width*i)), half = 256**width // 2."""
    return int.from_bytes((1 << (8 * width - 1)).to_bytes(width, "little") * n, "little")


def _pack(vals, width: int, code: str | None) -> int:
    """The signed integer sum(vals[i] * 256**(width*i)), each |vals[i]| < 256**width // 2.

    Each entry plus half a slot is written as an unsigned slot: all in one
    step with ``code``, the native unsigned word format of ``width`` bytes,
    and otherwise one ``to_bytes`` per entry, joined once.  The halves are
    then taken off the integer the slots spell.
    """
    half = 1 << (8 * width - 1)
    if code:
        raw = array(code, [v + half for v in vals]).tobytes()
    else:
        raw = b"".join([(v + half).to_bytes(width, "little") for v in vals])
    return int.from_bytes(raw, "little") - _halves(width, len(vals))


def _packed_mul(a, b, m: int, square: bool, start: int = 0) -> list[int]:
    """Coefficients start, ..., m-1 of the product of the integer lists a and b.

    Kronecker substitution: each list is packed into one integer with a slot
    of ``width`` bytes per entry, and the two are multiplied once (CPython
    multiplies long integers by Karatsuba).  Every product coefficient is
    less than min(len(a), len(b)) * 2**(bits_a + bits_b) in absolute value,
    so it fits a signed slot of bits_a + bits_b + bitlen(min length) + 1
    bits; the width keeps one bit more and rounds up to whole bytes.  Half a
    slot added to each of the first m slots makes them non-negative, so they
    are read back as unsigned integers less that half.  On a little-endian
    machine a width of at most 8 bytes is rounded up to 1, 2, 4 or 8; the
    lists are then written and the m slots read as native unsigned words,
    one step each.  Wider slots are written one ``to_bytes`` per entry and
    read one ``int.from_bytes`` per slot.  ``square`` says that a and b are
    the same list, which is then packed once.  Slots below ``start`` are
    biased but not read.
    """
    bits = max(map(int.bit_length, a)) + max(map(int.bit_length, b))
    width = -(-(bits + min(len(a), len(b)).bit_length() + 2) // 8)
    code = None
    if width <= 8 and sys.byteorder == "little":
        width = 1 << (width - 1).bit_length()
        code = _WORD_CODES[width]
    x = _pack(a, width, code)
    prod = x * x if square else x * _pack(b, width, code)
    half = 1 << (8 * width - 1)
    prod += _halves(width, m)
    # the slots above the first m may be negative and the biased top slot may
    # use its sign bit, so the signed conversion gets one spare byte
    raw = memoryview(prod.to_bytes((len(a) + len(b) - 1) * width + 1, "little", signed=True))
    if code:
        return list(map(sub, raw[start * width : m * width].cast(code).tolist(), repeat(half)))
    return [
        int.from_bytes(raw[i : i + width], "little") - half
        for i in range(start * width, m * width, width)
    ]


def _canonical(valuation: int, order: int, step: int, vals, den: int) -> tuple:
    """(valuation, order, g, nums, den) of the series with vals[j] / den at offset j*step.

    The entries are ints and den is positive.  Entries at or beyond the
    order are dropped; step may be 0 when vals has a single entry.
    """
    if step:
        vals = vals[: -(-(order - valuation) // step)]
    nonzero = list(compress(range(len(vals)), vals))
    if not nonzero:
        return order, order, 0, (), 1
    first = nonzero[0]
    r = gcd(*map(sub, nonzero, repeat(first)))
    nums = vals[first : nonzero[-1] + 1 : r or 1]
    if den != 1:
        c = gcd(den, *nums)
        if c != 1:
            nums = [v // c for v in nums]
            den //= c
    return valuation + first * step, order, r * step, tuple(nums), den


RECIPROCAL_CACHE_SIZE = 32
"""Reciprocals the quotients keep, dropping the least recently used.

One run of the catalog inverts at most 16 divisors, and one ``check-param``
at most 10.  A reciprocal is as large as the quotient of 1 by its divisor:
those of ``verify_all`` hold 61, 134, 295 and 659 KB together at orders 800
to 6400, the largest 8 to 97 KB.  Growing so, one reciprocal of the catalog
is about 3 MB at ``MAX_ORDER`` and a full memo of them about 100 MB
(extrapolated).  The count, not the size, is bounded: a divisor with wide
coefficients, or a lead other than +-1 over its content, has a wide
reciprocal, as its quotients are wide too."""


@lru_cache(maxsize=RECIPROCAL_CACHE_SIZE)
def _reciprocal(g: int, nums: tuple[int, ...], n: int) -> LaurentSeries:
    """1 / b to the window n, for b = sum nums[j] * x^j with x = t^g and g > 0.

    With h the content of b's numerators below n and b0 = nums[0] / h, the
    substitution x -> b0 * x gives b(b0 * x) = h * b0 * c(x), where c has the
    integer entries c[j] = nums[j] / h * b0^(j-1) and c[0] = 1.  Newton
    doubling (Brent and Kung, JACM 1978) inverts c on integers: with y exact
    below x^k, the error c*y - 1 is x^k * err + O(x^2k) and y - x^k * y * err
    is exact below x^2k.  The lower k entries of c*y are 1, 0, ..., 0, so
    each step reads only the upper half of that product, and only the first
    half of y meets err.  Over the w lattice points below n, 1 / b is then
    sum y[j] * b0^(w-1-j) * x^j / (b0^w * h); b0 = 1 scales nothing, and a
    negative b0^w flips the signs.  The key is b's canonical form and the
    window, so a hit is exact.
    """
    w = -(-n // g)
    b = nums[:w]
    h = gcd(*b)
    b0 = b[0] // h
    c = [1]
    scale = 1
    for v in b[1:]:
        c.append(v // h * scale)
        scale *= b0
    y = [1]
    k = 1
    while k < w:
        k2 = min(2 * k, w)
        a = c[:k2]
        err = _packed_mul(a, y, min(k2, len(a) + k - 1), False, k)
        if any(err):
            head = y[: k2 - k]
            y += map(neg, _packed_mul(head, err, min(k2 - k, len(head) + len(err) - 1), False))
        y += [0] * (k2 - len(y))
        k = k2
    if b0 != 1:
        scale = 1
        for j in range(w - 1, -1, -1):
            y[j] *= scale
            scale *= b0
        h *= scale
        if h < 0:
            y, h = list(map(neg, y)), -h
    return LaurentSeries._build(0, n, g, y, h)


class LaurentSeries(_Ring, _Frozen):
    """An immutable truncated Laurent series with exact rational coefficients.

    ``LaurentSeries(valuation, coeffs, order)`` reads ``coeffs`` as the
    coefficients at exponents valuation, valuation+1, ...; the window is
    padded with zeros up to ``order - valuation`` and leading zeros are
    stripped (raising the valuation).  A series that is zero everywhere
    below its order collapses to the canonical zero with
    ``valuation == order``.
    """

    valuation: int
    order: int
    _g: int
    _nums: tuple[int, ...]
    _den: int

    def __init__(self, valuation: int, coeffs, order: int) -> None:
        _check_int(valuation, "valuation")
        _check_int(order, "order")
        coeffs = tuple(c if isinstance(c, Fraction) else _frac(c) for c in coeffs)
        window = order - valuation
        if window < 0:
            raise ValueError("order must be >= valuation")
        if len(coeffs) > window:
            raise ValueError("coefficient list longer than order - valuation")
        nums, den = _scaled_ints(coeffs)
        self._set(*_canonical(valuation, order, 1, nums, den))

    def _set(self, valuation: int, order: int, g: int, nums: tuple[int, ...], den: int) -> None:
        setter = object.__setattr__
        setter(self, "valuation", valuation)
        setter(self, "order", order)
        setter(self, "_g", g)
        setter(self, "_nums", nums)
        setter(self, "_den", den)

    @classmethod
    def _raw(cls, valuation: int, order: int, g: int, nums: tuple[int, ...], den: int) -> LaurentSeries:
        """A series from parts that are already in canonical form."""
        self = object.__new__(cls)
        self._set(valuation, order, g, nums, den)
        return self

    @classmethod
    def _build(cls, valuation: int, order: int, step: int, vals, den: int = 1) -> LaurentSeries:
        """The series with vals[j] / den at offset j*step, brought to canonical form."""
        return cls._raw(*_canonical(valuation, order, step, vals, den))

    def __repr__(self) -> str:
        return (
            f"LaurentSeries(valuation={exact_str(self.valuation)}, coeffs={exact_repr(self.coeffs)},"
            f" order={exact_str(self.order)})"
        )

    # ------------------------------------------------------------------
    # constructors

    @staticmethod
    def zero(order: int) -> LaurentSeries:
        """The canonical zero-to-order series."""
        _check_int(order, "order")
        return LaurentSeries._raw(order, order, 0, (), 1)

    @staticmethod
    def constant(value, order: int) -> LaurentSeries:
        return LaurentSeries.monomial(0, order, value)

    @staticmethod
    def monomial(exponent: int, order: int, coeff=1) -> LaurentSeries:
        """coeff * t^exponent.  Collapses to zero-to-order when exponent >= order."""
        _check_int(exponent, "exponent")
        _check_int(order, "order")
        c = _frac(coeff)
        if exponent >= order:
            return LaurentSeries.zero(order)
        return LaurentSeries._build(exponent, order, 0, [c.numerator], c.denominator)

    # ------------------------------------------------------------------
    # inspection

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Coefficients at exponents valuation, ..., order-1 (built on each read)."""
        nums, den, g = self._nums, self._den, self._g
        if not nums:
            return ()
        out = [_ZERO] * (self.order - self.valuation)
        out[: (len(nums) - 1) * g + 1 : g or 1] = [Fraction(v, den) for v in nums]
        return tuple(out)

    def terms(self) -> list[tuple[int, Fraction]]:
        """(exponent, coefficient) of each nonzero term, lowest first; ``str`` prints these."""
        den, g = self._den, self._g
        return [(self.valuation + j * g, Fraction(v, den)) for j, v in enumerate(self._nums) if v]

    @property
    def is_zero(self) -> bool:
        """True when the series is zero everywhere below its order."""
        return not self._nums

    @property
    def precision(self) -> int:
        """Number of known coefficients counted from the valuation."""
        return self.order - self.valuation

    @property
    def leading_coefficient(self) -> Fraction:
        if self.is_zero:
            raise DivisionByZeroSeries("zero series has no leading coefficient")
        return Fraction(self._nums[0], self._den)

    def coefficient(self, n: int) -> Fraction:
        """The coefficient of t^n.  Exponents below the valuation are known zero."""
        _check_int(n, "n")
        if n >= self.order:
            raise InsufficientPrecision(
                f"coefficient at t^{exact_str(n)} requested but series is only known"
                f" below t^{exact_str(self.order)}"
            )
        offset = n - self.valuation
        j, r = divmod(offset, self._g) if self._g else (offset, 0)
        if offset < 0 or r or j >= len(self._nums):
            return Fraction(0)
        return Fraction(self._nums[j], self._den)

    def compare(self, other: LaurentSeries) -> LaurentSeries:
        """self - other, refusing a comparison that reads no coefficient.

        The comparison is vacuous when the difference is known only below
        the exponent where the content of both sides starts; that raises
        :class:`InsufficientPrecision` naming both exponents.
        """
        diff = self - other
        floor = min((s.valuation for s in (self, other) if not s.is_zero), default=None)
        if floor is not None and diff.order <= floor:
            raise InsufficientPrecision(
                f"no comparable coefficients below t^{exact_str(diff.order)}"
                f" (content starts at t^{exact_str(floor)})"
            )
        return diff

    def _lattice(self, step: int, n: int):
        """Numerators at offsets 0, step, 2*step, ... below n, without trailing zeros.

        step must divide g (any step does when g is 0).
        """
        nums, g = self._nums, self._g
        if g == step:
            return nums[: -(-n // step)]
        if not g:
            return nums
        src = nums[: -(-n // g)]
        k = g // step
        out = [0] * ((len(src) - 1) * k + 1)
        out[::k] = src
        return out

    # ------------------------------------------------------------------
    # arithmetic

    def _lift(self, other) -> LaurentSeries | None:
        if isinstance(other, LaurentSeries):
            return other
        if isinstance(other, (int, Fraction, float)):
            return LaurentSeries.constant(other, self.order)  # rejects the float
        return None

    def __add__(self, other) -> LaurentSeries:
        """self + other in one aligned integer pass; ``_Ring`` derives ``-`` from it."""
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        order = min(self.order, rhs.order)
        if rhs.valuation >= order:
            return self.truncate(order)
        if self.valuation >= order:
            return rhs.truncate(order)
        start = min(self.valuation, rhs.valuation)
        # both operands sit on one lattice of this step counted from start
        step = gcd(self._g, rhs._g, self.valuation - start, rhs.valuation - start) or order - start
        den = lcm(self._den, rhs._den)
        out = [0] * -(-(order - start) // step)
        for s in (self, rhs):
            vals = s._lattice(step, order - s.valuation)
            first = (s.valuation - start) // step
            end = first + len(vals)
            if s._den != den:
                vals = map(mul, vals, repeat(den // s._den))
            out[first:end] = map(add, out[first:end], vals)
        return LaurentSeries._build(start, order, step, out, den)

    def __neg__(self) -> LaurentSeries:
        return LaurentSeries._raw(
            self.valuation, self.order, self._g, tuple(map(neg, self._nums)), self._den
        )

    def __mul__(self, other) -> LaurentSeries:
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        return self._mul(rhs)

    def _mul(self, rhs: LaurentSeries) -> LaurentSeries:
        """self * rhs: the kernel of ``*``, which every quotient by a reciprocal shares."""
        if self.is_zero or rhs.is_zero:
            return LaurentSeries.zero(
                min(self.order + rhs.valuation, rhs.order + self.valuation)
            )
        n = min(self.precision, rhs.precision)
        val = self.valuation + rhs.valuation
        den = self._den * rhs._den
        if len(self._nums) == 1 or len(rhs._nums) == 1:
            # a one-term factor c * t^e / d scales the other one
            one, other = (self, rhs) if len(self._nums) == 1 else (rhs, self)
            if one is other:  # c^2 / d^2 is in lowest terms, as c / d is
                return LaurentSeries._raw(val, val + n, 0, (self._nums[0] ** 2,), den)
            other = other.truncate(other.valuation + n)
            return other._times(one._nums[0], one._den, one.valuation)
        step = gcd(self._g, rhs._g) or n
        a, b = self._lattice(step, n), rhs._lattice(step, n)
        m = min(-(-n // step), len(a) + len(b) - 1)
        prod = _packed_mul(a[:m], b[:m], m, self is rhs)
        return LaurentSeries._build(val, val + n, step, prod, den)

    def scale(self, c) -> LaurentSeries:
        c = _frac(c)
        if c == 0:
            return LaurentSeries.zero(self.order)
        return self._times(c.numerator, c.denominator)

    def _times(self, c: int, d: int, shift: int = 0) -> LaurentSeries:
        """self * c / d * t^shift, for c / d in lowest terms with c nonzero and d > 0.

        Both factors are in lowest terms, so the product's numerators share
        exactly gcd(c, den) * gcd(d, nums) with its denominator: two gcds with
        the narrow side replace one over every wide product.
        """
        g, h = gcd(c, self._den), gcd(d, *self._nums)
        c //= g
        nums = tuple(v // h * c for v in self._nums) if h != 1 or c != 1 else self._nums
        return LaurentSeries._raw(
            self.valuation + shift, self.order + shift, self._g, nums, d // h * (self._den // g)
        )

    def __truediv__(self, other) -> LaurentSeries:
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise DivisionByZeroSeries("division by the zero constant")
            return self.scale(Fraction(1) / Fraction(other))
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        if rhs.is_zero:
            raise DivisionByZeroSeries(
                f"divisor is zero up to its tracked order t^{exact_str(rhs.order)}"
            )
        if self.is_zero:
            return LaurentSeries.zero(self.order - rhs.valuation)
        n = min(self.precision, rhs.precision)
        if len(rhs._nums) == 1:
            # a one-term divisor c * t^e / d: the quotient is self * (d / c) * t^-e
            c = rhs._nums[0]
            dividend = self.truncate(self.valuation + n)
            return dividend._times(rhs._den if c > 0 else -rhs._den, abs(c), -rhs.valuation)
        inverse = _reciprocal(rhs._g, rhs._nums, n)._times(rhs._den, 1)
        return self._mul(inverse).shift(-rhs.valuation)

    # not _Field's lift(c) / self: c known to self.order, not to self's precision, moves the order
    def __rtruediv__(self, other) -> LaurentSeries:
        if not isinstance(other, (int, Fraction, float)):
            return NotImplemented
        num = LaurentSeries.constant(other, max(self.precision, 1))  # rejects the float
        return num / self

    def __pow__(self, e: int) -> LaurentSeries:
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return (1 / self) ** (-e)
        if e == 0:
            return LaurentSeries.constant(1, max(self.precision, 1))
        bits = self._power_bits(e)
        if bits > MAX_POWER_BITS:
            raise PowerTooLarge(
                f"power to the exponent {exact_str(e)} would take coefficients of about"
                f" {exact_str(bits)} bits,"
                f" more than MAX_POWER_BITS = {MAX_POWER_BITS}"
            )
        return _power(self, e)

    def _power_bits(self, e: int) -> int:
        """A bound on the bits of a coefficient, numerator and denominator, of self ** e.

        With w numerators n0, n1, ... of at most h bits over d, the k-th numerator
        of the power is at most (w * 2**h)**e and |n0|**e * (2**(h+1) * (e+1))**k.
        """
        if not self._nums:
            return 0
        w = -(-self.precision // self._g) if self._g else 1
        h = max(map(int.bit_length, self._nums))
        lead = e * (abs(self._nums[0]) - 1).bit_length()  # e * ceil(log2 |n0|)
        num = min(e * (h + w.bit_length()), lead + (w - 1) * (h + 1 + (e + 1).bit_length()))
        return num + e * (self._den - 1).bit_length()

    def shift(self, j: int) -> LaurentSeries:
        """Multiply by the exact monomial t^j (shifts the knowledge window too)."""
        _check_int(j, "j")
        return LaurentSeries._raw(self.valuation + j, self.order + j, self._g, self._nums, self._den)

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
            raise OddValuation(f"sqrt of series with odd valuation {exact_str(self.valuation)}")
        n = self.precision
        step = self._g or n
        d = self._den
        sq = [v * d for v in self._nums]
        # a0 / d is the square of a rational exactly when a0 * d is a square
        root = [isqrt(max(sq[0], 0))]
        if root[0] ** 2 != sq[0]:
            raise NonSquareLeadingCoefficient(
                f"leading coefficient {exact_str(self.leading_coefficient)}"
                " is not the square of a rational"
            )
        sq += [0] * (-(-n // step) - len(sq))
        twice = 2 * root[0]
        for k in range(1, len(sq)):
            h = (k - 1) // 2  # pairs (i, k - i) with 1 <= i < k - i
            acc = sq[k] - 2 * sum(map(mul, root[1 : h + 1], root[k - 1 : k - h - 1 : -1]))
            if not k % 2:
                acc -= root[k // 2] ** 2
            root.append(_exact_div(acc, twice))
        root, den = _scaled_ints(root)
        val = self.valuation // 2
        return LaurentSeries._build(val, val + n, step, root, d * den)

    def truncate(self, order: int) -> LaurentSeries:
        """Restrict the knowledge window to a smaller order."""
        if order >= self.order:
            return self
        if order <= self.valuation:
            return LaurentSeries.zero(order)
        return LaurentSeries._build(self.valuation, order, self._g, self._nums, self._den)

    # ------------------------------------------------------------------

    def __str__(self) -> str:
        body = terms_str((c, f"t^{exact_str(e)}" if e else "") for e, c in self.terms())
        rest = f"O(t^{exact_str(self.order)})"
        return f"{body} + {rest}" if body else rest

