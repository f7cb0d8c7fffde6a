"""The base that every command loads, so that each loads only the layers it runs.

``prove-modular`` loads it with :mod:`.field` and no series, ``check-param``
with :mod:`.series` and :mod:`.theta` and no field.  It holds the value and
ring bases ``_Frozen`` and ``_Ring``, the series errors and
:class:`UsageError`, the order rule (:func:`check_order`), the exactness rule
(:func:`_frac` refuses a float), :func:`_scaled_ints`, :func:`_power`, and
exact text: :func:`exact_str` spells a number, :func:`exact_repr` a tuple of
Fractions, :func:`terms_str` a sum of terms of a series or a polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import attrgetter


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


MIN_ORDER = 8

DEFAULT_ORDER = 200
"""Default t-order for verification (q-order 50)."""

MAX_ORDER = 100_000
"""Largest t-order evaluated, and largest |4r| of a q-power q^r that parses.

``expand --expr "Pi(q)"`` at this order took 0.37 s and 25 MB peak RSS on a
2-core x86-64 host; at 819200 it took 2.2 s and 85 MB, so an order of 10^8
would need gigabytes.  A negative q-power widens a sum's window as far as
an order does, so it is bounded by the same limit."""


def _check_int(value, name: str) -> None:
    """Raise TypeError, naming ``name``, unless ``value`` is an int."""
    if not isinstance(value, int):
        raise TypeError(f"{name} must be an int, not {type(value).__name__}")


class UsageError(ValueError):
    """Input the caller wrote, refused as written: the command line exits 2 on it,
    and its ``label`` opens the stderr line.  ``dsl.ParseError`` is one."""

    label = "error"


def check_order(order: int, name: str = "order") -> None:
    """TypeError, naming ``name``, for a non-int order; UsageError outside MIN_ORDER..MAX_ORDER."""
    _check_int(order, name)
    if order < MIN_ORDER:
        raise UsageError(f"{name} must be at least {MIN_ORDER}")
    if order > MAX_ORDER:
        raise UsageError(f"{name} must be at most {MAX_ORDER}")


_STR_BITS = 2000
"""Widest int converted by one ``str`` call: under 640 digits, the least
limit ``sys.set_int_max_str_digits`` accepts."""


def _int_str(n: int) -> str:
    if n.bit_length() <= _STR_BITS:
        return str(n)
    if n < 0:
        return "-" + _int_str(-n)
    k = n.bit_length() * 3 // 20  # about half of n's digits
    high, low = divmod(n, 10**k)
    return _int_str(high) + _int_str(low).zfill(k)


def exact_str(x: int | Fraction) -> str:
    """``str(x)`` for an int or Fraction of any size: the one spelling of an exact value.

    ``str`` refuses an int of more digits than the interpreter's int string
    limit; this converts a wide one in pieces split at powers of ten, each
    short enough for any limit, so a report can always print its numbers.
    """
    if x.denominator == 1:
        return _int_str(x.numerator)
    return f"{_int_str(x.numerator)}/{_int_str(x.denominator)}"


def exact_repr(values) -> str:
    """``repr(values)`` for a tuple of Fractions of any size, spelled by :func:`exact_str`."""
    items = [f"Fraction({_int_str(x.numerator)}, {_int_str(x.denominator)})" for x in values]
    return f"({items[0]},)" if len(items) == 1 else f"({', '.join(items)})"


def terms_str(terms) -> str:
    """The sum ``c*x^e + ...`` of (nonzero coefficient, monomial) pairs, in order.

    The one term writer of series and polynomials.  A monomial is the text of
    its power, empty for the constant term; a unit coefficient before it is
    left out, and a negative term after the first is written as a difference.
    """
    out = []
    for c, mono in terms:
        if out:
            out.append(" - " if c < 0 else " + ")
            c = abs(c)
        if mono and c in (1, -1):
            out.append(mono if c == 1 else f"-{mono}")
        else:
            out.append(f"{exact_str(c)}*{mono}" if mono else exact_str(c))
    return "".join(out)


def _scaled_ints(coeffs) -> tuple[list[int], int]:
    """Clear denominators: return (integer coefficients, common denominator).

    The entries may be Fractions or ints (whose denominator is 1).
    """
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


def _power(base, e: int):
    """base^e for e >= 1 by repeated squaring, with no square after the top bit.

    Shared by series, polynomials and extension elements; each handles
    e <= 0 itself.
    """
    result = None
    while True:
        if e & 1:
            result = base if result is None else result * base
        e >>= 1
        if not e:
            return result
        base = base * base


class _Frozen:
    """An immutable value whose fields are the annotations of its class body.

    A subclass annotates its fields once, after those of its bases; the
    class attribute of a field, when there is one, is its default, and only
    the last fields may have one.  From that tuple, ``__match_args__``, the
    methods below derive ``__init__`` (positional or keyword arguments, then
    ``__post_init__``, looked up on the instance at each call), ``==`` (same
    class, equal fields), ``hash`` and ``repr`` of the fields.  Assigning or
    deleting an attribute raises AttributeError.  Every field is written by
    :meth:`_fill`: ``__init__`` fills the bound arguments, a ``__post_init__``
    that normalizes a field or a class's own ``__init__`` fills what it
    computes, and :meth:`_of` builds a value from fields already in stored
    form, such as an operation's result, without ``__init__``.  No code is
    generated, so defining such a class costs no more than a plain one.
    """

    __slots__ = ()
    __match_args__ = ()
    _defaults = ()  # the values of the last len(_defaults) fields
    _values = staticmethod(lambda self: ())  # the tuple of the fields of self

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = tuple(cls.__annotations__)
        if own:
            has = [name in vars(cls) for name in own]
            if has != sorted(has) or (cls._defaults and not all(has)):
                raise TypeError(f"{cls.__name__}: a field without a default follows a default")
            names = cls.__match_args__ = cls.__match_args__ + own
            cls._defaults += tuple(vars(cls)[name] for name in own if name in vars(cls))
            get = attrgetter(*names)
            cls._values = staticmethod(get if len(names) > 1 else lambda self: (get(self),))

    def __init__(self, *args, **kwargs) -> None:
        if kwargs or len(args) != len(self.__match_args__):
            args = self._bind(args, kwargs)
        self._fill(args)
        self.__post_init__()

    def _fill(self, fields: tuple) -> None:
        """Write the first len(fields) fields of self, in order: the one field writer."""
        vars(self).update(zip(self.__match_args__, fields))

    @classmethod
    def _of(cls, *fields):
        """The value whose fields are ``fields``, already in stored form; no ``__init__`` runs."""
        self = object.__new__(cls)
        self._fill(fields)
        return self

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """The field values in order, from arguments that do not give each by position."""
        names, defaults = cls.__match_args__, cls._defaults
        first = len(names) - len(defaults)  # the first field with a default
        if not kwargs and first <= len(args) < len(names):
            return args + defaults[len(args) - len(names) :]
        if len(args) > len(names):
            raise TypeError(
                f"{cls.__name__}() takes {len(names)} arguments but {len(args)} were given"
            )
        values = list(args)
        for i, name in enumerate(names):
            if name in kwargs:
                if i < len(args):
                    raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
                values.append(kwargs.pop(name))
            elif i >= len(args):
                if i < first:
                    raise TypeError(f"{cls.__name__}() missing argument {name!r}")
                values.append(defaults[i - first])
        if kwargs:
            name = next(iter(kwargs))
            raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {name!r}")
        return tuple(values)

    def __post_init__(self) -> None:
        pass

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = map("{}={!r}".format, self.__match_args__, self._values(self))
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class _Ring:
    """``-`` and reflected ``+ * -``, from a class's ``_lift``, ``+``, unary ``-`` and ``*``."""

    __slots__ = ()

    # the forward method, not the operator: an operand neither side takes
    # then gets Python's TypeError with the operands in their written order
    def __radd__(self, other):
        return self.__add__(other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __sub__(self, other):
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other):
        lhs = self._lift(other)
        if lhs is None:
            return NotImplemented
        return lhs + (-self)
