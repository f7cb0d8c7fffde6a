"""Registry of the Pi_q / psi identity catalog, evaluation, and verification.

The catalog holds 31 identities in two families: one relating the constants
Pi_q, Pi_{q^2}, Pi_{q^3}, Pi_{q^6} (with psi-quotient equivalents), the other
relating Pi_q, Pi_{q^2}, Pi_{q^5}, Pi_{q^10}.  Identities carrying a +/- sign
pattern are expanded into two records at registration; ids follow the stable
scheme ``EQ<label>`` with a ``+`` or ``-`` suffix for the sign variants.
The registry is parsed when a record is first looked up, not at import, so
evaluating a user expression parses no catalog side.

Each record stores its two sides as expression trees (see :mod:`.dsl`).
:func:`verify_sides` is the one comparison: it evaluates two sides as
Laurent series in t (q = t^4) at a requested order and reports either
``verified`` (the difference vanishes at every comparable exponent),
``falsified`` (with the first failing exponent and both coefficients), or
``error`` when evaluation could not produce a meaningful comparison range.
:func:`verify` looks a registered id up and compares its sides; user
identities and mutated records go to :func:`verify_sides` directly.
"""

from __future__ import annotations

import operator
import time
from fractions import Fraction

from . import theta
from .dsl import (
    Add,
    Binary,
    Builder,
    Const,
    Div,
    Expr,
    Mul,
    Phi,
    Pi,
    PowInt,
    Psi,
    QPow,
    Sqrt,
    Sub,
    check_depth,
    parse,
    to_text,
)
# the default order and the order bounds are the series module's own
# objects, re-exported here
from .series import (
    DEFAULT_ORDER,
    MAX_ORDER,
    MIN_ORDER,
    InsufficientPrecision,
    LaurentSeries,
    SeriesError,
    _Frozen,
    check_order,
)


class UnknownIdentity(KeyError):
    """Lookup of an id that is not in the registry."""


class EvalError(SeriesError):
    """A series error, annotated with the path to the failing expression node."""

    def __init__(self, path: str, cause: Exception):
        self.path = path
        self.cause = cause
        super().__init__(f"{path}: {cause}")


# ----------------------------------------------------------------------
# evaluation


_THETA = {Pi: theta.pi_product, Psi: theta.psi, Phi: theta.phi}

_BINARY = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: operator.truediv}


def _apply(path: str, op, *args) -> LaurentSeries:
    """op(*args), with a series error annotated with path."""
    try:
        return op(*args)
    except SeriesError as err:
        raise EvalError(path, err) from err


def _eval(e: Expr, order: int, path: str) -> LaurentSeries:
    match e:
        case Builder(k):
            return _apply(path, _THETA[type(e)], k, order)
        case QPow():
            exp = e.t_exponent
            return _apply(path, LaurentSeries.monomial, exp, order + max(exp, 0))
        case Const(value):
            return _apply(path, LaurentSeries.constant, value, order)
        case Binary(left, right):
            node = f"{path}/{type(e).__name__}"
            lhs = _eval(left, order, f"{node}.left")
            rhs = _eval(right, order, f"{node}.right")
            return _apply(node, _BINARY[type(e)], lhs, rhs)
        case PowInt(base, exponent):
            base = _eval(base, order, f"{path}/PowInt.base")
            return _apply(f"{path}/PowInt", pow, base, exponent)
        case Sqrt(arg):
            arg = _eval(arg, order, f"{path}/Sqrt.arg")
            return _apply(f"{path}/Sqrt", LaurentSeries.sqrt, arg)
    raise TypeError(f"not an expression node: {e!r}")


def evaluate(e: Expr, order: int) -> LaurentSeries:
    """Evaluate an expression tree to a Laurent series with tracked order.

    A tree whose root records a ``depth`` past ``dsl.MAX_DEPTH`` raises
    ValueError; an order :func:`check_order` rejects raises its TypeError or UsageError.
    """
    check_order(order)
    check_depth(e)
    return _eval(e, order, "")


# ----------------------------------------------------------------------
# registry


class IdentityRecord(_Frozen):
    """A registered identity: two expression trees plus catalog labelling."""

    id: str
    label: str
    lhs: Expr
    rhs: Expr
    sign_variant: str | None = None

    @property
    def lhs_text(self) -> str:
        return to_text(self.lhs)

    @property
    def rhs_text(self) -> str:
        return to_text(self.rhs)


class FirstFailure(_Frozen):
    exponent: int
    lhs: Fraction
    rhs: Fraction


class VerifyReport(_Frozen):
    """Outcome of comparing the two sides of an identity as series."""

    id: str
    status: str                      # 'verified' | 'falsified' | 'error'
    order: int
    valid_order: int | None = None
    first_failure: FirstFailure | None = None
    error: str | None = None
    elapsed: float = 0.0


_RECORDS: dict[str, IdentityRecord] | None = None
"""The registry by id; None until :func:`_records` first builds it."""


def _build_registry() -> dict[str, IdentityRecord]:
    records: dict[str, IdentityRecord] = {}

    def register(label: str, lhs_text: str, rhs_text: str, sign: str | None = None) -> None:
        ident = f"EQ{label}" + (sign or "")
        if ident in records:
            raise ValueError(f"duplicate identity id {ident}")
        records[ident] = IdentityRecord(
            id=ident, label=label, lhs=parse(lhs_text), rhs=parse(rhs_text), sign_variant=sign
        )

    def register_pm(label: str, lhs_template: str, rhs_template: str) -> None:
        for sign, pm, mp in (("+", "+", "-"), ("-", "-", "+")):
            lhs = lhs_template.replace("{pm}", pm).replace("{mp}", mp)
            rhs = rhs_template.replace("{pm}", pm).replace("{mp}", mp)
            register(label, lhs, rhs, sign)

    # -- family in Pi_q, Pi_{q^2}, Pi_{q^3}, Pi_{q^6} (plus Pi_{q^4}, Pi_{q^9})
    register("1-1", "Pi(q)^2 / (Pi(q^2) * Pi(q^4)) - Pi(q^2)^2 / Pi(q^4)^2", "4")
    register(
        "1-6",
        "Pi(q^3)^2 + 3 * Pi(q) * Pi(q^9)",
        "sqrt(Pi(q) * Pi(q^9)) * (Pi(q) + 3 * Pi(q^9))",
    )
    register(
        "11-2",
        "Pi(q^2) * Pi(q^3)^2 / (Pi(q^6) * Pi(q)^2)",
        "(Pi(q^2) - Pi(q^6)) / (Pi(q^2) + 3 * Pi(q^6))",
    )
    register(
        "11-5",
        "Pi(q^2) * Pi(q^3)^4",
        "Pi(q^6) * (Pi(q^2) - Pi(q^6))^3 * (Pi(q^2) + 3 * Pi(q^6))",
    )
    register(
        "11-6",
        "Pi(q^6) * Pi(q)^4",
        "Pi(q^2) * (Pi(q^2) - Pi(q^6)) * (Pi(q^2) + 3 * Pi(q^6))^3",
    )
    register(
        "11-4",
        "sqrt(Pi(q^2) * Pi(q^6)) * (Pi(q)^2 - 3 * Pi(q^3)^2)",
        "sqrt(Pi(q) * Pi(q^3)) * (Pi(q^2)^2 + 3 * Pi(q^6)^2)",
    )
    register(
        "11-7",
        "Pi(q^2)^2 * (Pi(q)^4 + 18 * Pi(q)^2 * Pi(q^3)^2 - 27 * Pi(q^3)^4)",
        "Pi(q) * Pi(q^3) * (Pi(q)^4 + 16 * Pi(q^2)^4)",
    )
    register(
        "11-8",
        "Pi(q^6)^2 * (Pi(q)^4 - 6 * Pi(q)^2 * Pi(q^3)^2 - 3 * Pi(q^3)^4)",
        "Pi(q) * Pi(q^3) * (Pi(q^3)^4 + 16 * Pi(q^6)^4)",
    )
    register_pm(
        "11-9",
        "Pi(q) * Pi(q^3) * (Pi(q)^2 {pm} 4 * Pi(q^2)^2)^2",
        "Pi(q^2)^2 * (Pi(q) {mp} Pi(q^3)) * (Pi(q) {pm} 3 * Pi(q^3))^3",
    )
    register_pm(
        "11-10",
        "Pi(q) * Pi(q^3) * (Pi(q^3)^2 {pm} 4 * Pi(q^6)^2)^2",
        "Pi(q^6)^2 * (Pi(q) {mp} Pi(q^3))^3 * (Pi(q) {pm} 3 * Pi(q^3))",
    )

    # -- the same family written in psi quotients
    register(
        "21-1",
        "psi(q^2)^2 * psi(q^3)^4 / (psi(q^6)^2 * psi(q)^4)",
        "(psi(q^2)^2 - q^1 * psi(q^6)^2) / (psi(q^2)^2 + 3 * q^1 * psi(q^6)^2)",
    )
    register(
        "21-2",
        "psi(q^6)^2 / psi(q^2)^2 * (psi(q)^8 / psi(q^2)^8)",
        "(1 - q^1 * psi(q^6)^2 / psi(q^2)^2) * (1 + 3 * q^1 * psi(q^6)^2 / psi(q^2)^2)^3",
    )
    register(
        "21-3",
        "psi(q^2) * psi(q^6) * (psi(q)^4 - 3 * q^1 * psi(q^3)^4)",
        "psi(q) * psi(q^3) * (psi(q^2)^4 + 3 * q^2 * psi(q^6)^4)",
    )
    register(
        "21-4",
        "psi(q^3)^2 / psi(q)^2 * (1 + 16 * q^1 * psi(q^2)^8 / psi(q)^8)",
        "psi(q^2)^4 / psi(q)^4 "
        "* (1 + 18 * q^1 * psi(q^3)^4 / psi(q)^4 - 27 * q^2 * psi(q^3)^8 / psi(q)^8)",
    )
    register(
        "21-5",
        "psi(q)^2 / psi(q^3)^2 * (1 + 16 * q^3 * psi(q^6)^8 / psi(q^3)^8)",
        "psi(q^6)^4 / psi(q^3)^4 "
        "* (psi(q)^8 / psi(q^3)^8 - 6 * q^1 * psi(q)^4 / psi(q^3)^4 - 3 * q^2)",
    )
    register_pm(
        "21-6",
        "psi(q^3)^2 / psi(q)^2 * (1 {pm} 4 * q^1/2 * psi(q^2)^4 / psi(q)^4)^2",
        "psi(q^2)^4 / psi(q)^4 * (1 {mp} q^1/2 * psi(q^3)^2 / psi(q)^2) "
        "* (1 {pm} 3 * q^1/2 * psi(q^3)^2 / psi(q)^2)^3",
    )
    register_pm(
        "21-7",
        "psi(q)^2 / psi(q^3)^2 * (1 {pm} 4 * q^3/2 * psi(q^6)^4 / psi(q^3)^4)^2",
        "psi(q^6)^4 / psi(q^3)^4 * (psi(q)^2 / psi(q^3)^2 {mp} q^1/2)^3 "
        "* (psi(q)^2 / psi(q^3)^2 {pm} 3 * q^1/2)",
    )

    # -- family in Pi_q, Pi_{q^2}, Pi_{q^5}, Pi_{q^10}
    register(
        "1-7",
        "Pi(q^2) * Pi(q^5)^4 * (16 * Pi(q^10)^4 - Pi(q^5)^4)",
        "Pi(q^10)^3 * (5 * Pi(q^10) - Pi(q^2)) * (Pi(q^2) - Pi(q^10))^5",
    )
    register(
        "1-2",
        "Pi(q^10) * Pi(q)^4 * (16 * Pi(q^2)^4 - Pi(q)^4)",
        "Pi(q^2)^3 * (5 * Pi(q^10) - Pi(q^2))^5 * (Pi(q^2) - Pi(q^10))",
    )
    register(
        "1-3",
        "Pi(q) * Pi(q^5) * (16 * Pi(q^2)^4 - Pi(q)^4)^2",
        "Pi(q^2)^4 * (5 * Pi(q^5) - Pi(q))^5 * (Pi(q^5) - Pi(q))",
    )
    register(
        "1-4",
        "Pi(q) * Pi(q^5) * (16 * Pi(q^10)^4 - Pi(q^5)^4)^2",
        "Pi(q^10)^4 * (5 * Pi(q^5) - Pi(q)) * (Pi(q^5) - Pi(q))^5",
    )
    register(
        "1-5",
        "(Pi(q) * Pi(q^10) - Pi(q^2) * Pi(q^5))^2",
        "Pi(q^2) * Pi(q^10) * (Pi(q^5) - Pi(q)) * (5 * Pi(q^5) - Pi(q))",
    )

    # -- the same family written in psi quotients
    register(
        "3-1",
        "psi(q^2)^2 / psi(q^10)^2 * (psi(q^5)^8 / psi(q^10)^8) "
        "* (16 * q^5 - psi(q^5)^8 / psi(q^10)^8)",
        "(5 * q^2 - psi(q^2)^2 / psi(q^10)^2) * (psi(q^2)^2 / psi(q^10)^2 - q^2)^5",
    )
    register(
        "3-2",
        "psi(q^10)^2 / psi(q^2)^2 * (psi(q)^8 / psi(q^2)^8) "
        "* (16 * q^1 - psi(q)^8 / psi(q^2)^8)",
        "(5 * q^2 * psi(q^10)^2 / psi(q^2)^2 - 1)^5 * (1 - q^2 * psi(q^10)^2 / psi(q^2)^2)",
    )
    register(
        "3-3",
        "psi(q^5)^2 / psi(q)^2 * (16 * q^1 * psi(q^2)^8 / psi(q)^8 - 1)^2",
        "psi(q^2)^8 / psi(q)^8 * (5 * q^1 * psi(q^5)^2 / psi(q)^2 - 1)^5 "
        "* (q^1 * psi(q^5)^2 / psi(q)^2 - 1)",
    )
    register(
        "3-4",
        "psi(q)^2 / psi(q^5)^2 * (16 * q^5 * psi(q^10)^8 / psi(q^5)^8 - 1)^2",
        "psi(q^10)^8 / psi(q^5)^8 * (5 * q^1 - psi(q)^2 / psi(q^5)^2) "
        "* (q^1 - psi(q)^2 / psi(q^5)^2)^5",
    )
    register(
        "3-5",
        "(q^1 * psi(q)^2 / psi(q^5)^2 - psi(q^2)^2 / psi(q^10)^2)^2",
        "psi(q^2)^2 / psi(q^10)^2 * (q^1 - psi(q)^2 / psi(q^5)^2) "
        "* (5 * q^1 - psi(q)^2 / psi(q^5)^2)",
    )

    assert len(records) == 31
    return records


def _records() -> dict[str, IdentityRecord]:
    """The registry, parsed on first use: a run that reads no record parses no side.

    The finished dictionary is published in one assignment, so a concurrent
    first use sees either no registry or all of it.
    """
    global _RECORDS
    if _RECORDS is None:
        _RECORDS = _build_registry()
    return _RECORDS


def list_identities() -> tuple[IdentityRecord, ...]:
    """All registered identities, sorted by id."""
    records = _records()
    return tuple(records[k] for k in sorted(records))


def get_identity(ident: str) -> IdentityRecord:
    try:
        return _records()[ident]
    except KeyError:
        raise UnknownIdentity(ident) from None


def known_ids() -> tuple[str, ...]:
    return tuple(sorted(_records()))


# ----------------------------------------------------------------------
# verification


def verify_sides(ident: str, lhs: Expr, rhs: Expr, order: int) -> VerifyReport:
    """Compare two expression sides as series; the core of :func:`verify`."""
    started = time.perf_counter()

    def report(status: str, **fields) -> VerifyReport:
        elapsed = time.perf_counter() - started
        return VerifyReport(id=ident, status=status, order=order, elapsed=elapsed, **fields)

    try:
        left = evaluate(lhs, order)
        right = evaluate(rhs, order)
    except SeriesError as err:
        return report("error", error=str(err))
    try:
        diff = left.compare(right)
    except InsufficientPrecision as err:
        valid = min(left.order, right.order)
        return report("error", valid_order=valid, error=f"InsufficientPrecision: {err}")
    if diff.is_zero:
        return report("verified", valid_order=diff.order)
    exp = diff.valuation
    failure = FirstFailure(exponent=exp, lhs=left.coefficient(exp), rhs=right.coefficient(exp))
    return report("falsified", valid_order=diff.order, first_failure=failure)


def verify(ident: str, order: int = DEFAULT_ORDER) -> VerifyReport:
    """Verify a registered identity at the given t-order."""
    rec = get_identity(ident)
    return verify_sides(rec.id, rec.lhs, rec.rhs, order)


def verify_all(order: int = DEFAULT_ORDER) -> list[VerifyReport]:
    """Verify the whole catalog; reports are ordered by id."""
    return [verify(ident, order) for ident in known_ids()]
