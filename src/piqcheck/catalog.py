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

Evaluation is one walk over the nodes, which reads a node's subtrees from
its first ``arity`` fields (see :mod:`.dsl`).  A leaf's value comes from one
table, ``_LEAVES``: a function of the leaf's fields and the order, and the
walk's only link to series.  Any other node applies its entry in
``_OPERATORS`` (``+ - * /``, ``pow``, ``sqrt``) to its subtrees' values and
its other fields.  A failure names the path to its node, built from the
field names, as ``/Add.right/Sqrt``.

A run evaluates each distinct subtree of its sides once.  The sides are
interned first (:class:`_Plan`), so equal subtrees share one key, and a
value is kept from its first walk to its last.  :func:`verify_all` makes
its 62 sides one run, and :func:`verify_sides` its own two.  So the
``elapsed`` of a report leaves out a subtree shared with an earlier
identity of the run: that identity was charged for it.
"""

from __future__ import annotations

import operator
import time
from fractions import Fraction

from . import theta
from .dsl import (
    Add,
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
# the default order and the order bounds are the exact module's own
# objects, re-exported here
from .exact import (
    DEFAULT_ORDER,
    MAX_ORDER,
    MIN_ORDER,
    InsufficientPrecision,
    SeriesError,
    _Frozen,
    check_order,
)
from .series import LaurentSeries


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


def _monomial(r: Fraction, order: int) -> LaurentSeries:
    """q^r, the monomial t^(4r), known to t^order or order terms past its
    exponent, whichever is further."""
    exp = int(4 * r)
    return LaurentSeries.monomial(exp, order + max(exp, 0))


_LEAVES = {
    Pi: theta.pi_product,
    Psi: theta.psi,
    Phi: theta.phi,
    QPow: _monomial,
    Const: LaurentSeries.constant,
}
"""The value of a leaf node: a function of its fields and the order."""

_OPERATORS = {
    Add: operator.add,
    Sub: operator.sub,
    Mul: operator.mul,
    Div: operator.truediv,
    PowInt: pow,
    Sqrt: operator.methodcaller("sqrt"),
}
"""The value of any other node: a function of its subtrees' values, then its other fields."""


def _apply(path: str, op, *args) -> LaurentSeries:
    """op(*args), with a series error annotated with path."""
    try:
        return op(*args)
    except SeriesError as err:
        raise EvalError(path, err) from err


class _Plan:
    """The distinct subtrees of one run's sides, each evaluated once at the run's order.

    Interning gives each subtree a key, an int, from its node class, its
    own fields and its children's keys, so that equal subtrees get one key
    and a lookup reads only the node itself: no subtree is hashed whole,
    and the key is never the identity of a node object.  ``children[key]``
    holds the keys of a node's children in order, so :func:`_eval` walks a
    tree and its keys together.  ``uses[key]`` counts the walks that will
    reach the key: one per side it is the root of, and one per child slot
    of each distinct parent.  A value is kept only while walks remain, and
    a failure keeps nothing, so each later occurrence of a failing subtree
    raises again with its own path.  A plan belongs to one run: no state is
    shared between runs or threads.
    """

    def __init__(self, order: int, sides) -> None:
        check_order(order)
        for side in sides:
            check_depth(side)  # interning recurses once per level
        self.keys: dict[tuple, int] = {}
        self.children: list[tuple[int, ...]] = []
        self.uses: list[int] = []
        self.values: dict[int, LaurentSeries] = {}
        # the plan holds its sides, so an identity test finds a side's key
        self.sides = [(side, self.intern(side)) for side in sides]
        for _, key in self.sides:
            self.uses[key] += 1

    def root(self, e: Expr) -> int:
        """The key of e, one of the plan's sides; any other tree is interned now."""
        for side, key in self.sides:
            if side is e:
                return key
        return self.intern(e)

    def intern(self, e: Expr) -> int:
        """The key of e's tree, interning each subtree not seen before."""
        cls = type(e)
        if cls not in _LEAVES and cls not in _OPERATORS:  # an abstract node too
            raise TypeError(f"not an expression node: {e!r}")
        fields, arity = e._values(e), cls.arity
        kids = tuple(map(self.intern, fields[:arity]))
        signature = (cls, *kids, *fields[arity:])
        key = self.keys.get(signature)
        if key is None:
            key = self.keys[signature] = len(self.children)
            self.children.append(kids)
            self.uses.append(0)
            for kid in kids:
                self.uses[kid] += 1
        return key


def _eval(e: Expr, order: int, path: str, plan: _Plan, key: int) -> LaurentSeries:
    """The series of e, whose key in plan is ``key``.

    A value an earlier walk stored is read, and dropped at its last use; a
    value computed here is stored while later walks will reach its key.
    """
    plan.uses[key] -= 1
    value = plan.values.get(key)
    if value is not None:
        if not plan.uses[key]:
            del plan.values[key]
        return value
    cls, fields = type(e), e._values(e)
    if not cls.arity:
        value = _apply(path, _LEAVES[cls], *fields, order)
    else:
        node = f"{path}/{cls.__name__}"
        args = []
        for sub, name, kid in zip(fields, cls.__match_args__, plan.children[key]):
            args.append(_eval(sub, order, f"{node}.{name}", plan, kid))
        value = _apply(node, _OPERATORS[cls], *args, *fields[cls.arity :])
    if plan.uses[key] > 0:
        plan.values[key] = value
    return value


def evaluate(e: Expr, order: int, plan: _Plan | None = None) -> LaurentSeries:
    """Evaluate an expression tree to a Laurent series with tracked order.

    A tree whose root records a ``depth`` past ``dsl.MAX_DEPTH`` raises
    ValueError; an order :func:`check_order` rejects raises its TypeError or UsageError.
    ``plan``, when given, is the run's plan, built at this order with e
    among its sides; its stored subtrees are read instead of evaluated again.
    """
    check_order(order)
    check_depth(e)
    plan = plan or _Plan(order, (e,))
    return _eval(e, order, "", plan, plan.root(e))


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


def verify_sides(
    ident: str, lhs: Expr, rhs: Expr, order: int, plan: _Plan | None = None
) -> VerifyReport:
    """Compare two expression sides as series; the core of :func:`verify`.

    ``plan`` is the run's plan (see :func:`evaluate`); without one, the two
    sides get their own, so a subtree they share is evaluated once.
    """
    started = time.perf_counter()
    plan = plan or _Plan(order, (lhs, rhs))

    def report(status: str, **fields) -> VerifyReport:
        elapsed = time.perf_counter() - started
        return VerifyReport(id=ident, status=status, order=order, elapsed=elapsed, **fields)

    try:
        left = evaluate(lhs, order, plan)
        right = evaluate(rhs, order, plan)
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


def verify(ident: str, order: int = DEFAULT_ORDER, plan: _Plan | None = None) -> VerifyReport:
    """Verify a registered identity at the given t-order, within the run of ``plan``."""
    rec = get_identity(ident)
    return verify_sides(rec.id, rec.lhs, rec.rhs, order, plan)


def verify_all(order: int = DEFAULT_ORDER) -> list[VerifyReport]:
    """Verify the whole catalog; reports are ordered by id.

    The 62 sides share one plan, so each distinct subtree of the catalog is
    evaluated once, by the first identity that reaches it.
    """
    records = list_identities()
    plan = _Plan(order, [side for rec in records for side in (rec.lhs, rec.rhs)])
    return [verify(rec.id, order, plan) for rec in records]
