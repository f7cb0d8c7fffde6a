"""Degree-3 and degree-5 modular-equation computations in Q(m)[s].

The multiplier parametrizations express the modular parameters alpha and beta
(and the radicals built from them) as explicit elements of a quadratic
extension of the rational function field Q(m): s^2 = (m-1)(m+3)/m for degree
3 and rho^2 = m^3 - 2m^2 + 5m for degree 5.  Each is written once, as plain
ring arithmetic: ``_modulus3``/``_modulus5`` give the radicand,
``_alpha_beta3``/``_alpha_beta5`` alpha, beta and the atoms they need, and
``_atoms3``/``_atoms5`` every atom, keyed by table field, from m and the
root.  They use only ``+ - * / **`` with ints, so the same functions build
the tables over Q(m)(s) and feed the series bridge below.

Every radical atom is validated by raising it back to the matching power and
comparing with the rational function it is supposed to be a root of; only
then are the equation goals assembled.  Each goal builds its left and right
sides independently from the atoms and reports whether the two canonical
forms coincide.  Where a known closed form of the common value exists, the
report also records whether the computed value matches it; that comparison is
informational and never decides the proof (``sides_equal`` is the theorem).

Both degrees build one kind of table, :class:`ParamTable`: its ``atoms``
are the dict that ``_atoms3``/``_atoms5`` return at m in Q(m)(s), so an
atom's name is written once, there, and ``t.alpha`` reads it.  A table's
``goals`` and ``references`` are built on first use and then kept, so
proving every goal of a degree builds that degree's goals once.  Importing
the module builds nothing and loads no layer: :mod:`.field` loads with the
first table, :mod:`.theta` and the series with the first bridge.  Both
degrees share one proving body; a report's ``elapsed`` covers that goal's
own comparisons, not the shared build.

The series bridge, :func:`check_param_series`, evaluates ``_alpha_beta*``
alone at the multiplier series m (and for degree 5 the positive-branch root
of the modulus there), and compares alpha and beta with the theta-series
alpha and beta.  A wrong alpha or beta formula therefore reaches the
bridge, not only the table.
"""

from __future__ import annotations

import time
from fractions import Fraction
from functools import cached_property

from .exact import InsufficientPrecision, _Frozen, check_order

# as in cli; the prover imports field, and the bridge theta, where each runs
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .field import QuadExt, RatFunc
    from .series import LaurentSeries


class ModularError(ValueError):
    """A parametrization atom failed its power-back-substitution check."""


class ParamTable(_Frozen):
    """Validated atoms of one degree over s^2 = u, with its goals and references.

    ``atoms`` maps each name that ``_atoms3``/``_atoms5`` return to its value
    in Q(m)(s); ``t.alpha`` is ``t.atoms["alpha"]``.
    """

    degree: int
    u: RatFunc
    atoms: dict[str, QuadExt]

    def __hash__(self) -> int:
        # atoms, a dict, takes part in == only; equal tables have equal degree and u
        return hash((self.degree, self.u))

    def __getattr__(self, name: str) -> QuadExt:
        # called only for names that are not fields, methods or cached values
        atoms = vars(self).get("atoms", {})
        if name not in atoms:
            raise AttributeError(f"{type(self).__name__!r} object has no atom {name!r}")
        return atoms[name]

    def scalar(self, value) -> QuadExt:
        from .field import QuadExt

        return QuadExt.scalar(value, self.u)

    @cached_property
    def goals(self) -> dict[str, tuple[QuadExt, QuadExt]]:
        """Both sides of every goal of this degree, built on first use."""
        return (_goals3 if self.degree == 3 else _goals5)(self)

    @cached_property
    def references(self) -> dict[str, tuple[RatFunc | None, QuadExt]]:
        """Recorded closed forms of the common values, built on first use."""
        return (_reference_quotients3 if self.degree == 3 else _reference_quotients5)(self.u)


# ----------------------------------------------------------------------
# the parametrizations, each written once: ring arithmetic that runs over
# Q(m)(s) for the tables and over Laurent series for check_param_series


def _modulus3(m):
    """s^2 for the degree-3 multiplier m."""
    return (m - 1) * (m + 3) / m


def _alpha_beta3(m):
    """alpha and beta at the degree-3 multiplier m; neither involves s."""
    return {
        "alpha": (m - 1) * (m + 3) ** 3 / (16 * m**3),
        "beta": (m - 1) ** 3 * (m + 3) / (16 * m),
    }


def _atoms3(m, s):
    """The degree-3 atoms at m and s, keyed by atom name."""
    # quarter_ba = (m / (m + 3)) s, written as the inverse of quarter_ab
    quarter_ab = s / (m - 1)
    return {
        **_alpha_beta3(m),
        "sqrt_alpha": s * ((m + 3) / (4 * m)),
        "sqrt_beta": s * ((m - 1) / 4),
        "quarter_ba": 1 / quarter_ab,
        "quarter_ab": quarter_ab,
        "sqrt_ba": m * (m - 1) / (m + 3),
        "eighth_ab": s / 2,
        "m": m,
    }


def _modulus5(m):
    """rho^2 for the degree-5 multiplier m."""
    return m**3 - 2 * m**2 + 5 * m


def _alpha_beta5(m, rho):
    """alpha and beta at the degree-5 multiplier m and rho, with the atoms they need."""
    quarter_ab = (2 * m + rho) / (m * (m - 1))
    quarter_ba = (2 * m - rho) / (5 - m)
    sqrt_ab_prod = (4 * m**3 - 16 * m**2 + 20 * m + rho * (m**2 - 5)) / (16 * m**2)
    return {
        "alpha": quarter_ab**2 * sqrt_ab_prod,
        "beta": quarter_ba**2 * sqrt_ab_prod,
        "quarter_ab": quarter_ab,
        "quarter_ba": quarter_ba,
        "sqrt_ab_prod": sqrt_ab_prod,
    }


def _atoms5(m, rho):
    """The degree-5 atoms at m and rho, keyed by atom name.

    1 - alpha and 1 - beta, and their roots, are alpha and beta, and theirs,
    on the other branch rho -> -rho.
    """
    ab, other = _alpha_beta5(m, rho), _alpha_beta5(m, -rho)
    return {
        "alpha": ab["alpha"],
        "beta": ab["beta"],
        "one_minus_alpha": other["alpha"],
        "one_minus_beta": other["beta"],
        "quarter_ab": ab["quarter_ab"],
        "quarter_ba": ab["quarter_ba"],
        "quarter_1b1a": other["quarter_ba"],
        "quarter_1a1b": other["quarter_ab"],
        "sqrt_ab_prod": ab["sqrt_ab_prod"],
        "sqrt_1a1b_prod": other["sqrt_ab_prod"],
        "m": m,
    }


def _require(lhs: QuadExt, rhs: QuadExt, what: str) -> None:
    from .field import quadext_equal

    if not quadext_equal(lhs, rhs):
        raise ModularError(f"atom validation failed: {what}")


def _table(degree: int, modulus, atoms) -> ParamTable:
    """The atoms at m and the root s of u = modulus(m), all in Q(m)(s)."""
    from .field import M, QuadExt, RatFunc

    u = modulus(RatFunc.of(M))
    return ParamTable(degree, u, atoms(QuadExt.scalar(M, u), QuadExt.root(u)))


def build_table3() -> ParamTable:
    """Evaluate and validate the degree-3 atoms over s^2 = (m-1)(m+3)/m."""
    t = _table(3, _modulus3, _atoms3)

    _require(t.sqrt_alpha**2, t.alpha, "(alpha^(1/2))^2 = alpha")
    _require(t.sqrt_beta**2, t.beta, "(beta^(1/2))^2 = beta")
    _require(t.quarter_ba**4, t.beta / t.alpha, "((beta/alpha)^(1/4))^4 = beta/alpha")
    _require(t.quarter_ab**4, t.alpha / t.beta, "((alpha/beta)^(1/4))^4 = alpha/beta")
    _require(t.sqrt_ba**2, t.beta / t.alpha, "((beta/alpha)^(1/2))^2 = beta/alpha")
    _require(t.quarter_ba**2, t.sqrt_ba, "(beta/alpha)^(1/4) squares to (beta/alpha)^(1/2)")
    _require(t.eighth_ab**8, t.alpha * t.beta, "((alpha*beta)^(1/8))^8 = alpha*beta")
    _require(t.quarter_ba * t.quarter_ab, t.scalar(1), "quarter roots are mutual inverses")
    return t


def build_table5() -> ParamTable:
    """Evaluate and validate the degree-5 atoms over rho^2 = m^3 - 2m^2 + 5m."""
    from .field import M, QuadExt

    t = _table(5, _modulus5, _atoms5)
    rho = QuadExt.root(t.u)

    one = t.scalar(1)
    _require(t.alpha + t.one_minus_alpha, one, "alpha + (1-alpha) = 1")
    _require(t.beta + t.one_minus_beta, one, "beta + (1-beta) = 1")
    _require(t.quarter_ab * t.quarter_ba, one, "quarter roots are mutual inverses")
    _require(t.quarter_ab**4, t.alpha / t.beta, "((alpha/beta)^(1/4))^4 = alpha/beta")
    _require(t.quarter_ba**4, t.beta / t.alpha, "((beta/alpha)^(1/4))^4 = beta/alpha")
    _require(
        t.quarter_1b1a**4, t.one_minus_beta / t.one_minus_alpha,
        "(((1-beta)/(1-alpha))^(1/4))^4 = (1-beta)/(1-alpha)",
    )
    _require(
        t.quarter_1a1b**4, t.one_minus_alpha / t.one_minus_beta,
        "(((1-alpha)/(1-beta))^(1/4))^4 = (1-alpha)/(1-beta)",
    )
    _require(t.sqrt_ab_prod**2, t.alpha * t.beta, "((alpha*beta)^(1/2))^2 = alpha*beta")
    _require(
        t.sqrt_1a1b_prod**2, t.one_minus_alpha * t.one_minus_beta,
        "(((1-alpha)(1-beta))^(1/2))^2 = (1-alpha)(1-beta)",
    )
    _require(
        (2 * t.m + rho) * (2 * t.m - rho), t.scalar(M * (M - 1) * (5 - M)),
        "(2m+rho)(2m-rho) = m(m-1)(5-m)",
    )
    return t


# ----------------------------------------------------------------------
# proof goals


class ProofReport(_Frozen):
    """Outcome of one equation goal replayed as a canonical-form computation."""

    eq_id: str
    degree: int
    lhs: QuadExt
    rhs: QuadExt
    sides_equal: bool
    paper_form_match: bool | None = None
    computed_form: str | None = None
    reference_form: str | None = None
    elapsed: float = 0.0


def _goals3(t: ParamTable) -> dict[str, tuple[QuadExt, QuadExt]]:
    m = t.m
    one = t.scalar(1)
    inv_m = m.inverse()
    goals: dict[str, tuple[QuadExt, QuadExt]] = {}

    goals["4-1"] = (m - t.sqrt_ba, one + 3 * inv_m * t.sqrt_ba)
    goals["4-2"] = (
        m**2 * t.alpha + 3 * t.beta,
        2 * t.eighth_ab * (m**2 * t.sqrt_alpha - 3 * t.sqrt_beta),
    )
    goals["4-3"] = (
        16 * inv_m * t.sqrt_ba,
        t.alpha * (one - inv_m * t.sqrt_ba) * (one + 3 * inv_m * t.sqrt_ba) ** 3,
    )
    goals["4-4"] = (
        inv_m * t.quarter_ba * (one + t.alpha),
        t.sqrt_alpha / 4
        * (one + 18 * inv_m**2 * t.sqrt_ba - 27 * inv_m**4 * (t.beta / t.alpha)),
    )
    goals["4-5"] = (
        m * t.quarter_ab * (one + t.beta),
        t.sqrt_beta / 4
        * (m**4 * (t.alpha / t.beta) - 6 * m**2 * (t.sqrt_ba.inverse()) - 3 * one),
    )
    for tag, sgn in (("+", 1), ("-", -1)):
        pm = t.scalar(sgn)
        goals[f"4-6{tag}"] = (
            inv_m * t.quarter_ba * (one + pm * t.sqrt_alpha) ** 2,
            t.sqrt_alpha / 4
            * (one - pm * inv_m * t.quarter_ba)
            * (one + 3 * pm * inv_m * t.quarter_ba) ** 3,
        )
        goals[f"44-7{tag}"] = (
            m * t.quarter_ab * (one + pm * t.sqrt_beta) ** 2,
            t.sqrt_beta / 4
            * (m * t.quarter_ab - pm * one) ** 3
            * (m * t.quarter_ab + 3 * pm * one),
        )
    return goals


def _goals5(t: ParamTable) -> dict[str, tuple[QuadExt, QuadExt]]:
    m = t.m
    one = t.scalar(1)
    big = m * t.quarter_ab**2          # m (alpha/beta)^(1/2)
    small = m * t.quarter_ab           # m (alpha/beta)^(1/4)
    big_inv = t.quarter_ba**2 / m      # (1/m)(beta/alpha)^(1/2)
    small_inv = t.quarter_ba / m       # (1/m)(beta/alpha)^(1/4)
    inv_alpha = t.alpha.inverse()
    inv_beta = t.beta.inverse()

    goals: dict[str, tuple[QuadExt, QuadExt]] = {}
    goals["2-1"] = (
        256 * big * inv_beta * (one - inv_beta),
        (5 * one - big) * (big - one) ** 5,
    )
    goals["2-2"] = (
        256 * big_inv * inv_alpha * (one - inv_alpha),
        (5 * big_inv - one) ** 5 * (one - big_inv),
    )
    goals["2-3"] = (
        small_inv * (t.alpha - one) ** 2,
        t.alpha * Fraction(1, 16) * (5 * small_inv - one) ** 5 * (small_inv - one),
    )
    goals["2-4"] = (
        small * (t.beta - one) ** 2,
        t.beta * Fraction(1, 16) * (5 * one - small) * (one - small) ** 5,
    )
    goals["2-5"] = (
        (small - big) ** 2,
        big * (one - small) * (5 * one - small),
    )
    return goals


# Known closed forms of the common canonical values (informational comparison).
# Each entry is (prefactor, reference): the common value divided by the
# prefactor must equal the reference; a prefactor of None compares the common
# value itself.
def _reference_quotients3(u: RatFunc) -> dict[str, tuple[RatFunc | None, QuadExt]]:
    from .field import M, Poly, QuadExt, RatFunc

    s = QuadExt.root(u)
    return {
        "4-2": (None, QuadExt.scalar(RatFunc.of((M - 1) * (M + 3) * (M**2 + 3), 4 * M), u)),
        "4-4": (None, s * RatFunc.of(Poly((-27, 0, 18, 24, 1)), 16 * M**3 * (M + 3))),
        "4-5": (None, s * RatFunc.of(Poly((-3, 24, -6, 0, 1)), 16 * (M - 1))),
    }


def _reference_quotients5(u: RatFunc) -> dict[str, tuple[RatFunc | None, QuadExt]]:
    from .field import M, Poly, QuadExt, RatFunc

    rho = QuadExt.root(u)
    lift = lambda p: QuadExt.scalar(p, u)

    a_rat = Poly((0, -28, -504, -1280, -40, -40, -200, 64, -24, 4))
    a_rho = Poly((-1, -70, -470, -470, 80, -98, 6, -2, 1))
    b_rat = Poly((0, -18, -102, -4, 4, -10, 2))
    b_rho = Poly((-1, -27, -42, 10, -5, 1))
    c_rat = Poly((0, -1562500, 1875000, -1000000, 625000, 25000, 5000, 32000, 2520, 28))
    c_rho = Poly((390625, -156250, 93750, -306250, 50000, -58750, -11750, -350, -1))
    d_rat = Poly((0, -6250, 6250, -500, 100, 510, 18))
    d_rho = Poly((3125, -3125, 1250, -1050, -135, -1))
    common_2_5 = (lift(Poly((1, 7, -1, 1))) + rho * (2 * M + 2)) \
        * RatFunc.of((M - 5) ** 2, (M - 1) ** 4)

    return {
        "2-1": (RatFunc.of(4, (M - 1) ** 2), lift(a_rat) + rho * a_rho),
        "2-2": (RatFunc.of(-4096 * M**2, (M - 5) ** 12), lift(c_rat) + rho * c_rho),
        "2-3": (RatFunc.of(1 - M, 256 * M**6 * (M - 5)), lift(d_rat) + rho * d_rho),
        "2-4": (RatFunc.of(M - 5, 256 * M * (M - 1)), lift(b_rat) + rho * b_rho),
        "2-5": (None, common_2_5),
    }


DEGREE3_EQUATIONS = ("4-1", "4-2", "4-3", "4-4", "4-5", "4-6+", "4-6-", "44-7+", "44-7-")
DEGREE5_EQUATIONS = ("2-1", "2-2", "2-3", "2-4", "2-5")
EQUATIONS = {3: DEGREE3_EQUATIONS, 5: DEGREE5_EQUATIONS}


def _prove(t: ParamTable, eq_id: str) -> ProofReport:
    """Compare the two sides of one goal, then its common value with the record.

    The table's goals and references are built before the clock starts, so
    ``elapsed`` covers this goal's own comparisons only.
    """
    from .field import quadext_equal

    goals, references = t.goals, t.references
    if eq_id not in goals:
        raise KeyError(
            f"unknown degree-{t.degree} equation {eq_id!r}; expected one of {EQUATIONS[t.degree]}"
        )
    started = time.perf_counter()
    lhs, rhs = goals[eq_id]
    equal = quadext_equal(lhs, rhs)
    match = computed = reference = None
    if eq_id in references:
        prefactor, ref = references[eq_id]
        value = lhs if prefactor is None else lhs / t.scalar(prefactor)
        match = quadext_equal(value, ref)
        computed, reference = str(value), str(ref)
    return ProofReport(
        eq_id=eq_id, degree=t.degree, lhs=lhs, rhs=rhs, sides_equal=equal,
        paper_form_match=match, computed_form=computed, reference_form=reference,
        elapsed=time.perf_counter() - started,
    )


def prove_degree3(eq_id: str, table: ParamTable | None = None) -> ProofReport:
    """Replay one degree-3 equation goal; both sides are built from the atoms."""
    return _prove(table if table is not None else build_table3(), eq_id)


def prove_degree5(eq_id: str, table: ParamTable | None = None) -> ProofReport:
    """Replay one degree-5 equation goal.

    Besides comparing the two sides, the common value is divided by the known
    prefactor and the quotient is compared to the recorded reference
    polynomial (or, for 2-5, the common value is compared directly); a
    mismatch there is informational only.
    """
    return _prove(table if table is not None else build_table5(), eq_id)


def prove(degree: int, eq_id: str, table: ParamTable | None = None) -> ProofReport:
    """Replay one goal of degree 3 or 5 through :func:`prove_degree3` or :func:`prove_degree5`."""
    if degree == 3:
        return prove_degree3(eq_id, table)
    if degree == 5:
        return prove_degree5(eq_id, table)
    raise ValueError("degree must be 3 or 5")


def prove_all(degree: int) -> list[ProofReport]:
    """All goals of one degree, in catalog order, over one table."""
    if degree not in EQUATIONS:
        raise ValueError("degree must be 3 or 5")
    table = build_table3() if degree == 3 else build_table5()
    return [prove(degree, eq, table) for eq in EQUATIONS[degree]]


# ----------------------------------------------------------------------
# series bridge


class ParamCheck(_Frozen):
    """One atom evaluated at series, compared with its theta series."""

    name: str
    holds: bool
    first_failure_exponent: int | None = None


class ParamSeriesReport(_Frozen):
    """Outcome of the series-level cross-validation of one parametrization."""

    degree: int
    order: int
    checks: tuple[ParamCheck, ...] = ()
    elapsed: float = 0.0

    @property
    def verified(self) -> bool:
        return all(c.holds for c in self.checks)


def _compare(*pairs: tuple[str, LaurentSeries, LaurentSeries]) -> tuple[ParamCheck, ...]:
    """One ParamCheck per named (lhs, rhs) pair.

    Every pair is compared first; when any comparison reads no coefficient,
    one InsufficientPrecision names each such check.
    """
    checks, vacuous = [], []
    for name, lhs, rhs in pairs:
        try:
            diff = lhs.compare(rhs)
        except InsufficientPrecision as err:
            vacuous.append(f"check {name!r}: {err}")
            continue
        checks.append(ParamCheck(name, diff.is_zero, None if diff.is_zero else diff.valuation))
    if vacuous:
        raise InsufficientPrecision("; ".join(vacuous))
    return tuple(checks)


def check_param_series(degree: int, order: int) -> ParamSeriesReport:
    """Evaluate one degree's ``_alpha_beta*`` at series and compare alpha and beta.

    m is ``theta.m_series``; degree 5 also takes the positive-branch root of
    the modulus there, and the other branch falsifies the check, while
    degree 3 takes no root.  alpha and beta are compared with
    ``theta.alpha_series`` and ``theta.beta_series``.  The order must pass
    :func:`exact.check_order`.
    """
    if degree not in EQUATIONS:
        raise ValueError("degree must be 3 or 5")
    check_order(order)
    from . import theta

    started = time.perf_counter()
    m = theta.m_series(degree, order)
    if degree == 3:
        series = _alpha_beta3(m)
    else:
        series = _alpha_beta5(m, _modulus5(m).sqrt())
    checks = _compare(
        ("alpha", series["alpha"], theta.alpha_series(degree, order)),
        ("beta", series["beta"], theta.beta_series(degree, order)),
    )
    return ParamSeriesReport(degree, order, checks, time.perf_counter() - started)
