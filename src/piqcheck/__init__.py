"""piqcheck: exact verification of Pi_q / theta-function identities.

The package computes with truncated Laurent series in t (q = t^4) over exact
rationals, replays degree-3 and degree-5 modular-equation goals in quadratic
extensions of the rational function field Q(m), and ships a catalog of 31
classical identities together with a small text DSL for user-supplied ones.

``import piqcheck`` imports no submodule.  Each public name is looked up in
its submodule when it is first read (PEP 562), so ``piqcheck.verify``
loads :mod:`.catalog` and what it imports, and ``piqcheck.prove_all``
loads :mod:`.modular` with the shared base :mod:`.exact`, then
:mod:`.field` when it builds its first table, and no series module.
"""

from importlib import import_module

__version__ = "0.1.0"

# the public names of each submodule
_NAMES = {
    "catalog": "EvalError FirstFailure IdentityRecord UnknownIdentity VerifyReport"
    " evaluate get_identity known_ids list_identities verify verify_all verify_sides",
    "dsl": "Add ArityError Const Div Expr Mul ParseError Phi Pi PowInt Psi QPow"
    " QPowNotQuarterIntegral Sqrt Sub parse to_text",
    "exact": "DEFAULT_ORDER DivisionByZeroSeries InsufficientPrecision NonSquareLeadingCoefficient"
    " OddValuation SeriesError",
    "field": "DivisionByZeroRatFunc FieldError M ModulusMismatch Poly QuadExt RatFunc"
    " ZeroNormInverse poly_gcd quadext_equal",
    "modular": "DEGREE3_EQUATIONS DEGREE5_EQUATIONS ModularError ParamCheck ParamSeriesReport"
    " ProofReport build_table3 build_table5 check_param_series prove_all prove_degree3 prove_degree5",
    "series": "LaurentSeries",
    "theta": "ZeroFactor alpha_series beta_series m_series phi pi_product pochhammer psi"
    " psi_product_form rho_series z_series",
}
_SOURCES = {name: module for module, names in _NAMES.items() for name in names.split()}

# constants first, then every other name in code-point order
__all__ = sorted(_SOURCES, key=lambda name: (not (name.isupper() and "_" in name), name))


def __getattr__(name: str):
    try:
        module = _SOURCES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
