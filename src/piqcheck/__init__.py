"""piqcheck: exact verification of Pi_q / theta-function identities.

The package computes with truncated Laurent series in t (q = t^4) over exact
rationals, replays degree-3 and degree-5 modular-equation goals in quadratic
extensions of the rational function field Q(m), and ships a catalog of 31
classical identities together with a small text DSL for user-supplied ones.

``import piqcheck`` imports no submodule.  Each public name is looked up in
its submodule when it is first read (PEP 562), so ``piqcheck.verify``
loads :mod:`.catalog` and what it imports, and ``piqcheck.prove_all``
loads :mod:`.modular` and :mod:`.field` as well.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name and the submodule that defines it, in ``__all__`` order
_SOURCES = {
    "DEFAULT_ORDER": "catalog",
    "DEGREE3_EQUATIONS": "modular",
    "DEGREE5_EQUATIONS": "modular",
    "Add": "dsl",
    "ArityError": "dsl",
    "Const": "dsl",
    "Div": "dsl",
    "DivisionByZeroRatFunc": "field",
    "DivisionByZeroSeries": "series",
    "EvalError": "catalog",
    "Expr": "dsl",
    "FieldError": "field",
    "FirstFailure": "catalog",
    "IdentityRecord": "catalog",
    "InsufficientPrecision": "series",
    "LaurentSeries": "series",
    "M": "field",
    "ModularError": "modular",
    "ModulusMismatch": "field",
    "Mul": "dsl",
    "NonSquareLeadingCoefficient": "series",
    "OddValuation": "series",
    "ParamCheck": "modular",
    "ParamSeriesReport": "modular",
    "ParamTable3": "modular",
    "ParamTable5": "modular",
    "ParseError": "dsl",
    "Phi": "dsl",
    "Pi": "dsl",
    "Poly": "field",
    "PowInt": "dsl",
    "ProofReport": "modular",
    "Psi": "dsl",
    "QPow": "dsl",
    "QPowNotQuarterIntegral": "dsl",
    "QuadExt": "field",
    "RatFunc": "field",
    "SeriesError": "series",
    "Sqrt": "dsl",
    "Sub": "dsl",
    "UnknownIdentity": "catalog",
    "VerifyReport": "catalog",
    "ZeroFactor": "theta",
    "ZeroNormInverse": "field",
    "alpha_series": "theta",
    "audit_homogeneity": "catalog",
    "beta_series": "theta",
    "build_table3": "modular",
    "build_table5": "modular",
    "check_param_series": "modular",
    "evaluate": "catalog",
    "get_identity": "catalog",
    "known_ids": "catalog",
    "list_identities": "catalog",
    "m_series": "theta",
    "parse": "dsl",
    "phi": "theta",
    "pi_product": "theta",
    "pochhammer": "theta",
    "poly_gcd": "field",
    "prove_all": "modular",
    "prove_degree3": "modular",
    "prove_degree5": "modular",
    "psi": "theta",
    "psi_product_form": "theta",
    "quadext_equal": "field",
    "rho_series": "theta",
    "to_text": "dsl",
    "verify": "catalog",
    "verify_all": "catalog",
    "verify_sides": "catalog",
    "z_series": "theta",
}

__all__ = list(_SOURCES)


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
