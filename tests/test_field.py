"""Polynomials, rational functions, and quadratic extensions over Q(m)."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from piqcheck import field
from piqcheck.field import (
    M,
    DivisionByZeroRatFunc,
    ModulusMismatch,
    Poly,
    QuadExt,
    RatFunc,
    ZeroNormInverse,
    poly_gcd,
    quadext_equal,
)


# ----------------------------------------------------------------------
# polynomials


def test_poly_gcd_common_factor():
    assert poly_gcd(M * M - 1, M * M + 2 * M - 3) == (M - 1)


def test_poly_product():
    assert (M - 1) * (M + 3) == M**2 + 2 * M - 3


def test_poly_gcd_with_zero_is_monic_normalization():
    assert poly_gcd(2 * M + 2, Poly(())) == M + 1


def test_poly_rejects_floats():
    with pytest.raises(TypeError):
        Poly((0.5,))
    with pytest.raises(TypeError):
        Poly((1, 2.0))
    assert Poly((Fraction(1, 2),)).coeffs == (Fraction(1, 2),)


def test_poly_equal_forms_compare_and_hash_equal():
    forms = [
        Poly((1, Fraction(-1, 2), Fraction(3, 4))),
        Poly((Fraction(2, 2), "-1/2", "0.75")),
        Poly(("1", Fraction(-2, 4), Fraction(6, 8), 0, Fraction(0, 5))),
        Fraction(1, 4) * Poly((4, -2, 3)),
    ]
    for p in forms:
        assert p == forms[0]
        assert hash(p) == hash(forms[0])
    assert len(set(forms)) == 1
    assert Poly((1, 2)) != Poly((1, 2, 1))
    assert Poly((0, 0)) == Poly(()) and hash(Poly((0,))) == hash(Poly(()))


def test_poly_repr_keeps_fraction_text():
    assert repr(Poly((1, Fraction(-1, 2), 0))) == "Poly(coeffs=(Fraction(1, 1), Fraction(-1, 2)))"
    assert repr(Poly(())) == "Poly(coeffs=())"
    assert repr(RatFunc.of(M, 2 * M + 2)) == (
        "RatFunc(num=Poly(coeffs=(Fraction(0, 1), Fraction(1, 2))), "
        "den=Poly(coeffs=(Fraction(1, 1), Fraction(1, 1))))"
    )


def test_quadext_repr_keeps_fraction_text():
    x = QuadExt(RatFunc.of(M, 2), RatFunc.of(-1, M + 1), RatFunc.of(M**2 - 3))
    assert repr(x) == (
        "QuadExt(a=RatFunc(num=Poly(coeffs=(Fraction(0, 1), Fraction(1, 2))), "
        "den=Poly(coeffs=(Fraction(1, 1),))), "
        "b=RatFunc(num=Poly(coeffs=(Fraction(-1, 1),)), "
        "den=Poly(coeffs=(Fraction(1, 1), Fraction(1, 1)))), "
        "u=RatFunc(num=Poly(coeffs=(Fraction(-3, 1), Fraction(0, 1), Fraction(1, 1))), "
        "den=Poly(coeffs=(Fraction(1, 1),))))"
    )
    assert repr(QuadExt.root(RatFunc.of(M))) == (
        "QuadExt(a=RatFunc(num=Poly(coeffs=()), den=Poly(coeffs=(Fraction(1, 1),))), "
        "b=RatFunc(num=Poly(coeffs=(Fraction(1, 1),)), den=Poly(coeffs=(Fraction(1, 1),))), "
        "u=RatFunc(num=Poly(coeffs=(Fraction(0, 1), Fraction(1, 1))), "
        "den=Poly(coeffs=(Fraction(1, 1),))))"
    )


def test_poly_text_and_repr_ignore_the_int_string_limit():
    wide = 2**20000  # 6021 digits, more than the interpreter's int string limit
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        digits = str(wide)
    finally:
        sys.set_int_max_str_digits(old)
    assert str(Poly((wide, 1))) == f"m + {digits}"
    assert str(Poly((0, Fraction(-1, wide), 0, -1))) == f"-m^3 - 1/{digits}*m"
    assert repr(Poly((wide,))) == f"Poly(coeffs=(Fraction({digits}, 1),))"
    assert str(RatFunc.of(M, wide)) == f"1/{digits}*m"


def test_poly_is_frozen():
    p = Poly((1, 2))
    with pytest.raises(AttributeError, match="^cannot assign to field 'coeffs'$"):
        p.coeffs = (Fraction(3),)
    with pytest.raises(AttributeError, match="^cannot assign to field 'degree'$"):
        p.degree = 4
    with pytest.raises(AttributeError, match="^cannot delete field '_nums'$"):
        del p._nums
    assert p == Poly((1, 2))


def test_poly_divmod():
    q, r = divmod(M**3 + 1, M + 1)
    assert q * (M + 1) + r == M**3 + 1
    assert r.is_zero


def test_poly_no_trailing_zeros():
    p = Poly((1, 2, 0, 0))
    assert p.degree == 1


# ----------------------------------------------------------------------
# rational functions


def test_ratfunc_partial_fraction_sum():
    total = RatFunc.of(1, M - 1) + RatFunc.of(1, M + 3)
    assert total == RatFunc.of(2 * M + 2, M**2 + 2 * M - 3)


def test_ratfunc_product_of_inverses():
    prod = RatFunc.of(M - 1, M + 3) * RatFunc.of(M + 3, M - 1)
    assert prod == RatFunc.of(1)


def test_degree3_alpha_beta_product():
    alpha = RatFunc.of((M - 1) * (M + 3) ** 3, 16 * M**3)
    beta = RatFunc.of((M - 1) ** 3 * (M + 3), 16 * M)
    assert alpha * beta == RatFunc.of((M - 1) ** 4 * (M + 3) ** 4, 256 * M**4)


def test_ratfunc_zero_denominator_rejected():
    with pytest.raises(DivisionByZeroRatFunc):
        RatFunc.of(1, 0)
    with pytest.raises(DivisionByZeroRatFunc):
        RatFunc.of(M) / RatFunc.of(0)


def test_ratfunc_canonical_form_is_idempotent():
    r = RatFunc.of(2 * (M - 1) * (M + 2), 4 * (M + 2) * M)
    again = RatFunc(r.num, r.den)
    assert r == again
    assert r.den.leading_coefficient == 1
    assert poly_gcd(r.num, r.den).degree == 0


@pytest.mark.parametrize(
    "expr, gcds, text",
    [
        ("r ** -1", 0, "(m^2 - 3) / (m^2 + 2*m + 1)"),
        ("r ** -2", 0, "(m^4 - 6*m^2 + 9) / (m^4 + 4*m^3 + 6*m^2 + 4*m + 1)"),
        ("r ** 3", 0, "(m^6 + 6*m^5 + 15*m^4 + 20*m^3 + 15*m^2 + 6*m + 1) / (m^6 - 9*m^4 + 27*m^2 - 27)"),
        ("r / r", 1, "1"),
    ],
)
def test_rational_powers_and_inverses_run_no_gcd_chain(monkeypatch, expr, gcds, text):
    # the parts of a reduced value are coprime, and so are their powers and their swap
    r = RatFunc((M + 1) ** 2, M**2 - 3)
    calls = []
    real = field.poly_gcd
    monkeypatch.setattr(field, "poly_gcd", lambda a, b: calls.append((a, b)) or real(a, b))
    assert str(eval(expr)) == text
    assert len(calls) == gcds


# ----------------------------------------------------------------------
# quadratic extensions

U3 = RatFunc.of((M - 1) * (M + 3), M)
U5 = RatFunc.of(M**3 - 2 * M**2 + 5 * M)


def test_conjugate_product_is_rational():
    rho = QuadExt.root(U5)
    m = QuadExt.scalar(M, U5)
    prod = (2 * m + rho) * (2 * m - rho)
    assert prod.is_rational
    assert quadext_equal(prod, QuadExt.scalar(RatFunc.of(M * (M - 1) * (5 - M)), U5))


def test_inverse_of_root():
    rho = QuadExt.root(U5)
    inv = rho.inverse()
    assert inv.a.is_zero
    assert inv.b == RatFunc.of(1) / U5
    assert quadext_equal(rho * inv, QuadExt.scalar(1, U5))


def test_degree3_half_root_squares_to_quarter_modulus():
    s = QuadExt.root(U3)
    half = s * Fraction(1, 2)
    assert quadext_equal(
        half * half, QuadExt.scalar(RatFunc.of((M - 1) * (M + 3), 4 * M), U3)
    )


def test_quadext_equality_and_branch():
    rho = QuadExt.root(U5)
    assert quadext_equal(rho, rho)
    assert not quadext_equal(rho, -rho)


def test_modulus_mismatch_rejected():
    with pytest.raises(ModulusMismatch):
        QuadExt.root(U3) * QuadExt.root(U5)
    with pytest.raises(ModulusMismatch):
        quadext_equal(QuadExt.root(U3), QuadExt.root(U5))


def test_zero_norm_inverse_rejected():
    # (m + s)(m - s) = m^2 - u; choose u = m^2 so the norm vanishes
    u = RatFunc.of(M**2)
    x = QuadExt(RatFunc.of(M), RatFunc.of(1), u)
    with pytest.raises(ZeroNormInverse):
        x.inverse()


# ----------------------------------------------------------------------
# mixed operands: the operators derived once for every layer

R = RatFunc.of(M + 1, M - 2)
X = 3 + QuadExt.root(U5) * R
D5 = "(m^5 + 2*m^3 - m^2 + 41*m - 36)"


@pytest.mark.parametrize(
    "expr, kind, text",
    [
        ("M - R", RatFunc, "(m^2 - 3*m - 1) / (m - 2)"),
        ("R - M", RatFunc, "(-m^2 + 3*m + 1) / (m - 2)"),
        ("1 - M", Poly, "-m + 1"),
        ("Fraction(1, 2) - R", RatFunc, "(-1/2*m - 2) / (m - 2)"),
        ("2 / R", RatFunc, "(2*m - 4) / (m + 1)"),
        ("M / R", RatFunc, "(m^2 - 2*m) / (m + 1)"),
        ("R - X", QuadExt, "((-2*m + 7) / (m - 2)) + ((-m - 1) / (m - 2)) * s"),
        ("1 / X", QuadExt, f"((-3*m^2 + 12*m - 12) / {D5}) + ((m^2 - m - 2) / {D5}) * s"),
        ("M * X", QuadExt, "(3*m) + ((m^2 + m) / (m - 2)) * s"),
        ("R / X", QuadExt, f"((-3*m^2 + 3*m + 6) / {D5}) + ((m^2 + 2*m + 1) / {D5}) * s"),
    ],
)
def test_mixed_operand_results(expr, kind, text):
    result = eval(expr)
    assert type(result) is kind
    assert str(result) == text
    if kind is QuadExt:
        assert result.u == U5


@pytest.mark.parametrize(
    "expr, exc, message",
    [
        ("2 / M", TypeError, "unsupported operand type(s) for /: 'int' and 'Poly'"),
        ("M / 2", TypeError, "unsupported operand type(s) for /: 'Poly' and 'int'"),
        ('M - "a"', TypeError, "unsupported operand type(s) for -: 'Poly' and 'str'"),
        ('X - "a"', TypeError, "cannot combine QuadExt with str"),
        ("M - 0.5", TypeError, "unsupported operand type(s) for -: 'Poly' and 'float'"),
        ("R * 0.5", TypeError, "unsupported operand type(s) for *: 'RatFunc' and 'float'"),
        ("X * 0.5", TypeError, "cannot combine QuadExt with float"),
        ("0.5 + M", TypeError, "unsupported operand type(s) for +: 'float' and 'Poly'"),
        # a reflected - names itself and the operands in their written order
        ("0.5 - M", TypeError, "unsupported operand type(s) for -: 'float' and 'Poly'"),
        ('"a" - R', TypeError, "unsupported operand type(s) for -: 'str' and 'RatFunc'"),
        ("0.5 - X", TypeError, "cannot combine QuadExt with float"),
        ("0.5 / R", TypeError, "unsupported operand type(s) for /: 'float' and 'RatFunc'"),
        ('"a" / X', TypeError, "cannot combine QuadExt with str"),
        ("R / 0", DivisionByZeroRatFunc, "division by the zero rational function"),
        ("X - QuadExt.root(U3)", ModulusMismatch, "cannot combine extensions with moduli"),
    ],
)
def test_mixed_operand_errors(expr, exc, message):
    with pytest.raises(exc) as info:
        eval(expr)
    assert type(info.value) is exc
    assert str(info.value).startswith(message)


NOT_RATIONAL = "must be a RatFunc, Poly, int or Fraction, not"


@pytest.mark.parametrize(
    "expr, exc, text",
    [
        # every constructor lifts a Poly, int or Fraction argument
        ("RatFunc(M, 3)", None, "1/3*m"),
        ("RatFunc(1, M)", None, "(1) / (m)"),
        ("RatFunc(Fraction(1, 2))", None, "1/2"),
        ("RatFunc(R, M)", None, "(m + 1) / (m^2 - 2*m)"),
        ("RatFunc.of(M, 3)", None, "1/3*m"),
        ("QuadExt(1, 0, U5)", None, "1"),
        ("QuadExt(M, Fraction(1, 2), M)", None, "(m) + (1/2) * s"),
        ("QuadExt.scalar(M, M + 1)", None, "m"),
        ("QuadExt.root(M) * QuadExt.root(M)", None, "m"),
        # and names the argument it cannot lift
        ("RatFunc(0.5)", TypeError, f"RatFunc() argument 'num' {NOT_RATIONAL} float"),
        ("RatFunc(M, 'm')", TypeError, f"RatFunc() argument 'den' {NOT_RATIONAL} str"),
        ("RatFunc.of(X)", TypeError, f"RatFunc() argument 'num' {NOT_RATIONAL} QuadExt"),
        ("QuadExt(0.5, 0, U5)", TypeError, f"QuadExt() argument 'a' {NOT_RATIONAL} float"),
        ("QuadExt(1, None, U5)", TypeError, f"QuadExt() argument 'b' {NOT_RATIONAL} NoneType"),
        ("QuadExt(1, 0, 2.0)", TypeError, f"QuadExt() argument 'u' {NOT_RATIONAL} float"),
        ("QuadExt.scalar(X, U5)", TypeError, f"QuadExt() argument 'a' {NOT_RATIONAL} QuadExt"),
        ("QuadExt.root('m')", TypeError, f"QuadExt() argument 'u' {NOT_RATIONAL} str"),
        # a power's exponent that is not an int is named too; a negative one is a value error
        ("RatFunc(M) ** 0.5", TypeError, "power must be an int, not float"),
        ("QuadExt.root(M) ** Fraction(1, 2)", TypeError, "power must be an int, not Fraction"),
        ("M ** 0.5", TypeError, "power must be an int, not float"),
        ("M ** -1", ValueError, "polynomial power must be a nonnegative integer"),
    ],
)
def test_constructors_lift_their_arguments_or_name_the_bad_one(expr, exc, text):
    if exc is None:
        assert str(eval(expr)) == text
        return
    with pytest.raises(exc) as info:
        eval(expr)
    assert str(info.value) == text


# ----------------------------------------------------------------------
# randomized field / ring properties

small_fraction = st.builds(
    Fraction,
    st.integers(min_value=-6, max_value=6),
    st.sampled_from([1, 1, 2, 3]),
)

polys = st.builds(
    lambda cs: Poly(tuple(cs)), st.lists(small_fraction, min_size=0, max_size=4)
)
nonzero_polys = polys.filter(lambda p: not p.is_zero)


@st.composite
def ratfuncs(draw):
    return RatFunc(draw(polys), draw(nonzero_polys))


nonzero_ratfuncs = ratfuncs().filter(lambda r: not r.is_zero)


@settings(max_examples=100, deadline=None)
@given(ratfuncs(), ratfuncs(), ratfuncs())
def test_ratfunc_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=100, deadline=None)
@given(ratfuncs(), nonzero_ratfuncs)
def test_ratfunc_div_mul_round_trip(a, b):
    assert (a / b) * b == a


@st.composite
def quadexts(draw):
    return QuadExt(draw(ratfuncs()), draw(ratfuncs()), U3)


@settings(max_examples=80, deadline=None)
@given(quadexts(), quadexts(), quadexts())
def test_quadext_commutative_ring(x, y, z):
    assert quadext_equal((x + y) + z, x + (y + z))
    assert quadext_equal((x * y) * z, x * (y * z))
    assert quadext_equal(x * (y + z), x * y + x * z)
    assert quadext_equal(x * y, y * x)


@settings(max_examples=80, deadline=None)
@given(quadexts())
def test_quadext_conjugation_kills_root_component(x):
    prod = x * x.conjugate()
    assert prod.is_rational
    assert prod.a == x.norm()


@settings(max_examples=80, deadline=None)
@given(quadexts().filter(lambda x: not x.norm().is_zero))
def test_quadext_inverse(x):
    assert quadext_equal(x * x.inverse(), QuadExt.scalar(1, U3))


# every layer with int and Fraction operands on either side
scalars = st.one_of(st.integers(min_value=-9, max_value=9), small_fraction)


@settings(max_examples=60, deadline=None)
@given(scalars, st.one_of(polys, ratfuncs(), quadexts()))
def test_reflected_operators_agree_with_forward_ones(c, x):
    assert c + x == x + c
    assert c * x == x * c
    assert c - x == -(x - c)


@settings(max_examples=60, deadline=None)
@given(scalars, st.one_of(nonzero_ratfuncs, quadexts().filter(lambda x: not x.norm().is_zero)))
def test_scalar_over_element_is_lifted_quotient(c, x):
    lifted = RatFunc.of(c) if isinstance(x, RatFunc) else QuadExt.scalar(c, x.u)
    assert c / x == lifted / x
