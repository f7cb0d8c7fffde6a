"""Laurent-series kernel: arithmetic, precision tracking, roots."""

import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from piqcheck.series import (
    MAX_POWER_BITS,
    DivisionByZeroSeries,
    InsufficientPrecision,
    LaurentSeries,
    NonSquareLeadingCoefficient,
    OddValuation,
    PowerTooLarge,
    exact_str,
    terms_str,
)


def S(valuation, coeffs, order):
    return LaurentSeries(valuation, tuple(coeffs), order)


ONE = LaurentSeries.constant(1, 8)
T = LaurentSeries.monomial(1, 8)


# ----------------------------------------------------------------------
# addition


def test_add_cancellation_keeps_min_order():
    a = ONE + T
    b = ONE - T
    total = a + b
    assert total.coefficient(0) == 2
    assert total.is_zero or all(c == 0 for c in total.coeffs[1:])
    assert total.order == min(a.order, b.order)


def test_add_zero_is_identity():
    a = S(-2, [3, 0, 1], 4)
    z = LaurentSeries.zero(10)
    assert (z + a).compare(a).is_zero
    assert (a + z).valuation == a.valuation


def test_add_normalization_raises_valuation():
    a = S(-1, [1, 1], 6)      # t^-1 + 1
    b = S(-1, [-1], 6)        # -t^-1
    total = a + b
    assert total.valuation == 0
    assert total.coefficient(0) == 1


def test_add_aligns_different_valuations_and_orders():
    a = S(-2, [1, 0, 3, 0, 5], 3)   # t^-2 + 3 + 5t^2, known below t^3
    b = S(1, [7, 11, 13], 4)        # 7t + 11t^2 + 13t^3, known below t^4
    total = a + b
    assert total.valuation == -2 and total.order == 3
    assert total.coeffs == (1, 0, 3, 7, 16)
    assert (b + a) == total
    # b starts at or beyond the common order: only a's window survives
    c = S(5, [1], 9)
    assert (a + c) == a and (c + a) == a


def test_add_complete_cancellation_is_canonical_zero():
    a = S(-1, [2, Fraction(1, 3), 0, 4], 3)
    total = a + S(-1, [-2, Fraction(-1, 3), 0, -4, 9], 4)
    assert total.is_zero
    assert total == LaurentSeries.zero(3)
    assert (a - a) == LaurentSeries.zero(3)


def test_floats_rejected_at_every_constructor():
    with pytest.raises(TypeError):
        LaurentSeries.constant(0.1, 4)
    with pytest.raises(TypeError):
        LaurentSeries.monomial(1, 4, 0.5)
    with pytest.raises(TypeError):
        S(0, [1, 0.5], 2)
    with pytest.raises(TypeError):
        ONE.scale(0.5)
    for op in (lambda: ONE + 0.5, lambda: ONE * 0.5, lambda: ONE / 0.5, lambda: 0.5 - ONE):
        with pytest.raises(TypeError):
            op()
    assert LaurentSeries.constant("1/10", 4).coefficient(0) == Fraction(1, 10)


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: LaurentSeries(0.5, [1], 8), "valuation"),
        (lambda: LaurentSeries(0, [1], 8.0), "order"),
        (lambda: LaurentSeries.monomial(0, 8.5), "order"),
        (lambda: LaurentSeries.monomial(Fraction(1), 8), "exponent"),
        (lambda: LaurentSeries.monomial(9, "8"), "order"),
        (lambda: LaurentSeries.constant(1, 8.5), "order"),
        (lambda: LaurentSeries.zero(8.0), "order"),
        (lambda: S(0, [1, 2, 3], 8).shift(0.5), "j"),
        (lambda: S(0, [1, 2, 3], 8).coefficient(0.5), "n"),
        (lambda: S(0, [1, 2, 3], 8).coefficient(2.0), "n"),
    ],
    ids=["init-valuation", "init-order", "monomial-order", "monomial-exponent",
         "monomial-past-order", "constant-order", "zero-order", "shift", "coefficient-half",
         "coefficient-float-int"],
)
def test_non_int_valuations_exponents_and_orders_are_refused(build, name):
    with pytest.raises(TypeError, match=f"^{name} must be an int, not "):
        build()


FLOAT_HALF = "float 0.5 is not an exact coefficient; use an int, a Fraction or a str"
# known only below t^0, so a constant lifted to its order is the zero series
LOW = S(-2, [1, 3], 0)


@pytest.mark.parametrize(
    "expr, message",
    [
        # a reflected operator names itself and the operands in their written order
        ("None * ONE", "unsupported operand type(s) for *: 'NoneType' and 'LaurentSeries'"),
        ("ONE * None", "unsupported operand type(s) for *: 'LaurentSeries' and 'NoneType'"),
        ('"a" * ONE', "can't multiply sequence by non-int of type 'LaurentSeries'"),
        ("None + ONE", "unsupported operand type(s) for +: 'NoneType' and 'LaurentSeries'"),
        ("None - ONE", "unsupported operand type(s) for -: 'NoneType' and 'LaurentSeries'"),
        ("None / ONE", "unsupported operand type(s) for /: 'NoneType' and 'LaurentSeries'"),
        ("ONE / None", "unsupported operand type(s) for /: 'LaurentSeries' and 'NoneType'"),
        # a float names itself on either side of every operator
        ("0.5 * ONE", FLOAT_HALF),
        ("ONE * 0.5", FLOAT_HALF),
        ("0.5 + ONE", FLOAT_HALF),
        ("0.5 - ONE", FLOAT_HALF),
        ("0.5 / ONE", FLOAT_HALF),
        ("ONE / 0.5", FLOAT_HALF),
        # ... and at every order, also where the coefficient it gives is never known
        ("LaurentSeries.constant(0.5, 0)", FLOAT_HALF),
        ("LaurentSeries.monomial(9, 8, 0.5)", FLOAT_HALF),
        ("LOW + 0.5", FLOAT_HALF),
        ("0.5 + LOW", FLOAT_HALF),
        ("LOW - 0.5", FLOAT_HALF),
        ("0.5 - LOW", FLOAT_HALF),
        ("LOW * 0.5", FLOAT_HALF),
        ("0.5 * LOW", FLOAT_HALF),
    ],
)
def test_mixed_operand_errors(expr, message):
    with pytest.raises(TypeError) as info:
        eval(expr)
    assert str(info.value) == message


def test_every_ring_derives_its_difference_and_reflected_operators_from_one_base():
    from piqcheck import field, series

    derived = ("__radd__", "__rmul__", "__sub__", "__rsub__")
    for cls in (LaurentSeries, field.Poly, field.RatFunc, field.QuadExt):
        for name in derived:
            assert getattr(cls, name) is vars(series._Ring)[name], (cls.__name__, name)
    assert not vars(LaurentSeries).keys() & {*derived, "_coerce", "_combine"}


def test_int_and_fraction_operands_scale():
    a = S(-1, [2, Fraction(1, 3), 0, 4], 3)
    assert a * 3 == 3 * a == a.scale(3)
    assert a / Fraction(2, 3) == a.scale(Fraction(3, 2))
    for zero in (0, Fraction(0)):
        with pytest.raises(DivisionByZeroSeries, match="^division by the zero constant$"):
            a / zero
    # a constant is the monomial at t^0, so it is zero-to-order when order <= 0
    for order in (-3, 0, 2):
        assert LaurentSeries.constant(5, order) == LaurentSeries.monomial(0, order, 5)
    assert LaurentSeries.constant(5, 0) == LaurentSeries.zero(0)


# ----------------------------------------------------------------------
# multiplication


def test_mul_binomials():
    prod = (ONE + T) * (ONE - T)
    assert prod.coefficient(0) == 1
    assert prod.coefficient(1) == 0
    assert prod.coefficient(2) == -1


def test_mul_monomials_add_exponents():
    a = LaurentSeries.monomial(-2, 4)
    b = LaurentSeries.monomial(5, 9)
    assert (a * b).valuation == 3


def test_triangular_indicator_square_matches_convolution_oracle():
    # brute-force convolution of the indicator of triangular numbers
    triangular = [1 if n in (0, 1, 3, 6) else 0 for n in range(7)]
    oracle = [
        sum(triangular[i] * triangular[k - i] for i in range(k + 1)) for k in range(7)
    ]
    assert oracle == [1, 2, 1, 2, 2, 0, 3]
    s = S(0, triangular, 7)
    assert [(s * s).coefficient(n) for n in range(7)] == oracle


def test_mul_order_rule():
    a = S(1, [1, 2], 3)   # known below t^3
    b = S(2, [1], 3)      # known below t^3
    prod = a * b
    assert prod.valuation == 3
    assert prod.order == min(a.order + b.valuation, b.order + a.valuation)


# ----------------------------------------------------------------------
# division


def test_div_geometric_series():
    quot = ONE / (ONE - T)
    assert [quot.coefficient(n) for n in range(8)] == [1] * 8


def test_div_monomials():
    a = LaurentSeries.monomial(2, 10)
    b = LaurentSeries.monomial(6, 14)
    assert (a / b).valuation == -4


def test_div_by_zero_series_raises():
    with pytest.raises(DivisionByZeroSeries):
        ONE / LaurentSeries.zero(8)


def test_div_nonmonic_leading_coefficient():
    a = LaurentSeries.constant(1, 6)
    b = S(0, [2, 1], 6)
    quot = a / b
    assert (quot * b).compare(a).is_zero
    assert quot.coefficient(0) == Fraction(1, 2)


# ----------------------------------------------------------------------
# square roots


def test_sqrt_perfect_square_polynomial():
    s = S(0, [1, 2, 1], 6)
    assert (s.sqrt() - (ONE + T)).is_zero


def test_sqrt_monomial():
    s = LaurentSeries.monomial(10, 14)
    root = s.sqrt()
    assert root.valuation == 5
    assert root.coefficient(5) == 1


def test_sqrt_recursion_checked_by_squaring():
    s = S(0, [4, 4], 8)
    root = s.sqrt()
    assert root.coefficient(0) == 2
    assert root.coefficient(1) == 1
    assert root.coefficient(2) == Fraction(-1, 4)
    assert (root * root).compare(s).is_zero


def test_sqrt_requires_even_valuation():
    with pytest.raises(OddValuation):
        LaurentSeries.monomial(3, 9).sqrt()


def test_sqrt_requires_square_leading_coefficient():
    with pytest.raises(NonSquareLeadingCoefficient):
        S(0, [2], 5).sqrt()
    with pytest.raises(NonSquareLeadingCoefficient):
        S(0, [-1], 5).sqrt()


# ----------------------------------------------------------------------
# powers, coefficient access


def test_pow_int():
    sq = (ONE + T) ** 2
    assert [sq.coefficient(n) for n in range(3)] == [1, 2, 1]
    inv = (ONE - T) ** -1
    assert inv.coefficient(5) == 1


def test_coefficient_access():
    s = S(0, [1, 2], 4)
    assert s.coefficient(1) == 2
    assert s.coefficient(-3) == 0  # below the valuation: known zero
    with pytest.raises(InsufficientPrecision):
        s.coefficient(4)


def test_compare_refuses_a_comparison_that_reads_no_coefficient():
    content = LaurentSeries.monomial(20, 40, 3)
    short = LaurentSeries.monomial(20, 16, 3)  # zero, known only below t^16
    with pytest.raises(InsufficientPrecision, match=r"below t\^16 \(content starts at t\^20\)"):
        content.compare(short)
    with pytest.raises(InsufficientPrecision, match=r"below t\^20 \(content starts at t\^20\)"):
        LaurentSeries.zero(20).compare(content)
    assert content.compare(S(20, [3], 21)).is_zero
    assert content.compare(S(19, [1], 21)).valuation == 19
    assert LaurentSeries.zero(8).compare(LaurentSeries.zero(4)).order == 4
    # content at t^10 against a zero known only below t^8: nothing to compare
    with pytest.raises(InsufficientPrecision, match=r"below t\^8 \(content starts at t\^10\)"):
        LaurentSeries.monomial(10, 40).compare(LaurentSeries.monomial(20, 8))


def test_compare_uses_common_window():
    a = S(0, [1, 2, 3], 3)
    b = S(0, [1, 2, 7], 3)
    assert a.truncate(2).compare(b.truncate(2)).is_zero
    assert not a.truncate(3).compare(b.truncate(3)).is_zero
    assert a.compare(b).valuation == 2
    assert a.compare(b.truncate(2)).is_zero


# ----------------------------------------------------------------------
# zero representation


def test_zero_keeps_order():
    z = LaurentSeries.zero(12)
    assert z.is_zero and z.order == 12 and z.valuation == 12
    assert (z * S(2, [5], 4)).order == 14


def test_monomial_beyond_order_collapses_soundly():
    assert LaurentSeries.monomial(9, 8).is_zero


# ----------------------------------------------------------------------
# randomized properties

fractions = st.builds(
    Fraction,
    st.integers(min_value=-9, max_value=9),
    st.sampled_from([1, 1, 1, 2, 3, 4]),
)


@st.composite
def series(draw, min_valuation=-6, max_len=10):
    val = draw(st.integers(min_value=min_valuation, max_value=6))
    coeffs = draw(st.lists(fractions, min_size=1, max_size=max_len))
    return LaurentSeries(val, tuple(coeffs), val + len(coeffs))


nonzero_series = series().filter(lambda s: not s.is_zero)


@settings(max_examples=120, deadline=None)
@given(series(), series(), series())
# a * (b + c) = t + O(t^2) and a * b + a * c = O(t) share no known coefficient
@example(S(0, [1], 1), S(0, [5, 1], 2), S(0, [-5, 0], 2))
def test_ring_axioms_on_valid_range(a, b, c):
    # x - y is zero on the coefficients both sides know; compare(), which
    # refuses to read none, would raise where they share no coefficient
    for x, y in [
        ((a + b) + c, a + (b + c)),
        (a + b, b + a),
        ((a * b) * c, a * (b * c)),
        (a * b, b * a),
        (a * (b + c), a * b + a * c),
    ]:
        assert (x - y).is_zero


@settings(max_examples=120, deadline=None)
@given(series(), nonzero_series)
def test_div_mul_round_trip(a, b):
    assert ((a / b) * b).compare(a).is_zero


@settings(max_examples=120, deadline=None)
@given(nonzero_series)
def test_sqrt_of_square_round_trip(r):
    square = r * r
    root = square.sqrt()
    expected = r if r.leading_coefficient > 0 else -r
    assert root.compare(expected).is_zero
    assert (root * root).compare(square).is_zero


@settings(max_examples=120, deadline=None)
@given(series())
def test_normalized_leading_coefficient(a):
    assert a.is_zero or a.coeffs[0] != 0


@settings(max_examples=80, deadline=None)
@given(series(), nonzero_series)
def test_precision_soundness_under_truncation(a, b):
    # computing at lower precision must agree with truncating the
    # higher-precision result
    full = a * b
    cut_inputs = a.truncate(a.order - 1) * b if a.precision > 1 else full
    assert full.compare(cut_inputs).is_zero


@pytest.mark.parametrize("limit", [640, 4300])
def test_exact_str_ignores_the_int_string_limit(limit):
    wide = [0, 7, -(10**700), 3**9000 - 1, Fraction(-(2**20000) - 1, 3**5000), Fraction(5, 2**3000)]
    # either side of the widest direct conversion, and halves with zero low bits
    wide += [2**2000 - 1, 2**2000, -(2**2001 + 1), 10**4000, 2**80000 + 1]
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        expected = [str(x) for x in wide]
        printed = str(LaurentSeries(0, wide, 16))
        sys.set_int_max_str_digits(limit)
        assert [exact_str(x) for x in wide] == expected
        assert str(LaurentSeries(0, wide, 16)) == printed
    finally:
        sys.set_int_max_str_digits(old)


def unlimited(text_of, x) -> str:
    """text_of(x) with the int string limit lifted for this one call."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return text_of(x)
    finally:
        sys.set_int_max_str_digits(old)


def test_terms_str_writes_signs_units_and_the_constant_term():
    assert terms_str([]) == ""
    assert terms_str([(Fraction(-1), "t^2"), (Fraction(1), "t^3"), (3, "")]) == "-t^2 + t^3 + 3"
    assert terms_str([(-5, ""), (Fraction(-1, 2), "m"), (-1, "m^2")]) == "-5 - 1/2*m - m^2"
    assert terms_str([(Fraction(2, 3), "t^-1"), (-7, "t^4")]) == "2/3*t^-1 - 7*t^4"


def test_series_text_walks_the_stored_terms():
    s = S(-2, [Fraction(-1), 0, 0, 0, Fraction(1, 2), 0, 3], 6)
    assert s.terms() == [(-2, -1), (2, Fraction(1, 2)), (4, 3)]
    assert str(s) == "-t^-2 + 1/2*t^2 + 3*t^4 + O(t^6)"
    assert str(S(0, [-4, -1], 8)) == "-4 - t^1 + O(t^8)"
    assert LaurentSeries.zero(5).terms() == [] and str(LaurentSeries.zero(5)) == "O(t^5)"


@pytest.mark.parametrize("limit", [640, 4300])
def test_repr_ignores_the_int_string_limit_and_evaluates_back(limit):
    series = [
        LaurentSeries.constant(2**20000, 8),
        S(-1, [Fraction(-(3**9000), 7), 0, 5], 4),
        S(0, [1], 3),
        LaurentSeries.zero(2),
    ]
    names = {"LaurentSeries": LaurentSeries, "Fraction": Fraction}
    expected = [unlimited(repr, s) for s in series]
    assert [unlimited(lambda text: eval(text, names), text) for text in expected] == series
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        assert [repr(s) for s in series] == expected
    finally:
        sys.set_int_max_str_digits(old)


def test_power_past_max_power_bits_is_refused_before_any_work():
    with pytest.raises(PowerTooLarge, match="MAX_POWER_BITS = 1000000"):
        LaurentSeries.constant(Fraction(3, 2), 8) ** 10_000_000
    with pytest.raises(PowerTooLarge, match="coefficients of about 1000161 bits"):
        (2 + S(1, [1, 0, 0, 0, 2], 8)) ** 1_000_000
    with pytest.raises(PowerTooLarge, match="MAX_POWER_BITS"):
        LaurentSeries.constant(Fraction(2, 3), 8) ** -10_000_000
    # a unit leading coefficient keeps a power small: 27 bits
    assert (S(1, [1, 0, 0, 0, 2], 8) ** 10_000_000).terms() == [
        (10_000_000, 1), (10_000_004, 20_000_000)
    ]
    # the bound is inclusive, and 2^1000000 sits on it
    assert LaurentSeries.constant(2, 8)._power_bits(1_000_000) == MAX_POWER_BITS
    assert LaurentSeries.constant(2, 8) ** 1_000_000 == LaurentSeries.constant(2**1_000_000, 8)


@settings(max_examples=150, deadline=None)
@given(series(), st.integers(min_value=1, max_value=12) | st.integers(min_value=13, max_value=400))
def test_power_bits_bound_each_coefficient_of_the_power(a, e):
    # the bound is on ceil(log2 |x|) of the widest stored numerator plus that of the denominator
    p = a**e
    widest = max(((abs(x) - 1).bit_length() for x in p._nums), default=0)
    assert widest + (p._den - 1).bit_length() <= a._power_bits(e)
