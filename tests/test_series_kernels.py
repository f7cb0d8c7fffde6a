"""Stride-compressed series kernels against the plain O(n^2) Fraction formulas.

The reference oracles below run the textbook recurrences on every exponent of
the window, zeros included, entirely in Fractions.  The kernels in
``piqcheck.series`` must return the same valuation, order and coefficients for
series on any exponent lattice, with windows that are not multiples of the
lattice step and with unknown tails that break the lattice beyond the window.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from piqcheck.series import LaurentSeries, sqrt_fraction


def ref_mul(x: LaurentSeries, y: LaurentSeries) -> LaurentSeries:
    if x.is_zero or y.is_zero:
        return LaurentSeries.zero(min(x.order + y.valuation, y.order + x.valuation))
    n = min(len(x.coeffs), len(y.coeffs))
    val = x.valuation + y.valuation
    coeffs = [sum((x.coeffs[i] * y.coeffs[k - i] for i in range(k + 1)), Fraction(0)) for k in range(n)]
    return LaurentSeries(val, tuple(coeffs), val + n)


def ref_div(x: LaurentSeries, y: LaurentSeries) -> LaurentSeries:
    if x.is_zero:
        return LaurentSeries.zero(x.order - y.valuation)
    n = min(len(x.coeffs), len(y.coeffs))
    val = x.valuation - y.valuation
    q = [Fraction(0)] * n
    for k in range(n):
        acc = x.coeffs[k]
        for i in range(k):
            acc -= q[i] * y.coeffs[k - i]
        q[k] = acc / y.coeffs[0]
    return LaurentSeries(val, tuple(q), val + n)


def ref_sqrt(x: LaurentSeries) -> LaurentSeries:
    if x.is_zero:
        return LaurentSeries.zero((x.order + 1) // 2)
    n = len(x.coeffs)
    r = [sqrt_fraction(x.coeffs[0])] + [Fraction(0)] * (n - 1)
    for k in range(1, n):
        acc = x.coeffs[k]
        for i in range(1, k):
            acc -= r[i] * r[k - i]
        r[k] = acc / (2 * r[0])
    val = x.valuation // 2
    return LaurentSeries(val, tuple(r), val + n)


def same(got: LaurentSeries, want: LaurentSeries) -> None:
    assert (got.valuation, got.order, got.coeffs) == (want.valuation, want.order, want.coeffs)
    assert all(type(c) is Fraction for c in got.coeffs)


rationals = st.builds(
    Fraction,
    st.integers(min_value=-12, max_value=12),
    st.sampled_from([1, 1, 1, 2, 3, 7]),
)
nonzero_rationals = rationals.filter(bool)
strides = st.sampled_from([1, 2, 3, 4, 8])


@st.composite
def lattice_series(draw, g=None, lead=nonzero_rationals, even_valuation=False):
    """A series whose nonzero offsets below a cut lie on the lattice g*i.

    At and beyond the cut any offset may be nonzero, so the lattice holds only
    for windows that end at or before it.
    """
    g = draw(strides) if g is None else g
    val = draw(st.integers(min_value=-6, max_value=6))
    if even_valuation:
        val -= val % 2
    window = draw(st.integers(min_value=1, max_value=40))
    cut = draw(st.integers(min_value=0, max_value=window + 8))
    coeffs = [draw(lead)]
    for i in range(1, window):
        on_lattice = i % g == 0 or i >= cut
        coeffs.append(draw(rationals) if on_lattice and draw(st.booleans()) else Fraction(0))
    return LaurentSeries(val, tuple(coeffs), val + window)


@st.composite
def operand_pairs(draw, lead=nonzero_rationals):
    g = draw(strides)
    x = draw(lattice_series(g))
    # the second operand sits on the same lattice, a multiple of it, or none
    y = draw(lattice_series(g * draw(st.sampled_from([1, 1, 2])), lead=lead))
    return x, y


divisor_leads = st.sampled_from(
    [Fraction(v) for v in (1, -1, 2, -2, 3, -6)] + [Fraction(2, 3), Fraction(-5, 2)]
)
square_leads = st.sampled_from([Fraction(1), Fraction(4), Fraction(4, 9), Fraction(9, 49), Fraction(1, 4)])


@settings(max_examples=300, deadline=None)
@given(operand_pairs())
def test_mul_matches_reference(pair):
    x, y = pair
    same(x * y, ref_mul(x, y))
    same(y * x, ref_mul(y, x))


@settings(max_examples=300, deadline=None)
@given(operand_pairs(lead=divisor_leads))
def test_div_matches_reference(pair):
    x, y = pair
    same(x / y, ref_div(x, y))


@settings(max_examples=300, deadline=None)
@given(lattice_series(lead=square_leads, even_valuation=True))
def test_sqrt_matches_reference(x):
    same(x.sqrt(), ref_sqrt(x))


@settings(max_examples=100, deadline=None)
@given(lattice_series(lead=square_leads, even_valuation=True), lattice_series())
def test_zero_operands_match_reference(x, y):
    zero = LaurentSeries.zero(x.order)
    same(zero * y, ref_mul(zero, y))
    same(zero / y, ref_div(zero, y))
    same(zero.sqrt(), ref_sqrt(zero))


@pytest.mark.parametrize(
    "radicand",
    [
        LaurentSeries(0, (Fraction(1), Fraction(1)), 30),                      # 1 + t
        LaurentSeries(0, (Fraction(4, 9), 0, 0, Fraction(1)), 31),             # 4/9 + t^3
        LaurentSeries(2, (Fraction(9, 4), 0, 0, 0, Fraction(-3)), 27),         # t^2 (9/4 - 3t^4)
    ],
)
def test_sqrt_with_non_integer_root_coefficients(radicand):
    root = radicand.sqrt()
    same(root, ref_sqrt(radicand))
    assert any(c.denominator != 1 for c in root.coeffs)
    assert (root * root).equal_up_to(radicand)


def test_result_window_not_a_multiple_of_the_stride():
    x = LaurentSeries(0, (Fraction(1), 0, 0, 0, Fraction(-1), 0, 0), 7)   # 1 - t^4, known below t^7
    y = LaurentSeries(1, (Fraction(2), 0, 0, 0, Fraction(3), 0, 0, 0, Fraction(5), Fraction(1)), 11)
    # below the result window of 7 both lie on step 4; y's t^10 term lies beyond it
    for got, want in ((x * y, ref_mul(x, y)), (y / x, ref_div(y, x)), ((x * x).sqrt(), ref_sqrt(x * x))):
        same(got, want)
    assert (x * y).order == 8 and (y / x).order == 8
