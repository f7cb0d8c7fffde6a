"""Integer kernels of the field tower against the plain Fraction formulas.

The reference oracles below are the textbook algorithms over Q, entirely in
Fractions: the schoolbook product, long division, the Euclidean gcd made
monic, and the reduced quotient with a monic denominator.  ``Poly.__mul__``,
``divmod``, ``poly_gcd`` and the ``RatFunc`` canonical form must return the
same coefficients, as Fractions, for the zero polynomial, constants,
rational and negative leading coefficients, coprime inputs, common factors
of degree two and more, and degrees up to about 35 (the modular goals reach
32).
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from piqcheck.field import M, DivisionByZeroRatFunc, Poly, RatFunc, poly_gcd

ZERO = Poly(())


def ref_mul(a: Poly, b: Poly) -> Poly:
    if a.is_zero or b.is_zero:
        return ZERO
    out = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return Poly(tuple(out))


def ref_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    if a.degree < b.degree:
        return ZERO, a
    rem = list(a.coeffs)
    quot = [Fraction(0)] * (a.degree - b.degree + 1)
    for shift in range(a.degree - b.degree, -1, -1):
        c = rem[shift + b.degree] / b.coeffs[-1]
        quot[shift] = c
        for j, y in enumerate(b.coeffs):
            rem[shift + j] -= c * y
    return Poly(tuple(quot)), Poly(tuple(rem[: b.degree]))


def ref_monic(a: Poly) -> Poly:
    return a if a.is_zero else Poly(tuple(c / a.coeffs[-1] for c in a.coeffs))


def ref_gcd(a: Poly, b: Poly) -> Poly:
    while not b.is_zero:
        a, b = b, ref_divmod(a, b)[1]
    return ref_monic(a)


def ref_canonical(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    if num.is_zero:
        return ZERO, Poly((1,))
    g = ref_gcd(num, den)
    num, den = ref_divmod(num, g)[0], ref_divmod(den, g)[0]
    lc = den.coeffs[-1]
    return Poly(tuple(c / lc for c in num.coeffs)), ref_monic(den)


def same(got: Poly, want: Poly) -> None:
    assert got.coeffs == want.coeffs
    assert all(type(c) is Fraction for c in got.coeffs)


# ----------------------------------------------------------------------
# strategies

rationals = st.builds(
    Fraction,
    st.integers(min_value=-9, max_value=9),
    st.sampled_from([1, 1, 1, 2, 3, 5]),
)
nonzero_rationals = rationals.filter(bool)


@st.composite
def polys(draw, max_degree=12, min_degree=-1):
    """A polynomial with a rational, possibly negative, leading coefficient.

    Degree -1 is the zero polynomial and degree 0 a constant.
    """
    degree = draw(st.integers(min_value=min_degree, max_value=max_degree))
    if degree < 0:
        return ZERO
    body = draw(st.lists(rationals, min_size=degree, max_size=degree))
    return Poly(tuple(body) + (draw(nonzero_rationals),))


@st.composite
def sharing_pairs(draw):
    """(f*g, f*h): a common factor f of degree 2 or more, products up to degree 35."""
    f = draw(polys(max_degree=10, min_degree=2))
    g = draw(polys(max_degree=35 - f.degree, min_degree=0))
    h = draw(polys(max_degree=35 - f.degree, min_degree=0))
    return ref_mul(f, g), ref_mul(f, h), f


@st.composite
def coprime_pairs(draw):
    """Products of distinct linear factors m - r, with no root in common."""
    roots = draw(st.lists(rationals, min_size=2, max_size=24, unique=True))
    cut = draw(st.integers(min_value=1, max_value=len(roots) - 1))
    lead_a, lead_b = draw(nonzero_rationals), draw(nonzero_rationals)
    a, b = Poly((lead_a,)), Poly((lead_b,))
    for r in roots[:cut]:
        a = ref_mul(a, M - r)
    for r in roots[cut:]:
        b = ref_mul(b, M - r)
    return a, b


any_pairs = st.one_of(
    st.tuples(polys(), polys()),
    sharing_pairs().map(lambda t: t[:2]),
    coprime_pairs(),
)


# ----------------------------------------------------------------------
# equivalence


@settings(max_examples=300, deadline=None)
@given(st.tuples(polys(max_degree=35), polys(max_degree=35)))
def test_mul_matches_reference(pair):
    a, b = pair
    same(a * b, ref_mul(a, b))
    same(b * a, ref_mul(b, a))


@settings(max_examples=200, deadline=None)
@given(any_pairs)
def test_divmod_matches_reference(pair):
    a, b = pair
    if b.is_zero:
        with pytest.raises(DivisionByZeroRatFunc):
            divmod(a, b)
        return
    q, r = divmod(a, b)
    want_q, want_r = ref_divmod(a, b)
    same(q, want_q)
    same(r, want_r)
    same(ref_mul(q, b) + r, a)


@settings(max_examples=200, deadline=None)
@given(any_pairs)
def test_gcd_matches_reference(pair):
    a, b = pair
    same(poly_gcd(a, b), ref_gcd(a, b))
    same(poly_gcd(b, a), ref_gcd(b, a))


@settings(max_examples=100, deadline=None)
@given(sharing_pairs())
def test_gcd_keeps_the_common_factor(triple):
    a, b, f = triple
    g = poly_gcd(a, b)
    same(g, ref_gcd(a, b))
    assert g.degree >= f.degree
    assert ref_divmod(g, f)[1].is_zero


@settings(max_examples=100, deadline=None)
@given(coprime_pairs())
def test_gcd_of_coprime_inputs_is_one(pair):
    a, b = pair
    same(poly_gcd(a, b), Poly((1,)))


@settings(max_examples=200, deadline=None)
@given(any_pairs)
def test_ratfunc_canonical_form_matches_reference(pair):
    num, den = pair
    if den.is_zero:
        with pytest.raises(DivisionByZeroRatFunc):
            RatFunc(num, den)
        return
    r = RatFunc(num, den)
    want_num, want_den = ref_canonical(num, den)
    same(r.num, want_num)
    same(r.den, want_den)


@pytest.mark.parametrize(
    "a, b",
    [
        (ZERO, ZERO),
        (ZERO, Poly((Fraction(-3, 2),))),
        (Poly((Fraction(-3, 2),)), ZERO),
        (Poly((Fraction(2, 3),)), Poly((Fraction(-5, 7),))),
        (Fraction(-2, 3) * (M - 1) ** 3 * (M + 3), Fraction(5, 4) * (M - 1) ** 2 * M),
        (-(M**2 + M + 1) * (M - 5), -(M**2 + M + 1) * (2 * M + 3)),
    ],
)
def test_edge_cases_match_reference(a, b):
    same(poly_gcd(a, b), ref_gcd(a, b))
    same(a * b, ref_mul(a, b))
    if not b.is_zero:
        r = RatFunc(a, b)
        want_num, want_den = ref_canonical(a, b)
        same(r.num, want_num)
        same(r.den, want_den)
