"""Integer kernels of the field tower against the plain Fraction formulas.

The reference oracles below are the textbook algorithms over Q, entirely in
Fractions: the schoolbook product, long division, the Euclidean gcd made
monic, and the reduced quotient with a monic denominator.  ``Poly.__mul__``,
``divmod``, ``poly_gcd`` and the ``RatFunc`` canonical form must return the
same coefficients, as Fractions, for the zero polynomial, constants,
rational and negative leading coefficients, coprime inputs, common factors
of degree two and more, and degrees up to about 35 (the modular goals reach
32).

The ``RatFunc`` operators build reduced results from reduced operands, with
gcds of their operands' parts only; each must equal the public constructor
on the unreduced numerator and denominator, which the oracle above checks.

``QuadExt`` computes on one common denominator, (A + B*s) / D; its
operators must give the parts a and b that the textbook formulas over pairs
of ``RatFunc`` give, written out below, and one value must have one stored
form and one hash however it was built.
"""

import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from piqcheck import modular
from piqcheck.field import M, DivisionByZeroRatFunc, Poly, QuadExt, RatFunc, ZeroNormInverse, poly_gcd

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


# ----------------------------------------------------------------------
# RatFunc operators against the constructor on unreduced parts


def check_operators(x: RatFunc, y: RatFunc) -> None:
    """Each of x + y, x - y, x * y, x / y, -x and x ** e, against RatFunc(num, den) unreduced."""
    a, b, c, d = x.num, x.den, y.num, y.den
    assert x + y == RatFunc(a * d + c * b, b * d)
    assert x - y == RatFunc(a * d - c * b, b * d)
    assert x * y == RatFunc(a * c, b * d)
    assert -x == RatFunc(-a, b)
    if y.is_zero:
        with pytest.raises(DivisionByZeroRatFunc):
            x / y
    else:
        assert x / y == RatFunc(a * d, b * c)
    for e in range(-3, 4):
        if e < 0 and x.is_zero:
            with pytest.raises(DivisionByZeroRatFunc):
                x**e
        else:
            assert x**e == (RatFunc(a**e, b**e) if e >= 0 else RatFunc(b**-e, a**-e))


@st.composite
def operand_pairs(draw):
    """Reduced x and y whose parts are products of a few shared factors.

    One factor has degree 2 or more.  y is one of: a quotient of other
    products, so the denominators share factors; w - x for such a w, so
    that x + y = w and the sum's numerator cancels part of the shared
    denominator factor; a numerator over x's own denominator whose sum
    with x's numerator cancels a factor of it; zero; a constant.
    """
    pool = [draw(polys(max_degree=3, min_degree=2))]
    pool += draw(st.lists(polys(max_degree=3, min_degree=1), min_size=1, max_size=3))
    picks = st.lists(st.sampled_from(pool), max_size=4)

    def product(lead=True):
        out = Poly((draw(nonzero_rationals),)) if lead else Poly((1,))
        for f in draw(picks):
            out = ref_mul(out, f)
        return out

    x = RatFunc(product(), product(lead=False))
    kind = draw(st.sampled_from(["shared", "cancelling", "same-den", "zero", "constant"]))
    if kind in ("shared", "cancelling"):
        y = RatFunc(product(), product(lead=False))
        if kind == "cancelling":
            y = RatFunc(y.num * x.den - x.num * y.den, y.den * x.den)
    elif kind == "same-den":
        f = draw(st.sampled_from(pool))
        y = RatFunc(ref_mul(product(), f) - x.num, x.den)
    elif kind == "zero":
        y = RatFunc.of(0)
    else:
        y = RatFunc.of(draw(nonzero_rationals))
    return (x, y) if draw(st.booleans()) else (y, x)


@settings(max_examples=300, deadline=None)
@given(operand_pairs())
def test_ratfunc_operators_match_the_unreduced_constructor(pair):
    x, y = pair
    check_operators(x, y)
    check_operators(y, x)


R = RatFunc.of
QUAD = M**2 + 1


@pytest.mark.parametrize(
    "x, y",
    [
        # equal denominators; the sum cancels m - 1
        (R(1, (M - 1) * (M + 2)), R(M - 2, (M - 1) * (M + 2))),
        # a shared quadratic factor, and a sum coprime to it
        (R(1, QUAD * (M - 1)), R(M, QUAD * (M + 3))),
        # x + y = 1 / (m + 3): the second gcd takes all of the shared factor
        (R(1, QUAD * (M - 1)), R(QUAD * (M - 1) - (M + 3), (M + 3) * QUAD * (M - 1))),
        # coprime denominators, rational and negative leads
        (R(Fraction(-3, 2) * M**2 + 1, Fraction(5, 7) * (M - 5)), R(Fraction(2, 3) * M, -(M + 4))),
        # cross factors of a product: x's numerator with y's denominator and back
        (R((M - 1) * QUAD, (M + 2) * (M - 3)), R((M + 2) * M, -(M - 1) * QUAD * M)),
        # zero, constants and polynomials
        (R(0), R((M - 1) * (M + 2), M)),
        (R(Fraction(-2, 3)), R(5)),
        (R(M**3 - 2), R(Fraction(1, 2), M**2 - 2)),
    ],
    ids=["same-den", "shared", "second-gcd", "coprime", "cross", "zero", "constants", "poly"],
)
def test_each_operator_branch_matches_the_unreduced_constructor(x, y):
    check_operators(x, y)
    check_operators(y, x)


def test_no_operator_reaches_the_full_canonicalization_in_the_modular_replay(monkeypatch):
    """Only the public constructors reduce a pair from scratch; the operators never do."""
    # every method of RatFunc and its bases but the constructors, static and class methods unwrapped
    methods = (
        (name, getattr(f, "__func__", f)) for cls in RatFunc.__mro__ for name, f in vars(cls).items()
    )
    operators = {
        f.__code__
        for name, f in methods
        if hasattr(f, "__code__") and name not in ("of", "__init__", "__post_init__")
    }
    reached, calls = [], []
    post_init = RatFunc.__post_init__

    def counted(self):
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code in operators:
                reached.append(frame.f_code.co_name)
            frame = frame.f_back
        calls.append(1)
        post_init(self)

    monkeypatch.setattr(RatFunc, "__post_init__", counted)
    reports = modular.prove_all(3) + modular.prove_all(5)
    assert all(r.sides_equal for r in reports) and len(reports) == 14
    assert calls  # RatFunc.of, which the tables call, still reduces
    assert reached == []


# ----------------------------------------------------------------------
# QuadExt against the pairwise RatFunc formulas: x = a + b*s as the pair (a, b)

U3 = RatFunc.of((M - 1) * (M + 3), M)
U5 = RatFunc.of(M**3 - 2 * M**2 + 5 * M)


def pair_mul(x, y, u):
    (a, b), (c, d) = x, y
    return a * c + b * d * u, a * d + b * c


def pair_norm(x, u):
    a, b = x
    return a * a - b * b * u


def pair_inverse(x, u):
    n = pair_norm(x, u)
    return x[0] / n, -x[1] / n


def pair_pow(x, e, u):
    if e < 0:
        return pair_pow(pair_inverse(x, u), -e, u)
    out = (RatFunc.of(1), RatFunc.of(0))
    for _ in range(e):
        out = pair_mul(out, x, u)
    return out


def pair_str(x):
    a, b = x
    if b.is_zero:
        return str(a)
    if a.is_zero:
        return f"({b}) * s"
    return f"({a}) + ({b}) * s"


def parts(z: QuadExt):
    return z.a, z.b


def stored(z: QuadExt):
    return z._num, z._rad, z._den


wide_rationals = st.builds(
    Fraction, st.integers(min_value=-(2**80), max_value=2**80), st.integers(min_value=1, max_value=2**40)
)


@st.composite
def ratfunc_parts(draw):
    """A reduced rational function: zero, a rational scalar, or a quotient with wide coefficients."""
    kind = draw(st.sampled_from(["zero", "scalar", "quotient", "wide"]))
    if kind == "zero":
        return RatFunc.of(0)
    if kind == "scalar":
        return RatFunc.of(draw(nonzero_rationals))
    coeffs = wide_rationals if kind == "wide" else rationals
    num = Poly(tuple(draw(st.lists(coeffs, max_size=4))))
    den = Poly(tuple(draw(st.lists(coeffs, min_size=1, max_size=3)))).monic()
    return RatFunc(num, den if not den.is_zero else Poly((1,)))


pairs_of_parts = st.tuples(ratfunc_parts(), ratfunc_parts())


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([U3, U5]), pairs_of_parts, pairs_of_parts, nonzero_rationals)
def test_quadext_operators_match_the_pairwise_ratfunc_formulas(u, xp, yp, c):
    x, y = QuadExt(*xp, u), QuadExt(*yp, u)
    (a, b), (e, f) = xp, yp
    assert parts(x) == xp and str(x) == pair_str(xp)
    assert parts(x + y) == (a + e, b + f)
    assert parts(x - y) == (a - e, b - f)
    assert parts(-x) == (-a, -b)
    assert parts(x.conjugate()) == (a, -b)
    assert parts(x * y) == pair_mul(xp, yp, u)
    assert parts(x * x) == pair_mul(xp, xp, u)
    assert parts(x * c) == parts(c * x) == (a * c, b * c)
    assert parts(x + c) == (a + c, b)
    assert x.norm() == pair_norm(xp, u)
    assert x.is_rational == b.is_zero
    if y.is_rational and e.is_zero:
        with pytest.raises(ZeroNormInverse):
            y.inverse()
    else:
        assert parts(y.inverse()) == pair_inverse(yp, u)
        assert parts(x / y) == pair_mul(xp, pair_inverse(yp, u), u)
    for k in range(-2, 4):
        if k < 0 and pair_norm(xp, u).is_zero:
            continue
        assert parts(x**k) == pair_pow(xp, k, u)
        assert str(x**k) == pair_str(pair_pow(xp, k, u))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([U3, U5]), pairs_of_parts, pairs_of_parts)
def test_one_value_has_one_stored_form_and_hash(u, xp, yp):
    x, y = QuadExt(*xp, u), QuadExt(*yp, u)
    routes = [
        (x * y, y * x),
        ((x + y) - y, x),
        (QuadExt(*parts(x * y), u), x * y),
        (x * y + x, x * (y + 1)),
        (x.conjugate().conjugate(), x),
        (x * x, x**2),
    ]
    for left, right in routes:
        assert stored(left) == stored(right)
        assert left == right and hash(left) == hash(right)
    # the stored parts share no factor and D's lead is positive
    num, rad, den = stored(x * y)
    assert den[-1] > 0
    assert gcd(*num, *rad, *den) == 1
    common = Poly(den)
    for part in (num, rad):
        common = poly_gcd(common, Poly(part))
    assert common.degree == 0
