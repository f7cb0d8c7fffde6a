"""Stride-compressed series kernels against the plain O(n^2) Fraction formulas.

The reference oracles below run the textbook recurrences on every exponent of
the window, zeros included, entirely in Fractions.  The kernels in
``piqcheck.series`` must return the same valuation, order and coefficients for
series on any exponent lattice, with windows that are not multiples of the
lattice step and with unknown tails that break the lattice beyond the window.
"""

import operator
import sys
from fractions import Fraction
from functools import reduce
from math import gcd, isqrt

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from piqcheck import series
from piqcheck.field import M, QuadExt, RatFunc
from piqcheck.series import (
    _WORD_CODES,
    LaurentSeries,
    NonSquareLeadingCoefficient,
    _pack,
    _packed_mul,
    _unpack,
)


def sqrt_fraction(c: Fraction) -> Fraction | None:
    """Exact positive square root of a rational, or None if it is not a square."""
    if c < 0:
        return None
    rn, rd = isqrt(c.numerator), isqrt(c.denominator)
    if rn * rn == c.numerator and rd * rd == c.denominator:
        return Fraction(rn, rd)
    return None


def ref_mul(x: LaurentSeries, y: LaurentSeries) -> LaurentSeries:
    if x.is_zero or y.is_zero:
        return LaurentSeries.zero(min(x.order + y.valuation, y.order + x.valuation))
    xc, yc = x.coeffs, y.coeffs  # each read builds the window
    n = min(len(xc), len(yc))
    val = x.valuation + y.valuation
    coeffs = [sum((xc[i] * yc[k - i] for i in range(k + 1)), Fraction(0)) for k in range(n)]
    return LaurentSeries(val, tuple(coeffs), val + n)


def ref_div(x: LaurentSeries, y: LaurentSeries) -> LaurentSeries:
    if x.is_zero:
        return LaurentSeries.zero(x.order - y.valuation)
    xc, yc = x.coeffs, y.coeffs  # each read builds the window
    n = min(len(xc), len(yc))
    val = x.valuation - y.valuation
    q = [Fraction(0)] * n
    for k in range(n):
        acc = xc[k]
        for i in range(k):
            acc -= q[i] * yc[k - i]
        q[k] = acc / yc[0]
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


# numerators of 40 to 60 bits: a product slot of such entries is over 8 bytes wide
wide_rationals = st.builds(
    Fraction,
    st.integers(min_value=-(2**40), max_value=2**40),
    st.sampled_from([1, 1, 3, 2**20 + 1]),
)


@st.composite
def lattice_series(
    draw, g=None, lead=nonzero_rationals, even_valuation=False, max_window=40, values=rationals,
    intact=st.just(False),
):
    """A series whose nonzero offsets below a cut lie on the lattice g*i.

    At and beyond the cut any offset may be nonzero, so the lattice holds only
    for windows that end at or before it; ``intact`` draws True to put the
    cut at the end of the window.
    """
    g = draw(strides) if g is None else g
    val = draw(st.integers(min_value=-6, max_value=6))
    if even_valuation:
        val -= val % 2
    window = draw(st.integers(min_value=1, max_value=max_window))
    cut = draw(st.integers(min_value=0, max_value=window + 8))
    if draw(intact):
        cut = window
    coeffs = [draw(lead)]
    for i in range(1, window):
        on_lattice = i % g == 0 or i >= cut
        coeffs.append(draw(values) if on_lattice and draw(st.booleans()) else Fraction(0))
    return LaurentSeries(val, tuple(coeffs), val + window)


@st.composite
def operand_pairs(draw, lead=nonzero_rationals):
    if draw(st.booleans()):
        g = draw(strides)
        x = draw(lattice_series(g))
        # the second operand sits on the same lattice, a multiple of it, or none
        return x, draw(lattice_series(g * draw(st.sampled_from([1, 1, 2])), lead=lead))
    # lattices 2 to 48 apart, with up to 12 coarse terms of narrow or wide
    # numerators: class products on both sides of series.SPLIT_MIN_BYTES
    g = draw(st.sampled_from([1, 2]))
    r = draw(st.integers(min_value=2, max_value=48))
    values = draw(st.sampled_from([rationals, wide_rationals, wide_rationals]))
    window = min(12 * g * r, 144)
    x = draw(lattice_series(g, max_window=window, values=values, intact=st.booleans()))
    y = draw(lattice_series(g * r, lead=lead, max_window=window, values=values, intact=st.booleans()))
    return (x, y) if draw(st.booleans()) else (y, x)


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


# one-term factors whose numerator or denominator shares primes with the other
# factor's denominator or numerators, some of them wide
term_leads = st.builds(
    Fraction,
    st.sampled_from([1, -1, 2, -3, 4, 6, -9, 12, 5**40, -(6**30)]),
    st.sampled_from([1, 2, 3, 4, 9, 12, 7**25, 6**20]),
)


def fully_reduced(term: LaurentSeries, y: LaurentSeries) -> LaurentSeries:
    """term * y for a one-term term, reduced by a gcd over every scaled numerator."""
    val = term.valuation + y.valuation
    order = val + min(term.precision, y.precision)
    nums = [v * term._nums[0] for v in y._nums]
    return LaurentSeries._build(val, order, y._g, nums, term._den * y._den)


@settings(max_examples=300, deadline=None)
@given(
    term_leads,
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=48),
    lattice_series(),
)
def test_one_term_products_match_the_full_reduction(lead, exponent, precision, y):
    # the term's precision may be below y's, and then y is cut to the result window
    term = LaurentSeries(exponent, (lead,), exponent + precision)
    for got in (term * y, y * term):
        canonical(got)
        assert got == fully_reduced(term, y)
        same(got, ref_mul(term, y))
    square = term * term
    canonical(square)
    assert square == fully_reduced(term, term)
    assert square == LaurentSeries(2 * exponent, (lead**2,), 2 * exponent + precision)
    scaled = y.scale(lead)
    canonical(scaled)
    assert scaled == LaurentSeries._build(
        y.valuation, y.order, y._g, [v * lead.numerator for v in y._nums], y._den * lead.denominator
    )


@settings(max_examples=300, deadline=None)
@given(operand_pairs(lead=divisor_leads))
def test_div_matches_reference(pair):
    x, y = pair
    same(x / y, ref_div(x, y))


@settings(max_examples=300, deadline=None)
@given(lattice_series(lead=square_leads, even_valuation=True))
def test_sqrt_matches_reference(x):
    same(x.sqrt(), ref_sqrt(x))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=1, max_value=30),
    st.sampled_from([1, -1, 2, -2, 3, 6, 12, 18]),
    st.sampled_from([1, 2, 3, 5, 8, 12]),
    st.lists(st.integers(min_value=-9, max_value=9), max_size=6),
    st.sampled_from([1, 2, 4, 6]),
)
def test_sqrt_accepts_exactly_the_rational_square_leads(a, b, k, c, rest, den):
    # the lead a^2 k / (b^2 c) is not in lowest terms against the other
    # coefficients' denominator, so a0 * d is tested, not a0 / d
    lead = Fraction(a * a * k, b * b * c)
    x = LaurentSeries(0, (lead, *(Fraction(r, den) for r in rest)), 1 + len(rest))
    if sqrt_fraction(lead) is None:
        with pytest.raises(NonSquareLeadingCoefficient) as err:
            x.sqrt()
        assert str(err.value) == f"leading coefficient {lead} is not the square of a rational"
    else:
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
    assert (root * root).compare(radicand).is_zero


def test_result_window_not_a_multiple_of_the_stride():
    x = LaurentSeries(0, (Fraction(1), 0, 0, 0, Fraction(-1), 0, 0), 7)   # 1 - t^4, known below t^7
    y = LaurentSeries(1, (Fraction(2), 0, 0, 0, Fraction(3), 0, 0, 0, Fraction(5), Fraction(1)), 11)
    # below the result window of 7 both lie on step 4; y's t^10 term lies beyond it
    for got, want in ((x * y, ref_mul(x, y)), (y / x, ref_div(y, x)), ((x * x).sqrt(), ref_sqrt(x * x))):
        same(got, want)
    assert (x * y).order == 8 and (y / x).order == 8


# ----------------------------------------------------------------------
# the stored integer form


def at(x: LaurentSeries, e: int) -> Fraction:
    """Coefficient of t^e read from the Fraction window alone."""
    return x.coeffs[e - x.valuation] if x.valuation <= e < x.order else Fraction(0)


def ref_add(x: LaurentSeries, y: LaurentSeries, sign: int = 1) -> LaurentSeries:
    order = min(x.order, y.order)
    start = min(x.valuation, y.valuation, order)
    return LaurentSeries(start, tuple(at(x, e) + sign * at(y, e) for e in range(start, order)), order)


def canonical(s: LaurentSeries) -> None:
    """The stored form is the unique one: lattice step, trimmed numerators, reduced denominator."""
    nums, g, den = s._nums, s._g, s._den
    assert all(type(v) is int for v in nums) and type(den) is int and den > 0
    if not nums:
        assert (s.valuation, g, den) == (s.order, 0, 1)
        return
    assert nums[0] and nums[-1]
    assert g == gcd(*(j * g for j, v in enumerate(nums) if v))
    assert gcd(den, *nums) == 1
    assert s.valuation + (len(nums) - 1) * g < s.order


def same_and_canonical(got: LaurentSeries, want: LaurentSeries) -> None:
    same(got, want)
    canonical(got)
    assert got == want and hash(got) == hash(want)


@st.composite
def unaligned_pairs(draw):
    """Operands on lattices of any steps, with any valuations and windows."""
    return draw(lattice_series(lead=rationals)), draw(lattice_series(lead=rationals))


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(operand_pairs(lead=rationals), unaligned_pairs()),
    st.one_of(st.integers(-12, 12), rationals),
)
def test_add_and_sub_match_reference(pair, c):
    x, y = pair
    same_and_canonical(x + y, ref_add(x, y))
    same_and_canonical(y + x, ref_add(x, y))
    same_and_canonical(x - y, ref_add(x, y, -1))
    same_and_canonical(y - x, ref_add(y, x, -1))
    same_and_canonical(x - x, LaurentSeries.zero(x.order))
    # a constant term is known to x's order; a constant factor is exact, so
    # its reference is known as far as x is, and a zero factor keeps x's order
    const = LaurentSeries.constant(c, x.order)
    same_and_canonical(c + x, ref_add(const, x))
    same_and_canonical(c - x, ref_add(const, x, -1))
    same_and_canonical(x - c, ref_add(x, const, -1))
    factor = LaurentSeries.constant(c, max(x.precision, 1))
    same_and_canonical(c * x, ref_mul(factor, x) if c else LaurentSeries.zero(x.order))


@settings(max_examples=200, deadline=None)
@given(operand_pairs(lead=divisor_leads), lattice_series(lead=square_leads, even_valuation=True))
def test_kernel_results_are_canonical(pair, radicand):
    x, y = pair
    same_and_canonical(x * y, ref_mul(x, y))
    same_and_canonical(x / y, ref_div(x, y))
    same_and_canonical(radicand.sqrt(), ref_sqrt(radicand))


@settings(max_examples=200, deadline=None)
@given(st.one_of(operand_pairs(lead=rationals), unaligned_pairs()))
def test_coeffs_round_trip_through_the_constructor(pair):
    for s in (*pair, pair[0] * pair[1], pair[0] - pair[1]):
        canonical(s)
        rebuilt = LaurentSeries(s.valuation, s.coeffs, s.order)
        assert rebuilt == s and hash(rebuilt) == hash(s)
        assert rebuilt.coeffs == s.coeffs


@settings(max_examples=100, deadline=None)
@given(lattice_series(lead=divisor_leads), st.integers(min_value=1, max_value=12))
def test_windows_that_differ(x, extra):
    """Terms of the longer operand beyond the shorter window are never read."""
    # y is x, known further, with two adjacent terms beyond x's order: off every lattice
    y = LaurentSeries(x.valuation, x.coeffs + (0,) * (extra - 1) + (3, -1), x.order + extra + 1)
    assert y._g == 1 and y.truncate(x.order) == x
    for a, b in ((x, y), (y, x)):
        same_and_canonical(a * b, ref_mul(a, b))
        same_and_canonical(a / b, ref_div(a, b))
        same_and_canonical(a + b, ref_add(a, b))
        same_and_canonical(a - b, ref_add(a, b, -1))
    assert (y - x).is_zero and (y - x).order == x.order


def test_equal_series_from_fractions_and_from_kernels_are_equal_and_hash_equal():
    one_minus_t4 = LaurentSeries(0, (Fraction(1), 0, 0, 0, Fraction(-1)), 40)
    from_kernel = (one_minus_t4 * one_minus_t4) / one_minus_t4
    from_fractions = LaurentSeries(0, [Fraction(1), 0, 0, 0, Fraction(-1)] + [0] * 35, 40)
    assert from_kernel == from_fractions and hash(from_kernel) == hash(from_fractions)
    assert len({from_kernel, from_fractions, one_minus_t4}) == 1
    halves = LaurentSeries(3, (Fraction(1, 2), 0, Fraction(3, 2)), 9)
    assert halves == LaurentSeries(3, ("1/2", 0, "3/2", 0, 0, 0), 9)
    assert halves != halves.truncate(8) and halves != halves.shift(1)
    assert (halves._g, halves._nums, halves._den) == (2, (1, 3), 2)


def test_builders_store_their_lattice_once():
    from piqcheck import theta

    assert theta.pochhammer(8, 8, 800)._g == 8
    assert theta.phi(1, 800)._g == 4 and theta.psi(2, 800)._g == 8
    assert theta.phi(1, 800)._nums == tuple(1 if j == 0 else 2 if isqrt(j) ** 2 == j else 0 for j in range(197))
    assert theta.phi(1, 800)._den == 1
    assert theta.phi(1, 800).coeffs == LaurentSeries(0, theta.phi(1, 800).coeffs, 800).coeffs


# ----------------------------------------------------------------------
# the packed product


@st.composite
def packed_operands(draw, g: int, length: int, window: int):
    """A series with `length` entries on the lattice of step g, known for `window` exponents.

    Numerators reach 170 bits and take either sign.  A row whose entries all
    have the magnitude 2^B - 1 puts the product's coefficients next to the
    slot bound; one of all 2^B sits just past a bit-length boundary; random
    rows mix zeros in.  Entries over 3 or 7 give a stored denominator other than 1.
    """
    rnd = draw(st.randoms(use_true_random=False))
    bits = draw(st.integers(min_value=1, max_value=170))
    shape = draw(st.sampled_from(["random", "2^B", "2^B-1"]))
    signs = draw(st.sampled_from(["+", "-", "alternating", "random"]))
    den = draw(st.sampled_from([1, 1, 3, 7, None]))  # None: a denominator per entry
    nums = []
    for i in range(length):
        if shape == "random":
            v = rnd.getrandbits(bits) if rnd.random() < 0.8 else 0
        else:
            v = (1 << bits) - (shape == "2^B-1")
        sign = {"+": 1, "-": -1, "alternating": (-1) ** i, "random": rnd.choice((1, -1))}[signs]
        nums.append(sign * v)
    nums[0] = nums[0] or 1
    coeffs = [0] * ((length - 1) * g + 1)
    coeffs[::g] = [Fraction(v, den or rnd.choice((1, 2, 3, 7))) for v in nums]
    val = draw(st.integers(min_value=-6, max_value=6))
    return LaurentSeries(val, coeffs, val + window)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_packed_products_match_reference(data):
    """Products of 1 to 300 entries, truncated to the shorter window or complete, on lattices that differ."""
    g = data.draw(st.sampled_from([1, 1, 2]), label="step")
    k = data.draw(st.sampled_from([1, 1, 2]), label="second operand's step / step")
    full = data.draw(st.booleans(), label="complete product")
    cap = (150 if full else 300) // g
    la = data.draw(st.integers(min_value=1, max_value=cap), label="entries of x")
    lb = data.draw(st.integers(min_value=1, max_value=cap // k), label="entries of y")
    # windows past both operands' last entries keep the whole product; windows
    # that end with their entries cut it to the shorter one
    both = la * g + lb * g * k
    x = data.draw(packed_operands(g, la, both if full else la * g))
    y = data.draw(packed_operands(g * k, lb, both if full else lb * g * k))
    want = ref_mul(x, y)
    same_and_canonical(x * y, want)
    same_and_canonical(y * x, want)
    # a square packs its operand once
    assert x * x == x * LaurentSeries(x.valuation, x.coeffs, x.order)


@pytest.mark.parametrize("signs", [(1, 1), (1, -1), ("alternating", "alternating")])
@pytest.mark.parametrize("bits, length", [(164, 200), (61, 40), (20, 250), (170, 12)])
def test_packed_slot_bound_is_tight(bits, length, signs):
    """Rows of 2^B - 1 with one sign product: the middle coefficient nears the slot bound.

    2B + bitlen(length) is a multiple of 8 in every case, so a slot one bit
    narrower than the least that holds every coefficient fills whole bytes
    and overflows.
    """
    assert (2 * bits + length.bit_length()) % 8 == 0
    magnitude = (1 << bits) - 1

    def row(sign):
        return [magnitude * (sign if sign != "alternating" else (-1) ** i) for i in range(length)]

    x, y = (LaurentSeries(0, row(s), length) for s in signs)
    want = ref_mul(x, y)
    assert abs(want.coefficient(length - 1)) >= 1 << (2 * bits + length.bit_length() - 1)
    same_and_canonical(x * y, want)
    same_and_canonical(x * x, ref_mul(x, x))


@pytest.mark.parametrize("signs", [(1, 1), (1, -1), ("alternating", "alternating")])
@pytest.mark.parametrize(
    "slot_bytes, bits, length", [(1, 2, 3), (2, 3, 200), (4, 11, 200), (8, 27, 200), (9, 31, 200)]
)
def test_word_sized_slots_hold_the_product(slot_bytes, bits, length, signs):
    """Rows of 2^B - 1 whose least slot, 2B + bitlen(length) + 2 bits, is 1, 2, 4, 8 or 9 bytes.

    Slots of up to 8 bytes are read back as machine words and wider ones byte
    by byte.  Past one byte, the middle coefficient needs more than a slot one
    byte narrower holds, so a slot rounded to the next narrower word overflows.
    """
    assert 2 * bits + length.bit_length() + 2 == 8 * slot_bytes
    magnitude = (1 << bits) - 1

    def row(sign):
        return [magnitude * (sign if sign != "alternating" else (-1) ** i) for i in range(length)]

    x, y = (LaurentSeries(0, row(s), length) for s in signs)
    want = ref_mul(x, y)
    assert slot_bytes == 1 or abs(want.coefficient(length - 1)) > 1 << (8 * slot_bytes - 9)
    same_and_canonical(x * y, want)
    same_and_canonical(x * x, ref_mul(x, x))


@pytest.mark.skipif(sys.byteorder != "little", reason="native words are packed on little-endian hosts")
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_word_packs_spell_the_signed_slot_sum(data):
    """Entries up to +-(half - 1) of a 1-, 2-, 4- or 8-byte slot, packed as words and byte by byte."""
    width = data.draw(st.sampled_from([1, 2, 4, 8]), label="slot bytes")
    half = 1 << (8 * width - 1)
    edges = st.sampled_from([half - 1, 1 - half, 0, 1, -1])
    vals = data.draw(st.lists(edges | st.integers(1 - half, half - 1), min_size=1, max_size=300))
    want = sum(v << (8 * width * i) for i, v in enumerate(vals))
    assert _pack(vals, width, _WORD_CODES[width]) == want
    assert _pack(vals, width, None) == want


@pytest.mark.parametrize("width", range(1, 25))
def test_packs_of_negative_edge_entries_take_each_borrow_off(width):
    """Runs of 1 - half, -1 and mixed signs: every negative slot borrows from the one above."""
    half = 1 << (8 * width - 1)
    words = sys.byteorder == "little" and width in _WORD_CODES
    for vals in ([1 - half] * 7, [-1] * 5, [1 - half, half - 1] * 3, [half - 1, -1, 0, 1 - half, 1], [1 - half]):
        want = sum(v << (8 * width * i) for i, v in enumerate(vals))
        assert _pack(vals, width, None) == want
        if words:
            assert _pack(vals, width, _WORD_CODES[width]) == want


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_slot_reader_matches_a_read_of_each_slot(data):
    """Two's-complement slots of 1 to 24 bytes, entries of either sign, read from any start to any end."""
    width = data.draw(st.integers(1, 24), label="slot bytes")
    words = sys.byteorder == "little" and width in _WORD_CODES and data.draw(st.booleans())
    code = _WORD_CODES[width] if words else None
    half = 1 << (8 * width - 1)
    edges = st.sampled_from([half - 1, 1 - half, 0, 1, -1])
    vals = data.draw(st.lists(edges | st.integers(1 - half, half - 1), min_size=1, max_size=200))
    m = data.draw(st.integers(0, len(vals)), label="end")
    start = data.draw(st.integers(0, m), label="start")
    # a spare byte above the slots, as the product's signed conversion leaves one
    spare = data.draw(st.sampled_from([b"\x00", b"\xff"]), label="spare byte")
    raw = memoryview(b"".join([v.to_bytes(width, "little", signed=True) for v in vals]) + spare)
    want = [
        int.from_bytes(raw[i : i + width], "little", signed=True)
        for i in range(start * width, m * width, width)
    ]
    assert want == vals[start:m]
    assert _unpack(raw, width, code, start, m) == want


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_wide_slot_products_match_the_schoolbook_product(data):
    """Entries past 2**64 need slots wider than 8 bytes; coefficients from any start."""
    entries = st.integers(-(1 << 90), 1 << 90)
    a = data.draw(st.lists(entries, min_size=1, max_size=40), label="a")
    b = data.draw(st.lists(entries, min_size=1, max_size=40), label="b")
    full = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            full[i + j] += x * y
    m = data.draw(st.integers(1, len(full)), label="end")
    start = data.draw(st.integers(0, m), label="start")
    assert _packed_mul(a, b, m, False, start) == full[start:m]
    assert _packed_mul(a, a, min(m, 2 * len(a) - 1), True) == [
        sum(a[i] * a[k - i] for i in range(max(0, k - len(a) + 1), min(k, len(a) - 1) + 1))
        for k in range(min(m, 2 * len(a) - 1))
    ]


@st.composite
def long_radicands(draw):
    """Radicands on a lattice of step 1 to 4 whose roots span up to ~300 lattice points.

    The root's count of lattice points is drawn next to series.SQRT_BLOCK, its
    multiples and the powers of two, and in its top quarter, as often as
    anywhere else.  A third are
    squares of a series of integers, a third squares of a series with
    rational entries, and the rest have small integer entries after a square
    lead, so most of their root's entries are Fractions.
    """
    g = draw(st.sampled_from([1, 1, 2, 3, 4]), label="step")
    b = series.SQRT_BLOCK
    near = sorted({c + e for c in (b, 2 * b, 3 * b, 4 * b, 64, 128, 256) for e in (-1, 0, 1)})
    cap = 300 // g
    longest = st.integers(cap * 3 // 4, cap)
    points = draw(st.sampled_from([p for p in near if p <= cap]) | st.integers(1, cap) | longest, label="points")
    window = (points - 1) * g + 1 + draw(st.integers(0, g - 1), label="past the last point")
    val = draw(st.integers(-4, 4), label="root valuation")
    kind = draw(st.sampled_from(["integer square", "rational square", "non-square"]))
    if kind == "integer square":
        entries, lead, scale = st.integers(-99, 99), draw(st.sampled_from([1, -1, 3])), 1
    elif kind == "rational square":
        entries = st.integers(-9, 9) | st.sampled_from([Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3)])
        lead, scale = draw(st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 3), Fraction(3, 7)])), 1
    else:
        entries, lead, scale = st.integers(-2, 2), draw(square_leads), 2
    coeffs = [0] * window
    coeffs[0] = lead
    coeffs[g::g] = draw(st.lists(entries, min_size=points - 1, max_size=points - 1), label="entries")
    x = LaurentSeries(scale * val, coeffs, scale * val + window)
    return x * x if scale == 1 else x


# no shrinking: each reference root of ~300 points takes up to 0.2 s, and a
# failing example would spend minutes shrinking before it is reported
@settings(max_examples=40, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(long_radicands())
def test_long_square_roots_match_reference(x):
    """Roots that gather their pairs by packed products, on both sides of each block's edge."""
    same_and_canonical(x.sqrt(), ref_sqrt(x))


# ----------------------------------------------------------------------
# quotients on the divisor's lattice, products with a one-term factor


@st.composite
def coarse_divisor_pairs(draw):
    """A numerator on the quotient's step and a divisor on a lattice `ratio` times coarser.

    Windows reach 200.  Either operand may be a single term (g == 0).  The
    divisor's lead is +-1, a non-unit integer or a rational, so that its
    reciprocal scales a lead and a denominator out.
    """
    rnd = draw(st.randoms(use_true_random=False))
    step = draw(st.sampled_from([1, 1, 2, 4]))  # step 1: the shape of a sum off every lattice
    ratio = draw(st.sampled_from([1, 2, 3, 5, 6, 20, 24]))

    def series(g, lead):
        window = draw(st.integers(min_value=1, max_value=200))
        coeffs = [lead] + [0] * (window - 1)
        if draw(st.integers(min_value=0, max_value=7)):  # else one term
            for i in range(g, window, g):
                if i == g or rnd.random() < 0.6:
                    v = rnd.choice((-1, 1)) * rnd.randint(1, 9)
                    coeffs[i] = Fraction(v, rnd.choice((1, 1, 1, 2, 3)))
        val = draw(st.integers(min_value=-6, max_value=6))
        return LaurentSeries(val, coeffs, val + window)

    return series(step, draw(nonzero_rationals)), series(step * ratio, draw(divisor_leads))


@settings(max_examples=100, deadline=None)
@given(coarse_divisor_pairs())
def test_quotients_by_a_coarser_divisor_match_reference(pair):
    x, y = pair
    same_and_canonical(x / y, ref_div(x, y))


one_term_factors = st.builds(
    lambda e, window, c: LaurentSeries.monomial(e, e + window, c),
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=60),
    nonzero_rationals,
)


@settings(max_examples=200, deadline=None)
@given(one_term_factors, st.one_of(lattice_series(lead=rationals), one_term_factors))
def test_one_term_factors_match_reference(f, x):
    same_and_canonical(f * x, ref_mul(f, x))
    same_and_canonical(x * f, ref_mul(x, f))
    same_and_canonical(f * f, ref_mul(f, f))


ONE_TERM = {
    "constant": LaurentSeries.constant(3, 40),
    "rational constant": LaurentSeries.constant(Fraction(-1, 6), 40),
    "monomial": LaurentSeries.monomial(5, 40, Fraction(-2, 3)),
    "shorter window": LaurentSeries.monomial(-3, 2, Fraction(-2, 3)),
    "known zeros after it": LaurentSeries(2, (Fraction(3, 4), 0, 0), 5),
}
PARTNERS = {
    "step 4": LaurentSeries(1, [Fraction(v, 5) if v % 4 == 1 else 0 for v in range(-15, 25)], 41),
    "off every lattice": LaurentSeries(-2, (1, 2, 0, 0, -7, 0, 1), 30),
    "zero to order": LaurentSeries.zero(30),
}


@pytest.mark.parametrize("partner", PARTNERS.values(), ids=PARTNERS.keys())
@pytest.mark.parametrize("factor", ONE_TERM.values(), ids=ONE_TERM.keys())
def test_one_term_factors_scale_without_packing(factor, partner, monkeypatch):
    from piqcheck import series

    def refuse(*args):
        raise AssertionError("a one-term factor was packed")

    monkeypatch.setattr(series, "_packed_mul", refuse)
    for a, b in ((factor, partner), (partner, factor), (factor, factor)):
        got = a * b
        same_and_canonical(got, ref_mul(a, b))
        if not got.is_zero:
            assert got.order == a.valuation + b.valuation + min(a.precision, b.precision)




@pytest.mark.parametrize("make", [
    lambda: M + 1,
    lambda: QuadExt.root(RatFunc.of(M)) + 1,
    lambda: LaurentSeries(0, [1, 1], 40),
], ids=["Poly", "QuadExt", "LaurentSeries"])
def test_powers_skip_the_square_after_the_top_bit(make, monkeypatch):
    x = make()
    multiplies = {1: 0, 2: 1, 5: 3, 8: 3, 13: 5}
    want = {e: reduce(operator.mul, [x] * e) for e in multiplies}
    calls = []
    product = type(x).__mul__

    def counted(a, b):
        calls.append(1)
        return product(a, b)

    monkeypatch.setattr(type(x), "__mul__", counted)
    for e, n in multiplies.items():
        calls.clear()
        assert x**e == want[e]
        assert len(calls) == n, e


# ----------------------------------------------------------------------
# quotients by multi-term divisors: the memoized Newton reciprocal


def sparse_ref_div(x: LaurentSeries, y: LaurentSeries) -> LaurentSeries:
    """x / y by the long division of ``ref_div`` in Fractions, over y's nonzero terms only.

    q[k] = (x[k] - sum q[k - j] * y[j]) / y[0]; the known terms sit in dicts,
    so windows of a few thousand exponents stay cheap.
    """
    n = min(x.precision, y.precision)
    xs = {e - x.valuation: c for e, c in x.terms()}
    (_, y0), *rest = [(e - y.valuation, c) for e, c in y.terms() if e - y.valuation < n]
    q: dict[int, Fraction] = {}
    for k in range(n):
        acc = xs.get(k, 0) - sum(q[k - j] * c for j, c in rest if k - j in q)
        if acc:
            q[k] = acc / y0
    val = x.valuation - y.valuation
    return LaurentSeries(val, [q.get(k, 0) for k in range(n)], val + n)


def newton_calls() -> int:
    info = series._reciprocal.cache_info()
    return info.hits + info.misses


@st.composite
def unit_divisor_quotients(draw):
    """A dividend and a divisor with lead +-1 and denominator 1 on a lattice of step 1, 4, 8 or 20.

    The dividend has rational coefficients, any valuation and, in most
    examples, terms off the divisor's lattice.  The quotient's window is
    drawn so that quotient steps times divisor terms run from 1024 to 8192,
    and either operand may be the longer one.  The divisor's first and last
    lattice points are nonzero, so its step is g and its stored terms reach
    the window.
    """
    rnd = draw(st.randoms(use_true_random=True))  # windows reach 1800 terms
    g = draw(st.sampled_from([1, 4, 8, 20]))
    off = draw(st.sampled_from([0.0, 0.02, 0.3]))  # share of off-lattice dividend terms
    work = draw(st.sampled_from([1024, 2048, 4096, 8192]))
    n = max(2 * g + 1, isqrt(work * (1 if off else g) * g) + draw(st.integers(-2, 2)))
    extra = draw(st.integers(min_value=0, max_value=2 * g + 2))
    dividend_longer = draw(st.booleans())

    window = n + extra if not dividend_longer else n
    coeffs = [draw(st.sampled_from([1, -1]))] + [0] * (window - 1)
    points = range(g, window, g)
    for i in points:
        if rnd.random() < 0.6:
            coeffs[i] = rnd.choice((-3, -2, -1, 1, 2, 3))
    coeffs[g] = coeffs[points[-1]] = rnd.choice((-2, -1, 1, 2))
    val = draw(st.integers(min_value=-6, max_value=6))
    y = LaurentSeries(val, coeffs, val + window)
    return dividend(draw, rnd, g, n + extra if dividend_longer else n, off), y


def dividend(draw, rnd, g: int, window: int, off: float) -> LaurentSeries:
    """Rational terms on the lattice g, a share ``off`` of them off it, at any valuation."""
    coeffs = []
    for i in range(window):
        if i == 0 or (i % g == 0 and rnd.random() < 0.7) or rnd.random() < off:
            coeffs.append(Fraction(rnd.choice((-1, 1)) * rnd.randint(1, 9), rnd.choice((1, 1, 2, 3, 7))))
        else:
            coeffs.append(0)
    val = draw(st.integers(min_value=-6, max_value=6))
    return LaurentSeries(val, coeffs, val + window)


def check_one_reciprocal(x: LaurentSeries, y: LaurentSeries) -> LaurentSeries:
    """x / y, checked against the long division and for exactly one call of the reciprocal."""
    calls = newton_calls()
    got = x / y
    assert newton_calls() == calls + 1
    same_and_canonical(got, sparse_ref_div(x, y))
    assert got.order == x.valuation - y.valuation + min(x.precision, y.precision)
    # the quotient times the divisor gives back the dividend, cut to the quotient's window
    assert got * y == x.truncate(x.valuation + got.precision)
    return got


@settings(max_examples=80, deadline=None)
@given(unit_divisor_quotients())
def test_unit_divisor_quotients_match_long_division(pair):
    check_one_reciprocal(*pair)


@st.composite
def scaled_divisor_quotients(draw):
    """A divisor whose canonical form has a content c > 1, a denominator d > 1 and any lead.

    Its numerators are c * (b0, +-1, ...) over d, with the primitive lead b0
    drawn from +-1, +-2, 3, 4, 16 and 2^64 and d coprime to c, so that the
    reciprocal scales out each of c, b0 and d.  The lattice is 1, 4, 8 or
    20, with up to 40 points in the window.
    """
    rnd = draw(st.randoms(use_true_random=False))
    g = draw(st.sampled_from([1, 4, 8, 20]))
    lead = draw(st.sampled_from([1, -1, 2, -2, 3, 4, 16, 2**64]))
    content = draw(st.sampled_from([2, 3, 4, 5, 16]))
    den = draw(st.sampled_from([2, 3, 7, 9]).filter(lambda d: gcd(d, content) == 1))
    n = g * draw(st.integers(min_value=2, max_value=40)) - draw(st.integers(0, g - 1))
    extra = draw(st.integers(min_value=0, max_value=2 * g + 2))
    dividend_longer = draw(st.booleans())

    window = n + extra if not dividend_longer else n
    nums = [lead] + [0] * (window - 1)
    for i in range(g, window, g):
        if rnd.random() < 0.6:
            nums[i] = rnd.choice((-3, -2, -1, 1, 2, 3))
    nums[g] = rnd.choice((-1, 1))  # keeps the content of the numerators at c
    val = draw(st.integers(min_value=-6, max_value=6))
    y = LaurentSeries(val, [Fraction(content * v, den) for v in nums], val + window)
    assert (y._g, gcd(*y._nums), y._den, y._nums[0]) == (g, content, den, content * lead)
    off = draw(st.sampled_from([0.0, 0.3]))
    return dividend(draw, rnd, g, n + extra if dividend_longer else n, off), y


@settings(max_examples=150, deadline=None)
@given(scaled_divisor_quotients())
def test_scaled_divisor_quotients_match_long_division(pair):
    check_one_reciprocal(*pair)


def fibonacci(count: int) -> list[int]:
    out = [1, 1]
    while len(out) < count:
        out.append(out[-1] + out[-2])
    return out[:count]


@pytest.mark.parametrize("lead", [1, -1])
def test_short_and_long_windows_take_the_reciprocal(lead):
    # 1 / (1 + t + t^2 + t^3) = (1 - t) / (1 - t^4): every window, the
    # shortest ones too, makes one call of the reciprocal
    for n in (2, 3, 5, 1023, 1024):
        y = LaurentSeries(-2, [lead] * min(n, 4), -2 + n)
        calls = newton_calls()
        got = 1 / y
        assert newton_calls() == calls + 1
        assert got.valuation == 2 and got.order == 2 + n
        assert got.coeffs == tuple(Fraction(lead * (1, -1, 0, 0)[k % 4]) for k in range(n))


def test_a_newton_quotient_never_calls_the_public_product(monkeypatch):
    # the benchmark's tracer counts series.mul calls at LaurentSeries.__mul__
    x = LaurentSeries(1, [Fraction(1, 3), 0, 5, -1] * 40, 161)
    y = LaurentSeries(0, [1, -1, 0, 2] * 50, 200)
    want = sparse_ref_div(x, y)

    def refuse(*args):
        raise AssertionError("a quotient called the public product")

    monkeypatch.setattr(LaurentSeries, "__mul__", refuse)
    monkeypatch.setattr(LaurentSeries, "__rmul__", refuse)
    calls = newton_calls()
    same_and_canonical(x / y, want)
    assert newton_calls() == calls + 1


def test_the_reciprocal_memo_is_bounded():
    info = series._reciprocal.cache_info()
    assert info.maxsize == series.RECIPROCAL_CACHE_SIZE
    # the reciprocal of 1 + t + ... + t^199 to any window n is 1 - t; each
    # window is its own key, so twice the bound in windows fill the memo
    y = LaurentSeries(0, [1] * 200, 200)
    for n in range(64, 64 + 2 * series.RECIPROCAL_CACHE_SIZE):
        x = LaurentSeries(3, [Fraction(k + 1, 2) for k in range(n)], 3 + n)
        calls = newton_calls()
        assert x / y == x * LaurentSeries(0, [1, -1], n)
        assert newton_calls() == calls + 1
        assert series._reciprocal.cache_info().currsize <= series.RECIPROCAL_CACHE_SIZE
    assert series._reciprocal.cache_info().currsize == series.RECIPROCAL_CACHE_SIZE


@pytest.mark.parametrize("windows", [(1400, 2000), (2000, 1400)], ids=["short first", "long first"])
def test_one_divisor_at_two_precisions_gives_exact_quotients(windows):
    # the same canonical numerators (1, -1, -1) known to two orders: each
    # quotient is exact to its own window, whichever was inverted first
    series._reciprocal.cache_clear()
    fib = fibonacci(max(windows))
    for n in windows + windows:
        y = LaurentSeries(0, [1, -1, -1], n)
        got = 1 / y
        assert got.order == n
        assert got.coeffs == tuple(map(Fraction, fib[:n]))
    assert series._reciprocal.cache_info().misses == 2


one_term_divisors = st.builds(
    lambda e, window, c: LaurentSeries.monomial(e, e + window, c),
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=60),
    st.one_of(nonzero_rationals, term_leads),
)


@settings(max_examples=200, deadline=None)
@given(x=lattice_series(lead=rationals), y=one_term_divisors)
def test_one_term_divisors_scale_the_dividend(x, y):
    # 3*q^{1/2} and the like: no division step, no Fraction, no product
    def refuse(*args):
        raise AssertionError("a one-term divisor ran a division step, a reciprocal or a product")

    with pytest.MonkeyPatch.context() as patch:
        for name in ("_exact_div", "_packed_mul", "_reciprocal"):
            patch.setattr(series, name, refuse)
        got = x / y
    same_and_canonical(got, ref_div(x, y))
