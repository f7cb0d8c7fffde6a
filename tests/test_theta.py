"""Theta builders: product/sum constructions and their coherence relations."""

import pytest

from piqcheck import theta
from piqcheck.exact import MAX_ORDER
from piqcheck.series import LaurentSeries
from piqcheck.theta import ZeroFactor


def raise_q(s, k):
    """s with q -> q^k: the coefficient at t^n moves to t^(k*n), the order to k*order."""
    coeffs = [0] * (k * s.precision)
    coeffs[::k] = s.coeffs
    return LaurentSeries(k * s.valuation, coeffs, k * s.order)


def test_pochhammer_euler_start():
    # oracle: expand (1-t)(1-t^2)...(1-t^7) and truncate below t^8
    coeffs = [1]
    for j in range(1, 8):
        nxt = [0] * (len(coeffs) + j)
        for i, c in enumerate(coeffs):
            nxt[i] += c
            nxt[i + j] -= c
        coeffs = nxt
    expected = coeffs[:8]
    s = theta.pochhammer(1, 1, 8)
    assert [s.coefficient(n) for n in range(8)] == expected
    assert expected == [1, -1, -1, 0, 0, 1, 0, 1]


def test_pochhammer_single_factor_below_order():
    s = theta.pochhammer(8, 8, 12)
    assert [s.coefficient(n) for n in range(12)] == [1] + [0] * 7 + [-1, 0, 0, 0]


def test_pochhammer_zero_factor_rejected():
    with pytest.raises(ZeroFactor):
        theta.pochhammer(0, 8, 20)


@pytest.mark.parametrize("args, name", [((1.5, 1, 8), "e"), ((0.0, 8, 20), "e"), ((1, 2.0, 8), "p")])
def test_pochhammer_refuses_a_non_int_start_or_step(args, name):
    with pytest.raises(TypeError, match=f"^{name} must be an int, not float$"):
        theta.pochhammer(*args)


def test_psi_exponents_are_scaled_triangular_numbers():
    s = theta.psi(1, 41)
    nonzero = [n for n in range(41) if s.coefficient(n) != 0]
    assert nonzero == [0, 4, 12, 24, 40]
    assert all(s.coefficient(n) == 1 for n in nonzero)
    s3 = theta.psi(3, 37)
    assert [n for n in range(37) if s3.coefficient(n) != 0] == [0, 12, 36]


def test_psi_sum_equals_product_form():
    for k in (1, 2, 3):
        assert theta.psi(k, 200).compare(theta.psi_product_form(k, 200)).is_zero


def test_phi_coefficients():
    s = theta.phi(1, 17)
    assert s.coefficient(0) == 1
    assert s.coefficient(4) == 2
    assert s.coefficient(16) == 2
    s2 = theta.phi(2, 9)
    assert [s2.coefficient(n) for n in range(9)] == [1] + [0] * 7 + [2]


def test_pi_product_valuation():
    for k in (1, 2, 3, 5, 6, 9, 10):
        assert theta.pi_product(k, 96).valuation == k


def test_pi_product_equals_product_definition():
    for k in (1, 2, 3):
        pi = theta.pi_product(k, 200)
        num = theta.pochhammer(8 * k, 8 * k, 200)
        den = theta.pochhammer(4 * k, 8 * k, 200)
        product = ((num * num) / (den * den)).shift(k)
        assert pi == product
        assert pi.compare(product).is_zero


def test_pi_product_substitution_coherence():
    assert theta.pi_product(2, 120).compare(raise_q(theta.pi_product(1, 60), 2)).is_zero
    assert theta.psi(4, 120).compare(raise_q(theta.psi(1, 30), 4)).is_zero
    assert theta.phi(3, 120).compare(raise_q(theta.phi(1, 40), 3)).is_zero


def test_builder_coefficients_are_integers():
    for s in (theta.pochhammer(1, 1, 60), theta.psi(2, 60), theta.phi(3, 60),
              theta.pi_product(2, 60)):
        assert all(c.denominator == 1 for c in s.coeffs)


def test_pi_ratio_valuation():
    num = theta.pi_product(1, 64) ** 2
    den = theta.pi_product(2, 64) * theta.pi_product(4, 64)
    assert (num / den).valuation == -4


def test_z_and_multiplier_series():
    z1 = theta.z_series(1, 40)
    assert z1.coefficient(0) == 1
    assert z1.coefficient(4) == 4
    m3 = theta.m_series(3, 40)
    assert m3.coefficient(0) == 1
    # frozen from the series-division oracle z_1 / z_3
    assert m3.coefficient(4) == 4
    assert theta.m_series(5, 40).coefficient(0) == 1
    # m is z_1 / z_n at every degree; which degrees have an equation is modular's rule
    assert theta.m_series(1, 40) == LaurentSeries.constant(1, 40)


@pytest.mark.parametrize("order", [8, 9, 40, 137, 400])
def test_alpha_is_beta_of_degree_one(order):
    # 16 t^4 psi(q^2)^4 / phi(q)^4, from sums written out here, not from the builders
    psi2_exponents = {4 * j * (j + 1) for j in range(order)}  # q^(j(j+1)) = t^(4j(j+1))
    phi1_exponents = {4 * j * j for j in range(1, order)}
    psi2 = LaurentSeries(0, [int(n in psi2_exponents) for n in range(order)], order)
    phi1 = LaurentSeries(0, [1] + [2 * (n in phi1_exponents) for n in range(1, order)], order)
    expected = ((psi2 ** 4).scale(16) / phi1 ** 4).shift(4)
    assert theta.alpha_series(3, order) == expected
    assert theta.alpha_series(5, order) == expected
    assert theta.beta_series(1, order) == expected


def test_alpha_beta_leading_terms():
    a = theta.alpha_series(3, 48)
    assert a.valuation == 4
    assert a.coefficient(4) == 16
    assert theta.beta_series(5, 48).valuation == 20
    assert theta.beta_series(3, 48).valuation == 12


def test_phi_psi_square_relation():
    lhs = theta.phi(1, 200) ** 2 * theta.psi(2, 200) ** 2
    assert lhs.compare(theta.psi(1, 200) ** 4).is_zero


def test_rho_series_defining_property():
    order = 80
    rho = theta.rho_series(order)
    assert rho.coefficient(0) == 2
    m = theta.m_series(5, order)
    radicand = m ** 3 - (m ** 2).scale(2) + m.scale(5)
    assert radicand.coefficient(0) == 4
    assert (rho * rho).compare(radicand).is_zero
    # (2m+rho)(2m-rho) = m(m-1)(5-m)
    lhs = (m.scale(2) + rho) * (m.scale(2) - rho)
    rhs = m * (m - 1) * (5 - m)
    assert lhs.compare(rhs).is_zero


def test_builder_precision_soundness_across_orders():
    low = theta.pi_product(1, 60)
    high = theta.pi_product(1, 180)
    assert low.compare(high).is_zero
    assert theta.m_series(3, 40).compare(theta.m_series(3, 120)).is_zero


BUILDERS = (
    "pochhammer", "psi", "psi_product_form", "phi", "pi_product", "z_series", "m_series",
    "alpha_series", "beta_series", "rho_series",
)


def test_builder_caches_are_bounded():
    assert all(getattr(theta, name).cache_info().maxsize == theta.CACHE_SIZE for name in BUILDERS)
    for order in range(8, 8 + theta.CACHE_SIZE + 20):
        theta.pi_product(1, order)
        theta.z_series(1, order)
    for name in ("psi", "pi_product", "phi", "z_series"):
        assert getattr(theta, name).cache_info().currsize == theta.CACHE_SIZE, name


BUILD_AT = (
    lambda n: theta.pochhammer(1, 1, n),
    lambda n: theta.psi(1, n),
    lambda n: theta.psi_product_form(1, n),
    lambda n: theta.phi(1, n),
    lambda n: theta.pi_product(1, n),
    lambda n: theta.z_series(1, n),
    lambda n: theta.m_series(3, n),
    lambda n: theta.alpha_series(3, n),
    lambda n: theta.beta_series(5, n),
    lambda n: theta.rho_series(n),
)


@pytest.mark.parametrize("build", BUILD_AT, ids=BUILDERS)
def test_builders_refuse_an_order_past_max_order(build):
    # each would allocate one entry per exponent below the order
    with pytest.raises(ValueError, match=f"at most {MAX_ORDER}"):
        build(MAX_ORDER + 1)


@pytest.mark.parametrize("build", BUILD_AT, ids=BUILDERS)
@pytest.mark.parametrize(
    "order, error", [(7, ValueError), (8.5, TypeError), (8.0, TypeError), ("64", TypeError)],
    ids=["7", "8.5", "8.0", "str"],
)
def test_builders_refuse_a_short_or_non_int_order(build, order, error, monkeypatch):
    build(8)  # an order of 8.0 must not be served the cached series of order 8

    def unbuilt(*args):
        raise AssertionError("a series was built for a rejected order")

    monkeypatch.setattr(LaurentSeries, "_fill", unbuilt)
    with pytest.raises(error, match="order must be"):
        build(order)
