"""Theta builders: product/sum constructions and their coherence relations."""

import pytest

from piqcheck import theta
from piqcheck.series import LaurentSeries
from piqcheck.theta import ZeroFactor


def test_pochhammer_euler_start():
    # oracle: expand (1-t)(1-t^2)(1-t^3)(1-t^4) and truncate below t^5
    coeffs = [1]
    for j in (1, 2, 3, 4):
        nxt = [0] * (len(coeffs) + j)
        for i, c in enumerate(coeffs):
            nxt[i] += c
            nxt[i + j] -= c
        coeffs = nxt
    expected = coeffs[:5]
    s = theta.pochhammer(1, 1, 5)
    assert [s.coefficient(n) for n in range(5)] == expected
    assert expected == [1, -1, -1, 0, 0]


def test_pochhammer_single_factor_below_order():
    s = theta.pochhammer(8, 8, 12)
    assert [s.coefficient(n) for n in range(12)] == [1] + [0] * 7 + [-1, 0, 0, 0]


def test_pochhammer_zero_factor_rejected():
    with pytest.raises(ZeroFactor):
        theta.pochhammer(0, 8, 20)


def test_psi_exponents_are_scaled_triangular_numbers():
    s = theta.psi(1, 41)
    nonzero = [n for n in range(41) if s.coefficient(n) != 0]
    assert nonzero == [0, 4, 12, 24, 40]
    assert all(s.coefficient(n) == 1 for n in nonzero)
    s3 = theta.psi(3, 37)
    assert [n for n in range(37) if s3.coefficient(n) != 0] == [0, 12, 36]


def test_psi_sum_equals_product_form():
    for k in (1, 2, 3):
        assert theta.psi(k, 200).equal_up_to(theta.psi_product_form(k, 200))


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
        assert pi.equal_up_to(product)


def test_pi_product_substitution_coherence():
    assert theta.pi_product(2, 120).equal_up_to(
        theta.pi_product(1, 60).substitute_power(2)
    )
    assert theta.psi(4, 120).equal_up_to(theta.psi(1, 30).substitute_power(4))
    assert theta.phi(3, 120).equal_up_to(theta.phi(1, 40).substitute_power(3))


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
    with pytest.raises(ValueError):
        theta.m_series(4, 40)


def test_alpha_beta_leading_terms():
    a = theta.alpha_series(3, 48)
    assert a.valuation == 4
    assert a.coefficient(4) == 16
    assert theta.beta_series(5, 48).valuation == 20
    assert theta.beta_series(3, 48).valuation == 12


def test_phi_psi_square_relation():
    lhs = theta.phi(1, 200) ** 2 * theta.psi(2, 200) ** 2
    assert lhs.equal_up_to(theta.psi(1, 200) ** 4)


def test_rho_series_defining_property():
    order = 80
    rho = theta.rho_series(order)
    assert rho.coefficient(0) == 2
    m = theta.m_series(5, order)
    radicand = m ** 3 - (m ** 2).scale(2) + m.scale(5)
    assert radicand.coefficient(0) == 4
    assert (rho * rho).equal_up_to(radicand)
    # (2m+rho)(2m-rho) = m(m-1)(5-m)
    lhs = (m.scale(2) + rho) * (m.scale(2) - rho)
    rhs = m * (m - 1) * (5 - m)
    assert lhs.equal_up_to(rhs)


def test_builder_precision_soundness_across_orders():
    low = theta.pi_product(1, 60)
    high = theta.pi_product(1, 180)
    assert low.equal_up_to(high)
    assert theta.m_series(3, 40).equal_up_to(theta.m_series(3, 120))


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
