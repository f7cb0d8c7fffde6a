"""Builders for the classical q-functions as Laurent series in t (q = t^4).

The functions constructed here:

  * ``pochhammer(e, p, order)`` -- the truncated infinite product
    prod_{n>=0} (1 - t^(e+p*n)), i.e. a q-Pochhammer symbol specialized to a
    monomial argument in t-space;
  * ``psi(k, order)``  -- psi(q^k) = sum_{n>=0} q^(k*n(n+1)/2);
  * ``phi(k, order)``  -- phi(q^k) = sum_{n in Z} q^(k*n^2) = 1 + 2*sum t^(4k*n^2);
  * ``pi_product(k, order)`` -- Pi_{q^k} = q^(k/4) (q^(2k);q^(2k))^2 / (q^k;q^(2k))^2,
    built as q^(k/4) * psi(q^k)^2;
  * ``z_series / m_series`` -- z_n = phi(q^n)^2 and the multiplier m = z_1/z_n;
  * ``beta_series`` -- the modular parameter beta = 16 q^n psi^4(q^(2n))/phi^4(q^n);
    ``alpha_series`` is beta of degree 1, whatever degree it is given;
  * ``rho_series`` -- sqrt(m^3 - 2m^2 + 5m) for the degree-5 multiplier,
    positive branch (constant term 2).

Builders take an explicit target order, an int from 8 to ``exact.MAX_ORDER``
(``exact.check_order``: TypeError for a non-int, UsageError out of range);
there is no global precision state.  m and beta are defined at every degree
``phi`` and ``psi`` accept; ``modular.EQUATIONS`` has the degrees with equations.
Results are cached (they are immutable), so repeated identity verifications
at the same order share the underlying series.  Each builder keeps at most
:data:`CACHE_SIZE` results, dropping the least recently used.
"""

from __future__ import annotations

from functools import lru_cache

from .exact import SeriesError, _check_int, check_order
from .series import LaurentSeries

CACHE_SIZE = 128
"""Results each builder keeps.

One CLI run needs at most 8 per builder (``verify-all`` holds 8 ``psi``
series), so no run evicts its own; a long-lived process that evaluates at
many orders holds 128 per builder instead of every one it ever built."""
# typed, so that an order of 8.0 misses the entry for 8 and reaches check_order
_cached = lru_cache(maxsize=CACHE_SIZE, typed=True)


class ZeroFactor(SeriesError):
    """Pochhammer product containing the factor (1 - 1) = 0."""


def _check_k(k: int) -> None:
    if not isinstance(k, int) or k < 1:
        raise ValueError("power index k must be a positive integer")


@_cached
def pochhammer(e: int, p: int, order: int) -> LaurentSeries:
    """Truncated product of (1 - t^(e+p*n)) over all factors with e+p*n < order."""
    _check_int(e, "e")
    _check_int(p, "p")
    if e == 0:
        raise ZeroFactor("pochhammer with e = 0 contains the zero factor (1 - 1)")
    if e < 0 or p < 1:
        raise ValueError("pochhammer requires e >= 1 and p >= 1")
    check_order(order)
    coeffs = [0] * order
    coeffs[0] = 1
    j = e
    while j < order:
        # multiply by (1 - t^j) in place
        for i in range(order - 1, j - 1, -1):
            coeffs[i] -= coeffs[i - j]
        j += p
    return LaurentSeries._build(0, order, 1, coeffs)


@_cached
def psi(k: int, order: int) -> LaurentSeries:
    """psi(q^k) as a series in t: terms t^(4k*n(n+1)/2)."""
    _check_k(k)
    check_order(order)
    coeffs = [0] * order
    n = 0
    while (exp := 2 * k * n * (n + 1)) < order:  # 4k * n(n+1)/2
        coeffs[exp] += 1
        n += 1
    return LaurentSeries._build(0, order, 1, coeffs)


@_cached
def psi_product_form(k: int, order: int) -> LaurentSeries:
    """psi(q^k) via the product (q^(2k);q^(2k)) / (q^k;q^(2k)) in t-space."""
    _check_k(k)
    return pochhammer(8 * k, 8 * k, order) / pochhammer(4 * k, 8 * k, order)


@_cached
def phi(k: int, order: int) -> LaurentSeries:
    """phi(q^k) as a series in t: 1 + 2 * sum_{n>=1} t^(4k*n^2)."""
    _check_k(k)
    check_order(order)
    coeffs = [0] * order
    coeffs[0] = 1
    n = 1
    while (exp := 4 * k * n * n) < order:
        coeffs[exp] += 2
        n += 1
    return LaurentSeries._build(0, order, 1, coeffs)


@_cached
def pi_product(k: int, order: int) -> LaurentSeries:
    """Pi_{q^k} in t-space: t^k * (t^(8k);t^(8k))^2 / (t^(4k);t^(8k))^2 = t^k psi(q^k)^2.

    The t^k prefactor is exact, so the result is known below order + k;
    the valuation is exactly k.
    """
    return (psi(k, order) ** 2).shift(k)


@_cached
def z_series(n: int, order: int) -> LaurentSeries:
    """z_n = phi(q^n)^2."""
    s = phi(n, order)
    return s * s


@_cached
def m_series(n: int, order: int) -> LaurentSeries:
    """The multiplier m = z_1 / z_n as a series with constant term 1."""
    return z_series(1, order) / z_series(n, order)


@_cached
def alpha_series(n: int, order: int) -> LaurentSeries:
    """alpha = 16 q psi^4(q^2) / phi^4(q), which is beta of degree 1 for every degree n."""
    return beta_series(1, order)


@_cached
def beta_series(n: int, order: int) -> LaurentSeries:
    """beta = 16 q^n psi^4(q^(2n)) / phi^4(q^n); valuation 4n."""
    num = (psi(2 * n, order) ** 4).scale(16)
    return (num / phi(n, order) ** 4).shift(4 * n)


@_cached
def rho_series(order: int) -> LaurentSeries:
    """Positive-branch sqrt(m^3 - 2m^2 + 5m) for the degree-5 multiplier m.

    The radicand, ``modular._modulus5`` at the multiplier series, has
    constant term 4, so the root starts at 2.
    """
    from .modular import _modulus5  # here, so that a catalog run loads no modular

    return _modulus5(m_series(5, order)).sqrt()
