"""Identity catalog: registry contents, evaluation, verification machinery."""

import re
from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest

import piqcheck
from piqcheck import catalog, exact, modular, series, theta
from piqcheck.catalog import EvalError, UnknownIdentity, evaluate, verify_sides
from piqcheck.dsl import Const, Div, Mul, Pi, Sqrt, Sub, parse
from piqcheck.series import LaurentSeries


def test_registry_has_31_entries_with_unique_ids():
    records = catalog.list_identities()
    assert len(records) == 31
    assert len({r.id for r in records}) == 31
    assert [r.id for r in records] == sorted(r.id for r in records)


def test_registry_labels_and_sign_variants():
    ids = set(catalog.known_ids())
    for ident in ("EQ1-1", "EQ1-6", "EQ11-2", "EQ11-9+", "EQ11-9-", "EQ21-6+",
                  "EQ21-7-", "EQ3-5", "EQ1-7"):
        assert ident in ids
    rec = catalog.get_identity("EQ11-10-")
    assert rec.label == "11-10"
    assert rec.sign_variant == "-"


def test_evaluate_valuations():
    assert evaluate(Pi(1), 40).valuation == 1
    assert evaluate(Sqrt(Mul(Pi(1), Pi(9))), 96).valuation == 5
    assert evaluate(parse("q^1/2"), 40).valuation == 2


def test_evaluate_minimum_order():
    with pytest.raises(ValueError):
        evaluate(Pi(1), 7)


def test_evaluate_error_carries_node_path():
    bad = Div(Const(Fraction(1)), Sub(Pi(1), Pi(1)))
    with pytest.raises(EvalError) as exc:
        evaluate(bad, 40)
    assert "Div" in str(exc.value)


def test_gosper_four_constant_identity_reduces_to_constant():
    rec = catalog.get_identity("EQ1-1")
    diff = evaluate(rec.lhs, 120) - LaurentSeries.constant(4, 120)
    assert diff.is_zero


def test_verify_selected_identities_at_full_order():
    for ident in ("EQ11-2", "EQ1-5"):
        report = catalog.verify(ident, 200)
        assert report.status == "verified"
        assert report.valid_order is not None


def test_verify_unknown_identity():
    with pytest.raises(UnknownIdentity):
        catalog.verify("EQ0-0", 40)


def test_verify_mutated_constant_falsifies_at_zero():
    rec = catalog.get_identity("EQ1-1")
    report = verify_sides("mutated", rec.lhs, Const(Fraction(5)), 120)
    assert report.status == "falsified"
    assert report.first_failure.exponent == 0
    assert report.first_failure.lhs - report.first_failure.rhs == -1


def test_report_coefficients_stable_across_orders():
    low = catalog.verify("EQ11-7", 80)
    high = catalog.verify("EQ11-7", 160)
    assert low.status == high.status == "verified"
    rec = catalog.get_identity("EQ11-7")
    a = evaluate(rec.lhs, 80)
    b = evaluate(rec.lhs, 160)
    assert a.compare(b).is_zero


def test_verify_all_moderate_order():
    reports = catalog.verify_all(96)
    assert len(reports) == 31
    assert [r.id for r in reports] == sorted(r.id for r in reports)
    assert all(r.status == "verified" for r in reports)


def test_verify_at_minimum_order_never_crashes():
    for report in catalog.verify_all(8):
        assert report.status in ("verified", "error")


def test_insufficient_precision_flagged_for_empty_comparison_range():
    # the lhs collapses to a zero series known only below t^0, so the rhs
    # content at t^0 is invisible: nothing is comparable
    lhs = parse("Pi(q)/Pi(q^9) - Pi(q)/Pi(q^9)")
    report = verify_sides("empty-window", lhs, Const(Fraction(1)), 8)
    assert report.status == "error"
    assert "InsufficientPrecision" in report.error
    # a plain mismatch with visible content stays a falsification
    falsified = verify_sides("zero-vs-content", Sub(Pi(9), Pi(9)), Pi(9), 8)
    assert falsified.status == "falsified"
    assert falsified.first_failure.exponent == 9


def test_psi_form_and_pi_form_agree_pairwise():
    # the two renderings of one identity family must verify independently
    for pi_form, psi_form in (("EQ11-2", "EQ21-1"), ("EQ1-7", "EQ3-1")):
        assert catalog.verify(pi_form, 120).status == "verified"
        assert catalog.verify(psi_form, 120).status == "verified"


def test_order_bounds_are_the_exact_module_objects():
    assert catalog.MAX_ORDER is exact.MAX_ORDER and catalog.MIN_ORDER is exact.MIN_ORDER
    assert catalog.check_order is exact.check_order
    assert catalog.DEFAULT_ORDER is exact.DEFAULT_ORDER is piqcheck.DEFAULT_ORDER
    # 200 is a cached small int, so `is` cannot tell two definitions apart
    package = Path(exact.__file__).parent
    defined = [p.name for p in package.glob("*.py") if re.search(r"^DEFAULT_ORDER\b", p.read_text(), re.M)]
    assert defined == ["exact.py"]


@pytest.mark.parametrize("order", [8.5, 8.0, "64"], ids=["8.5", "8.0", "str"])
def test_a_non_int_order_is_a_type_error_before_any_series(order, monkeypatch):
    def unbuilt(*args):
        raise AssertionError("a series was built for a rejected order")

    monkeypatch.setattr(LaurentSeries, "_set", unbuilt)
    with pytest.raises(TypeError, match="order must be an int"):
        evaluate(parse("Pi(q) + 1"), order)
    with pytest.raises(TypeError, match="order must be an int"):
        verify_sides("x", parse("2"), parse("Pi(q)"), order)


def test_evaluate_rejects_orders_beyond_the_limit():
    with pytest.raises(ValueError, match="at most 100000"):
        evaluate(parse("Pi(q)"), catalog.MAX_ORDER + 1)
    with pytest.raises(ValueError, match="at most 100000"):
        catalog.verify("EQ1-1", catalog.MAX_ORDER + 1)


def test_catalog_and_check_param_powers_stay_far_inside_the_power_bound(monkeypatch):
    # A base's widest numerator grows like 4.2 to 4.4 times sqrt(order): 118,
    # 170, 244 and 499 bits at orders 800, 1600, 3200 and 12800.  Pin a rate of
    # 5 here, and bound a stand-in of twice that rate at MAX_ORDER.
    bases = []
    power = LaurentSeries.__pow__
    monkeypatch.setattr(LaurentSeries, "__pow__", lambda s, e: bases.append((s, e)) or power(s, e))
    for order in (800, 1600):
        # a builder cached by an earlier test would skip its own powers
        for cached in (*vars(theta).values(), series._reciprocal):
            if hasattr(cached, "cache_clear"):
                cached.cache_clear()
        bases.clear()
        catalog.verify_all(order)
        modular.check_param_series(3, order)
        modular.check_param_series(5, order)
        assert len(bases) == 240
        assert all(e <= 8 and s._den == 1 for s, e in bases)
        assert max(max(map(int.bit_length, s._nums)) for s, _ in bases) <= 5 * isqrt(order)
    nums = (2 ** (10 * isqrt(exact.MAX_ORDER)) - 1,) * exact.MAX_ORDER
    stand_in = LaurentSeries._raw(0, exact.MAX_ORDER, 1, nums, 1)
    assert stand_in._power_bits(8) <= 30_000 <= series.MAX_POWER_BITS // 30
