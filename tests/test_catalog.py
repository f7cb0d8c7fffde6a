"""Identity catalog: registry contents, evaluation, verification machinery."""

from fractions import Fraction

import pytest

from piqcheck import catalog, series
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


def test_order_bounds_are_the_series_module_objects():
    assert catalog.MAX_ORDER is series.MAX_ORDER and catalog.MIN_ORDER is series.MIN_ORDER
    assert catalog.check_order is series.check_order


def test_evaluate_rejects_orders_beyond_the_limit():
    with pytest.raises(ValueError, match="at most 100000"):
        evaluate(parse("Pi(q)"), catalog.MAX_ORDER + 1)
    with pytest.raises(ValueError, match="at most 100000"):
        catalog.verify("EQ1-1", catalog.MAX_ORDER + 1)
