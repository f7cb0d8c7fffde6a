"""Identity catalog: registry contents, evaluation, verification machinery."""

import re
from fractions import Fraction
from math import isqrt
from pathlib import Path
from typing import get_type_hints

import pytest

import piqcheck
from piqcheck import catalog, dsl, exact, modular, series, theta
from piqcheck.catalog import EvalError, UnknownIdentity, evaluate, verify_sides
from piqcheck.dsl import Const, Div, Expr, Mul, Pi, Sqrt, Sub, parse
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
    # one failure at each inner node class, and the paths through its fields
    for text, path in (
        ("1/(Pi(q)-Pi(q))", "/Div"),
        ("(Pi(q)-Pi(q))^(-2)", "/PowInt"),
        ("sqrt(Pi(q))^2", "/PowInt.base/Sqrt"),
        ("sqrt(Pi(q)) - 1", "/Sub.left/Sqrt"),
    ):
        with pytest.raises(EvalError) as exc:
            evaluate(parse(text), 40)
        assert exc.value.path == path, text


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

    monkeypatch.setattr(LaurentSeries, "_fill", unbuilt)
    with pytest.raises(TypeError, match="order must be an int"):
        evaluate(parse("Pi(q) + 1"), order)
    with pytest.raises(TypeError, match="order must be an int"):
        verify_sides("x", parse("2"), parse("Pi(q)"), order)


def test_evaluate_rejects_orders_beyond_the_limit():
    with pytest.raises(ValueError, match="at most 100000"):
        evaluate(parse("Pi(q)"), catalog.MAX_ORDER + 1)
    with pytest.raises(ValueError, match="at most 100000"):
        catalog.verify("EQ1-1", catalog.MAX_ORDER + 1)


def report_fields(r):
    """A verify report's fields, elapsed time aside."""
    return r.id, r.status, r.order, r.valid_order, r.first_failure, r.error


@pytest.mark.parametrize("order", [40, 206, 520])
def test_verify_all_reports_what_each_identity_reports_alone(order):
    shared = catalog.verify_all(order)
    alone = [catalog.verify(ident, order) for ident in catalog.known_ids()]
    assert list(map(report_fields, shared)) == list(map(report_fields, alone))


def test_a_plan_evaluates_each_distinct_subtree_once_and_keeps_no_value_past_its_last_use(
    monkeypatch,
):
    def size(e):
        return 1 + sum(size(v) for v in e._values(e) if isinstance(v, Expr))

    sides = [side for rec in catalog.list_identities() for side in (rec.lhs, rec.rhs)]
    alone = [evaluate(side, 64) for side in sides]
    plan = catalog._Plan(64, sides)
    paths = []
    apply = catalog._apply
    monkeypatch.setattr(catalog, "_apply", lambda path, *rest: paths.append(path) or apply(path, *rest))
    assert [evaluate(side, 64, plan) for side in sides] == alone
    # one step per distinct subtree, far fewer than the sides' nodes
    assert len(paths) == len(plan.children) < sum(map(size, sides)) // 2
    assert plan.values == {} and set(plan.uses) == {0}


def test_a_plan_is_one_run_at_one_order():
    s, lhs, rhs = parse("Pi(q)^2"), parse("Pi(q)^2 * psi(q)"), parse("psi(q) * Pi(q)^2")
    plan = catalog._Plan(64, (s, lhs, rhs))
    evaluate(s, 64, plan)  # keeps Pi(q)^2 at order 64 for the other sides
    # read at order 800, the kept value would cut the valid order to 66
    for run in (lambda: verify_sides("x", lhs, rhs, 800, plan), lambda: evaluate(lhs, 800, plan)):
        with pytest.raises(ValueError, match="order 64 .* order 800"):
            run()
    # a refused call reads and drops nothing, so the plan's own run goes on
    assert plan.order == 64
    alone = verify_sides("x", lhs, rhs, 64)
    assert report_fields(verify_sides("x", lhs, rhs, 64, plan)) == report_fields(alone)
    assert plan.values == {}
    assert verify_sides("x", lhs, rhs, 800).valid_order == 802


def test_a_failing_subtree_fails_again_at_each_of_its_own_paths():
    bad = "sqrt(Pi(q))"
    lhs, rhs = parse(f"1 + {bad}"), parse(f"2 * {bad} * {bad}")
    plan = catalog._Plan(64, (lhs, rhs))
    for side, path in ((lhs, "/Add.right/Sqrt"), (rhs, "/Mul.left/Mul.right/Sqrt")):
        with pytest.raises(EvalError) as info:
            evaluate(side, 64, plan)
        assert info.value.path == path
    assert plan.values == {}
    report = verify_sides("user", rhs, lhs, 64)
    assert report.status == "error" and report.error.startswith("/Mul.left/Mul.right/Sqrt: ")


def test_the_walk_takes_another_leaf_table_with_the_same_plan(monkeypatch):
    def shape(e, order):
        # the test's own walk: a node's class name, then its fields, each node
        # field as its own shape; a node with no node field also gets the order
        values = e._values(e)
        if not any(isinstance(v, Expr) for v in values):
            return (type(e).__name__, *values, order)
        return (type(e).__name__, *(shape(v, order) if isinstance(v, Expr) else v for v in values))

    def tag(cls):
        return lambda *args: (cls.__name__, *args)

    sides = [side for rec in catalog.list_identities() for side in (rec.lhs, rec.rhs)]
    steps = []
    apply = catalog._apply
    monkeypatch.setattr(catalog, "_apply", lambda path, *rest: steps.append(path) or apply(path, *rest))

    def run():
        """The sides' values on one plan, with the steps taken and the plan's keys."""
        steps.clear()
        plan = catalog._Plan(64, sides)
        values = [evaluate(side, 64, plan) for side in sides]
        assert plan.values == {} and set(plan.uses) == {0}
        return values, (len(steps), len(plan.children), plan.keys)

    _, series_counts = run()
    monkeypatch.setattr(catalog, "_LEAVES", {cls: tag(cls) for cls in catalog._LEAVES})
    monkeypatch.setattr(catalog, "_OPERATORS", {cls: tag(cls) for cls in catalog._OPERATORS})
    values, tuple_counts = run()
    assert values == [shape(side, 64) for side in sides]
    # one step per distinct subtree under either pair of tables
    assert tuple_counts == series_counts and series_counts[0] == series_counts[1]


def test_each_node_class_is_in_one_table_with_its_subtrees_first():
    concrete = {
        cls for cls in vars(dsl).values()
        if isinstance(cls, type) and issubclass(cls, Expr) and not cls.__subclasses__()
    }
    assert concrete == set(catalog._LEAVES) | set(catalog._OPERATORS)
    assert not set(catalog._LEAVES) & set(catalog._OPERATORS)
    sample = {Expr: Pi(1), int: 2, Fraction: Fraction(-1, 2)}
    for cls in concrete:
        assert (cls in catalog._OPERATORS) == (cls.arity > 0), cls
        hints = get_type_hints(cls)
        node_fields = [hints[name] is Expr for name in cls.__match_args__]
        assert node_fields == [i < cls.arity for i in range(len(node_fields))], cls
        # and the printer spells it, as text that parses back to it
        node = cls(*(sample[hints[name]] for name in cls.__match_args__))
        assert parse(dsl.to_text(node)) == node, cls
    # a node of a base class is in neither table, and the walk and the printer refuse it
    for node in (dsl.Builder(1), dsl.Binary(Pi(1), Pi(2))):
        with pytest.raises(TypeError, match="not an expression node"):
            evaluate(node, 16)
        with pytest.raises(TypeError, match="not an expression node"):
            dsl.to_text(node)


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
        assert len(bases) == 87
        assert all(e <= 8 and s._den == 1 for s, e in bases)
        assert max(max(map(int.bit_length, s._nums)) for s, _ in bases) <= 5 * isqrt(order)
    nums = (2 ** (10 * isqrt(exact.MAX_ORDER)) - 1,) * exact.MAX_ORDER
    stand_in = LaurentSeries._of(0, exact.MAX_ORDER, 1, nums, 1)
    assert stand_in._power_bits(8) <= 30_000 <= series.MAX_POWER_BITS // 30
