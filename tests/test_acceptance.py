"""Acceptance suite.

Each test implements one acceptance criterion at its stated order and prints
one PASS/FAIL line (run ``pytest -s`` to see them).  All comparisons are
exact: the identities are formal-series equalities and the proof goals are
canonical-form equalities, so there are no tolerances anywhere.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from piqcheck import catalog, cli, modular, theta
from piqcheck.dsl import (
    ArityError,
    Const,
    ParseError,
    Pi,
    QPowNotQuarterIntegral,
    parse,
    to_text,
)
from piqcheck.field import M, Poly, QuadExt, RatFunc, quadext_equal
from piqcheck.series import LaurentSeries

ALL_LABELS = (
    "1-1", "1-6", "11-2", "11-5", "11-6",
    "11-4", "11-7", "11-8", "11-9+", "11-9-", "11-10+", "11-10-",
    "21-1", "21-2", "21-3", "21-4", "21-5", "21-6+", "21-6-", "21-7+", "21-7-",
    "1-7", "1-2", "1-3", "1-4", "1-5",
    "3-1", "3-2", "3-3", "3-4", "3-5",
)


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status}: {criterion}{suffix}")
    assert ok, f"{criterion}{suffix}"


# ----------------------------------------------------------------------


def test_criterion_1_catalog_sweep_order_200(capsys):
    started = time.perf_counter()
    code = cli.main(["verify-all", "--order", "200", "--json"])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    payloads = [json.loads(line) for line in out.strip().splitlines()]
    expected_ids = sorted(f"EQ{label}" for label in ALL_LABELS)
    ok = (
        code == 0
        and [p["id"] for p in payloads] == expected_ids
        and len(payloads) == 31
        and all(p["status"] == "verified" for p in payloads)
        and all(p["first_failure"] is None for p in payloads)
    )
    with capsys.disabled():
        _report(
            "criterion 1: verify-all --order 200 verifies all 31 identities",
            ok,
            f"{elapsed:.1f}s single-threaded",
        )


def test_criterion_2_degree3_replay(capsys):
    table = modular.build_table3()
    reports = {eq: modular.prove_degree3(eq, table) for eq in modular.DEGREE3_EQUATIONS}
    sides_ok = all(r.sides_equal for r in reports.values())

    u = table.u
    s = QuadExt.root(u)
    printed = {
        "4-2": QuadExt.scalar(RatFunc.of((M - 1) * (3 + M) * (M**2 + 3), 4 * M), u),
        "4-4": s * RatFunc.of(M**4 + 24 * M**3 + 18 * M**2 - 27, 16 * M**3 * (M + 3)),
        "4-5": s * RatFunc.of(M**4 - 6 * M**2 + 24 * M - 3, 16 * (M - 1)),
    }
    commons_ok = all(
        quadext_equal(reports[eq].lhs, printed[eq]) and reports[eq].paper_form_match
        for eq in printed
    )
    ok = len(reports) == 9 and sides_ok and commons_ok
    with capsys.disabled():
        _report(
            "criterion 2: nine degree-3 goals prove with the recorded intermediates",
            ok,
        )


def test_criterion_3_degree5_replay(capsys):
    table = modular.build_table5()
    reports = {eq: modular.prove_degree5(eq, table) for eq in modular.DEGREE5_EQUATIONS}
    sides_ok = len(reports) == 5 and all(r.sides_equal for r in reports.values())
    mismatch_machinery_ok = True
    details = []
    for eq, rep in sorted(reports.items()):
        if rep.paper_form_match:
            details.append(f"{eq}:form=match")
        else:
            # informational: record both forms, never fail the proof
            mismatch_machinery_ok &= bool(rep.computed_form and rep.reference_form)
            details.append(f"{eq}:form=mismatch(recorded)")
    ok = sides_ok and mismatch_machinery_ok
    with capsys.disabled():
        _report(
            "criterion 3: five degree-5 goals prove; reference forms reported",
            ok,
            " ".join(details),
        )


def test_criterion_4_parametrization_bridge(capsys, monkeypatch):
    deg3 = modular.check_param_series(3, 120)
    deg5 = modular.check_param_series(5, 160)
    alpha_beta5 = modular._alpha_beta5
    monkeypatch.setattr(modular, "_alpha_beta5", lambda m, rho: alpha_beta5(m, -rho))
    flipped = modular.check_param_series(5, 160)
    named = all(c.first_failure_exponent is not None for c in flipped.checks if not c.holds)
    ok = deg3.verified and deg5.verified and not flipped.verified and named
    with capsys.disabled():
        _report(
            "criterion 4: parametrization bridge at orders 120/160; "
            "flipped rho branch falsifies",
            ok,
        )


def test_criterion_5_builder_coherence(capsys):
    order = 200
    ok = True
    for k in (1, 2, 3, 4, 5, 6, 9, 10):
        pi = theta.pi_product(k, order)
        ok &= pi.compare((theta.psi(k, order) ** 2).shift(k)).is_zero
        ok &= theta.psi(k, order).compare(theta.psi_product_form(k, order)).is_zero
    lhs = theta.phi(1, order) ** 2 * theta.psi(2, order) ** 2
    ok &= lhs.compare(theta.psi(1, order) ** 4).is_zero
    with capsys.disabled():
        _report(
            "criterion 5: builder coherence to order 200 for k in {1,2,3,4,5,6,9,10}",
            ok,
        )


def test_criterion_6_falsification_sensitivity(capsys):
    rec = catalog.get_identity("EQ1-1")
    mutated = catalog.verify_sides("EQ1-1-mutated", rec.lhs, Const(Fraction(5)), 120)
    const_ok = (
        mutated.status == "falsified"
        and mutated.first_failure.exponent == 0
        and mutated.first_failure.lhs - mutated.first_failure.rhs == -1
    )

    def pi_paths(expr, path=()):
        if isinstance(expr, Pi):
            yield path
        for name in ("left", "right", "base", "arg"):
            child = getattr(expr, name, None)
            if child is not None:
                yield from pi_paths(child, path + (name,))

    def bump(expr, path):
        if not path:
            return Pi(expr.k + 1)
        name = path[0]
        fields = {f: getattr(expr, f) for f in type(expr).__match_args__}
        fields[name] = bump(getattr(expr, name), path[1:])
        return type(expr)(**fields)

    rec = catalog.get_identity("EQ1-5")
    subscripts_ok = True
    worst = -1
    for side in ("lhs", "rhs"):
        expr = getattr(rec, side)
        for path in pi_paths(expr):
            mutated_expr = bump(expr, path)
            lhs, rhs = (
                (mutated_expr, rec.rhs) if side == "lhs" else (rec.lhs, mutated_expr)
            )
            report = catalog.verify_sides("EQ1-5-mutated", lhs, rhs, 120)
            subscripts_ok &= (
                report.status == "falsified"
                and report.first_failure is not None
                and report.first_failure.exponent <= 60
            )
            if report.first_failure is not None:
                worst = max(worst, report.first_failure.exponent)
    ok = const_ok and subscripts_ok
    with capsys.disabled():
        _report(
            "criterion 6: mutations falsify (constant at t^0 diff -1; "
            "subscripts first failure <= 60)",
            ok,
            f"worst subscript failure t^{worst}",
        )


def test_criterion_7_randomized_algebra_suite(capsys):
    rng = random.Random(20260808)
    checks = 0

    def frac():
        return Fraction(rng.randint(-9, 9), rng.choice([1, 1, 1, 2, 3, 4]))

    def rand_series(nonzero=False):
        while True:
            val = rng.randint(-5, 5)
            coeffs = [frac() for _ in range(rng.randint(1, 8))]
            s = LaurentSeries(val, tuple(coeffs), val + len(coeffs))
            if not nonzero or not s.is_zero:
                return s

    def rand_poly(nonzero=False):
        while True:
            p = Poly(tuple(frac() for _ in range(rng.randint(0, 4))))
            if not nonzero or not p.is_zero:
                return p

    def rand_ratfunc(nonzero=False):
        while True:
            r = RatFunc(rand_poly(), rand_poly(nonzero=True))
            if not nonzero or not r.is_zero:
                return r

    u3 = RatFunc.of((M - 1) * (M + 3), M)

    def rand_quadext():
        return QuadExt(rand_ratfunc(), rand_ratfunc(), u3)

    # 120 x 5 = 600 exact ring-axiom checks on series
    for _ in range(120):
        a, b, c = rand_series(), rand_series(), rand_series()
        assert ((a + b) + c).compare(a + (b + c)).is_zero; checks += 1
        assert (a + b).compare(b + a).is_zero; checks += 1
        assert ((a * b) * c).compare(a * (b * c)).is_zero; checks += 1
        assert (a * b).compare(b * a).is_zero; checks += 1
        assert (a * (b + c)).compare(a * b + a * c).is_zero; checks += 1

    # 40 x 5 = 200 exact field-axiom checks on rational functions
    for _ in range(40):
        r, s, t = rand_ratfunc(), rand_ratfunc(), rand_ratfunc()
        assert (r + s) + t == r + (s + t); checks += 1
        assert r + s == s + r; checks += 1
        assert (r * s) * t == r * (s * t); checks += 1
        assert r * s == s * r; checks += 1
        assert r * (s + t) == r * s + r * t; checks += 1

    # 80 division round trips
    for _ in range(60):
        a, b = rand_series(), rand_series(nonzero=True)
        assert ((a / b) * b).compare(a).is_zero; checks += 1
    for _ in range(20):
        r, s = rand_ratfunc(), rand_ratfunc(nonzero=True)
        assert (r / s) * s == r; checks += 1

    # 60 sqrt round trips
    for _ in range(60):
        r = rand_series(nonzero=True)
        square = r * r
        root = square.sqrt()
        expected = r if r.leading_coefficient > 0 else -r
        assert root.compare(expected).is_zero and (root * root).compare(square).is_zero
        checks += 1

    # 60 conjugation checks in the quadratic extension
    for _ in range(60):
        x = rand_quadext()
        prod = x * x.conjugate()
        assert prod.is_rational and prod.a == x.norm()
        checks += 1

    ok = checks == 1000
    with capsys.disabled():
        _report("criterion 7: randomized exact algebra suite", ok, f"{checks} checks")


def test_criterion_8_parser_round_trip_and_errors(capsys):
    records = catalog.list_identities()
    round_trip_ok = all(
        parse(to_text(r.lhs)) == r.lhs and parse(to_text(r.rhs)) == r.rhs
        for r in records
    )

    errors_ok = True
    with pytest.raises(ParseError) as exc:
        parse("Pi(q")
    errors_ok &= exc.value.offset == 4 and "')'" in exc.value.expected
    with pytest.raises(ArityError) as exc:
        parse("Pi(q, q)")
    errors_ok &= exc.value.offset == 4
    with pytest.raises(QPowNotQuarterIntegral) as exc:
        parse("q^{1/3} * Pi(q)")
    errors_ok &= exc.value.offset == 3

    ok = len(records) == 31 and round_trip_ok and errors_ok
    with capsys.disabled():
        _report(
            "criterion 8: parse/print round-trip on 31 records; "
            "error classes with byte offsets",
            ok,
        )
