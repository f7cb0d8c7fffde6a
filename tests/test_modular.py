"""Modular-equation goals: atom validation, proofs, and the series bridge."""

import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import piqcheck
from piqcheck import cli, modular, theta
from piqcheck.catalog import MAX_ORDER, MIN_ORDER
from piqcheck.field import M, Poly, QuadExt, RatFunc, quadext_equal


@pytest.fixture(scope="module")
def table3():
    return modular.build_table3()


@pytest.fixture(scope="module")
def table5():
    return modular.build_table5()


# ----------------------------------------------------------------------
# atom tables


def test_table3_power_back_substitution(table3):
    t = table3
    assert quadext_equal(t.sqrt_alpha**2, t.alpha)
    assert quadext_equal(t.sqrt_beta**2, t.beta)
    assert quadext_equal(t.quarter_ba**4, t.beta / t.alpha)
    assert quadext_equal(t.eighth_ab**8, t.alpha * t.beta)


def test_table3_alpha_beta_closed_forms(table3):
    assert table3.alpha.a == RatFunc.of((M - 1) * (M + 3) ** 3, 16 * M**3)
    assert table3.beta.a == RatFunc.of((M - 1) ** 3 * (M + 3), 16 * M)
    assert table3.alpha.is_rational and table3.beta.is_rational


def test_table5_partition_of_unity(table5):
    one = table5.scalar(1)
    assert quadext_equal(table5.alpha + table5.one_minus_alpha, one)
    assert quadext_equal(table5.beta + table5.one_minus_beta, one)
    assert quadext_equal(table5.quarter_ab * table5.quarter_ba, one)


def test_table5_sqrt_products(table5):
    assert quadext_equal(table5.sqrt_ab_prod**2, table5.alpha * table5.beta)
    assert quadext_equal(
        table5.sqrt_1a1b_prod**2, table5.one_minus_alpha * table5.one_minus_beta
    )


@pytest.mark.parametrize("degree", [3, 5])
def test_table_atoms_are_the_names_the_construction_returns(degree, request):
    table = request.getfixturevalue(f"table{degree}")
    m = RatFunc.of(M)
    root = QuadExt.root(getattr(modular, f"_modulus{degree}")(m))
    names = getattr(modular, f"_atoms{degree}")(m, root).keys()
    assert table.atoms.keys() == names
    assert all(getattr(table, name) is table.atoms[name] for name in names)
    with pytest.raises(AttributeError, match="no atom 'gamma'"):
        table.gamma


@pytest.mark.parametrize("degree", [3, 5])
def test_goals_are_exactly_the_listed_equations(degree, request):
    # prove_all walks EQUATIONS, so a goal missing from it would never be proved
    table = request.getfixturevalue(f"table{degree}")
    assert set(table.goals) == set(modular.EQUATIONS[degree])


# ----------------------------------------------------------------------
# degree-3 goals


def test_all_degree3_goals_prove(table3):
    for eq in modular.DEGREE3_EQUATIONS:
        report = modular.prove_degree3(eq, table3)
        assert report.sides_equal, eq


def test_degree3_common_values_match_reference_forms(table3):
    for eq in ("4-2", "4-4", "4-5"):
        report = modular.prove_degree3(eq, table3)
        assert report.paper_form_match is True, eq
    # the equality checks themselves carry no reference form
    assert modular.prove_degree3("4-1", table3).paper_form_match is None


def test_degree3_4_2_canonical_value(table3):
    report = modular.prove_degree3("4-2", table3)
    expected = QuadExt.scalar(
        RatFunc.of((M - 1) * (M + 3) * (M**2 + 3), 4 * M), table3.u
    )
    assert quadext_equal(report.lhs, expected)


def test_degree3_4_4_carries_reference_numerator(table3):
    report = modular.prove_degree3("4-4", table3)
    assert report.lhs.a.is_zero
    numerator = report.lhs.b.num * 1  # canonical numerator of the root part
    assert numerator.monic() == Poly((-27, 0, 18, 24, 1)).monic()


def test_unknown_degree3_goal_rejected(table3):
    with pytest.raises(KeyError):
        modular.prove_degree3("9-9", table3)


# ----------------------------------------------------------------------
# degree-5 goals


def test_all_degree5_goals_prove(table5):
    for eq in modular.DEGREE5_EQUATIONS:
        report = modular.prove_degree5(eq, table5)
        assert report.sides_equal, eq


def test_degree5_reference_quotients(table5):
    # the recorded prefactor for 2-1 does not reproduce the quotient (its
    # pole order at m=1 is 12, not 2); the mismatch must be reported with
    # both forms, while the proof itself still passes
    r21 = modular.prove_degree5("2-1", table5)
    assert r21.sides_equal
    assert r21.paper_form_match is False
    assert r21.computed_form and r21.reference_form
    for eq in ("2-2", "2-3", "2-4", "2-5"):
        report = modular.prove_degree5(eq, table5)
        assert report.paper_form_match is True, eq


def test_degree5_2_1_quotient_off_by_pole_factor(table5):
    # quotient / reference = 1024 / (m-1)^10, i.e. the full prefactor is
    # (2/(m-1))^12 with A(m) exactly as recorded
    report = modular.prove_degree5("2-1", table5)
    prefactor, reference = modular._reference_quotients5(table5.u)["2-1"]
    quotient = report.lhs / QuadExt.scalar(prefactor, table5.u)
    ratio = quotient / reference
    assert ratio.is_rational
    assert ratio.a == RatFunc.of(1024, (M - 1) ** 10)


def test_degree5_2_5_common_value(table5):
    report = modular.prove_degree5("2-5", table5)
    rho = QuadExt.root(table5.u)
    expected = (
        QuadExt.scalar(RatFunc.of(Poly((1, 7, -1, 1))), table5.u)
        + rho * RatFunc.of(2 * M + 2)
    ) * RatFunc.of((M - 5) ** 2, (M - 1) ** 4)
    assert quadext_equal(report.lhs, expected)


def test_prove_all_shapes():
    r3 = modular.prove_all(3)
    r5 = modular.prove_all(5)
    assert [r.eq_id for r in r3] == list(modular.DEGREE3_EQUATIONS)
    assert [r.eq_id for r in r5] == list(modular.DEGREE5_EQUATIONS)
    assert all(r.sides_equal for r in r3 + r5)


# ----------------------------------------------------------------------
# shared build


def test_goals_and_references_are_built_once_per_table(monkeypatch, capsys):
    builds = Counter()
    names = ("_goals3", "_goals5", "_reference_quotients3", "_reference_quotients5")
    for name in names:
        def counted(arg, _build=getattr(modular, name), _name=name):
            builds[_name] += 1
            return _build(arg)
        monkeypatch.setattr(modular, name, counted)

    modular.prove_all(3)
    modular.prove_all(5)
    assert builds == Counter(dict.fromkeys(names, 1))
    assert cli.main(["prove-modular"]) == cli.EXIT_OK
    capsys.readouterr()
    assert builds == Counter(dict.fromkeys(names, 2))

    table = modular.build_table5()
    for eq in modular.DEGREE5_EQUATIONS:
        modular.prove_degree5(eq, table)
    assert builds["_goals5"] == 3 and builds["_reference_quotients5"] == 3


def test_import_builds_no_table():
    probe = (
        "import sys\n"
        "names = {'build_table3', 'build_table5', '_goals3', '_goals5',\n"
        "         '_reference_quotients3', '_reference_quotients5'}\n"
        "seen = []\n"
        "def hook(frame, event, arg):\n"
        "    if event == 'call' and frame.f_code.co_name in names:\n"
        "        seen.append(frame.f_code.co_name)\n"
        "sys.setprofile(hook)\n"
        "import piqcheck\n"
        "sys.setprofile(None)\n"
        "print(sorted(seen))\n"
    )
    src = str(Path(piqcheck.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_first_goal_is_not_charged_with_the_shared_build(monkeypatch):
    def slow(t, _build=modular._goals3):
        time.sleep(0.3)
        return _build(t)

    monkeypatch.setattr(modular, "_goals3", slow)
    reports = modular.prove_all(3)
    assert all(0 <= r.elapsed < 0.3 for r in reports)


# ----------------------------------------------------------------------
# series bridge


def test_atoms5_at_series_quarter_root_valuation():
    order = 120
    m = theta.m_series(5, order)
    atoms = modular._atoms5(m, modular._modulus5(m).sqrt())
    qab = atoms["quarter_ab"]
    assert qab.valuation == -4
    # and it is indeed a fourth root of alpha/beta at series level
    alpha = theta.alpha_series(5, order)
    beta = theta.beta_series(5, order)
    assert (qab**4).compare(alpha / beta).is_zero


def test_wrong_shared_formula_fails_table_and_bridge(monkeypatch):
    # one typo in the shared construction: alpha built on the minus core
    def wrong(m, rho, _alpha_beta=modular._alpha_beta5):
        atoms = _alpha_beta(m, rho)
        # sqrt_1a1b_prod is sqrt_ab_prod on the other branch
        atoms["alpha"] = atoms["quarter_ab"] ** 2 * _alpha_beta(m, -rho)["sqrt_ab_prod"]
        return atoms

    monkeypatch.setattr(modular, "_alpha_beta5", wrong)
    assert not modular.check_param_series(5, 64).verified
    with pytest.raises(modular.ModularError):
        modular.build_table5()


def test_check_param_series_degree3():
    assert modular.check_param_series(3, 120).verified


def test_check_param_series_degree5():
    assert modular.check_param_series(5, 160).verified


def test_check_param_series_wrong_branch_falsified(monkeypatch):
    alpha_beta5 = modular._alpha_beta5
    monkeypatch.setattr(modular, "_alpha_beta5", lambda m, rho: alpha_beta5(m, -rho))
    report = modular.check_param_series(5, 160)
    assert not report.verified
    assert all(
        c.first_failure_exponent is not None for c in report.checks if not c.holds
    )


def test_check_param_series_rejects_other_degrees():
    with pytest.raises(ValueError):
        modular.check_param_series(7, 80)


@pytest.mark.parametrize("order", [MIN_ORDER - 1, MAX_ORDER + 1])
def test_check_param_series_bounds_the_order(order, monkeypatch):
    def unbuilt(*args):
        raise AssertionError("a series was built for a rejected order")

    monkeypatch.setattr(theta, "m_series", unbuilt)
    with pytest.raises(ValueError, match="order must be at"):
        modular.check_param_series(3, order)


@pytest.mark.parametrize("order", [8.5, 8.0, "64"], ids=["8.5", "8.0", "str"])
def test_check_param_series_refuses_a_non_int_order(order, monkeypatch):
    def unbuilt(*args):
        raise AssertionError("a series was built for a rejected order")

    monkeypatch.setattr(theta, "m_series", unbuilt)
    with pytest.raises(TypeError, match="order must be an int"):
        modular.check_param_series(5, order)
