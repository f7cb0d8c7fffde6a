"""Start-up: each command imports, builds and parses only what it uses.

The import checks run in a fresh interpreter, since this process has loaded
every module already.
"""

import importlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import piqcheck
from piqcheck import catalog, cli, dsl, field, modular
from piqcheck.dsl import Add, Const, Div, Mul, Phi, Pi, PowInt, Psi, QPow, Sqrt, Sub
from piqcheck.exact import _Frozen

SRC = str(Path(piqcheck.__file__).resolve().parents[1])


def fresh(probe: str) -> str:
    """Stdout of probe run in a new interpreter that finds this checkout's package."""
    done = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


LOADED = "sorted(m for m in sys.modules if m.startswith('piqcheck.'))"


def test_import_piqcheck_loads_no_submodule():
    out = fresh(f"import sys, piqcheck; print({LOADED})")
    assert out == "[]\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--expr", "Pi(q) = q^{1/4} * psi(q)^2", "--order", "64"],
        ["expand", "--expr", "Pi(q)", "--order", "64"],
    ],
    ids=["verify", "expand"],
)
def test_user_expressions_load_no_field_tower_and_no_catalog_record(argv):
    probe = (
        "import contextlib, io, json, sys\n"
        "from piqcheck import catalog, cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        f"print(json.dumps([code, {LOADED}, catalog._records.cache_info().currsize == 0]))\n"
    )
    code, loaded, no_records = json.loads(fresh(probe))
    assert code == cli.EXIT_OK
    assert "piqcheck.modular" not in loaded and "piqcheck.field" not in loaded
    assert no_records


def loaded_by(argv: list) -> list:
    """The piqcheck modules a fresh interpreter has loaded after one CLI run, which must exit 0."""
    probe = (
        "import contextlib, io, json, sys\n"
        "from piqcheck import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        f"print(json.dumps([code, {LOADED}]))\n"
    )
    code, loaded = json.loads(fresh(probe))
    assert code == cli.EXIT_OK
    return loaded


@pytest.mark.parametrize(
    "argv",
    [["prove-modular", "--degree", "3"], ["check-param", "--degree", "5", "--order", "64"]],
    ids=["prove-modular", "check-param"],
)
def test_modular_commands_load_neither_the_catalog_nor_the_dsl(argv):
    loaded = loaded_by(argv)
    assert "piqcheck.modular" in loaded
    assert "piqcheck.catalog" not in loaded and "piqcheck.dsl" not in loaded


@pytest.mark.parametrize(
    "argv, unused",
    [
        (["prove-modular"], {"piqcheck.series", "piqcheck.theta"}),
        (["check-param", "--degree", "3", "--order", "64"], {"piqcheck.field"}),
        (["check-param", "--degree", "5", "--order", "64"], {"piqcheck.field"}),
    ],
    ids=["prove-modular", "check-param-3", "check-param-5"],
)
def test_each_modular_command_loads_only_the_layers_it_runs(argv, unused):
    # the prover computes no series, and the series bridge no rational function
    assert not unused & set(loaded_by(argv))


def test_import_cli_loads_only_the_exact_module():
    # argparse is imported only for a line that the CLI does not read itself
    out = fresh(f"import sys, piqcheck.cli; print({LOADED}, 'argparse' in sys.modules)")
    assert out == "['piqcheck.cli', 'piqcheck.exact'] False\n"


def test_no_plain_command_line_imports_argparse_dataclasses_inspect_or_typing(tmp_path):
    # -S keeps site-packages' .pth files, which may import typing, out of the child
    identities = tmp_path / "identities.txt"
    identities.write_text("Pi(q) = q^{1/4} * psi(q)^2\n", encoding="utf-8")
    argvs = [
        ["verify", "--expr", "Pi(q) = q^{1/4} * psi(q)^2", "--order", "64"],
        ["verify", "--expr-file", str(identities), "--order", "64"],
        ["verify-all", "--order", "64"],
        ["expand", "--expr", "Pi(q)^2 / phi(q)", "--order", "64"],
        ["prove-modular"],
        ["check-param", "--degree", "5", "--order", "64"],
    ]
    probe = (
        "import contextlib, io, json, sys\n"
        "from piqcheck import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli.main(argv) for argv in {argvs!r}]\n"
        "heavy = {'argparse', 'gettext', 'locale', 'dataclasses', 'inspect', 'typing'}"
        " & set(sys.modules)\n"
        "print(json.dumps([codes, sorted(heavy)]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe], env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[cli.EXIT_OK] * len(argvs), []]


@pytest.mark.parametrize("json_mode", [False, True], ids=["text", "json"])
def test_no_output_mode_imports_json(json_mode):
    # the probe reads sys.modules before it imports anything else, and -S keeps
    # site-packages' .pth files out of the child
    argvs = [
        ["verify", "--expr", "Pi(q) = q^{1/4} * psi(q)^2", "--order", "64"],
        ["verify-all", "--order", "64"],
        ["prove-modular"],
        ["check-param", "--degree", "5", "--order", "64"],
    ]
    if json_mode:
        argvs = [argv + ["--json"] for argv in argvs]
    probe = (
        "import contextlib, io, sys\n"
        "from piqcheck import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli.main(argv) for argv in {argvs!r}]\n"
        "print(codes, 'json' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe], env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"{[cli.EXIT_OK] * len(argvs)} False\n"


DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize(
    "argv, code",
    [
        (["verify-all", "--order", "64"], cli.EXIT_OK),
        (["verify", "--expr-file", str(DATA / "mixed_identities.txt"), "--order", "64"], cli.EXIT_INTERNAL),
        (["verify", "--expr-file", str(DATA / "refused_identities.txt"), "--order", "64"], cli.EXIT_USAGE),
    ],
    ids=["verified", "mixed", "refused"],
)
def test_the_program_path_prints_what_a_caller_gets_and_freezes_the_collector(argv, code):
    # main() reads sys.argv as the installed script and `python -m piqcheck.cli` do;
    # an atexit handler registered before it must still run, so no path ends in os._exit
    probe = (
        "import atexit, contextlib, gc, io, json, sys\n"
        "from piqcheck import cli\n"
        "atexit.register(print, 'atexit ran')\n"
        "def run(argv):\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        code = cli.main(argv)\n"
        "    return [code, out.getvalue(), err.getvalue()]\n"
        f"caller = run({argv!r})\n"
        "caller_frozen = gc.get_freeze_count()\n"
        f"sys.argv = ['piqcheck', *{argv!r}]\n"
        "program = run(None)\n"
        "print(json.dumps([caller, caller_frozen, program, gc.get_freeze_count() > 0]))\n"
    )
    result, atexit_line = fresh(probe).splitlines()
    caller, caller_frozen, program, frozen = json.loads(result)
    assert caller[0] == code and caller[1]
    assert program == caller
    assert caller_frozen == 0 and frozen
    assert atexit_line == "atexit ran"


def test_the_registry_is_built_on_first_lookup():
    probe = (
        "from piqcheck import catalog\n"
        "cached = catalog._records.cache_info\n"
        "print(cached().currsize == 0, len(catalog.known_ids()), cached().currsize)\n"
    )
    assert fresh(probe) == "True 31 1\n"


def test_every_public_name_resolves_to_its_submodule_object():
    for name in piqcheck.__all__:
        module = importlib.import_module(f"piqcheck.{piqcheck._SOURCES[name]}")
        assert getattr(piqcheck, name) is getattr(module, name), name
    assert set(piqcheck.__all__) <= set(dir(piqcheck))
    namespace: dict = {}
    exec("from piqcheck import *", namespace)
    assert {name: namespace[name] for name in piqcheck.__all__} == {
        name: getattr(piqcheck, name) for name in piqcheck.__all__
    }
    with pytest.raises(AttributeError, match="no_such_name"):
        piqcheck.no_such_name
    assert not hasattr(piqcheck, "_no_such_private_name")


# ----------------------------------------------------------------------
# node classes


X, Y = Pi(1), Const(Fraction(1, 2))

NODES = [
    (Pi(1), "Pi(k=1)", ("k",)),
    (Psi(2), "Psi(k=2)", ("k",)),
    (Phi(3), "Phi(k=3)", ("k",)),
    (QPow(Fraction(1, 2)), "QPow(r=Fraction(1, 2))", ("r",)),
    (Y, "Const(value=Fraction(1, 2))", ("value",)),
    (Add(X, Y), "Add(left=Pi(k=1), right=Const(value=Fraction(1, 2)))", ("left", "right")),
    (Sub(X, Y), "Sub(left=Pi(k=1), right=Const(value=Fraction(1, 2)))", ("left", "right")),
    (Mul(X, Y), "Mul(left=Pi(k=1), right=Const(value=Fraction(1, 2)))", ("left", "right")),
    (Div(X, Y), "Div(left=Pi(k=1), right=Const(value=Fraction(1, 2)))", ("left", "right")),
    (PowInt(X, -2), "PowInt(base=Pi(k=1), exponent=-2)", ("base", "exponent")),
    (Sqrt(X), "Sqrt(arg=Pi(k=1))", ("arg",)),
]


@pytest.mark.parametrize("node, text, names", NODES, ids=[type(n).__name__ for n, _, _ in NODES])
def test_node_classes_keep_their_dataclass_behaviour(node, text, names):
    assert repr(node) == text
    assert type(node).__match_args__ == names
    values = tuple(getattr(node, name) for name in names)
    assert hash(node) == hash(values)
    assert node == type(node)(*values) == type(node)(**dict(zip(names, values)))
    with pytest.raises(AttributeError) as assigned:
        setattr(node, names[0], values[0])
    assert str(assigned.value) == f"cannot assign to field {names[0]!r}"
    with pytest.raises(AttributeError) as deleted:
        delattr(node, names[0])
    assert str(deleted.value) == f"cannot delete field {names[0]!r}"
    assert getattr(node, names[0]) is values[0]


def test_sibling_node_classes_are_never_equal():
    for siblings in ([Pi(1), Psi(1), Phi(1)], [Add(X, Y), Sub(X, Y), Mul(X, Y), Div(X, Y)]):
        for a in siblings:
            assert [a == b for b in siblings] == [a is b for b in siblings]


def test_dsl_decorates_six_dataclasses():
    # the classes whose own body declares fields: a subclass such as Pi or Add only spells itself
    declaring = {
        cls for cls in vars(dsl).values()
        if isinstance(cls, type) and issubclass(cls, _Frozen) and cls.__module__ == dsl.__name__
        and "__match_args__" in vars(cls)
    }
    assert {cls.__name__ for cls in declaring} == {
        "Builder", "QPow", "Const", "Binary", "PowInt", "Sqrt",
    }
    assert all(cls.__match_args__ == tuple(vars(cls)["__annotations__"]) for cls in declaring)


def test_report_and_table_classes_keep_their_value_behaviour():
    report = catalog.VerifyReport(id="x", status="verified", order=64, valid_order=60)
    assert report == catalog.VerifyReport("x", "verified", 64, 60, None, None, 0.0)
    assert (report.first_failure, report.error, report.elapsed) == (None, None, 0.0)
    assert repr(report) == (
        "VerifyReport(id='x', status='verified', order=64, valid_order=60,"
        " first_failure=None, error=None, elapsed=0.0)"
    )
    assert hash(report) == hash(("x", "verified", 64, 60, None, None, 0.0))
    assert report != catalog.VerifyReport(id="x", status="verified", order=64)
    with pytest.raises(TypeError, match="missing argument 'status'"):
        catalog.VerifyReport(id="x", order=64)
    with pytest.raises(TypeError, match="unexpected keyword argument 'colour'"):
        catalog.VerifyReport("x", "verified", 64, colour=1)
    with pytest.raises(TypeError, match="multiple values for argument 'order'"):
        catalog.VerifyReport("x", "verified", 64, order=65)
    with pytest.raises(TypeError, match="takes 7 arguments but 8 were given"):
        catalog.VerifyReport("x", "verified", 64, None, None, None, 0.0, 1)

    # each report starts from the empty tuple and keeps only the checks it is given
    first, second = modular.ParamSeriesReport(3, 64), modular.ParamSeriesReport(degree=5, order=64)
    assert first.checks == second.checks == () and first.elapsed == 0.0
    check = modular.ParamCheck("alpha", True)
    assert modular.ParamSeriesReport(3, 64, (check,)).checks == (check,)
    assert modular.ParamSeriesReport(3, 64).checks == ()
    assert first.verified
    with pytest.raises(AttributeError, match="^cannot assign to field 'checks'$"):
        first.checks = (check,)

    table = modular.build_table3()
    same = modular.ParamTable(table.degree, table.u, dict(table.atoms))
    other = modular.ParamTable(table.degree, table.u, {})
    assert same == table and other != table
    assert hash(same) == hash(other) == hash(table) == hash((table.degree, table.u))
    assert table.alpha is table.atoms["alpha"]
    goals = table.goals
    assert table.goals is goals and vars(table)["goals"] is goals
    with pytest.raises(AttributeError, match="^cannot assign to field 'goals'$"):
        table.goals = {}


# ----------------------------------------------------------------------
# errors of modules the CLI loads late


@pytest.mark.parametrize(
    "argv, target",
    [
        (["prove-modular", "--degree", "3"], "prove_all"),
        (["check-param", "--degree", "5", "--order", "64"], "check_param_series"),
    ],
    ids=["prove-modular", "check-param"],
)
@pytest.mark.parametrize("error", [field.FieldError, modular.ModularError])
def test_field_and_modular_errors_are_precondition_violations(
    capsys, monkeypatch, argv, target, error
):
    def boom(*args):
        raise error("broken on purpose")

    monkeypatch.setattr(modular, target, boom)
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == cli.EXIT_INTERNAL and captured.out == ""
    assert captured.err == "internal precondition violation: broken on purpose\n"
