"""Reports stay identical to the recorded ones under ``tests/data/``.

Each file holds the stdout of one CLI invocation, and each case names the
exit code that invocation returned.  The series files were recorded before
the series kernels were rewritten around stride-compressed integer arrays;
the ``prove_modular`` and ``check_param_3_120`` files before the field tower
moved to integer kernels and the prover to goals built once; the
``verify_all_200.jsonl`` and ``verify_mixed_64`` files before the verify
entry points and the JSON report builders were folded into one; the
``verify_all_800`` and ``expand_mixed_400`` files before long products moved
to one packed big-integer multiply; the ``verify_all_1600`` and
``expand_quotient_760`` files before quotients began to read the divisor on
its own lattice and one-term factors became a scale; the
``verify_all_800.jsonl`` file before quotients by divisors with lead +-1
became products by a memoized Newton reciprocal.  The
``check_param_*.jsonl`` files were re-recorded when ``check-param`` began
to evaluate the tables' own parametrization at series: its two checks are
now named ``alpha`` and ``beta``, in that order, and nothing else in them
moved.  The ``list`` files were recorded before ``LaurentSeries`` took its
difference and reflected operators from the base the field tower shares, so
every command's output is pinned.  ``prove_modular_forms.txt`` holds the
canonical form of every table atom and of both sides of every goal, one
line each; it was recorded before the ``RatFunc`` operators began to build
reduced results from their operands' parts.  ``verify_refused_64.txt``
and ``verify_refused_64.err`` hold the stdout and stderr of a batch with one
line for each kind of refused input, and ``refusals.txt`` the exit code and
stderr line of each refusal of a whole command; all three were recorded
before every refusal became a ``series.UsageError`` where it is raised.  A
change to any layer that moves a single coefficient, order, status,
canonical form, exit code or refusal message shows up here.  JSON reports are compared as ordered ``(key, value)``
lists without ``elapsed_ms``, the one field that carries a timing, so the
order of the keys is pinned too.
"""

import json
from pathlib import Path

import pytest

from piqcheck import cli, modular

DATA = Path(__file__).parent / "data"
MIXED = str(DATA / "mixed_identities.txt")
# off-lattice terms, rational coefficients, and products long enough for the packed kernel
EXPAND_MIXED = "(Pi(q) + q^{1/4}*phi(q^3)/2)^3 * psi(q^5) / (3 - Pi(q^2))"
# an off-lattice numerator over a divisor whose lattice is 20 times coarser
EXPAND_QUOTIENT = "(Pi(q) + q^{1/4}*phi(q^3)/2) / psi(q^5)"

GOLDEN = [
    ("list.txt", ["list"], cli.EXIT_OK),
    ("verify_all_200.txt", ["verify-all", "--order", "200"], cli.EXIT_OK),
    ("verify_all_800.txt", ["verify-all", "--order", "800"], cli.EXIT_OK),
    ("verify_all_1600.txt", ["verify-all", "--order", "1600"], cli.EXIT_OK),
    ("expand_quotient_760.txt", ["expand", "--expr", EXPAND_QUOTIENT, "--order", "760"], cli.EXIT_OK),
    ("expand_mixed_400.txt", ["expand", "--expr", EXPAND_MIXED, "--order", "400"], cli.EXIT_OK),
    ("expand_sqrt_pi_q_pi_q9_200.txt", ["expand", "--expr", "sqrt(Pi(q)*Pi(q^9))", "--order", "200"], cli.EXIT_OK),
    ("expand_sqrt_4_9_40.txt", ["expand", "--expr", "sqrt(4/9 + q^{3/4})", "--order", "40"], cli.EXIT_OK),
    ("check_param_5_120.txt", ["check-param", "--degree", "5", "--order", "120"], cli.EXIT_OK),
    ("check_param_3_120.txt", ["check-param", "--degree", "3", "--order", "120"], cli.EXIT_OK),
    ("prove_modular.txt", ["prove-modular"], cli.EXIT_OK),
    ("verify_mixed_64.txt", ["verify", "--expr-file", MIXED, "--order", "64"], cli.EXIT_INTERNAL),
]

GOLDEN_JSON = [
    ("list.jsonl", ["list", "--json"], cli.EXIT_OK),
    ("prove_modular.jsonl", ["prove-modular", "--json"], cli.EXIT_OK),
    ("verify_all_200.jsonl", ["verify-all", "--order", "200", "--json"], cli.EXIT_OK),
    ("verify_all_800.jsonl", ["verify-all", "--order", "800", "--json"], cli.EXIT_OK),
    ("expand_mixed_400.json", ["expand", "--expr", EXPAND_MIXED, "--order", "400", "--json"], cli.EXIT_OK),
    ("expand_quotient_760.json", ["expand", "--expr", EXPAND_QUOTIENT, "--order", "760", "--json"], cli.EXIT_OK),
    ("check_param_3_120.jsonl", ["check-param", "--degree", "3", "--order", "120", "--json"], cli.EXIT_OK),
    ("check_param_5_120.jsonl", ["check-param", "--degree", "5", "--order", "120", "--json"], cli.EXIT_OK),
    ("verify_mixed_64.jsonl", ["verify", "--expr-file", MIXED, "--order", "64", "--json"], cli.EXIT_INTERNAL),
]


@pytest.mark.parametrize("name, argv, code", GOLDEN, ids=[name for name, _, _ in GOLDEN])
def test_text_output_is_byte_identical(name, argv, code, capsys):
    assert cli.main(argv) == code
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (DATA / name).read_bytes()


def _untimed(lines: str) -> list[list[tuple]]:
    return [
        [(key, value) for key, value in json.loads(line).items() if key != "elapsed_ms"]
        for line in lines.splitlines()
    ]


@pytest.mark.parametrize("name, argv, code", GOLDEN_JSON, ids=[name for name, _, _ in GOLDEN_JSON])
def test_json_output_is_identical_apart_from_timing(name, argv, code, capsys):
    assert cli.main(argv) == code
    out = capsys.readouterr().out
    assert _untimed(out) == _untimed((DATA / name).read_text(encoding="utf-8"))


REFUSED = str(DATA / "refused_identities.txt")

# one argv per line of refusals.txt, in its order
REFUSALS = [
    ["verify", "--id", "EQ9-9"],
    ["verify"],
    ["verify-all", "--order", "7"],
    ["verify", "--expr", "Pi(q) = 1 = Pi(q)"],
    ["expand", "--expr", "Pi(q"],
    ["expand", "--expr", "(3/2)^10000000", "--order", "8"],
    ["prove-modular", "--degree", "3", "--theorem", "3.2"],
    ["prove-modular", "--eq", "9-9"],
    ["prove-modular", "--degree", "5", "--eq", "4-1"],
    ["verify", "--expr-file", "no_such_identities.txt"],
    ["frobnicate"],
]


def test_refused_lines_keep_their_reports_and_stderr(capsys):
    assert cli.main(["verify", "--expr-file", REFUSED, "--order", "64"]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out.encode("utf-8") == (DATA / "verify_refused_64.txt").read_bytes()
    assert captured.err.encode("utf-8") == (DATA / "verify_refused_64.err").read_bytes()


def _choices_unquoted(line: str) -> str:
    """The line with the choices of an argparse "invalid choice" message unquoted.

    argparse quotes each choice with repr() in the Python these lines were
    recorded with (3.11); later releases may print them with str(), so a
    refusal matches its recorded line as written or with its choices unquoted.
    """
    head, sep, choices = line.partition("(choose from ")
    return head + sep + choices.replace("'", "")


@pytest.mark.parametrize(
    "argv, recorded",
    zip(REFUSALS, (DATA / "refusals.txt").read_text(encoding="utf-8").splitlines(True), strict=True),
    ids=[" ".join(argv) for argv in REFUSALS],
)
def test_refused_commands_keep_their_exit_code_and_stderr(
    argv, recorded, capsys, monkeypatch, tmp_path
):
    # the missing --expr-file is a relative path, so it is looked up in an empty directory
    monkeypatch.chdir(tmp_path)
    code, err = recorded.split("\t", 1)
    assert cli.main(argv) == int(code)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err in (err, _choices_unquoted(err))


def _forms() -> str:
    """One line per table atom and goal side of both degrees: its canonical form over Q(m)(s)."""
    lines = []
    for degree, build in ((3, modular.build_table3), (5, modular.build_table5)):
        table = build()
        lines += [f"{degree} atom {name}: {value}" for name, value in table.atoms.items()]
        for eq_id, (lhs, rhs) in table.goals.items():
            lines += [f"{degree} goal {eq_id} lhs: {lhs}", f"{degree} goal {eq_id} rhs: {rhs}"]
    return "".join(line + "\n" for line in lines)


def test_modular_canonical_forms_are_byte_identical():
    assert _forms().encode("utf-8") == (DATA / "prove_modular_forms.txt").read_bytes()


def _reference_forms() -> str:
    """One line per recorded closed form of a common value and per value the prover compared with it."""
    lines = []
    for degree in (3, 5):
        for report in modular.prove_all(degree):
            if report.reference_form is not None:
                lines += [
                    f"{degree} reference {report.eq_id}: {report.reference_form}",
                    f"{degree} computed {report.eq_id}: {report.computed_form}",
                ]
    return "".join(line + "\n" for line in lines)


def test_modular_forms_and_reference_values_are_byte_identical():
    want = (DATA / "modular_forms.txt").read_bytes()
    assert (_forms() + _reference_forms()).encode("utf-8") == want
