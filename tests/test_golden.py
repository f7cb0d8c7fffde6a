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
every command's output is pinned.  A change to any layer that moves a single coefficient, order,
status, canonical form or exit code shows up here.  JSON reports are
compared as ordered ``(key, value)`` lists without ``elapsed_ms``, the one
field that carries a timing, so the order of the keys is pinned too.
"""

import json
from pathlib import Path

import pytest

from piqcheck import cli

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
