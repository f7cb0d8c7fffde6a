"""Text reports stay byte-identical to the recorded ones under ``tests/data/``.

Each file holds the stdout of one CLI invocation.  The series files were
recorded before the series kernels were rewritten around stride-compressed
integer arrays; the ``prove_modular`` and ``check_param_3_120`` files before
the field tower moved to integer kernels and the prover to goals built once.
A change to any layer that moves a single coefficient, order, status or
canonical form shows up here.  JSON reports are compared as parsed lines
without ``elapsed_ms``, the one field that carries a timing.
"""

import json
from pathlib import Path

import pytest

from piqcheck import cli

DATA = Path(__file__).parent / "data"

GOLDEN = [
    ("verify_all_200.txt", ["verify-all", "--order", "200"]),
    ("expand_sqrt_pi_q_pi_q9_200.txt", ["expand", "--expr", "sqrt(Pi(q)*Pi(q^9))", "--order", "200"]),
    ("expand_sqrt_4_9_40.txt", ["expand", "--expr", "sqrt(4/9 + q^{3/4})", "--order", "40"]),
    ("check_param_5_120.txt", ["check-param", "--degree", "5", "--order", "120"]),
    ("check_param_3_120.txt", ["check-param", "--degree", "3", "--order", "120"]),
    ("prove_modular.txt", ["prove-modular"]),
]

GOLDEN_JSON = [
    ("prove_modular.jsonl", ["prove-modular", "--json"]),
]


@pytest.mark.parametrize("name, argv", GOLDEN, ids=[name for name, _ in GOLDEN])
def test_text_output_is_byte_identical(name, argv, capsys):
    assert cli.main(argv) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (DATA / name).read_bytes()


def _untimed(lines: str) -> list[dict]:
    rows = [json.loads(line) for line in lines.splitlines()]
    for row in rows:
        del row["elapsed_ms"]
    return rows


@pytest.mark.parametrize("name, argv", GOLDEN_JSON, ids=[name for name, _ in GOLDEN_JSON])
def test_json_output_is_identical_apart_from_timing(name, argv, capsys):
    assert cli.main(argv) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert _untimed(out) == _untimed((DATA / name).read_text(encoding="utf-8"))
