"""Text reports stay byte-identical to the recorded ones under ``tests/data/``.

Each file holds the stdout of one CLI invocation, recorded before the series
kernels were rewritten around stride-compressed integer arrays.  A change to
any layer that moves a single coefficient, order or status shows up here.
"""

from pathlib import Path

import pytest

from piqcheck import cli

DATA = Path(__file__).parent / "data"

GOLDEN = [
    ("verify_all_200.txt", ["verify-all", "--order", "200"]),
    ("expand_sqrt_pi_q_pi_q9_200.txt", ["expand", "--expr", "sqrt(Pi(q)*Pi(q^9))", "--order", "200"]),
    ("expand_sqrt_4_9_40.txt", ["expand", "--expr", "sqrt(4/9 + q^{3/4})", "--order", "40"]),
    ("check_param_5_120.txt", ["check-param", "--degree", "5", "--order", "120"]),
]


@pytest.mark.parametrize("name, argv", GOLDEN, ids=[name for name, _ in GOLDEN])
def test_text_output_is_byte_identical(name, argv, capsys):
    assert cli.main(argv) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (DATA / name).read_bytes()
