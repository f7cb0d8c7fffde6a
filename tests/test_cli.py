"""Command-line interface: exit codes, JSON schema, determinism."""

import contextlib
import gc
import importlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from piqcheck import catalog, cli
from piqcheck.dsl import (
    MAX_DEPTH,
    ArityError,
    ParseError,
    Pi,
    QPow,
    QPowNotQuarterIntegral,
    Sqrt,
    check_depth,
    parse,
)
from piqcheck.exact import SeriesError, UsageError, check_order
from piqcheck.series import LaurentSeries, PowerTooLarge


ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_has_31_lines(capsys):
    code, out, err = run(capsys, "list")
    lines = out.strip().splitlines()
    assert code == 0
    assert len(lines) == 31
    assert lines[0].startswith("EQ1-1\t")


def test_verify_id_json_schema(capsys):
    code, out, _ = run(capsys, "verify", "--id", "EQ1-1", "--order", "120", "--json")
    assert code == 0
    payload = json.loads(out.strip())
    assert set(payload) >= {
        "id", "status", "order", "valid_order", "first_failure",
        "paper_form_match", "elapsed_ms",
    }
    assert payload["id"] == "EQ1-1"
    assert payload["status"] == "verified"
    assert payload["first_failure"] is None


def test_verify_unknown_id_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--id", "EQ0-0", "--order", "64")
    assert code == cli.EXIT_USAGE
    assert "unknown identity" in err


def test_verify_user_identity_falsified_exit_code(capsys):
    code, out, _ = run(capsys, "verify", "--expr", "Pi(q) = Pi(q^2)", "--order", "64")
    assert code == cli.EXIT_FALSIFIED
    assert "falsified" in out


def test_verify_expr_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "verify", "--expr", "Pi(q = Pi(q)", "--order", "64")
    assert code == cli.EXIT_USAGE
    assert "parse error" in err


@pytest.mark.parametrize(
    "deep", ["(" * 3000 + "1" + ")" * 3000, "+".join(["1"] * 3000)], ids=["brackets", "sum"]
)
def test_too_deep_expression_is_a_usage_error(capsys, deep):
    for argv in (["verify", "--expr", f"{deep} = 1"], ["expand", "--expr", deep]):
        code, out, err = run(capsys, *argv, "--order", "64")
        assert code == cli.EXIT_USAGE
        assert "parse error: expression nested deeper than" in err and "at byte" in err
        assert "internal error" not in err and out == ""


def test_expressions_at_the_depth_limit_evaluate(capsys):
    from piqcheck.dsl import MAX_DEPTH

    for text in (
        "(" * MAX_DEPTH + "1" + ")" * MAX_DEPTH,
        "+".join(["1"] * MAX_DEPTH),
        "sqrt(" * (MAX_DEPTH - 1) + "phi(q)" + ")" * (MAX_DEPTH - 1),
    ):
        code, out, err = run(capsys, "verify", "--expr", f"{text} = {text}", "--order", "64")
        assert code == 0 and err == "", err


DEEP_SUM = "+".join(["1"] * 3000)


@pytest.mark.parametrize(
    "identity, offset",
    [
        (f"{DEEP_SUM} = 1", 199),               # the operator that makes the left side too deep
        (f"1 = {DEEP_SUM}", 203),               # the same operator, 4 bytes later on the right
        ("Pi(q) = Pi(q,q)", 12),
    ],
    ids=["lhs", "rhs", "rhs-arity"],
)
def test_parse_error_offsets_count_from_the_start_of_the_identity(capsys, identity, offset):
    code, out, err = run(capsys, "verify", "--expr", identity, "--order", "64")
    assert code == cli.EXIT_USAGE and out == ""
    assert err.startswith("parse error: ") and f" at byte {offset}" in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("1 = 1\n\n  Pi(q = 1\n", "line 3: unexpected end of input at byte 7"),
        ("1 = 1\n  1 = Pi(q^2\n", "line 2: unexpected end of input at byte 12"),
    ],
    ids=["lhs", "rhs"],
)
def test_expr_file_parse_error_names_the_line(tmp_path, capsys, text, message):
    path = tmp_path / "identities.txt"
    path.write_text(text)
    code, out, err = run(capsys, "verify", "--expr-file", str(path), "--order", "64")
    assert code == cli.EXIT_USAGE and out == "line-1 verified order=64 valid_order=64\n"
    assert err == f"parse error: {message} (expected one of: ')')\n"


def test_expr_file_line_without_one_equals_names_the_line(tmp_path, capsys):
    path = tmp_path / "identities.txt"
    path.write_text("1 = 1\nno equals here\n")
    code, out, err = run(capsys, "verify", "--expr-file", str(path), "--order", "64")
    assert code == cli.EXIT_USAGE and out == "line-1 verified order=64 valid_order=64\n"
    assert err == (
        "error: line 2: a user identity must contain exactly one '=' separating LHS and RHS\n"
    )


def test_expr_file_bad_line_does_not_abort_the_batch(tmp_path, capsys):
    path = tmp_path / "identities.txt"
    path.write_text("Pi(q) = q^{1/4} * psi(q)^2\nPi(q = 1\n")
    code, out, err = run(capsys, "verify", "--expr-file", str(path), "--order", "64")
    assert code == cli.EXIT_USAGE
    assert out == "line-1 verified order=64 valid_order=65\n"
    assert err == "parse error: line 2: unexpected end of input at byte 5 (expected one of: ')')\n"
    code, out, _ = run(capsys, "verify", "--expr-file", str(path), "--order", "64", "--json")
    assert code == cli.EXIT_USAGE
    assert [json.loads(line)["id"] for line in out.splitlines()] == ["line-1"]


def test_expr_file_undecodable_line_does_not_abort_the_batch(tmp_path, capsys):
    path = tmp_path / "identities.txt"
    # a comment is skipped before it is decoded, and a CRLF line still ends at its newline
    path.write_bytes(b"Pi(q) = Pi(q)\r\n\xff\xfe = 1\n# caf\xe9\nPi(q^2) = Pi(q^2)\n")
    code, out, err = run(capsys, "verify", "--expr-file", str(path), "--order", "16")
    assert code == cli.EXIT_USAGE
    assert out == "line-1 verified order=16 valid_order=17\nline-4 verified order=16 valid_order=18\n"
    assert err == (
        "error: line 2: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
    )


@pytest.mark.parametrize(
    "exc, failure",
    [
        (UsageError("x"), (cli.EXIT_USAGE, "error")),
        (ParseError("x", 0), (cli.EXIT_USAGE, "parse error")),
        (PowerTooLarge("x"), (cli.EXIT_USAGE, "error")),
        (OSError("x"), (cli.EXIT_USAGE, "error")),
        (UnicodeDecodeError("utf-8", b"\xff", 0, 1, "x"), (cli.EXIT_USAGE, "error")),
        (SeriesError("x"), (cli.EXIT_INTERNAL, "internal precondition violation")),
        (ValueError("x"), (cli.EXIT_INTERNAL, "internal precondition violation")),
        (RuntimeError("x"), (cli.EXIT_INTERNAL, "internal error: RuntimeError")),
        (ArityError("x", 0), (cli.EXIT_USAGE, "parse error")),
        (QPowNotQuarterIntegral(Fraction(1, 3), 0), (cli.EXIT_USAGE, "parse error")),
    ],
    ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None,
)
def test_one_failure_table_for_lines_and_commands(exc, failure):
    assert cli._failure(exc) == failure


def _raised(call, *args) -> Exception:
    with pytest.raises(Exception) as info:
        call(*args)
    return info.value


def test_refused_input_is_a_usage_error_and_a_broken_precondition_is_not():
    too_deep = Pi(1)
    for _ in range(MAX_DEPTH):
        too_deep = Sqrt(too_deep)
    refused = [
        _raised(pow, LaurentSeries.constant(Fraction(3, 2), 8), 10**7),
        _raised(parse, "Pi(q"),
        _raised(parse, "Pi(q, q)"),
        _raised(parse, "q^{1/3}"),
        _raised(check_order, 7),
        _raised(check_order, 100001),
    ]
    assert [type(e) for e in refused[:4]] == [
        PowerTooLarge, ParseError, ArityError, QPowNotQuarterIntegral,
    ]
    assert all(isinstance(e, UsageError) and isinstance(e, ValueError) for e in refused)
    broken = [
        _raised(check_order, 8.0),
        _raised(Pi, 0),
        _raised(QPow, Fraction(1, 3)),
        _raised(check_depth, too_deep),
    ]
    assert [type(e) for e in broken] == [TypeError, ValueError, ValueError, ValueError]
    assert not any(isinstance(e, UsageError) for e in broken)


def test_cli_defines_no_error_class_and_no_parse_wrapper():
    assert not hasattr(cli, "_parse")
    assert not [
        name for name, value in vars(cli).items()
        if isinstance(value, type) and issubclass(value, Exception) and value.__module__ == cli.__name__
    ]


@pytest.mark.parametrize(
    "good, code",
    [
        ("1 = 1", cli.EXIT_USAGE),
        ("Pi(q) = Pi(q^2)", cli.EXIT_USAGE),            # falsified ranks below a usage error
        ("sqrt(Pi(q)) = 1", cli.EXIT_INTERNAL),         # an error status ranks above it
    ],
    ids=["verified", "falsified", "error"],
)
def test_expr_file_exits_with_the_worst_code_over_all_lines(tmp_path, capsys, good, code):
    path = tmp_path / "identities.txt"
    path.write_text(f"1 = (1\n{good}\nno equals\n")
    got, out, err = run(capsys, "verify", "--expr-file", str(path), "--order", "64")
    assert got == code
    assert out.startswith("line-2 ") and out.count("\n") == 1
    assert err.startswith("parse error: line 1: ") and "\nerror: line 3: " in err


# subexpressions that recur within and across lines, and three that fail
SHARED = ["(Pi(q) + q^{1/2} * psi(q^2))", "psi(q^3)^2 / psi(q)^2", "(phi(q) - 2 * Pi(q^2))"]
FAILING = ["sqrt(Pi(q))", "1 / (Pi(q) - Pi(q))", "sqrt(2 + psi(q))"]
LINE_SHAPES = [
    "{a}^2 = {a} * {a}",
    "{a} * {b} = {b} * {a}",
    "{b}^2 / {a} = {b} * ({b} / {a})",
    "{a}^2 = {a} * {a} + q^{{3}}",                  # falsified
    "{f} + {a} = {a} + {f}",                        # an error on the left
    "{a} * {b} = {b} * {a} - {f}",                  # an error on the right
    "({a} + {f})^2 = {a}^2",
]


def test_expr_file_batch_prints_what_each_line_prints_alone(tmp_path, capsys):
    # a line's sides share subtrees, and no value may leak from one line into
    # the next: the batch prints what the lines print one by one
    lines = [
        shape.format(a=a, b=b, f=f)
        for shape in LINE_SHAPES
        for k in (1, 2)
        for a, b, f in zip(SHARED, SHARED[k:] + SHARED[:k], FAILING[k - 1 :] + FAILING[: k - 1])
    ]
    lines += ["(2 + Pi(q))^1000000 = 1", "Pi(q = 1", "no equals"]  # refused lines
    lines += lines[:20]  # repeated lines
    assert len(lines) >= 50
    path = tmp_path / "batch.txt"
    path.write_text("\n".join(lines) + "\n")
    batch = run(capsys, "verify", "--expr-file", str(path), "--order", "40")
    codes, outs, errs = [], [], []
    for i, line in enumerate(lines):
        alone = tmp_path / f"line{i}.txt"
        alone.write_text("\n" * i + line + "\n")  # blank lines keep the line number
        code, out, err = run(capsys, "verify", "--expr-file", str(alone), "--order", "40")
        codes.append(code), outs.append(out), errs.append(err)
    assert batch == (max(codes), "".join(outs), "".join(errs))
    assert set(codes) == {cli.EXIT_OK, cli.EXIT_FALSIFIED, cli.EXIT_USAGE, cli.EXIT_INTERNAL}


LONG = "9" * 5000  # more digits than the interpreter converts with int() by default
LONG_ERROR = f"integer literal of 5000 digits is longer than {sys.get_int_max_str_digits()}"


@pytest.mark.parametrize(
    "command, text, offset",
    [
        ("expand", LONG, 0),
        ("expand", f"Pi(q)^{LONG}", 6),
        ("verify", f"Pi(q^{LONG}) = 1", 5),
        ("verify", f"1 = q^{LONG}", 6),
        ("verify", f"1 = 1/{LONG}", 6),
    ],
    ids=["constant", "power", "builder-index", "q-exponent", "denominator"],
)
def test_overlong_integer_literal_is_a_located_parse_error(capsys, command, text, offset):
    code, out, err = run(capsys, command, "--expr", text, "--order", "8")
    assert code == cli.EXIT_USAGE and out == ""
    assert err == f"parse error: {LONG_ERROR} at byte {offset}\n"


def test_expr_file_overlong_literal_does_not_abort_the_batch(tmp_path, capsys):
    path = tmp_path / "identities.txt"
    path.write_text(f"1 = 1\n{LONG} = 1\nPi(q) = Pi(q)\n")
    code, out, err = run(capsys, "verify", "--expr-file", str(path), "--order", "64")
    assert code == cli.EXIT_USAGE
    assert out == "line-1 verified order=64 valid_order=64\nline-3 verified order=64 valid_order=65\n"
    assert err == f"parse error: line 2: {LONG_ERROR} at byte 0\n"


def decimal(n: int) -> str:
    """str(n) with the interpreter's int string limit lifted for this call only."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


WIDE = 2**20000  # 6021 digits, more than the interpreter's int string limit


def test_falsified_report_prints_a_coefficient_past_the_int_string_limit(capsys):
    argv = ("verify", "--expr", "Pi(q)^2 = 2^20000 * Pi(q)^2", "--order", "16")
    code, out, err = run(capsys, *argv)
    assert code == cli.EXIT_FALSIFIED and err == ""
    assert out == f"user falsified at t^2: lhs=1 rhs={decimal(WIDE)} diff={decimal(1 - WIDE)}\n"
    code, out, err = run(capsys, *argv, "--json")
    assert code == cli.EXIT_FALSIFIED and err == ""
    assert json.loads(out)["first_failure"] == {"exponent": 2, "lhs": "1", "rhs": decimal(WIDE)}


def test_expand_prints_a_coefficient_past_the_int_string_limit(capsys):
    code, out, err = run(capsys, "expand", "--expr", "2^20000", "--order", "8")
    assert code == cli.EXIT_OK and err == ""
    assert out == f"t^0: {decimal(WIDE)}\n# valuation=0 order=8 nonzero_terms=1\n"


def test_expr_file_wide_non_square_is_an_error_line_not_a_lost_batch(tmp_path, capsys):
    path = tmp_path / "identities.txt"
    path.write_text("1 = 1\nsqrt(2^20001) = 1\nPi(q) = Pi(q)\n")
    code, out, err = run(capsys, "verify", "--expr-file", str(path), "--order", "64")
    assert code == cli.EXIT_INTERNAL and err == ""
    assert out == (
        "line-1 verified order=64 valid_order=64\n"
        f"line-2 error: /Sqrt: leading coefficient {decimal(2 * WIDE)}"
        " is not the square of a rational\n"
        "line-3 verified order=64 valid_order=65\n"
    )


def test_q_power_past_max_order_is_a_located_parse_error(capsys):
    text = "Pi(q) + q^(-100000) = Pi(q) + q^(-100000)"
    code, out, err = run(capsys, "verify", "--expr", text, "--order", "8")
    assert code == cli.EXIT_USAGE and out == ""
    assert err == (
        "parse error: q-power exponent out of range: |4r| must be at most 100000 at byte 10\n"
    )


POWER_LIMIT = "MAX_POWER_BITS = 1000000"
HUGE_POWERS = [
    ("(3/2)^10000000", "10000000", "30000000"),
    ("123456789^1000000 * Pi(q)", "1000000", "27000000"),
    ("(2 + Pi(q))^1000000", "1000000", "1000161"),
]


def timed_run(capsys, *argv):
    started = time.perf_counter()
    code, out, err = run(capsys, *argv)
    return code, out, err, time.perf_counter() - started


@pytest.mark.parametrize("expr, exponent, bits", HUGE_POWERS, ids=["ratio", "integer", "series"])
def test_power_past_the_bit_bound_is_a_usage_error_before_the_work(capsys, expr, exponent, bits):
    message = (
        f"error: power to the exponent {exponent} would take coefficients of about {bits} bits,"
        f" more than {POWER_LIMIT}\n"
    )
    for argv in (["expand", "--expr", expr], ["verify", "--expr", f"{expr} = 1"]):
        code, out, err, elapsed = timed_run(capsys, *argv, "--order", "8")
        assert (code, out, err) == (cli.EXIT_USAGE, "", message)
        assert elapsed < 2.0


def test_expr_file_power_past_the_bit_bound_does_not_abort_the_batch(tmp_path, capsys):
    path = tmp_path / "identities.txt"
    path.write_text("1 = 1\n(3/2)^10000000 = 1\nPi(q) = Pi(q)\n")
    code, out, err, elapsed = timed_run(capsys, "verify", "--expr-file", str(path), "--order", "64")
    assert code == cli.EXIT_USAGE and elapsed < 2.0
    assert out == "line-1 verified order=64 valid_order=64\nline-3 verified order=64 valid_order=65\n"
    assert err == (
        "error: line 2: power to the exponent 10000000 would take coefficients of about"
        " 30000000 bits,"
        f" more than {POWER_LIMIT}\n"
    )


def test_a_unit_leading_coefficient_keeps_a_huge_power_inside_the_bound(capsys):
    code, out, err, elapsed = timed_run(capsys, "expand", "--expr", "Pi(q)^10000000", "--order", "8")
    assert (code, err) == (cli.EXIT_OK, "") and elapsed < 2.0
    assert out == (
        "t^10000000: 1\nt^10000004: 20000000\n"
        "# valuation=10000000 order=10000008 nonzero_terms=2\n"
    )


def test_exponents_and_orders_print_past_the_int_string_limit(capsys):
    # powers of one-term series to 4300-digit exponents have valuations of 4301 and more digits
    exponent = 10**4299 + 1
    code, out, err = run(capsys, "expand", "--expr", f"Pi(q^12)^{exponent}", "--order", "8")
    val, order = decimal(12 * exponent), decimal(12 * exponent + 8)
    assert (code, err) == (cli.EXIT_OK, "")
    assert out == f"t^{val}: 1\n# valuation={val} order={order} nonzero_terms=1\n"
    text = f"(q^{{1/4}}^{exponent})^{exponent}"  # t^(exponent**2), an odd valuation
    val = exponent**2
    falsified = f"user falsified at t^{decimal(val)}: lhs=1 rhs=2 diff=-1\n"
    for rhs, expected in [
        (text, (cli.EXIT_OK, f"user verified order=8 valid_order={decimal(val + 8)}\n")),
        (f"2 * {text}", (cli.EXIT_FALSIFIED, falsified)),
    ]:
        assert run(capsys, "verify", "--expr", f"{text} = {rhs}", "--order", "8")[:2] == expected
    assert run(capsys, "verify", "--expr", f"sqrt({text}) = 1", "--order", "8")[:2] == (
        cli.EXIT_INTERNAL, f"user error: /Sqrt: sqrt of series with odd valuation {decimal(val)}\n"
    )


def loads_wide(text: str):
    """json.loads(text), reading ints of any number of digits."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return json.loads(text)
    finally:
        sys.set_int_max_str_digits(limit)


def test_json_reports_write_ints_past_the_int_string_limit(capsys):
    exponent = 10**4299
    code, out, err = run(capsys, "expand", "--expr", f"Pi(q^12)^{exponent}", "--order", "8", "--json")
    assert (code, err) == (cli.EXIT_OK, "")
    payload = loads_wide(out)
    assert (payload["valuation"], payload["order"]) == (12 * exponent, 12 * exponent + 8)
    assert payload["coefficients"] == [{"exponent": 12 * exponent, "value": "1"}]
    text = f"(q^{{1/4}}^{exponent})^{exponent}"  # t^(exponent**2)
    val = exponent**2
    code, out, err = run(capsys, "verify", "--expr", f"{text} = {text}", "--order", "8", "--json")
    assert (code, err) == (cli.EXIT_OK, "")
    assert (loads_wide(out)["order"], loads_wide(out)["valid_order"]) == (8, val + 8)
    code, out, err = run(capsys, "verify", "--expr", f"{text} = 2 * {text}", "--order", "8", "--json")
    assert (code, err) == (cli.EXIT_FALSIFIED, "")
    assert loads_wide(out)["first_failure"] == {"exponent": val, "lhs": "1", "rhs": "2"}
    assert f'"exponent": {decimal(val)}, ' in out  # a JSON number, not a string


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@given(JSON_VALUES)
def test_json_writer_matches_json_dumps_below_the_int_string_limit(value):
    assert cli._json(value) == json.dumps(value)


# the characters json.dumps escapes: controls, quote, backslash, DEL, non-ASCII
# (lone surrogates included) and non-BMP text, beside printable ASCII
JSON_TEXT = st.text(
    st.sampled_from('\x00\x08\t\n\x0b\x0c\r\x1f "\\/~\x7f\x80\xe9\u2028\ud800\udc80\uffff')
    | st.characters(min_codepoint=0x10000)
    | st.characters(max_codepoint=0x7F)
    | st.characters(),
)


@given(st.lists(JSON_TEXT | st.floats(), max_size=6), st.dictionaries(JSON_TEXT, JSON_TEXT, max_size=4))
def test_json_writer_escapes_text_and_spells_floats_as_json_dumps(items, mapping):
    for value in (*items, items, mapping):
        assert cli._json(value) == json.dumps(value)
    for special in (float("nan"), float("inf"), float("-inf"), -0.0, 1e300, 5e-324):
        assert cli._json(special) == json.dumps(special)


def test_non_integer_order_from_the_environment_falls_back_to_the_default(capsys, monkeypatch):
    monkeypatch.setenv(cli.ENV_ORDER, "1e3")
    code, out, err = run(capsys, "verify", "--id", "EQ1-1", "--json")
    assert code == cli.EXIT_OK
    assert err == f"warning: ignoring non-integer {cli.ENV_ORDER}='1e3'\n"
    assert json.loads(out)["order"] == 200


# random DSL text: pieces of the grammar, numbers of any size up to nine
# digits, and characters the grammar does not know
DSL_PIECES = st.sampled_from([
    "Pi(q)", "psi(q^2)", "phi(q^3)", "Pi(q^5)", "psi(", "Pi(q^", "sqrt(", "q^", "q^(-",
    "q^{1/2}", "q", "(-", "(", ")", "{", "}", "+", "-", "*", "/", "^", "^(-", "=", ",", " ",
    "1", "2", "3/2", "0", "x", "é",
])
DSL_JUNK = st.lists(
    DSL_PIECES | st.integers(min_value=0, max_value=10**9).map(str), max_size=14
).map("".join)


def bracketed(n: int) -> str:
    return f"(-{-n})" if n < 0 else str(n)


# well-formed expressions, so that most examples get past the parser
DSL_EXPR = st.recursive(
    st.one_of(
        st.builds("{}(q^{})".format, st.sampled_from(["Pi", "psi", "phi"]), st.integers(1, 12)),
        st.integers(-40, 40).map(lambda n: f"q^{bracketed(n)}/4" if n >= 0 else f"q^(-{-n}/4)"),
        st.integers(-(10**12), 10**12).map(bracketed),
        st.builds("{}/{}".format, st.integers(0, 10**6), st.integers(1, 10**6)),
    ),
    lambda inner: st.one_of(
        st.builds("({} {} {})".format, inner, st.sampled_from("+-*/"), inner),
        st.builds("({})^{}".format, inner, st.integers(-(10**7), 10**7).map(bracketed)),
        st.builds("sqrt({})".format, inner),
    ),
    max_leaves=8,
)
DSL_TEXT = DSL_EXPR | DSL_JUNK


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.sampled_from(["verify", "expand"]),
    DSL_TEXT,
    DSL_TEXT,
    st.sampled_from(["8", "16", "64"]),
)
def test_random_dsl_text_exits_with_a_documented_code(command, left, right, order):
    text = f"{left} = {right}" if command == "verify" else left + right
    started = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main([command, "--expr", text, "--order", order])
    assert code in (0, 1, 2, 3)
    assert err.getvalue().count("\n") <= 1
    assert time.perf_counter() - started < 10.0


def test_verify_expr_file(tmp_path, capsys):
    path = tmp_path / "identities.txt"
    path.write_text(
        "# catalog spot checks\n"
        "Pi(q)^2 = Pi(q) * Pi(q)\n"
        "\n"
        "psi(q)^4 = phi(q)^2 * psi(q^2)^2\n"
    )
    code, out, _ = run(capsys, "verify", "--expr-file", str(path), "--order", "64", "--json")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert [p["id"] for p in lines] == ["line-2", "line-4"]
    assert all(p["status"] == "verified" for p in lines)


def test_verify_requires_exactly_one_source(capsys):
    code, _, err = run(capsys, "verify", "--order", "64")
    assert code == cli.EXIT_USAGE
    code, _, err = run(capsys, "verify", "--id", "EQ1-1", "--expr", "1 = 1")
    assert code == cli.EXIT_USAGE


def test_verify_all_text_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify-all", "--order", "64")
    code2, out2, _ = run(capsys, "verify-all", "--order", "64")
    assert code1 == code2 == 0
    assert out1 == out2
    assert len(out1.strip().splitlines()) == 31


def test_expand_pi_q(capsys):
    code, out, _ = run(capsys, "expand", "--expr", "Pi(q)", "--order", "24")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t^1: 1"
    assert lines[1] == "t^5: 2"


def test_expand_json(capsys):
    code, out, _ = run(capsys, "expand", "--expr", "q^2 + 3", "--order", "16", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["valuation"] == 0
    assert {"exponent": 8, "value": "1"} in payload["coefficients"]


def test_prove_modular_single_equation(capsys):
    code, out, _ = run(capsys, "prove-modular", "--theorem", "3.2", "--eq", "2-5")
    assert code == 0
    assert out.strip() == "2-5 proved paper_form=match"


def test_prove_modular_all_degrees(capsys):
    code, out, _ = run(capsys, "prove-modular")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 14
    assert all("proved" in line for line in lines)


def test_prove_modular_json_records_mismatch_forms(capsys):
    code, out, _ = run(capsys, "prove-modular", "--degree", "5", "--json")
    assert code == 0
    payloads = [json.loads(line) for line in out.strip().splitlines()]
    by_id = {p["id"]: p for p in payloads}
    assert by_id["2-1"]["status"] == "proved"
    assert by_id["2-1"]["paper_form_match"] is False
    assert by_id["2-1"]["computed_form"]
    assert by_id["2-5"]["paper_form_match"] is True


def test_prove_modular_wrong_degree_eq_combo(capsys):
    code, _, err = run(capsys, "prove-modular", "--degree", "3", "--eq", "2-5")
    assert code == cli.EXIT_USAGE


def test_check_param_both_degrees(capsys):
    code, out, _ = run(capsys, "check-param", "--degree", "3", "--order", "64")
    assert code == 0
    assert "verified" in out
    code, out, _ = run(capsys, "check-param", "--degree", "5", "--order", "64", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "verified"
    assert len(payload["checks"]) == 2


@pytest.mark.parametrize("order, known", [(8, 16), (12, 20)])
def test_check_param_without_comparable_coefficients_fails(capsys, order, known):
    # degree 5's alpha atom divides by m(m-1) and is known only below
    # t^(order - 8), its content starting at t^4; the beta atom is known
    # only below t^known = t^(order + 8), its content starting at t^20
    code, out, err = run(capsys, "check-param", "--degree", "5", "--order", str(order))
    assert code == cli.EXIT_INTERNAL and out == ""
    assert err == (
        f"internal precondition violation: check 'alpha': "
        f"no comparable coefficients below t^{order - 8} (content starts at t^4); "
        f"check 'beta': "
        f"no comparable coefficients below t^{known} (content starts at t^20)\n"
    )


def test_check_param_names_every_vacuous_check(capsys):
    code, _, err = run(capsys, "check-param", "--degree", "5", "--order", "8")
    assert code == cli.EXIT_INTERNAL
    assert "check 'alpha'" in err and "check 'beta'" in err
    assert err.count("\n") == 1


def test_check_param_with_comparable_coefficients_still_verifies(capsys):
    for degree in ("3", "5"):
        code, out, _ = run(capsys, "check-param", "--degree", degree, "--order", "16")
        assert code == 0
        assert out == f"degree-{degree} parametrization verified order=16 checks=2\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["prove-modular", "--json"],
        ["prove-modular", "--eq", "4-4", "--json"],
        ["check-param", "--degree", "3", "--order", "64", "--json"],
        ["check-param", "--degree", "5", "--order", "64", "--json"],
    ],
)
def test_proof_and_param_reports_carry_elapsed_ms(argv, capsys):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    payloads = [json.loads(line) for line in out.strip().splitlines()]
    assert payloads
    for p in payloads:
        elapsed = p["elapsed_ms"]
        assert isinstance(elapsed, (int, float)) and not isinstance(elapsed, bool), p["id"]
        assert elapsed >= 0, p["id"]


def test_order_environment_override(capsys, monkeypatch):
    monkeypatch.setenv(cli.ENV_ORDER, "64")
    code, out, _ = run(capsys, "verify", "--id", "EQ1-1", "--json")
    assert code == 0
    assert json.loads(out)["order"] == 64
    # an explicit flag wins over the environment
    code, out, _ = run(capsys, "verify", "--id", "EQ1-1", "--order", "96", "--json")
    assert json.loads(out)["order"] == 96


@pytest.mark.parametrize("raw, bound", [("5", "at least 8"), ("200000", "at most 100000")])
def test_order_from_the_environment_is_blamed_on_the_environment(raw, bound, capsys, monkeypatch):
    monkeypatch.setenv(cli.ENV_ORDER, raw)
    code, out, err = run(capsys, "check-param", "--degree", "3")
    assert code == cli.EXIT_USAGE and out == ""
    assert err == f"error: {cli.ENV_ORDER} must be {bound}\n"
    # a bad flag is still blamed on the flag, whatever the environment holds
    code, _, err = run(capsys, "verify", "--id", "EQ1-1", "--order", "4")
    assert code == cli.EXIT_USAGE and err == "error: --order must be at least 8\n"


def test_order_below_minimum_rejected(capsys):
    code, _, err = run(capsys, "verify", "--id", "EQ1-1", "--order", "4")
    assert code == cli.EXIT_USAGE


def test_order_above_maximum_rejected(capsys):
    # without the limit this would run for minutes and take gigabytes
    code, out, err = run(capsys, "expand", "--expr", "Pi(q)", "--order", "100000000")
    assert code == cli.EXIT_USAGE and out == ""
    assert err == "error: --order must be at most 100000\n"
    code, out, err = run(capsys, "check-param", "--degree", "3", "--order", "100001")
    assert code == cli.EXIT_USAGE and out == "" and "at most 100000" in err


def test_quiet_suppresses_reports_keeps_exit_code(capsys):
    code, out, _ = run(capsys, "verify", "--expr", "Pi(q) = Pi(q^2)", "--order", "64", "--quiet")
    assert code == cli.EXIT_FALSIFIED
    assert out == ""


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv, code",
    [
        (["list"], cli.EXIT_OK),
        (["list", "--json"], cli.EXIT_OK),
        (["verify-all", "--order", "64"], cli.EXIT_OK),
        (["expand", "--expr", "Pi(q)", "--order", "4000"], cli.EXIT_OK),
        (["verify", "--expr", "Pi(q) = 2*Pi(q)", "--order", "64"], cli.EXIT_FALSIFIED),
    ],
    ids=["list", "list-json", "verify-all", "expand", "falsified"],
)
def test_a_closed_stdout_keeps_the_exit_code_and_leaves_stderr_empty(argv, code, unbuffered):
    # a pipe whose reader has gone, as after `piqcheck list | head -1`; a real
    # process, since the interpreter's own last flush is part of what is tested
    read, write = os.pipe()
    os.close(read)
    src = str(Path(cli.__file__).resolve().parents[1])
    try:
        done = subprocess.run(
            [sys.executable, "-c", "from piqcheck.cli import main; raise SystemExit(main())", *argv],
            env={**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": unbuffered},
            stdout=write, stderr=subprocess.PIPE, text=True, timeout=120,
        )
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (code, "")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["expand", "--expr", "-Pi(q)"], "piqcheck expand: error: argument --expr: expected one argument"),
        (["verify", "--order", "x"], "piqcheck verify: error: argument --order: invalid int value: 'x'"),
        ([], "piqcheck: error: the following arguments are required: command"),
    ],
    ids=["dash-value", "bad-int", "no-command"],
)
def test_argument_errors_take_one_stderr_line(capsys, argv, message):
    assert run(capsys, *argv) == (cli.EXIT_USAGE, "", message + "\n")


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        cli._build_parser().parse_args(["no-such-command"])
    assert exc.value.code == 2
    assert cli.main(["no-such-command"]) == cli.EXIT_USAGE
    capsys.readouterr()


CALLER_LINES = [
    ["list"],
    ["verify", "--id", "EQ1-1", "--order", "64"],
    ["verify-all", "--order", "64", "--quiet"],
    ["expand", "--expr", "Pi(q)", "--order", "64"],
    ["prove-modular", "--degree", "3"],
    ["check-param", "--degree", "3", "--order", "64"],
    ["verify", "--order", "x"],
    ["expand", "--expr", "Pi(q"],
]


def test_caller_lines_cover_every_command():
    assert {argv[0] for argv in CALLER_LINES} == set(cli._COMMANDS)


@pytest.mark.parametrize("argv", CALLER_LINES, ids=" ".join)
def test_main_with_a_list_keeps_the_callers_collector(capsys, argv):
    # only the process's own command line, which ends the process, freezes the collector
    frozen, enabled = gc.get_freeze_count(), gc.isenabled()
    run(capsys, *argv)
    assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)


def argparse_reads(argv) -> dict | None:
    """vars() of argparse's namespace for argv, or None where argparse exits or fails."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return vars(cli._build_parser().parse_args(argv))
    except (SystemExit, TypeError):
        # argparse exits on help and on a malformed line, and fails on some items that are not a str
        return None


def assert_plain(argv: list) -> None:
    plain = cli._plain_args(argv)
    assert plain is not None, argv
    assert vars(plain) == argparse_reads(argv), argv


ALL_FLAGS = sorted({row[0] for _, _, flags in cli._COMMANDS.values() for row in flags})
FLAG_VALUES = st.sampled_from([
    "-5", "08", " 8", "1_000", "64", "3", "5", "4", "2.2", "3.2", "2.3", "-Pi(q)", "",
    "Pi(q) = q^{1/4} * psi(q)^2", "a=b", "EQ1-1",
])
NOT_FLAG_TOKENS = ["-h", "--help", "--", "--ord", "--exp", "-", "frobnicate", None, 5, b"--json"]
NOT_FLAGS = st.sampled_from(NOT_FLAG_TOKENS)


def own_flag(row, values: st.SearchStrategy) -> st.SearchStrategy:
    """One use of the flag of a table row: alone if a switch, else with a value it takes or one of values."""
    flag, _, kind, choices, _, _ = row
    if kind is bool:
        return st.just((flag,))
    if choices is not None:
        taken = st.sampled_from([str(c) for c in choices])
    elif kind is int:
        taken = st.sampled_from(["08", " 8", "1_000", "64"])
    else:
        taken = st.sampled_from(["", "a=b", "Pi(q) = q^{1/4} * psi(q)^2", "EQ1-1"])
    return st.tuples(st.just(flag), taken | values)


ANY_ITEM = (
    st.tuples(st.sampled_from(ALL_FLAGS), FLAG_VALUES)
    | st.tuples(st.sampled_from(ALL_FLAGS))
    | st.tuples(st.builds("{}={}".format, st.sampled_from(ALL_FLAGS), FLAG_VALUES))
    | st.tuples(NOT_FLAGS)
)


@st.composite
def command_lines(draw) -> list:
    """A command, then its own flags, or tokens of any kind.

    The head is sometimes missing or not a command.  A line's flags take only
    values they take, or any of FLAG_VALUES, or else its tokens may also be
    another command's flag, a flag=value, a prefix, help, '--' or an item that
    is not a str.
    """
    head = draw(st.sampled_from([*cli._COMMANDS] * 3 + [None, *NOT_FLAG_TOKENS]))
    rows = cli._COMMANDS[head][2] if head in cli._COMMANDS else ()
    values = draw(st.sampled_from([st.nothing(), FLAG_VALUES, None]))
    if rows and values is not None:
        item = st.one_of(*(own_flag(row, values) for row in rows))
    else:
        item = st.one_of(*(own_flag(row, FLAG_VALUES) for row in rows), ANY_ITEM)
    items = draw(st.lists(item, max_size=6))
    return ([] if head is None else [head]) + [token for item in items for token in item]


@settings(max_examples=500, deadline=None, derandomize=True)
@given(command_lines())
def test_a_line_read_without_argparse_reads_as_argparse_reads_it(argv):
    # argparse exiting implies the reader refused the line: a refused line goes on to argparse
    plain = cli._plain_args(argv)
    assert plain is None or vars(plain) == argparse_reads(argv)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["check-param", "--degree", "3", "--order", "08"],
         {"command": "check-param", "degree": 3, "order": 8, "json": False, "quiet": False}),
        (["verify", "--expr", "", "--json", "--order", " 8", "--order", "1_000", "--json"],
         {"command": "verify", "ident": None, "expr": "", "expr_file": None, "order": 1000,
          "json": True, "quiet": False}),
        (["prove-modular", "--theorem", "3.2", "--eq", "a=b"],
         {"command": "prove-modular", "degree": None, "theorem": "3.2", "eq": "a=b",
          "json": False, "quiet": False}),
    ],
    ids=["int-forms", "repeated-flags", "choice-and-equals"],
)
def test_plain_lines_keep_argparse_defaults_conversions_and_last_values(argv, expected):
    assert vars(cli._plain_args(argv)) == argparse_reads(argv) == expected


@pytest.mark.parametrize(
    "argv",
    [
        [], ["-h"], ["verify", "--help"], ["verify", "--ord", "64"], ["verify", "--order=64"],
        ["expand", "--expr", "-Pi(q)"], ["verify", "--order", "-5"], ["check-param", "--degree", "4"],
        ["check-param", "--order", "64"], ["verify", "--json", "--"], ["list", "--order", "64"],
        ["verify", "--expr", None], ("verify", 5), ["frobnicate"],
    ],
)
def test_help_and_every_other_line_are_left_to_argparse(argv):
    assert cli._plain_args(list(argv)) is None


def test_every_benchmark_line_is_read_without_argparse(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    argvs = [
        list(inv.args) for name in workloads.WORKLOADS for inv in workloads.build(name, 1, tmp_path)
    ]
    assert len(argvs) == 12
    for argv in argvs:
        assert_plain(argv)


# the CI step whose lines must reach argparse: help, and a malformed line
ARGPARSE_STEP = "Installed help and argument errors"


# a shell line that runs the installed script, as is, under timeout, or under -X importtime
PIQCHECK_LINE = r'^ *(?:timeout \d+ +|python -X importtime "\$\(command -v )?piqcheck(?:\)")? +(.*)'


def installed_script_lines() -> dict:
    """The argv of every piqcheck line in each CI step whose name starts with 'Installed'."""
    text = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    steps = {}
    for step in text.replace("\\\n", " ").split("\n      - name: ")[1:]:
        name, _, body = step.partition("\n")
        if name.startswith("Installed"):
            # a line's arguments end at its first redirection or ||
            steps[name] = [
                shlex.split(re.split(r" +(?:\d?>|\|\|)", rest)[0])
                for rest in re.findall(PIQCHECK_LINE, body, re.MULTILINE)
            ]
    return steps


def test_every_installed_script_line_in_ci_is_read_without_argparse_but_help_and_errors():
    steps = installed_script_lines()
    assert [cli._plain_args(argv) for argv in steps.pop(ARGPARSE_STEP)] == [None, None]
    argvs = [argv for lines in steps.values() for argv in lines]
    assert len(steps) == 3 and len(argvs) >= 18
    for argv in argvs:
        assert_plain(argv)


def test_unreadable_expr_file_is_usage_error(tmp_path, capsys):
    # an unreadable file is a usage error, never exit 1, which means "falsified"
    code, out, err = run(capsys, "verify", "--expr-file", str(tmp_path), "--order", "64")
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    path = tmp_path / "latin1.txt"
    path.write_bytes("Pi(q) = Pi(q) # caf\xe9\n".encode("latin-1"))
    code, out, err = run(capsys, "verify", "--expr-file", str(path), "--order", "64")
    assert code == cli.EXIT_USAGE
    assert err.startswith("error: ") and "utf-8" in err and err.count("\n") == 1


def test_unexpected_exception_exits_3_without_traceback(capsys, monkeypatch):
    def boom(order):
        raise RuntimeError("unexpected")

    monkeypatch.setattr(catalog, "verify_all", boom)
    code, out, err = run(capsys, "verify-all", "--order", "64")
    assert code == cli.EXIT_INTERNAL
    assert err == "internal error: RuntimeError: unexpected\n"
