"""Command-line interface: exit codes, JSON schema, determinism."""

import json
import sys

import pytest

from piqcheck import cli


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


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        cli._build_parser().parse_args(["no-such-command"])
    assert exc.value.code == 2
    assert cli.main(["no-such-command"]) == cli.EXIT_USAGE
    capsys.readouterr()


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

    monkeypatch.setattr(cli.catalog, "verify_all", boom)
    code, out, err = run(capsys, "verify-all", "--order", "64")
    assert code == cli.EXIT_INTERNAL
    assert err == "internal error: RuntimeError: unexpected\n"
