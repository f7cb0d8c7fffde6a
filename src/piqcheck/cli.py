"""Command-line front end.

Subcommands::

    list                      show the identity catalog
    verify                    verify one registered identity or a user identity
    verify-all                verify the whole catalog
    expand                    print the t-coefficients of a DSL expression
    prove-modular             replay the degree-3 / degree-5 equation goals
    check-param               series-level cross-check of a parametrization

Reports go to stdout (one line per report in text mode, one JSON object per
line with ``--json``); diagnostics go to stderr.  Every report kind (an
identity check, a modular goal, a parametrization check) is one JSON object
that starts with the same seven fields (``id``, ``status``, ``order``,
``valid_order``, ``first_failure``, ``paper_form_match``, ``elapsed_ms``)
and then adds its own.  Every command ends in :func:`_finish`, which prints
the reports and applies one exit rule.  Exit codes: 0 all checks
verified/proved, 1 at least one falsified, 2 an ``exact.UsageError`` (a
parse error, a power past ``series.MAX_POWER_BITS``, an order out of range,
a bad flag combination) or an unreadable input file, 3 internal
precondition violation (including reports with status ``error``) or any
other unexpected failure; each failure, argparse's too, is one stderr line
without a traceback.  A closed stdout is no failure: the code is the one
the reports give, and stderr stays empty.  A precondition violation is a
``SeriesError`` or any other ``ValueError``, which ``field.FieldError`` and
``modular.ModularError`` are.  Each refusal of the caller's input is raised
as a ``UsageError`` where it is found (``dsl.ParseError`` is one), and its
``label`` opens its stderr line, so the handler names no class of a module
the command did not load.  Exact numbers are rendered with ``exact.exact_str``,
so a report prints however many digits its coefficients, exponents and
orders have; every int of a ``--json`` report is written by it too, as a
JSON number.

Parse errors give a byte offset counted from the start of the identity text
(for an ``--expr-file`` line, from the start of the line as written) and,
for a file, the line number.  A file line without exactly one ``=``, with
a power past the bound, or that is not UTF-8, names its line too.  A bad
file line does not stop the batch: its error goes to stderr, every other
line is still reported, and the exit code is the worst over all lines, in
the order 3 > 2 > 1 > 0.  :func:`_failure` classes lines and commands alike.

A command imports only what it uses.  This module loads only
:mod:`.exact`, and ``json`` only when it writes ``--json`` output.
``list``, ``verify``, ``verify-all`` and ``expand`` import
:mod:`.catalog` (with :mod:`.dsl`, :mod:`.theta` and :mod:`.series`) when
they run; ``prove-modular`` and ``check-param`` import :mod:`.modular` and
neither the catalog nor the DSL, and the prover loads :mod:`.field` but no
series, the series bridge :mod:`.theta` but no field.  The
catalog parses its sides on the first lookup of a record, which
``expand`` and ``verify --expr``/``--expr-file`` never make.

Text output contains no timestamps or timings, so identical invocations
produce byte-identical stdout; JSON mode carries timing in the clearly marked
``elapsed_ms`` field.  The default order is 200 and may be overridden with
the ``PIQCHECK_ORDER`` environment variable; an explicit ``--order`` wins.
An order outside ``exact.check_order``'s range (8 to 100000) is a usage
error whose message names where the order came from.
"""

from __future__ import annotations

import argparse
import os
import sys

from .exact import (
    DEFAULT_ORDER,
    MAX_ORDER,
    MIN_ORDER,
    SeriesError,
    UsageError,
    check_order,
    exact_str,
)

# typing's own constant, spelled here so that no command imports typing;
# type checkers read a module-level TYPE_CHECKING = False the same way
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .catalog import VerifyReport
    from .dsl import Expr
    from .modular import ParamSeriesReport, ProofReport

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

ENV_ORDER = "PIQCHECK_ORDER"


def _default_order() -> int:
    raw = os.environ.get(ENV_ORDER)
    if raw is None:
        return DEFAULT_ORDER
    try:
        return int(raw)
    except ValueError:
        print(f"warning: ignoring non-integer {ENV_ORDER}={raw!r}", file=sys.stderr)
        return DEFAULT_ORDER


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):
        # one stderr line, as every other diagnostic; argparse would add its usage block
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(
        prog="piqcheck",
        description="Exact verification of Pi_q / theta identities and modular-equation goals.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, order: bool = True) -> None:
        if order:
            p.add_argument(
                "--order", type=int, default=None,
                help=f"t-order for series comparisons (default {DEFAULT_ORDER}, "
                f"env {ENV_ORDER}; minimum {MIN_ORDER}, maximum {MAX_ORDER})",
            )
        p.add_argument("--json", action="store_true", help="one JSON object per report")
        p.add_argument("--quiet", action="store_true", help="suppress per-report output")

    p = sub.add_parser("list", help="list the identity catalog")
    add_common(p, order=False)

    p = sub.add_parser("verify", help="verify one identity")
    p.add_argument("--id", dest="ident", help="registered identity id, e.g. EQ1-1")
    p.add_argument("--expr", help="user identity of the form 'LHS = RHS'")
    p.add_argument("--expr-file", help="file with one 'LHS = RHS' identity per line")
    add_common(p)

    p = sub.add_parser("verify-all", help="verify the whole catalog")
    add_common(p)

    p = sub.add_parser("expand", help="expand a DSL expression into t-coefficients")
    p.add_argument("--expr", required=True, help="a DSL expression, e.g. 'Pi(q)'")
    add_common(p)

    p = sub.add_parser("prove-modular", help="replay modular-equation goals")
    p.add_argument("--degree", type=int, choices=(3, 5), help="equation family")
    p.add_argument("--theorem", choices=("2.2", "3.2"), help="alias: 2.2 = degree 3, 3.2 = degree 5")
    p.add_argument("--eq", help="single equation id, e.g. 4-2 or 2-5")
    add_common(p, order=False)

    p = sub.add_parser("check-param", help="series-level parametrization check")
    p.add_argument("--degree", type=int, choices=(3, 5), required=True)
    add_common(p)

    return ap


# ----------------------------------------------------------------------
# report rendering


def _fields(
    ident: str, status: str, elapsed: float, *, order=None, valid_order=None,
    first_failure=None, paper_form_match=None, **kind,
) -> dict:
    """The JSON object of one report: the shared fields, then those of its kind."""
    return {
        "id": ident,
        "status": status,
        "order": order,
        "valid_order": valid_order,
        "first_failure": first_failure,
        "paper_form_match": paper_form_match,
        "elapsed_ms": round(elapsed * 1000.0, 3),
        **kind,
    }


def _verify_report(r: VerifyReport) -> tuple[str, dict]:
    f = r.first_failure
    failure = None if f is None else {
        "exponent": f.exponent, "lhs": exact_str(f.lhs), "rhs": exact_str(f.rhs),
    }
    if r.status == "verified":
        text = f"{r.id} verified order={r.order} valid_order={exact_str(r.valid_order)}"
    elif r.status == "falsified":
        text = (
            f"{r.id} falsified at t^{exact_str(f.exponent)}: lhs={failure['lhs']} rhs={failure['rhs']}"
            f" diff={exact_str(f.lhs - f.rhs)}"
        )
    else:
        text = f"{r.id} error: {r.error}"
    return text, _fields(
        r.id, r.status, r.elapsed, order=r.order, valid_order=r.valid_order,
        first_failure=failure, error=r.error,
    )


def _proof_report(r: ProofReport) -> tuple[str, dict]:
    text = f"{r.eq_id} {'proved' if r.sides_equal else 'FAILED'}"
    if r.paper_form_match is not None:
        text += f" paper_form={'match' if r.paper_form_match else 'mismatch'}"
    return text, _fields(
        r.eq_id, "proved" if r.sides_equal else "falsified", r.elapsed,
        paper_form_match=r.paper_form_match,
        degree=r.degree,
        computed_form=None if r.paper_form_match else r.computed_form,
        reference_form=None if r.paper_form_match else r.reference_form,
    )


def _param_report(r: ParamSeriesReport) -> tuple[str, dict]:
    failing = [c for c in r.checks if not c.holds]
    failure = None
    if r.verified:
        text = f"degree-{r.degree} parametrization verified order={r.order} checks={len(r.checks)}"
    else:
        spots = ", ".join(f"{c.name} at t^{c.first_failure_exponent}" for c in failing)
        text = f"degree-{r.degree} parametrization FALSIFIED order={r.order}: {spots}"
        exponent = min(c.first_failure_exponent for c in failing)
        failure = {"exponent": exponent, "lhs": None, "rhs": None}
    checks = [
        {"name": c.name, "holds": c.holds, "first_failure_exponent": c.first_failure_exponent}
        for c in r.checks
    ]
    return text, _fields(
        f"param-degree-{r.degree}", "verified" if r.verified else "falsified", r.elapsed,
        order=r.order, first_failure=failure, checks=checks,
    )


def _json(value) -> str:
    """``json.dumps(value)`` with every int written by ``exact_str``.

    ``json.dumps`` refuses an int past the int string limit; this writes it
    as a JSON number of any length, and writes every other report byte for
    byte as ``json.dumps`` does.  ``json`` is imported here, so text mode
    never loads it.
    """
    import json

    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_json(v)}" for k, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(_json, value)) + "]"
    if isinstance(value, int) and not isinstance(value, bool):
        return exact_str(value)
    return json.dumps(value)


def _finish(args, reports: list[tuple[str, dict]]) -> int:
    """Print each (text, JSON object) report unless quiet; return the exit code.

    The exit code is EXIT_INTERNAL when any report has status ``error``,
    EXIT_FALSIFIED when any is falsified, and EXIT_OK otherwise.  A reader
    that closes stdout early (``piqcheck list | head -1``) leaves the code
    as ``--quiet`` would, with nothing on stderr.
    """
    if not args.quiet:
        try:
            for text, fields in reports:
                print(_json(fields) if args.json else text)
            sys.stdout.flush()
        except BrokenPipeError:
            # stdout now writes to os.devnull, so the interpreter's last flush stays silent
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    statuses = {fields.get("status") for _, fields in reports}
    if "error" in statuses:
        return EXIT_INTERNAL
    if "falsified" in statuses:
        return EXIT_FALSIFIED
    return EXIT_OK


# ----------------------------------------------------------------------
# commands


def _resolve_order(args) -> int:
    """The flag's order, else the environment's or the default; a bad value names its source."""
    if args.order is not None:
        order, source = args.order, "--order"
    else:
        order, source = _default_order(), ENV_ORDER
    check_order(order, source)
    return order


# UsageError and UnicodeDecodeError are ValueErrors, so _failure tests these first
_USAGE_ERRORS = (UsageError, OSError, UnicodeDecodeError)


def _failure(exc: Exception) -> tuple[int, str]:
    """The exit code of a failure, and the prefix of its stderr line: a UsageError's label."""
    if isinstance(exc, _USAGE_ERRORS):
        return EXIT_USAGE, getattr(exc, "label", "error")
    if isinstance(exc, (SeriesError, ValueError)):
        # field.FieldError and modular.ModularError are ValueErrors
        return EXIT_INTERNAL, "internal precondition violation"
    # exit 1 means "falsified", so no other failure may leave with it
    return EXIT_INTERNAL, f"internal error: {type(exc).__name__}"


def _cmd_list(args) -> int:
    from . import catalog

    return _finish(args, [
        (
            f"{rec.id}\t{rec.lhs_text} = {rec.rhs_text}",
            {
                "id": rec.id,
                "label": rec.label,
                "sign_variant": rec.sign_variant,
                "lhs": rec.lhs_text,
                "rhs": rec.rhs_text,
            },
        )
        for rec in catalog.list_identities()
    ])


def _split_identity(text: str) -> tuple[Expr, Expr]:
    """Both sides of 'LHS = RHS', with parse-error offsets counted from the start of text."""
    from .dsl import parse

    if text.count("=") != 1:
        raise UsageError("a user identity must contain exactly one '=' separating LHS and RHS")
    lhs_text, rhs_text = text.split("=")
    # the right side is parsed behind one blank byte per byte of 'LHS ='
    return parse(lhs_text), parse(" " * (len(lhs_text.encode("utf-8")) + 1) + rhs_text)


def _cmd_verify(args) -> int:
    from . import catalog

    order = _resolve_order(args)
    sources = [s for s in (args.ident, args.expr, args.expr_file) if s]
    if len(sources) != 1:
        raise UsageError("verify needs exactly one of --id, --expr, --expr-file")
    reports: list[VerifyReport] = []
    worst = EXIT_OK
    if args.ident:
        try:
            reports.append(catalog.verify(args.ident, order))
        except catalog.UnknownIdentity:
            raise UsageError(f"unknown identity {args.ident!r}; see 'piqcheck list'") from None
    elif args.expr:
        reports.append(catalog.verify_sides("user", *_split_identity(args.expr), order))
    else:
        # bytes that are not UTF-8 are kept as surrogates, so that only their line fails
        with open(args.expr_file, "r", encoding="utf-8", errors="surrogateescape") as fh:
            for i, line in enumerate(fh, start=1):
                if not line.strip() or line.lstrip().startswith("#"):
                    continue
                try:
                    text = line.encode("utf-8", "surrogateescape").decode("utf-8")
                    lhs, rhs = _split_identity(text.rstrip("\n"))
                    reports.append(catalog.verify_sides(f"line-{i}", lhs, rhs, order))
                except _USAGE_ERRORS as exc:
                    code, prefix = _failure(exc)
                    print(f"{prefix}: line {i}: {exc}", file=sys.stderr)
                    worst = max(worst, code)
    return max(worst, _finish(args, [_verify_report(r) for r in reports]))


def _cmd_verify_all(args) -> int:
    from . import catalog

    return _finish(args, [_verify_report(r) for r in catalog.verify_all(_resolve_order(args))])


def _cmd_expand(args) -> int:
    from . import catalog
    from .dsl import parse

    order = _resolve_order(args)
    series = catalog.evaluate(parse(args.expr), order)
    terms = [(exp, exact_str(c)) for exp, c in series.terms()]
    lines = [f"t^{exact_str(exp)}: {c}" for exp, c in terms]
    lines.append(
        f"# valuation={'-' if series.is_zero else exact_str(series.valuation)} "
        f"order={exact_str(series.order)} nonzero_terms={len(terms)}"
    )
    payload = {
        "expr": args.expr,
        "valuation": None if series.is_zero else series.valuation,
        "order": series.order,
        "coefficients": [{"exponent": exp, "value": c} for exp, c in terms],
    }
    return _finish(args, [("\n".join(lines), payload)])


def _cmd_prove_modular(args) -> int:
    from . import modular

    degree = args.degree
    if args.theorem is not None:
        mapped = 3 if args.theorem == "2.2" else 5
        if degree is not None and degree != mapped:
            raise UsageError("--degree and --theorem disagree")
        degree = mapped
    if degree is None and args.eq is not None:
        degree = next((d for d, eqs in modular.EQUATIONS.items() if args.eq in eqs), None)
        if degree is None:
            raise UsageError(f"unknown equation id {args.eq!r}")
    reports: list[ProofReport] = []
    degrees = (degree,) if degree is not None else tuple(modular.EQUATIONS)
    for d in degrees:
        if args.eq is None:
            reports.extend(modular.prove_all(d))
        elif args.eq in modular.EQUATIONS[d]:
            reports.append(modular.prove(d, args.eq))
        else:
            raise UsageError(f"equation {args.eq!r} is not a degree-{d} goal")
    return _finish(args, [_proof_report(r) for r in reports])


def _cmd_check_param(args) -> int:
    from . import modular

    order = _resolve_order(args)
    return _finish(args, [_param_report(modular.check_param_series(args.degree, order))])


_COMMANDS = {
    "list": _cmd_list,
    "verify": _cmd_verify,
    "verify-all": _cmd_verify_all,
    "expand": _cmd_expand,
    "prove-modular": _cmd_prove_modular,
    "check-param": _cmd_check_param,
}


def main(argv: list | None = None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse reports usage errors on stderr and exits 2 already
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:
        code, prefix = _failure(exc)
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
