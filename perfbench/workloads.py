"""Workloads of the piqcheck benchmark and the checks on their outputs.

A workload is a list of :class:`Invocation`: the arguments of one ``piqcheck``
CLI process and a check of its stdout and exit code.  Every expected value is
computed here, apart from the program: the catalog ids and goal ids are the
paper's, the ``expand`` coefficients come from divisor sums in plain
integers, and the ``user-mixed`` outcomes come from the generator that made
the inputs.  Every invocation runs with ``--json``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import generate

DEEP_ORDER = 800
PARAM_ORDER = 400

CATALOG_IDS = (
    "EQ1-1", "EQ1-2", "EQ1-3", "EQ1-4", "EQ1-5", "EQ1-6", "EQ1-7",
    "EQ11-10+", "EQ11-10-", "EQ11-2", "EQ11-4", "EQ11-5", "EQ11-6", "EQ11-7", "EQ11-8",
    "EQ11-9+", "EQ11-9-",
    "EQ21-1", "EQ21-2", "EQ21-3", "EQ21-4", "EQ21-5", "EQ21-6+", "EQ21-6-", "EQ21-7+", "EQ21-7-",
    "EQ3-1", "EQ3-2", "EQ3-3", "EQ3-4", "EQ3-5",
)
GOAL_IDS = (
    "4-1", "4-2", "4-3", "4-4", "4-5", "4-6+", "4-6-", "44-7+", "44-7-",
    "2-1", "2-2", "2-3", "2-4", "2-5",
)

EXIT_OK, EXIT_FALSIFIED = 0, 1

Check = Callable[[str, int], list]
"""``check(stdout, exit_code)`` returns the list of problems; empty when correct."""


@dataclass(frozen=True)
class Invocation:
    args: tuple[str, ...]
    check: Check


# ----------------------------------------------------------------------
# independent reference values


def chi4_divisor_sums(limit: int) -> list[int]:
    """``D[m] = d_{1,4}(m) - d_{3,4}(m)`` for ``0 <= m <= limit`` (``D[0] = 0``)."""
    d = [0] * (limit + 1)
    for div in range(1, limit + 1, 2):
        sign = 1 if div % 4 == 1 else -1
        for m in range(div, limit + 1, div):
            d[m] += sign
    return d


def pi_coefficients(order: int) -> dict[int, int]:
    """Nonzero t-coefficients of ``Pi(q) = q^(1/4) psi(q)^2`` below t^order.

    ``psi(q)^2 = sum D(4n+1) q^n``, so t^(4n+1) carries ``D(4n+1)``.
    """
    d = chi4_divisor_sums(order)
    return {e: d[e] for e in range(1, order, 4) if d[e]}


def phi_squared_coefficients(order: int) -> dict[int, int]:
    """Nonzero t-coefficients of ``phi(q)^2 = 1 + 4 sum D(n) q^n`` below t^order."""
    d = chi4_divisor_sums(order // 4 + 1)
    out = {0: 1}
    for n in range(1, (order + 3) // 4):
        if d[n]:
            out[4 * n] = 4 * d[n]
    return out


# ----------------------------------------------------------------------
# checks


def _json_lines(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


def _check_reports(stdout: str, code: int, expected: dict, expected_code: int) -> list:
    """Compare JSON reports by id with ``expected[id] = (status, extra fields)``."""
    problems = []
    if code != expected_code:
        problems.append(f"exit code {code}, expected {expected_code}")
    try:
        reports = _json_lines(stdout)
    except json.JSONDecodeError as exc:
        return problems + [f"stdout is not JSON lines: {exc}"]
    by_id = {r.get("id"): r for r in reports}
    if len(by_id) != len(reports):
        problems.append("duplicate report ids")
    if set(by_id) != set(expected):
        problems.append(
            f"ids differ: missing {sorted(set(expected) - set(by_id))}, "
            f"unexpected {sorted(set(by_id) - set(expected))}"
        )
    for ident, (status, fields) in expected.items():
        r = by_id.get(ident)
        if r is None:
            continue
        if r.get("status") != status:
            problems.append(f"{ident}: status {r.get('status')!r}, expected {status!r}")
        for key, want in fields.items():
            if r.get(key) != want:
                problems.append(f"{ident}: {key} {r.get(key)!r}, expected {want!r}")
    return problems


def check_verify_all(order: int) -> Check:
    expected = {i: ("verified", {"order": order}) for i in CATALOG_IDS}
    return lambda out, code: _check_reports(out, code, expected, EXIT_OK)


def check_expand(reference: Callable[[int], dict], order: int) -> Check:
    def check(out: str, code: int) -> list:
        problems = [] if code == EXIT_OK else [f"exit code {code}, expected {EXIT_OK}"]
        try:
            (payload,) = _json_lines(out)
            got = {c["exponent"]: Fraction(c["value"]) for c in payload["coefficients"]}
            known = payload["order"]
        except (ValueError, KeyError, TypeError) as exc:
            return problems + [f"malformed expand output: {exc!r}"]
        if known < order:
            problems.append(f"order {known} below the requested {order}")
        want = reference(order)
        exponents = {e for e in got if e < order} | set(want)
        wrong = sorted(e for e in exponents if got.get(e, 0) != want.get(e, 0))
        if wrong:
            e = wrong[0]
            problems.append(
                f"{len(wrong)} coefficients differ, first t^{e}: {got.get(e, 0)} != {want.get(e, 0)}"
            )
        return problems

    return check


def check_prove_modular() -> Check:
    expected = {g: ("proved", {}) for g in GOAL_IDS}
    return lambda out, code: _check_reports(out, code, expected, EXIT_OK)


def check_param(degree: int, order: int) -> Check:
    expected = {f"param-degree-{degree}": ("verified", {"order": order})}

    def check(out: str, code: int) -> list:
        problems = _check_reports(out, code, expected, EXIT_OK)
        if problems:
            return problems
        for r in _json_lines(out):
            if not r.get("checks") or not all(c.get("holds") for c in r["checks"]):
                problems.append(f"{r['id']}: not every check holds: {r.get('checks')}")
        return problems

    return check


def check_expr_file(f: generate.ExprFile) -> Check:
    lines = {f"line-{n}": ln for n, ln in enumerate(f.lines, start=f.FIRST_LINE)}
    expected = {i: ("falsified" if ln.failure else "verified", {"order": f.order}) for i, ln in lines.items()}
    mutated = {i: ln.failure for i, ln in lines.items() if ln.failure}
    code_want = EXIT_FALSIFIED if mutated else EXIT_OK

    def check(out: str, code: int) -> list:
        problems = _check_reports(out, code, expected, code_want)
        if problems:
            return problems
        for r in _json_lines(out):
            if r["id"] not in mutated:
                continue
            exponent, diff = mutated[r["id"]]
            ff = r.get("first_failure") or {}
            try:
                got_diff = Fraction(ff["lhs"]) - Fraction(ff["rhs"])
            except (KeyError, TypeError, ValueError):
                problems.append(f"{r['id']}: malformed first_failure {ff!r}")
                continue
            if ff.get("exponent") != exponent:
                problems.append(f"{r['id']}: first failure at t^{ff.get('exponent')}, expected t^{exponent}")
            if got_diff != diff:
                problems.append(f"{r['id']}: lhs - rhs = {got_diff}, expected {diff}")
        return problems

    return check


# ----------------------------------------------------------------------
# workloads

WORKLOADS = ("catalog-deep", "user-mixed", "modular-replay")


def build(name: str, seed: int, workdir: Path) -> list[Invocation]:
    """The invocations of one pass of workload ``name``; inputs go to ``workdir``."""
    if name == "catalog-deep":
        o = str(DEEP_ORDER)
        return [
            Invocation(("verify-all", "--order", o, "--json"), check_verify_all(DEEP_ORDER)),
            Invocation(("expand", "--expr", "Pi(q)", "--order", o, "--json"),
                       check_expand(pi_coefficients, DEEP_ORDER)),
            Invocation(("expand", "--expr", "phi(q)^2", "--order", o, "--json"),
                       check_expand(phi_squared_coefficients, DEEP_ORDER)),
        ]
    if name == "user-mixed":
        out = []
        for f in generate.generate(seed):
            path = workdir / f.name
            path.write_text(f.text(), encoding="utf-8")
            out.append(Invocation(
                ("verify", "--expr-file", str(path), "--order", str(f.order), "--json"),
                check_expr_file(f),
            ))
        return out
    if name == "modular-replay":
        o = str(PARAM_ORDER)
        return [
            Invocation(("prove-modular", "--json"), check_prove_modular()),
            Invocation(("check-param", "--degree", "3", "--order", o, "--json"), check_param(3, PARAM_ORDER)),
            Invocation(("check-param", "--degree", "5", "--order", o, "--json"), check_param(5, PARAM_ORDER)),
        ]
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
