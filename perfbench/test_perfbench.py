"""Tests of the benchmark itself: its checks, its generator and its harness.

Run from the root of a checkout with ``python3 -m unittest discover -s perfbench``
(or ``python3 -m pytest perfbench``).  Nothing here runs the workloads.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

import generate
import run
import traced
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _lines(reports) -> str:
    return "".join(json.dumps(r) + "\n" for r in reports)


def _verify_all_output(order=workloads.DEEP_ORDER) -> list[dict]:
    return [
        {"id": i, "status": "verified", "order": order, "valid_order": order, "first_failure": None}
        for i in workloads.CATALOG_IDS
    ]


def _expand_output(coeffs: dict, order: int) -> str:
    return _lines([{
        "expr": "x", "valuation": min(coeffs), "order": order,
        "coefficients": [{"exponent": e, "value": str(v)} for e, v in sorted(coeffs.items())],
    }])


def _expr_file_output(f: generate.ExprFile) -> list[dict]:
    out = []
    for n, line in enumerate(f.lines, start=f.FIRST_LINE):
        report = {"id": f"line-{n}", "status": "verified", "order": f.order, "first_failure": None}
        if line.failure is not None:
            exponent, diff = line.failure
            report["status"] = "falsified"
            report["first_failure"] = {"exponent": exponent, "lhs": str(diff + 7), "rhs": "7"}
        out.append(report)
    return out


class ReferenceValues(unittest.TestCase):
    """The divisor-sum formulas against brute-force counts."""

    def test_phi_squared_counts_sums_of_two_squares(self):
        order = 4 * 60
        want = {}
        for x in range(-10, 11):
            for y in range(-10, 11):
                n = x * x + y * y
                if 4 * n < order:
                    want[4 * n] = want.get(4 * n, 0) + 1
        self.assertEqual(workloads.phi_squared_coefficients(order), want)

    def test_pi_counts_sums_of_two_triangular_numbers(self):
        order = 4 * 60 + 1
        tri = [i * (i + 1) // 2 for i in range(12)]
        want = {}
        for a in tri:
            for b in tri:
                if 4 * (a + b) + 1 < order:
                    want[4 * (a + b) + 1] = want.get(4 * (a + b) + 1, 0) + 1
        self.assertEqual(workloads.pi_coefficients(order), want)


class ChecksRejectTamperedOutput(unittest.TestCase):
    def test_verify_all(self):
        check = workloads.check_verify_all(workloads.DEEP_ORDER)
        good = _verify_all_output()
        self.assertEqual(check(_lines(good), 0), [])
        wrong_status = [dict(r) for r in good]
        wrong_status[5]["status"] = "falsified"
        self.assertTrue(check(_lines(wrong_status), 0))
        self.assertTrue(check(_lines(good[1:]), 0), "missing id")
        self.assertTrue(check(_lines(good), 1), "wrong exit code")
        self.assertTrue(check(_lines(good[:-1]) + "Traceback (most recent call last):\n", 1))

    def test_expand_coefficients(self):
        order = workloads.DEEP_ORDER + 1
        for reference in (workloads.pi_coefficients, workloads.phi_squared_coefficients):
            check = workloads.check_expand(reference, workloads.DEEP_ORDER)
            coeffs = reference(order)
            self.assertEqual(check(_expand_output(coeffs, order), 0), [])
            off_by_one = dict(coeffs)
            e = sorted(off_by_one)[len(off_by_one) // 2]
            off_by_one[e] += 1
            self.assertTrue(check(_expand_output(off_by_one, order), 0))
            missing = dict(coeffs)
            del missing[e]
            self.assertTrue(check(_expand_output(missing, order), 0))
            self.assertTrue(check(_expand_output(coeffs, 100), 0), "order below the request")
            self.assertEqual(check(_expand_output(coeffs, 10 * order), 0), [], "beyond the request is not read")

    def test_prove_modular_and_param(self):
        good = [{"id": g, "status": "proved"} for g in workloads.GOAL_IDS]
        check = workloads.check_prove_modular()
        self.assertEqual(check(_lines(good), 0), [])
        self.assertTrue(check(_lines(good[:-1]), 0), "missing id")
        failed = [dict(r) for r in good]
        failed[0]["status"] = "falsified"
        self.assertTrue(check(_lines(failed), 1))

        check = workloads.check_param(5, 400)
        report = {"id": "param-degree-5", "status": "verified", "order": 400,
                  "checks": [{"name": "a", "holds": True}, {"name": "b", "holds": True}]}
        self.assertEqual(check(_lines([report]), 0), [])
        report["checks"][1]["holds"] = False
        self.assertTrue(check(_lines([report]), 0))

    def test_expr_file(self):
        f = generate.generate(11)[2]
        check = workloads.check_expr_file(f)
        good = _expr_file_output(f)
        self.assertEqual(check(_lines(good), 1), [])
        self.assertTrue(check(_lines(good), 0), "exit code must say falsified")
        n = next(i for i, ln in enumerate(f.lines) if ln.failure)
        wrong_exponent = json.loads(json.dumps(good))
        wrong_exponent[n]["first_failure"]["exponent"] += 4
        self.assertTrue(check(_lines(wrong_exponent), 1))
        wrong_diff = json.loads(json.dumps(good))
        wrong_diff[n]["first_failure"]["rhs"] = "8"
        self.assertTrue(check(_lines(wrong_diff), 1))
        true_line = next(i for i, ln in enumerate(f.lines) if not ln.failure)
        wrong_status = json.loads(json.dumps(good))
        wrong_status[true_line]["status"] = "error"
        self.assertTrue(check(_lines(wrong_status), 1))


class Generator(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        self.assertEqual(generate.generate(5), generate.generate(5))
        self.assertEqual([f.text() for f in generate.generate(5)], [f.text() for f in generate.generate(5)])
        self.assertNotEqual(generate.generate(5), generate.generate(6))

    def test_shape_of_a_seed(self):
        files = generate.generate(3)
        self.assertEqual(len(files), generate.FILES)
        orders = [f.order for f in files]
        self.assertEqual(orders, sorted(orders))
        self.assertTrue(all(generate.ORDER_LO <= o < generate.ORDER_HI for o in orders))
        for f in files:
            mutated = [ln for ln in f.lines if ln.failure]
            self.assertEqual(len(mutated), generate.MUTATED_PER_FILE)
            for ln in mutated:
                exponent, diff = ln.failure
                self.assertTrue(0 <= exponent < f.order // 2)
                self.assertNotEqual(diff, 0)

    def test_lines_parse(self):
        sys.path.insert(0, str(ROOT / "src"))
        try:
            from piqcheck.dsl import parse
        finally:
            sys.path.remove(str(ROOT / "src"))
        for f in generate.generate(1):
            for ln in f.lines:
                lhs, rhs = ln.text.split("=")
                parse(lhs)
                parse(rhs)


class Harness(unittest.TestCase):
    def test_benchmark_json_names_the_harness_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], run.LAYER_METRICS)

    def test_self_time_excludes_children_and_their_overhead(self):
        t = traced.Tracer()
        t.spans = [
            ["outer", -1, 0, 1000, 7],
            ["inner", 0, 100, 400, 50],
            ["inner", 1, 150, 250, 10],
        ]
        s = t.summary()
        self.assertEqual(s["spans"]["outer"], {"calls": 1, "self_ns": 1000 - 350})
        self.assertEqual(s["spans"]["inner"], {"calls": 2, "self_ns": (300 - 110) + 100})
        self.assertEqual(s["overhead_ns"], 67)

    def test_stride(self):
        class S:
            def __init__(self, coeffs):
                self.coeffs = coeffs

        self.assertEqual(traced.stride(S((1, 0, 0, 0, 2, 0, 0, 0, 3))), 4)
        self.assertEqual(traced.stride(S((1, 0, 2, 5))), 1)
        self.assertEqual(traced.stride(S((1, 0, 0))), 0)

    def test_pace_probe_gives_a_factor_and_is_reaped(self):
        with tempfile.TemporaryDirectory() as tmp:
            with run.Pace(Path(tmp)) as probe:
                before = probe.read()
                time.sleep(0.3)
                after = probe.read()
                factor, cpu_s = probe.window(before, after)
                with self.assertRaises(run.SetupError):
                    probe.window(after, after)
        self.assertGreater(after[0] - before[0], run.PACE_MIN_UNITS)
        self.assertGreater(cpu_s, 0.0)
        self.assertGreater(factor, 0.0)
        self.assertIsNotNone(probe.proc.returncode)

    def test_exits_without_result_when_the_program_is_missing(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            r = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "catalog-deep",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(r.returncode, 0)
        self.assertEqual(r.stdout, "")


if __name__ == "__main__":
    unittest.main()
