"""Benchmark of the piqcheck CLI.

Run from the root of a checkout::

    python3 perfbench/run.py --workload catalog-deep --seed 1 --seconds 30 --trace 0

Each invocation of a workload (see ``workloads.py``) runs as a fresh
``python3 -m piqcheck.cli`` child with ``PYTHONPATH=src``, one child at a
time, and its stdout and exit code are checked against values computed by
the benchmark.  A pass is one run through the workload's invocations; passes
repeat while the next one is expected to end within ``--seconds``, and at
least one always runs.

Times are given in reference seconds.  The speed of a CPU on a shared host
moves by up to 2x in phases of seconds, for all work on it alike, so the
benchmark pins itself and its children to one CPU and runs the pace probe of
``pace.py`` there beside them.  Child and probe share the CPU in slices of
milliseconds and see the same phases; the probe's CPU time per unit of its
fixed work while a child ran gives that child's ``factor``, ``PACE_UNIT_S``
over the measured cost of a unit.  A child's time times its factor is its
time at the speed at which a pace unit costs ``PACE_UNIT_S``, about the
fastest phase of the 2-core machine the benchmark was built on.

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``: CPU time of a fresh interpreter that imports ``piqcheck``
  (which parses the catalog), the median over ``SETUP_PER_PASS`` children
  before each pass, after one unmeasured import that writes the bytecode
  cache;
* ``wall_s``: one pass, summed over its children from spawn to reap, less
  the probe's share of the CPU in that time;
* ``cpu_s``: the children's user + system time in one pass;
* ``peak_rss_mb``: the largest resident set of any child in a pass.

Each is the median over the run's passes.

``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics of ``LAYER_METRICS``.  Traced children run through ``traced.py``,
whose spans are timed in thread CPU time; self times are medians over traced
passes and ``trace.overhead_share`` is the traced pass time over the
untraced one, minus 1.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  An operation is one child; it fails when its
exit code or any report differs from the expected one.  Without the program
under ``src/piqcheck`` the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import mmap
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import pace
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_PER_PASS = 8
CHILD_TIMEOUT_S = 150
PACE_UNIT_S = 1.3e-4        # reference cost of one pace unit
PACE_WARMUP_S = 0.5
PACE_MIN_UNITS = 100        # fewer in a child's window cannot give its speed
IMPORT_PROBE = "import piqcheck; print(piqcheck.__file__)"

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

SERIES_OPS = ("mul", "div", "sqrt", "add")
FIELD_OPS = ("divmod", "gcd", "ratfunc", "inverse")
LAYER_METRICS = (
    [(f"series.{op}.calls", "count") for op in SERIES_OPS]
    + [(f"series.{op}.self_s", "s") for op in SERIES_OPS]
    + [(f"series.{op}.window", "coeffs") for op in ("mul", "div", "sqrt")]
    + [("series.strided_share", "share")]
    + [("theta.build.calls", "count"), ("theta.build.self_s", "s"),
       ("theta.pochhammer.self_s", "s"), ("theta.cache.hit_ratio", "share")]
    + [("dsl.parse.calls", "count"), ("dsl.parse.self_s", "s"),
       ("catalog.evaluate.calls", "count"), ("catalog.evaluate.self_s", "s"),
       ("catalog.verify.self_s", "s")]
    + [(f"field.{op}.calls", "count") for op in FIELD_OPS]
    + [(f"field.{op}.self_s", "s") for op in FIELD_OPS]
    + [("field.gcd.max_degree", "degree")]
    + [("modular.table.calls", "count"), ("modular.prove.calls", "count"),
       ("modular.table.self_s", "s"), ("modular.prove.self_s", "s"),
       ("modular.param.self_s", "s"), ("cli.main.self_s", "s")]
    + [("trace.overhead_share", "share")]
)


class SetupError(Exception):
    """The benchmark cannot measure: no importable program, or no pace probe."""


class Pace:
    """The pace probe, running on the CPU this process and its children are pinned to."""

    def __init__(self, workdir: Path):
        self.path = workdir / "pace.bin"

    def __enter__(self) -> Pace:
        self.path.write_bytes(bytes(pace.RECORD.size))
        with open(self.path, "rb") as fh:
            self.record = mmap.mmap(fh.fileno(), pace.RECORD.size, prot=mmap.PROT_READ)
        self.proc = subprocess.Popen([sys.executable, str(HERE / "pace.py"), str(self.path)],
                                     stdin=subprocess.DEVNULL)
        try:
            time.sleep(PACE_WARMUP_S)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.proc.kill()
        self.proc.wait()
        self.record.close()

    def read(self) -> tuple[int, int]:
        """(units done, probe CPU ns), as of the probe's last finished unit."""
        while True:
            units, cpu_ns, check = pace.RECORD.unpack_from(self.record)
            if units == check:
                return units, cpu_ns

    def window(self, before: tuple[int, int], after: tuple[int, int]) -> tuple[float, float]:
        """(factor, probe CPU seconds) between two reads."""
        units, cpu_s = after[0] - before[0], (after[1] - before[1]) / 1e9
        if self.proc.poll() is not None or units < PACE_MIN_UNITS:
            raise SetupError(f"the pace probe did {units} units in a child's time; it cannot give the CPU's speed")
        return PACE_UNIT_S * units / cpu_s, cpu_s


@dataclass
class Child:
    wall_s: float       # reference seconds
    cpu_s: float
    factor: float
    rss_mb: float
    code: int
    stdout: str


@dataclass
class Pass:
    walls: list = field(default_factory=list)   # per invocation, reference seconds
    cpus: list = field(default_factory=list)
    rss_mb: float = 0.0
    failed: int = 0
    summary: dict = field(default_factory=lambda: {
        "spans": {}, "window": {}, "strided": 0, "stride_ops": 0,
        "cache_hits": 0, "cache_misses": 0, "gcd_max_degree": 0,
    })


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PIQCHECK_ORDER", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], workdir: Path, env: dict, probe: Pace) -> Child:
    """Run one child to its end and time it against the pace probe."""
    out_path = workdir / "child.stdout"
    with open(out_path, "wb") as out:
        before = probe.read()
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, cwd=ROOT, env=env)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        after = probe.read()
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped above; Popen must not wait again
    factor, probe_cpu = probe.window(before, after)
    return Child(
        wall_s=(wall - probe_cpu) * factor,
        cpu_s=(usage.ru_utime + usage.ru_stime) * factor,
        factor=factor,
        rss_mb=usage.ru_maxrss / 1024.0,
        code=proc.returncode,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
    )


def import_times(env: dict, workdir: Path, probe: Pace, reps: int) -> list[float]:
    """Reference CPU times of ``reps`` fresh interpreters that import ``piqcheck``."""
    times = []
    for _ in range(reps):
        c = run_child([sys.executable, "-c", IMPORT_PROBE], workdir, env, probe)
        if c.code != 0:
            raise SetupError(f"cannot import piqcheck from {SRC} (exit code {c.code})")
        path = c.stdout.strip()
        if not Path(path).resolve().is_relative_to(SRC):
            raise SetupError(f"piqcheck was imported from {path}, not from {SRC}")
        times.append(c.cpu_s)
    return times


def merge(total: dict, part: dict, factor: float) -> None:
    """Add one child's trace summary into a pass total, self times in reference ns."""
    for name, entry in part["spans"].items():
        agg = total["spans"].setdefault(name, {"calls": 0, "self_ns": 0})
        agg["calls"] += entry["calls"]
        agg["self_ns"] += entry["self_ns"] * factor
    for name, value in part["window"].items():
        total["window"][name] = total["window"].get(name, 0) + value
    for key in ("strided", "stride_ops", "cache_hits", "cache_misses"):
        total[key] += part[key]
    total["gcd_max_degree"] = max(total["gcd_max_degree"], part["gcd_max_degree"])


def run_pass(invocations, workdir: Path, env: dict, probe: Pace, traced: bool) -> Pass:
    p = Pass()
    summary_path = workdir / "trace.json"
    for inv in invocations:
        if traced:
            argv = [sys.executable, str(HERE / "traced.py"), str(summary_path), *inv.args]
        else:
            argv = [sys.executable, "-m", "piqcheck.cli", *inv.args]
        summary_path.unlink(missing_ok=True)
        c = run_child(argv, workdir, env, probe)
        p.walls.append(c.wall_s)
        p.cpus.append(c.cpu_s)
        p.rss_mb = max(p.rss_mb, c.rss_mb)
        try:
            problems = inv.check(c.stdout, c.code)
        except Exception as exc:  # a check must never stop the run
            problems = [f"check raised {exc!r}"]
        if traced:
            try:
                merge(p.summary, json.loads(summary_path.read_text(encoding="utf-8")), c.factor)
            except (OSError, ValueError, KeyError) as exc:
                problems.append(f"no trace summary: {exc!r}")
        if problems:
            p.failed += 1
            print(f"FAILED {' '.join(inv.args)}: " + "; ".join(problems[:5]), file=sys.stderr)
    return p


def repeat(seconds: float, one_round) -> list:
    """Run rounds while the next one is expected to end within ``seconds``; at least one."""
    start = time.perf_counter()
    rounds = []
    while True:
        rounds.append(one_round())
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def median_sum(passes: list[Pass], attr: str) -> float:
    """Median over passes of the pass total of ``attr``."""
    return statistics.median(sum(getattr(p, attr)) for p in passes)


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def layer_metrics(summaries: list[dict], overhead: float) -> dict:
    """Per-layer metrics from the trace summaries of the traced passes.

    Counts repeat exactly from pass to pass, so they come from the first;
    self times are the median over all.
    """
    first = summaries[0]

    def calls(name):
        return first["spans"].get(name, {}).get("calls", 0)

    def self_s(name):
        return statistics.median(s["spans"].get(name, {}).get("self_ns", 0) for s in summaries) / 1e9

    values = {}
    for op in SERIES_OPS:
        values[f"series.{op}.calls"] = calls(f"series.{op}")
        values[f"series.{op}.self_s"] = self_s(f"series.{op}")
    for op in ("mul", "div", "sqrt"):
        values[f"series.{op}.window"] = _share(first["window"].get(f"series.{op}", 0), calls(f"series.{op}"))
    values["series.strided_share"] = _share(first["strided"], first["stride_ops"])
    values["theta.build.calls"] = calls("theta.build")
    values["theta.build.self_s"] = self_s("theta.build")
    values["theta.pochhammer.self_s"] = self_s("theta.pochhammer")
    values["theta.cache.hit_ratio"] = _share(first["cache_hits"], first["cache_hits"] + first["cache_misses"])
    values["dsl.parse.calls"] = calls("dsl.parse")
    values["dsl.parse.self_s"] = self_s("dsl.parse")
    values["catalog.evaluate.calls"] = calls("catalog.evaluate")
    values["catalog.evaluate.self_s"] = self_s("catalog.evaluate")
    values["catalog.verify.self_s"] = self_s("catalog.verify")
    for op in FIELD_OPS:
        values[f"field.{op}.calls"] = calls(f"field.{op}")
        values[f"field.{op}.self_s"] = self_s(f"field.{op}")
    values["field.gcd.max_degree"] = first["gcd_max_degree"]
    values["modular.table.calls"] = calls("modular.table")
    values["modular.prove.calls"] = calls("modular.prove")
    for part in ("table", "prove", "param"):
        values[f"modular.{part}.self_s"] = self_s(f"modular.{part}")
    values["cli.main.self_s"] = self_s("cli.main")
    values["trace.overhead_share"] = overhead
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}


def benchmark(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    env = child_env()
    invocations = workloads.build(workload, seed, workdir)
    # the probe and every child inherit this CPU; this process mostly waits in wait4
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    with Pace(workdir) as probe:
        if not trace:
            import_times(env, workdir, probe, 1)
            setup = []

            def one_pass():
                setup.extend(import_times(env, workdir, probe, SETUP_PER_PASS))
                return run_pass(invocations, workdir, env, probe, traced=False)

            passes = repeat(seconds, one_pass)
            metrics = {
                "setup_s": statistics.median(setup),
                "wall_s": median_sum(passes, "walls"),
                "cpu_s": median_sum(passes, "cpus"),
                "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
            }
            metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}
        else:
            pairs = repeat(seconds, lambda: (run_pass(invocations, workdir, env, probe, traced=False),
                                             run_pass(invocations, workdir, env, probe, traced=True)))
            passes = [p for pair in pairs for p in pair]
            plain = median_sum([u for u, _ in pairs], "walls")
            traced = median_sum([t for _, t in pairs], "walls")
            metrics = layer_metrics([t.summary for _, t in pairs], traced / plain - 1.0)
    for p in passes:
        print("pass " + " ".join(f"{w:.3f}" for w in p.walls), file=sys.stderr)
    attempted = sum(len(p.walls) for p in passes)
    failed = sum(p.failed for p in passes)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running child and the probe are killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "piqcheck" / "__init__.py").is_file():
        print(f"error: the program is missing: no {SRC / 'piqcheck'}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(f"attempted = {result['attempted']} failed = {result['failed']} correct = {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
