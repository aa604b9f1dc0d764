"""Self-test of the benchmark itself.

    python3 benchmarks/selftest.py

A short smoke run of every workload, untraced and traced, must print every
metric BENCHMARK.json names, with its unit, and no failed check.  Negative
cases feed the checks deliberately wrong results and expect failures.  A
copy of the benchmark without the program beside it must fail.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_program()

import workloads  # noqa: E402
from lcseq import lincomplex  # noqa: E402
from lcseq.cyclicseq import OpMeter  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_SECONDS = "0.5"


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "3",
         "--seconds", SMOKE_SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


class Smoke(unittest.TestCase):
    def test_every_metric_with_its_unit_and_no_failure(self):
        for wl in SPEC["workloads"]:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=wl["name"], trace=trace):
                    proc = bench(ROOT, wl["name"], trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreater(result["attempted"], 0)
                    self.assertEqual(result["failed"], 0)
                    self.assertIn("fail_ratio 0.0", proc.stdout)
                    units = {m["name"]: m["unit"] for m in SPEC[kind]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, units)
                    for name, metric in result["metrics"].items():
                        self.assertTrue(math.isfinite(metric["value"]), name)
                    if trace == 0:
                        for metric in SPEC["end_to_end"]:
                            self.assertGreater(result["metrics"][metric["name"]]["value"], 0)


class WithoutProgram(unittest.TestCase):
    def test_fails_without_printing_a_result(self):
        bare = HERE / "traces" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            (bare / "benchmarks").mkdir(parents=True)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in HERE.glob("*.py"):
                shutil.copy(path, bare / "benchmarks")
            proc = bench(bare, "oracle-mix", 0)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


class WrongResult:
    """A solve result whose complexity is off by one, optionally over budget."""

    def __init__(self, real, extra_ops: int = 0):
        self.algorithm = real.algorithm
        meter = real.meter
        self.meter = OpMeter(meter.xor_ops + extra_ops, meter.cmp_ops, meter.counter_ops)
        self._key = (real.complexity + 1, real.min_poly.bits)

    def key(self):
        return self._key


class Negative(unittest.TestCase):
    def run_with_solve(self, wl, wrong):
        real = lincomplex.solve
        with mock.patch.object(lincomplex, "solve", lambda s, meter=None: wrong(real(s))):
            return workloads.run_loop(wl, 1, 0.01, str(run.SOURCE))

    def test_oracle_mismatch_is_a_failure(self):
        for wl in (workloads.ORACLE_MIX, workloads.FACTOR_ENGINE):
            with self.subTest(workload=wl.name):
                loop = self.run_with_solve(wl, WrongResult)
                self.assertGreater(loop.tally.attempted, 0)
                self.assertEqual(loop.tally.failed, loop.tally.attempted)
                self.assertIn("differs from oracle key", loop.tally.examples[0])

    def test_meter_over_bound_is_a_failure(self):
        loop = self.run_with_solve(workloads.FAST_LARGE, lambda r: WrongResult(r, 1 << 20))
        self.assertEqual(loop.tally.failed, loop.tally.attempted)
        self.assertIn("over", loop.tally.examples[0])

    def test_fast_large_subsample_meets_the_oracle(self):
        loop = self.run_with_solve(workloads.FAST_LARGE, WrongResult)
        subsample = workloads.SUBSAMPLE_PER_LENGTH * len(workloads.FAST_LARGE.lengths)
        self.assertEqual(loop.tally.failed, subsample)

    def test_odd_prime_power_counters_are_bounded(self):
        n = 3**7
        self.assertIsNone(workloads.bound_error("OddPrimePower", n, OpMeter(2 * n, 0, 7)))
        self.assertIsNotNone(workloads.bound_error("OddPrimePower", n, OpMeter(2 * n, 0, 8)))
        self.assertIsNotNone(workloads.bound_error("OddPrimePower", n, OpMeter(2 * n, 1, 0)))

    def test_bad_cli_reports_are_failures(self):
        def proc(code, stdout):
            return subprocess.CompletedProcess([], code, stdout, "")

        key = (3, 0b1011)
        good = json.dumps({"complexity": 3, "min_poly_bits": "1101"})
        wrong = json.dumps({"complexity": 3, "min_poly_bits": "1011"})
        self.assertIsNone(workloads.report_error(proc(0, good), key))
        self.assertIsNotNone(workloads.report_error(proc(1, good), key))
        self.assertIsNotNone(workloads.report_error(proc(0, "Traceback"), key))
        self.assertIsNotNone(workloads.report_error(proc(0, wrong), key))

    def test_a_raising_check_is_a_failure(self):
        tally = workloads.Tally()
        workloads.checked(tally, "input", lambda: 1 // 0)
        self.assertEqual((tally.attempted, tally.failed), (1, 1))
        self.assertIn("ZeroDivisionError", tally.examples[0])

    def test_tally_keeps_the_first_failures(self):
        tally = workloads.Tally()
        for i in range(10):
            tally.record(None if i % 2 else "wrong", f"input {i}")
        self.assertEqual((tally.attempted, tally.failed), (10, 5))
        self.assertEqual(tally.examples[0], "input 0: wrong")
        self.assertEqual(len(tally.examples), workloads.MAX_EXAMPLES)


class Tail(unittest.TestCase):
    def test_slowest_lengths_take_each_length_by_its_median(self):
        samples = [(10, 5), (10, 6), (10, 900), (20, 50), (20, 40), (20, 60), (30, 1), (30, 2)]
        loop = mock.Mock(lengths=[n for n, _ in samples], latencies_ns=[t for _, t in samples])
        self.assertEqual(run.slowest_lengths_ns(loop, 1), 50)
        self.assertEqual(run.slowest_lengths_ns(loop, 2), 28)


if __name__ == "__main__":
    unittest.main()
