#!/usr/bin/env python3
"""Self-test of the benchmark: ``python3 perfbench/selftest.py`` from the
repository root.

Runs every workload at tiny size (``--quick``) in its own process and
checks that it passes, that a deliberately corrupted known answer is
counted as a failure, that two traced runs on one seed give identical
counts, that the per-pass variants keep every known answer while changing
every input, and that the benchmark refuses to run without the library
source.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: str = ROOT) -> tuple[int, dict | None, str]:
    proc = subprocess.run(
        [sys.executable, RUN if cwd == ROOT else "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, result, proc.stderr


def quick(workload: str, *extra: str) -> dict:
    code, result, stderr = bench("--workload", workload, "--seed", "3", "--seconds", "0.3", "--quick", *extra)
    if code != 0 or result is None:
        raise AssertionError(f"{workload} {extra}: exit {code}\n{stderr}")
    return result


class SelfTest(unittest.TestCase):
    def test_quick_runs_pass_and_report_every_end_to_end_metric(self):
        names = {m["name"] for m in SPEC["end_to_end"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = quick(workload)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(set(result["metrics"]), names)
                for value in result["metrics"].values():
                    self.assertGreater(value["value"], 0)

    def test_corrupted_answer_counts_as_failure(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                for trace in ("0", "1"):
                    result = quick(workload, "--corrupt", "--trace", trace)
                    self.assertFalse(result["correct"])
                    self.assertGreaterEqual(result["failed"], 1)
                    self.assertLess(result["failed"], result["attempted"])

    def test_traced_counts_repeat_exactly(self):
        names = {m["name"] for m in SPEC["per_layer"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = quick(workload, "--trace", "1")
                second = quick(workload, "--trace", "1")
                self.assertTrue(first["correct"])
                self.assertEqual(set(first["metrics"]), names)
                for name, value in first["metrics"].items():
                    if value["unit"] in ("count", "ratio"):
                        self.assertEqual(value, second["metrics"][name], name)

    def test_refuses_to_run_without_the_library_source(self):
        bare = os.path.join(HERE, "out", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            code, result, _ = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                                    "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)

    def test_variants_keep_the_answers_and_change_every_input(self):
        sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
        try:
            import generators
            import run
            import workloads

            lib = run.load_library()
            plans = {
                name: [workloads.WORKLOADS[name].plan(lib, 3, True, v) for v in (0, 2)]
                for name in ("simulate", "behaviour", "abstraction")
            }
        finally:
            del sys.path[:2]
        base = generators.MPA_SYMBOLS + generators.LINE_SYMBOLS
        renamed = dict(zip(base, generators.variant_symbols(base, 2)))

        def rename(word):
            return None if word is None else tuple(renamed.get(symbol, symbol) for symbol in word)

        first, second = plans["simulate"]
        for run0, run2 in zip(first["runs"], second["runs"]):
            self.assertEqual(rename(run0[1]) if run0[0] < len(first["models"]) - 1 else run0[1], run2[1])
            self.assertNotEqual(run0[3], run2[3])  # another start state
        first, second = plans["behaviour"]
        for case0, case2 in zip(first["cases"], second["cases"]):
            for (s1, s2, f0, (ok0, cex0)), (t1, t2, f2, (ok2, cex2)) in zip(case0["pairs"], case2["pairs"]):
                self.assertEqual((s1, s2, ok0, rename(cex0)), (t1, t2, ok2, cex2))
                if f0 is not None:
                    self.assertEqual((renamed[f0[0]], *f0[1:3]), f2[:3])
        first, second = plans["abstraction"]
        for entry0, entry2 in zip(first["cases"], second["cases"]):
            self.assertEqual(entry0["case"], entry2["case"])
            self.assertEqual(entry0["fault"][0], entry2["fault"][0])
            self.assertEqual(rename(entry0["witness"]), entry2["witness"])
            self.assertEqual(entry0["mutant_first"], entry2["mutant_first"])

    def test_times_scale_with_the_probed_host_speed(self):
        sys.path.insert(0, HERE)
        try:
            import pace
        finally:
            del sys.path[0]
        self.assertAlmostEqual(pace.scale(0.01, pace.REF_S, pace.REF_S), 0.01)
        self.assertAlmostEqual(pace.scale(0.02, 1.5 * pace.REF_S, 2.5 * pace.REF_S), 0.01)
        self.assertGreater(pace.probe(), 0.0)

    def test_three_station_line_is_the_bundled_production_line(self):
        sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
        try:
            import generators
            import run

            lib = run.load_library()
            line = generators.line_smpl(lib, (1.0, 2.0, 3.0))
            fixture = lib.fixtures.production_line_smpl()
        finally:
            del sys.path[:2]
        for mode in (1, 2):
            self.assertEqual(line.modes[mode].form, fixture.modes[mode].form)


if __name__ == "__main__":
    unittest.main()
