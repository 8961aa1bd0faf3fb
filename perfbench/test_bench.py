#!/usr/bin/env python3
"""The benchmark's own test: every workload at toy size.

Run from the repository root:

    python3 perfbench/test_bench.py

Checks, for each workload in BENCHMARK.json:
- an untraced run emits exactly the end-to-end metrics, with their units,
  and passes its oracle;
- a traced run emits exactly the per-layer metrics, with their units,
  passes its oracle (which includes traced digest == untraced digest),
  and its self times sum to the traced run phase;
- a deliberately wrong expected digest makes the oracle fail the runs.
It also checks that the benchmark fails, without printing a result, in
a directory holding only BENCHMARK.json and the benchmark's files.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

SPEC = json.load(open("BENCHMARK.json"))
RUN = ["python3", "perfbench/run.py"]
SELF_TIMES = ["trace.sink_s", "auditor.feed_s", "engine.self_s"]


def run(workload, trace, *extra, cwd=None):
    args = RUN + ["--workload", workload, "--seed", "1", "--seconds", "0.5",
                  "--trace", str(trace), "--size", "toy", *extra]
    proc = subprocess.run(args, capture_output=True, text=True, cwd=cwd, timeout=600)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Bench(unittest.TestCase):
    def check_metrics(self, res, declared):
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(
            {name: m["unit"] for name, m in res["metrics"].items()},
            {m["name"]: m["unit"] for m in declared},
        )
        for m in res["metrics"].values():
            self.assertIsInstance(m["value"], (int, float))

    def test_untraced(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                res = result(run(w["name"], 0))
                self.check_metrics(res, SPEC["end_to_end"])
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                for m in res["metrics"].values():
                    self.assertGreater(m["value"], 0)

    def test_traced(self):
        handler_self = [n for n in (m["name"] for m in SPEC["per_layer"])
                        if n.startswith("handler.") and n.endswith(".self_s")]
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                res = result(run(w["name"], 1))
                self.check_metrics(res, SPEC["per_layer"])
                self.assertTrue(res["correct"])
                m = {k: v["value"] for k, v in res["metrics"].items()}
                if w["name"] != "sweep-pool":
                    self.assertGreater(m["engine.executed"], 0)
                    self.assertGreaterEqual(m["engine.self_s"], 0)
                    parts = sum(m[n] for n in handler_self + SELF_TIMES)
                    self.assertAlmostEqual(parts, m["trace.run_s"], delta=1e-9)
                else:
                    self.assertGreater(m["runner.tasks"], 0)

    def test_wrong_digest_fails(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                res = result(run(w["name"], 0, "--digest", "0" * 32))
                self.assertFalse(res["correct"])
                self.assertGreater(res["failed"], 0)
                self.assertLessEqual(res["failed"], res["attempted"])

    def test_fails_without_the_simulator(self):
        bare = os.path.join("perfbench", "out", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy("BENCHMARK.json", bare)
            shutil.copytree("perfbench", os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("out"))
            proc = run(SPEC["workloads"][0]["name"], 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(unittest.main())
