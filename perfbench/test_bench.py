#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/test_bench.py [workload ...]

Run from the repository root. For each workload (all four by default) it
runs the traced pass twice and the untraced pass once on the same seed,
then asserts that
* every run is correct and reports exactly the metrics BENCHMARK.json
  names, with the units it names;
* every count metric repeats exactly across the two traced runs;
* every count the untraced run shares with the traced pass is identical.
It also runs the unit tests of the perfbench package.
"""

import json
import os
import subprocess
import sys
import unittest

SEED = 7
RESULTS = os.path.join(".bench_build", "perfbench")


def run(workload, trace, seconds=2):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
    last = json.loads(out.stdout.strip().splitlines()[-1])
    path = os.path.join(RESULTS, f"result-{workload}-seed{SEED}-trace{trace}.json")
    with open(path) as f:
        record = json.load(f)
    return last, record


class BenchTest(unittest.TestCase):
    workloads = []

    @classmethod
    def setUpClass(cls):
        with open("BENCHMARK.json") as f:
            cls.spec = json.load(f)

    def check_metrics(self, result, table):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in self.spec[table]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)

    def test_counts_repeat_and_match(self):
        names = self.workloads or [w["name"] for w in self.spec["workloads"]]
        for w in names:
            with self.subTest(workload=w):
                first, rec1 = run(w, 1)
                second, rec2 = run(w, 1)
                plain, rec0 = run(w, 0)
                self.check_metrics(first, "per_layer")
                self.check_metrics(second, "per_layer")
                self.check_metrics(plain, "end_to_end")
                self.assertTrue(rec1["counts"])
                self.assertEqual(rec1["counts"], rec2["counts"])
                for name, value in rec0["counts"].items():
                    self.assertEqual(value, rec1["counts"][name], name)
                for rec in (rec0, rec1):
                    for key in ("host_cpus", "seed", "commit", "profile", "trace"):
                        self.assertIn(key, rec)

    def test_unit_tests(self):
        env = dict(os.environ)
        env.setdefault("CARGO_TARGET_DIR", ".bench_build")
        out = subprocess.run(
            ["cargo", "test", "--release", "--offline", "-q",
             "--manifest-path", "perfbench/Cargo.toml"],
            capture_output=True, text=True, env=env,
        )
        self.assertEqual(out.returncode, 0, out.stdout[-3000:] + out.stderr[-3000:])


if __name__ == "__main__":
    BenchTest.workloads = sys.argv[1:]
    unittest.main(argv=sys.argv[:1])
