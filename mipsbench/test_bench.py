"""Self-checks of the MIPS serving benchmark.

    python3 mipsbench/test_bench.py Smoke   # every workload shrunk tenfold, ~3 minutes
    python3 mipsbench/test_bench.py Seed    # every workload at full size on seed 11, ~3 minutes

The smoke runs shrink every model tenfold and check the result line: metric
names and units as BENCHMARK.json declares them, and the correctness gate.
The second-seed test runs each workload at full size on a seed the
benchmark was not tuned on and checks that RECOPT still makes the choice
the workload exists to exercise.
"""

import json
import pathlib
import subprocess
import sys
import unittest

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# recopt.chosen indexes MM, LEMP, RECDEX
EXPECTED_CHOICE = {"concentrated-k10": 2, "wide-catalog-k50": 0}


def run(workload, seed, trace, shrink=1, seconds=1):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--shrink", str(shrink)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=300)
    assert proc.returncode == 0, f"{cmd} exited with {proc.returncode}"
    return json.loads(proc.stdout.splitlines()[-1])


class Smoke(unittest.TestCase):

    def check(self, result, declared):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, {m["name"]: m["unit"] for m in declared})
        return {name: m["value"] for name, m in result["metrics"].items()}

    def test_end_to_end_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                values = self.check(run(w, seed=3, trace=0, shrink=10), SPEC["end_to_end"])
                self.assertEqual(values["match_frac"], 1)
                self.assertTrue(all(v > 0 for v in values.values()))

    def test_per_layer_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                values = self.check(run(w, seed=3, trace=1, shrink=10), SPEC["per_layer"])
                self.assertIn(values["recopt.chosen"], (0, 1, 2))
                self.assertTrue((ROOT / ".bench_out" / f"trace-{w}-seed3.json").exists())


class Seed(unittest.TestCase):

    def test_recopt_choice_holds_on_a_second_seed(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                values = {n: m["value"] for n, m in run(w, seed=11, trace=1)["metrics"].items()}
                self.assertEqual(values["recopt.chosen"], EXPECTED_CHOICE[w])


if __name__ == "__main__":
    unittest.main()
