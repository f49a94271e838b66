#!/usr/bin/env python3
"""Self-test of the campaign benchmark.

    python3 perfbench/test_run.py

Runs the tiny-scale smoke mode (all three workloads, both trace modes, every
output check, plus the byte comparison against psched_campaign), and checks
that the benchmark refuses to run without the program's sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


class CampaignBenchmarkTest(unittest.TestCase):
    def test_smoke_passes_every_check_on_a_held_out_seed(self):
        done = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "run.py"), "--smoke",
                               "--seed", "7"], cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        self.assertEqual(done.returncode, 0, done.stdout[-3000:] + done.stderr[-3000:])
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        self.assertNotIn("check  FAIL", done.stdout)
        for workload in ("fig14_paper", "policy_fst", "deep_queue"):
            self.assertIn(f"{workload}: cells.csv byte-identical to psched_campaign's", done.stdout)
            self.assertIn(f"workload {workload}: seed 7", done.stdout)

    def test_fails_without_program_sources(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                                   "policy_fst", "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=bare, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
