"""Tests of run.py: output checks and per-child accounting.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent


def _verify_report(passed=True):
    return json.dumps({
        name: {"suite": name, "cases": 10, "coverage": {}, "failures": [], "passed": passed}
        for name in ("bounds", "code", "formula", "lemma")
    })


class CheckOutputTest(unittest.TestCase):
    def test_recorded_digest_must_match(self):
        self.assertIn("sha256", run.check_output("table", 7, "p,e\n"))
        self.assertIn("sha256", run.check_output("verify", 42, _verify_report()))

    def test_verify_seed_without_digest_needs_every_suite_passed(self):
        self.assertIsNone(run.recorded_digest("verify", 7))
        self.assertIsNone(run.check_output("verify", 7, _verify_report()))
        self.assertIn("not all passed", run.check_output("verify", 7, _verify_report(False)))
        self.assertIn("not JSON", run.check_output("verify", 7, "oops"))

    def test_repeatability(self):
        self.assertIsNone(run.check_repeatable("a", "a"))
        self.assertIsNotNone(run.check_repeatable("a", "b"))

    def test_checkout_error(self):
        self.assertIsNone(run.checkout_error(str(run.SRC / "bsym" / "__init__.py")))
        self.assertIn("not from", run.checkout_error("/usr/lib/bsym/__init__.py"))

    def test_cases(self):
        self.assertEqual(run.cases_in("verify", _verify_report()), 40)
        self.assertEqual(run.cases_in("table", "h\n1\n2\n"), 2)
        self.assertEqual(run.cases_in("brute", "p=3 ..."), 1)


class ChildTest(unittest.TestCase):
    def test_rusage_is_per_child(self):
        big = run.Child([sys.executable, "-c", "x = bytearray(64 << 20); x[::4096] = b'1' * len(x[::4096])"], 60)
        small = run.Child([sys.executable, "-c", "pass"], 60)
        self.assertEqual((big.failure(), small.failure()), (None, None))
        self.assertGreater(big.peak_rss_mb, 64)
        self.assertLess(small.peak_rss_mb, big.peak_rss_mb - 40)

    def test_timeout_kills_and_fails(self):
        child = run.Child([sys.executable, "-c", "import time; time.sleep(30)"], 0.5)
        self.assertTrue(child.timed_out)
        self.assertLess(child.wall_s, 10)
        self.assertEqual(child.failure(), "timed out")

    def test_nonzero_exit_fails(self):
        child = run.Child([sys.executable, "-c", "import sys; sys.exit('bad input')"], 60)
        self.assertEqual(child.failure(), "exit code 1: bad input")


class NoCheckoutTest(unittest.TestCase):
    def test_exits_nonzero_without_result_when_sources_are_missing(self):
        with tempfile.TemporaryDirectory(dir=HERE) as tmp:
            root = Path(tmp)
            shutil.copy(HERE.parent / "BENCHMARK.json", root)
            shutil.copytree(HERE, root / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__", Path(tmp).name))
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "brute", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=root, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
