"""Tests of speedprobe.py: the scaling arithmetic and the probe's life cycle.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
import unittest
from pathlib import Path

import speedprobe

HERE = Path(__file__).resolve().parent


class ScaleTest(unittest.TestCase):
    def test_unit_us_pools_the_windows(self):
        # 10 units in 2.5 ms, then 30 units in 12.5 ms: 40 units in 15 ms
        windows = [((5, 1e6), (15, 3.5e6)), ((100, 0.0), (130, 12.5e6))]
        self.assertAlmostEqual(speedprobe.unit_us(windows), 375.0)

    def test_unit_us_without_units(self):
        self.assertIsNone(speedprobe.unit_us([]))
        self.assertIsNone(speedprobe.unit_us([((7, 1e6), (7, 1e6))]))

    def test_scale_takes_times_to_the_nominal_speed(self):
        nominal = speedprobe.NOMINAL_UNIT_US
        slow = [((0, 0.0), (100, 2 * nominal * 100 * 1e3))]  # units took twice as long
        self.assertAlmostEqual(speedprobe.speed_scale(slow), 0.5)
        with self.assertRaises(ValueError):
            speedprobe.speed_scale([((3, 0.0), (3, 0.0))])

    def test_unit_is_fixed_work(self):
        self.assertEqual(speedprobe.unit(), speedprobe.unit())


class ProbeTest(unittest.TestCase):
    def test_probe_counts_units_and_is_reaped(self):
        with speedprobe.SpeedProbe() as probe:
            before = probe.reading()
            deadline = time.monotonic() + 10
            while probe.reading()[0] < before[0] + 5 and time.monotonic() < deadline:
                time.sleep(0.05)
            after = probe.reading()
        self.assertGreaterEqual(after[0] - before[0], 5)
        self.assertGreater(after[1], before[1])
        self.assertIsNotNone(probe._proc.exitcode)

    def test_pin_to_one_cpu_is_inherited(self):
        code = ("import os, speedprobe; cpu = speedprobe.pin_to_one_cpu(); "
                "import subprocess, sys; print(cpu, subprocess.check_output("
                "[sys.executable, '-c', 'import os; print(sorted(os.sched_getaffinity(0)))'],"
                " text=True).strip())")
        out = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True,
                             text=True, timeout=60, check=True).stdout.strip().split(maxsplit=1)
        self.assertEqual(out[1], f"[{out[0]}]")
        self.assertIn(int(out[0]), os.sched_getaffinity(0))


if __name__ == "__main__":
    unittest.main()
