"""Host-speed probe for the end-to-end runs.

The benchmark runs on a few vCPUs of a shared host, whose speed drifts by tens
of per cent as neighbours load it: a fixed piece of Python code takes more CPU
time when the host is busy, not only more wall time.  The probe measures that
drift while a sample runs, on the sample's own CPU:

- the runner pins itself to one CPU (pin_to_one_cpu) before it starts the
  probe, so the probe and every child share that CPU;
- the probe is a forked process at nice 19 that runs a fixed unit of
  pure-Python work over and over and adds up the units done and their CPU
  time in shared memory.  At nice 19 it gets about 1.5% of the CPU while a
  child runs, in short slices spread over the child's whole run;
- the runner reads the counters before and after each child.  The mean CPU
  time of a unit over that window says how slow the CPU was during the
  child's run, and NOMINAL_UNIT_US / that mean scales the child's times to a
  fixed machine speed.

The unit uses nothing from bsym, so a change to bsym moves the samples and not
the probe.
"""

from __future__ import annotations

import multiprocessing
import os
import time

UNIT_DEPTH = 4            # one unit walks 3**4 leaves of a recursive generator
NOMINAL_UNIT_US = 250.0   # a unit's CPU time on an unloaded 2-vCPU KVM guest


def pin_to_one_cpu() -> int:
    """Run this process, and every process it starts from now on, on one CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _leaves(depth: int, acc: int):
    if depth == 0:
        yield acc
        return
    for c in range(3):
        yield from _leaves(depth - 1, (acc * 3 + c) % 1000003)


def unit() -> int:
    """A fixed piece of the kinds of work bsym does: recursive generators,
    small tuples, int mul/mod and dict updates."""
    counts = {}
    total = 0
    for leaf in _leaves(UNIT_DEPTH, 1):
        t = tuple((leaf >> k) & 7 for k in range(0, 12, 3))
        key = (t[0] * t[1] + t[2]) % 251
        counts[key] = counts.get(key, 0) + 1
        total += sum(t) + len(counts)
    return total


def _loop(counts) -> None:
    os.nice(19)
    while True:
        c0 = time.thread_time_ns()
        unit()
        counts[1] += time.thread_time_ns() - c0
        counts[0] += 1


class SpeedProbe:
    """The probe process; use it as a context manager so it is always reaped."""

    def __init__(self):
        # fork, not spawn: the probe needs no imports, and the runner has
        # started no threads yet when it makes the probe
        ctx = multiprocessing.get_context("fork")
        self._counts = ctx.RawArray("d", 2)  # units done, their CPU time in ns
        self._proc = ctx.Process(target=_loop, args=(self._counts,), daemon=True)
        self._proc.start()

    def reading(self) -> tuple[float, float]:
        return self._counts[0], self._counts[1]

    def close(self) -> None:
        self._proc.kill()
        self._proc.join()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def unit_us(windows) -> float | None:
    """Mean CPU microseconds per unit over (before, after) reading pairs, or
    None if no unit ran in them."""
    units = sum(after[0] - before[0] for before, after in windows)
    ns = sum(after[1] - before[1] for before, after in windows)
    return ns / units / 1e3 if units > 0 else None


def speed_scale(windows) -> float:
    """The factor that takes a time measured over `windows` to the nominal
    machine speed."""
    us = unit_us(windows)
    if us is None:
        raise ValueError("the speed probe ran no unit in the measured windows")
    return NOMINAL_UNIT_US / us
