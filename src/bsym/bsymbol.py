"""Windowed (b-symbol) read vectors, weights, and distances.

Two routes are provided for every metric: the definitional one, which scans
all n circular windows (the oracle), and the run-partition formula
d_b(x, y) = d_H(x, y) + e + L*(b - 1), where L counts maximal circular runs
of "active" positions after removing every agreement run of length >= b - 1,
and e counts agreement positions trapped inside active runs.

Indexing is uniformly 0-based.  A guard returns n when no agreement run of
length >= b - 1 exists at all: with no such run, every window contains a
disagreement, and the unguarded sum would exceed n.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    HypothesisViolatedError,
    LengthMismatchError,
    WidthOutOfRangeError,
)
from .polyring import Word


@dataclass(frozen=True)
class CircularInterval:
    """Indices start, start+1, ..., start+len-1 reduced mod n."""

    start: int
    length: int
    n: int

    def indices(self):
        return [(self.start + t) % self.n for t in range(self.length)]

    def __contains__(self, j):
        return ((j - self.start) % self.n) < self.length


@dataclass(frozen=True)
class RunPartition:
    n: int
    b: int
    gaps: tuple    # maximal agreement runs of length >= b-1, disjoint
    runs: tuple    # maximal runs of the remaining (active) positions
    L: int
    agreement_excess: int
    full_circle: bool


def _check_width(b: int, n: int, lo: int = 1):
    if not (lo <= b <= n):
        raise WidthOutOfRangeError(b, n)


def _check_pair(x: Word, y: Word):
    if x.n != y.n:
        raise LengthMismatchError(f"lengths {x.n} != {y.n}")


def pi_b(x: Word, b: int):
    """The n overlapping circular windows (x_j, ..., x_{j+b-1})."""
    n = x.n
    _check_width(b, n)
    s = x.symbols
    return [tuple(s[(j + t) % n] for t in range(b)) for j in range(n)]


def weight_b_oracle(x: Word, b: int) -> int:
    """Number of windows of pi_b(x) that are not identically zero."""
    n = x.n
    _check_width(b, n)
    s = x.symbols
    count = 0
    for j in range(n):
        for t in range(b):
            if s[(j + t) % n] != 0:
                count += 1
                break
    return count


def dist_b_oracle(x: Word, y: Word, b: int) -> int:
    """Hamming distance between the two window sequences, by direct scan."""
    _check_pair(x, y)
    n = x.n
    _check_width(b, n)
    xs, ys = x.symbols, y.symbols
    count = 0
    for j in range(n):
        for t in range(b):
            k = (j + t) % n
            if xs[k] != ys[k]:
                count += 1
                break
    return count


def _circular_true_runs(flags):
    """Maximal circular runs of True in a boolean list, as (start, length)."""
    n = len(flags)
    if all(flags):
        return [(0, n)]
    if not any(flags):
        return []
    runs = []
    # anchor at a False position so runs never straddle the scan start
    anchor = flags.index(False)
    j = 0
    while j < n:
        k = (anchor + j) % n
        if flags[k]:
            start = k
            length = 0
            while j < n and flags[(anchor + j) % n]:
                length += 1
                j += 1
            runs.append((start, length))
        else:
            j += 1
    runs.sort()
    return runs


def run_partition(x: Word, y: Word, b: int) -> RunPartition:
    """Agreement gaps (length >= b-1) and the active runs between them."""
    _check_pair(x, y)
    n = x.n
    _check_width(b, n, lo=2)
    agree = [xs == ys for xs, ys in zip(x.symbols, y.symbols)]
    d_h = n - sum(agree)

    if d_h == 0:
        whole = CircularInterval(0, n, n)
        return RunPartition(n, b, (whole,), (), 0, 0, False)

    agree_runs = _circular_true_runs(agree)
    gaps = [CircularInterval(s, ln, n) for s, ln in agree_runs if ln >= b - 1]

    if not gaps:
        start = agree.index(False)
        run = CircularInterval(start, n, n)
        return RunPartition(n, b, (), (run,), 1, n - d_h, True)

    gaps.sort(key=lambda g: g.start)
    runs = []
    for idx, g in enumerate(gaps):
        nxt = gaps[(idx + 1) % len(gaps)]
        start = (g.start + g.length) % n
        length = (nxt.start - start) % n
        if length:
            runs.append(CircularInterval(start, length, n))
    runs.sort(key=lambda r: r.start)
    active = sum(r.length for r in runs)
    return RunPartition(n, b, tuple(gaps), tuple(runs), len(runs), active - d_h, False)


def dist_b_formula(x: Word, y: Word, b: int) -> int:
    """Run-partition route to d_b; must always agree with dist_b_oracle."""
    _check_pair(x, y)
    n = x.n
    _check_width(b, n)
    if b == 1:
        return sum(1 for xs, ys in zip(x.symbols, y.symbols) if xs != ys)
    part = run_partition(x, y, b)
    if not part.runs:
        return 0
    if part.full_circle:
        return n
    d_h = sum(1 for xs, ys in zip(x.symbols, y.symbols) if xs != ys)
    return d_h + part.agreement_excess + part.L * (b - 1)


def weight_b_formula(x: Word, b: int) -> int:
    return dist_b_formula(x, Word((0,) * x.n), b)


def weight_run_partition(x: Word, b: int) -> RunPartition:
    return run_partition(x, Word((0,) * x.n), b)


def check_bounds(x: Word, b: int):
    """Sandwich w_H + b - 1 <= w_b <= b * w_H, valid for 0 < w_H <= n-(b-1)."""
    n = x.n
    _check_width(b, n)
    w_h = x.hamming_weight()
    if not (0 < w_h <= n - (b - 1)):
        raise HypothesisViolatedError(
            f"hamming weight {w_h} outside (0, {n - (b - 1)}]"
        )
    lower = w_h + b - 1
    upper = b * w_h
    w_b = weight_b_oracle(x, b)
    return lower, upper, lower <= w_b <= upper
