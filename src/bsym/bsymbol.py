"""Windowed (b-symbol) read vectors, weights, and distances.

Two routes are provided for every metric.  The run-partition formula is
d_b(x, y) = d_H(x, y) + e + L*(b - 1): the gaps are the maximal circular
agreement runs of length >= b - 1, L counts them, and e = n - (sum of the
gap lengths) - d_H counts the agreement positions outside them, inside the
L "active" runs between the gaps, which run_partition derives.  With no gap
the one active run is the whole circle and L = 0 gives d_b = n; with fewer
than b agreements no window agrees, and the formula returns n at once.

The oracle counts the windows that hold a nonzero symbol or a disagreement,
as n less the windows that hold none.  It reads a word as an int with a byte
lane per position (a pair: the XOR of two), so lane v is nonzero where a
position is marked; ((v & 0x7F) + 0x7F) | v sets v's high bit exactly when
v != 0, and no carry leaves the lane, as (v & 0x7F) + 0x7F <= 0xFE, so its
complement keeps the high bit of each unmarked lane.  ANDing those bits with
their shifts leaves one set bit per window with no mark; once the AND is 0 no
such window is left, and all n count.  A symbol outside 0..255 (or not an
int) makes int.from_bytes refuse the word, and a 0/1 mark byte per position
from != (or truth) stands in.  Words are int tuples, or bytes in verify's
seeded words and binary sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from operator import itemgetter, ne, truth

from .errors import InvalidParameterError


@dataclass(frozen=True)
class CircularInterval:
    """Indices start, start+1, ..., start+len-1 reduced mod n."""

    start: int
    length: int
    n: int

    def indices(self):
        return [(self.start + t) % self.n for t in range(self.length)]


@dataclass(frozen=True)
class RunPartition:
    n: int
    b: int
    gaps: tuple    # maximal agreement runs of length >= b-1, disjoint
    runs: tuple    # maximal runs of the remaining (active) positions
    L: int         # the active runs, the paper's L: 1 on the full circle
    agreement_excess: int
    full_circle: bool


_length = itemgetter(1)        # of a (start, length) pair


@lru_cache(maxsize=64)
def _lanes(n: int) -> tuple:
    """(lo, hi): 0x7F and 0x80 in each of n byte lanes."""
    hi = int.from_bytes(b"\x80" * n, "little")
    return hi - (hi >> 7), hi


def _check_width(b: int, n: int, lo: int = 1):
    if not (lo <= b <= n):
        raise InvalidParameterError(f"read width b={b} outside {lo}..{n} for length n={n}")


def _check_pair(x: tuple, y: tuple):
    if len(x) != len(y):
        raise InvalidParameterError(f"lengths {len(x)} != {len(y)}")


def pi_b(x: tuple, b: int):
    """The n overlapping circular windows (x_j, ..., x_{j+b-1})."""
    return list(windows_b(x, b))


def windows_b(x: tuple, b: int):
    """The windows of pi_b(x), built one at a time; the width is checked at
    the call, before the first window."""
    n = len(x)
    _check_width(b, n)
    return (tuple(x[(j + t) % n] for t in range(b)) for j in range(n))


def weight_b_oracle(x: tuple, b: int) -> int:
    """Number of windows of pi_b(x) that are not identically zero."""
    _check_width(b, len(x))
    return _weight_oracle(x, b)


def _weight_oracle(s: tuple, b: int) -> int:
    try:
        d = int.from_bytes(s, "little")
    except (ValueError, TypeError):  # a symbol outside 0..255, or not an int
        d = int.from_bytes(bytes(map(truth, s)), "little")
    return _marked_windows(d, len(s), b)


def dist_b_oracle(x: tuple, y: tuple, b: int) -> int:
    """Hamming distance between the two window sequences pi_b(x), pi_b(y)."""
    _check_pair(x, y)
    _check_width(b, len(x))
    return _dist_oracle(x, y, b)


def _dist_oracle(xs: tuple, ys: tuple, b: int) -> int:
    try:
        d = int.from_bytes(xs, "little") ^ int.from_bytes(ys, "little")
    except (ValueError, TypeError):  # a symbol outside 0..255, or not an int
        d = int.from_bytes(bytes(map(ne, xs, ys)), "little")
    return _marked_windows(d, len(xs), b)


def _marked_windows(d: int, n: int, b: int) -> int:
    """The windows j with a marked position among j, ..., j+b-1 (mod n), for
    an int d whose byte lane j is nonzero where position j is marked.

    They are n less the windows with no mark.  The high bits of the unmarked
    lanes, written twice for the windows that wrap around, are ANDed with
    their shifts by 1, 2, 4, ... lanes while the span is at most b/2, then by
    b - span lanes, so lane j keeps its bit when lanes j, ..., j+b-1 are all
    unmarked.  When the AND of shifts 0 .. 2*span-1 is 0, no 2*span lanes in
    a row are unmarked, so neither are the b >= 2*span lanes of any window,
    and all n windows count.
    """
    lo, hi = _lanes(n)
    a = hi & ~(((d & lo) + lo) | d)   # the high bit of each unmarked lane
    acc = a | a << 8 * n         # twice, for the windows that wrap around
    span = 1                     # acc ANDs shifts 0 .. span-1
    while span <= b // 2:
        acc &= acc >> (8 * span)
        if not acc:
            return n             # no unmarked window is left
        span *= 2
    acc &= acc >> (8 * (b - span))   # b - span < span: now shifts 0 .. b-1
    return n - (acc & hi).bit_count()


def _gaps(xs: tuple, ys: tuple, b: int):
    """(d_h, gaps) of the pair: the Hamming distance and the maximal circular
    agreement runs of length >= b - 1, as (start, length) in start order;
    the gap across n-1 -> 0 comes first, with its start taken below 0.

    Read from the sorted disagreement positions: the agreement run after
    disagreement j has length next_j - j - 1, taken circularly, and it is a
    gap when that is >= b - 1.  Equal words have one gap, the whole circle.
    """
    n = len(xs)
    diff = list(compress(range(n), map(ne, xs, ys)))
    if not diff:
        return 0, [(0, n)]
    gaps = []
    prev = diff[-1] - n          # the last disagreement, one turn back
    for j in diff:
        if j - prev >= b:        # agreements prev+1 .. j-1, at least b - 1
            gaps.append((prev + 1, j - prev - 1))
        prev = j
    return len(diff), gaps


def run_partition(x: tuple, y: tuple, b: int) -> RunPartition:
    """Agreement gaps (length >= b-1) and the active runs between them."""
    _check_pair(x, y)
    n = len(x)
    _check_width(b, n, lo=2)
    d_h, gaps = _gaps(x, y, b)
    full_circle = d_h > 0 and not gaps
    if not d_h:
        runs = []
    elif full_circle:            # the whole circle, from the first disagreement
        runs = [(next(j for j in range(n) if x[j] != y[j]), n)]
    else:
        # each run goes from the disagreement that ends one gap to the one
        # that starts the next gap, the last one to the first gap a turn on;
        # every gap ends at a disagreement in range(n), so the runs come out
        # in start order
        ends = [s + ln for s, ln in gaps]
        nexts = [s for s, _ in gaps[1:]] + [gaps[0][0] + n]
        runs = [(e, s - e) for e, s in zip(ends, nexts)]
        gaps = sorted((s % n, ln) for s, ln in gaps)
    active = sum(ln for _, ln in runs)
    return RunPartition(
        n, b,
        tuple(CircularInterval(s, ln, n) for s, ln in gaps),
        tuple(CircularInterval(s, ln, n) for s, ln in runs),
        len(runs), active - d_h, full_circle,
    )


def dist_b_formula(x: tuple, y: tuple, b: int) -> int:
    """Run-partition route to d_b; must always agree with dist_b_oracle."""
    _check_pair(x, y)
    _check_width(b, len(x))
    return _dist_formula(x, y, b)


def _dist_formula(xs: tuple, ys: tuple, b: int) -> int:
    d_h = sum(map(ne, xs, ys))
    if b == 1 or not d_h:
        return d_h
    n = len(xs)
    if n - d_h < b:
        return n                 # fewer than b agreements: no window agrees
    _, gaps = _gaps(xs, ys, b)
    # L = #gaps: with no gap, excess = n - d_h and the formula gives n
    excess = n - sum(map(_length, gaps)) - d_h
    return d_h + excess + len(gaps) * (b - 1)


def weight_b_formula(x: tuple, b: int) -> int:
    return dist_b_formula(x, (0,) * len(x), b)


def weight_run_partition(x: tuple, b: int) -> RunPartition:
    return run_partition(x, (0,) * len(x), b)


def check_bounds(x: tuple, b: int):
    """Sandwich w_H + b - 1 <= w_b <= b * w_H, valid for 0 < w_H <= n-(b-1)."""
    _check_width(b, len(x))
    return _bounds(x, b, _weight_oracle(x, b))


def _bounds(s: tuple, b: int, w_b: int):
    """The sandwich for the word s, whose b-weight scan w_b the caller made."""
    n = len(s)
    w_h = n - s.count(0)
    if not (0 < w_h <= n - (b - 1)):
        raise InvalidParameterError(
            f"hamming weight {w_h} outside (0, {n - (b - 1)}]"
        )
    lower = w_h + b - 1
    upper = b * w_h
    return lower, upper, lower <= w_b <= upper
