"""Verification harness: formula-vs-oracle suites over fixed grids.

Every suite is a deterministic function of (seed, trials, cap): reruns with
the same config produce identical reports, byte for byte.  Failures carry full
inputs so each one can be replayed as a standalone regression test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from itertools import islice
from typing import ClassVar

from . import codes, engine
from .bsymbol import (
    _bounds,
    _dist_formula,
    _dist_oracle,
    _weight_oracle,
    check_bounds,
    weight_b_oracle,
)
from .codes import CyclicCodeSpec
from .errors import EnumerationTooLargeError, InvalidParameterError
from .gf import make_field
from .polyring import poly

DEFAULT_GRID = (
    (2, 2, 1),
    (2, 3, 1),
    (3, 1, 1),
    (3, 2, 1),
    (5, 1, 1),
    (2, 2, 2),
)

LEMMA_GRID = ((2, 2), (2, 3), (3, 2))

MAX_TRIALS = 10 ** 7       # about 3-4 minutes of the formula suite


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = 42
    trials: int = 100_000
    cap: int = engine.DEFAULT_CAP

    # the fixed shape of the suites
    grid: ClassVar[tuple] = DEFAULT_GRID
    b_max: ClassVar[int] = 6
    exhaustive_n_max: ClassVar[int] = 10
    random_qs: ClassVar[tuple] = (3, 4)
    random_n_max: ClassVar[int] = 30
    lemma_trials: ClassVar[int] = 1000

    def __post_init__(self):
        if not 1 <= self.trials <= MAX_TRIALS:
            raise InvalidParameterError(f"trials={self.trials} outside 1..{MAX_TRIALS}")


@dataclass
class SuiteReport:
    suite: str
    cases: int = 0
    coverage: dict = dc_field(default_factory=dict)
    failures: list = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def count(self, key: str, cases: int = 1):
        """Tally `cases` cases under `key`; a key with none stays out."""
        if cases:
            self.cases += cases
            self.coverage[key] = self.coverage.get(key, 0) + cases

    def skip(self, key: str):
        """Tally a case that was not run: in coverage, not in `cases`."""
        self.coverage[key] = self.coverage.get(key, 0) + 1

    def fail(self, inputs, expected, actual):
        self.failures.append(
            {"inputs": inputs, "expected": expected, "actual": actual}
        )

    def to_dict(self) -> dict:
        failures = sorted(self.failures, key=lambda f: json.dumps(f, sort_keys=True))
        return {
            "suite": self.suite,
            "cases": self.cases,
            "coverage": dict(sorted(self.coverage.items())),
            "failures": failures,
            "passed": self.passed,
        }


_DIGIT_VALUES = bytes.maketrans(b"01", b"\0\1")    # a 256-entry byte table


def _bits(mask: int, n: int) -> bytes:
    """Bit j of mask as byte j, for a mask below 2^n."""
    return format(mask, f"0{n}b")[::-1].encode().translate(_DIGIT_VALUES)


@lru_cache(maxsize=None)
def _top_byte_table(q: int) -> bytes:
    """byte -> its top q.bit_length() bits if they are below q, else 0xFF."""
    if not 2 <= q <= 255:
        raise InvalidParameterError(f"random words need 2 <= q <= 255, not q={q}")
    shift = 8 - q.bit_length()
    return bytes(v >> shift if v >> shift < q else 0xFF for v in range(256))


_BLOCK = 4096   # Mersenne Twister outputs drawn per refill


class _Stream:
    """The values rng.randrange would give, read from the generator in blocks.

    For 1 <= k <= 255, randrange(k) takes the top k.bit_length() bits of one
    32-bit Mersenne Twister output and draws again while they are >= k.
    getrandbits(32 * _BLOCK) returns _BLOCK consecutive outputs, the first in
    the lowest 32 bits, so the top byte of each is every fourth byte of its
    little-endian form.  The stream keeps those top bytes and reads them in
    order, so every value is the one randrange would return.  It draws ahead
    of what it hands out; `consumed` counts the outputs randrange would have
    drawn, and nothing else may read the generator.
    """

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._tops = b""
        self._pos = 0
        self._drawn = 0
        self._mapped = {}        # q -> self._tops translated by _top_byte_table(q)

    @property
    def consumed(self) -> int:
        return self._drawn - len(self._tops) + self._pos

    def _refill(self):
        new = self._rng.getrandbits(32 * _BLOCK).to_bytes(4 * _BLOCK, "little")[3::4]
        self._tops = self._tops[self._pos:] + new
        self._pos = 0
        self._drawn += _BLOCK
        self._mapped.clear()

    def below(self, k: int) -> int:
        """The value randrange(k) would give."""
        if not 1 <= k <= 255:
            raise InvalidParameterError(f"random draws need 1 <= k <= 255, not k={k}")
        shift = 8 - k.bit_length()
        while True:
            if self._pos == len(self._tops):
                self._refill()
            r = self._tops[self._pos] >> shift
            self._pos += 1
            if r < k:
                return r

    def trials(self, qs, n_lo: int, n_span: int, count: int):
        """Yield (q, n, b, symbols), one trial's values of
            q = qs[randrange(len(qs))]   (an int qs is q itself, with no draw)
            n = n_lo + randrange(n_span)
            b = 2 + randrange(n - 1)
        then `count` words of n values of randrange(q), as one bytes string.

        The shape is checked and its shifts worked out once, before the first
        trial.  The header is read off the top bytes and the words off the
        block translated by _top_byte_table(q).  A trial that runs past the
        block is read again from its start after a refill.  The read position
        is stored before each yield, so `below` may be called between trials.
        """
        pick = not isinstance(qs, int)
        k = len(qs) if pick else 1
        if not (0 < k < 256 and 0 < n_span < 256 and 2 <= n_lo <= 257 - n_span):
            raise InvalidParameterError(
                f"random trials need 1..255 values of q and of n, and n <= 256, "
                f"not {k} and {n_lo}..{n_lo + n_span - 1}")
        tables = {q: _top_byte_table(q) for q in (qs if pick else (qs,))}
        q_shift = 8 - k.bit_length()
        n_shift = 8 - n_span.bit_length()
        b_shifts = [8 - (n - 1).bit_length() for n in range(n_lo + n_span)]
        while True:
            tops, pos = self._tops, self._pos
            try:
                q = qs
                if pick:
                    while (r := tops[pos] >> q_shift) >= k:
                        pos += 1
                    pos, q = pos + 1, qs[r]
                while (r := tops[pos] >> n_shift) >= n_span:
                    pos += 1
                pos, n = pos + 1, n_lo + r
                shift = b_shifts[n]
                while (r := tops[pos] >> shift) >= n - 1:
                    pos += 1
                pos, b = pos + 1, 2 + r
            except IndexError:          # the header ran past the block
                self._refill()
                continue
            mapped = self._mapped.get(q)
            if mapped is None:
                mapped = self._mapped[q] = tops.translate(tables[q])
            # [pos, end) holds n * count accepted bytes less `short`; extend
            # it by `short` until the last extension holds no rejected byte
            end = pos + n * count
            short = mapped.count(255, pos, end)
            while short:
                end, short = end + short, mapped.count(255, end, end + short)
            if end <= len(mapped):
                self._pos = end
                yield q, n, b, mapped[pos:end].replace(b"\xff", b"")
            else:
                self._refill()


def run_formula_suite(cfg: SuiteConfig) -> SuiteReport:
    """dist_b_formula == dist_b_oracle, exhaustively and at random.

    Both routes read a pair only through the positionwise agreement pattern,
    so the exhaustive binary sweep enumerates every XOR pattern: this covers
    all binary pairs exactly.  A seeded sample of explicit pairs double-checks
    the pattern reduction itself: both routes on the pair must give the
    sweep's oracle value for its pattern.
    """
    rep = SuiteReport("formula")
    stream = _Stream(random.Random(cfg.seed))

    oracle = {}          # (n, b) -> the oracle's d_b of each pattern, by mask
    for n in range(2, cfg.exhaustive_n_max + 1):
        zero = bytes(n)
        for b in range(2, n + 1):
            oracle[n, b] = []
        for mask in range(2 ** n):
            y = _bits(mask, n)
            for b in range(2, n + 1):
                f = _dist_formula(zero, y, b)
                o = _dist_oracle(zero, y, b)
                oracle[n, b].append(o)
                if f != o:
                    rep.fail({"n": n, "b": b, "pattern": mask}, o, f)
                if mask == 0 and f != 0:
                    rep.fail({"n": n, "b": b, "pattern": 0, "check": "x=y"}, 0, f)
        rep.count("exhaustive_binary", 2 ** n * (n - 1))

    # explicit binary pairs sampled at random, validating the pattern reduction
    samples = min(cfg.trials // 10, 10_000)
    pairs = stream.trials(2, 2, cfg.exhaustive_n_max - 1, 2)
    for _, n, b, xy in islice(pairs, samples):
        x, y = xy[:n], xy[n:]
        pattern = sum(1 << j for j in range(n) if x[j] != y[j])
        expected = oracle[n, b][pattern]
        f = _dist_formula(x, y, b)
        if f != expected or _dist_oracle(x, y, b) != expected:
            rep.fail({"n": n, "b": b, "x": list(x), "y": list(y)}, expected, f)
    rep.count("binary_pair_sample", samples)

    cases = dict.fromkeys(cfg.random_qs, 0)
    pairs = stream.trials(cfg.random_qs, 2, cfg.random_n_max - 1, 2)
    for q, n, b, xy in islice(pairs, cfg.trials):
        x, y = xy[:n], xy[n:]
        f = _dist_formula(x, y, b)
        o = _dist_oracle(x, y, b)
        cases[q] += 1
        if f != o:
            rep.fail({"n": n, "b": b, "q": q, "x": list(x), "y": list(y)}, o, f)
    for q, count in cases.items():
        rep.count(f"random_q{q}", count)

    return rep


def _grid_records(cfg: SuiteConfig, rep: SuiteReport):
    """Yield (spec, rows for b = 2..b_max) for each code of the grid; the
    codes the engine refuses are tallied in `rep` as `skipped_cap` instead."""
    for p, e, m in cfg.grid:
        f = make_field(p, m)
        for i in range(p ** e + 1):
            spec = CyclicCodeSpec(f, e, i)
            try:
                records = [codes.build_record(spec, b, cfg.cap)
                           for b in range(2, min(cfg.b_max, spec.n) + 1)]
            except EnumerationTooLargeError:
                rep.skip("skipped_cap")
                continue
            yield spec, records


def _inputs(spec: CyclicCodeSpec, **extra) -> dict:
    return {"p": spec.p, "e": spec.e, "m": spec.m, "i": spec.i, **extra}


def run_code_suite(cfg: SuiteConfig) -> SuiteReport:
    """Closed-form Hamming and b-symbol distances vs brute-force minima."""
    rep = SuiteReport("code")
    brutes = {}          # (field, e, i, b) -> brute-force d_b, for nesting
    for spec, records in _grid_records(cfg, rep):
        dh_formula = records[0].dH_formula       # n >= 2, so every spec has rows
        dh_brute = codes.min_b_weight_bruteforce(spec, 1, cfg.cap)
        rep.count("hamming")
        if dh_formula != dh_brute:
            rep.fail(_inputs(spec, kind="hamming"), dh_brute, dh_formula)
        for rec in records:
            closed, brute, b = rec.db_closed, rec.db_brute, rec.b
            if closed.value is not None:
                rep.count(f"rule_{closed.rule}")
            elif closed.interval is not None:
                rep.count(f"interval_{closed.intervals[0][0]}")
            else:
                rep.count("rule_none")
            for kind, expected, actual, holds in rec.checks:   # see codes.check_row
                if kind in ("overlap", "rule", "interval", "singleton") and not holds:
                    rep.fail(_inputs(spec, b=b, kind=kind), expected, actual)
            # nesting: C_{i} contains C_{i+1}, so d_b may only grow with i
            # (the zero code C_{p^e} is 0 by convention and is excluded)
            below = brutes.get((spec.field, spec.e, spec.i - 1, b), brute)
            if 0 < spec.i < spec.n and brute < below:
                rep.fail(_inputs(spec, b=b, kind="nesting"), below, brute)
            brutes[spec.field, spec.e, spec.i, b] = brute
    return rep


def _random_lemma_instance(stream: _Stream, f, e: int):
    k = 1 + stream.below(e - 1) if e > 2 else 1
    period = f.p ** (e - k)
    d = stream.below(period)
    b = 2 + stream.below(period - 1)
    low = [stream.below(f.q) for _ in range(d)]
    lead = 1 + stream.below(f.q - 1)     # leading coefficient nonzero
    return k, b, poly(f, low + [lead])


def run_lemma_suite(cfg: SuiteConfig) -> SuiteReport:
    """Periodic weight decomposition vs the window-scan oracle on c(x)."""
    rep = SuiteReport("lemma")
    stream = _Stream(random.Random(cfg.seed))
    for p, e in LEMMA_GRID:
        f = make_field(p, 1)
        for _ in range(cfg.lemma_trials):
            k, b, g = _random_lemma_instance(stream, f, e)
            predicted = codes.lemma10_weight(f, e, k, g, b)
            actual = weight_b_oracle(codes.lemma10_codeword(f, e, k, g), b)
            case = "case2" if len(g) - 1 > p ** (e - k) - b else "case1"
            rep.count(f"p{p}e{e}_{case}")
            if predicted != actual:
                rep.fail({"p": p, "e": e, "k": k, "b": b,
                          "g": list(g)},
                         actual, predicted)
    return rep


def run_bounds_suite(cfg: SuiteConfig) -> SuiteReport:
    """Weight/distance sandwiches and monotonicity/invariance properties."""
    rep = SuiteReport("bounds")
    stream = _Stream(random.Random(cfg.seed))

    # the worked example from the golden word
    golden = (0, 0, 1, 3, 0, 5, 0, 0, 0, 2, 0, 7, 0, 0, 0)
    lo, hi, holds = check_bounds(golden, 4)
    rep.count("golden_bounds")
    if (lo, hi, holds) != (8, 20, True):
        rep.fail({"word": "golden", "b": 4}, [8, 20, True], [lo, hi, holds])

    # single nonzero symbol: both bounds tight at b
    for n in (4, 7, 9):
        for b in range(2, n + 1):
            w = tuple(1 if j == 2 else 0 for j in range(n))
            lo, hi, holds = check_bounds(w, b)
            wb = weight_b_oracle(w, b)
            rep.count("single_symbol")
            if not holds or wb != b or lo != b:
                rep.fail({"n": n, "b": b, "kind": "single_symbol"}, b, wb)

    # randomized sandwich + monotonicity in b + shift invariance
    trials, sandwiched = min(cfg.trials, 20_000), 0
    words = stream.trials(cfg.random_qs, 3, cfg.random_n_max - 2, 1)
    for _, n, b, x in islice(words, trials):
        wb = _weight_oracle(x, b)
        if 0 < n - x.count(0) <= n - (b - 1):
            lo, hi, holds = _bounds(x, b, wb)
            sandwiched += 1
            if not holds:
                rep.fail({"n": n, "b": b, "x": list(x)}, [lo, hi], wb)
        wprev = _weight_oracle(x, b - 1)
        if wb < wprev:
            rep.fail({"n": n, "b": b, "x": list(x), "kind": "monotone"},
                     f">={wprev}", wb)
        s = stream.below(n)
        shifted = _weight_oracle(x[n - s:] + x[:n - s], b)    # cyclic shift by s
        if shifted != wb:
            rep.fail({"n": n, "b": b, "s": s, "x": list(x), "kind": "shift"},
                     wb, shifted)
    rep.count("prop1_random", sandwiched)
    rep.count("monotone_b", trials)
    rep.count("shift_invariance", trials)

    # Cor2 sandwiches and Prop7 intervals against brute force on the code grid
    for spec, records in _grid_records(cfg, rep):
        for rec in records:
            for kind, expected, actual, holds in rec.checks:
                if kind in ("prop7", "cor2"):
                    rep.count(kind)
                    if not holds:
                        rep.fail(_inputs(spec, b=rec.b, kind=kind), expected, actual)
    return rep


SUITES = {
    "formula": run_formula_suite,
    "code": run_code_suite,
    "lemma": run_lemma_suite,
    "bounds": run_bounds_suite,
}


def run_suites(cfg: SuiteConfig, which: str = "all"):
    names = list(SUITES) if which == "all" else [which]
    return {name: SUITES[name](cfg) for name in names}


def report_json(reports: dict) -> str:
    payload = {name: rep.to_dict() for name, rep in sorted(reports.items())}
    return json.dumps(payload, sort_keys=True, indent=2)
