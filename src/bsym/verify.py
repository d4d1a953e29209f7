"""Verification harness: formula-vs-oracle suites over configurable grids.

Every suite is a deterministic function of (seed, grid): reruns with the same
config produce identical reports.  Failures carry full inputs so each one can
be replayed as a standalone regression test.  Elapsed time is tracked on the
report object but excluded from the canonical JSON so reports compare
byte-identical across runs.
"""

from __future__ import annotations

import json
import random
import re
import time
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

from . import codes
from .bsymbol import (
    check_bounds,
    dist_b_formula,
    dist_b_oracle,
    weight_b_oracle,
)
from .codes import CyclicCodeSpec, hamming_distance_formula
from .errors import InvalidParameterError
from .gf import make_field
from .polyring import Word, cyclic_shift, poly

DEFAULT_GRID = (
    (2, 2, 1),
    (2, 3, 1),
    (3, 1, 1),
    (3, 2, 1),
    (5, 1, 1),
    (2, 2, 2),
)

LEMMA_GRID = ((2, 2), (2, 3), (3, 2))


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = 42
    trials: int = 100_000
    grid: tuple = DEFAULT_GRID
    b_max: int = 6
    exhaustive_n_max: int = 10
    random_qs: tuple = (3, 4)
    random_n_max: int = 30
    lemma_trials: int = 1000
    cap: int = codes.DEFAULT_CAP

    def __post_init__(self):
        if self.trials < 1:
            raise InvalidParameterError(f"trials={self.trials} must be >= 1")
        # every seeded draw goes through _Stream, which reads one byte per value
        if not (1 <= len(self.random_qs) <= 255
                and all(2 <= q <= 255 for q in self.random_qs)):
            raise InvalidParameterError(
                f"random_qs={self.random_qs} must be 1..255 values in 2..255")
        if self.random_n_max > 255:
            raise InvalidParameterError(
                f"random_n_max={self.random_n_max} must be <= 255")


@dataclass
class SuiteReport:
    suite: str
    cases: int = 0
    coverage: dict = dc_field(default_factory=dict)
    failures: list = dc_field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def count(self, key: str):
        self.cases += 1
        self.coverage[key] = self.coverage.get(key, 0) + 1

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


def _binary_word_from_mask(mask: int, n: int) -> Word:
    return Word(tuple((mask >> j) & 1 for j in range(n)))


@lru_cache(maxsize=None)
def _top_byte_table(q: int) -> bytes:
    """byte -> its top q.bit_length() bits if they are below q, else 0xFF."""
    shift = 8 - q.bit_length()
    return bytes(v >> shift if v >> shift < q else 0xFF for v in range(256))


_BLOCK = 4096   # Mersenne Twister outputs drawn per refill


@lru_cache(maxsize=None)
def _accepting(count: int) -> re.Pattern:
    """Matches the shortest run of mapped bytes holding `count` accepted ones."""
    return re.compile(rb"(?:\xff*[^\xff]){%d}" % count)


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

    def words(self, n: int, q: int, count: int) -> list:
        """`count` words of n symbols each: the next n * count values that
        randrange(q) would give, in order, cut in one regex match."""
        if not 2 <= q <= 255:
            raise InvalidParameterError(f"random words need 2 <= q <= 255, not q={q}")
        pattern = _accepting(n * count)
        while True:
            mapped = self._mapped.get(q)
            if mapped is None:
                mapped = self._mapped[q] = self._tops.translate(_top_byte_table(q))
            m = pattern.match(mapped, self._pos)
            if m:
                break
            self._refill()
        self._pos = m.end()
        symbols = tuple(m.group().replace(b"\xff", b""))
        return [Word(symbols[j * n:(j + 1) * n]) for j in range(count)]


def run_formula_suite(cfg: SuiteConfig) -> SuiteReport:
    """dist_b_formula == dist_b_oracle, exhaustively and at random.

    Both routes read a pair only through the positionwise agreement pattern,
    so the exhaustive binary sweep enumerates every XOR pattern: this covers
    all binary pairs exactly.  A seeded sample of explicit pairs double-checks
    the pattern reduction itself.
    """
    rep = SuiteReport("formula")
    t0 = time.perf_counter()
    stream = _Stream(random.Random(cfg.seed))

    for n in range(2, cfg.exhaustive_n_max + 1):
        zero = Word((0,) * n)
        for mask in range(2 ** n):
            y = _binary_word_from_mask(mask, n)
            for b in range(2, n + 1):
                f = dist_b_formula(zero, y, b)
                o = dist_b_oracle(zero, y, b)
                rep.count("exhaustive_binary")
                if f != o:
                    rep.fail({"n": n, "b": b, "pattern": mask}, o, f)
                if mask == 0 and f != 0:
                    rep.fail({"n": n, "b": b, "pattern": 0, "check": "x=y"}, 0, f)

    # explicit binary pairs sampled at random, validating the pattern reduction
    for _ in range(min(cfg.trials // 10, 10_000)):
        n = 2 + stream.below(cfg.exhaustive_n_max - 1)
        b = 2 + stream.below(n - 1)
        x, y = stream.words(n, 2, 2)
        pattern = sum(
            1 << j for j in range(n) if x.symbols[j] != y.symbols[j]
        )
        expected = dist_b_oracle(Word((0,) * n), _binary_word_from_mask(pattern, n), b)
        rep.count("binary_pair_sample")
        if dist_b_formula(x, y, b) != expected or dist_b_oracle(x, y, b) != expected:
            rep.fail({"n": n, "b": b, "x": list(x.symbols), "y": list(y.symbols)},
                     expected, dist_b_formula(x, y, b))

    for _ in range(cfg.trials):
        q = cfg.random_qs[stream.below(len(cfg.random_qs))]
        n = 2 + stream.below(cfg.random_n_max - 1)
        b = 2 + stream.below(n - 1)
        x, y = stream.words(n, q, 2)
        f = dist_b_formula(x, y, b)
        o = dist_b_oracle(x, y, b)
        rep.count(f"random_q{q}")
        if f != o:
            rep.fail({"n": n, "b": b, "q": q,
                      "x": list(x.symbols), "y": list(y.symbols)}, o, f)

    rep.elapsed = time.perf_counter() - t0
    return rep


def _grid_records(cfg: SuiteConfig, rep: SuiteReport):
    """Yield (spec, rows for b = 2..b_max) for each code of the grid; the
    codes above the cap are tallied in `rep` as `skipped_cap` instead."""
    for p, e, m in cfg.grid:
        f = make_field(p, m)
        for i in range(p ** e + 1):
            spec = CyclicCodeSpec(f, e, i)
            if codes.above_cap(spec, cfg.cap):
                rep.skip("skipped_cap")
                continue
            yield spec, [codes.build_record(spec, b, cfg.cap)
                         for b in range(2, min(cfg.b_max, spec.n) + 1)]


def _inputs(spec: CyclicCodeSpec, **extra) -> dict:
    return {"p": spec.p, "e": spec.e, "m": spec.m, "i": spec.i, **extra}


def run_code_suite(cfg: SuiteConfig) -> SuiteReport:
    """Closed-form Hamming and b-symbol distances vs brute-force minima."""
    rep = SuiteReport("code")
    t0 = time.perf_counter()
    brutes = {}          # (field, e, i, b) -> brute-force d_b, for nesting
    for spec, records in _grid_records(cfg, rep):
        dh_formula = hamming_distance_formula(spec)
        dh_brute = codes.min_b_weight_bruteforce(spec, 1, cfg.cap)
        rep.count("hamming")
        if dh_formula != dh_brute:
            rep.fail(_inputs(spec, kind="hamming"), dh_brute, dh_formula)
        for rec in records:
            closed, brute, b = rec.db_closed, rec.db_brute, rec.b
            if closed.value is not None:
                rep.count(f"rule_{closed.rule}")
            elif closed.interval is not None:
                rep.count(f"interval_{closed.params_echo['interval_source']}")
            else:
                rep.count("rule_none")
            for kind, expected, actual, holds in rec.checks:   # see codes.check_row
                if kind in ("overlap", "rule", "interval") and not holds:
                    rep.fail(_inputs(spec, b=b, kind=kind), expected, actual)
            # nesting: C_{i} contains C_{i+1}, so d_b may only grow with i
            # (the zero code C_{p^e} is 0 by convention and is excluded)
            below = brutes.get((spec.field, spec.e, spec.i - 1, b), brute)
            if 0 < spec.i < spec.n and brute < below:
                rep.fail(_inputs(spec, b=b, kind="nesting"), below, brute)
            brutes[spec.field, spec.e, spec.i, b] = brute
    rep.elapsed = time.perf_counter() - t0
    return rep


def _random_lemma_instance(stream: _Stream, f, e: int):
    k = 1 + stream.below(e - 1) if e > 2 else 1
    period = f.p ** (e - k)
    d = stream.below(period)
    b = 2 + stream.below(period - 1)
    [low] = stream.words(d, f.q, 1)
    lead = 1 + stream.below(f.q - 1)     # leading coefficient nonzero
    return k, b, poly(f, low.symbols + (lead,))


def run_lemma_suite(cfg: SuiteConfig) -> SuiteReport:
    """Periodic weight decomposition vs the window-scan oracle on c(x)."""
    rep = SuiteReport("lemma")
    t0 = time.perf_counter()
    stream = _Stream(random.Random(cfg.seed))
    for p, e in LEMMA_GRID:
        f = make_field(p, 1)
        for _ in range(cfg.lemma_trials):
            k, b, g = _random_lemma_instance(stream, f, e)
            predicted = codes.lemma10_weight(f, e, k, g, b)
            actual = weight_b_oracle(codes.lemma10_codeword(f, e, k, g), b)
            case = "case2" if (g.degree > p ** (e - k) - b) else "case1"
            rep.count(f"p{p}e{e}_{case}")
            if predicted != actual:
                rep.fail({"p": p, "e": e, "k": k, "b": b,
                          "g": list(g.coeffs)},
                         actual, predicted)
    rep.elapsed = time.perf_counter() - t0
    return rep


def run_bounds_suite(cfg: SuiteConfig) -> SuiteReport:
    """Weight/distance sandwiches and monotonicity/invariance properties."""
    rep = SuiteReport("bounds")
    t0 = time.perf_counter()
    stream = _Stream(random.Random(cfg.seed))

    # the worked example from the golden word
    golden = Word((0, 0, 1, 3, 0, 5, 0, 0, 0, 2, 0, 7, 0, 0, 0))
    lo, hi, holds = check_bounds(golden, 4)
    rep.count("golden_bounds")
    if (lo, hi, holds) != (8, 20, True):
        rep.fail({"word": "golden", "b": 4}, [8, 20, True], [lo, hi, holds])

    # single nonzero symbol: both bounds tight at b
    for n in (4, 7, 9):
        for b in range(2, n + 1):
            w = Word(tuple(1 if j == 2 else 0 for j in range(n)))
            lo, hi, holds = check_bounds(w, b)
            wb = weight_b_oracle(w, b)
            rep.count("single_symbol")
            if not holds or wb != b or lo != b:
                rep.fail({"n": n, "b": b, "kind": "single_symbol"}, b, wb)

    # randomized sandwich + monotonicity in b + shift invariance
    for _ in range(min(cfg.trials, 20_000)):
        q = cfg.random_qs[stream.below(len(cfg.random_qs))]
        n = 3 + stream.below(cfg.random_n_max - 2)
        b = 2 + stream.below(n - 1)
        [x] = stream.words(n, q, 1)
        w_h = x.hamming_weight()
        wb = weight_b_oracle(x, b)
        if 0 < w_h <= n - (b - 1):
            lo, hi, holds = check_bounds(x, b)
            rep.count("prop1_random")
            if not holds:
                rep.fail({"n": n, "b": b, "x": list(x.symbols)}, [lo, hi], wb)
        wprev = weight_b_oracle(x, b - 1)
        rep.count("monotone_b")
        if wb < wprev:
            rep.fail({"n": n, "b": b, "x": list(x.symbols), "kind": "monotone"},
                     f">={wprev}", wb)
        s = stream.below(n)
        rep.count("shift_invariance")
        if weight_b_oracle(cyclic_shift(x, s), b) != wb:
            rep.fail({"n": n, "b": b, "s": s, "x": list(x.symbols),
                      "kind": "shift"}, wb, weight_b_oracle(cyclic_shift(x, s), b))

    # Cor2 sandwiches and Prop7 intervals against brute force on the code grid
    for spec, records in _grid_records(cfg, rep):
        for rec in records:
            for kind, expected, actual, holds in rec.checks:
                if kind in ("prop7", "cor2"):
                    rep.count(kind)
                    if not holds:
                        rep.fail(_inputs(spec, b=rec.b, kind=kind), expected, actual)
    rep.elapsed = time.perf_counter() - t0
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
