"""Repeated-root cyclic codes C_i = <(x-1)^i> of length p^e over F_{p^m}.

Closed forms implemented here, each evaluated once per row by `build_record`:
  * the exact Hamming distance of every C_i, read off the one split
    i = p^e - p^{e-k} + i' of the index (`_split`),
  * exact b-symbol distances where a rule applies (i = 0; e = 1 with
    i <= p - b; e >= 2 with small i; the p^e - p^{e-k} + i' family),
  * the periodic weight decomposition w_b((x-1)^{p^e - p^{e-k}} g(x))
    in terms of w_b(g),
  * the sandwich intervals of Prop7 and Cor2 (`sandwiches`), and
  * `check_row`: every claim one row can test, for records and the suites.

Every closed form is backed by an exhaustive minimum-weight engine that
refuses to sample: beyond the cap it raises instead of approximating.  The
engine walks each code once in Gray-code order and takes the minimum b-weight
for every b in that one pass; `enumerate_codewords` is the slow reference.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

from . import gf
from .bsymbol import weight_b_oracle
from .errors import (
    DegreeTooLargeError,
    EnumerationTooLargeError,
    IndexOutOfRangeError,
    InvalidCapError,
    InvalidParameterError,
    WidthOutOfRangeError,
    WidthTooLargeError,
)
from .gf import FieldParams
from .polyring import poly_mul, to_word, xminus1_pow

DEFAULT_CAP = 2 ** 22
MAX_LENGTH_BITS = 8192       # the largest code length is n = p^e <= 2^8192
_MAX_LENGTH = 2 ** MAX_LENGTH_BITS


def check_cap(value, source: str) -> int:
    """`value` as an enumeration cap: an integer >= 1, else InvalidCapError."""
    try:
        cap = int(value)
    except (TypeError, ValueError):
        raise InvalidCapError(source, value) from None
    if cap < 1:
        raise InvalidCapError(source, value)
    return cap


def enumeration_cap() -> int:
    """Default brute-force cap, overridable via the BSYM_CAP environment var."""
    env = os.environ.get("BSYM_CAP")
    return check_cap(env, "BSYM_CAP") if env else DEFAULT_CAP


@dataclass(frozen=True)
class CyclicCodeSpec:
    field: FieldParams
    e: int
    i: int
    n: int = dc_field(init=False, repr=False, compare=False)   # p^e

    def __post_init__(self):
        if self.e < 1:
            raise InvalidParameterError(f"e={self.e} must be >= 1")
        # p^e >= 2^(e * (bit_length - 1)), so no power is built above that
        n = (self.p ** self.e if self.e * (self.p.bit_length() - 1) <= MAX_LENGTH_BITS
             else _MAX_LENGTH + 1)
        if n > _MAX_LENGTH:
            raise InvalidParameterError(
                f"length p^e = {self.p}^{self.e} is above 2^{MAX_LENGTH_BITS}")
        object.__setattr__(self, "n", n)
        if not (0 <= self.i <= self.n):
            raise IndexOutOfRangeError(f"i={self.i} outside [0, {self.n}]")

    @property
    def p(self) -> int:
        return self.field.p

    @property
    def m(self) -> int:
        return self.field.m

    @property
    def k_dim(self) -> int:
        return self.n - self.i

    def generator(self) -> tuple:
        return xminus1_pow(self.field, self.i)


@dataclass(frozen=True)
class ClosedFormResult:
    """Every exact rule that fired, as (rule, value) in precedence order, and
    every proven interval, as (source, (lower, upper)) with Prop7 first."""
    exact: list
    intervals: list

    @property
    def rule(self) -> str | None:      # ZeroCode | Prop6 | Prop8_e1 | Thm9 | Thm11
        return self.exact[0][0] if self.exact else None

    @property
    def value(self) -> int | None:
        return self.exact[0][1] if self.exact else None

    @property
    def interval(self) -> tuple | None:
        """The first sandwich, on a row that no exact rule decides."""
        return self.intervals[0][1] if self.intervals and not self.exact else None


@dataclass(frozen=True)
class DistanceRecord:
    spec: CyclicCodeSpec
    b: int
    dH_formula: int
    db_closed: ClosedFormResult
    db_brute: int | None
    checks: list               # (kind, expected, actual, holds), see check_row

    @property
    def consistent(self) -> bool:
        return all(holds for *_, holds in self.checks)


def _split(spec: CyclicCodeSpec) -> tuple:
    """(k, i', step) with i = p^e - p^(e-k) + i', 0 < i' <= (p-1) step, for 0 < i < n:
    step = p^d is the largest power of p at most n - i, d = e - 1 - k.  The
    float log only starts d; the two loops make it exact."""
    p, rest = spec.p, spec.n - spec.i
    d = int(math.log(rest, p))
    while p ** d > rest:
        d -= 1
    while p ** (d + 1) <= rest:
        d += 1
    step = p ** d
    return spec.e - 1 - d, p * step - rest, step


def hamming_distance_formula(spec: CyclicCodeSpec) -> int:
    """Exact minimum Hamming distance of C_i (Dinh 2008): with the split
    i = p^e - p^(e-k) + i', it is (t + 1) p^k for i' in ((t-1) step, t step]."""
    if spec.i == 0:
        return 1
    if spec.i == spec.n:
        return 0
    k, i2, step = _split(spec)
    return ((i2 - 1) // step + 2) * spec.p ** k


def above_cap(spec: CyclicCodeSpec, cap: int) -> bool:
    """q^k_dim > cap, without building q^k_dim when it is far above the cap:
    q >= 2^(bl-1) for bl = q.bit_length(), so k_dim * (bl-1) >= the bit length
    of the cap puts q^k_dim above it, and otherwise q^k_dim < cap^2."""
    q, k = spec.field.q, spec.k_dim
    return k * (q.bit_length() - 1) >= cap.bit_length() or q ** k > cap


def _refuse_above_cap(spec: CyclicCodeSpec, cap: int):
    if above_cap(spec, cap):
        raise EnumerationTooLargeError(spec.field.q, spec.k_dim, cap)


def enumerate_codewords(spec: CyclicCodeSpec, cap: int | None = None):
    """All q^{k_dim} codewords as tuples, in deterministic message order."""
    cap = enumeration_cap() if cap is None else cap
    _refuse_above_cap(spec, cap)
    f = spec.field
    n = spec.n
    gen_word = to_word(f, spec.generator(), n)
    # precompute the cyclic shifts x^j * (x-1)^i as symbol tuples
    shifts = []
    for j in range(spec.k_dim):
        shifts.append(tuple(gen_word[(t - j) % n] for t in range(n)))

    def rec(j, acc):
        if j == spec.k_dim:
            yield tuple(acc)
            return
        yield from rec(j + 1, acc)
        row = shifts[j]
        for el in range(1, f.q):
            nxt = [gf.add(f, a, gf.mul(f, el, r)) for a, r in zip(acc, row)]
            yield from rec(j + 1, nxt)

    yield from rec(0, [0] * n)


def _packing(p: int, n: int):
    """(W, ones) of the packed layout: W bits per position (1 for p = 2, else
    room for a sum of two digits) and `ones` with the low bit of every field."""
    bits = 1 if p == 2 else (p - 1).bit_length() + 1
    return bits, ((1 << bits * n) - 1) // ((1 << bits) - 1)


def _valuation(t: int, p: int) -> int:
    d = 0
    while t % p == 0:
        t //= p
        d += 1
    return d


def _gray_path(steps: list, p: int):
    """Yield steps[v_p(t)] for t = 1 .. p^len(steps) - 1.

    Step t of the modular p-ary Gray code raises digit v_p(t) by 1 mod p;
    starting from zero this visits every digit vector exactly once.  The
    low digits repeat as a fixed block between the steps that carry.
    """
    digits = len(steps)
    low = 0
    while low < digits and p ** (low + 1) <= 256:
        low += 1
    block = [steps[_valuation(t, p)] for t in range(1, p ** low)]
    yield from block
    for t in range(1, p ** (digits - low)):
        yield steps[low + _valuation(t, p)]
        yield from block


def _gray_supports(spec: CyclicCodeSpec):
    """Yield the support of every nonzero codeword of C_i exactly once.

    The code is walked over its F_p-basis beta_l * x^j * (x-1)^i (l < m,
    j < k_dim).  The generator has prime-subfield coefficients (the ints
    0..p-1), so each basis row lives in the single coefficient plane l of
    F_{p^m}.  Planes are
    packed into ints with W bits per position (see _packing), and each
    Gray step adds one row to one plane: an XOR for p = 2, otherwise a SWAR
    add reduced mod p (the bias makes a field's top bit flag a sum >= p).
    A support has bit W*t + W - 1 set where position t is nonzero.
    """
    p, m, n = spec.p, spec.m, spec.n
    bits, ones = _packing(p, n)
    span = bits * n
    full = (1 << span) - 1
    high = ones << (bits - 1)                 # the top bit of every field
    nonzero_bias = ones * ((1 << (bits - 1)) - 1)
    reduce_bias = ones * ((1 << (bits - 1)) - p)
    row = 0
    for t, sym in enumerate(to_word(spec.field, spec.generator(), n)):
        row |= sym << (bits * t)
    shifts = [
        ((row << bits * j) | (row >> span - bits * j)) & full
        for j in range(spec.k_dim)
    ]
    basis = [(plane, shift) for plane in range(m) for shift in shifts]
    planes = [0] * m
    for plane, r in _gray_path(basis, p):
        if p == 2:
            planes[plane] ^= r
        else:
            s = planes[plane] + r
            planes[plane] = s - (((s + reduce_bias) & high) >> (bits - 1)) * p
        if m == 1:
            union = planes[0]
        else:
            union = 0
            for x in planes:
                union |= x
        yield union if p == 2 else (union + nonzero_bias) & high


@lru_cache(maxsize=256)
def _min_weights(spec: CyclicCodeSpec) -> tuple:
    """(0, d_1, ..., d_n): minimum nonzero b-weight of C_i (i < n) for every b.

    w_b of a support is the popcount of the OR of its first b rotations, built
    up one rotation per b until it covers all n positions.  The walk stops
    early only once every d_b has reached its floor b.
    """
    n = spec.n
    bits, ones = _packing(spec.p, n)
    top = ones << (bits - 1)
    wrap = bits * (n - 1)
    best = [0] + [n] * n
    above_floor = n - 1          # widths b < n whose minimum is still > b
    for support in _gray_supports(spec):
        acc = support
        for b in range(1, n):
            w = acc.bit_count()
            if w == n:
                break
            if w < best[b]:
                best[b] = w
                if w == b:
                    above_floor -= 1
            acc |= ((acc >> bits) | (acc << wrap)) & top
        if not above_floor:
            break
    return tuple(best)


def min_b_weight_bruteforce(
    spec: CyclicCodeSpec, b: int, cap: int | None = None
) -> int:
    """Minimum nonzero b-weight over all codewords (d_b(C) by linearity)."""
    cap = enumeration_cap() if cap is None else cap
    n = spec.n
    if not (1 <= b <= n):
        raise WidthOutOfRangeError(b, n, 1)
    if spec.i == spec.n:
        return 0
    _refuse_above_cap(spec, cap)
    return _min_weights(spec)[b]


def thm11_decompositions(spec: CyclicCodeSpec, b: int):
    """All (k, i') with i = p^e - p^{e-k} + i' inside the rule's hypotheses:
    only the split's k gives i' > 0, and k + 1 gives i' = 0 when n - i = step."""
    if not 0 < spec.i < spec.n:
        return []
    k, i2, step = _split(spec)
    found = []
    if k >= 1 and i2 <= min(step, b) and b + i2 <= spec.p * step:
        found.append((k, i2))
    if spec.n - spec.i == step and k + 2 <= spec.e and b <= step:
        found.append((k + 1, 0))
    return found


def closed_form_db(spec: CyclicCodeSpec, b: int) -> ClosedFormResult:
    """Every exact rule for d_b that fires and every proven sandwich."""
    return _closed_form(spec, b, hamming_distance_formula(spec))


def _closed_form(spec: CyclicCodeSpec, b: int, d_h: int) -> ClosedFormResult:
    p, e, i, n = spec.p, spec.e, spec.i, spec.n
    if not (2 <= b <= n):
        raise WidthOutOfRangeError(b, n, 2)
    exact = []  # (rule, value), in precedence order
    if i == n:
        exact.append(("ZeroCode", 0))
    if i == 0:
        exact.append(("Prop6", b))
    if e == 1 and b <= p and i <= p - b:
        exact.append(("Prop8_e1", i + b))
    if e >= 2 and 1 <= i <= b and i * p <= n and i + b <= n:    # i <= p^(e-1)
        exact.append(("Thm9", i + b))
    exact += [("Thm11", p ** k * (b + i2)) for k, i2 in thm11_decompositions(spec, b)]
    return ClosedFormResult(exact, sandwiches(spec, b, d_h))


def sandwiches(spec: CyclicCodeSpec, b: int, d_h: int) -> list:
    """Every proven interval for d_b as (source, (lower, upper)), Prop7 first."""
    found = []
    if b < spec.n and 1 <= spec.i and spec.i * spec.p <= spec.n:   # i <= p^(e-1)
        found.append(("Prop7", (b + 1, 2 * b)))
    if 0 < d_h <= spec.n - (b - 1):
        found.append(("Cor2", (d_h + b - 1, b * d_h)))
    return found


def check_row(spec: CyclicCodeSpec, b: int, closed: ClosedFormResult,
              brute: int | None) -> list:
    """Every claim one row can test, as (kind, expected, actual, holds).

    overlap: each further exact rule that fires gives the first one's value;
    rule: the exact value equals brute; interval: brute lies in the closed
    interval; prop7, cor2: brute, or else the exact value, lies in the sandwich;
    singleton: brute, or else the exact value, is at most min(n, i + b).

    The b-symbol Singleton bound: if two distinct codewords agreed on
    n - d_b + b consecutive positions, n - d_b + 1 of their windows would
    agree and they would differ in fewer than d_b windows.  So projecting
    the code onto any n - d_b + b consecutive positions is injective, and
    q^k <= q^(n - d_b + b); with k = n - i, d_b <= i + b.
    """
    checks = [
        ("overlap", [closed.rule, closed.value], [rule, value], value == closed.value)
        for rule, value in closed.exact[1:]
    ]
    if brute is not None and closed.value is not None:
        checks.append(("rule", brute, closed.value, closed.value == brute))
    if brute is not None and closed.interval is not None:
        lo, hi = closed.interval
        checks.append(("interval", [lo, hi], brute, lo <= brute <= hi))
    actual = closed.value if brute is None else brute
    if actual is not None:
        for source, (lo, hi) in closed.intervals:
            checks.append((source.lower(), [lo, hi], actual, lo <= actual <= hi))
        bound = min(spec.n, spec.i + b)
        checks.append(("singleton", bound, actual, actual <= bound))
    return checks


def lemma10_weight(f: FieldParams, e: int, k: int, g: tuple, b: int) -> int:
    """b-weight of c(x) = (x-1)^{p^e - p^{e-k}} g(x) from the b-weight of g.

    g is a polynomial, a coefficient tuple with no trailing zeros (see
    `polyring`).  c is the p^k-fold periodic repetition of g padded with zeta
    zeros up to one period of length p^{e-k}, so its windows are the padded
    word's windows repeated p^k times.  Requires 1 <= k <= e-1, g != 0,
    deg(g) < p^{e-k}, and b <= p^{e-k} (wider windows straddle more than one
    period and the decomposition no longer holds).

    With a = number of leading zero coefficients of g: if the window width
    never bridges the circular zero gap differently in the two embeddings
    (b <= p^{e-k} - deg(g) + a), the padded word and the full-length word
    have equal b-weight; otherwise the bridge shortens by exactly
    (b - 1) - zeta - a windows per period.
    """
    p = f.p
    if not (1 <= k <= e - 1):
        raise InvalidParameterError(f"k={k} outside [1, {e - 1}]")
    if not g or g[-1] == 0:   # a tuple with trailing zeros would misstate deg(g)
        raise InvalidParameterError(f"g={list(g)} must be nonzero, with no trailing zeros")
    d = len(g) - 1
    period = p ** (e - k)
    n = p ** e
    if d >= period:
        raise DegreeTooLargeError(f"deg(g)={d} must be < {period}")
    if b > period:
        raise WidthTooLargeError(f"b={b} must be <= p^(e-k) = {period}")
    w_b_g = weight_b_oracle(to_word(f, g, n), b)
    a = 0
    while g[a] == 0:
        a += 1
    if d <= period - b or a >= b - period + d:
        return p ** k * w_b_g
    zeta = period - d - 1
    return p ** k * (w_b_g - (b - 1) + zeta + a)


def lemma10_codeword(f: FieldParams, e: int, k: int, g: tuple) -> tuple:
    """The explicit word of (x-1)^{p^e - p^{e-k}} g(x) mod x^{p^e} - 1."""
    n = f.p ** e
    return to_word(f, poly_mul(f, xminus1_pow(f, n - f.p ** (e - k)), g), n)


def build_record(
    spec: CyclicCodeSpec,
    b: int,
    cap: int | None = None,
    with_brute: bool = True,
) -> DistanceRecord:
    """One verification row: formulas, optional brute value, its checks."""
    d_h = hamming_distance_formula(spec)
    closed = _closed_form(spec, b, d_h)
    brute = min_b_weight_bruteforce(spec, b, cap) if with_brute else None
    return DistanceRecord(spec, b, d_h, closed, brute, check_row(spec, b, closed, brute))


def record_to_dict(rec: DistanceRecord) -> dict:
    c, s = rec.db_closed, rec.spec
    return {
        "p": s.p, "e": s.e, "m": s.m, "i": s.i, "b": rec.b,
        "n": s.n, "dim": s.k_dim, "dH": rec.dH_formula,
        "db_rule": c.rule,
        "db_closed": c.value,
        "db_lower": c.interval[0] if c.interval else None,
        "db_upper": c.interval[1] if c.interval else None,
        "db_brute": rec.db_brute,
        "consistent": rec.consistent,
    }


CSV_COLUMNS = [
    "p", "e", "m", "i", "b", "n", "dim", "dH",
    "db_rule", "db_closed", "db_lower", "db_upper", "db_brute", "consistent",
]
