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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from itertools import product

from . import engine
from .bsymbol import _check_width, weight_b_oracle
from .errors import InvalidParameterError
from .gf import FieldParams
from .polyring import poly_mul, to_word, xminus1_pow

MAX_LENGTH_BITS = 8192       # the largest code length is n = p^e <= 2^8192
_MAX_LENGTH = 2 ** MAX_LENGTH_BITS


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
            raise InvalidParameterError(f"i={self.i} outside [0, {self.n}]")

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


def enumerate_codewords(spec: CyclicCodeSpec, cap: int = engine.DEFAULT_CAP):
    """All q^{k_dim} codewords m(x) (x-1)^i mod x^n - 1 as tuples, one for each
    message m of degree below k_dim, the constant term changing slowest."""
    engine.refuse_above_cap(spec, cap)
    f, g = spec.field, spec.generator()
    for message in product(range(f.q), repeat=spec.k_dim):
        yield to_word(f, poly_mul(f, message, g), spec.n)


def min_b_weight_bruteforce(
    spec: CyclicCodeSpec, b: int, cap: int = engine.DEFAULT_CAP
) -> int:
    """Minimum nonzero b-weight over all codewords (d_b(C) by linearity)."""
    _check_width(b, spec.n)
    if spec.i == spec.n:
        return 0
    engine.refuse_above_cap(spec, cap)
    minima = engine._min_weights(spec)
    return minima[b] if b < len(minima) else spec.n


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
    _check_width(b, n, lo=2)
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
        raise InvalidParameterError(f"deg(g)={d} must be < {period}")
    if b > period:
        raise InvalidParameterError(f"b={b} must be <= p^(e-k) = {period}")
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
    cap: int = engine.DEFAULT_CAP,
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
