"""Repeated-root constacyclic codes <(x - l0)^i> in F_q[x]/(x^n - l), n = p^e.

The proposition: for l = l0^(p^e), x^n - l = (x - l0)^n, and a(x) -> a(x/l0)
maps F_q[x]/(x^n - 1) onto F_q[x]/(x^n - l), since it sends x^n - 1 to
l0^(-n) (x^n - l), and it sends C_i = <(x - 1)^i> onto <(x - l0)^i>.  On
coordinates it scales position j by l0^(-j), which is nonzero, so every
support and every b-weight is kept: the constacyclic code has the d_b of C_i
for every b.  The map is not used here.  Each constacyclic code is walked
directly, by poly_mul and gf arithmetic on coefficient tuples, and its
minima are compared with the Gray engine's minima for C_i.
"""

import pytest

from bsym import gf
from bsym.bsymbol import weight_b_oracle
from bsym.codes import CyclicCodeSpec
from bsym.engine import _min_weights
from bsym.gf import make_field
from bsym.polyring import poly, poly_mul

MAX_CODEWORDS = 2 ** 12

# (field, e): m = 1 and m = 2, every code of each length with q^k <= 2^12
CASES = [(make_field(3), 1), (make_field(3), 2), (make_field(5), 1), (make_field(7), 1),
         (make_field(2, 2), 2), (make_field(2, 2), 3), (make_field(3, 2), 1),
         (make_field(3, 2), 2)]


def _neg(f, a):
    return gf.mul(f, f.p - 1, a)        # -1 lies in the prime subfield


def _power(f, a, k):
    out = 1
    for _ in range(k):
        out = gf.mul(f, out, a)
    return out


def _root(f, lam, n):
    """The one l0 with l0^n = lam; n is a power of p, so x -> x^n is a bijection."""
    roots = [a for a in range(1, f.q) if _power(f, a, n) == lam]
    assert len(roots) == 1, (f, lam, roots)
    return roots[0]


def _span(f, rows, n):
    """Every F_q-combination of the rows, as length-n tuples."""
    words = [(0,) * n]
    for row in rows:
        multiples = [tuple(gf.mul(f, c, r) for r in row) for c in range(1, f.q)]
        words += [tuple(gf.add(f, a, r) for a, r in zip(w, m))
                  for w in words for m in multiples]
    return words


def _constashift(f, lam, w):
    """x * w mod x^n - lam: the constacyclic shift."""
    return (gf.mul(f, lam, w[-1]),) + w[:-1]


def _min_b_weights(words, n):
    """(d_1, ..., d_n) over the nonzero words, by the window-scan oracle."""
    best = [n] * n
    for w in words:
        if any(w):
            for b in range(1, n + 1):
                best[b - 1] = min(best[b - 1], weight_b_oracle(w, b))
    return tuple(best)


def _codes(f, e):
    """(lam, l0, i) for every lam != 0 and every i < n with q^(n - i) <= 2^12."""
    n = f.p ** e
    for lam in range(1, f.q):
        l0 = _root(f, lam, n)
        for i in range(n):
            if f.q ** (n - i) <= MAX_CODEWORDS:
                yield lam, l0, i


@pytest.mark.parametrize("f,e", CASES, ids=[f"{f!r}-e{e}" for f, e in CASES])
def test_constacyclic_codes_have_the_b_distances_of_c_i(f, e):
    n = f.p ** e
    kinds = set()             # lam = 1 is cyclic; lam != 1 is not
    for lam, l0, i in _codes(f, e):
        factor = poly(f, [_neg(f, l0), 1])              # x - l0
        g = poly(f, [1])
        for _ in range(i):
            g = poly_mul(f, g, factor)
        top = g
        for _ in range(n - i):
            top = poly_mul(f, top, factor)
        assert top == poly(f, [_neg(f, lam)] + [0] * (n - 1) + [1])   # x^n - lam
        # x^j g for j < k: degree below n, so no reduction mod x^n - lam
        rows = [poly_mul(f, poly(f, [0] * j + [1]), g) for j in range(n - i)]
        rows = [r + (0,) * (n - len(r)) for r in rows]
        words = _span(f, rows, n)
        code = set(words)
        assert len(code) == f.q ** (n - i)
        # the code is an ideal of F_q[x]/(x^n - lam): closed under the shift
        assert _constashift(f, lam, rows[-1]) in code
        assert _min_b_weights(words, n) == _min_weights(CyclicCodeSpec(f, e, i))[1:], \
            (f, lam, i)
        kinds.add(lam == 1)
    assert kinds == {True, False}
