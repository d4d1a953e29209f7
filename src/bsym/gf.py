"""Arithmetic in Z_p and in the extension field F_{p^m}.

An element of F_{p^m} is an int in range(q), q = p^m, whose base-p digits are
the coefficients of a polynomial over Z_p of degree < m, constant term in the
lowest digit, reduced modulo a monic irreducible polynomial of degree m.  A
field is named by (p, m) alone, since no code C_i depends on the modulus:
it is searched for on the first product in F_{p^m}.  The prime subfield is
0..p-1, and for m = 1 an element is its residue mod p, so range(q) lists
every element with zero first.  The operations are module
functions taking the field first: add(f, a, b), mul(f, a, b), ...
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import InvalidParameterError


# Miller-Rabin with the first 13 primes as bases decides every p below this
# bound exactly (Sorenson and Webster, "Strong pseudoprimes to twelve prime
# bases", Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_LIMIT = 3317044064679887385961981

# Fields have q = p^m <= 2^MAX_M, so m <= MAX_M.  The modulus search runs
# Rabin's test, about m^2 log q, on one candidate after another; at p = 2 it
# took 4 ms for m = 16, 0.11 s for m = 32 and 10.6 s for m = 128 (135
# candidates; 2 vCPU Xeon, Python 3.11).  So it runs only when F_{p^m} is
# multiplied, which no command does for m >= 2.
MAX_M = 128


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; refuses p >= MR_LIMIT, where it is not exact."""
    if p >= MR_LIMIT:
        raise InvalidParameterError(
            f"p={p} is too large: primality is decided only below {MR_LIMIT}")
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# polynomial helpers over Z_p, on plain int lists (constant term first)
# ---------------------------------------------------------------------------

def _trim(c):
    """Drop the trailing zeros of the coefficient list c, in place; return c."""
    while c and c[-1] == 0:
        c.pop()
    return c


def _zp_mod(a, b, p):
    """Remainder of a modulo monic-leading b over Z_p."""
    a = _trim(list(a))
    b = _trim(list(b))
    inv_lead = pow(b[-1], p - 2, p) if b[-1] != 1 else 1
    while len(a) >= len(b):
        coef = (a[-1] * inv_lead) % p
        shift = len(a) - len(b)
        for j, bj in enumerate(b):
            a[shift + j] = (a[shift + j] - coef * bj) % p
        _trim(a)
    return a


def _zp_mulmod(a, b, f, p):
    """a * b mod f over Z_p."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
    return _zp_mod(prod, f, p)


def _zp_powmod(h, k, f, p):
    """h^k mod f, by square-and-multiply."""
    result = [1]
    while k:
        if k & 1:
            result = _zp_mulmod(result, h, f, p)
        k >>= 1
        if k:
            h = _zp_mulmod(h, h, f, p)
    return result


def _zp_gcd(a, b, p):
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, _zp_mod(a, b, p)
    return a


def _prime_divisors(m: int):
    return [r for r in range(2, m + 1) if m % r == 0 and is_prime(r)]


def _zp_irreducible(modulus, p, m) -> bool:
    """Rabin's test: the monic f of degree m is irreducible over Z_p iff
    x^(p^m) = x mod f and gcd(x^(p^(m/r)) - x, f) = 1 for each prime r | m."""
    x = _zp_mod([0, 1], modulus, p)
    for r in _prime_divisors(m):
        h = _zp_powmod(x, p ** (m // r), modulus, p) + [0, 0]
        h[1] = (h[1] - 1) % p                  # h - x
        if len(_zp_gcd(modulus, h, p)) != 1:
            return False
    return _zp_powmod(x, p ** m, modulus, p) == x


@dataclass(frozen=True)
class FieldParams:
    """The field F_{p^m}, named by (p, m); immutable, hashable, safe to share
    between threads."""

    p: int
    m: int

    @property
    def q(self) -> int:
        return self.p ** self.m

    @cached_property
    def modulus(self) -> tuple:
        """The monic irreducible of degree m that mul reduces by, constant
        term first: x for m = 1, else x^m plus the polynomial whose
        coefficients are the base-p digits of the first a = 1, 2, ... for
        which the sum passes Rabin's test."""
        if self.m == 1:
            return (0, 1)
        return next(c for c in (tuple(_digits(self, a)) + (1,) for a in range(1, self.q))
                    if _zp_irreducible(c, self.p, self.m))

    def __repr__(self):
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.m})"


def make_field(p: int, m: int = 1) -> FieldParams:
    """Validated field parameters; raises on a bad p or m."""
    if not is_prime(p):
        raise InvalidParameterError(f"p={p} is not prime")
    if m < 1:
        raise InvalidParameterError(f"extension degree m={m} must be >= 1")
    if m > MAX_M or p ** m > 1 << MAX_M:
        raise InvalidParameterError(
            f"field of {p}^{m} elements is above 2^{MAX_M}: m={m} is too large")
    return FieldParams(p, m)


def _digits(f: FieldParams, a: int) -> list:
    """The m base-p digits of a, constant term first."""
    out = []
    for _ in range(f.m):
        a, d = divmod(a, f.p)
        out.append(d)
    return out


def _element(p: int, digits) -> int:
    a = 0
    for d in reversed(digits):
        a = a * p + d
    return a


def add(f: FieldParams, a: int, b: int) -> int:
    p = f.p
    if f.m == 1:
        return (a + b) % p
    return _element(p, [(x + y) % p for x, y in zip(_digits(f, a), _digits(f, b))])


def mul(f: FieldParams, a: int, b: int) -> int:
    p = f.p
    if f.m == 1:
        return (a * b) % p
    return _element(p, _zp_mulmod(_digits(f, a), _digits(f, b), f.modulus, p))
