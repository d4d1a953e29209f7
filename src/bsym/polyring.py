"""Polynomials over F_{p^m} and words in the quotient ring mod x^n - 1.

Coefficients and symbols are elements of F_{p^m} in the int encoding of
:mod:`bsym.gf` (ints in range(q), zero is 0), stored constant term first
everywhere, matching the vector convention used by the windowed-read metrics:
a word is the tuple (x_0, ..., x_{n-1}) of its symbols, the polynomial
x_0 + x_1 x + ... + x_{n-1} x^{n-1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from . import gf
from .errors import FieldMismatchError, NotAnElementError
from .gf import FieldParams


@dataclass(frozen=True)
class Poly:
    """Dense polynomial, no trailing zeros; the zero polynomial has no coeffs."""

    field: FieldParams
    coeffs: tuple  # ints in range(q), constant term first

    @property
    def degree(self):
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, j: int) -> int:
        if 0 <= j < len(self.coeffs):
            return self.coeffs[j]
        return 0

    def __str__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if j == 0:
                terms.append(str(c))
            else:
                terms.append(f"({c})*x^{j}")
        return " + ".join(terms)


def _trimmed(f: FieldParams, coeffs: list) -> Poly:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return Poly(f, tuple(coeffs))


def poly(f: FieldParams, coeffs) -> Poly:
    """Build a Poly from elements of f (ints in range(q)), trimming trailing zeros."""
    coeffs = list(coeffs)
    for c in coeffs:
        if not (isinstance(c, int) and 0 <= c < f.q):
            raise NotAnElementError(c, f)
    return _trimmed(f, coeffs)


def _check(a: Poly, b: Poly):
    if a.field != b.field:
        raise FieldMismatchError("polynomials over different fields")


def poly_mul(a: Poly, b: Poly) -> Poly:
    _check(a, b)
    if a.is_zero() or b.is_zero():
        return Poly(a.field, ())
    f = a.field
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        if x == 0:
            continue
        for j, y in enumerate(b.coeffs):
            out[i + j] = gf.add(f, out[i + j], gf.mul(f, x, y))
    return _trimmed(f, out)


@lru_cache(maxsize=256)
def xminus1_pow(f: FieldParams, i: int) -> Poly:
    """(x - 1)^i; cached, as every codeword of a lemma instance and every
    Gray walk starts from it.

    The coefficient of x^j is (-1)^(i-j) C(i, j) mod p, an element of the
    prime subfield 0..p-1, built by Lucas's theorem: with i = sum_d i_d p^d in
    base p, (x - 1)^i = prod_d (x^(p^d) - 1)^(i_d), and the digit factors
    occupy disjoint powers of x, so each factor lays i_d + 1 scaled copies of
    the product so far, padded to p^d coefficients, side by side.
    """
    if i < 0:
        raise ValueError("exponent must be >= 0")
    p = f.p
    out, scale = [1], 1          # (x - 1)^(i mod scale), scale = p^d
    while i:
        i, digit = divmod(i, p)
        factor = [comb(digit, t) * (-1) ** (digit - t) % p for t in range(digit + 1)]
        out += [0] * (scale - len(out))
        out = [c * a % p for c in factor for a in out]
        scale *= p
    return _trimmed(f, out)


def to_word(a: Poly, n: int) -> tuple:
    """Reduce a mod x^n - 1 and lay the coefficients out as a length-n word."""
    f = a.field
    out = [0] * n
    for j, c in enumerate(a.coeffs):
        out[j % n] = gf.add(f, out[j % n], c)
    return tuple(out)

