"""Polynomials over F_{p^m} and words in the quotient ring mod x^n - 1.

A polynomial is a plain tuple of its coefficients, elements of F_{p^m} in the
int encoding of :mod:`bsym.gf` (ints in range(q), zero is 0), constant term
first with no trailing zeros: its degree is len(a) - 1, and the zero
polynomial is ().  A word is the tuple (x_0, ..., x_{n-1}) of its symbols,
the polynomial x_0 + x_1 x + ... + x_{n-1} x^{n-1}, in the same order as the
windowed-read metrics.  A tuple carries no field, so the functions that need
field arithmetic take the field first, as gf.add(f, a, b) does.
"""

from __future__ import annotations

from functools import lru_cache

from . import gf
from .errors import InvalidParameterError
from .gf import FieldParams, _trim


def poly(f: FieldParams, coeffs) -> tuple:
    """The polynomial with these elements of f (ints in range(q)) as its
    coefficients, trailing zeros trimmed."""
    coeffs = list(coeffs)
    for c in coeffs:
        if not (isinstance(c, int) and 0 <= c < f.q):
            raise InvalidParameterError(f"coefficient {c!r} is not an element of {f!r}: "
                                        f"expected an int in range({f.q})")
    return tuple(_trim(coeffs))


def poly_mul(f: FieldParams, a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] = gf.add(f, out[i + j], gf.mul(f, x, y))
    return tuple(_trim(out))


@lru_cache(maxsize=256)
def xminus1_pow(f: FieldParams, i: int) -> tuple:
    """(x - 1)^i; cached, as every codeword of a lemma instance and every
    Gray walk starts from it.

    The coefficient of x^j is (-1)^(i-j) C(i, j) mod p, an element of the
    prime subfield 0..p-1, built by Lucas's theorem: with i = sum_d i_d p^d in
    base p, (x - 1)^i = prod_d (x^(p^d) - 1)^(i_d), and the digit factors
    occupy disjoint powers of x, so each factor lays i_d + 1 scaled copies of
    the product so far, padded to p^d coefficients, side by side.  A factor's
    coefficients C(d, t) (-1)^(d-t) follow each from the last by
    C(d, t+1) = C(d, t) (d - t) / (t + 1) mod p, as t + 1 <= d < p is
    invertible mod p, so the time is linear in the length.
    """
    if i < 0:
        raise InvalidParameterError(f"exponent i={i} must be >= 0")
    p = f.p
    out, scale = [1], 1          # (x - 1)^(i mod scale), scale = p^d
    while i:
        i, digit = divmod(i, p)
        factor = [(-1) ** digit % p]
        for t in range(digit):
            factor.append(-factor[-1] * (digit - t) * pow(t + 1, -1, p) % p)
        out += [0] * (scale - len(out))
        out = [c * a % p for c in factor for a in out]
        scale *= p
    return tuple(_trim(out))


def to_word(f: FieldParams, a: tuple, n: int) -> tuple:
    """Reduce a mod x^n - 1 and lay the coefficients out as a length-n word."""
    out = [0] * n
    for j, c in enumerate(a):
        out[j % n] = gf.add(f, out[j % n], c)
    return tuple(out)
