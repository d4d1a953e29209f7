"""The exhaustive engine: the minimum b-weight of C_i for every b, and the cap.

It walks each code once in Gray-code order and takes the minimum b-weight for
every b in that one pass; beyond the cap it raises instead of approximating.
A spec is read only through p, m, n, k_dim, field and generator(); nothing
here imports `codes`, whose `enumerate_codewords` is the slow reference.
"""

import os
from functools import lru_cache

from .errors import EnumerationTooLargeError, InvalidCapError
from .polyring import to_word

DEFAULT_CAP = 2 ** 22


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


def above_cap(spec, cap: int) -> bool:
    """q^k_dim > cap, without building q^k_dim when it is far above the cap:
    q >= 2^(bl-1) for bl = q.bit_length(), so k_dim * (bl-1) >= the bit length
    of the cap puts q^k_dim above it, and otherwise q^k_dim < cap^2."""
    q, k = spec.field.q, spec.k_dim
    return k * (q.bit_length() - 1) >= cap.bit_length() or q ** k > cap


def refuse_above_cap(spec, cap: int | None):
    """Raise EnumerationTooLargeError above `cap`; None is `enumeration_cap()`."""
    cap = enumeration_cap() if cap is None else cap
    if above_cap(spec, cap):
        raise EnumerationTooLargeError(spec.field.q, spec.k_dim, cap)


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


def _gray_supports(spec):
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
def _min_weights(spec) -> tuple:
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
