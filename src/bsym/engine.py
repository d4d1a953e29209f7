"""The exhaustive engine: the minimum b-weight of C_i for every b, and the cap.

It walks a code once in Gray-code order and takes the minimum b-weight for
every b in that one pass; the walk of C_i passes through every smaller code
C_j, j > i, first, so one walk answers them all.  Beyond the cap it raises
instead of approximating.  A spec is read only through p, m, e, i, n, k_dim,
field and generator(); nothing here imports `codes`, whose
`enumerate_codewords` is the slow reference.
"""

from functools import lru_cache, reduce
from itertools import islice
from operator import or_

from .errors import EnumerationTooLargeError

DEFAULT_CAP = 2 ** 22
MAX_PACKED_BITS = 2 ** 22    # the largest packed codeword, W * n bits (see _field_bits)
MAX_WORK_BITS = 2 ** 34      # the most bits a walk packs, (q^k - 1) * W * n
_FAMILIES = 16               # the (field, e) families whose minima are kept


def _field_bits(p: int) -> int:
    """W, the bits per position of a packed word: 1 for p = 2, else room for a
    sum of two digits."""
    return 1 if p == 2 else (p - 1).bit_length() + 1


def refuse_above_cap(spec, cap: int):
    """Raise EnumerationTooLargeError above `cap` codewords, MAX_PACKED_BITS
    bits a packed word or MAX_WORK_BITS bits a walk, before anything of size
    n is built.

    q^k_dim is not built when it is far above the cap: q >= 2^(bl-1) for
    bl = q.bit_length(), so k_dim * (bl-1) >= the bit length of the cap puts
    q^k_dim above it, and otherwise q^k_dim < cap^2.  A walked bit took 4e-10
    to 2e-9 s by family, so a walk at the work bound took 7 to 34 s (2 vCPU
    Xeon, Python 3.11; k = 1 over F_20011 and binary e = 12, k = 22).
    """
    q, k = spec.field.q, spec.k_dim
    if k * (q.bit_length() - 1) >= cap.bit_length() or q ** k > cap:
        raise EnumerationTooLargeError(
            f"code has {q}^{k} codewords, "
            f"above the enumeration cap {cap}")
    if _field_bits(spec.p) * spec.n > MAX_PACKED_BITS:
        raise EnumerationTooLargeError(
            f"a codeword of length {spec.p}^{spec.e} packs into "
            f"{_field_bits(spec.p)}*{spec.p}^{spec.e} bits, "
            f"above the brute-force bound of {MAX_PACKED_BITS} bits")
    if (q ** k - 1) * _field_bits(spec.p) * spec.n > MAX_WORK_BITS:
        raise EnumerationTooLargeError(
            f"a walk packs {q}^{k} - 1 codewords of "
            f"{_field_bits(spec.p)}*{spec.p}^{spec.e} bits, "
            f"above the work bound of {MAX_WORK_BITS} bits")


def _packing(p: int, n: int):
    """(W, ones) of the packed layout: W bits per position and `ones` with
    the low bit of every field."""
    bits = _field_bits(p)
    return bits, ((1 << bits * n) - 1) // ((1 << bits) - 1)


def _packed_generator(spec, bits: int) -> int:
    """(x-1)^i, i < n, packed W bits per position.  Its coefficients lie in the
    prime subfield, the ints 0..p-1, and its degree is below n, so it is its
    own word."""
    digits = [format(c, f"0{bits}b") for c in range(spec.p)]
    return int("".join(map(digits.__getitem__, reversed(spec.generator()))), 2)


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


def _gray_supports(spec, bits: int, ones: int, row: int):
    """Yield the support of every nonzero codeword of C_i exactly once, from
    the packed layout (see _packing) and the packed generator `row`.

    The code is walked over its F_p-basis beta_l * (x-1)^t (l < m, i <= t < n):
    the powers have distinct degrees below n and are multiples of (x-1)^i, so
    the n - i of them span C_i, and those with t >= j span C_j.  The highest
    power takes the fastest Gray digit, so the first q^a - 1 supports are the
    nonzero words of C_{n-a}.  Each power is the one before times (x - 1).
    The rows have prime-subfield coefficients (the ints 0..p-1), so each
    lives in the single coefficient plane l of F_{p^m}.  Planes are packed
    into ints with W bits per position (see _field_bits), and each Gray step
    adds one row to one plane: an XOR for p = 2, otherwise a SWAR add reduced
    mod p (the bias makes a field's top bit flag a sum >= p).  A support has
    bit W*t + W - 1 set where position t is nonzero.
    """
    p, m = spec.p, spec.m
    if not spec.k_dim:
        return                            # the zero code has no nonzero word
    high = ones << (bits - 1)             # the top bit of every field
    nonzero_bias = ones * ((1 << (bits - 1)) - 1)
    reduce_bias = ones * ((1 << (bits - 1)) - p)
    p_each = ones * p                     # p in every field
    rows = [row]
    for _ in range(1, spec.k_dim):        # row * (x - 1): deg row < n - 1, no wrap
        if p == 2:
            row ^= row << 1
        else:
            row = (row << bits) + p_each - row      # d_{t-1} + p - d_t in 1..2p-1
            row -= (((row + reduce_bias) & high) >> (bits - 1)) * p
        rows.append(row)
    basis = [(plane, r) for r in reversed(rows) for plane in range(m)]
    planes = [0] * m
    for plane, r in _gray_path(basis, p):
        if p == 2:
            planes[plane] ^= r
        else:
            s = planes[plane] + r
            planes[plane] = s - (((s + reduce_bias) & high) >> (bits - 1)) * p
        union = planes[0] if m == 1 else reduce(or_, planes)
        yield union if p == 2 else (union + nonzero_bias) & high


@lru_cache(maxsize=_FAMILIES)
def _family(field, e) -> dict:
    """The cached minima of the codes C_j of (field, e), {j: _min_weights(C_j)};
    the least recently used family beyond _FAMILIES is dropped."""
    return {}


def _min_weights(spec) -> tuple:
    """(0, d_1, ..., d_{c-1}): minimum nonzero b-weight of C_i (i < n) for
    each b below c, the first width with d_c = n.  d_b is nondecreasing in b,
    so every d_b from b = c on is n, and the tuple stops before it.

    w_b of a support is the popcount of the OR of its first b rotations, built
    up one rotation per b until it covers all n positions.  The generator is
    tried alone first: if it is at the floor d_b = b of every width, as
    (x-1)^0 = 1 is, that is the answer.  Otherwise it is dropped, and the walk
    of C_i is folded slab by slab: after its first q^a - 1 supports, `best`
    holds the minima of C_{n-a}, which are kept for every j >= i.
    """
    family = _family(spec.field, spec.e)
    if spec.i in family:
        return family[spec.i]
    n, q = spec.n, spec.field.q
    bits, ones = _packing(spec.p, n)
    top = ones << (bits - 1)
    wrap = bits * (n - 1)
    row = _packed_generator(spec, bits)
    # the generator's support: the top bit of each field with a nonzero digit
    acc = row if spec.p == 2 else (row + ones * ((1 << (bits - 1)) - 1)) & top
    b = 1
    while b < n and acc.bit_count() == b:
        acc |= ((acc >> bits) | (acc << wrap)) & top
        b += 1
    if b == n:
        family[spec.i] = tuple(range(n))
        return family[spec.i]
    best = [0] + [n] * n
    supports = _gray_supports(spec, bits, ones, row)
    for a in range(1, spec.k_dim + 1):
        for support in islice(supports, q ** a - q ** (a - 1)):
            acc = support
            for b in range(1, n):
                w = acc.bit_count()
                if w == n:
                    break
                if w < best[b]:
                    best[b] = w
                acc |= ((acc >> bits) | (acc << wrap)) & top
        family[n - a] = tuple(best[:best.index(n)])
    return family[spec.i]
