import time
from math import comb

import pytest

import bsym
from bsym import polyring
from bsym.errors import BsymError, InvalidParameterError
from bsym.gf import make_field
from bsym.polyring import (
    poly,
    poly_mul,
    to_word,
    xminus1_pow,
)

Z2 = make_field(2)
Z3 = make_field(3)
Z5 = make_field(5)


def test_xminus1_squared_z3():
    # (x-1)^2 = x^2 - 2x + 1 = 1 + x + x^2 over Z_3
    assert xminus1_pow(Z3, 2) == (1, 1, 1)


def test_xplus1_squared_z2():
    assert xminus1_pow(Z2, 2) == (1, 0, 1)


def test_xminus1_zero_power():
    assert xminus1_pow(Z3, 0) == (1,)


def test_freshmans_dream():
    # (x-1)^p = x^p - 1 in characteristic p
    for f in (Z2, Z3, make_field(5)):
        assert xminus1_pow(f, f.p) == (f.p - 1,) + (0,) * (f.p - 1) + (1,)


def test_xminus1_pow_multiplicative():
    for i in (0, 2, 5, 11):
        for j in (1, 3, 7):
            assert xminus1_pow(Z3, i + j) == poly_mul(
                Z3, xminus1_pow(Z3, i), xminus1_pow(Z3, j)
            )


def test_xminus1_pow_rejects_a_negative_exponent():
    with pytest.raises(InvalidParameterError) as info:
        xminus1_pow(Z3, -1)
    assert isinstance(info.value, BsymError) and isinstance(info.value, ValueError)


SQUARE_EXTENSIONS = [make_field(p, 2) for p in (2, 3, 5, 7)]


@pytest.mark.parametrize("f", [Z2, Z3, Z5, make_field(7)] + SQUARE_EXTENSIONS,
                         ids=repr)
def test_xminus1_pow_is_repeated_multiplication(f):
    """The digit-by-digit build against (x - 1)^i as i products by x - 1."""
    base = poly(f, [f.p - 1, 1])          # -1 lies in the prime subfield
    expected = poly(f, [1])
    for i in range(201):
        assert xminus1_pow.__wrapped__(f, i) == expected, i
        expected = poly_mul(f, expected, base)


SMALL_PRIMES = [p for p in range(2, 200) if all(p % d for d in range(2, p))]


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_a_digit_factor_is_the_binomial_row(p):
    """(x - 1)^d for one base-p digit d < p is the factor the running binomial
    builds, against C(d, t) (-1)^(d-t) mod p from exact binomials."""
    f = make_field(p)
    for d in range(p):
        expected = tuple(comb(d, t) * (-1) ** (d - t) % p for t in range(d + 1))
        assert xminus1_pow.__wrapped__(f, d) == expected, d


def test_xminus1_pow_is_fast_at_a_large_exponent():
    """The build is O(i log_p i); 4080 products by x - 1 take about 0.8 s."""
    t0 = time.perf_counter()
    g = xminus1_pow.__wrapped__(Z2, 4080)
    assert time.perf_counter() - t0 < 0.1
    # 4080 = 0b111111110000, so by Lucas's theorem C(4080, j) is odd iff the
    # bits of j lie in those of 4080: 2^8 nonzero coefficients
    assert len(g) - 1 == 4080 and sum(g) == 2 ** 8


def test_to_word_xminus1():
    w = to_word(Z3, xminus1_pow(Z3, 1), 9)
    assert w == (2, 1, 0, 0, 0, 0, 0, 0, 0)


def test_to_word_reduces_mod_xn_minus_1():
    x9 = poly(Z3, [0] * 9 + [1])
    w = to_word(Z3, x9, 9)
    assert w == (1,) + (0,) * 8


def test_to_word_zero_poly():
    w = to_word(Z3, poly(Z3, []), 5)
    assert w == (0,) * 5


def test_a_word_is_a_tuple():
    assert type(to_word(Z3, poly(Z3, [1, 2]), 4)) is tuple
    assert not hasattr(polyring, "Word") and not hasattr(bsym, "Word")


def test_a_polynomial_is_a_tuple():
    assert poly(Z3, [1, 2, 0]) == (1, 2)
    assert type(poly_mul(Z3, (1, 2), (2,))) is tuple
    assert type(xminus1_pow(Z3, 4)) is tuple


def test_word_roundtrip():
    a = poly(Z3, [1, 0, 2])
    assert poly(Z3, to_word(Z3, a, 9)) == a


@pytest.mark.parametrize("c", [-1, 3, 5, 1.0, "1"])
def test_poly_rejects_non_elements(c):
    with pytest.raises(InvalidParameterError,
                       match=rf"coefficient {c!r} is not an element of GF\(3\)"):
        poly(Z3, [1, c])


def test_poly_accepts_extension_elements():
    f = make_field(3, 2)
    assert poly(f, [8, 0, 4, 0]) == (8, 0, 4)
    with pytest.raises(InvalidParameterError,
                       match=r"coefficient 9 is not an element of GF\(3\^2\)"):
        poly(f, [9])


def _times_x_to_the(w, s, f):
    """w times x^s in F[x]/(x^n - 1): the cyclic shift of the ring."""
    n = len(w)
    return to_word(f, poly_mul(f, poly(f, w), poly(f, [0] * (s % n) + [1])), n)


def test_cyclic_shift():
    w = (1, 2, 3)
    assert _times_x_to_the(w, 1, Z5) == (3, 1, 2)
    assert _times_x_to_the(w, 0, Z5) == w
    assert _times_x_to_the(w, 3, Z5) == w


def _shift_by_placement(w, s):
    """The definition: the symbol at position j moves to (j + s) mod n."""
    n = len(w)
    out = [None] * n
    for j, sym in enumerate(w):
        out[(j + s) % n] = sym
    return tuple(out)


def test_cyclic_shift_is_the_placement_definition():
    z11 = make_field(11)
    for n in range(1, 10):
        w = tuple(range(1, n + 1))
        for s in range(-2 * n, 2 * n + 1):
            assert _times_x_to_the(w, s, z11) == _shift_by_placement(w, s), (n, s)


def test_shift_matches_mul_by_x():
    n = 9
    a = poly(Z3, [1, 0, 2, 0, 0, 1])
    shifted = to_word(Z3, poly_mul(Z3, a, poly(Z3, [0, 1])), n)
    assert shifted == _shift_by_placement(to_word(Z3, a, n), 1)


def test_degree_markers():
    assert poly(Z3, []) == ()
    assert poly(Z3, [0, 0]) == ()  # trailing zeros trimmed: the zero polynomial
    assert len(poly(Z3, [1, 2, 0])) - 1 == 1
