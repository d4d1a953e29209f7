import itertools
import math
import time

import pytest

from bsym import gf
from bsym.errors import InvalidParameterError
from bsym.gf import make_field

SMALL_FIELDS = [make_field(2), make_field(3), make_field(5), make_field(7),
                make_field(2, 2), make_field(2, 3), make_field(3, 2)]


def _inverses(f, a):
    """Every b with a * b = 1, found by search."""
    return [b for b in range(f.q) if gf.mul(f, a, b) == 1]


def _power(f, a, k):
    result = 1
    for _ in range(k):
        result = gf.mul(f, result, a)
    return result


def test_make_field_prime():
    f = make_field(2)
    assert (f.p, f.m, f.q) == (2, 1, 2)


def test_make_field_f4():
    f = make_field(2, 2)
    assert f.q == 4 and f.modulus == (1, 1, 1)
    # a field is (p, m): the cached modulus takes no part in == or hash
    assert f == make_field(2, 2) and hash(f) == hash(make_field(2, 2))


def _irreducible_by_trial_division(c, p):
    """Reference: no monic factor of degree 1..m//2 divides c."""
    m = len(c) - 1
    for deg in range(1, m // 2 + 1):
        for lower in itertools.product(range(p), repeat=deg):
            if not gf._zp_mod(c, [*lower, 1], p):
                return False
    return True


def _zp_product(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


@pytest.mark.parametrize("p,m_max,top_count", [(2, 8, 30), (3, 4, 18), (5, 3, 40)])
def test_rabin_test_matches_trial_division(p, m_max, top_count):
    for m in range(1, m_max + 1):
        irreducible = 0
        for lower in itertools.product(range(p), repeat=m):
            c = [*lower, 1]
            expected = _irreducible_by_trial_division(c, p)
            assert gf._zp_irreducible(c, p, m) == expected, c
            irreducible += expected
    # Gauss's count of the monic irreducibles of degree m_max
    assert irreducible == top_count


def test_large_irreducible_modulus_is_fast():
    modulus = [1, 1] + [0] * 125 + [1]          # x^127 + x + 1
    t0 = time.perf_counter()
    assert gf._zp_irreducible(modulus, 2, 127)
    assert time.perf_counter() - t0 < 0.5


def test_largest_field_passes_rabins_test_in_under_a_second():
    modulus = [1, 1, 1, 0, 0, 0, 0, 1] + [0] * 120 + [1]   # x^128 + x^7 + x^2 + x + 1
    t0 = time.perf_counter()
    assert gf._zp_irreducible(modulus, 2, gf.MAX_M)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("p,m", [(2, gf.MAX_M + 1), (2, 521), (3, 81), (5, 56),
                                 (10 ** 18 + 3, 3), (2, 10 ** 30)])
def test_make_field_refuses_q_above_2_to_the_max_m(p, m):
    t0 = time.perf_counter()
    with pytest.raises(InvalidParameterError):
        make_field(p, m)
    assert time.perf_counter() - t0 < 0.1


@pytest.mark.parametrize("p,m", [(2, gf.MAX_M), (3, 80), (5, 55), (10 ** 18 + 3, 2)])
def test_make_field_accepts_q_up_to_2_to_the_max_m(p, m):
    """The modulus is not searched for here: at (2, 128) that takes ~10 s."""
    t0 = time.perf_counter()
    f = make_field(p, m)
    assert time.perf_counter() - t0 < 0.1
    assert f.q <= 2 ** gf.MAX_M and "modulus" not in vars(f)


# every (p, m) with m >= 2 and q <= 2^10
SEARCHED = [(p, m) for p in range(2, 32) if gf.is_prime(p)
            for m in range(2, 11) if p ** m <= 2 ** 10]


@pytest.mark.parametrize("p,m", SEARCHED)
def test_searched_modulus_is_monic_irreducible_of_degree_m(p, m):
    modulus = make_field(p, m).modulus
    assert len(modulus) == m + 1 and modulus[-1] == 1
    assert all(0 <= c < p for c in modulus)
    assert _irreducible_by_trial_division(list(modulus), p)


@pytest.mark.parametrize("p,m,modulus", [
    (2, 2, (1, 1, 1)),           # x^2 + x + 1
    (2, 3, (1, 1, 0, 1)),        # x^3 + x + 1, not its reciprocal x^3 + x^2 + 1
    (3, 2, (1, 0, 1)),           # x^2 + 1
    (5, 2, (2, 0, 1)),           # x^2 + 2, since x^2 + 1 = (x - 2)(x + 2)
])
def test_searched_modulus_is_the_first_candidate_that_passes(p, m, modulus):
    """The moduli of F_4, F_8 and F_9 are the ones that were built in."""
    assert make_field(p, m).modulus == modulus


@pytest.mark.parametrize("degrees", [(10, 11), (10, 10)])
def test_reducible_modulus_without_small_factor(degrees):
    # x^10 + x^3 + 1, its reciprocal x^10 + x^7 + 1, and x^11 + x^2 + 1
    factors = {10: [[1, 0, 0, 1] + [0] * 6 + [1], [1] + [0] * 6 + [1, 0, 0, 1]],
               11: [[1, 0, 1] + [0] * 8 + [1]]}
    a = factors[degrees[0]][0]
    b = factors[degrees[1]][-1]
    assert a != b
    assert _irreducible_by_trial_division(a, 2)
    assert _irreducible_by_trial_division(b, 2)
    modulus = _zp_product(a, b, 2)
    assert not gf._zp_irreducible(modulus, 2, sum(degrees))


def test_make_field_rejects_nonprime():
    with pytest.raises(InvalidParameterError, match="p=4 is not prime"):
        make_field(4)


def _prime_by_trial_division(p):
    return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))


def _strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2 ** r, n) == n - 1 for r in range(1, s))


def test_is_prime_matches_trial_division():
    for p in range(10 ** 5):
        assert gf.is_prime(p) == _prime_by_trial_division(p), p


@pytest.mark.parametrize("n,bases", [
    (3215031751, (2, 3, 5, 7)),                                   # 151*751*28351
    (3825123056546413051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),      # psi_9
    (318665857834031151167461,
     (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),               # psi_12
])
def test_is_prime_rejects_strong_pseudoprimes(n, bases):
    assert all(_strong_probable_prime(n, a) for a in bases)
    assert not gf.is_prime(n)


def test_is_prime_is_fast_on_a_large_prime():
    t0 = time.perf_counter()
    assert gf.is_prime(2 ** 61 - 1) and gf.is_prime(10 ** 18 + 3)
    assert time.perf_counter() - t0 < 0.1


def test_is_prime_refuses_p_above_its_exact_range():
    assert not gf.is_prime(gf.MR_LIMIT - 1)
    with pytest.raises(InvalidParameterError):
        gf.is_prime(gf.MR_LIMIT)
    with pytest.raises(InvalidParameterError):
        make_field(2 ** 89 - 1)


def test_f4_multiplication():
    # x * x = x + 1 modulo x^2 + x + 1
    # elements are base-p digit strings, constant term lowest: x = 2, x + 1 = 3
    f = make_field(2, 2)
    assert gf.mul(f, 2, 2) == 3


def test_z5_inverse():
    f = make_field(5)
    assert _inverses(f, 2) == [3]


@pytest.mark.parametrize("f", SMALL_FIELDS, ids=repr)
def test_zero_has_no_inverse(f):
    assert _inverses(f, 0) == []


def test_make_field_rejects_degree_zero():
    with pytest.raises(InvalidParameterError):
        make_field(3, 0)


def test_enumerate_z3():
    # for m = 1 an element is its residue
    f = make_field(3)
    assert [gf.add(f, a, 0) for a in range(f.q)] == [0, 1, 2]


def test_enumerate_f4():
    # x = 2 generates the multiplicative group, so range(4) is the whole field
    f = make_field(2, 2)
    powers = [_power(f, 2, k) for k in range(f.q - 1)]
    assert sorted(powers) == [1, 2, 3]
    assert all(gf.mul(f, 0, a) == 0 and gf.add(f, 0, a) == a for a in range(f.q))


def test_enumerate_z5_length():
    # 2 is a primitive root mod 5: its powers are the 4 nonzero elements
    f = make_field(5)
    assert len({_power(f, 2, k) for k in range(f.q - 1)}) == 4


def test_prime_subfield_is_low_digits():
    # in F_9 the ints 0..2 add and multiply as Z_3
    f = make_field(3, 2)
    for a, b in itertools.product(range(3), repeat=2):
        assert gf.add(f, a, b) == (a + b) % 3
        assert gf.mul(f, a, b) == (a * b) % 3


@pytest.mark.parametrize("f", SMALL_FIELDS, ids=repr)
def test_inverses(f):
    for a in range(1, f.q):
        assert len(_inverses(f, a)) == 1


@pytest.mark.parametrize("f", [f for f in SMALL_FIELDS if f.q <= 9], ids=repr)
def test_field_axioms_exhaustive(f):
    els = range(f.q)
    for a, b in itertools.product(els, repeat=2):
        assert gf.add(f, a, b) == gf.add(f, b, a)
        assert gf.mul(f, a, b) == gf.mul(f, b, a)
        # x + b = a has one solution; with a = 0 it is the additive inverse of b
        assert sum(gf.add(f, x, b) == a for x in els) == 1
    for a, b, c in itertools.product(els, repeat=3):
        assert gf.add(f, gf.add(f, a, b), c) == gf.add(f, a, gf.add(f, b, c))
        assert gf.mul(f, gf.mul(f, a, b), c) == gf.mul(f, a, gf.mul(f, b, c))
        assert gf.mul(f, a, gf.add(f, b, c)) == gf.add(
            f, gf.mul(f, a, b), gf.mul(f, a, c)
        )


@pytest.mark.parametrize("f", [f for f in SMALL_FIELDS if f.q <= 9], ids=repr)
def test_lagrange(f):
    for a in range(1, f.q):
        assert _power(f, a, f.q - 1) == 1
