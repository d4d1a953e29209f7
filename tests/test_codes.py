import contextlib
import io
import itertools
import time
import tracemalloc
from collections import Counter
from functools import lru_cache

import pytest

from bsym import codes, engine
from bsym.bsymbol import weight_b_oracle
from bsym.cli import main
from bsym.codes import (
    CyclicCodeSpec,
    build_record,
    closed_form_db,
    enumerate_codewords,
    hamming_distance_formula,
    lemma10_codeword,
    lemma10_weight,
    min_b_weight_bruteforce,
    thm11_decompositions,
)
from bsym.errors import BsymError, EnumerationTooLargeError, InvalidParameterError
from bsym.gf import make_field
from bsym.polyring import poly, to_word, xminus1_pow
from bsym.verify import DEFAULT_GRID

Z2 = make_field(2)
Z3 = make_field(3)
Z5 = make_field(5)


def spec(f, e, i):
    return CyclicCodeSpec(f, e, i)


# --- Hamming distance ------------------------------------------------------

@pytest.mark.parametrize("i,expected", [(0, 1), (5, 3), (8, 9), (9, 0)])
def test_hamming_formula_p3e2(i, expected):
    assert hamming_distance_formula(spec(Z3, 2, i)) == expected


def test_hamming_index_out_of_range():
    with pytest.raises(InvalidParameterError, match=r"i=10 outside \[0, 9\]"):
        spec(Z3, 2, 10)


def test_length_bound_is_2_to_the_8192():
    assert spec(Z2, 8192, 5).n == 2 ** 8192
    for f, e in ((Z2, 8193), (Z3, 5169), (make_field(8191), 1025), (Z2, 10 ** 30)):
        with pytest.raises(InvalidParameterError):
            spec(f, e, 0)
    assert spec(Z3, 5168, 0).n < 2 ** 8192 < 3 ** 5169


def _hamming_by_branch_search(p, e, i):
    """The theorem's branches tried one by one, as the formula once did."""
    n = p ** e
    if i in (0, n):
        return 1 if i == 0 else 0
    for beta in range(p - 1):
        if beta * p ** (e - 1) + 1 <= i <= (beta + 1) * p ** (e - 1):
            return beta + 2
    for k in range(1, e):
        for t in range(1, p):
            lo = n - p ** (e - k) + (t - 1) * p ** (e - k - 1) + 1
            hi = n - p ** (e - k) + t * p ** (e - k - 1)
            if lo <= i <= hi:
                return (t + 1) * p ** k
    raise AssertionError((p, e, i))


@pytest.mark.parametrize("p,e_max", [(2, 11), (3, 7), (5, 4), (7, 3), (11, 2), (13, 2)])
def test_hamming_formula_is_the_branch_search(p, e_max):
    f = make_field(p)
    for e in range(1, e_max + 1):
        for i in range(p ** e + 1):
            assert hamming_distance_formula(spec(f, e, i)) == _hamming_by_branch_search(p, e, i)


def test_hamming_formula_is_fast_for_a_large_prime():
    # the branch search walked beta up to i / p^(e-1), here 10^17 steps
    s = spec(make_field(10 ** 18 + 3), 1, 10 ** 17)
    assert hamming_distance_formula(s) == 10 ** 17 + 1


def test_spec_length_is_kept_out_of_eq_hash_and_repr():
    a, b = spec(Z3, 2, 4), spec(Z3, 2, 4)
    assert a.n == 9 and a == b and hash(a) == hash(b)
    assert repr(a) == "CyclicCodeSpec(field=GF(3), e=2, i=4)"


@pytest.mark.parametrize("f,e", [(Z2, 2), (Z2, 3), (Z3, 1), (Z3, 2), (Z5, 1)])
def test_hamming_formula_vs_bruteforce(f, e):
    n = f.p ** e
    for i in range(n + 1):
        s = spec(f, e, i)
        assert hamming_distance_formula(s) == (
            min_b_weight_bruteforce(s, 1) if i < n else 0
        )


def test_hamming_formula_vs_bruteforce_f4():
    f = make_field(2, 2)
    for i in range(5):
        s = spec(f, 2, i)
        expected = min_b_weight_bruteforce(s, 1) if i < 4 else 0
        assert hamming_distance_formula(s) == expected


# --- enumeration -----------------------------------------------------------

def test_enumerate_zero_code():
    words = list(enumerate_codewords(spec(Z3, 2, 9)))
    assert len(words) == 1 and weight_b_oracle(words[0], 1) == 0


def test_codewords_are_tuples():
    assert all(type(w) is tuple for w in enumerate_codewords(spec(Z3, 2, 6)))
    assert type(lemma10_codeword(Z3, 2, 1, poly(Z3, [2, 1]))) is tuple


def test_enumerate_counts():
    assert len(list(enumerate_codewords(spec(Z3, 2, 6)))) == 27
    assert len(list(enumerate_codewords(spec(Z2, 3, 0)))) == 256


def _support(w):
    return tuple(j for j, s in enumerate(w) if s != 0)


def test_enumerate_full_space_is_everything():
    words = {_support(w) for w in enumerate_codewords(spec(Z2, 2, 0))}
    assert len(words) == 2 ** 4  # binary: support determines the word


def test_enumerate_cap():
    with pytest.raises(EnumerationTooLargeError):
        list(enumerate_codewords(spec(Z3, 2, 0), cap=100))


ENUMERATED_FAMILIES = [(2, 1, 1), (2, 2, 1), (2, 3, 1), (3, 1, 1), (3, 2, 1), (5, 1, 1),
                       (7, 1, 1), (2, 1, 2), (2, 2, 2), (2, 3, 2), (3, 1, 2)]


@pytest.mark.parametrize("p,e,m", ENUMERATED_FAMILIES)
def test_enumerated_words_are_a_cyclic_code_of_q_to_the_k_words(p, e, m):
    """Every code of the family with q^k <= 2^10: q^k distinct words of
    length n, and each cyclic shift of a codeword is a codeword."""
    f = make_field(p, m)
    n = p ** e
    for i in range(n + 1):
        s = spec(f, e, i)
        if f.q ** s.k_dim > 2 ** 10:
            continue
        words = set(enumerate_codewords(s))
        assert len(words) == f.q ** s.k_dim and {len(w) for w in words} == {n}, i
        assert {w[-1:] + w[:-1] for w in words} == words, i


def test_enumerated_words_are_multiples_of_generator():
    s = spec(Z3, 2, 6)
    gen = to_word(Z3, s.generator(), 9)
    # every codeword's poly must be divisible by (x-1)^6; check via weight:
    # the code is closed under addition, and contains the generator
    supports = {_support(w) for w in enumerate_codewords(s)}
    assert _support(gen) in supports


# --- brute-force b-weight --------------------------------------------------

def test_min_b_weight_zero_code():
    assert min_b_weight_bruteforce(spec(Z3, 2, 9), 4) == 0


@pytest.mark.parametrize("i,b,expected", [(0, 3, 3), (7, 2, 9)])
def test_min_b_weight_spot_rows(i, b, expected):
    assert min_b_weight_bruteforce(spec(Z3, 2, i), b) == expected


def test_min_b_weight_width_error():
    with pytest.raises(InvalidParameterError, match="b=10 outside 1..9 for length n=9"):
        min_b_weight_bruteforce(spec(Z3, 2, 3), 10)


def test_cap_checked_before_cached_minima():
    s = spec(Z3, 2, 4)
    assert min_b_weight_bruteforce(s, 2) == 6
    with pytest.raises(EnumerationTooLargeError):
        min_b_weight_bruteforce(s, 2, cap=100)
    with pytest.raises(EnumerationTooLargeError):
        min_b_weight_bruteforce(s, 1, cap=100)


def _refused(s, cap) -> bool:
    try:
        engine.refuse_above_cap(s, cap)
    except EnumerationTooLargeError:
        return True
    return False


@pytest.mark.parametrize("cap", [1, 2, 3, 7, 8, 9, 63, 64, 65, 80, 81, 82, 2 ** 22])
def test_above_cap_agrees_with_size(cap):
    for f, e in [(Z2, 3), (Z3, 2), (make_field(2, 2), 2), (Z5, 1), (make_field(3, 2), 1)]:
        for i in range(f.p ** e + 1):
            s = spec(f, e, i)
            assert _refused(s, cap) == (s.field.q ** s.k_dim > cap), (f, e, i)


@pytest.mark.parametrize("p,admitted", [(32749, True), (32771, False)])
def test_the_work_bound_refuses_the_walk_just_above_it(no_cached_minima, p, admitted):
    """A k = 1 code over F_p walks p - 1 words of W * p bits: W = 16 for
    p = 32749, the largest prime below 2^15, just below 2^34 bits, and W = 17
    for the next prime, 32771, above it.  Neither is walked here."""
    s = spec(make_field(p), 1, p - 1)
    work = (p - 1) * engine._field_bits(p) * p
    assert engine.MAX_WORK_BITS * 7 // 8 < work < engine.MAX_WORK_BITS * 9 // 8
    assert (work <= engine.MAX_WORK_BITS) == admitted
    assert _refused(s, engine.DEFAULT_CAP) == (not admitted)
    if not admitted:
        with pytest.raises(EnumerationTooLargeError, match="above the work bound"):
            min_b_weight_bruteforce(s, 2)
    assert engine._family.cache_info().currsize == 0


def test_above_cap_does_not_build_the_code_size():
    s = spec(Z2, 26, 1)          # 2^(2^26 - 1) codewords: an 8 MiB integer
    tracemalloc.start()
    try:
        assert _refused(s, 2 ** 22)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    with pytest.raises(EnumerationTooLargeError):
        min_b_weight_bruteforce(s, 2)


@pytest.mark.parametrize("f,e,admitted", [
    (Z2, 22, True), (Z2, 23, False), (Z2, 200, False), (Z3, 12, True), (Z3, 13, False),
])
def test_a_packed_word_above_the_bound_is_refused(f, e, admitted):
    """W * n bits per packed word, W = 1 for p = 2 and 3 for p = 3, against
    2^22; a small dimension keeps every code below the cap."""
    s = spec(f, e, f.p ** e - 3)
    assert _refused(s, engine.DEFAULT_CAP) == (not admitted)
    if not admitted:
        with pytest.raises(EnumerationTooLargeError, match="above the brute-force bound"):
            min_b_weight_bruteforce(s, 2)


# --- Gray-code engine vs the enumeration reference -------------------------

# every spec of the verify grid, plus odd-p and extension-field codes
CROSS_CHECK_SPECS = [
    (p, e, m, i) for p, e, m in DEFAULT_GRID for i in range(p ** e + 1)
] + [(3, 2, 2, i) for i in range(5, 10)] + [(2, 3, 2, i) for i in range(2, 9)]


@lru_cache(maxsize=None)
def _reference(p, e, m, i):
    """(multiset of nonzero supports, (0, d_1, ..., d_n)) via enumerate_codewords
    and weight_b_oracle; the minimum over no nonzero codeword is 0."""
    s = spec(make_field(p, m), e, i)
    n = s.n
    supports = Counter(
        sum(1 << j for j in _support(w))
        for w in enumerate_codewords(s)
        if any(w)
    )
    words = [tuple((mask >> j) & 1 for j in range(n)) for mask in supports]
    minima = tuple(
        min((weight_b_oracle(w, b) for w in words), default=0) for b in range(1, n + 1)
    )
    return supports, (0,) + minima


def _unpack(mask, p, n):
    bits = engine._packing(p, n)[0]
    return sum(1 << j for j in range(n) if (mask >> (bits * j + bits - 1)) & 1)


def _walk(s):
    """engine._gray_supports of s, with the layout and row that _min_weights
    hands it."""
    bits, ones = engine._packing(s.p, s.n)
    return engine._gray_supports(s, bits, ones, engine._packed_generator(s, bits))


@pytest.mark.parametrize("p,e,m,i", CROSS_CHECK_SPECS)
def test_gray_walk_yields_every_nonzero_support_once(p, e, m, i):
    s = spec(make_field(p, m), e, i)
    walked = [_unpack(mask, p, s.n) for mask in _walk(s)]
    q = s.field.q
    assert len(walked) == q ** s.k_dim - 1
    assert Counter(walked) == _reference(p, e, m, i)[0]
    # the highest powers of x - 1 turn fastest: each smaller code is a prefix
    for a in range(1, s.k_dim):
        assert Counter(walked[:q ** a - 1]) == _reference(p, e, m, s.n - a)[0], a


@pytest.mark.parametrize("p,e,m,i", CROSS_CHECK_SPECS)
def test_engine_minima_match_reference_for_every_b(p, e, m, i):
    s = spec(make_field(p, m), e, i)
    expected = _reference(p, e, m, i)[1]
    assert min_b_weight_bruteforce(s, 1) == expected[1]
    for b in range(1, s.n + 1):
        assert min_b_weight_bruteforce(s, b) == expected[b], b


@pytest.fixture
def no_cached_minima():
    """The engine's cache of minima, emptied before the test and after it."""
    engine._family.cache_clear()
    yield
    engine._family.cache_clear()


@pytest.fixture
def evaluated(monkeypatch, no_cached_minima):
    """[packed generators, walked supports] of the engine from now on, with
    an empty cache of minima."""
    counts = [0, 0]
    walk, pack = engine._gray_supports, engine._packed_generator

    def counting_walk(*args):
        for support in walk(*args):
            counts[1] += 1
            yield support

    def counting_pack(*args):
        counts[0] += 1
        return pack(*args)

    monkeypatch.setattr(engine, "_gray_supports", counting_walk)
    monkeypatch.setattr(engine, "_packed_generator", counting_pack)
    return counts


@pytest.mark.parametrize("f,e,i,walked", [
    (Z3, 2, 0, 1),               # a weight-1 word puts every d_b at its floor b
    (Z3, 2, 1, 3 ** 8 - 1),
    (Z2, 3, 3, 2 ** 5 - 1),
    (make_field(2, 2), 2, 1, 4 ** 3 - 1),
])
def test_engine_stops_early_only_when_every_b_floors(evaluated, padded, f, e, i, walked):
    s = spec(f, e, i)
    minima = engine._min_weights(s)
    checks, supports = evaluated
    assert checks == 1                   # the generator, packed once for both uses
    if i == 0:
        # the generator 1 is the one word evaluated: every d_b is at its floor b
        assert (checks, supports) == (walked, 0)
        assert padded(minima, s.n) == tuple(range(s.n + 1))
    else:
        assert supports == walked        # dropped, and the whole code walked


def test_table_sweep_walks_the_largest_code_once(evaluated):
    """`table --p 2 --e 4 --b 2..6`: C_0 answers by its generator, the walk
    of C_1 answers every smaller code, and C_16 is the zero code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["table", "--p", "2", "--e", "4", "--b", "2..6",
                     "--format", "csv"]) == 0
    assert evaluated == [2, 2 ** 15 - 1]
    assert sum(evaluated) <= 32_770      # 65,520 when each code was walked alone
    assert out.getvalue().count("\n") == 1 + 17 * 5


NESTED_FAMILIES = [(2, 1, 1), (2, 2, 1), (2, 3, 1), (2, 4, 1), (3, 1, 1), (3, 2, 1),
                   (5, 1, 1), (7, 1, 1), (2, 2, 2), (2, 3, 2), (3, 1, 2), (2, 2, 3)]


@pytest.mark.parametrize("p,e,m", NESTED_FAMILIES)
def test_cached_minima_match_reference_in_either_order(no_cached_minima, padded, p, e, m):
    """Every code of the family with q^k <= 2^12, requested with i rising (one
    walk answers the rest from the cache) and falling (each code walked
    again), against enumerate_codewords and weight_b_oracle."""
    f = make_field(p, m)
    n = p ** e
    indices = [i for i in range(n) if f.q ** (n - i) <= 2 ** 12]
    for order in (indices, indices[::-1]):
        engine._family.cache_clear()
        for i in order:
            assert padded(engine._min_weights(spec(f, e, i)), n) == \
                _reference(p, e, m, i)[1], (i, order[0])


@pytest.mark.parametrize("p,e,m", NESTED_FAMILIES)
def test_no_cached_minima_end_in_n(no_cached_minima, p, e, m):
    """Each kept tuple stops before the first width whose d_b is n, both for
    the generator at the floor (C_0) and for every code the walk passes."""
    f = make_field(p, m)
    n = p ** e
    walked = min(i for i in range(1, n) if f.q ** (n - i) <= 2 ** 12)
    for i in (0, walked):
        engine._min_weights(spec(f, e, i))
    cached = engine._family(f, e)
    assert sorted(cached) == [0, *range(walked, n)]
    assert all(minima[-1] < n for minima in cached.values())


def test_the_minima_cache_keeps_the_most_recently_used_families(evaluated):
    """The last _FAMILIES families asked for keep their minima, and the
    least recently used one is walked again."""
    def walked(s) -> bool:
        before = evaluated[1]
        engine._min_weights(s)
        return evaluated[1] > before

    for e in range(1, engine._FAMILIES + 2):
        assert walked(spec(Z2, e, 2 ** e - 1))
    info = engine._family.cache_info()
    assert (info.misses, info.currsize) == (engine._FAMILIES + 1, engine._FAMILIES)
    assert not walked(spec(Z2, 2, 3))        # a hit makes (Z2, 2) the most recent
    assert walked(spec(Z3, 1, 2))            # and (Z2, 3), the oldest, is dropped
    assert engine._family.cache_info().hits == info.hits + 1
    assert not walked(spec(Z2, 17, 2 ** 17 - 1))
    assert not walked(spec(Z2, 2, 3))
    assert walked(spec(Z2, 3, 7))
    assert engine._family.cache_info().currsize == engine._FAMILIES


# codes too large for the old enumeration; Thm11 with k >= 2 fires on them
@pytest.mark.parametrize(
    "p,e,i_lo,thm11_k",
    [(2, 4, 0, 3), (3, 3, 18, 2), (5, 2, 19, None), (2, 5, 16, 3)],
)
def test_build_record_consistent_on_larger_codes(p, e, i_lo, thm11_k):
    f = make_field(p)
    thm11_ks = set()
    for i in range(i_lo, p ** e + 1):
        s = spec(f, e, i)
        for b in range(2, 7):
            rec = build_record(s, b)
            assert rec.db_brute is not None and rec.consistent, (p, e, i, b)
            if rec.db_closed.rule == "Thm11":
                thm11_ks.update(k for k, _ in thm11_decompositions(s, b))
    if thm11_k is not None:
        assert thm11_k in thm11_ks


# --- closed forms ----------------------------------------------------------

@pytest.mark.parametrize(
    "f,e,i,b,value,rule",
    [
        (Z5, 1, 2, 3, 5, "Prop8_e1"),
        (Z3, 2, 2, 3, 5, "Thm9"),
        (Z3, 2, 6, 2, 6, "Thm11"),
        (Z3, 2, 0, 3, 3, "Prop6"),
        (Z3, 2, 9, 4, 0, "ZeroCode"),
        (Z3, 2, 7, 2, 9, "Thm11"),
        (Z3, 2, 3, 3, 6, "Thm9"),      # i = p^(e-1), the top of the rule's range
    ],
)
def test_closed_form_rules(f, e, i, b, value, rule):
    res = closed_form_db(spec(f, e, i), b)
    assert (res.value, res.rule) == (value, rule)


def test_closed_form_prop7_interval():
    # e=2, i <= p^{e-1}, but Thm9 fails (i > b)
    res = closed_form_db(spec(Z3, 2, 3, ), 2)
    assert res.value is None
    assert res.interval == (3, 4)
    assert res.intervals[0][0] == "Prop7"


def test_closed_form_cor2_interval():
    res = closed_form_db(spec(Z3, 2, 4), 5)
    assert res.value is None
    assert res.interval == (3 + 4, 15)
    assert res.intervals[0][0] == "Cor2"


def test_each_end_of_each_sandwich_is_met_on_the_grid():
    """On the verify grid's rows, b = 2..6, each end of the Prop7 and Cor2
    intervals equals the brute-force d_b on some row, so an interval widened
    at either end fails here."""
    met = {"Prop7": set(), "Cor2": set()}
    for p, e, m in DEFAULT_GRID:
        for i in range(p ** e + 1):
            s = spec(make_field(p, m), e, i)
            for b in range(2, min(6, s.n) + 1):
                brute = min_b_weight_bruteforce(s, b)
                for source, (lo, hi) in closed_form_db(s, b).intervals:
                    if lo == brute:
                        met[source].add("lower")
                    if hi == brute:
                        met[source].add("upper")
    assert met == {"Prop7": {"lower", "upper"}, "Cor2": {"lower", "upper"}}


def _sandwiches(s, b):
    return codes.sandwiches(s, b, hamming_distance_formula(s))


def test_sandwiches():
    # for 1 <= i <= p^{e-1}, d_H = 2, so Prop7 and Cor2 give the same interval
    assert _sandwiches(spec(Z3, 2, 2), 4) == [("Prop7", (5, 8)), ("Cor2", (5, 8))]
    assert _sandwiches(spec(Z3, 2, 4), 5) == [("Cor2", (7, 15))]
    assert _sandwiches(spec(Z3, 2, 9), 2) == []


def test_thm11_decomposition_params():
    s = spec(Z3, 2, 7)  # 7 = 9 - 3 + 1 -> k=1, i'=1
    assert thm11_decompositions(s, 2) == [(1, 1)]


def _thm11_by_k_search(p, e, i, b):
    """Every k in 1..e-1 tried against the rule's hypotheses, as the rule once did."""
    n = p ** e
    out = []
    for k in range(1, e):
        i2 = i - (n - p ** (e - k))
        if 0 <= i2 <= p ** (e - k - 1) and b + i2 <= p ** (e - k) and i2 <= b:
            out.append((k, i2))
    return out


SPLIT_SPECS = [(p, e) for p in (2, 3, 5, 7, 11, 13)
               for e in range(1, 12) if p ** e <= 2000]


@pytest.mark.parametrize("p,e", SPLIT_SPECS)
def test_split_matches_the_searches(p, e):
    f = make_field(p)
    for i in range(p ** e + 1):
        s = spec(f, e, i)
        assert hamming_distance_formula(s) == _hamming_by_branch_search(p, e, i), i
        for b in range(2, 13):
            assert thm11_decompositions(s, b) == _thm11_by_k_search(p, e, i, b), (i, b)


LARGEST_E = {2: 8192, 3: 5168, 5: 3528, 7: 2918}     # the largest p^e <= 2^8192


@pytest.mark.parametrize("p,i", [
    (2, 1), (2, 2 ** 8191), (2, 2 ** 8192 - 2 ** 100), (2, 2 ** 8192 - 1),
    (3, 3 ** 5168 - 9), (3, 3 ** 5168 - 5), (3, 3 ** 5168 - 3), (3, 3 ** 5168 - 1),
], ids=["1", "n/2", "n-2^100", "n-1", "3:n-9", "3:n-5", "3:n-3", "3:n-1"])
def test_split_matches_the_searches_at_the_largest_length(p, i):
    e = LARGEST_E[p]
    s = spec(make_field(p), e, i)
    assert hamming_distance_formula(s) == _hamming_by_branch_search(p, e, i)
    for b in (2, 3):
        assert thm11_decompositions(s, b) == _thm11_by_k_search(p, e, i, b)


@pytest.mark.parametrize("p", sorted(LARGEST_E))
def test_split_at_every_power_of_p(p):
    """n - i = p^d - 1, p^d and p^d + 1 for every d: where a float log of
    n - i rounds across an integer, the step must still be exact."""
    e, f = LARGEST_E[p], make_field(p)
    n = p ** e
    for d in range(1, e):
        power = p ** d
        for rest, step in ((power - 1, power // p), (power, power), (power + 1, power)):
            k = e - 1 - (d - (rest < power))
            split = codes._split(spec(f, e, n - rest))
            assert split == (k, p * step - rest, step), (d, rest - power)


@pytest.mark.parametrize("f,e", [(Z2, 2), (Z2, 3), (Z3, 1), (Z3, 2), (Z5, 1)])
def test_closed_forms_vs_bruteforce(f, e):
    n = f.p ** e
    for i in range(n + 1):
        s = spec(f, e, i)
        for b in range(2, min(6, n) + 1):
            res = closed_form_db(s, b)
            brute = min_b_weight_bruteforce(s, b)
            if res.value is not None:
                assert res.value == brute, (f.p, e, i, b, res.rule)
            elif res.interval is not None:
                assert res.interval[0] <= brute <= res.interval[1]


def test_nesting_monotonicity():
    for b in (2, 3, 4):
        values = [min_b_weight_bruteforce(spec(Z3, 2, i), b) for i in range(9)]
        assert values == sorted(values)


def test_generator_weight_attainment():
    # w_b((x-1)^i) = i + b whenever i + b <= p^e, provided no internal zero
    # run of (x-1)^i reaches length b; guaranteed when i < p (full binomial
    # support) or i <= b, the two regimes in which the attainment is used
    for f, e in [(Z3, 2), (Z2, 3), (Z5, 1)]:
        n = f.p ** e
        for i in range(n):
            w = to_word(f, xminus1_pow(f, i), n)
            for b in range(1, n - i + 1):
                if i < f.p or i <= b:
                    assert weight_b_oracle(w, b) == i + b


# --- weight decomposition (periodic codewords) -----------------------------

def test_lemma10_case1_example():
    g = poly(Z3, [2, 1])  # x - 1
    assert lemma10_weight(Z3, 2, 1, g, 2) == 9
    # matches the direct weight of (x-1)^7
    w = to_word(Z3, xminus1_pow(Z3, 7), 9)
    assert weight_b_oracle(w, 2) == 9


def test_lemma10_case2_example():
    g = poly(Z3, [2, 1])
    assert lemma10_weight(Z3, 2, 1, g, 3) == 9
    assert weight_b_oracle(lemma10_codeword(Z3, 2, 1, g), 3) == 9


def test_lemma10_constant_g():
    g = poly(Z3, [2])
    for b in range(2, 4):
        assert lemma10_weight(Z3, 2, 1, g, b) == 3 * b


def test_lemma10_errors():
    g = poly(Z3, [1, 1, 1])  # degree 2 >= p^{e-k} = 3? no; use degree 3
    g3 = poly(Z3, [1, 0, 0, 1])
    with pytest.raises(InvalidParameterError, match=r"deg\(g\)=3 must be < 3"):
        lemma10_weight(Z3, 2, 1, g3, 2)
    with pytest.raises(InvalidParameterError, match=r"b=4 must be <= p\^\(e-k\) = 3"):
        lemma10_weight(Z3, 2, 1, g, 4)  # b > p^{e-k} = 3


def test_lemma10_bad_parameters_are_invalid_parameter_errors():
    # (2, 1, 0) is not a polynomial: read as degree 2 it gave 6, not 9
    g = poly(Z3, [2, 1])
    for call in (lambda: lemma10_weight(Z3, 2, 0, g, 2),     # k outside 1..e-1
                 lambda: lemma10_weight(Z3, 2, 2, g, 2),
                 lambda: lemma10_weight(Z3, 2, 1, (), 2),    # g = 0
                 lambda: lemma10_weight(Z3, 2, 1, (2, 1, 0), 3)):   # untrimmed
        with pytest.raises(InvalidParameterError) as info:
            call()
        assert isinstance(info.value, BsymError) and isinstance(info.value, ValueError)


def test_lemma10_exhaustive_small():
    for f, e in [(Z2, 2), (Z2, 3), (Z3, 2)]:
        p = f.p
        for k in range(1, e):
            period = p ** (e - k)
            for d in range(period):
                for coeffs in itertools.product(range(p), repeat=d):
                    for lead in range(1, p):
                        g = poly(f, list(coeffs) + [lead])
                        for b in range(2, period + 1):
                            assert lemma10_weight(f, e, k, g, b) == (
                                weight_b_oracle(lemma10_codeword(f, e, k, g), b)
                            )


# --- records ---------------------------------------------------------------

def test_build_record_thm11_row():
    rec = build_record(spec(Z3, 2, 7), 2)
    assert rec.dH_formula == 6
    assert rec.db_closed.value == 9 and rec.db_closed.rule == "Thm11"
    assert rec.db_brute == 9
    assert rec.consistent


def test_build_record_zero_code():
    rec = build_record(spec(Z3, 2, 9), 3)
    assert rec.dH_formula == 0 and rec.db_closed.value == 0 and rec.consistent


def test_build_record_interval_row():
    rec = build_record(spec(Z3, 2, 4), 5)
    assert rec.db_closed.value is None
    assert rec.db_closed.interval == (7, 15)
    assert rec.consistent


# --- the shared consistency check ------------------------------------------

def test_check_row_kinds():
    rec = build_record(spec(Z3, 1, 0), 2)          # Prop6 and Prop8_e1 both fire
    assert rec.db_closed.exact[1:] == [("Prop8_e1", 2)]
    assert rec.checks == [
        ("overlap", ["Prop6", 2], ["Prop8_e1", 2], True),
        ("rule", 2, 2, True),
        ("cor2", [2, 2], 2, True),
        ("singleton", 2, 2, True),
    ]
    rec = build_record(spec(Z3, 2, 4), 5)          # Cor2 interval row
    assert rec.checks == [("interval", [7, 15], 9, True), ("cor2", [7, 15], 9, True),
                          ("singleton", 9, 9, True)]


def test_check_row_without_brute_tests_the_exact_value():
    rec = build_record(spec(Z3, 2, 1), 2, with_brute=False)   # Thm9 gives 3
    assert rec.db_brute is None
    assert rec.checks == [("prop7", [3, 4], 3, True), ("cor2", [3, 4], 3, True),
                          ("singleton", 3, 3, True)]
    # an interval row has no value to test without brute force
    assert build_record(spec(Z3, 2, 4), 5, with_brute=False).checks == []


def test_singleton_claim_fails_above_i_plus_b():
    # C_1 of length 9 over F_3 at b = 2: d_b <= min(9, 1 + 2) = 3
    s = spec(Z3, 2, 1)
    above = codes.ClosedFormResult([("Thm9", 4)], [])
    assert codes.check_row(s, 2, above, None) == [("singleton", 3, 4, False)]
    assert codes.check_row(s, 2, above, 4)[-1] == ("singleton", 3, 4, False)
    # the bound is n when i + b passes it
    assert codes.check_row(spec(Z3, 2, 8), 3, above, 9) == [
        ("rule", 9, 4, False), ("singleton", 9, 9, True)]


def test_thm9_and_prop8_e1_rows_are_b_symbol_mds():
    """Thm9 and Prop8_e1 give i + b with i + b <= n: the Singleton bound
    holds with equality, so every row they decide is b-symbol MDS."""
    decided = Counter()
    for p, e in [(2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 1), (7, 1)]:
        f = make_field(p)
        for i in range(p ** e + 1):
            for b in range(2, p ** e + 1):
                rec = build_record(spec(f, e, i), b, with_brute=False)
                if rec.db_closed.rule in ("Thm9", "Prop8_e1"):
                    assert ("singleton", i + b, i + b, True) in rec.checks, (p, e, i, b)
                    decided[rec.db_closed.rule] += 1
    assert decided["Thm9"] > 100 and decided["Prop8_e1"] > 10, decided


def test_disagreeing_rules_fail_the_overlap_check(monkeypatch):
    # a wrong Thm11 that fires beside Thm9 at (p,e,m,i,b) = (3,2,1,1,2)
    monkeypatch.setattr(codes, "thm11_decompositions", lambda s, b: [(1, 0)])
    s = spec(Z3, 2, 1)
    res = closed_form_db(s, 2)
    assert (res.value, res.rule) == (3, "Thm9")
    assert res.exact[1:] == [("Thm11", 6)]
    for with_brute in (True, False):
        rec = build_record(s, 2, with_brute=with_brute)
        assert not rec.consistent
        assert [c for c in rec.checks if not c[3]] == [
            ("overlap", ["Thm9", 3], ["Thm11", 6], False)
        ]


@pytest.mark.parametrize("with_brute", [True, False])
def test_build_record_evaluates_hamming_and_sandwiches_once(monkeypatch, with_brute):
    calls = Counter()
    for name in ("hamming_distance_formula", "sandwiches"):
        def counted(*args, _name=name, _original=getattr(codes, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(codes, name, counted)
    rows = 0
    for i in range(10):
        for b in range(2, 10):
            build_record(spec(Z3, 2, i), b, with_brute=with_brute)
            rows += 1
    assert calls == {"hamming_distance_formula": rows, "sandwiches": rows}


def test_build_record_is_fast_at_the_largest_length():
    s = spec(Z2, 8192, 2 ** 8192 - 1)     # the split divides n down 8191 times
    t0 = time.perf_counter()
    rec = build_record(s, 2, with_brute=False)
    assert time.perf_counter() - t0 < 0.1
    # the repetition code: d_H = n, and neither an exact rule nor a sandwich holds
    assert rec.dH_formula == s.n
    assert (rec.db_closed.exact, rec.db_closed.intervals, rec.checks) == ([], [], [])


def test_wrong_sandwich_fails_the_cor2_check(monkeypatch):
    monkeypatch.setattr(codes, "sandwiches",
                        lambda s, b, d_h: [("Cor2", (s.n + 1, s.n + 1))])
    for with_brute in (True, False):
        rec = build_record(spec(Z3, 2, 7), 2, with_brute=with_brute)   # Thm11: 9
        assert not rec.consistent
        assert [c for c in rec.checks if not c[3]] == [("cor2", [10, 10], 9, False)]
