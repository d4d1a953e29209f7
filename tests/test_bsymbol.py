import itertools
import random
from operator import ne, xor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsym import gf
from bsym.bsymbol import (
    _dist_formula,
    _dist_oracle,
    _lanes,
    _weight_oracle,
    check_bounds,
    dist_b_formula,
    dist_b_oracle,
    pi_b,
    run_partition,
    weight_b_formula,
    weight_b_oracle,
    windows_b,
)
from bsym.errors import InvalidParameterError
from bsym.gf import make_field
from bsym.polyring import to_word, xminus1_pow

GOLDEN = (0, 0, 1, 3, 0, 5, 0, 0, 0, 2, 0, 7, 0, 0, 0)


def rand_word_pair(draw_n=st.integers(2, 12), q=3):
    return st.integers(2, 12).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
            st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
            st.integers(2, n),
        )
    )


# --- pi_b -----------------------------------------------------------------

def test_pi_b_golden_windows():
    windows = pi_b(GOLDEN, 4)
    assert windows[0] == (0, 0, 1, 3)
    assert windows[1] == (0, 1, 3, 0)
    assert (0, 0, 0, 1) in windows
    assert len(windows) == 15


def test_pi_1_is_identity():
    w = (1, 0, 2, 2)
    assert [t[0] for t in pi_b(w, 1)] == list(w)


def test_pi_full_wraparound():
    w = ("a", "b", "c")
    assert pi_b(w, 3) == [("a", "b", "c"), ("b", "c", "a"), ("c", "a", "b")]


def test_pi_width_out_of_range():
    with pytest.raises(InvalidParameterError, match="b=4 outside 1..3 for length n=3"):
        pi_b((1, 2, 3), 4)


def test_windows_b_is_pi_b_one_window_at_a_time():
    windows = windows_b(GOLDEN, 4)
    assert next(windows) == (0, 0, 1, 3)
    assert [(0, 0, 1, 3), *windows] == pi_b(GOLDEN, 4)
    with pytest.raises(InvalidParameterError, match="b=4 outside 1..3"):
        windows_b((1, 2, 3), 4)          # at the call, before any window


# --- weights --------------------------------------------------------------

def test_golden_weight():
    assert weight_b_oracle(GOLDEN, 4) == 13
    assert weight_b_formula(GOLDEN, 4) == 13


def test_zero_word_weight():
    assert weight_b_oracle((0,) * 8, 3) == 0
    assert weight_b_formula((0,) * 8, 3) == 0


def test_periodic_word_weight():
    # zeros isolated, so every length-3 window hits a nonzero
    w = (2, 1, 0, 2, 1, 0, 2, 1, 0)
    assert weight_b_oracle(w, 3) == 9


def test_xminus1_sq_weight_formula():
    f = make_field(3)
    w = to_word(f, xminus1_pow(f, 2), 9)
    assert weight_b_formula(w, 3) == 5
    assert weight_b_oracle(w, 3) == 5


# --- run partition --------------------------------------------------------

def test_golden_partition():
    zero = (0,) * 15
    part = run_partition(GOLDEN, zero, 4)
    assert part.L == 2
    assert part.agreement_excess == 2
    assert not part.full_circle
    run_index_sets = {frozenset(r.indices()) for r in part.runs}
    assert run_index_sets == {frozenset({2, 3, 4, 5}), frozenset({9, 10, 11})}
    gap_index_sets = {frozenset(g.indices()) for g in part.gaps}
    assert gap_index_sets == {frozenset({12, 13, 14, 0, 1}), frozenset({6, 7, 8})}


def test_partition_equal_words():
    w = (1, 2, 3, 4)
    part = run_partition(w, w, 2)
    assert part.runs == ()
    assert len(part.gaps) == 1 and part.gaps[0].length == 4


def test_partition_full_circle():
    # disagreements at {0, 3}: agreement runs of length 2 < b-1 = 3
    x = (1, 0, 0, 1, 0, 0)
    y = (0,) * 6
    part = run_partition(x, y, 4)
    assert part.full_circle
    assert part.L == 1
    assert part.gaps == ()


def test_partition_run_endpoints_are_disagreements():
    for xm in range(1, 2 ** 8):
        x = tuple((xm >> j) & 1 for j in range(8))
        y = (0,) * 8
        for b in range(2, 9):
            part = run_partition(x, y, b)
            if part.full_circle:
                continue
            for r in part.runs:
                assert x[r.start] != 0
                assert x[(r.start + r.length - 1) % 8] != 0
            for g in part.gaps:
                assert g.length >= b - 1


def _maximal_runs(flags):
    """Maximal circular runs of True as (start, length), by start."""
    n = len(flags)
    if all(flags):
        return [(0, n)]
    out = []
    for j in range(n):
        if flags[j] and not flags[j - 1]:
            length = 0
            while flags[(j + length) % n]:
                length += 1
            out.append((j, length))
    return out


def _naive_partition(xs, ys, b):
    """(gaps, runs, L, agreement_excess, full_circle) by scanning positions."""
    n = len(xs)
    agree = [s == t for s, t in zip(xs, ys)]
    if all(agree):
        return [(0, n)], [], 0, 0, False
    gaps = [(s, ln) for s, ln in _maximal_runs(agree) if ln >= b - 1]
    in_gap = [False] * n
    for s, ln in gaps:
        for t in range(ln):
            in_gap[(s + t) % n] = True
    if not gaps:
        runs = [(agree.index(False), n)]
    else:
        runs = _maximal_runs([not g for g in in_gap])
    trapped = sum(1 for j in range(n) if agree[j] and not in_gap[j])
    return gaps, runs, len(runs), trapped, not gaps


def _partition_tuples(part):
    return ([(g.start, g.length) for g in part.gaps],
            [(r.start, r.length) for r in part.runs],
            part.L, part.agreement_excess, part.full_circle)


def test_partition_is_complete_and_maximal():
    seen = {"equal": 0, "full_circle": 0, "split": 0}

    def check(xs, ys, b):
        expected = _naive_partition(xs, ys, b)
        assert _partition_tuples(run_partition(xs, ys, b)) == expected
        _, runs, _, _, full_circle = expected
        seen["equal" if not runs else "full_circle" if full_circle else "split"] += 1

    for n in range(2, 9):
        zero = (0,) * n
        for mask in range(2 ** n):
            x = tuple((mask >> j) & 1 for j in range(n))
            for b in range(2, n + 1):
                check(x, zero, b)
    rng = random.Random(5)
    for _ in range(400):
        q = rng.choice((3, 4))
        n = rng.randrange(2, 31)
        x = tuple(rng.randrange(q) for _ in range(n))
        y = x if rng.random() < 0.05 else tuple(rng.randrange(q) for _ in range(n))
        for b in range(2, n + 1):
            check(x, y, b)
    assert min(seen.values()) > 0, seen


# --- distances ------------------------------------------------------------

def test_dist_b1_is_hamming():
    x, y = (1, 2, 0, 1), (1, 0, 0, 2)
    assert dist_b_oracle(x, y, 1) == 2
    assert dist_b_formula(x, y, 1) == 2


def test_dist_identity():
    w = (1, 2, 3)
    assert dist_b_oracle(w, w, 2) == 0
    assert dist_b_formula(w, w, 2) == 0


def test_dist_full_circle_guard():
    # every circular 4-window covers position 0 or 3
    x = (1, 0, 0, 1, 0, 0)
    y = (0,) * 6
    assert dist_b_oracle(x, y, 4) == 6
    assert dist_b_formula(x, y, 4) == 6


def test_golden_formula_decomposition():
    zero = (0,) * 15
    assert dist_b_formula(GOLDEN, zero, 4) == 5 + 2 + 2 * 3


def test_length_mismatch():
    with pytest.raises(InvalidParameterError, match="lengths 2 != 3"):
        dist_b_oracle((1, 2), (1, 2, 3), 2)


def test_formula_oracle_exhaustive_binary():
    for n in range(2, 9):
        zero = (0,) * n
        for mask in range(2 ** n):
            y = tuple((mask >> j) & 1 for j in range(n))
            for b in range(2, n + 1):
                assert dist_b_formula(zero, y, b) == dist_b_oracle(zero, y, b)


@given(rand_word_pair())
@settings(max_examples=300)
def test_formula_oracle_random_q3(data):
    xs, ys, b = data
    x, y = tuple(xs), tuple(ys)
    assert dist_b_formula(x, y, b) == dist_b_oracle(x, y, b)


def _binary_words(n):
    return [tuple((mask >> j) & 1 for j in range(n)) for mask in range(2 ** n)]


def test_oracles_are_the_window_definition_binary():
    """Every binary pair with n <= 8 at every b: the oracles count the windows
    j where pi_b(x)[j] != pi_b(y)[j], and the windows of pi_b(x) that are not
    all zero."""
    for n in range(1, 9):
        words = _binary_words(n)
        for b in range(1, n + 1):
            windows = [pi_b(w, b) for w in words]
            zero = (0,) * b
            for x, wx in zip(words, windows):
                assert _weight_oracle(x, b) == sum(u != zero for u in wx)
                for y, wy in zip(words, windows):
                    assert _dist_oracle(x, y, b) == sum(map(ne, wx, wy))


def test_oracles_are_the_window_definition_seeded():
    """Seeded q = 3, 4, 5 pairs with n <= 30 at every b up to n; half of the
    pairs differ in at most three positions, so most windows agree on their
    first symbol and the rest of the window decides."""
    rng = random.Random(19)
    for trial in range(300):
        q = (3, 4, 5)[trial % 3]
        n = rng.randrange(1, 31)
        x = tuple(rng.randrange(q) for _ in range(n))
        if trial % 2:
            y = tuple(rng.randrange(q) for _ in range(n))
        else:
            y = list(x)
            for j in rng.sample(range(n), min(n, rng.randrange(1, 4))):
                y[j] = (y[j] + 1 + rng.randrange(q - 1)) % q
            y = tuple(y)
        for b in range(1, n + 1):
            wx, wy = pi_b(x, b), pi_b(y, b)
            assert _dist_oracle(x, y, b) == sum(map(ne, wx, wy))
            assert _weight_oracle(x, b) == sum(u != (0,) * b for u in wx)
            assert _weight_oracle(y, b) == sum(u != (0,) * b for u in wy)


def _sparse_word(rng, n, marks, q=3):
    """Zeros but for nonzero symbols at `marks` random positions, one of
    them near each end of the word, so windows that wrap around hold one."""
    x = [0] * n
    for j in rng.sample(range(64, n - 64), marks) + [rng.randrange(64),
                                                     n - 1 - rng.randrange(64)]:
        x[j] = 1 + rng.randrange(q - 1)
    return tuple(x)


def test_oracles_are_the_window_definition_at_large_n():
    """Sparse seeded words of length 4096, so that most wide windows are all
    zero or agree: the oracles count what windows_b gives, at widths on each
    side of a power of two and at n."""
    rng = random.Random(4096)
    n = 4096
    x = _sparse_word(rng, n, 10)
    y = tuple(s ^ z for s, z in zip(x, _sparse_word(rng, n, 6)))
    for b in (1, 2, 255, 256, 257, n):
        zero = (0,) * b
        wx = wy = d = 0
        for u, v in zip(windows_b(x, b), windows_b(y, b)):
            wx, wy, d = wx + (u != zero), wy + (v != zero), d + (u != v)
        assert (weight_b_oracle(x, b), weight_b_oracle(y, b)) == (wx, wy), b
        assert dist_b_oracle(x, y, b) == dist_b_oracle(bytes(x), bytes(y), b) == d, b
        assert 0 < d < n or b == n


_BYTE_EDGES = (0, 1, 127, 128, 129, 255)


def _window_counts(x, y, b):
    """(w_b(x), w_b(y), d_b(x, y)) counted over windows_b."""
    zero = (0,) * b
    wx, wy = list(windows_b(x, b)), list(windows_b(y, b))
    return (sum(u != zero for u in wx), sum(v != zero for v in wy),
            sum(map(ne, wx, wy)))


def _assert_oracles_count_windows(x, y):
    """Both oracles, on tuples and on bytes, at every b."""
    for b in range(1, len(x) + 1):
        expected = _window_counts(x, y, b)
        for u, v in ((x, y), (bytes(x), bytes(y))):
            got = _weight_oracle(u, b), _weight_oracle(v, b), _dist_oracle(u, v, b)
            assert got == expected, (x, y, b)


def test_oracles_read_every_byte_value():
    """Words over 0, 1, 127, 128, 129 and 255, the values on each side of a
    byte lane's high bit: a lane of 0x80 alone, or 0xFF next to a zero lane
    (a carry out of it would mark its neighbour), must count as the windows
    do.  Every pair with n <= 3, then seeded pairs with n <= 40."""
    for n in range(1, 4):
        words = list(itertools.product(_BYTE_EDGES, repeat=n))
        for b in range(1, n + 1):
            windows = [pi_b(w, b) for w in words]
            zero = (0,) * b
            for x, wx in zip(words, windows):
                expected = sum(u != zero for u in wx)
                assert _weight_oracle(x, b) == _weight_oracle(bytes(x), b) == expected
                for y, wy in zip(words, windows):
                    expected = sum(map(ne, wx, wy))
                    assert _dist_oracle(x, y, b) == expected, (x, y, b)
                    assert _dist_oracle(bytes(x), bytes(y), b) == expected, (x, y, b)
    rng = random.Random(23)
    for _ in range(2000):
        n = rng.randrange(1, 41)
        x = tuple(rng.choice(_BYTE_EDGES) for _ in range(n))
        if rng.randrange(2):         # a near-copy: most lanes of the XOR are 0
            y = list(x)
            y[rng.randrange(n)] = rng.choice(_BYTE_EDGES)
            y = tuple(y)
        else:
            y = tuple(rng.choice(_BYTE_EDGES) for _ in range(n))
        _assert_oracles_count_windows(x, y)


@pytest.mark.parametrize("x,y", [
    ((300, 2, 0), (-1, 2, 0)),
    ((300, 0, 0, 0, 7), (44, 0, 0, 0, 7)),           # equal low bytes
    ((-1, 0, 0, 0), (255, 0, 0, 0)),                 # equal two's complement byte
    ((256, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0)),      # low byte 0
    ((2 ** 64 + 1, 0, 5, 0, 0), (1, 0, 5, 0, 0)),
    ((0, 0, 300, 0, 1, 0), (0, 0, 300, 0, 0, 0)),    # a wide symbol on both, equal
    ((-1, 128, 0, 2 ** 64 + 1), (-1, 0, 0, 2 ** 64 + 1)),
    ((0, 0, 0, 0, 0, 256), (0, 0, 0, 0, 0, 256)),
])
def test_oracles_fall_back_to_marks_past_one_byte(x, y):
    """A symbol outside 0..255 in either word: int.from_bytes refuses the word
    and the oracles mark each position by comparing symbols, so a symbol that
    shares its low byte with another still differs from it."""
    for b in range(1, len(x) + 1):
        wx, wy, d = _window_counts(x, y, b)
        assert (weight_b_oracle(x, b), weight_b_oracle(y, b)) == (wx, wy), b
        assert dist_b_oracle(x, y, b) == dist_b_oracle(y, x, b) == d, b
        assert dist_b_formula(x, y, b) == d, b


def test_oracles_take_symbols_that_are_not_ints():
    x, y = ("a", "", "b", "", ""), ("a", "c", "", "", "")
    for b in range(1, 6):
        wx = sum(any(u) for u in windows_b(x, b))
        assert weight_b_oracle(x, b) == wx
        assert dist_b_oracle(x, y, b) == sum(map(ne, windows_b(x, b), windows_b(y, b)))


def test_lane_masks_are_kept_for_at_most_64_lengths():
    x = (0, 200, 0)
    for n in range(1, 200):
        word = x + (0,) * (n - 1)
        assert weight_b_oracle(word, 2) == 2 and _lanes.cache_info().currsize <= 64
    assert weight_b_oracle(x, 2) == 2 and dist_b_oracle(x, (0, 0, 0), 3) == 3


# widths 2^k - 1, 2^k and 2^k + 1, and word lengths n <= 40 around them
_DOUBLING_WIDTHS = (1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33)
_DOUBLING_LENGTHS = (1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 32, 33, 40)


def _one_run_pair(n, start, length):
    """(x, y, z): byte-valued words that agree exactly at the circular run
    start, ..., start+length-1, and z = x ^ y, zero exactly on that run."""
    run = {(start + t) % n for t in range(length)}
    x = tuple(37 * t % 256 for t in range(n))
    z = tuple(0 if t in run else (1, 128, 255, 64)[t % 4] for t in range(n))
    return x, tuple(map(xor, x, z)), z


def test_oracles_at_the_doubling_boundaries():
    """Pairs with exactly one agreeing run, at every start (across n-1 -> 0
    too) and at lengths around b, at widths 2^k - 1, 2^k and 2^k + 1: the
    agreement AND covers window j by shifts of 1, 2, 4, ... lanes and one of
    b - span, and stops when nothing is left.  A run of n - 1 (one
    disagreement) makes every shift count; no agreement at all stops at the
    first AND; equal words give 0.  Both oracles, on tuples and bytes, count
    what windows_b gives."""
    seen = set()
    for n in _DOUBLING_LENGTHS:
        for b in (w for w in _DOUBLING_WIDTHS if w <= n):
            for length in {0, 1, b - 2, b - 1, b, b + 1, n - 1, n}:
                if not 0 <= length <= n:
                    continue
                for start in range(n if 0 < length < n else 1):
                    x, y, z = _one_run_pair(n, start, length)
                    expected = sum(map(ne, windows_b(x, b), windows_b(y, b)))
                    got = (_dist_oracle(x, y, b), _dist_oracle(bytes(x), bytes(y), b),
                           _weight_oracle(z, b), _weight_oracle(bytes(z), b))
                    assert got == (expected,) * 4, (n, b, start, length)
                    seen.add((length == 0, length == n, expected == n))
    assert seen == {(True, False, True), (False, True, False),
                    (False, False, True), (False, False, False)}


def _agreeing_at(x, positions, q=3):
    """A word that agrees with x exactly at the given positions."""
    return tuple(s if j in positions else (s + 1) % q for j, s in enumerate(x))


def test_formula_no_gap_shortcut_boundary():
    """Pairs with b - 2, b - 1 and b agreeing positions, in one run or split
    into two runs.  Up to b - 1 agreements leave no window that agrees, so
    d_b = n; b consecutive agreements make one window agree, so d_b = n - 1."""
    rng = random.Random(7)
    seen = 0
    for n in range(3, 13):
        for b in range(2, n + 1):
            for a in (b - 2, b - 1, b):
                if a < 0 or a > n - 2:
                    continue
                head = (a + 1) // 2
                for positions, expected in (
                    (set(range(a)), n - 1 if a == b else n),
                    (set(range(head)) | set(range(head + 1, a + 1)), n),
                ):
                    x = tuple(rng.randrange(3) for _ in range(n))
                    y = _agreeing_at(x, positions)
                    assert sum(u == v for u, v in zip(x, y)) == a
                    assert _dist_oracle(x, y, b) == expected
                    assert _dist_formula(x, y, b) == expected
                    seen += 1
    assert seen > 300


def test_metric_axioms_small():
    n, q = 4, 2
    words = [tuple((m >> j) & 1 for j in range(n)) for m in range(q ** n)]
    for b in range(2, n + 1):
        for x, y in itertools.product(words, repeat=2):
            dxy = dist_b_oracle(x, y, b)
            assert dxy == dist_b_oracle(y, x, b)
            assert (dxy == 0) == (x == y)
        for x, y, z in itertools.product(words, repeat=3):
            assert dist_b_oracle(x, z, b) <= (
                dist_b_oracle(x, y, b) + dist_b_oracle(y, z, b)
            )


@given(st.lists(st.integers(0, 2), min_size=3, max_size=15), st.data())
@settings(max_examples=300)
def test_weight_monotone_in_b(symbols, data):
    w = tuple(symbols)
    b = data.draw(st.integers(2, len(w)))
    assert weight_b_oracle(w, b) >= weight_b_oracle(w, b - 1)


@given(st.lists(st.integers(0, 3), min_size=2, max_size=15), st.data())
@settings(max_examples=300)
def test_weight_shift_invariance(symbols, data):
    w = tuple(symbols)
    n = len(w)
    b = data.draw(st.integers(1, n))
    s = data.draw(st.integers(0, n - 1))
    shifted = w[n - s:] + w[:n - s]   # j -> j + s
    assert weight_b_oracle(shifted, b) == weight_b_oracle(w, b)


def test_weight_scalar_invariance():
    f = make_field(5)
    w = (0, 2, 0, 3, 1, 0, 0)
    for alpha in range(1, 5):
        scaled = tuple(gf.mul(f, alpha, s) for s in w)
        for b in range(1, 8):
            assert weight_b_oracle(scaled, b) == weight_b_oracle(w, b)


def test_difference_identity():
    x = (1, 0, 2, 0, 1, 0)
    y = (0, 0, 2, 1, 1, 2)
    diff = tuple((a - c) % 3 for a, c in zip(x, y))      # x - y over F_3
    for b in range(1, 7):
        assert dist_b_oracle(x, y, b) == weight_b_oracle(diff, b)


def test_saturation():
    # w_b = n iff no circular zero run of length >= b
    for mask in range(1, 2 ** 7):
        w = tuple((mask >> j) & 1 for j in range(7))
        for b in range(1, 8):
            flags = [s == 0 for s in w]
            has_long_zero_run = any(
                all(flags[(j + t) % 7] for t in range(b)) for j in range(7)
            )
            assert (weight_b_oracle(w, b) == 7) == (not has_long_zero_run)


# --- bounds ---------------------------------------------------------------

def test_golden_bounds():
    lower, upper, holds = check_bounds(GOLDEN, 4)
    assert (lower, upper, holds) == (8, 20, True)


def test_single_symbol_bounds_tight():
    for n in (5, 9):
        for b in range(2, n + 1):
            w = tuple(1 if j == 0 else 0 for j in range(n))
            lower, upper, holds = check_bounds(w, b)
            assert holds and lower == b == weight_b_oracle(w, b)


def test_xminus1_bound_z3():
    f = make_field(3)
    w = to_word(f, xminus1_pow(f, 1), 9)
    lower, upper, holds = check_bounds(w, 2)
    assert (lower, upper) == (3, 4)
    assert weight_b_oracle(w, 2) == 3
    assert holds


def test_bounds_hypothesis_violated():
    with pytest.raises(InvalidParameterError, match=r"hamming weight 0 outside \(0, 2\]"):
        check_bounds((0, 0, 0), 2)
    with pytest.raises(InvalidParameterError, match=r"hamming weight 4 outside \(0, 2\]"):
        check_bounds((1, 1, 1, 1), 3)  # w_H > n - (b-1)
