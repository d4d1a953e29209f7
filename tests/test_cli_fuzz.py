"""The exit contract of `bsym` over its argument grammar.

Every subcommand is driven in process with small, zero, negative, huge and
malformed integers, malformed ranges, words and caps, and argument lists
with no grammar at all.
Whatever the input, main() returns 0, 1 or 2, raises nothing, and on 1
prints exactly one line on stderr and nothing on stdout.

Some values set how much work is asked for, so a large accepted one is a long
run, not a bad input.  The grammar keeps them out: the enumeration cap is
always small (`code`, `table` and `verify` always get a `--cap`), `--trials`
only small, zero or negative, `table` always gets an `--i` range (without one
it has p^e + 1 rows), and no accepted length p^e comes near 2^8192, where a
row takes about 0.1 s.  Each example must end within TIME_BOUND_S.  Under the
default cap, a brute-force row of a code with few codewords of length 2^40 or
2^200 is refused with one line, not built.
"""

import contextlib
import io
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsym import gf
from bsym.cli import main

TIME_BOUND_S = 5
HUGE = [8193, 2 ** 61 - 1, 10 ** 18 + 3, 10 ** 30, gf.MR_LIMIT, 2 ** 8192 + 1]
small = st.integers(-3, 9)
text = st.text("0123456789,.-x ", max_size=12)
# the repeats weight the draws towards input that gets past the first check
ints = st.one_of(small, small, small,
                 st.sampled_from(HUGE + [-h for h in HUGE]),
                 st.integers(10 ** 12, 10 ** 40), text)
primes = st.one_of(st.sampled_from([2, 3, 5, 7]), st.sampled_from([2, 3, 5, 7]),
                   st.sampled_from([2 ** 61 - 1, 10 ** 18 + 3]), ints)
pairs = st.tuples(small, small).map(lambda ab: f"{ab[0]}..{ab[1]}")
ranges = st.one_of(
    pairs, pairs, small.map(str),
    st.tuples(ints, ints).map(lambda ab: f"{ab[0]}..{ab[1]}"),
    st.sampled_from(["", "..", "1..", "..3", "a..b", "1...3", "1..2..3", "1.5", "--1"]),
    text,
)
valid_words = st.lists(small, min_size=1, max_size=12).map(lambda s: ",".join(map(str, s)))
words = st.one_of(
    valid_words, valid_words,
    st.lists(ints, min_size=1, max_size=12).map(lambda s: ",".join(map(str, s))),
    st.sampled_from(["", ",", "1,,2", "x", "1;2", "0, 1"]), text)
caps = st.integers(-2, 300).map(str)
any_caps = st.one_of(caps, caps, caps, st.sampled_from(["abc", "1.5", " 7", "-0", "0x10"]))


def _command(name, required, optional):
    """`name`, every required option and some of the optional ones, each as
    --name=value, or --name for a value of None."""
    return st.fixed_dictionaries(required, optional=optional).map(
        lambda d: [name] + [f"--{k}" if v is None else f"--{k}={v}"
                            for k, v in ((k.replace("_", "-"), v) for k, v in d.items())])


def _commands(ints, primes, words, ranges):
    return [
        _command("pi", {"b": ints, "word": words}, {}),
        _command("dist", {"b": ints, "x": words, "y": words},
                 {"method": st.sampled_from(["formula", "oracle", "both"])}),
        _command("code", {"p": primes, "e": ints, "i": ints, "b": ints, "cap": any_caps},
                 {"m": ints,
                  "method": st.sampled_from(["closed", "brute"])}),
        _command("table", {"p": primes, "e": ints, "b": ranges, "i": ranges,
                           "cap": any_caps},
                 {"m": ints,
                  "format": st.sampled_from(["csv", "json"]), "no_brute": st.none()}),
    ]


def _word(n, lo=0):
    return st.lists(st.integers(lo, 3), min_size=n, max_size=n).map(
        lambda s: ",".join(map(str, s)))


def _range(lo, hi):
    return st.tuples(st.integers(lo, hi), st.integers(lo, hi)).map(
        lambda ab: f"{min(ab)}..{max(ab)}")


# every value plausible, so that most of these commands run to the end
lengths = st.integers(1, 8)
code_options = {"p": st.sampled_from([2, 3, 5]), "e": st.integers(1, 3)}
plausible = [
    lengths.flatmap(lambda n: _command(
        "pi", {"b": st.integers(1, n), "word": _word(n)}, {})),
    lengths.flatmap(lambda n: _command(
        "dist", {"b": st.integers(1, n), "x": _word(n), "y": _word(n)}, {})),
    _command("code", {**code_options, "i": st.integers(0, 9), "b": st.integers(2, 6),
                      "method": st.sampled_from(["closed", "brute"]), "cap": caps},
             {}),
    _command("table", {**code_options, "b": _range(2, 5), "i": _range(0, 9), "cap": caps},
             {"no_brute": st.none()}),
    _command("code", {"p": st.sampled_from([2 ** 61 - 1, 10 ** 18 + 3]),
                      "e": st.integers(1, 2), "i": st.integers(10 ** 6, 10 ** 18),
                      "b": st.integers(2, 6), "method": st.just("closed"), "cap": caps},
             {}),
]
quick_commands = st.one_of(
    *plausible, *plausible,
    *_commands(ints, primes, words, ranges),
    st.lists(st.sampled_from(["pi", "code", "table", "--p", "--b", "--i", "--x", "3",
                              "-1", "x", "--", "--method=brute", "--format=xml"]),
             max_size=6),
)
# words with negative symbols, each given as its own argument after its option
spaced_words = [
    lengths.flatmap(lambda n: st.tuples(st.integers(1, n), _word(n, -3), _word(n, -3)).map(
        lambda bxy: ["dist", "--b", str(bxy[0]), "--x", bxy[1], "--y", bxy[2]])),
    lengths.flatmap(lambda n: st.tuples(st.integers(1, n), _word(n, -3)).map(
        lambda bw: ["pi", "--word", bw[1], "--b", str(bw[0])])),
]
verify_commands = _command(
    "verify", {"trials": small, "cap": any_caps},
    {"suite": st.sampled_from(["all", "formula", "code", "lemma", "bounds"]),
     "seed": ints})


def _bounded(max_examples):
    return settings(max_examples=max_examples, derandomize=True, database=None,
                    deadline=None)


class _TooSlow(BaseException):
    """Raised by the alarm; main() catches no BaseException, so it escapes."""


def _too_slow(signum, frame):
    raise _TooSlow(f"an example ran past {TIME_BOUND_S} s")


def _check(argv):
    """main(argv), which must keep the exit contract within TIME_BOUND_S."""
    out, err = io.StringIO(), io.StringIO()
    handler = signal.signal(signal.SIGALRM, _too_slow)
    signal.alarm(TIME_BOUND_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
    assert code in (0, 1, 2), argv
    if code == 1:
        assert err.getvalue().count("\n") == 1 and out.getvalue() == "", argv
    return code, out.getvalue()


@_bounded(200)
@given(argv=quick_commands)
def test_any_arguments_keep_the_exit_contract(argv):
    _check(argv)


@_bounded(10)
@given(argv=verify_commands)
def test_any_verify_arguments_keep_the_exit_contract(argv):
    _check(argv)


@_bounded(50)
@given(argv=st.one_of(*spaced_words))
def test_a_word_that_starts_with_a_minus_sign_is_read_as_a_word(argv):
    """--x -1,2,0 gives the word, as --x=-1,2,0 does: the command succeeds."""
    code, out = _check(argv)
    assert code == 0, argv
    assert out.endswith("match=true\n") if argv[0] == "dist" else out, argv


# a few codewords of length 2^40 or 2^200: within the default cap, but each
# word packs into more bits than the engine takes
LONG_CODES = [(e, str(2 ** e - 3)) for e in (40, 200)]


@pytest.mark.parametrize("argv", [
    *(["code", "--p", "2", "--e", str(e), "--i", i, "--b", "2", "--method", "brute"]
      for e, i in LONG_CODES),
    *(["table", "--p", "2", "--e", str(e), "--b", "2", "--i", f"{i}..{i}"]
      for e, i in LONG_CODES),
], ids=[f"{cmd}-e{e}" for cmd in ("code", "table") for e, _ in LONG_CODES])
def test_a_long_code_is_refused_under_the_default_cap(argv):
    assert _check(argv) == (1, "")


def test_a_code_over_a_large_prime_runs_in_time():
    """(x - 1)^(p-1) over F_10007 is built in linear time; with exact
    binomials, about p^2/2 of them, it took about 16 s on 2 vCPU."""
    code, out = _check(["code", "--p", "10007", "--e", "1", "--i", "10006",
                        "--b", "2", "--method", "brute"])
    assert code == 0 and out.endswith(" db_brute=10007 consistent=True\n")
