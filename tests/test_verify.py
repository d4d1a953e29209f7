import dataclasses
import json
import random

import pytest

from bsym import bsymbol, cli, codes, verify
from bsym.errors import InvalidParameterError
from bsym.verify import SuiteConfig, report_json, run_suites

SMALL = SuiteConfig(seed=7, trials=2000)


def _small_shape(mp):
    """The suite shape SMALL runs with: 100 lemma trials, the sweep to n = 8."""
    mp.setattr(SuiteConfig, "lemma_trials", 100)
    mp.setattr(SuiteConfig, "exhaustive_n_max", 8)


@pytest.fixture(scope="module")
def reports():
    with pytest.MonkeyPatch.context() as mp:
        _small_shape(mp)
        return run_suites(SMALL)


def test_all_suites_pass(reports):
    for name, rep in reports.items():
        assert rep.passed, (name, rep.failures[:3])


def test_every_rule_covered(reports):
    cov = reports["code"].coverage
    for rule in ("Prop6", "Prop8_e1", "Thm9", "Thm11", "ZeroCode"):
        assert cov.get(f"rule_{rule}", 0) >= 1, rule
    assert cov.get("hamming", 0) >= 1


def test_lemma_covers_both_cases(reports):
    cov = reports["lemma"].coverage
    assert any(k.endswith("case1") for k in cov)
    assert any(k.endswith("case2") for k in cov)


def test_bounds_coverage(reports):
    cov = reports["bounds"].coverage
    for key in ("golden_bounds", "single_symbol", "prop1_random", "cor2", "prop7",
                "monotone_b", "shift_invariance"):
        assert cov.get(key, 0) >= 1, key


def test_reports_deterministic(monkeypatch):
    _small_shape(monkeypatch)
    a = report_json(run_suites(SMALL, "formula"))
    b = report_json(run_suites(SMALL, "formula"))
    assert a == b


def test_report_json_structure(reports):
    payload = json.loads(report_json(reports))
    assert set(payload) == set(verify.SUITES)
    for rep in payload.values():
        assert rep["passed"] is True
        assert rep["failures"] == []
        assert rep["cases"] > 0


def _broken_suite_fails(monkeypatch, core):
    original = getattr(verify, core)
    monkeypatch.setattr(verify, core, lambda xs, ys, b: original(xs, ys, b) + (xs != ys))
    monkeypatch.setattr(SuiteConfig, "exhaustive_n_max", 4)
    rep = verify.run_formula_suite(SuiteConfig(seed=7, trials=50))
    return not rep.passed


def test_suite_self_check_detects_mutation(monkeypatch):
    """A broken formula core must produce failures (test of the test)."""
    assert _broken_suite_fails(monkeypatch, "_dist_formula")


def test_suite_self_check_detects_a_broken_oracle(monkeypatch):
    assert _broken_suite_fails(monkeypatch, "_dist_oracle")


@pytest.mark.parametrize("core", ["_dist_oracle", "_dist_formula"])
def test_pair_sample_checks_the_pattern_reduction(monkeypatch, core):
    """A core wrong only when x has a nonzero symbol, which the exhaustive
    sweep (x = 0) never passes it, fails the binary pair sample."""
    original = getattr(verify, core)
    monkeypatch.setattr(verify, core,
                        lambda xs, ys, b: original(xs, ys, b) + any(xs))
    monkeypatch.setattr(SuiteConfig, "exhaustive_n_max", 4)
    rep = verify.run_formula_suite(SuiteConfig(seed=7, trials=200))
    assert any(set(f["inputs"]) == {"n", "b", "x", "y"} for f in rep.failures)


def test_each_scan_is_made_once(monkeypatch):
    """The pair sample reads its expected d_b from the sweep and the sandwich
    reads the bounds suite's w_b scan, so SMALL makes exactly these scans."""
    calls = dict.fromkeys(["_dist_oracle", "_weight_oracle"], 0)

    def counting(name):
        original = getattr(bsymbol, name)

        def scan(*args):
            calls[name] += 1
            return original(*args)
        return scan

    for name in calls:
        scan = counting(name)
        monkeypatch.setattr(bsymbol, name, scan)
        monkeypatch.setattr(verify, name, scan)
    _small_shape(monkeypatch)
    run_suites(SMALL)
    sweep = sum(2 ** n * (n - 1) for n in range(2, 9))
    # one scan per sweep pattern and width, per pair sample, per random pair
    assert calls["_dist_oracle"] == sweep + 200 + 2000 == 5276
    # three per bounds trial (w_b, w_{b-1}, shifted), two per lemma instance,
    # the golden sandwich and two per single-symbol case
    assert calls["_weight_oracle"] == 3 * 2000 + 2 * 300 + 1 + 2 * 17 == 6635


def test_config_validation():
    with pytest.raises(ValueError):
        SuiteConfig(trials=0)


def test_config_refuses_trials_above_the_bound():
    assert SuiteConfig(trials=verify.MAX_TRIALS).trials == 10 ** 7
    with pytest.raises(InvalidParameterError, match="trials=10000001"):
        SuiteConfig(trials=verify.MAX_TRIALS + 1)


def test_config_holds_only_seed_trials_and_cap():
    """The suite shape is fixed: class constants, not fields."""
    assert [f.name for f in dataclasses.fields(SuiteConfig)] == ["seed", "trials", "cap"]
    assert SuiteConfig(seed=42, trials=100_000).grid == verify.DEFAULT_GRID
    assert not hasattr(verify.SuiteReport("formula"), "elapsed")


def _one_code_grid(mp):
    """The code grid cut to C_i over F_3 of length 9, at b = 2 only."""
    mp.setattr(SuiteConfig, "grid", ((3, 2, 1),))
    mp.setattr(SuiteConfig, "b_max", 2)


def test_code_suite_reports_disagreeing_rules(monkeypatch):
    """A wrong Thm11 beside Thm9 at (p,e,m,i,b) = (3,2,1,1,2) is an overlap failure."""
    monkeypatch.setattr(codes, "thm11_decompositions", lambda s, b: [(1, 0)])
    _one_code_grid(monkeypatch)
    rep = verify.run_code_suite(SuiteConfig())
    assert not rep.passed
    assert {"inputs": {"p": 3, "e": 2, "m": 1, "i": 1, "b": 2, "kind": "overlap"},
            "expected": ["Thm9", 3], "actual": ["Thm11", 6]} in rep.failures


def test_code_suite_reports_a_broken_singleton_claim_without_counting_it(monkeypatch):
    """A brute minimum above min(n, i + b) fails the code suite, and the
    claim adds no coverage key and no case, so the JSON of a passing run
    does not move."""
    _one_code_grid(monkeypatch)
    clean = verify.run_code_suite(SuiteConfig())
    real = codes.min_b_weight_bruteforce
    monkeypatch.setattr(codes, "min_b_weight_bruteforce",
                        lambda s, b, cap=None: s.n + 1 if 1 < b and s.i < s.n
                        else real(s, b, cap))
    rep = verify.run_code_suite(SuiteConfig())
    assert (rep.cases, rep.coverage) == (clean.cases, clean.coverage)
    singleton = [f for f in rep.failures if f["inputs"]["kind"] == "singleton"]
    assert len(singleton) == 9
    assert {"inputs": {"p": 3, "e": 2, "m": 1, "i": 0, "b": 2, "kind": "singleton"},
            "expected": 2, "actual": 10} in singleton


def test_bounds_suite_reports_a_wrong_cor2(monkeypatch):
    monkeypatch.setattr(codes, "sandwiches",
                        lambda s, b, d_h: [("Cor2", (s.n + 1, s.n + 1))])
    _one_code_grid(monkeypatch)
    rep = verify.run_bounds_suite(SuiteConfig(trials=10))
    assert not rep.passed
    assert {f["inputs"]["kind"] for f in rep.failures} == {"cor2"}
    assert rep.coverage["cor2"] == 10 and "prop7" not in rep.coverage


def _off_by_one(mp):
    """A formula core one too high and a sandwich handed a b-weight scan one
    too low, on a small formula sweep and the one-code grid."""
    formula, bounds = verify._dist_formula, verify._bounds
    mp.setattr(verify, "_dist_formula", lambda xs, ys, b: formula(xs, ys, b) + 1)
    mp.setattr(verify, "_bounds", lambda s, b, w_b: bounds(s, b, w_b - 1))
    mp.setattr(SuiteConfig, "exhaustive_n_max", 4)
    _one_code_grid(mp)


def test_failures_of_byte_words_are_int_lists(monkeypatch):
    """The seeded words are bytes; every failure lists them as ints, so the
    report is JSON."""
    _off_by_one(monkeypatch)
    cfg = SuiteConfig(seed=7, trials=50)
    reports = {"formula": verify.run_formula_suite(cfg),
               "bounds": verify.run_bounds_suite(cfg)}
    payload = json.loads(report_json(reports))
    words = [f["inputs"][key] for rep in payload.values() for f in rep["failures"]
             for key in ("x", "y") if key in f["inputs"]]
    assert {rep["passed"] for rep in payload.values()} == {False}
    assert {key for f in payload["bounds"]["failures"] for key in f["inputs"]} >= {"x"}
    assert len(words) > 50
    assert all(type(w) is list and all(type(v) is int for v in w) for w in words)


@pytest.mark.parametrize("suite", ["formula", "bounds"])
def test_verify_exits_2_on_failures_of_byte_words(monkeypatch, capsys, suite):
    _off_by_one(monkeypatch)
    code = cli.main(["verify", "--suite", suite, "--seed", "7", "--trials", "50"])
    out, err = capsys.readouterr()
    assert code == 2 and err == ""
    assert json.loads(out)[suite]["passed"] is False


def _draw_both(stream, ref, plan, readers):
    """Run `plan` on the stream and on plain randrange calls of `ref`; each
    step is ("below", k) or ("trial", qs, n_lo, n_span, count).  A trial is
    read off `readers[step]`, a live _Stream.trials generator of that shape,
    so one reader's trials interleave with `below` and other readers; its
    words are one bytes string of the randrange values."""
    for step in plan:
        if step[0] == "below":
            k = step[1]
            assert stream.below(k) == ref.randrange(k), step
        else:
            _, qs, n_lo, n_span, count = step
            q = qs if isinstance(qs, int) else qs[ref.randrange(len(qs))]
            n = n_lo + ref.randrange(n_span)
            b = 2 + ref.randrange(n - 1)
            symbols = bytes(ref.randrange(q) for _ in range(n * count))
            if step not in readers:
                readers[step] = stream.trials(qs, n_lo, n_span, count)
            trial = next(readers[step])
            assert type(trial[3]) is bytes, step
            assert trial == (q, n, b, symbols), step


def _assert_same_state(stream, seed, ref):
    """`consumed` is the number of outputs the randrange calls drew."""
    third = random.Random(seed)
    third.getrandbits(32 * stream.consumed)
    assert third.getstate() == ref.getstate()


def _shapes(q):
    """(qs, n_lo, n_span) of trials: q drawn from one or several values or
    given with no draw, n fixed, short or up to 256."""
    return [(q, 2, 1), ((q,), 2, 29), ((3, q), 3, 28), ((q, 2, 5, q), 2, 60),
            (q, 100, 157)]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9, 16, 200, 255])
def test_random_word_is_the_randrange_stream(q):
    """_Stream.trials and _Stream.below, interleaved, give randrange's values;
    each shape's reader is read twice, once in each round of the plan."""
    for seed in range(300):
        pick = random.Random(-1 - seed)
        steps = [("trial", *shape, pick.randint(1, 3)) for shape in _shapes(q)]
        plan = []
        for step in steps + steps:
            plan += [("below", pick.randint(1, 255)), step]
        stream, ref = verify._Stream(random.Random(seed)), random.Random(seed)
        _draw_both(stream, ref, plan, {})
        _assert_same_state(stream, seed, ref)


def _random_plan_across_blocks(stream, ref, pick, q, blocks):
    """Random steps until `blocks` blocks are used; how many straddled one."""
    straddled, readers = 0, {}
    while stream.consumed < blocks * verify._BLOCK:
        step = (("below", pick.randint(1, 255)) if pick.random() < 0.5
                else ("trial", *pick.choice(_shapes(q)), pick.randint(1, 3)))
        first = stream.consumed              # index of the next output
        _draw_both(stream, ref, [step], readers)
        last = stream.consumed - 1
        straddled += first // verify._BLOCK < last // verify._BLOCK
    return straddled


@pytest.mark.parametrize("q", [2, 3, 200])
def test_stream_draws_across_block_boundaries(q):
    """Draws that start in one block of outputs and end in the next keep the
    unread tail of the block."""
    straddled = 0
    for seed in range(4):
        pick = random.Random(-1 - seed)
        stream, ref = verify._Stream(random.Random(seed)), random.Random(seed)
        straddled += _random_plan_across_blocks(stream, ref, pick, q, 3)
        _assert_same_state(stream, seed, ref)
    assert straddled >= 4          # the plan does cross the boundaries


@pytest.mark.parametrize("q", [2, 3, 200])
def test_stream_rereads_a_trial_that_runs_past_the_block(monkeypatch, q):
    """With a block of 5 outputs nearly every trial runs past it, in its
    header or its words, and is read again from its start."""
    monkeypatch.setattr(verify, "_BLOCK", 5)
    straddled = 0
    for seed in range(20):
        pick = random.Random(-1 - seed)
        stream, ref = verify._Stream(random.Random(seed)), random.Random(seed)
        straddled += _random_plan_across_blocks(stream, ref, pick, q, 1000)
        _assert_same_state(stream, seed, ref)
    assert straddled >= 200


@pytest.mark.parametrize("q", [0, 1, 256])
def test_random_word_refuses_q_outside_a_byte(q):
    with pytest.raises(InvalidParameterError):
        next(verify._Stream(random.Random(0)).trials(q, 2, 5, 1))


@pytest.mark.parametrize("qs,n_lo,n_span", [
    ((), 2, 5), ((3,) * 256, 2, 5),                 # 0 or 256 values of q
    (3, 2, 0), (3, 2, 256), (3, 1, 5), (3, 200, 58),  # n range empty, too wide,
])                                                   # below 2 or above 256
def test_stream_trial_refuses_draws_outside_a_byte(qs, n_lo, n_span):
    with pytest.raises(InvalidParameterError):
        next(verify._Stream(random.Random(0)).trials(qs, n_lo, n_span, 1))
@pytest.mark.parametrize("k", [0, 256])
def test_stream_below_refuses_k_outside_a_byte(k):
    with pytest.raises(InvalidParameterError):
        verify._Stream(random.Random(0)).below(k)
