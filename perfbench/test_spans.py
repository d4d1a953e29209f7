"""Tests of the benchmark's tracer: self-time arithmetic and binding coverage.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import types
import unittest
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class SelfTimeTest(unittest.TestCase):
    def setUp(self):
        self.clock = FakeClock()
        self.tracer = spans.Tracer(clock=self.clock)

    def test_self_time_subtracts_direct_children(self):
        clock, t = self.clock, self.tracer

        def leaf():
            clock.advance(2)

        leaf = t.wrap("low", leaf)

        def mid():
            clock.advance(1)
            leaf()
            clock.advance(3)

        mid = t.wrap("mid", mid)

        def top():
            clock.advance(5)
            mid()
            leaf()

        t.wrap("top", top)()

        top_st, mid_st, leaf_st = t.get("top", "top"), t.get("mid", "mid"), t.get("low", "leaf")
        self.assertEqual((top_st.calls, top_st.total_s, top_st.self_s), (1, 13.0, 5.0))
        self.assertEqual((mid_st.calls, mid_st.total_s, mid_st.self_s), (1, 6.0, 4.0))
        self.assertEqual((leaf_st.calls, leaf_st.total_s, leaf_st.self_s), (2, 4.0, 4.0))
        # self times partition the root span
        self.assertEqual(sum(st.self_s for st in t.stats.values()), 13.0)
        self.assertEqual(t.edges[(("top", "top"), ("low", "leaf"))], 1)
        self.assertEqual(t.edges[(("mid", "mid"), ("low", "leaf"))], 1)
        self.assertEqual(t.edges[(spans.ROOT, ("top", "top"))], 1)
        self.assertEqual(t.stack, [[spans.ROOT, 13.0]])

    def test_recursion_within_one_layer_is_not_counted_twice(self):
        clock, t = self.clock, self.tracer

        def rec(k):
            clock.advance(1)
            if k:
                wrapped(k - 1)

        wrapped = t.wrap("r", rec)
        wrapped(3)
        st = t.get("r", "rec")
        self.assertEqual((st.calls, st.self_s), (4, 4.0))
        self.assertEqual(st.total_s, 4.0 + 3.0 + 2.0 + 1.0)
        self.assertEqual(t.layer_totals("r"), (4, 4.0))

    def test_generator_spans_cover_resumptions_only(self):
        clock, t = self.clock, self.tracer
        leaf = t.wrap("low", lambda: clock.advance(2))

        def gen(n):
            for i in range(n):
                clock.advance(1)
                leaf()
                yield i

        gen = t.wrap("g", gen)

        def consume():
            for _ in gen(3):
                clock.advance(10)  # consumer time belongs to the consumer

        t.wrap("c", consume)()
        g, c = t.get("g", "gen"), t.get("c", "consume")
        self.assertEqual((g.calls, g.yields), (1, 3))
        self.assertEqual((g.total_s, g.self_s), (9.0, 3.0))
        self.assertEqual((c.total_s, c.self_s), (39.0, 30.0))
        # three resumptions yield, the fourth ends the generator
        self.assertEqual(t.edges[(("c", "consume"), ("g", "gen"))], 4)

    def test_generator_closed_early_and_errors(self):
        clock, t = self.clock, self.tracer
        closed = []

        def gen():
            try:
                while True:
                    clock.advance(1)
                    yield 0
            finally:
                closed.append(True)

        gen = t.wrap("g", gen)
        it = gen()
        next(it)
        next(it)
        it.close()
        self.assertEqual(closed, [True])
        self.assertEqual(t.get("g", "gen").yields, 2)

        def refuse():
            clock.advance(1)
            raise OverflowError("too many")
            yield  # pragma: no cover

        refuse = t.wrap("g", refuse)
        with self.assertRaises(OverflowError):
            list(refuse())
        st = t.get("g", "refuse")
        self.assertEqual((st.calls, st.yields, st.errors), (1, 0, {"OverflowError": 1}))
        self.assertEqual(st.total_s, 1.0)
        self.assertEqual(len(t.stack), 1)

    def test_on_return_hook_sees_arguments_and_result(self):
        seen = []
        f = self.tracer.wrap("h", lambda a, b=0: a + b,
                             on_return=lambda args, kwargs, r: seen.append((args, kwargs, r)))
        f(1, b=2)
        self.assertEqual(seen, [((1,), {"b": 2}, 3)])


def _module(name, source, namespace=None):
    mod = types.ModuleType(name)
    mod.__dict__.update(namespace or {})
    exec(source, mod.__dict__)
    return mod


class InstallTest(unittest.TestCase):
    def test_every_binding_and_dispatch_entry_is_wrapped(self):
        low = _module("pkg.low", "def f():\n    return 1\n\ndef _private():\n    return 2\n")
        high = _module(
            "pkg.high",
            "def g():\n    return alias() + low.f()\n\nTABLE = {'g': g, 'f': alias}\n",
            {"alias": low.f, "low": low},
        )
        t = spans.Tracer()
        wrappers = spans.install(t, {"low": low, "high": high}, [low, high])
        self.assertEqual(set(wrappers), {low.f.__wrapped__, high.g.__wrapped__})
        self.assertEqual(spans.unwrapped_bindings(wrappers, [low, high]), [])
        self.assertIs(high.alias, low.f)
        self.assertIs(high.TABLE["f"], low.f)
        self.assertFalse(hasattr(low._private, "__wrapped__"))

        high.TABLE["g"]()
        self.assertEqual(t.get("high", "g").calls, 1)
        self.assertEqual(t.get("low", "f").calls, 2)
        self.assertEqual(t.edges[(("high", "g"), ("low", "f"))], 2)

    def test_unwrapped_bindings_reports_misses(self):
        low = _module("pkg.low", "def f():\n    return 1\n")
        original = low.f
        other = _module("pkg.other", "", {"keep": original, "REG": {"k": original}})
        wrappers = spans.install(spans.Tracer(), {"low": low}, [low])
        self.assertEqual(spans.unwrapped_bindings(wrappers, [other]),
                         ["pkg.other.keep", "pkg.other.REG['k']"])


class TracedPassTest(unittest.TestCase):
    """The traced child on a code small enough to count by hand."""

    def test_counts_on_a_small_code(self):
        env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
        out = subprocess.run(
            [sys.executable, str(HERE / "inproc.py"), "pass", "--trace", "--",
             "code", "--p", "2", "--e", "2", "--i", "1", "--b", "2", "--method", "brute"],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        ).stdout
        result = json.loads(out)
        layers = result["layers"]
        self.assertEqual(result["rc"], 0)
        self.assertIn("db_brute=3 consistent=True", result["stdout"])
        # C_1 of length 4 over F_2 has dimension 3: 8 codewords, 7 nonzero
        self.assertEqual(layers["codes.enumerations"], 1)
        self.assertEqual(layers["codes.codewords"], 8)
        self.assertEqual(layers["codes.brute_calls"], 1)
        self.assertEqual(layers["codes.weight_scans"], 7)  # no early exit: d_2 = 3 > b
        self.assertEqual(layers["codes.early_exits"], 0)
        self.assertGreater(layers["gf.calls"], 0)
        self.assertGreater(layers["cli.self_s"], 0)


if __name__ == "__main__":
    unittest.main()
