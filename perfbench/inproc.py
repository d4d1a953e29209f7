"""Child process of the benchmark: a set-up probe, or one in-process pass.

    python3 perfbench/inproc.py setup -- BSYM_ARGS...
    python3 perfbench/inproc.py pass [--trace] -- BSYM_ARGS...

Run it with PYTHONPATH set to the checkout's src/.  `setup` imports bsym.cli
and builds the fields and code specs the command would use, then exits.
`pass` runs `bsym.cli.main(BSYM_ARGS)` once in this process with stdout
captured; with --trace it first wraps the public functions of every layer
(see spans.py) and reports per-layer figures.  Either mode prints one JSON
line.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

import spans

LAYERS = ("gf", "polyring", "bsymbol", "codes", "verify", "cli")
SUITE_FUNCTIONS = {
    "formula": "run_formula_suite",
    "code": "run_code_suite",
    "lemma": "run_lemma_suite",
    "bounds": "run_bounds_suite",
}


def _options(argv):
    """{"--p": "3", ...} from a subcommand followed by `--key value` pairs."""
    return dict(zip(argv[1::2], argv[2::2]))


def setup(argv) -> dict:
    import bsym
    import bsym.cli  # noqa: F401  (the import is part of what is measured)
    from bsym import CyclicCodeSpec, make_field, verify

    opts = _options(argv)
    if argv[0] == "verify":
        cfg = verify.SuiteConfig(seed=int(opts["--seed"]), trials=int(opts["--trials"]))
        for p, e, m in cfg.grid:
            f = make_field(p, m)
            for i in range(p ** e + 1):
                CyclicCodeSpec(f, e, i)
        for p, _ in verify.LEMMA_GRID:
            make_field(p, 1)
    else:
        p, e, m = int(opts["--p"]), int(opts["--e"]), int(opts.get("--m", 1))
        f = make_field(p, m)
        i_values = [int(opts["--i"])] if "--i" in opts else range(p ** e + 1)
        for i in i_values:
            CyclicCodeSpec(f, e, i)
    return {"bsym_file": bsym.__file__}


def _bsym_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "bsym" or name.startswith("bsym.")]


def _install_tracer():
    modules = {m.__name__: m for m in _bsym_modules()}
    tracer = spans.Tracer()
    early_exits = [0]

    def count_early_exit(args, kwargs, result):
        # min_b_weight_bruteforce stops scanning once some codeword has w_b == b
        b = args[1] if len(args) > 1 else kwargs["b"]
        if result == b:
            early_exits[0] += 1

    wrappers = spans.install(
        tracer,
        {layer: modules[f"bsym.{layer}"] for layer in LAYERS},
        modules.values(),
        hooks={("codes", "min_b_weight_bruteforce"): count_early_exit},
    )
    missed = spans.unwrapped_bindings(wrappers, modules.values())
    if missed:
        raise SystemExit(f"tracer left bindings unwrapped: {missed}")
    return tracer, early_exits


def _per_layer(tracer, early_exits, argv, stdout, import_s) -> dict:
    out = {}
    for layer in ("gf", "polyring", "bsymbol"):
        out[f"{layer}.calls"], out[f"{layer}.self_s"] = tracer.layer_totals(layer)
    out["gf.mul_calls"] = tracer.get("gf", "mul").calls
    out["gf.ns_per_call"] = out["gf.self_s"] / out["gf.calls"] * 1e9 if out["gf.calls"] else 0.0
    out["bsymbol.us_per_call"] = (
        out["bsymbol.self_s"] / out["bsymbol.calls"] * 1e6 if out["bsymbol.calls"] else 0.0
    )

    enum = tracer.get("codes", "enumerate_codewords")
    brute_b = ("codes", "min_b_weight_bruteforce")
    out["codes.enumerations"] = enum.calls
    out["codes.codewords"] = enum.yields
    out["codes.brute_calls"] = (
        tracer.get(*brute_b).calls
        + tracer.get("codes", "min_hamming_weight_bruteforce").calls
    )
    out["codes.weight_scans"] = tracer.edges.get((brute_b, ("bsymbol", "weight_b_oracle")), 0)
    out["codes.scans_per_codeword"] = (
        out["codes.weight_scans"] / out["codes.codewords"] if out["codes.codewords"] else 0.0
    )
    out["codes.early_exits"] = early_exits[0]
    out["codes.cap_refusals"] = enum.errors.get("EnumerationTooLargeError", 0)
    out["codes.self_s"] = tracer.layer_totals("codes")[1]
    out["codes.enum_s"] = enum.total_s

    for suite, fn in SUITE_FUNCTIONS.items():
        out[f"verify.{suite}_s"] = tracer.get("verify", fn).total_s
    out["verify.self_s"] = tracer.layer_totals("verify")[1]
    out["verify.cases"] = (
        sum(r["cases"] for r in json.loads(stdout).values()) if argv[0] == "verify" else 0
    )
    out["cli.self_s"] = tracer.layer_totals("cli")[1]
    out["cli.import_s"] = import_s
    return out


def run_pass(argv, traced: bool) -> dict:
    t0 = time.perf_counter()
    import bsym
    import bsym.cli
    import_s = time.perf_counter() - t0

    if traced:
        tracer, early_exits = _install_tracer()
    captured = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(captured):
        rc = bsym.cli.main(argv)
    wall_s = time.perf_counter() - t0

    stdout = captured.getvalue()
    result = {"rc": rc, "wall_s": wall_s, "stdout": stdout, "bsym_file": bsym.__file__}
    if traced:
        result["layers"] = _per_layer(tracer, early_exits, argv, stdout, import_s)
    return result


def main(args) -> int:
    mode = args[0]
    sep = args.index("--")
    flags, argv = args[1:sep], args[sep + 1:]
    if mode == "setup":
        result = setup(argv)
    elif mode == "pass":
        result = run_pass(argv, traced="--trace" in flags)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
