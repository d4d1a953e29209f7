"""The benchmark's set-up probe and traced pass run on this tree.

perfbench/inproc.py wraps every public function of every layer and refuses to
run when a module-level binding or dispatch entry is left unwrapped, so a
refactor that the span tracer cannot follow fails here, not in the benchmark.
Its set-up probe builds what each workload's command would build; if it fails,
nothing is measured.  The workload command lines, the child environment and
the checkout check are read from perfbench/run.py itself.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_runner():
    """perfbench/run.py as a module; it imports its sibling speedprobe.py."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_run", ROOT / "perfbench" / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return module


RUNNER = _load_runner()
WORKLOADS = {name: argv(42) for name, argv in RUNNER.WORKLOADS.items()}


def _inproc(mode, argv, *flags):
    """One benchmark child, as perfbench/run.py starts it: its JSON line."""
    proc = subprocess.run(RUNNER.inproc_cmd(mode, argv, *flags), cwd=ROOT,
                          env=RUNNER.child_env(), capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_traced_table_pass():
    result = _inproc("pass", ["table", "--p", "2", "--e", "3", "--b", "2..3",
                              "--format", "csv"], "--trace")
    assert result["rc"] == 0
    # the wrappers saw the work: one brute-force minimum per row, 9 codes x 2 widths
    assert result["layers"]["codes.brute_calls"] == 18


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_setup_probe(workload):
    result = _inproc("setup", WORKLOADS[workload])
    # the benchmark's own check: bsym was imported from this checkout's src/
    assert RUNNER.checkout_error(result["bsym_file"]) is None


@pytest.mark.parametrize("argv", [
    WORKLOADS["brute"],
    ["verify", "--suite", "all", "--seed", "42", "--trials", "200"],
], ids=["brute", "verify"])
def test_traced_pass(argv):
    assert _inproc("pass", argv, "--trace")["rc"] == 0
