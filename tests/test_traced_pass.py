"""The benchmark's traced pass runs on this tree.

perfbench/inproc.py wraps every public function of every layer and refuses to
run when a module-level binding or dispatch entry is left unwrapped, so a
refactor that the span tracer cannot follow fails here, not in the benchmark.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_table_pass():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("BSYM_CAP", None)
    proc = subprocess.run(
        [sys.executable, "perfbench/inproc.py", "pass", "--trace", "--",
         "table", "--p", "2", "--e", "3", "--b", "2..3", "--format", "csv"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["rc"] == 0
    # the wrappers saw the work: one brute-force minimum per row, 9 codes x 2 widths
    assert result["layers"]["codes.brute_calls"] == 18
