"""Golden stdout of the CLI and the demos, pinned by sha256.

Each command runs in a fresh interpreter with PYTHONPATH=src.  The digests
fix the exact bytes of the verify JSON for three seeds, the CSV/JSON tables,
the closed-form sweeps without brute force (up to length 2^8192, and its
last ten rows, where the index split is deepest), a table over F_25, one
brute-force row over F_9 (and that row as a CSV and a JSON table), one over
a generator of degree 4080, the word paths of `pi` and `dist`, and the three
demos; any change to them is a change of output, not a refactoring.  The three benchmark workloads are among them, each with the
digest of perfbench/recorded.json: `verify --suite all --seed 42 --trials
100000` (1,653 refills of the seeded streams), `table --p 2 --e 4 --b 2..6
--format csv` and the F_9 brute-force row.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CLI = ["-m", "bsym.cli"]
N = 2 ** 8192
LAST_ROWS = f"{N - 9}..{N}"
DIST = ["dist", "--b", "4", "--x", "0,0,1,3,0,5,0,0,0,2,0,7,0,0,0",
        "--y", "0,0,0,0,0,0,0,0,0,0,0,0,0,0,0"]

GOLDEN = [
    (CLI + ["verify", "--seed", "42", "--trials", "2000"],
     "d869fb9d8077b578f7d12a79e3783dfb7b46f253e38a703a03aeb91ce9fac0c3"),
    (CLI + ["verify", "--suite", "all", "--seed", "42", "--trials", "100000"],
     "a6859eb15c66f574dd26aa728433cdc6e7af88aaa692ebcd09c3afa65a40a226"),
    (CLI + ["verify", "--suite", "formula", "--seed", "7", "--trials", "20000"],
     "d25b6b764edace698b5678c1eba0af439f1186436c35b0ec63f615b8c71bbd36"),
    (CLI + ["verify", "--suite", "bounds", "--seed", "123", "--trials", "20000"],
     "6a793f9d94d25d40f1dc8b55170f374d8cce07257cb6ce6d55b709fbe284a8a6"),
    (CLI + ["table", "--p", "3", "--e", "2", "--b", "2..3", "--format", "csv"],
     "4cd7aed51d0055f8ba29025797c8eadd2c31702fe5d6158ddc041b726b81e895"),
    (CLI + ["table", "--p", "2", "--e", "4", "--b", "2..6", "--format", "csv"],
     "cd2ae992df469bb39561b76c5be7141e0218e8965f1e0cd1d9223fd342e17f70"),
    (CLI + ["table", "--p", "2", "--e", "3", "--m", "2", "--b", "2..4",
            "--format", "json"],
     "a590a7b1b820cac98f8202ff906294d7e7892d4bc469c17329cf648bf4aa6385"),
    (CLI + ["table", "--p", "5", "--e", "1", "--m", "2", "--b", "2..5", "--i", "2..5",
            "--format", "csv"],
     "9b86a1596114167e3491fda6886a63da67b1681637fd94a91c7e23a453496914"),
    (CLI + ["code", "--p", "3", "--e", "2", "--m", "2", "--i", "4", "--b", "2",
            "--method", "brute"],
     "a4c3b615e80fe8edc2ecede615bf2fbb78eb501a0e0ce36670b52f2842f6ce8e"),
    (CLI + ["table", "--p", "3", "--e", "2", "--m", "2", "--i", "4..4", "--b", "2",
            "--format", "csv"],
     "f44e87d4e3500802f3f8b973803834ff1d2811e9472f2925a84f01e2c3b48b29"),
    (CLI + ["table", "--p", "3", "--e", "2", "--m", "2", "--i", "4..4", "--b", "2",
            "--format", "json"],
     "d35a0a7cd36d593cf45e194bf07ae27c6061058a0a12e027cd35950edd18f477"),
    (CLI + ["code", "--p", "2", "--e", "12", "--i", "4080", "--b", "2",
            "--method", "brute"],
     "f65c2dca45b14f7ea534a7817d4c4d072ddc09fb647ff093f335e3da3eb03187"),
    (CLI + ["table", "--p", "2", "--e", "12", "--b", "2..3", "--no-brute",
            "--format", "csv"],
     "b28463dab089f75b1d6753031eb1944ae390df6336458e49f7e8375d2ae2b1c4"),
    (CLI + ["table", "--p", "2", "--e", "12", "--b", "2..3", "--no-brute",
            "--format", "json"],
     "c115fb96b5658e3c53021fdade68e6834f79ba1a44c8c48a3f40987d1c27dc87"),
    (CLI + ["table", "--p", "2", "--e", "8192", "--b", "2", "--i", "0..19",
            "--no-brute", "--format", "csv"],
     "1ff552322a0e86307cc464b30ba1e6f0eb788c769d82beb1750dd6c4d4159b66"),
    (CLI + ["table", "--p", "2", "--e", "8192", "--b", "2..3", "--i", LAST_ROWS,
            "--no-brute", "--format", "csv"],
     "3114a884edd5d9250ef3892723e95688c2de43965b9bc7d87489eb606270b20d"),
    (CLI + ["pi", "--b", "2", "--word", "1,2,3"],
     "9ce21b567710ebe092009192e7a1209a43adc68a0279e5eeb7970cc87bdce2af"),
    (CLI + ["pi", "--b", "2", "--word=-1,0,5"],
     "904ddd6d78831ba7fabaae7cd129eb0695483bcce9610f555b0739194c9cd08e"),
    (CLI + DIST + ["--method", "both"],
     "a42edfd71b1ddc5aa836cbb4eb4dc2bda3688d3495790f963399a405bde5e3d3"),
    (CLI + DIST + ["--method", "formula"],
     "1a252402972f6057fa53cc172b52b9ffca698e18311facd0f3b06ecaaef79e17"),
    (CLI + DIST + ["--method", "oracle"],
     "1a252402972f6057fa53cc172b52b9ffca698e18311facd0f3b06ecaaef79e17"),
    (["demos/code_distance_table.py"],
     "7d1c3936478ef71b9debca85acd8883dcc81a0c8350779f103a387553d4bad2e"),
    (["demos/run_partition_walkthrough.py"],
     "f668f35525f127478e7e8cb739587131c7e8d8af0fdd42de6083749f48da0a84"),
    (["demos/weight_decomposition.py"],
     "4876fc97ddae55a8b460fda9272669e89fc0b6b7e58659973bccaf7dd799d7bb"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN,
                         ids=[" ".join(argv).replace(LAST_ROWS, "<n-9>..<n>")
                              for argv, _ in GOLDEN])
def test_stdout_digest(argv, digest):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == digest
