import csv
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bsym import cli, codes, gf, verify
from bsym.cli import main

GOLDEN = "0,0,1,3,0,5,0,0,0,2,0,7,0,0,0"
ZERO15 = ",".join(["0"] * 15)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_dist_golden(capsys):
    code, out, _ = run(capsys, "dist", "--b", "4", "--x", GOLDEN, "--y", ZERO15)
    assert code == 0
    assert "13" in out
    assert "match=true" in out


def test_dist_methods(capsys):
    for method in ("formula", "oracle"):
        code, out, _ = run(capsys, "dist", "--b", "4", "--x", GOLDEN,
                           "--y", ZERO15, "--method", method)
        assert code == 0 and out.strip() == "13"


def test_dist_missing_b(capsys):
    assert run(capsys, "dist", "--x", "1,0", "--y", "0,0")[0] == 1


def test_pi_output(capsys):
    code, out, _ = run(capsys, "pi", "--b", "2", "--word", "1,2,3")
    assert code == 0
    assert out.splitlines() == ["1,2", "2,3", "3,1"]


def test_parse_generic_word_is_a_tuple():
    assert cli.parse_generic_word("-1,0,5") == (-1, 0, 5)


def test_code_row(capsys):
    code, out, _ = run(capsys, "code", "--p", "3", "--e", "2", "--i", "7",
                       "--b", "2", "--method", "brute")
    assert code == 0
    assert "db_closed=9" in out and "db_brute=9" in out
    assert "consistent=True" in out


def test_code_methods_are_closed_and_brute(capsys):
    """brute, the default, prints the closed form beside the brute-force value."""
    argv = ["code", "--p", "3", "--e", "2", "--i", "7", "--b", "2"]
    assert run(capsys, *argv) == run(capsys, *argv, "--method", "brute")
    code, out, err = run(capsys, *argv, "--method", "both")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("usage error:")
    assert "invalid choice: 'both'" in err


def test_code_json(capsys):
    """One code's row as JSON is the table of one i."""
    code, out, _ = run(capsys, "table", "--p", "3", "--e", "2", "--i", "7..7",
                       "--b", "2", "--format", "json")
    assert code == 0
    row = json.loads(out)[0]
    assert row["db_rule"] == "Thm11" and row["db_brute"] == 9


def test_table_csv_row_count(capsys):
    code, out, _ = run(capsys, "table", "--p", "3", "--e", "2", "--m", "1",
                       "--b", "2..3", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["p", "e", "m", "i", "b", "n", "dim", "dH", "db_rule",
                       "db_closed", "db_lower", "db_upper", "db_brute",
                       "consistent"]
    assert len(rows) == 1 + 10 * 2  # i in 0..9, two b values


def test_table_empty_range(capsys):
    for argv in (["--b", "5..2"], ["--b", "2", "--i", "5..1"]):
        for fmt in ("csv", "json"):
            code, out, err = run(capsys, "table", "--p", "2", "--e", "3", *argv,
                                 "--format", fmt)
            assert code == 1 and out == ""
            assert err.count("\n") == 1 and "usage error: empty range" in err


def test_table_json(capsys):
    code, out, _ = run(capsys, "table", "--p", "2", "--e", "2", "--b", "2",
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 5
    assert all(r["consistent"] for r in rows)


def test_table_no_brute_rows_meet_the_singleton_bound(capsys):
    # without brute force an exact value is tested by the sandwiches and the
    # b-symbol Singleton bound d_b <= min(n, i + b) alone
    code, out, _ = run(capsys, "table", "--p", "3", "--e", "2", "--b", "2..4",
                       "--no-brute", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert {r["db_rule"] for r in rows} >= {"Thm9", "Thm11"}
    assert all(r["consistent"] for r in rows)


def test_table_extension_field(capsys):
    code, out, _ = run(capsys, "table", "--p", "2", "--e", "2", "--m", "2",
                       "--b", "2", "--format", "json")
    assert code == 0
    assert all(r["consistent"] for r in json.loads(out))


def test_verify_cli_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "--suite", "lemma", "--seed", "42",
                         "--trials", "100")
    code2, out2, _ = run(capsys, "verify", "--suite", "lemma", "--seed", "42",
                         "--trials", "100")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["lemma"]["passed"] is True


def test_verify_byte_identical_output(capsys):
    args = ["verify", "--suite", "bounds", "--seed", "5", "--trials", "200"]
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1.encode() == out2.encode()


def test_cap_option_refuses_a_larger_code(capsys):
    code, _, err = run(capsys, "code", "--p", "3", "--e", "2", "--i", "0",
                       "--b", "2", "--method", "brute", "--cap", "10")
    assert code == 1
    assert "cap" in err


def test_bad_word(capsys):
    code, _, err = run(capsys, "dist", "--b", "2", "--x", "1,zz", "--y", "0,0")
    assert code == 1 and "usage error" in err


@pytest.mark.parametrize("value", ["abc", "-1", "0", "1.5"])
def test_bad_cap_rejected(capsys, value):
    code, out, err = run(capsys, "code", "--p", "3", "--e", "2", "--i", "4",
                         "--b", "2", "--method", "brute", "--cap", value)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "--cap" in err
    assert "above the enumeration cap" not in err


def test_bad_cap_option_rejected(capsys):
    code, _, err = run(capsys, "table", "--p", "2", "--e", "2", "--b", "2",
                       "--cap", "0")
    assert code == 1 and err.count("\n") == 1 and "--cap" in err


@pytest.mark.parametrize("option", ["--b", "--i"])
def test_table_bad_range(capsys, option):
    ranges = {"--b": "2..3", "--i": "0..9", option: "2..x"}
    code, out, err = run(capsys, "table", "--p", "3", "--e", "2",
                         "--b", ranges["--b"], "--i", ranges["--i"])
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "usage error" in err and "2..x" in err


@pytest.mark.parametrize("argv,needle", [
    (["--e", "0", "--i", "0"], "e=0"),
    (["--e", "2", "--m", "0", "--i", "0"], "m=0"),
])
def test_code_bad_parameters_one_line(capsys, argv, needle):
    code, out, err = run(capsys, "code", "--p", "3", "--b", "2", *argv)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and needle in err


@pytest.mark.parametrize("argv,needle", [
    (["--p", "4", "--e", "1"], "p=4 is not prime"),
    (["--p", "3", "--e", "1", "--m", "81"], "3^81 elements is above 2^128"),
    (["--p", str(3317044064679887385961981), "--e", "1"], "too large"),
])
def test_code_refuses_field_one_line(capsys, argv, needle):
    code, out, err = run(capsys, "code", *argv, "--i", "1", "--b", "2",
                         "--method", "closed")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and needle in err


def test_code_large_prime_is_fast(capsys):
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "code", "--p", "1000000000000000003", "--e", "1",
                       "--i", "0", "--b", "2", "--method", "closed")
    assert time.perf_counter() - t0 < 1.0
    assert code == 0 and "db_rule=Prop6 db_closed=2" in out


@pytest.mark.parametrize("e", ["16000", "200000"])
@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
def test_code_refuses_a_length_above_8192_bits(capsys, e, fmt):
    """`code` prints the plain line; one row as CSV or JSON is `table --i I..I`."""
    argv = (["code", "--i", "5", "--method", "closed"] if fmt == "plain" else
            ["table", "--i", "5..5", "--no-brute", "--format", fmt])
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv, "--p", "2", "--e", e, "--b", "2")
    assert time.perf_counter() - t0 < 1.0
    assert code == 1 and out == ""
    assert err == f"error: length p^e = 2^{e} is above 2^8192\n"


def test_table_bad_e_one_line(capsys):
    code, out, err = run(capsys, "table", "--p", "3", "--e", "-1", "--b", "2")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "e=-1" in err


def test_cap_refusal_is_one_short_line(capsys):
    code, out, err = run(capsys, "code", "--p", "1009", "--e", "1", "--i", "3",
                         "--b", "2", "--method", "brute")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and len(err) < 100
    assert "1009^1006 codewords" in err


def test_verify_honours_the_cap(capsys):
    """Each grid suite skips exactly the grid codes with q^k_dim above the cap."""
    code, out, _ = run(capsys, "verify", "--suite", "all", "--seed", "42",
                       "--trials", "10", "--cap", "100")
    assert code == 0
    above = sum(gf.make_field(p, m).q ** (p ** e - i) > 100
                for p, e, m in verify.DEFAULT_GRID for i in range(p ** e + 1))
    assert above == 11
    skipped = {name: report["coverage"].get("skipped_cap")
               for name, report in json.loads(out).items()}
    assert skipped == {"code": above, "bounds": above, "formula": None, "lemma": None}


def test_verify_default_cap_skips_nothing(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "bounds", "--trials", "10")
    assert code == 0
    assert "skipped_cap" not in json.loads(out)["bounds"]["coverage"]


@pytest.mark.parametrize("value", ["abc", "0"])
def test_verify_bad_cap(capsys, value):
    code, out, err = run(capsys, "verify", "--suite", "code", "--cap", value)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "--cap" in err


def test_no_environment_variable_sets_the_cap():
    """--cap alone sets the cap: verify prints the same bytes whatever
    BSYM_ variables its environment holds."""
    root = Path(__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items() if not k.startswith("BSYM_")}
    env["PYTHONPATH"] = str(root / "src")
    argv = [sys.executable, "-m", "bsym.cli", "verify", "--suite", "code",
            "--seed", "42", "--trials", "10"]
    plain = subprocess.run(argv, env=env, capture_output=True, timeout=120)
    set_to_1 = {f"BSYM_{name}": "1" for name in ("CAP", "SEED", "TRIALS")}
    noisy = subprocess.run(argv, env={**env, **set_to_1}, capture_output=True,
                           timeout=120)
    assert plain.returncode == noisy.returncode == 0
    assert noisy.stdout == plain.stdout


def test_verify_bad_trials_one_line(capsys):
    code, out, err = run(capsys, "verify", "--trials", "0")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "trials=0" in err


def test_verify_trials_above_the_bound_one_line(capsys):
    code, out, err = run(capsys, "verify", "--trials", str(10 ** 7 + 1))
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "trials=10000001" in err


def test_code_disagreeing_rules_exit_2(monkeypatch, capsys):
    # a wrong Thm11 that fires beside Thm9 (which gives 3) with the value 6
    monkeypatch.setattr(codes, "thm11_decompositions", lambda s, b: [(1, 0)])
    code, out, err = run(capsys, "code", "--p", "3", "--e", "2", "--i", "1",
                         "--b", "2", "--method", "closed")
    assert code == 2 and err == ""
    assert "db_rule=Thm9 db_closed=3" in out and "consistent=False" in out


def test_table_wrong_sandwich_exit_2(monkeypatch, capsys):
    monkeypatch.setattr(codes, "sandwiches",
                        lambda s, b, d_h: [("Cor2", (s.n + 1, s.n + 1))])
    code, out, _ = run(capsys, "table", "--p", "3", "--e", "2", "--b", "2",
                       "--format", "json")
    assert code == 2
    assert [r["consistent"] for r in json.loads(out)] == [False] * 10


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_cap_refusal_does_not_build_the_code_size():
    # 2^(2^40 - 1) codewords; the child may not grow past 1 GiB
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "bsym.cli", "code", "--p", "2", "--e", "40",
         "--i", "1", "--b", "2"],
        env=env, capture_output=True, text=True, timeout=60, preexec_fn=_limit_memory,
    )
    assert time.perf_counter() - t0 < 1.0
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == ("error: code has 2^1099511627775 codewords, "
                           "above the enumeration cap 4194304\n")


@pytest.mark.parametrize("argv", [
    ["--p", "3", "--e", "2", "--b", "2..3"],
    ["--p", "2", "--e", "2", "--b", "3..4"],
    ["--p", "2", "--e", "3", "--b", "2", "--i", "5..5"],
])
def test_table_json_is_the_json_dump_layout(capsys, argv):
    code, out, _ = run(capsys, "table", *argv, "--format", "json")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


@pytest.mark.parametrize("argv", [
    ["--b", "2..9"],                 # b = 9 > n = 8, after the rows of b <= 8
    ["--b", "1..3"],
    ["--b", "2", "--i", "0..9"],     # i = 9 > n, after the rows of i <= 8
    ["--b", "2", "--i=-1..3"],
    ["--b", "2", "--cap", "100"],    # C_0 has 256 codewords
])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_error_writes_nothing(capsys, argv, fmt):
    code, out, err = run(capsys, "table", "--p", "2", "--e", "3", *argv,
                         "--format", fmt)
    assert code == 1 and out == "" and err.count("\n") == 1


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_names_the_given_i_above_n(capsys, fmt):
    argv = ["table", "--p", "2", "--e", "3", "--b", "2", "--i", "5..20",
            "--format", fmt]
    assert run(capsys, *argv) == (1, "", "error: i=20 outside [0, 8]\n")


@pytest.mark.parametrize("option,line", [
    ("--i", "error: i=-1 outside [0, 4]\n"),
    ("--b", "error: read width b=-1 outside 2..4 for length n=4\n"),
], ids=["i", "b"])
def test_table_takes_a_range_that_starts_with_a_minus_sign(capsys, option, line):
    """`--i -1..2` is the range -1..2, as `--i=-1..2` is, and is refused
    for its first entry, not for a missing value."""
    argv = ["table", "--p", "2", "--e", "2", *(["--b", "2"] if option == "--i" else [])]
    assert run(capsys, *argv, option, "-1..2") == (1, "", line)
    assert run(capsys, *argv, f"{option}=-1..2") == (1, "", line)


def _bsym(*argv: str, **kwargs) -> subprocess.Popen:
    """A fresh `bsym` process on the source tree."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return subprocess.Popen([sys.executable, "-m", "bsym.cli", *argv], env=env, **kwargs)


def _peak_rss_mib(*argv: str) -> float:
    """Peak RSS of a fresh `bsym` process, which must exit 0."""
    proc = _bsym(*argv, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0
    return usage.ru_maxrss / 1024        # KiB on Linux


def test_a_reader_that_stops_early_ends_the_table_quietly():
    """`bsym table ... | head -1`: the header is read, the pipe is closed, and
    bsym exits 0 with nothing on stderr."""
    proc = _bsym("table", "--p", "2", "--e", "12", "--b", "2..3", "--no-brute",
                 stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"p,e,m,i,b,")
    proc.stdout.close()
    assert proc.wait(timeout=60) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()


@pytest.mark.parametrize("buffering", [1, -1], ids=["line", "block"])
@pytest.mark.parametrize("argv", [
    ("code", "--p", "3", "--e", "2", "--i", "1", "--b", "2", "--method", "closed"),
    ("table", "--p", "3", "--e", "2", "--b", "2", "--format", "json"),
    ("verify", "--suite", "code", "--seed", "42", "--trials", "10", "--cap", "100"),
], ids=lambda argv: argv[0])
def test_a_closed_pipe_keeps_an_inconsistency_found_before_it(
        monkeypatch, capsys, argv, buffering):
    """The reader has closed stdout, at the first line written (line
    buffering) or at the closing flush (block buffering); the exit-2 status
    of a wrong sandwich survives, with nothing on stderr."""
    monkeypatch.setattr(codes, "sandwiches",
                        lambda s, b, d_h: [("Cor2", (s.n + 1, s.n + 1))])
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w", buffering=buffering) as closed:
        monkeypatch.setattr(sys, "stdout", closed)
        assert main(list(argv)) == 2
    assert capsys.readouterr().err == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_another_write_error_is_one_line_and_exit_1():
    with open("/dev/full", "w") as full:
        proc = _bsym("code", "--p", "3", "--e", "2", "--i", "4", "--b", "2",
                     stdout=full, stderr=subprocess.PIPE)
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert err == b"error: [Errno 28] No space left on device\n"


def test_table_rows_are_streamed():
    # 16x the rows from e = 12 to e = 16; a held list grew by about 48 MiB
    table = ("table", "--p", "2", "--b", "2", "--no-brute", "--format", "csv")
    assert _peak_rss_mib(*table, "--e", "16") < _peak_rss_mib(*table, "--e", "12") + 4


def test_pi_windows_are_streamed():
    # 4000 windows of 4000 symbols: holding them all took about 138 MiB,
    # against 16 MiB at b = 2.  A forked child's peak includes the RSS of
    # this process at the fork, so the bound is relative to b = 2.
    word = ",".join(str(j % 7) for j in range(4000))
    wide = _peak_rss_mib("pi", "--word", word, "--b", "4000")
    assert wide < _peak_rss_mib("pi", "--word", word, "--b", "2") + 24


@pytest.mark.parametrize("argv", [
    ["--p", "2", "--e", "8192", "--b", "2", "--no-brute"],   # 2^8192 + 1 rows
    ["--p", "2", "--e", "20", "--b", "2", "--no-brute"],     # 2^20 + 1 rows
    ["--p", "2", "--e", "16", "--b", "2..17", "--no-brute"],
    ["--p", "3", "--e", "2", "--b", "2", "--i", "0..1048576"],
])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_refuses_more_than_max_rows(capsys, argv, fmt):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "table", *argv, "--format", fmt)
    assert time.perf_counter() - t0 < 1.0
    assert code == 1 and out == ""
    assert err == (f"usage error: the table has more than {cli.MAX_TABLE_ROWS} rows: "
                   "narrow --i or --b\n")


def test_code_refuses_a_large_extension_degree_one_line(capsys):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "code", "--p", "2", "--e", "1", "--m", "521",
                         "--i", "0", "--b", "2", "--method", "closed")
    assert time.perf_counter() - t0 < 1.0
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "m=521" in err


def test_code_over_the_largest_field_does_not_search_for_a_modulus(capsys):
    """No row multiplies in F_{2^128}, so its modulus, ~10 s to find, is never sought."""
    t0 = time.perf_counter()
    code, out, err = run(capsys, "code", "--p", "2", "--e", "1", "--m", "128",
                         "--i", "1", "--b", "2", "--method", "closed")
    assert time.perf_counter() - t0 < 1.0
    assert code == 0 and err == "" and "consistent=True" in out


@pytest.mark.parametrize("argv", [
    ["table", "--p", "2", "--e", "3", "--m", "2", "--b", "2..4"],
    ["code", "--p", "3", "--e", "2", "--m", "2", "--i", "4", "--b", "2"],
    ["code", "--p", "5", "--e", "1", "--m", "2", "--i", "2", "--b", "2"],
    ["verify", "--suite", "code", "--trials", "10"],
])
def test_no_command_reads_the_modulus(capsys, monkeypatch, argv):
    """Every row is modulus-free (see the README), and no command multiplies
    two elements of F_{p^m}, so none reads or searches for a modulus."""
    def unread(f):
        raise AssertionError(f"the modulus of {f!r} was read")
    monkeypatch.setattr(gf.FieldParams, "modulus", property(unread))
    assert run(capsys, *argv)[0] == 0


@pytest.mark.parametrize("argv", [
    ["code", "--p", "2", "--e", "2", "--m", "2", "--modulus", "1,1,1", "--i", "1",
     "--b", "2"],
    ["verify", "--suite", "lemma", "--trials", "10", "--format", "json"],
    ["code", "--p", "3", "--e", "2", "--i", "7", "--b", "2", "--format", "json"],
    ["table", "--p", "2", "--e", "2", "--b", "2", "--out", "t.csv"],
])
def test_removed_options_are_refused_one_line(capsys, argv):
    """A field is (p, m), verify prints JSON only, code prints its plain line
    only, and table writes to stdout only: none takes an option for it."""
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "unrecognized arguments" in err


def test_code_large_prime_with_a_large_index_is_fast(capsys):
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "code", "--p", "1000000000000000003", "--e", "1",
                       "--i", "100000000000000000", "--b", "2", "--method", "closed")
    assert time.perf_counter() - t0 < 1.0
    assert code == 0 and "dH=100000000000000001" in out


@pytest.mark.parametrize("argv", [
    [], ["frob"], ["pi"], ["code", "--p", "x", "--e", "1", "--i", "0", "--b", "2"],
    ["dist", "--b", "2", "--x", "1", "--y", "1", "--method", "fast"],
])
def test_argument_errors_are_one_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("usage error: bsym")


@pytest.mark.parametrize("argv,message", [
    (["code", "--p", "2", "--e", "2", "--i", "1", "--b", "1"], "b=1 outside 2..4"),
    (["code", "--p", "2", "--e", "2", "--i", "1", "--b", "5"], "b=5 outside 2..4"),
    (["dist", "--b", "0", "--x", "1,0", "--y", "0,0"], "b=0 outside 1..2"),
])
def test_width_errors_name_the_allowed_range(capsys, argv, message):
    """A code row needs 2 <= b <= n, a word's read 1 <= b <= n."""
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and message in err


@pytest.mark.parametrize("argv,expected", [
    (["--b", "2", "--x", "300,2,0", "--y=-1,2,0"], "formula=2 oracle=2 match=true\n"),
    (["--b", "3", "--x", "128,0,0,0,0", "--y", "0,0,0,0,0"],
     "formula=3 oracle=3 match=true\n"),
    (["--b", "2", "--x", "300,2,0", "--y", "-1,2,0"], "formula=2 oracle=2 match=true\n"),
])
def test_dist_of_symbols_outside_a_byte(capsys, argv, expected):
    """300 and -1 are outside a byte lane, so the oracle marks positions by
    comparing symbols; 128 alone fills only a lane's high bit."""
    assert run(capsys, "dist", *argv) == (0, expected, "")


@pytest.mark.parametrize("argv,expected", [
    (["dist", "--b", "2", "--x", "-1,2,0", "--y", "-1,2,0"],
     "formula=0 oracle=0 match=true\n"),
    (["dist", "--x", "-1", "--y", "-2", "--b", "1"], "formula=1 oracle=1 match=true\n"),
    (["dist", "--b", "2", "--method", "oracle", "--y", "-3,0", "--x", "0,0"], "2\n"),
    (["pi", "--b", "2", "--word", "-1,0,5"], "-1,0\n0,5\n5,-1\n"),
    (["pi", "--word", "-10", "--b", "1"], "-10\n"),
])
def test_a_word_may_start_with_a_minus_sign(capsys, argv, expected):
    """A word whose first symbol is negative is its option's value whether it
    is given as its own argument, before or after other options."""
    assert run(capsys, *argv) == (0, expected, "")


def test_main_reads_a_word_that_starts_with_a_minus_sign_from_sys_argv(
        capsys, monkeypatch):
    """The console script calls main() with no argv."""
    monkeypatch.setattr(sys, "argv", ["bsym", "dist", "--b", "2", "--x", "1,0,0",
                                      "--y", "-1,0,0"])
    assert main() == 0
    assert capsys.readouterr().out == "formula=2 oracle=2 match=true\n"


@pytest.mark.parametrize("argv,option", [
    (["dist", "--b", "2", "--x", "--y", "-1,2,0"], "--x"),
    (["dist", "--b", "2", "--x", "1,2,0", "--y", "--method", "oracle"], "--y"),
    (["pi", "--b", "2", "--word", "-x"], "--word"),
    (["pi", "--b", "2", "--word"], "--word"),
])
def test_an_option_is_never_taken_for_a_word(capsys, argv, option):
    """Only "-" and a digit joins its option: a following option, or a value
    that is not a number, still leaves the option without its value."""
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"usage error: bsym {argv[0]}: argument {option}: expected one argument\n"


@pytest.mark.parametrize("argv", [
    ["pi", "--b", "2", "--wor", "-1,0,5"],
    ["pi", "--b", "2", "--wor", "1,0,5"],
    ["dist", "--b", "2", "--x", "1,0", "--y", "0,0", "--meth", "oracle"],
    ["code", "--p", "3", "--e", "2", "--i", "4", "--b", "2", "--method", "closed", "--form", "csv"],
    ["table", "--p", "2", "--e", "2", "--b", "2", "--no-b"],
    ["verify", "--suite", "lemma", "--trial", "10"],
])
def test_an_abbreviated_option_is_refused(capsys, argv):
    """An option is taken only by its full name, so `--wor` is not `--word`
    whatever follows it: one line and exit 1."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("usage error: bsym") and err.count("\n") == 1


def test_the_full_name_takes_the_word_the_abbreviation_did_not(capsys):
    assert run(capsys, "pi", "--b", "2", "--word", "-1,0,5") == (0, "-1,0\n0,5\n5,-1\n", "")


@pytest.mark.parametrize("argv,line", [
    (["code", "--p", "4", "--e", "1", "--i", "0", "--b", "2"], "p=4 is not prime"),
    (["dist", "--b", "0", "--x", "1,2", "--y", "1,2"],
     "read width b=0 outside 1..2 for length n=2"),
    (["dist", "--b", "2", "--x", "1,2", "--y", "1,2,3"], "lengths 2 != 3"),
    (["code", "--p", "2", "--e", "3", "--i", "9", "--b", "2"], "i=9 outside [0, 8]"),
    (["code", "--p", "3", "--e", "2", "--i", "4", "--b", "2", "--cap", "0"],
     "--cap must be an integer >= 1, got 0"),
    (["code", "--p", "1009", "--e", "1", "--i", "3", "--b", "2"],
     "code has 1009^1006 codewords, above the enumeration cap 4194304"),
    (["code", "--p", "2", "--e", "40", "--i", "1099511627773", "--b", "2",
      "--method", "brute"],
     "a codeword of length 2^40 packs into 1*2^40 bits, "
     "above the brute-force bound of 4194304 bits"),
    (["code", "--p", "65537", "--e", "1", "--i", "65536", "--b", "2", "--method", "brute"],
     "a walk packs 65537^1 - 1 codewords of 18*65537^1 bits, "
     "above the work bound of 17179869184 bits"),
], ids=["not-prime", "width", "lengths", "index", "bad-cap", "cap", "packed-word", "work"])
def test_refusal_lines(capsys, argv, line):
    """Each kind of refusal, byte for byte: exit 1 and one line on stderr."""
    assert run(capsys, *argv) == (1, "", f"error: {line}\n")
