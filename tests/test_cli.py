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

from bsym import cli, codes
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


def test_pi_n_mismatch(capsys):
    code, _, err = run(capsys, "pi", "--n", "5", "--b", "2", "--word", "1,2,3")
    assert code == 1 and "usage error" in err


def test_code_row(capsys):
    code, out, _ = run(capsys, "code", "--p", "3", "--e", "2", "--i", "7",
                       "--b", "2", "--method", "both")
    assert code == 0
    assert "db_closed=9" in out and "db_brute=9" in out
    assert "consistent=True" in out


def test_code_json(capsys):
    code, out, _ = run(capsys, "code", "--p", "3", "--e", "2", "--i", "7",
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


def test_table_empty_range(tmp_path, capsys):
    path = tmp_path / "t.out"
    for argv in (["--b", "5..2"], ["--b", "2", "--i", "5..1"]):
        for fmt in ("csv", "json"):
            code, out, err = run(capsys, "table", "--p", "2", "--e", "3", *argv,
                                 "--format", fmt)
            assert code == 1 and out == ""
            assert err.count("\n") == 1 and "usage error: empty range" in err
            code, _, _ = run(capsys, "table", "--p", "2", "--e", "3", *argv,
                             "--format", fmt, "--out", str(path))
            assert code == 1 and not path.exists()


def test_table_out_file(tmp_path, capsys):
    path = tmp_path / "t.csv"
    code, _, _ = run(capsys, "table", "--p", "2", "--e", "2", "--b", "2",
                     "--out", str(path))
    assert code == 0
    assert path.read_text().startswith("p,e,m,i,b,")


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
                       "--modulus", "1,1,1", "--b", "2", "--format", "json")
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


def test_cap_env_override(monkeypatch, capsys):
    monkeypatch.setenv("BSYM_CAP", "10")
    code, _, err = run(capsys, "code", "--p", "3", "--e", "2", "--i", "0",
                       "--b", "2", "--method", "both")
    assert code == 1
    assert "cap" in err


def test_bad_word(capsys):
    code, _, err = run(capsys, "dist", "--b", "2", "--x", "1,zz", "--y", "0,0")
    assert code == 1 and "usage error" in err


@pytest.mark.parametrize("value", ["abc", "-1", "0", "1.5"])
def test_bad_cap_env_rejected(monkeypatch, capsys, value):
    monkeypatch.setenv("BSYM_CAP", value)
    code, out, err = run(capsys, "code", "--p", "3", "--e", "2", "--i", "4",
                         "--b", "2", "--method", "brute")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "BSYM_CAP" in err
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
    (["--e", "2", "--m", "2", "--modulus", "1,x", "--i", "0"], "1,x"),
])
def test_code_bad_parameters_one_line(capsys, argv, needle):
    code, out, err = run(capsys, "code", "--p", "3", "--b", "2", *argv)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and needle in err


@pytest.mark.parametrize("argv,needle", [
    (["--p", "3", "--e", "2", "--m", "1", "--modulus", "1,2,3,4"], "degree 3"),
    (["--p", "2", "--e", "2", "--m", "3", "--modulus", "1,1,1"], "degree 2"),
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
    t0 = time.perf_counter()
    code, out, err = run(capsys, "code", "--p", "2", "--e", e, "--i", "5",
                         "--b", "2", "--method", "closed", "--format", fmt)
    assert time.perf_counter() - t0 < 1.0
    assert code == 1 and out == ""
    assert err == f"error: length p^e = 2^{e} is above 2^8192\n"


def test_table_bad_e_one_line(capsys):
    code, out, err = run(capsys, "table", "--p", "3", "--e", "-1", "--b", "2")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "e=-1" in err


def test_cap_refusal_is_one_short_line(capsys):
    code, out, err = run(capsys, "code", "--p", "1009", "--e", "1", "--i", "3",
                         "--b", "2", "--method", "both")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and len(err) < 100
    assert "1009^1006 codewords" in err


def test_verify_honours_cap_env(monkeypatch, capsys):
    monkeypatch.setenv("BSYM_CAP", "100")
    code, out, _ = run(capsys, "verify", "--suite", "code")
    assert code == 0
    report = json.loads(out)["code"]
    assert report["passed"] and report["coverage"]["skipped_cap"] > 0


def test_verify_default_cap_skips_nothing(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "bounds", "--trials", "10")
    assert code == 0
    assert "skipped_cap" not in json.loads(out)["bounds"]["coverage"]


def test_verify_bad_cap_env(monkeypatch, capsys):
    monkeypatch.setenv("BSYM_CAP", "abc")
    code, out, err = run(capsys, "verify", "--suite", "code")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "BSYM_CAP" in err


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


@pytest.mark.parametrize("target", ["missing/t.csv", "."])
def test_table_unwritable_out_one_line(tmp_path, capsys, target):
    code, out, err = run(capsys, "table", "--p", "2", "--e", "2", "--b", "2",
                         "--out", str(tmp_path / target))
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error:")


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_cap_refusal_does_not_build_the_code_size():
    # 2^(2^40 - 1) codewords; the child may not grow past 1 GiB
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("BSYM_CAP", None)
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
def test_table_error_writes_nothing(tmp_path, capsys, argv, fmt):
    code, out, err = run(capsys, "table", "--p", "2", "--e", "3", *argv,
                         "--format", fmt)
    assert code == 1 and out == "" and err.count("\n") == 1
    path = tmp_path / "t.out"
    code, _, _ = run(capsys, "table", "--p", "2", "--e", "3", *argv,
                     "--format", fmt, "--out", str(path))
    assert code == 1 and not path.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_names_the_given_i_above_n(tmp_path, capsys, fmt):
    argv = ["table", "--p", "2", "--e", "3", "--b", "2", "--i", "5..20",
            "--format", fmt]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", "error: i=20 outside [0, 8]\n")
    path = tmp_path / "t.out"
    assert run(capsys, *argv, "--out", str(path))[0] == 1
    assert not path.exists()


def _peak_rss_mib(*argv: str) -> float:
    """Peak RSS of a fresh `bsym` process, which must exit 0."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("BSYM_CAP", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "bsym.cli", *argv],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0
    return usage.ru_maxrss / 1024        # KiB on Linux


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
def test_table_refuses_more_than_max_rows(tmp_path, capsys, argv, fmt):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "table", *argv, "--format", fmt)
    assert time.perf_counter() - t0 < 1.0
    assert code == 1 and out == ""
    assert err == (f"usage error: the table has more than {cli.MAX_TABLE_ROWS} rows: "
                   "narrow --i or --b\n")
    path = tmp_path / "t.out"
    assert run(capsys, "table", *argv, "--format", fmt, "--out", str(path))[0] == 1
    assert not path.exists()


def test_code_refuses_a_large_extension_degree_one_line(capsys):
    modulus = ",".join(["1"] + ["0"] * 31 + ["1"] + ["0"] * 488 + ["1"])  # x^521 + x^32 + 1
    t0 = time.perf_counter()
    code, out, err = run(capsys, "code", "--p", "2", "--e", "1", "--m", "521",
                         "--modulus", modulus, "--i", "0", "--b", "2", "--method", "closed")
    assert time.perf_counter() - t0 < 1.0
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "m=521" in err


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
    (["pi", "--word", "-10", "--b", "1", "--n", "1"], "-10\n"),
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


def test_a_modulus_may_start_with_a_minus_sign(capsys):
    """-1 + x + x^2 is x^2 + x + 2 over F_3."""
    base = ["code", "--p", "3", "--e", "1", "--m", "2", "--i", "1", "--b", "2",
            "--method", "closed"]
    expected = run(capsys, *base, "--modulus", "2,1,1")
    assert expected[0] == 0 and expected[2] == ""
    assert run(capsys, *base, "--modulus", "-1,1,1") == expected


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
