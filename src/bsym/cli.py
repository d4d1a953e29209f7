"""Command-line front end: subcommands pi, dist, code, table, verify.

Exit status: 0 on success, 1 on operational errors, 2 when a mathematical
inconsistency is detected (formula vs oracle mismatch, inconsistent record),
also when found before the reader closed stdout; else a closed stdout is 0.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import contextmanager
from itertools import chain

from . import engine, verify
from .bsymbol import dist_b_formula, dist_b_oracle, windows_b
from .codes import CyclicCodeSpec, build_record, record_to_dict
from .errors import BsymError, InvalidParameterError, UsageError
from .gf import make_field

MAX_TABLE_ROWS = 2 ** 20     # i values times widths; p = 2, e = 16 has 65,537 a width


@contextmanager
def _until_the_reader_stops():
    """Stop writing, quietly, when the reader closes stdout, as `| head` does."""
    try:
        yield
    except BrokenPipeError:              # so that no later flush raises
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def parse_range(text: str):
    """Inclusive `a..b` range, or a single value."""
    lo, sep, hi = text.partition("..")
    try:
        lo, hi = int(lo), int(hi if sep else lo)
    except ValueError:
        raise UsageError(
            f"cannot parse range {text!r}: expected a..b or an integer"
        ) from None
    if lo > hi:
        raise UsageError(f"empty range {text!r}: {lo} > {hi}")
    return lo, hi


def parse_generic_word(text: str) -> tuple:
    try:
        return tuple(int(s) for s in text.split(","))
    except ValueError as exc:
        raise UsageError(f"cannot parse word {text!r}: {exc}") from None


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):      # subparsers are _Parsers too
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        """One line, as every other bad input gets, instead of usage + error."""
        raise UsageError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="bsym",
        description="b-symbol weights/distances and repeated-root cyclic code tables",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_pi = sub.add_parser("pi", help="print the b-symbol read vector of a word")
    p_pi.add_argument("--b", type=int, required=True)
    p_pi.add_argument("--word", required=True)

    p_dist = sub.add_parser("dist", help="b-symbol distance between two words")
    p_dist.add_argument("--b", type=int, required=True)
    p_dist.add_argument("--x", required=True)
    p_dist.add_argument("--y", required=True)
    p_dist.add_argument("--method", choices=["formula", "oracle", "both"],
                        default="both")

    p_code = sub.add_parser("code", help="distances of one code C_i")
    p_code.add_argument("--p", type=int, required=True)
    p_code.add_argument("--e", type=int, required=True)
    p_code.add_argument("--m", type=int, default=1)
    p_code.add_argument("--i", type=int, required=True)
    p_code.add_argument("--b", type=int, required=True)
    p_code.add_argument("--method", choices=["closed", "brute"], default="brute")
    p_code.add_argument("--cap", type=int, default=engine.DEFAULT_CAP)

    p_table = sub.add_parser("table", help="sweep i and b, emit CSV/JSON rows")
    p_table.add_argument("--p", type=int, required=True)
    p_table.add_argument("--e", type=int, required=True)
    p_table.add_argument("--m", type=int, default=1)
    p_table.add_argument("--b", required=True, help="range a..b or single value")
    p_table.add_argument("--i", default=None, help="range a..b; default 0..p^e")
    p_table.add_argument("--format", choices=["csv", "json"], default="csv")
    p_table.add_argument("--cap", type=int, default=engine.DEFAULT_CAP)
    p_table.add_argument("--no-brute", action="store_true")

    p_ver = sub.add_parser("verify", help="run the formula-vs-oracle suites")
    p_ver.add_argument("--suite", choices=["all", *verify.SUITES], default="all")
    p_ver.add_argument("--seed", type=int, default=42)
    p_ver.add_argument("--trials", type=int, default=100_000)
    p_ver.add_argument("--cap", type=int, default=engine.DEFAULT_CAP)

    return ap


def _cmd_pi(args) -> int:
    w = parse_generic_word(args.word)
    for window in windows_b(w, args.b):       # printed as built
        print(",".join(map(str, window)))
    return 0


def _cmd_dist(args) -> int:
    x = parse_generic_word(args.x)
    y = parse_generic_word(args.y)
    if args.method != "both":
        dist = dist_b_formula if args.method == "formula" else dist_b_oracle
        print(dist(x, y, args.b))
        return 0
    f = dist_b_formula(x, y, args.b)
    o = dist_b_oracle(x, y, args.b)
    match = f == o
    with _until_the_reader_stops():
        print(f"formula={f} oracle={o} match={str(match).lower()}")
    return 0 if match else 2


def _cap(args) -> int:
    if args.cap < 1:
        raise InvalidParameterError(f"--cap must be an integer >= 1, got {args.cap}")
    return args.cap


def _emit_records(records, fmt: str) -> bool:
    """Write each record to stdout as it comes; True when every one written
    before the reader stopped is consistent.

    The CSV header is the first record's keys.  The JSON is the layout of
    json.dump(list, indent=2), one item at a time.
    """
    consistent = True
    if fmt == "csv":
        writer = csv.writer(sys.stdout)
    else:
        sys.stdout.write("[")
    with _until_the_reader_stops():
        for rows, rec in enumerate(records):
            d = record_to_dict(rec)
            consistent = consistent and d["consistent"]
            if fmt == "csv":
                if not rows:
                    writer.writerow(d.keys())
                writer.writerow(["" if v is None else v for v in d.values()])
            else:
                item = json.dumps(d, indent=2).replace("\n", "\n  ")
                sys.stdout.write(f"{',' if rows else ''}\n  {item}")
        if fmt == "json":
            sys.stdout.write("\n]\n")
    return consistent


def _cmd_code(args) -> int:
    spec = CyclicCodeSpec(make_field(args.p, args.m), args.e, args.i)
    rec = build_record(spec, args.b, _cap(args), with_brute=args.method == "brute")
    d = record_to_dict(rec)
    with _until_the_reader_stops():
        print(" ".join(f"{k}={'' if v is None else v}" for k, v in d.items()))
    return 0 if rec.consistent else 2


def _cmd_table(args) -> int:
    f = make_field(args.p, args.m)
    n = CyclicCodeSpec(f, args.e, 0).n  # validates e before the i range is built
    b_lo, b_hi = parse_range(args.b)
    i_lo, i_hi = parse_range(args.i) if args.i else (0, n)
    if (i_hi - i_lo + 1) * (b_hi - b_lo + 1) > MAX_TABLE_ROWS:
        raise UsageError(f"the table has more than {MAX_TABLE_ROWS} rows: "
                         "narrow --i or --b")
    cap = _cap(args)
    widths = range(b_lo, b_hi + 1)
    with_brute = not args.no_brute
    # Rows are written as they are built, so every error is raised before
    # the first write, in the order of the sweep: the rows of C_{i_lo}, the
    # largest code, test every width and the cap, then a bad i_hi.
    spec = CyclicCodeSpec(f, args.e, i_lo)
    first = [build_record(spec, b, cap, with_brute) for b in widths]
    CyclicCodeSpec(f, args.e, i_hi)          # raises for an i_hi above n
    rest = (build_record(CyclicCodeSpec(f, args.e, i), b, cap, with_brute)
            for i in range(i_lo + 1, i_hi + 1) for b in widths)
    return 0 if _emit_records(chain(first, rest), args.format) else 2


def _cmd_verify(args) -> int:
    cfg = verify.SuiteConfig(seed=args.seed, trials=args.trials, cap=_cap(args))
    reports = verify.run_suites(cfg, args.suite)
    with _until_the_reader_stops():
        print(verify.report_json(reports))
    return 0 if all(r.passed for r in reports.values()) else 2


_COMMANDS = {
    "pi": _cmd_pi,
    "dist": _cmd_dist,
    "code": _cmd_code,
    "table": _cmd_table,
    "verify": _cmd_verify,
}


_LIST_OPTIONS = ("--x", "--y", "--word", "--i", "--b")


def _join_list_values(argv: list) -> list:
    """argv with `--y -1,2,0` written as `--y=-1,2,0`, and `--i -1..2` as
    `--i=-1..2`.

    argparse takes an argument that starts with "-" and is not a plain number
    for an option, so a word or a range whose first entry is negative would
    leave its option without a value.  Only "-" followed by a digit is joined, so
    `--x --y 1,2` still reports the missing value of --x.
    """
    joined = []
    for arg in argv:
        if (joined and joined[-1] in _LIST_OPTIONS
                and arg[:1] == "-" and arg[1:2].isdigit()):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def main(argv=None) -> int:
    try:
        argv = sys.argv[1:] if argv is None else argv
        args = _build_parser().parse_args(_join_list_values(argv))
        status = 0
        with _until_the_reader_stops():
            status = _COMMANDS[args.command](args)
            sys.stdout.flush()       # a write error is raised here, not at exit
        return status
    except SystemExit as exc:        # --help
        return 1 if exc.code not in (0, None) else 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (BsymError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
