"""bsym benchmark runner (stdlib only).

    python3 perfbench/run.py --workload {verify,table,brute} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a checkout: every child gets PYTHONPATH=<checkout>/src,
so the checkout's own sources are measured, never an installed copy.

--trace 0 (end to end).  Closed loop, one client: each sample is a fresh
`python -m bsym.cli ...` process, started only after the previous one has
been reaped.  A fresh process per sample is needed because the mask cache in
bsym.codes lives for the life of the process.  Each round runs the set-up
probe (a fresh process that imports bsym.cli and builds the command's fields
and code specs) SETUP_PER_SAMPLE times, then one sample.  Rounds repeat
until the next would overrun --seconds (at least MIN_SAMPLES).  One untimed
probe first warms the bytecode cache.  Every sample's stdout is checked.
The runner and its children share one CPU with the speed probe of
speedprobe.py, and every reported time is scaled to a fixed machine speed by
what the probe measured while that time was taken.

--trace 1 (per layer).  Two in-process passes of the same command, each in
its own child: one plain and one with the timing and counting wrappers of
spans.py around the public functions of gf, polyring, bsymbol, codes, verify
and cli.  --seconds does not apply.  trace.overhead_s is the traced pass's
wall time minus the plain pass's.

Human-readable lines come first; the last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}, with the metrics named in
BENCHMARK.json.  The exit code is 0 whenever a result was printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import speedprobe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Each workload is the bsym command line for a seed.  Why each was chosen is
# in BENCHMARK.json and README.md.
WORKLOADS = {
    "verify": lambda seed: ["verify", "--suite", "all", "--seed", str(seed),
                            "--trials", "100000"],
    "table": lambda seed: ["table", "--p", "2", "--e", "4", "--b", "2..6",
                           "--format", "csv"],
    "brute": lambda seed: ["code", "--p", "3", "--e", "2", "--m", "2", "--i", "4",
                           "--b", "2", "--method", "brute"],
}

SETUP_PER_SAMPLE = 10
MIN_SAMPLES = 2          # a verify seed without a recorded digest needs two equal outputs
RUN_DEADLINE_S = 170.0   # the whole run must end well inside 180 s
RECORDED = json.loads((HERE / "recorded.json").read_text())


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def child_env() -> dict:
    """The caller's environment without Python or bsym settings, plus src/."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "BSYM_"))}
    env["PYTHONPATH"] = str(SRC)
    # fixed string hashing, so set and dict layouts are the same in every sample
    env["PYTHONHASHSEED"] = "0"
    return env


class Child:
    """One finished child process: its output, wall time and own rusage."""

    def __init__(self, cmd, timeout: float):
        stderr_chunks = []
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        reader = threading.Thread(target=lambda: stderr_chunks.append(proc.stderr.read()))
        reader.start()
        killed = threading.Event()

        def kill():
            killed.set()
            proc.send_signal(signal.SIGKILL)

        timer = threading.Timer(max(timeout, 0.0), kill)
        timer.start()
        try:
            stdout = proc.stdout.read()
            # os.wait4 gives this child's own rusage; RUSAGE_CHILDREN would fold
            # in every child reaped so far, and its ru_maxrss is their maximum
            _, status, usage = os.wait4(proc.pid, 0)
            self.wall_s = time.perf_counter() - t0
            proc.returncode = self.rc = os.waitstatus_to_exitcode(status)
        except BaseException:
            if proc.returncode is None:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
            raise
        finally:
            timer.cancel()
            reader.join()
            proc.stdout.close()
            proc.stderr.close()
        self.timed_out = killed.is_set()
        self.stdout = stdout.decode()
        self.stderr = b"".join(stderr_chunks).decode(errors="replace")
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux

    def failure(self) -> str | None:
        if self.timed_out:
            return "timed out"
        if self.rc != 0:
            tail = self.stderr.strip().splitlines()[-1:] or [""]
            return f"exit code {self.rc}: {tail[0]}"
        return None


def cli_cmd(argv):
    return [sys.executable, "-m", "bsym.cli", *argv]


def inproc_cmd(mode, argv, *flags):
    return [sys.executable, str(HERE / "inproc.py"), mode, *flags, "--", *argv]


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def recorded_digest(workload: str, seed: int):
    table = RECORDED["stdout_sha256"][workload]
    return table.get(str(seed), table.get("*"))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_output(workload: str, seed: int, stdout: str) -> str | None:
    """Why `stdout` is not the right output of the workload, or None."""
    want = recorded_digest(workload, seed)
    got = sha256(stdout)
    if want is not None and got != want:
        return f"stdout sha256 {got[:12]} != recorded {want[:12]}"
    if workload == "brute" and "db_brute=6 consistent=True" not in stdout:
        return "brute output lacks 'db_brute=6 consistent=True'"
    if workload == "verify":
        try:
            reports = json.loads(stdout)
        except ValueError:
            return "verify output is not JSON"
        failed = sorted(name for name, r in reports.items() if r.get("passed") is not True)
        if failed or set(reports) != {"formula", "code", "lemma", "bounds"}:
            return f"verify suites not all passed: {failed or sorted(reports)}"
    return None


def check_repeatable(first: str, later: str) -> str | None:
    """A rerun must print what the first run printed (this covers a verify
    seed with no recorded digest; with a digest it always holds)."""
    return None if later == first else "output differs from the first run's"


def cases_in(workload: str, stdout: str) -> int:
    """Checked cases: verify's reported cases, else the records printed."""
    if workload == "verify":
        return sum(r["cases"] for r in json.loads(stdout).values())
    if workload == "table":
        return len(stdout.strip().splitlines()) - 1  # minus the CSV header
    return 1


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def git_sha() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int, bsym_file) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_sha": git_sha(),
        "seed": seed,
        "bsym_file": bsym_file,
    }


def checkout_error(bsym_file: str) -> str | None:
    """Why the imported bsym is not this checkout's src/bsym, or None."""
    if Path(bsym_file).resolve().parent != SRC / "bsym":
        return f"imported bsym from {bsym_file}, not from {SRC}"
    return None


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, what: str, reason: str | None):
        """Count one child run, failed when `reason` is not None."""
        self.attempted += 1
        if reason is not None:
            self.fail(f"{what}: {reason}")

    def fail(self, line: str):
        self.failures.append(line)


def summary_line(name, values, unit):
    """Median, the extremes (the only percentiles n allows), n and the samples."""
    return (f"  {name:<16} median {statistics.median(values):.6g} {unit}"
            f"  min {min(values):.6g}  max {max(values):.6g}  n={len(values)}"
            f"  [{' '.join(f'{v:.4g}' for v in values)}]")


def end_to_end(workload: str, seed: int, seconds: float, deadline: float, tally: Tally):
    argv = WORKLOADS[workload](seed)
    print(f"workload {workload}: bsym {' '.join(argv)}")

    setup_s = []
    setup_windows = []   # speed-probe readings around each timed set-up probe
    sample_windows = []  # the same around each sample
    bsym_file = None

    samples = []
    rounds = []
    print(f"pinned to cpu {speedprobe.pin_to_one_cpu()}")
    with speedprobe.SpeedProbe() as speed:

        def measured(cmd):
            """Run `cmd` as a Child; return it and the probe's readings from
            before and after it."""
            before = speed.reading()
            child = Child(cmd, deadline - time.perf_counter())
            return child, (before, speed.reading())

        def probe(timed=True) -> bool:
            nonlocal bsym_file
            child, window = measured(inproc_cmd("setup", argv))
            reason = child.failure()
            if reason is None:
                bsym_file = json.loads(child.stdout)["bsym_file"]
                reason = checkout_error(bsym_file)
            tally.record("setup probe", reason)
            if reason is None and timed:
                setup_s.append(child.wall_s)
                setup_windows.append(window)
            return reason is None

        ok = probe(timed=False)  # warms the bytecode cache
        start = time.perf_counter()
        while ok:
            now = time.perf_counter()
            if rounds:
                typical = statistics.median(rounds)
                if now + typical > deadline:
                    break
                if len(samples) >= MIN_SAMPLES and now - start + typical > seconds:
                    break
            # probes and samples alternate, so both see the same stretch of machine time
            ok = all(probe() for _ in range(SETUP_PER_SAMPLE))
            if not ok:
                break
            child, window = measured(cli_cmd(argv))
            reason = (child.failure() or check_output(workload, seed, child.stdout)
                      or (check_repeatable(samples[0][0].stdout, child.stdout)
                          if samples else None))
            tally.record(f"sample {len(samples) + 1}", reason)
            if child.timed_out:
                break
            samples.append((child, reason is None))
            sample_windows.append(window)
            rounds.append(time.perf_counter() - now)

    if recorded_digest(workload, seed) is None and len(samples) == 1 and samples[0][1]:
        tally.fail("sample 1: no second sample to compare its output with")

    print("env " + json.dumps(environment(seed, bsym_file)))
    if not samples:
        return None
    # the case count is fixed by the inputs, so any correct sample gives it
    cases = next((cases_in(workload, c.stdout) for c, ok in samples if ok), 0)
    codewords = RECORDED["codewords"][workload]
    children = [c for c, _ in samples]
    # each sample is scaled by the probe's speed over its own run.  A set-up
    # probe is too short for the probe to time many units in it, so the set-up
    # times share the factor of the whole run
    scales = [speedprobe.speed_scale([w]) for w in sample_windows]
    setup_scale = speedprobe.speed_scale(setup_windows + sample_windows)
    print(summary_line("raw wall_s", [c.wall_s for c in children], "s"))
    print(summary_line("raw setup_s", setup_s, "s"))
    print(summary_line("speed scale", scales + [setup_scale], "x"))
    wall_s = [c.wall_s * k for c, k in zip(children, scales)]
    return {
        "wall_s": wall_s,
        "cpu_s": [c.cpu_s * k for c, k in zip(children, scales)],
        "peak_rss_mb": [c.peak_rss_mb for c in children],
        "cases_per_s": [cases / w for w in wall_s],
        "codewords_per_s": [codewords / w for w in wall_s],
        "setup_s": [s * setup_scale for s in setup_s],
    }


def traced(workload: str, seed: int, deadline: float, tally: Tally):
    argv = WORKLOADS[workload](seed)
    print(f"workload {workload} (traced): bsym {' '.join(argv)}")
    passes = {}
    for label, flags in (("plain", ()), ("traced", ("--trace",))):
        child = Child(inproc_cmd("pass", argv, *flags), deadline - time.perf_counter())
        reason = child.failure()
        if reason is None:
            result = json.loads(child.stdout)
            reason = (
                (f"exit code {result['rc']}" if result["rc"] else None)
                or check_output(workload, seed, result["stdout"])
                or ("plain" in passes
                    and check_repeatable(passes["plain"]["stdout"], result["stdout"]))
                or checkout_error(result["bsym_file"])
            )
            passes[label] = result
        tally.record(f"{label} pass", reason)

    bsym_file = next((p["bsym_file"] for p in passes.values()), None)
    print("env " + json.dumps(environment(seed, bsym_file)))
    if len(passes) < 2:
        return None
    layers = dict(passes["traced"]["layers"])
    layers["trace.overhead_s"] = passes["traced"]["wall_s"] - passes["plain"]["wall_s"]
    layers["trace.plain_s"] = passes["plain"]["wall_s"]

    counts = RECORDED["traced_counts"][workload]
    recorded = counts.get(str(seed), counts.get("*", {}))
    drift = {k: (v, layers.get(k)) for k, v in recorded.items() if layers.get(k) != v}
    print("traced counts " + ("match the recorded ones" if recorded and not drift else
                              f"differ from the recorded ones: {drift}" if drift else
                              "have no record for this seed"))
    return layers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # turn SIGTERM into SystemExit, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))

    if not (SRC / "bsym" / "cli.py").is_file():
        print(f"error: no bsym sources at {SRC}; run from a bsym checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    deadline = time.perf_counter() + RUN_DEADLINE_S
    tally = Tally()
    if args.trace:
        values = traced(args.workload, args.seed, deadline, tally)
    else:
        values = end_to_end(args.workload, args.seed, args.seconds, deadline, tally)
    if values is None:
        for line in tally.failures:
            print(f"FAILED {line}", file=sys.stderr)
        print("error: nothing was measured", file=sys.stderr)
        return 1

    units = {m["name"]: m["unit"] for m in declared}
    if args.trace:
        # every traced figure, also those left out of BENCHMARK.json (see README.md)
        for name, v in values.items():
            unit = units.get(name, "s" if name.endswith("_s") else "count")
            print(f"  {name:<26} {v:.6g} {unit}")
    metrics = {}
    for m in declared:
        v = values[m["name"]]
        if isinstance(v, list):
            print(summary_line(m["name"], v, m["unit"]))
            v = statistics.median(v)
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}

    failed = len(tally.failures)
    print(f"  {'error_rate':<16} {failed / tally.attempted:.6g}"
          f"  ({failed} failed of {tally.attempted} attempted)")
    for line in tally.failures:
        print(f"FAILED {line}")
    print(json.dumps({"correct": not tally.failures, "attempted": tally.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
