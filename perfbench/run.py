#!/usr/bin/env python3
"""Builds and runs the wall-clock benchmark (see NOTES.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload batch-raw --seed 1 --seconds 10 \
        --trace 0
    python3 perfbench/run.py --self-test

The first form builds the benchmark package (perfbench/CMakeLists.txt, which
compiles the library from src/) into $CARGO_TARGET_DIR or .bench_build, runs
one workload, and prints the benchmark's JSON result as the last line of
standard output. The second form runs the self-time folding test and every
workload at R-MAT scale 12, including two negative controls.
"""

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("batch-raw", "batch-compressed", "service-mixed")
# A run must end within 180 s; kill the binary well before that.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_checked(cmd, timeout):
    """Runs cmd with its output on stderr; returns its exit code."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no src/CMakeLists.txt next to perfbench/; "
            "run from the root of a full checkout")
        return None
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if run_checked(["cmake", "-S", HERE, "-B", out,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], 600) != 0:
        return None
    if run_checked(["cmake", "--build", out, "-j", jobs, "--target"] +
                   targets, 900) != 0:
        return None
    return out


def commit():
    # Only a checkout that is itself a git repository has a commit; git is
    # not asked otherwise, since it would search the directories above.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        return head.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_bench(out, args, echo=True):
    """Runs wall_bench from build dir `out` in a fresh work directory, which
    it removes afterwards, also when the run is killed; returns (exit code,
    output lines, parsed result)."""
    base = os.path.join(out, "work")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(dir=base)
    proc = subprocess.Popen([os.path.join(out, "wall_bench"), "--work-dir",
                             work, "--commit", commit()] + args,
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    watchdog.start()
    lines = []
    try:
        for line in proc.stdout:
            lines.append(line.rstrip("\n"))
            if echo and not lines[-1].startswith("{"):
                print(lines[-1], flush=True)
        rc = proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
        shutil.rmtree(work, ignore_errors=True)
    result = None
    if lines and lines[-1].startswith("{"):
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if result is not None and set(result) != {"correct", "attempted", "failed",
                                              "metrics"}:
        result = None
    return rc, lines, result


def bench_args(workload, seed, seconds, trace):
    return ["--workload", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", str(trace)]


def main_run(opts):
    out = build(["wall_bench"])
    if out is None:
        return 1
    rc, lines, result = run_bench(out, bench_args(opts.workload, opts.seed,
                                                  opts.seconds, opts.trace))
    if result is None:
        log("perfbench: the benchmark printed no result (exit %d)" % rc)
        return rc or 1
    print(lines[-1], flush=True)
    return rc


def self_test():
    """Scale-12 run of every workload plus the negative controls."""
    out = build(["wall_bench", "span_fold_test"])
    if out is None:
        return 1
    failures = []

    def expect(cond, what):
        log(("ok   " if cond else "FAIL ") + what)
        if not cond:
            failures.append(what)

    expect(run_checked([os.path.join(out, "span_fold_test")], 60) == 0,
           "span_fold_test passes")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    small = ["--scale", "12"]
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, lines, result = run_bench(
                out, bench_args(workload, 7, 1, trace) + small, echo=False)
            what = "%s --trace %d" % (workload, trace)
            expect(rc == 0 and result is not None and result["correct"] and
                   result["failed"] == 0, what + " exits 0 and is correct")
            if result is None:
                continue
            for m in spec[key]:
                got = result["metrics"].get(m["name"])
                expect(got is not None and got["unit"] == m["unit"] and
                       any(re.match(r"metric %s +\S+ %s\b" %
                                    (re.escape(m["name"]),
                                     re.escape(m["unit"])), l) for l in lines),
                       "%s prints %s in %s" % (what, m["name"], m["unit"]))
            expect(set(result["metrics"]) == {m["name"] for m in spec[key]},
                   what + " reports exactly the %s metrics" % key)

    # Negative control 1: a doctored oracle flips the verdict.
    rc, lines, result = run_bench(
        out, bench_args("batch-raw", 7, 1, 0) + small + ["--doctor-oracle"],
        echo=False)
    share = [float(l.split()[2]) for l in lines
             if l.startswith("metric failed_share")]
    expect(rc != 0 and result is not None and not result["correct"] and
           result["failed"] > 0 and share and share[0] > 0,
           "a doctored oracle makes the run incorrect with failed_share > 0")
    # Negative control 2: dropped spans refuse per-layer numbers.
    rc, lines, result = run_bench(
        out, bench_args("batch-raw", 7, 1, 1) + small +
        ["--trace-capacity", "16"], echo=False)
    expect(rc != 0 and result is None and
           any(l.startswith("REFUSED") for l in lines),
           "dropped spans refuse the per-layer report")

    log("self-test: %s" % ("FAILED (%d)" % len(failures) if failures
                           else "all checks passed"))
    return 1 if failures else 0


def main():
    # On SIGTERM, unwind through the handlers that kill and reap the child.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    opts = parser.parse_args()
    if opts.self_test:
        return self_test()
    if opts.workload is None:
        parser.error("--workload is required")
    return main_run(opts)


if __name__ == "__main__":
    sys.exit(main())
