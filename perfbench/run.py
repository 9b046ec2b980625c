#!/usr/bin/env python3
"""Trace-file-to-report benchmark of the CAFA analyzer.

Builds perfbench/ (and the CAFA libraries it compiles from src/) with
CMake, sets up the workload's inputs in fresh processes (three times
for the untraced run, which reports setup_s), then measures in one more
fresh process, so peak RSS is the measuring process's own.  The last line of stdout is the JSON result; see
perfbench/README.md.

    python3 perfbench/run.py --workload apps --seed 1 --seconds 10 --trace 0

Run it from the repository root.  Build output and scratch files go to
.bench_build/ (or $CARGO_TARGET_DIR when set).
"""

import argparse
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("apps", "chain-1m", "chain-1m-window", "triage")
# Environment knobs that would silently change what is measured.
KNOBS = ("CAFA_REACH", "CAFA_WINDOW", "CAFA_ANALYSIS_THREADS",
         "CAFA_INGEST_THREADS", "CAFA_CONFIRM", "CAFA_HB_PROFILE")
SETUP_REPEATS = 3
MEASURE_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_root():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return root if os.path.isabs(root) else os.path.join(ROOT, root)


def child_env():
    env = dict(os.environ)
    for knob in KNOBS:
        env.pop(knob, None)
    return env


def build(out_dir):
    """Configures and builds cafa_perfbench; returns its path or None."""
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen)
    steps.append(["cmake", "--build", out_dir, "-j", "4",
                  "--target", "cafa_perfbench"])
    with open(log_path, "a") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              env=child_env()).returncode != 0:
                log("build failed; see " + log_path)
                return None
    return os.path.join(out_dir, "cafa_perfbench")


def setup(binary, args, work):
    """Sets up the inputs; returns the median seconds.  setup_s is an
    end-to-end metric, so only the untraced run repeats set-up."""
    times = []
    for _ in range(SETUP_REPEATS if args.trace == 0 else 1):
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        cmd = [binary, "setup", "--workload", args.workload,
               "--seed", str(args.seed), "--dir", work]
        if args.chain_events:
            cmd += ["--chain-events", str(args.chain_events)]
        if args.apps:
            cmd += ["--apps", args.apps]
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  env=child_env(), timeout=MEASURE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log("setup timed out")
            return None
        lines = [l for l in proc.stdout.splitlines()
                 if l.startswith("setup_s ")]
        if proc.returncode != 0 or not lines:
            log("setup failed")
            return None
        times.append(float(lines[-1].split()[1]))
    log("setup_s samples: " + " ".join("%.4f" % t for t in times))
    return statistics.median(times)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--references",
                   default=os.path.join(HERE, "references.txt"),
                   help="committed reference digests of every output")
    p.add_argument("--chain-events", type=int, default=0,
                   help="chain trace size (default 1,000,000)")
    p.add_argument("--apps", default="",
                   help="comma-separated app subset (default: all ten)")
    p.add_argument("--print-digests", action="store_true",
                   help="print the digest of every output")
    args = p.parse_args()

    out = build_root()
    binary = build(os.path.join(out, "perfbench"))
    if binary is None:
        return 1
    work = os.path.join(out, "work", "%s-%d-%d" % (args.workload, args.seed,
                                                   os.getpid()))
    try:
        setup_s = setup(binary, args, work)
        if setup_s is None:
            return 1
        cmd = [binary, "run", "--workload", args.workload,
               "--seed", str(args.seed), "--dir", work,
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--references", os.path.abspath(args.references),
               "--setup-s", repr(setup_s)]
        if args.trace:
            spans = os.path.join(out, "spans")
            os.makedirs(spans, exist_ok=True)
            cmd += ["--spans", os.path.join(
                spans, "%s-seed%d.jsonl" % (args.workload, args.seed))]
        if args.print_digests:
            cmd.append("--print-digests")
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  env=child_env(), timeout=MEASURE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log("measurement timed out")
            return 1
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
        return proc.returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
