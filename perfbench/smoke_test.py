#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes.

Runs perfbench/run.py on every workload in both modes -- the chain
workloads at 8,000 events, apps on two models, triage on one -- and
checks that each run passes its correctness gate, that the JSON result
carries every metric BENCHMARK.json declares for the mode with the
declared unit, and that every metric the README lists is printed by
name and unit on the workloads it applies to.  Then it alters one
committed reference digest and checks that the gate trips: non-zero
exit and "correct": false.

    python3 perfbench/smoke_test.py      # from the repository root
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SEED = 3
TINY = {
    "apps": ["--apps", "connectbot,vlc"],
    "chain-1m": ["--chain-events", "8000"],
    "chain-1m-window": ["--chain-events", "8000"],
    "triage": ["--apps", "connectbot"],
}
# Printed metrics that only some workloads produce, by workload.
PRINTED_ALL = {"ops_failed_frac": "ratio"}
PRINTED_TRACED = {
    "apps": {"detect.extract_ms": "ms"},
    "chain-1m": {"detect.extract_ms": "ms"},
    "chain-1m-window": {"detect.windowed_ms": "ms",
                        "detect.overlay_hw_kb": "kB",
                        "detect.reach_rows_hw": "count"},
    "triage": {"detect.extract_ms": "ms", "confirm.ms": "ms",
               "confirm.replays": "count", "confirm.yield": "ratio",
               "rt.run_ms": "ms"},
}

failures = []


def check(cond, what):
    if not cond:
        failures.append(what)
        print("FAIL: " + what, flush=True)


def run(workload, trace, extra=()):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(SEED),
           "--seconds", "0.1", "--trace", str(trace)] + TINY[workload] + \
        list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    printed = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 4 and parts[0] == "metric":
            printed[parts[1]] = parts[3]
    return proc.returncode, result, printed, proc.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}

    for workload in TINY:
        for trace in (0, 1):
            tag = "%s --trace %d" % (workload, trace)
            code, result, printed, err = run(workload, trace)
            check(code == 0, "%s exits 0 (got %d): %s" % (tag, code,
                                                          err[-300:]))
            if result is None:
                check(False, tag + " prints a JSON result last")
                continue
            check(set(result) == {"correct", "attempted", "failed",
                                  "metrics"}, tag + " result keys")
            check(result["correct"] is True and result["failed"] == 0,
                  tag + " passes the correctness gate")
            metrics = result["metrics"]
            check(set(metrics) == set(declared[trace]),
                  tag + " emits exactly the declared metrics")
            for name, unit in declared[trace].items():
                got = metrics.get(name, {})
                check(got.get("unit") == unit and
                      isinstance(got.get("value"), (int, float)),
                      "%s metric %s in %s" % (tag, name, unit))
            want = dict(PRINTED_ALL)
            if workload == "triage":
                want["races_confirmed"] = "count"
            if trace:
                want.update(PRINTED_TRACED[workload])
            for name, unit in want.items():
                check(printed.get(name) == unit,
                      "%s prints %s in %s" % (tag, name, unit))

    # The gate must trip on an altered reference digest.
    scratch = os.path.join(ROOT, ".bench_build", "smoke")
    os.makedirs(scratch, exist_ok=True)
    with open(os.path.join(HERE, "references.txt")) as f:
        refs = f.read().splitlines()
    for workload, key in (("chain-1m", "report/chain/8000/%d" % (SEED % 8)),
                          ("triage", "verdicts/connectbot")):
        altered = []
        for line in refs:
            if line.split(" ")[0] == key:
                digest = line.split(" ")[1]
                line = key + " " + ("0" if digest[0] != "0" else "1") + \
                    digest[1:]
            altered.append(line)
        check(altered != refs, "reference %s exists" % key)
        path = os.path.join(scratch, "altered-references.txt")
        with open(path, "w") as f:
            f.write("\n".join(altered) + "\n")
        code, result, _, _ = run(workload, 0, ["--references", path])
        check(code != 0, "altered %s: exit non-zero" % key)
        check(result is not None and result["correct"] is False and
              result["failed"] == result["attempted"],
              "altered %s: every trace fails the gate" % key)

    print("smoke test: %s" % ("FAILED (%d)" % len(failures)
                              if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
