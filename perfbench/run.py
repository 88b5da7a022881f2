#!/usr/bin/env python3
"""The repository benchmark: host cost of simulating the hybrid switch.

Run from the repository root:

    python3 perfbench/run.py --workload p128_uniform --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one after another
    python3 perfbench/run.py --selftest                # tests of the benchmark itself
    python3 perfbench/run.py --rebaseline              # rewrite perfbench/expected/

The first call builds the simulator and the benchmark from source into
$CARGO_TARGET_DIR (default .bench_build).  Each repetition of a workload is
its own xdrs_perf process, started one after another and never
concurrently, so peak RSS and the allocation counter see one workload only.
Repetitions fill --seconds (at least MIN_REPS, or MIN_TRACED_REPS traced);
every metric is the median over them.  --trace 0 reports the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer ones, from a separate traced run.
The last line of standard output is one JSON object:

    {"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value": .., "unit": ..}}}

`failed / attempted` is the benchmark's fail ratio: points that threw, broke
a report invariant, or (at the default seed) whose report digest differs
from perfbench/expected/.  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["p128_uniform", "hybrid_websearch", "pcross_sweep"]
DEFAULT_SEED = 7
# Repetitions per run even when --seconds is short: a median needs several.
# A traced repetition takes several times longer and its counts are exact.
MIN_REPS = 3
MIN_TRACED_REPS = 1
# A run of one workload must end well inside 180 s, whatever its processes do.
RUN_DEADLINE_S = 170


def die(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds the benchmark package; returns the build dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "framework.hpp")):
        die("simulator sources (src/) not found next to perfbench/; run from a full checkout")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            die("configuring the benchmark failed", 1)
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        die("building the benchmark failed", 1)
    return out


def manifest():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read BENCHMARK.json: {e}")


def run_workload(out_dir, workload, seed, seconds, traced):
    """Repeats one workload in fresh processes; returns (reps, attempted, failed, errors)."""
    binary = os.path.join(out_dir, "xdrs_perf")
    scratch = os.path.join(out_dir, "scratch")
    spans_dir = os.path.join(out_dir, "spans")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch, exist_ok=True)
    os.makedirs(spans_dir, exist_ok=True)
    # The first repetition finds the traffic seeds and leaves them here for the rest.
    inputs = os.path.join(scratch, f"{workload}-{seed}.inputs")
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--root", ROOT,
           "--scratch", scratch, "--inputs", inputs]
    if traced:
        cmd += ["--trace", "--spans", os.path.join(spans_dir, f"{workload}.json")]
    if seed == DEFAULT_SEED:
        cmd += ["--expected", os.path.join(HERE, "expected", f"{workload}.txt")]

    reps, errors = [], []
    attempted = failed = 0
    min_reps = MIN_TRACED_REPS if traced else MIN_REPS
    started = time.monotonic()
    while True:
        elapsed = time.monotonic() - started
        # After min_reps, start another repetition only if it should end in time.
        if len(reps) >= min_reps and elapsed * (len(reps) + 1) / len(reps) > seconds:
            break
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                  timeout=max(1.0, RUN_DEADLINE_S - elapsed))
            line = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            rep = json.loads(line) if proc.returncode == 0 and line else None
        except (subprocess.TimeoutExpired, ValueError) as e:
            proc, rep = None, None
            errors.append(str(e))
        if rep is None:
            # A crashed repetition checks nothing: count it as one failed point.
            attempted += 1
            failed += 1
            if proc is not None:
                errors.append(f"xdrs_perf exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
            break
        attempted += rep["attempted"]
        failed += rep["failed"]
        errors += rep["errors"]
        if reps and rep["digest"] != reps[0]["digest"]:
            failed += 1
            errors.append("reports differ between two processes at one seed")
        reps.append(rep)
    shutil.rmtree(scratch, ignore_errors=True)
    return reps, attempted, failed, errors


def measure(out_dir, spec, workload, seed, seconds, traced):
    """One workload's result object, as the last output line carries it."""
    wanted = spec["per_layer" if traced else "end_to_end"]
    reps, attempted, failed, errors = run_workload(out_dir, workload, seed, seconds, traced)
    metrics = {}
    for m in wanted:
        values = [r["metrics"][m["name"]] for r in reps if m["name"] in r["metrics"]]
        if reps and len(values) != len(reps):
            die(f"xdrs_perf did not report {m['name']}", 1)
        if values:
            metrics[m["name"]] = {"value": statistics.median(values), "unit": m["unit"]}
    for e in errors:
        print(f"{workload}: {e}", file=sys.stderr)
    print(f"## {workload}  seed {seed}  {'traced' if traced else 'end to end'}  "
          f"({len(reps)} runs; fail ratio {failed}/{attempted})")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:>16.6g} {m['unit']}")
    return {"correct": failed == 0 and len(reps) > 0, "attempted": max(attempted, 1),
            "failed": failed if attempted else 1, "metrics": metrics}


def selftest(out_dir):
    binary = os.path.join(out_dir, "perfbench_selftest")
    if not os.path.isfile(binary):
        die("perfbench_selftest was not built (GoogleTest missing?)", 1)
    sys.exit(subprocess.run([binary]).returncode)


def rebaseline(out_dir):
    os.makedirs(os.path.join(HERE, "expected"), exist_ok=True)
    scratch = os.path.join(out_dir, "scratch")
    os.makedirs(scratch, exist_ok=True)
    for w in WORKLOADS:
        path = os.path.join(HERE, "expected", f"{w}.txt")
        cmd = [os.path.join(out_dir, "xdrs_perf"), "--workload", w, "--seed", str(DEFAULT_SEED),
               "--root", ROOT, "--scratch", scratch, "--write-expected", path]
        if subprocess.run(cmd).returncode != 0:
            die(f"rebaseline of {w} failed", 1)
        print(f"wrote {os.path.relpath(path, ROOT)}")
    shutil.rmtree(scratch, ignore_errors=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--rebaseline", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        die("--seed must be non-negative")

    spec = manifest()
    out_dir = build()
    if args.selftest:
        selftest(out_dir)
    if args.rebaseline:
        rebaseline(out_dir)
        return
    if args.workload is None:
        die("--workload is required")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if seconds < 1:
        die("--seconds must be at least 1")

    if args.workload != "all":
        result = measure(out_dir, spec, args.workload, args.seed, seconds, args.trace == 1)
    else:
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for w in WORKLOADS:
            r = measure(out_dir, spec, w, args.seed, seconds, args.trace == 1)
            result["correct"] = result["correct"] and r["correct"]
            result["attempted"] += r["attempted"]
            result["failed"] += r["failed"]
            result["metrics"].update({f"{w}.{k}": v for k, v in r["metrics"].items()})
    print(json.dumps(result))


if __name__ == "__main__":
    main()
