#!/usr/bin/env python3
"""Build and run the SATM benchmark; print every metric and one result line.

Usage (from the repository root):

    python3 satmbench/run.py --workload kv_durable_mix --seed 1 --seconds 10 --trace 0
    python3 satmbench/run.py                 # every workload, default settings
    python3 satmbench/run.py --trace 1 ...   # per-layer metrics (traced run)

The script builds satmbench/ with CMake into .bench_build/satmbench (the
store's sources are compiled from src/), runs the `satmbench` binary, and
prints a table of the metrics, then, as the last line of standard output,
one JSON object with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json. --trace 1
runs the workload twice, untraced and then with the benchmark's spans and
SATM_TRACE=1, and reports the per-layer metrics of the traced run plus
trace_overhead.<metric> = traced minus untraced for every end-to-end metric.

Every run is also appended, with its host stamp, to --out (default
.bench_build/results.jsonl); satmbench/compare.py reads those records.
The exit status is nonzero when the build fails or an output check fails.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "satmbench"
WORK_DIR = ROOT / ".bench_build" / "work"
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures (first time) and builds the benchmark; False on failure."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout is reserved for results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("satmbench: build step failed:", " ".join(cmd))
            return False
    return True


def source_digest():
    """SHA-256 over the files the benchmark binary is built from."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for p in sorted(top.rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() or None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_stamp(args):
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "kernel": platform.release(),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "build_type": BUILD_TYPE,
        "satm_env": {k: v for k, v in sorted(os.environ.items())
                     if k.startswith("SATM_")},
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "time_unix": time.time(),
    }


def run_binary(workload, seed, seconds, trace):
    """Runs one workload; returns the binary's JSON object, or None."""
    env = dict(os.environ)
    env.pop("SATM_TRACE", None)
    if trace:
        env["SATM_TRACE"] = "1"
    cmd = [str(BUILD_DIR / "satmbench"), "--workload=" + workload,
           "--seed=%d" % seed, "--seconds=%s" % seconds,
           "--trace=%d" % trace, "--workdir=" + str(WORK_DIR)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("satmbench: %s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return None
    lines = [l for l in r.stdout.splitlines() if l.strip()]
    if not lines:
        log("satmbench: %s printed no result (exit %d)"
            % (workload, r.returncode))
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        log("satmbench: unparsable result from %s" % workload)
        return None


def select(res, specs):
    """The metrics named in specs, or None when one is missing."""
    out = {}
    for m in specs:
        got = res["metrics"].get(m["name"])
        if got is None:
            log("satmbench: the binary did not report %s" % m["name"])
            return None
        out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return out


def run_workload(workload, args, spec):
    """One workload at the requested trace level; a result record or None."""
    e2e = spec["end_to_end"]
    base = run_binary(workload, args.seed, args.seconds, 0)
    if base is None:
        return None
    record = {
        "workload": workload,
        "correct": base["correct"],
        "attempted": base["attempted"],
        "failed": base["failed"],
        "check_errors": base["check_errors"],
        "info": base["info"],
    }
    metrics = select(base, e2e)
    if metrics is None:
        return None
    record["end_to_end"] = metrics
    if args.trace:
        traced = run_binary(workload, args.seed, args.seconds, 1)
        if traced is None:
            return None
        record["correct"] = record["correct"] and traced["correct"]
        record["check_errors"] += traced["check_errors"]
        record["traced_info"] = traced["info"]
        overhead = {}
        for m in e2e:
            overhead["trace_overhead." + m["name"]] = {
                "value": traced["metrics"][m["name"]]["value"]
                - base["metrics"][m["name"]]["value"],
                "unit": m["unit"]}
        traced["metrics"].update(overhead)
        layer = select(traced, spec["per_layer"])
        if layer is None:
            return None
        record["per_layer"] = layer
        metrics = layer
    record["metrics"] = metrics
    return record


def print_table(record):
    w = record["workload"]
    print("%s: correct=%s attempted=%d failed=%d" % (
        w, record["correct"], record["attempted"], record["failed"]))
    for err in record["check_errors"]:
        print("  CHECK FAILED: %s" % err)
    for name, m in record["metrics"].items():
        extra = ""
        if name == "p99_us":
            extra = "  (median of %s slices; %s samples, >= %s beyond p99 " \
                "per slice)" % (record["info"].get("slices"),
                                record["info"].get("latency_samples"),
                                record["info"].get(
                                    "p99_samples_beyond_per_slice"))
        print("  %-34s %16.6g %s%s" % (name, m["value"], m["unit"], extra))
    if "per_layer" in record:
        print("  per-layer self time (ms): " + ", ".join(
            "%s=%.3f" % (k[len("self_ms."):], v["value"])
            for k, v in record["per_layer"].items()
            if k.startswith("self_ms.")))
    sys.stdout.flush()


def main():
    try:
        spec = load_spec()
        spec_names = [w["name"] for w in spec["workloads"]]
    except (OSError, ValueError, KeyError) as e:
        log("satmbench: cannot read BENCHMARK.json: %s" % e)
        return 2
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=spec_names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=str(ROOT / ".bench_build" /
                                         "results.jsonl"),
                    help="JSONL file the stamped records are appended to")
    args = ap.parse_args()

    if not build():
        return 2
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    stamp = host_stamp(args)
    workloads = spec_names if args.workload == "all" else [args.workload]
    records = []
    for w in workloads:
        rec = run_workload(w, args, spec)
        if rec is None:
            return 2
        rec["seed"] = args.seed
        rec["stamp"] = stamp
        records.append(rec)
        print_table(rec)
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "a") as f:
            f.write(json.dumps(rec) + "\n")

    correct = all(r["correct"] for r in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {"%s.%s" % (r["workload"], k): v
                   for r in records for k, v in r["metrics"].items()}
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
