#!/usr/bin/env python3
"""Noise bands and parent-vs-change comparison for satmbench results.

Result records are the JSON lines satmbench/run.py appends to its --out
file, one per workload run, each carrying a host stamp. Records without a
stamp are rejected.

    # Spread of repeated runs of one build: median, quartiles and
    # (q3 - q1) / median per metric, against the bound in BENCHMARK.json.
    python3 satmbench/compare.py spread results.jsonl

    # Two result sets (A = parent, B = change), paired by workload and
    # seed: one row per workload per metric with each side's
    # median and quartiles, the fraction of pairs B wins, and a verdict.
    python3 satmbench/compare.py compare A.jsonl B.jsonl

    # Run interleaved pairs of two checkouts, alternating which side goes
    # first, then compare them.
    python3 satmbench/compare.py pairs --base PARENT_DIR --cand CHANGE_DIR \\
        --pairs 10 [--workload NAME ...] [--seconds S] [--out-dir DIR]

Verdicts, against each end-to-end metric's bound b from BENCHMARK.json:
  improved    B wins at least 9 of 10 pairs and the medians differ by more
              than A's interquartile range (or every B run beats every A run)
  worse       B's median is worse than A's by more than b (or every B run
              is worse than every A run)
  unresolved  either side's (q3 - q1) / median is wider than b
  unchanged   none of the above
The exit status of compare and pairs is 1 when any row reads "worse".
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
STAMP_KEYS = ("nproc", "cpu_model", "kernel", "source_sha256", "build_type",
              "satm_env", "seed")


def load_spec():
    with open(HERE.parent / "BENCHMARK.json") as f:
        return json.load(f)


def load_records(path):
    """Stamped, correct records of a JSONL file; exits on an unstamped one."""
    out = []
    with open(path) as f:
        for n, line in enumerate(f, 1):
            if not line.strip():
                continue
            rec = json.loads(line)
            stamp = rec.get("stamp")
            if not isinstance(stamp, dict) or any(k not in stamp
                                                  for k in STAMP_KEYS):
                sys.exit("%s:%d: result has no host stamp; rejected"
                         % (path, n))
            if not rec.get("correct"):
                print("%s:%d: %s seed %s failed its output checks; skipped"
                      % (path, n, rec.get("workload"), rec.get("seed")),
                      file=sys.stderr)
                continue
            out.append(rec)
    return out


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def series(records, workload, metric):
    return [r["end_to_end"][metric]["value"] for r in records
            if r["workload"] == workload and metric in r.get("end_to_end", {})]


def paired(recs_a, recs_b, workload, metric):
    """Values of A and B for the seeds both sides ran, in A's order."""
    def by_seed(recs):
        out = {}
        for r in recs:
            if r["workload"] == workload and metric in r.get("end_to_end", {}):
                out.setdefault(r["seed"], r["end_to_end"][metric]["value"])
        return out
    a, b = by_seed(recs_a), by_seed(recs_b)
    seeds = [s for s in a if s in b]
    return [a[s] for s in seeds], [b[s] for s in seeds]


def workloads_of(records):
    seen = []
    for r in records:
        if r["workload"] not in seen:
            seen.append(r["workload"])
    return seen


def cmd_spread(args):
    spec = load_spec()
    records = [r for p in args.files for r in load_records(p)]
    ok = True
    print("%-15s %-17s %3s %13s %13s %13s %8s %6s" % (
        "workload", "metric", "n", "q1", "median", "q3", "spread", "bound"))
    for w in workloads_of(records):
        for m in spec["end_to_end"]:
            vals = series(records, w, m["name"])
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            s = spread(vals)
            flag = "" if s <= m["bound"] or m["name"] == "setup_s" else "  WIDE"
            ok = ok and not flag
            print("%-15s %-17s %3d %13.6g %13.6g %13.6g %8.4f %6.2f%s" % (
                w, m["name"], len(vals), q1, med, q3, s, m["bound"], flag))
    return 0 if ok else 1


def verdict(a, b, bound, higher_better):
    """One verdict for series a (parent) and b (change), paired by index."""
    _, med_a, _ = quartiles(a)
    _, med_b, _ = quartiles(b)
    better = (lambda x, y: x > y) if higher_better else (lambda x, y: x < y)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if better(y, x))
    win_frac = wins / len(pairs) if pairs else 0.0
    if (min(b) > max(a)) if higher_better else (max(b) < min(a)):
        return "improved", win_frac
    if (max(b) < min(a)) if higher_better else (min(b) > max(a)):
        return "worse", win_frac
    if max(spread(a), spread(b)) > bound:
        return "unresolved", win_frac
    change = (med_b - med_a) / med_a if med_a else 0.0
    if (-change if higher_better else change) > bound:
        return "worse", win_frac
    q1a, _, q3a = quartiles(a)
    if win_frac >= 0.9 and abs(med_b - med_a) > (q3a - q1a):
        return "improved", win_frac
    return "unchanged", win_frac


def compare(spec, recs_a, recs_b):
    worse = False
    print("%-15s %-17s %33s %33s %5s %s" % (
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
        "win", "verdict"))
    for w in workloads_of(recs_a):
        for m in spec["end_to_end"]:
            a, b = paired(recs_a, recs_b, w, m["name"])
            if not a:
                continue
            v, win = verdict(a, b, m["bound"], m["better"] == "higher")
            worse = worse or v == "worse"
            fa, fb = quartiles(a), quartiles(b)
            print("%-15s %-17s %11.5g [%9.5g, %9.5g] %11.5g [%9.5g, %9.5g]"
                  " %5.2f %s" % (w, m["name"], fa[1], fa[0], fa[2], fb[1],
                                 fb[0], fb[2], win, v))
    return 1 if worse else 0


def cmd_compare(args):
    spec = load_spec()
    return compare(spec, load_records(args.a), load_records(args.b))


def cmd_pairs(args):
    spec = load_spec()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = {"A": out / "A.jsonl", "B": out / "B.jsonl"}
    for f in files.values():
        f.write_text("")
    dirs = {"A": Path(args.base).resolve(), "B": Path(args.cand).resolve()}
    for i in range(args.pairs):
        seed = i + 1
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for w in workloads:
            for side in order:
                cmd = [sys.executable, str(dirs[side] / "satmbench" / "run.py"),
                       "--workload", w, "--seed", str(seed),
                       "--seconds", str(args.seconds or spec["run_seconds"]),
                       "--trace", "0",
                       "--out", str(files[side].resolve())]
                print("pair %d/%d %s %s" % (i + 1, args.pairs, side, w),
                      file=sys.stderr, flush=True)
                subprocess.run(cmd, cwd=dirs[side], stdout=subprocess.DEVNULL)
    return compare(spec, load_records(files["A"]), load_records(files["B"]))


def main():
    ap = argparse.ArgumentParser(
        description="Noise bands and A/B comparison of satmbench results.")
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("spread")
    p.add_argument("files", nargs="+")
    p.set_defaults(fn=cmd_spread)
    p = sub.add_parser("compare")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(fn=cmd_compare)
    p = sub.add_parser("pairs")
    p.add_argument("--base", required=True)
    p.add_argument("--cand", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--workload", action="append")
    p.add_argument("--seconds", type=float)
    p.add_argument("--out-dir", default=str(HERE.parent / ".bench_build" /
                                            "pairs"))
    p.set_defaults(fn=cmd_pairs)
    args = ap.parse_args()
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
