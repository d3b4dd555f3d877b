#!/usr/bin/env bash
#===- scripts/check_bench_schema.sh - Validate BENCH json shape ----------===#
#
# Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
#
# Asserts that a bench JSON (the checked-in BENCH_satm.json or a smoke
# run's output from perf_suite / kv_service / kv_loadgen) carries the
# satm-bench-v10 schema: a non-empty benchmark list where every entry has
# the numeric core fields plus a complete per-benchmark abort-reason
# histogram (all nine taxonomy keys, integer counts). Service benchmarks
# (kv/*) must additionally carry throughput_ops_per_sec and the latency_ns
# percentile block; micro benchmarks may omit both. Overload benchmarks
# (kv/overload/*) must further carry offered_ops_per_sec,
# goodput_ops_per_sec and shed_rate. Snapshot-plane benchmarks
# (kv/snapshot/*) must carry the read_planes block — exactly the three
# plane keys (snapshot, nt, txn), each a complete percentile set plus
# sample count — and wherever read_planes appears it is validated to that
# shape. Durable benchmarks (kv/durable/*) must carry the v7 durability
# block — exactly {mode, fsync_batches, records, ring_stalls, recovery_ms}
# with mode "async" or "sync" — and wherever a durability block appears it
# is validated to that shape (mode "off" entries must not carry one: off
# means the log path was elided). v9: a durability block may additionally
# nest a checkpoint sub-block — exactly {interval_ops, ckpt_ms,
# wal_truncated_bytes, recovery_ms} — describing the compaction plane:
# the trigger interval, wall time spent checkpointing, log bytes rotated
# out, and the bounded post-checkpoint recovery replay time. Wire benchmarks (net/*, from
# bench/kv_loadgen) must carry the v8 net block — exactly {qps_offered,
# goodput, p99_ns, slo_capacity, shed_rate, batch_avg} — plus the latency
# percentile set; wherever a net block appears it is validated to that
# shape. CI runs this so a refactor can't
# silently drop the observability fields from the trajectory file.
#
# --require-kv asserts the file contains at least one kv/* entry and the
# full kv/snapshot/{read,ntread,txnread} triple — used on merged trajectory
# files, where losing the kv_service half (or the read-plane comparison)
# would otherwise still validate. --require-durability asserts at least
# one async kv/durable/* entry (and, on full-mode files, at least one sync
# entry) and at least one checkpoint-carrying kv/durable/* entry, so
# neither the durability plane's numbers nor the compaction plane's can
# silently vanish from the trajectory. --require-net
# asserts at least one net/* entry, so the loopback SLO-capacity sweep
# cannot silently vanish from a merged file.
#
# Usage: scripts/check_bench_schema.sh [--require-kv] \
#            [--require-durability] [--require-net] FILE.json [FILE2.json ...]
#
#===----------------------------------------------------------------------===#

set -euo pipefail

REQUIRE_KV=0
REQUIRE_DURABILITY=0
REQUIRE_NET=0
while true; do
  case "${1:-}" in
    --require-kv) REQUIRE_KV=1; shift ;;
    --require-durability) REQUIRE_DURABILITY=1; shift ;;
    --require-net) REQUIRE_NET=1; shift ;;
    *) break ;;
  esac
done

if [ "$#" -lt 1 ]; then
  echo "usage: scripts/check_bench_schema.sh [--require-kv]" \
       "[--require-durability] [--require-net] FILE.json [...]" >&2
  exit 2
fi

for FILE in "$@"; do
  python3 - "$FILE" "$REQUIRE_KV" "$REQUIRE_DURABILITY" "$REQUIRE_NET" \
    <<'EOF'
import json, sys

path = sys.argv[1]
require_kv = sys.argv[2] == "1"
require_durability = sys.argv[3] == "1"
require_net = sys.argv[4] == "1"
REASONS = [
    "read_validation", "write_lock_conflict", "nt_read_kill", "nt_write_kill",
    "aggregated_scope", "user_retry", "user_abort", "contention_give_up",
    "fault_injected",
]
PERCENTILES = ["p50", "p95", "p99", "p999"]
OVERLOAD_FIELDS = ["offered_ops_per_sec", "goodput_ops_per_sec", "shed_rate"]
PLANES = ["snapshot", "nt", "txn"]
PLANE_FIELDS = PERCENTILES + ["count"]
DURABILITY_INT_FIELDS = ["fsync_batches", "records", "ring_stalls"]
DURABILITY_FIELDS = DURABILITY_INT_FIELDS + ["mode", "recovery_ms"]
CHECKPOINT_INT_FIELDS = ["interval_ops", "wal_truncated_bytes"]
CHECKPOINT_FIELDS = CHECKPOINT_INT_FIELDS + ["ckpt_ms", "recovery_ms"]
NET_FIELDS = ["qps_offered", "goodput", "p99_ns", "slo_capacity",
              "shed_rate", "batch_avg"]
SNAPSHOT_TRIPLE = ["kv/snapshot/read_", "kv/snapshot/ntread_",
                   "kv/snapshot/txnread_"]

with open(path) as f:
    doc = json.load(f)

def fail(msg):
    sys.exit(f"{path}: {msg}")

if doc.get("schema") != "satm-bench-v10":
    fail(f"schema is {doc.get('schema')!r}, expected 'satm-bench-v10'")
if doc.get("mode") not in ("full", "smoke"):
    fail(f"mode is {doc.get('mode')!r}")
benches = doc.get("benchmarks")
if not isinstance(benches, list) or not benches:
    fail("benchmarks must be a non-empty list")
kv_entries = 0
durable_async = 0
durable_sync = 0
durable_ckpt = 0
net_entries = 0
triple_seen = {p: False for p in SNAPSHOT_TRIPLE}
for b in benches:
    name = b.get("name", "<unnamed>")
    for key in ("ns_per_op", "ops", "commits", "aborts", "median_of"):
        if not isinstance(b.get(key), (int, float)):
            fail(f"benchmark {name}: missing numeric field {key!r}")
    reasons = b.get("abort_reasons")
    if not isinstance(reasons, dict):
        fail(f"benchmark {name}: missing abort_reasons histogram")
    for r in REASONS:
        if not isinstance(reasons.get(r), int):
            fail(f"benchmark {name}: abort_reasons missing integer {r!r}")
    if set(reasons) != set(REASONS):
        fail(f"benchmark {name}: unexpected abort_reasons keys "
             f"{sorted(set(reasons) - set(REASONS))}")
    # Service fields: optional in general, mandatory for kv/* entries.
    has_tput = "throughput_ops_per_sec" in b
    has_lat = "latency_ns" in b
    if name.startswith("kv/"):
        kv_entries += 1
        if not has_tput or not has_lat:
            fail(f"benchmark {name}: kv/* entries must carry "
                 "throughput_ops_per_sec and latency_ns")
    # Read-plane split: mandatory for kv/snapshot/* entries, and
    # validated to exactly three complete planes wherever present.
    if name.startswith("kv/snapshot/") and "read_planes" not in b:
        fail(f"benchmark {name}: kv/snapshot/* entries must carry "
             "read_planes")
    for prefix in SNAPSHOT_TRIPLE:
        if name.startswith(prefix):
            triple_seen[prefix] = True
    if "read_planes" in b:
        rp = b["read_planes"]
        if not isinstance(rp, dict) or set(rp) != set(PLANES):
            fail(f"benchmark {name}: read_planes must carry exactly the "
                 f"plane keys {PLANES}")
        for plane in PLANES:
            block = rp[plane]
            if not isinstance(block, dict) or set(block) != set(PLANE_FIELDS):
                fail(f"benchmark {name}: read_planes[{plane!r}] must carry "
                     f"exactly {PLANE_FIELDS}")
            for key in PLANE_FIELDS:
                if not isinstance(block[key], int):
                    fail(f"benchmark {name}: read_planes[{plane!r}][{key!r}] "
                         "must be an integer")
    # v7 durability block: mandatory for kv/durable/* entries, validated
    # to exact shape wherever present.
    if name.startswith("kv/durable/") and "durability" not in b:
        fail(f"benchmark {name}: kv/durable/* entries must carry the "
             "durability block")
    if "durability" in b:
        blk = b["durability"]
        base = set(DURABILITY_FIELDS)
        if not isinstance(blk, dict) or set(blk) - {"checkpoint"} != base:
            fail(f"benchmark {name}: durability block must carry exactly "
                 f"{sorted(DURABILITY_FIELDS)} (plus an optional nested "
                 "'checkpoint' sub-block)")
        if blk["mode"] not in ("async", "sync"):
            fail(f"benchmark {name}: durability mode must be 'async' or "
                 f"'sync' (off runs carry no block), got {blk['mode']!r}")
        for key in DURABILITY_INT_FIELDS:
            if not isinstance(blk[key], int):
                fail(f"benchmark {name}: durability[{key!r}] must be an "
                     "integer")
        if not isinstance(blk["recovery_ms"], (int, float)):
            fail(f"benchmark {name}: durability['recovery_ms'] must be "
                 "numeric")
        # v9 checkpoint sub-block: the compaction plane's footprint, the
        # exact field set so a refactor cannot silently drop a column.
        if "checkpoint" in blk:
            ck = blk["checkpoint"]
            if not isinstance(ck, dict) or set(ck) != set(CHECKPOINT_FIELDS):
                fail(f"benchmark {name}: durability.checkpoint must carry "
                     f"exactly {sorted(CHECKPOINT_FIELDS)}")
            for key in CHECKPOINT_INT_FIELDS:
                if not isinstance(ck[key], int):
                    fail(f"benchmark {name}: durability.checkpoint[{key!r}] "
                         "must be an integer")
            for key in ("ckpt_ms", "recovery_ms"):
                if not isinstance(ck[key], (int, float)):
                    fail(f"benchmark {name}: durability.checkpoint[{key!r}] "
                         "must be numeric")
            if name.startswith("kv/durable/"):
                durable_ckpt += 1
        if name.startswith("kv/durable/"):
            if blk["mode"] == "async":
                durable_async += 1
            else:
                durable_sync += 1
    # v8 net block: mandatory for net/* entries (which are wire-latency
    # measurements, so the percentile set is mandatory too), validated to
    # exact shape wherever present.
    if name.startswith("net/"):
        net_entries += 1
        if "net" not in b:
            fail(f"benchmark {name}: net/* entries must carry the net block")
        if not has_lat:
            fail(f"benchmark {name}: net/* entries must carry latency_ns")
    if "net" in b:
        blk = b["net"]
        if not isinstance(blk, dict) or set(blk) != set(NET_FIELDS):
            fail(f"benchmark {name}: net block must carry exactly "
                 f"{sorted(NET_FIELDS)}")
        for key in NET_FIELDS:
            if not isinstance(blk[key], (int, float)):
                fail(f"benchmark {name}: net[{key!r}] must be numeric")
    # v4 overload fields: mandatory for kv/overload/* entries, numeric
    # wherever present.
    if name.startswith("kv/overload/"):
        for key in OVERLOAD_FIELDS:
            if key not in b:
                fail(f"benchmark {name}: kv/overload/* entries must carry "
                     f"{key!r}")
    for key in OVERLOAD_FIELDS:
        if key in b and not isinstance(b[key], (int, float)):
            fail(f"benchmark {name}: {key} must be numeric")
    if has_tput and not isinstance(b["throughput_ops_per_sec"], (int, float)):
        fail(f"benchmark {name}: throughput_ops_per_sec must be numeric")
    if has_lat:
        lat = b["latency_ns"]
        if not isinstance(lat, dict):
            fail(f"benchmark {name}: latency_ns must be an object")
        for p in PERCENTILES:
            if not isinstance(lat.get(p), int):
                fail(f"benchmark {name}: latency_ns missing integer {p!r}")
        if set(lat) != set(PERCENTILES):
            fail(f"benchmark {name}: unexpected latency_ns keys "
                 f"{sorted(set(lat) - set(PERCENTILES))}")
if require_kv and kv_entries == 0:
    fail("--require-kv: no kv/* benchmark entries present")
if require_kv:
    missing = [p for p, seen in triple_seen.items() if not seen]
    if missing:
        fail(f"--require-kv: kv/snapshot read-plane triple incomplete, "
             f"missing entries for {missing}")
if require_durability and durable_async == 0:
    fail("--require-durability: no async kv/durable/* entries present")
if require_durability and doc["mode"] == "full" and durable_sync == 0:
    fail("--require-durability: full-mode file has no sync kv/durable/* "
         "entry")
if require_durability and durable_ckpt == 0:
    fail("--require-durability: no checkpoint-carrying kv/durable/* entry "
         "(the compaction plane's numbers vanished)")
if require_net and net_entries == 0:
    fail("--require-net: no net/* (wire load-generator) entries present")
kv_note = f", {kv_entries} kv" if kv_entries else ""
if durable_async or durable_sync:
    kv_note += (f" ({durable_async} async + {durable_sync} sync durable, "
                f"{durable_ckpt} checkpointed)")
if net_entries:
    kv_note += f", {net_entries} net"
print(f"{path}: satm-bench-v10 OK ({len(benches)} benchmarks{kv_note})")
EOF
done
