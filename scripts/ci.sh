#!/usr/bin/env bash
#===- scripts/ci.sh - Tier-1 CI: plain + ThreadSanitizer ----------------===#
#
# Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
#
# Builds and runs the full test suite twice: a regular RelWithDebInfo build,
# then a ThreadSanitizer build (-DSATM_SANITIZE=thread). SATM_FAST_TESTS=1
# trims the iteration-heavy stress tests so the whole script stays under a
# couple of minutes.
#
# Usage: scripts/ci.sh [jobs]
#
#===----------------------------------------------------------------------===#

set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"
export SATM_FAST_TESTS="${SATM_FAST_TESTS:-1}"

echo "== tier-1 build (RelWithDebInfo)"
cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build -j "$JOBS"
(cd build && ctest --output-on-failure -j "$JOBS")

echo "== bench smoke (perf_suite + kv_service + loopback wire, merged)"
scripts/bench.sh --smoke "$JOBS"
scripts/check_bench_schema.sh --require-kv --require-durability \
  --require-net build/BENCH_smoke.json BENCH_satm.json

echo "== bench smoke with event tracing armed (SATM_TRACE=1)"
SATM_TRACE=1 SATM_STATS=1 ./build/bench/perf_suite --smoke \
  --json=build/BENCH_smoke_trace.json
scripts/check_bench_schema.sh build/BENCH_smoke_trace.json
SATM_TRACE=1 SATM_STATS=1 ./build/bench/kv_service --smoke \
  --json=build/BENCH_kv_smoke_trace.json
scripts/check_bench_schema.sh --require-kv --require-durability \
  build/BENCH_kv_smoke_trace.json

echo "== snapshot plane lane (ctest -L snapshot, plain + tracing armed)"
(cd build && ctest --output-on-failure -j "$JOBS" -L snapshot)
(cd build && SATM_TRACE=1 SATM_STATS=1 ctest --output-on-failure -j "$JOBS" \
  -L snapshot)

echo "== snapshot fault lane (delay/stall sites only)"
# Read-only snapshots are wait-free and must stay *exactly* zero-abort, so
# these tests assert exact counters — which abort-injecting sites (txn_open,
# txn_commit, heap_alloc) would clobber with spurious retries. Injecting
# only the delay sites keeps the counters exact while widening the races
# the churn/publish paths run through; publish_stall parks committers
# between ticket and done mark, so commits complete out of ticket order.
# The explorer test is excluded: its golden replay tokens depend on
# deterministic event streams.
(cd build && \
  SATM_FAULTS="seed=11,barrier_delay=0.01:800,quiesce_stall=0.05:400,publish_stall=0.05:400" \
  ctest --output-on-failure -j "$JOBS" \
  -R "snapshot_txn_test|kv_snapshot_store_test")

echo "== fault-injection smoke lane (seeded SATM_FAULTS matrix)"
# A curated subset: concurrency-heavy tests whose assertions are about
# outcomes, not exact abort counts (injected spurious aborts add retries).
# kv_churn_flat_test is here for the reclamation identities: an insert
# that aborts and re-executes must still allocate at most one record.
# The dedicated fault tests (fault_injector_test etc.) arm programmatically
# and run in the default lanes instead.
FAULT_TESTS="barriers_test|lazy_txn_test|quiesce_test|workloads_test|kv_stress_test|kv_churn_flat_test"
for SPEC in \
  "seed=1,txn_open=0.02,txn_commit=0.02" \
  "seed=7,txn_open=0.05,lazy_open=0.05,lazy_commit=0.05" \
  "seed=42,barrier_delay=0.01:800,quiesce_stall=0.05:400,publish_stall=0.05:400"; do
  echo "-- SATM_FAULTS=$SPEC"
  (cd build && SATM_FAULTS="$SPEC" ctest --output-on-failure -j "$JOBS" \
    -R "$FAULT_TESTS")
done

echo "== net front-end fault lane (seeded short-read/short-write caps)"
# The net_read/net_write sites cap server-side socket syscalls to a few
# bytes, forcing the partial-frame decode and partial-flush resume paths
# under the full loopback matrix. Only the capping sites go in the env
# spec: net_accept drops whole connections, which the outcome assertions
# (every request answered) cannot absorb — the drop path has its own
# programmatic-arm test inside net_server_test. Args are explicit
# (":1"/":3") because arm() treats 0 as "use the default delay spins".
(cd build && SATM_FAULTS="seed=5,net_read=0.3:1,net_write=0.3:3" \
  ctest --output-on-failure -R "net_server_test")

echo "== durability crash/recovery lane (seeded kill-mode loop, full length)"
# The crash test arms SATM_FAULTS in its re-executed children itself, and
# the recovery tests manufacture their own log damage, so neither runs
# under the env-armed matrices above (parent-side faults would break the
# harness, not the plane). SATM_FAST_TESTS=0 forces the full 100-iteration
# kill loop here even when the rest of CI runs trimmed. The chaos-labeled
# network loop gets its own lane below.
(cd build && SATM_FAST_TESTS=0 ctest --output-on-failure -L durability \
  -LE chaos)

echo "== network chaos lane (kill-under-TCP-load loop, full length)"
# The full production stack — recovered store, background checkpointer,
# epoll server with sync acks — killed mid-load/mid-checkpoint/
# mid-recovery by rotated seeded sites, 100 chained iterations: no acked
# sync write lost, exact conservation, checkpoint-bounded replay. The
# enospc scenario inside the same binary proves a sealed log degrades
# service instead of aborting it.
(cd build && SATM_FAST_TESTS=0 ctest --output-on-failure -L chaos)

echo "== disk-fault degradation sub-lane (seeded log_enospc, live server)"
# Env-armed ENOSPC against the real kv_service --serve process under
# kv_loadgen traffic: the WAL seals mid-run, sync acks turn into
# DurabilityLost (the loadgen counts them separately, they are not
# errors), reads keep flowing, and the server must still exit 0 at
# shutdown — the lane's assertion is that an injected disk fault never
# becomes an ioFatal abort.
rm -f build/net_port_enospc
SATM_FAULTS="seed=23,log_enospc=0.02" ./build/bench/kv_service \
  --serve=127.0.0.1:0 --port-file=build/net_port_enospc --keys=16384 \
  --io-threads=2 --durability=sync --checkpoint-interval=4096 &
ENOSPC_SERVER_PID=$!
./build/bench/kv_loadgen --port-file=build/net_port_enospc \
  --qps=5000 --duration=1 --conns=2 --keys=16384 --mode=smoke --retries=2 \
  --json=build/BENCH_net_enospc.json --stop-server
wait "$ENOSPC_SERVER_PID"
scripts/check_bench_schema.sh --require-net build/BENCH_net_enospc.json

echo "== ThreadSanitizer build"
cmake -B build-tsan -S . -DSATM_SANITIZE=thread
cmake --build build-tsan -j "$JOBS"
(cd build-tsan && ctest --output-on-failure -j "$JOBS")

echo "== TSan fault-injection smoke"
(cd build-tsan && \
  SATM_FAULTS="seed=7,txn_open=0.02,txn_commit=0.02,barrier_delay=0.01:800" \
  ctest --output-on-failure -j "$JOBS" -R "$FAULT_TESTS")

echo "== TSan durability crash/recovery lane (full kill loop)"
(cd build-tsan && SATM_FAST_TESTS=0 ctest --output-on-failure -L durability \
  -LE chaos)

echo "== TSan network chaos lane (full kill-under-TCP-load loop)"
(cd build-tsan && SATM_FAST_TESTS=0 ctest --output-on-failure -L chaos)

echo "== TSan net front-end fault lane"
(cd build-tsan && SATM_FAULTS="seed=5,net_read=0.3:1,net_write=0.3:3" \
  ctest --output-on-failure -R "net_server_test")

echo "== TSan loopback serve/loadgen smoke (real sockets end-to-end)"
rm -f build-tsan/net_port_smoke
./build-tsan/bench/kv_service --serve=127.0.0.1:0 \
  --port-file=build-tsan/net_port_smoke --keys=16384 --io-threads=2 &
NET_SERVER_PID=$!
./build-tsan/bench/kv_loadgen --port-file=build-tsan/net_port_smoke \
  --qps=5000 --duration=1 --conns=2 --keys=16384 --mode=smoke \
  --json=build-tsan/BENCH_net_smoke.json --stop-server
wait "$NET_SERVER_PID"
scripts/check_bench_schema.sh --require-net build-tsan/BENCH_net_smoke.json

echo "== TSan snapshot lane (tracing armed)"
(cd build-tsan && SATM_TRACE=1 SATM_STATS=1 ctest --output-on-failure \
  -j "$JOBS" -L snapshot)

echo "== TSan bench smoke with event tracing armed"
SATM_TRACE=1 SATM_STATS=1 ./build-tsan/bench/perf_suite --smoke \
  --json=build-tsan/BENCH_smoke_trace.json
scripts/check_bench_schema.sh build-tsan/BENCH_smoke_trace.json
SATM_TRACE=1 SATM_STATS=1 ./build-tsan/bench/kv_service --smoke \
  --json=build-tsan/BENCH_kv_smoke_trace.json
scripts/check_bench_schema.sh --require-kv --require-durability \
  build-tsan/BENCH_kv_smoke_trace.json

echo "== CI green (plain + tsan, SATM_FAST_TESTS=$SATM_FAST_TESTS)"
