#!/usr/bin/env bash
#===- scripts/bench.sh - Run the bench suites, emit BENCH_satm.json ------===#
#
# Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
#
# Full mode (default) runs bench/perf_suite (micro benchmarks),
# bench/kv_service --suite (the SATM-KV service with closed- and open-loop
# load) at their fixed full sizes, and the loopback wire stage — a
# kv_service --serve instance driven by bench/kv_loadgen over real TCP
# sockets: an open-loop Poisson sweep for the SLO-capacity verdict, then
# a server with a per-request deadline and retry budget held at 2x the
# measured capacity to show the budget keeping the tail bounded. The
# JSONs are merged into BENCH_satm.json at the repo root — the checked-in,
# machine-readable perf trajectory. The human-readable tables are
# mirrored into BENCH_satm.raw.txt, a scratch file that stays untracked.
#
# --smoke runs the tiny configurations CI uses (also exercised under the
# bench-smoke CTest label in both the plain and TSan builds); its merged
# JSON goes to build scratch so a smoke run can never clobber the checked-in
# baseline.
#
# Usage: scripts/bench.sh [--smoke] [jobs]
#
#===----------------------------------------------------------------------===#

set -euo pipefail

cd "$(dirname "$0")/.."
MODE=full
JOBS="$(nproc)"
for ARG in "$@"; do
  case "$ARG" in
    --smoke) MODE=smoke ;;
    '' | *[!0-9]*)
      echo "usage: scripts/bench.sh [--smoke] [jobs]" >&2
      exit 2
      ;;
    *) JOBS="$ARG" ;;
  esac
done

cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build -j "$JOBS" --target perf_suite kv_service kv_loadgen

# Concatenates the benchmarks arrays of same-mode bench JSONs.
merge_json() { # in1.json in2.json [in3.json ...] out.json
  python3 - "$@" <<'EOF'
import json, sys
ins, out = sys.argv[1:-1], sys.argv[-1]
docs = []
for p in ins:
    with open(p) as f:
        docs.append(json.load(f))
a = docs[0]
for b in docs[1:]:
    assert a["schema"] == b["schema"], (a["schema"], b["schema"])
    assert a["mode"] == b["mode"], (a["mode"], b["mode"])
    a["benchmarks"] += b["benchmarks"]
with open(out, "w") as f:
    json.dump(a, f, indent=2)
    f.write("\n")
print(f"merged {' + '.join(ins)} -> {out} ({len(a['benchmarks'])} benchmarks)")
EOF
}

# Starts kv_service --serve in the background (ephemeral port published
# through a port file), runs kv_loadgen against it, and waits the server
# out. The loadgen's --stop-server SHUTDOWN frame ends the serve run, so
# a clean exit here also certifies the ordered teardown.
run_net_stage() { # port-file server-args... -- loadgen-args...
  local PORT_FILE="$1"; shift
  local SERVER_ARGS=()
  while [ "$1" != "--" ]; do SERVER_ARGS+=("$1"); shift; done
  shift
  rm -f "$PORT_FILE"
  ./build/bench/kv_service --serve=127.0.0.1:0 --port-file="$PORT_FILE" \
    "${SERVER_ARGS[@]}" &
  local SERVER_PID=$!
  if ! ./build/bench/kv_loadgen --port-file="$PORT_FILE" --stop-server "$@"
  then
    kill "$SERVER_PID" 2>/dev/null || true
    wait "$SERVER_PID" 2>/dev/null || true
    return 1
  fi
  wait "$SERVER_PID"
}

if [ "$MODE" = smoke ]; then
  ./build/bench/perf_suite --smoke --json=build/BENCH_micro_smoke.json
  ./build/bench/kv_service --smoke --json=build/BENCH_kv_smoke.json
  # Wire smoke: one short open-loop point over loopback, enough to prove
  # the serve/loadgen handshake and the net JSON block end-to-end.
  run_net_stage build/net_port_smoke --io-threads=2 --keys=16384 -- \
    --qps=20000 --duration=1 --conns=2 --keys=16384 --seed=2026 \
    --mode=smoke --json=build/BENCH_net_smoke.json
  merge_json build/BENCH_micro_smoke.json build/BENCH_kv_smoke.json \
    build/BENCH_net_smoke.json build/BENCH_smoke.json
  echo "== bench smoke OK (build/BENCH_smoke.json)"
else
  ./build/bench/perf_suite --json=build/BENCH_micro.json | tee BENCH_satm.raw.txt
  ./build/bench/kv_service --suite --json=build/BENCH_kv.json | tee -a BENCH_satm.raw.txt

  echo "== net stage 1/2: open-loop capacity sweep (no budget)" | tee -a BENCH_satm.raw.txt
  run_net_stage build/net_port --io-threads=2 -- \
    --sweep=25000:400000:7 --duration=3 --conns=4 --seed=2026 \
    --json=build/BENCH_net_queue.json 2>&1 | tee -a BENCH_satm.raw.txt

  # The per-request budget (a 2 ms deadline from decode, four commit
  # attempts) must answer overload with Overloaded/DeadlineExceeded frames
  # instead of letting abort storms and fsync waits take the tail. Two
  # points: 2x the sweep's SLO-capacity verdict (the acceptance bar), and
  # the sweep's top rate, so the budgeted-vs-unbudgeted tail contrast is
  # measured at the same offered load.
  CAPACITY=$(python3 -c '
import json
doc = json.load(open("build/BENCH_net_queue.json"))
print(int(doc["benchmarks"][0]["net"]["slo_capacity"]))')
  if [ "$CAPACITY" -le 0 ]; then
    # A noisy box can miss the SLO at every sweep point (on 1 vCPU the
    # p99 rides scheduling jitter). The budget contrast still needs an
    # overload point: run it at the sweep's top rate instead.
    echo "== slo_capacity 0 (no sweep point met the SLO): budgeting at the sweep top" | tee -a BENCH_satm.raw.txt
    SHED_LOAD="--qps=400000"
  elif [ $((2 * CAPACITY)) -lt 400000 ]; then
    SHED_LOAD="--sweep=$((2 * CAPACITY)):400000:2"
  else
    SHED_LOAD="--qps=$((2 * CAPACITY))"
  fi
  echo "== net stage 2/2: per-request budget at 2x capacity (${CAPACITY} qps x 2) + sweep top" | tee -a BENCH_satm.raw.txt
  run_net_stage build/net_port --io-threads=2 \
      --deadline-us=2000 --retry-budget=4 -- \
    "$SHED_LOAD" --duration=5 --conns=4 --seed=2026 \
    --tag=shed --json=build/BENCH_net_shed.json 2>&1 | tee -a BENCH_satm.raw.txt

  merge_json build/BENCH_micro.json build/BENCH_kv.json \
    build/BENCH_net_queue.json build/BENCH_net_shed.json BENCH_satm.json
  echo "== wrote BENCH_satm.json"
fi
