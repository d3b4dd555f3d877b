//===- bench/kv_service.cpp - SATM-KV tail-latency service harness -------===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//
//
// TailBench-style driver for the SATM-KV store (src/kv): worker threads
// issue a configurable mix of single-key GET/PUT (the non-transactional
// barrier plane), multi-key MGET/RMW/CAS (the transactional plane), and
// SNAP (wait-free snapshot multi-gets on the multi-version plane,
// DESIGN.md §10) against one shared store, under the +DEA strong-atomicity
// configuration.
// Each worker also keeps a DEA-private scratch object it updates through
// the write barrier on every request, so the private fast path (Figure 10's
// two-instruction sequence) is on the measured path just as compiled code
// would place it.
//
// Two load modes:
//  - closed-loop (default): each thread issues its next request the moment
//    the previous one completes; latency = service time.
//  - open-loop (--qps=N): requests arrive by a Poisson process at an
//    aggregate target rate, split evenly across threads; latency is
//    completion minus *scheduled arrival*, so queueing delay from
//    scheduling hiccups and abort storms is charged to the tail, which is
//    what distinguishes a tail-latency harness from a throughput one.
//
// Every worker transacts against every shard through the one record
// protocol, and so does every --serve I/O thread: no thread owns a shard.
//
// Latencies go into per-thread log-bucketed histograms (≤3.2% relative
// error) merged at the end; p50/p95/p99/p99.9 are reported in the table and
// in the kv/* entries of the bench JSON (bench/BenchJson.h). Read
// latencies are additionally split per plane (snapshot/nt/txn) into the
// read_planes block, so the three read paths' tails stay separately
// attributable — the kv/snapshot/* triple runs the same 8-key read batch
// through each plane in turn against an identical 10% PUT write side.
// `--suite` runs the canned configurations whose numbers are checked in via
// scripts/bench.sh; `--smoke` is the tiny CI/TSan variant; bare flags run a
// single custom configuration.
//
// Three durability modes (--durability=off|async|sync, DESIGN.md §12):
//  - off (default): no write-ahead log at all — the log path is elided
//    down to one predicted branch per mutation.
//  - async: committing transactions append redo records to their own
//    in-memory logs at their Quiescence publish ticket; one drain thread
//    merges them into the redo log in commit order and group-commits each
//    cycle with one fsync. Requests ack at log append, so a crash loses
//    at most the un-fsynced window.
//  - sync: requests ack only after waitDurable observes their commit's
//    group fsynced; the wait is charged to the request's latency. Acked
//    writes survive any kill point.
// Every durable entry also runs the recovery-time benchmark: after the
// measured window, a fresh store is prepopulated and the run's log (above
// its newest checkpoint) scanned once and replayed into it, one thread
// per group of store shards; the wall time lands in the entry's
// durability block as recovery_ms.
//
// The kv/overload/* suite entries run the overload-degradation experiment:
// open-loop at 2× the machine's measured closed-loop saturation, each
// request carrying a deadline, under one of two policies. "queue" executes
// everything and lets queueing delay blow through the tail; "shed" drops
// already-late arrivals at admission and gives each transactional op a
// retry/deadline budget (kv::OpBudget), trading a nonzero shed rate for a
// bounded p99.9 and higher goodput (requests completed in budget).
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "ServiceFlags.h"

#include "kv/Checkpoint.h"
#include "kv/Store.h"
#include "kv/Wal.h"
#include "net/Server.h"
#include "stm/Barriers.h"
#include "stm/Config.h"
#include "stm/Report.h"
#include "stm/Snapshot.h"
#include "stm/Stats.h"
#include "support/LatencyHistogram.h"
#include "support/Rng.h"
#include "support/Table.h"
#include "support/Zipf.h"

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace satm;
using namespace satm::bench;
using namespace satm::stm;

namespace {

using Clock = std::chrono::steady_clock;

const rt::TypeDescriptor ScratchType("kv.Scratch", 2, {});

/// Request mix in percent; must sum to 100. GET/PUT are the
/// non-transactional plane, SNAP is the wait-free snapshot plane
/// (Store::snapshotMultiGet; needs Config::SnapshotEnabled, which
/// runService turns on whenever the mix uses it), the rest are
/// transactions.
struct Mix {
  unsigned Get = 60, Put = 20, Mget = 10, Rmw = 8, Cas = 2, Snap = 0;

  unsigned txnPct() const { return Mget + Rmw + Cas; }
  std::string str() const {
    char Buf[112];
    std::snprintf(Buf, sizeof(Buf),
                  "get:%u,put:%u,mget:%u,rmw:%u,cas:%u,snap:%u", Get, Put,
                  Mget, Rmw, Cas, Snap);
    return Buf;
  }
};

/// Which read plane a completed request exercised, for the per-plane
/// latency split. Write-only and overload-rejected requests carry None.
enum class ReadPlane { None, Snap, Nt, Txn };

/// What to do when offered load exceeds capacity (open-loop runs only).
enum class OverloadPolicy {
  None,  ///< Closed-loop / uncontrolled open-loop: no deadline semantics.
  Queue, ///< Execute everything; queueing delay goes to the tail.
  Shed,  ///< Admission-drop already-late arrivals; budget the txn ops.
};

struct RunConfig {
  std::string Name = "kv/custom";
  unsigned Threads = 4;
  uint64_t Keys = 1 << 16;
  uint32_t Shards = 64;
  uint64_t OpsPerThread = 200000;
  KeyGenerator::Dist Dist = KeyGenerator::Dist::Zipfian;
  double Theta = 0.99;
  Mix M;
  double Qps = 0; ///< >0: open-loop at this aggregate arrival rate.
  uint64_t Seed = 2026;
  /// Keys per MGET/SNAP batch read (≤ 64).
  uint32_t MgetKeys = 8;
  /// Single-key GETs issued per GET request: lets the nt plane read the
  /// same number of keys per request as an 8-key batch plane, so the
  /// kv/snapshot/* per-request latencies compare like for like.
  uint32_t NtGetBatch = 1;
  /// Overload control (the v4 degradation experiment).
  OverloadPolicy Policy = OverloadPolicy::None;
  uint64_t DeadlineUs = 0;  ///< Per-request deadline (0 = none).
  /// Txn attempts per op under Shed, or per request with --serve (0 = ∞).
  uint32_t RetryBudget = 0;
  /// Contention-manager knobs forwarded to stm::Config.
  uint32_t IrrevocableAfterAborts = 0;
  bool Karma = false;
  /// Suite calibration: when set, Qps is computed as QpsFactor times the
  /// measured throughput of the earlier suite entry with this name.
  std::string CalibrateFrom;
  double QpsFactor = 0;
  /// Durability plane (DESIGN.md §12): attach the redo log; under Sync,
  /// ack mutations only after their group-commit fsync.
  kv::DurabilityMode Dur = kv::DurabilityMode::Off;
  std::string WalDir; ///< Log directory; empty = per-pid /tmp scratch.
  /// Checkpoint + WAL-compaction plane (DESIGN.md §14): snapshot the
  /// store every this-many appended redo records, truncate the log below
  /// the previous checkpoint's barrier. 0 = no checkpointer.
  uint64_t CheckpointInterval = 0;
};

struct RunResult {
  uint64_t Ops = 0;
  double Seconds = 0;
  LatencyHistogram Hist;
  /// Read latency per plane (the v5 read_planes split).
  LatencyHistogram SnapHist, NtHist, TxnHist;
  StatsCounters Counters;
  uint64_t Hits = 0; ///< GETs that found a live value (sanity sink).
  uint64_t Shed = 0;     ///< Admission-dropped (already past deadline).
  uint64_t Rejected = 0; ///< Gave up mid-op: Overloaded/DeadlineExceeded.
  uint64_t Good = 0;     ///< Completed within the deadline.
  /// Durability telemetry plus the recovery-time benchmark (Dur != Off).
  bool HasDurability = false;
  kv::WalStats Wal;
  double RecoveryMs = 0;
  /// Checkpoint telemetry (CheckpointInterval > 0 only).
  bool HasCheckpoint = false;
  kv::CheckpointStats Ckpt;
  uint64_t RecoveryReplayed = 0; ///< WAL records replayed at recovery.
};

/// Spin-then-sleep until \p Deadline. sleep_for can overshoot by a
/// scheduler tick (observed ~1ms in containers), which would be charged to
/// request latency as phantom queueing — so sleeping stops a full tick
/// early and the rest is yield-spun.
void waitUntil(Clock::time_point Deadline) {
  for (;;) {
    auto Now = Clock::now();
    if (Now >= Deadline)
      return;
    auto Slack = Deadline - Now;
    if (Slack > std::chrono::milliseconds(3))
      std::this_thread::sleep_for(Slack - std::chrono::milliseconds(2));
    else if (Slack > std::chrono::microseconds(20))
      std::this_thread::yield();
  }
}

class Worker {
public:
  Worker(kv::Store &S, const RunConfig &C, unsigned Tid,
         kv::Wal *SyncW = nullptr)
      : S(S), C(C), SyncW(SyncW),
        Gen(C.Dist, C.Keys, C.Seed + 0x5bd1e995u * (Tid + 1), C.Theta),
        Ops(C.Seed * 31 + Tid) {}

  void run(rt::Heap &H, Clock::time_point Start) {
    // Per-request scratch bookkeeping object. Born per birthState(): under
    // +DEA it stays Private to this worker forever (nothing publishes it),
    // so every barrier hit below takes the private fast path.
    rt::Object *Scratch = H.allocate(&ScratchType, config().birthState());

    const bool Open = C.Qps > 0;
    const double RatePerNs = Open ? C.Qps / double(C.Threads) * 1e-9 : 0;
    const auto DeadlineNs = std::chrono::microseconds(C.DeadlineUs);
    double ArrivalNs = 0;

    for (uint64_t I = 0; I < C.OpsPerThread; ++I) {
      Clock::time_point IssuedAt;
      if (Open) {
        // Poisson arrivals: exponential inter-arrival times.
        ArrivalNs += -std::log(1.0 - Ops.nextDouble()) / RatePerNs;
        IssuedAt =
            Start + std::chrono::nanoseconds(uint64_t(ArrivalNs));
        waitUntil(IssuedAt);
      } else {
        IssuedAt = Clock::now();
      }

      Clock::time_point DL =
          C.DeadlineUs ? IssuedAt + DeadlineNs : Clock::time_point{};
      kv::OpBudget B;
      if (C.Policy == OverloadPolicy::Shed) {
        // Admission control: a request whose queueing delay alone already
        // exceeds its deadline cannot be served in budget — shed it
        // instead of burning capacity the waiting requests need.
        if (C.DeadlineUs && Clock::now() >= DL) {
          ++R.Shed;
          continue;
        }
        B.MaxAttempts = C.RetryBudget;
        B.Deadline = DL;
      }

      uint64_t WalMark = SyncW ? kv::Wal::lastAppendedLsn() : 0;
      bool Completed = doOne(Scratch, I, B);
      if (SyncW) {
        // Sync ack discipline: a mutation is not complete until its redo
        // group is fsynced. The wait is charged to the request's latency —
        // that is the cost --durability=sync buys its zero-loss guarantee
        // with, and hiding it would falsify the tail.
        uint64_t L = kv::Wal::lastAppendedLsn();
        if (L != WalMark)
          SyncW->waitDurable(L);
      }

      auto Done = Clock::now();
      if (!Completed) {
        ++R.Rejected;
        continue;
      }
      if (C.Policy == OverloadPolicy::None || !C.DeadlineUs || Done <= DL)
        ++R.Good;
      uint64_t Ns = uint64_t(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Done - IssuedAt)
              .count());
      R.Hist.record(Ns);
      switch (Plane) {
      case ReadPlane::Snap:
        R.SnapHist.record(Ns);
        break;
      case ReadPlane::Nt:
        R.NtHist.record(Ns);
        break;
      case ReadPlane::Txn:
        R.TxnHist.record(Ns);
        break;
      case ReadPlane::None:
        break;
      }
    }
    R.Ops = C.OpsPerThread;
    R.Seconds = std::chrono::duration<double>(Clock::now() - Start).count();
  }

  RunResult R;

private:
  /// \returns false iff a budgeted transactional op gave up (Overloaded /
  /// DeadlineExceeded). The non-transactional plane is never budgeted —
  /// single-key barrier ops have no retry loop to bound.
  bool doOne(rt::Object *Scratch, uint64_t I, const kv::OpBudget &B) {
    Word K = Gen.next();
    // Two private-path barrier writes per request, like compiled code
    // logging into a not-yet-escaped request object.
    ntWrite(Scratch, 0, I);
    ntWrite(Scratch, 1, K);

    auto Served = [](kv::OpStatus St) {
      return St != kv::OpStatus::Overloaded &&
             St != kv::OpStatus::DeadlineExceeded;
    };
    Plane = ReadPlane::None;
    unsigned P = unsigned(Ops.nextBelow(100));
    Word V = Ops.next() & 0x7fffffffffffull; // Never Tombstone.
    size_t Batch = C.MgetKeys < 64 ? C.MgetKeys : 64;
    if (P < C.M.Get) {
      Plane = ReadPlane::Nt;
      Word Out;
      for (uint32_t G = 0; G < C.NtGetBatch; ++G) {
        Word Q = G ? Gen.next() : K;
        if (S.get(Q, Out))
          ++R.Hits;
      }
    } else if (P < C.M.Get + C.M.Put) {
      S.put(K, V);
    } else if (P < C.M.Get + C.M.Put + C.M.Mget) {
      Plane = ReadPlane::Txn;
      Word Keys[64], Out[64];
      for (size_t Q = 0; Q < Batch; ++Q)
        Keys[Q] = Gen.next();
      return Served(S.multiGet(Keys, Batch, Out, B));
    } else if (P < C.M.Get + C.M.Put + C.M.Mget + C.M.Rmw) {
      Word Keys[2] = {K, Gen.next()};
      return Served(S.rmwAdd(Keys, 2, 1, B));
    } else if (P < C.M.Get + C.M.Put + C.M.Mget + C.M.Rmw + C.M.Cas) {
      Word Cur;
      if (S.get(K, Cur))
        return Served(S.cas(K, Cur, V, B));
    } else {
      // Wait-free snapshot multi-get: never budgeted — there is no retry
      // loop or abort to bound on this plane, by construction.
      Plane = ReadPlane::Snap;
      Word Keys[64], Out[64];
      for (size_t Q = 0; Q < Batch; ++Q)
        Keys[Q] = Gen.next();
      R.Hits += S.snapshotMultiGet(Keys, Batch, Out);
    }
    return true;
  }

  kv::Store &S;
  const RunConfig &C;
  kv::Wal *SyncW; ///< Non-null only under --durability=sync.
  KeyGenerator Gen;
  Rng Ops;
  ReadPlane Plane = ReadPlane::None;
};

/// Per-run scratch log directory under /tmp: pid-qualified so parallel CI
/// jobs cannot collide, entry-qualified so a leftover from a crashed run
/// is attributable.
std::string defaultWalDir(const std::string &Name) {
  std::string Tag = Name;
  for (char &Ch : Tag)
    if (Ch == '/')
      Ch = '_';
  return "/tmp/satm-wal-" + std::to_string(long(::getpid())) + "-" + Tag;
}

RunResult runService(const RunConfig &C) {
  // The service runs in the paper's +DEA strong mode: barriers on, objects
  // born Private until a transactional ref store publishes them.
  Config Cfg;
  Cfg.DeaEnabled = true;
  Cfg.IrrevocableAfterAborts = C.IrrevocableAfterAborts;
  Cfg.KarmaPriority = C.Karma;
  ScopedConfig SC(Cfg);

  rt::Heap H;
  kv::StoreConfig KC;
  KC.Shards = C.Shards;
  uint32_t PerShard = uint32_t(2 * C.Keys / (C.Shards ? C.Shards : 1));
  KC.CapacityPerShard = PerShard < 8 ? 8 : PerShard;
  kv::Store S(H, KC);
  for (uint64_t K = 0; K < C.Keys; ++K)
    if (!S.insert(K, 1000)) {
      std::fprintf(stderr, "kv_service: prepopulate overflow at key %" PRIu64
                           " (shard full)\n",
                   K);
      std::exit(1);
    }

  // The snapshot plane goes live only after prepopulate: the bulk inserts
  // need no version history, and keeping them chain-less means the run
  // starts from the same store state as the non-snapshot configurations.
  // The checkpointer needs it too — its store scan pins a snapshot epoch
  // to get a commit-order-consistent image (kv/Checkpoint.h).
  std::optional<ScopedConfig> SnapSC;
  if (C.M.Snap || C.CheckpointInterval) {
    Config SnapCfg = Cfg;
    SnapCfg.SnapshotEnabled = true;
    SnapSC.emplace(SnapCfg);
  }

  // Durability plane: the log covers post-load mutations (recovery =
  // prepopulate + replay), so the Wal attaches only after the bulk
  // inserts — logging the prepopulate would bill every entry for a
  // checkpoint the experiment treats as given.
  kv::Wal::Config WC;
  std::optional<kv::Wal> W;
  std::optional<kv::Checkpointer> CP;
  if (C.Dur != kv::DurabilityMode::Off) {
    WC.Dir = C.WalDir.empty() ? defaultWalDir(C.Name) : C.WalDir;
    std::filesystem::remove_all(WC.Dir); // Per-run scratch: start empty.
    W.emplace(WC);
    W->start();
    S.attachWal(&*W);
    if (C.CheckpointInterval) {
      kv::Checkpointer::Config CC;
      CC.IntervalOps = C.CheckpointInterval;
      CP.emplace(S, *W, CC);
      CP->start();
    }
  }

  statsReset();
  std::vector<Worker> Workers;
  Workers.reserve(C.Threads);
  kv::Wal *SyncW =
      W && C.Dur == kv::DurabilityMode::Sync ? &*W : nullptr;
  for (unsigned T = 0; T < C.Threads; ++T)
    Workers.emplace_back(S, C, T, SyncW);

  std::atomic<bool> Go{false};
  Clock::time_point Start{}; // Published by the Go release store below.
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < C.Threads; ++T)
    Threads.emplace_back([&, T] {
      while (!Go.load(std::memory_order_acquire))
        std::this_thread::yield();
      Workers[T].run(H, Start);
    });
  Start = Clock::now();
  Go.store(true, std::memory_order_release);
  for (std::thread &T : Threads)
    T.join();

  RunResult Total;
  for (Worker &W : Workers) {
    Total.Ops += W.R.Ops;
    Total.Seconds = std::max(Total.Seconds, W.R.Seconds);
    Total.Hist += W.R.Hist;
    Total.SnapHist += W.R.SnapHist;
    Total.NtHist += W.R.NtHist;
    Total.TxnHist += W.R.TxnHist;
    Total.Hits += W.R.Hits;
    Total.Shed += W.R.Shed;
    Total.Rejected += W.R.Rejected;
    Total.Good += W.R.Good;
  }
  Total.Counters = statsSnapshot();
  if (W) {
    if (CP) {
      CP->stop(); // Before Wal::stop — runOnce needs a live log.
      Total.HasCheckpoint = true;
      Total.Ckpt = CP->stats();
    }
    S.attachWal(nullptr);
    W->stop(); // Final drain + fsync: the log now holds every commit.
    Total.HasDurability = true;
    Total.Wal = W->stats();
    // Recovery-time benchmark: replay this run's log into a fresh store
    // from the same prepopulated state (one scan, replay fanned out by
    // store shard). Failures here mean the log and the store disagree —
    // that is a correctness bug, not a slow run, so it is fatal.
    rt::Heap RH;
    kv::Store RS(RH, KC);
    for (uint64_t K = 0; K < C.Keys; ++K)
      RS.insert(K, 1000);
    kv::Wal RW(WC);
    kv::RecoveryStats Rec = RW.recover(RS);
    if (Rec.ApplyFailures || !Rec.ReclaimIdentityOk) {
      std::fprintf(stderr,
                   "kv_service: %s recovery failed (%" PRIu64
                   " apply failures, reclaim identity %s)\n",
                   C.Name.c_str(), Rec.ApplyFailures,
                   Rec.ReclaimIdentityOk ? "ok" : "violated");
      std::exit(1);
    }
    Total.RecoveryMs = Rec.Millis;
    Total.RecoveryReplayed = Rec.RecordsReplayed;
    std::printf("%s: recovered %" PRIu64 " records / %" PRIu64
                " txns in %.2f ms (checkpoint: %" PRIu64
                " entries at lsn %" PRIu64 ")\n",
                C.Name.c_str(), Rec.RecordsReplayed, Rec.TxnsReplayed,
                Rec.Millis, Rec.CheckpointEntries, Rec.CheckpointLsn);
    std::filesystem::remove_all(WC.Dir);
  }
  // Free this run's version chains before H dies: nothing else reclaims
  // the chains of dead objects.
  snap::resetTable();
  return Total;
}

BenchEntry toEntry(const RunConfig &C, const RunResult &R) {
  BenchEntry E;
  E.Name = C.Name;
  E.NsPerOp = R.Seconds * 1e9 / double(R.Ops);
  E.Ops = R.Ops;
  E.Commits = R.Counters.TxnCommits;
  E.Aborts = R.Counters.TxnAborts;
  E.MedianOf = 1;
  E.Counters = R.Counters;
  E.HasLatency = true;
  E.Latency = R.Hist.percentiles();
  E.OpsPerSec = double(R.Ops) / R.Seconds;
  E.HasReadPlanes = true;
  E.SnapLat = R.SnapHist.percentiles();
  E.SnapReads = R.SnapHist.count();
  E.NtLat = R.NtHist.percentiles();
  E.NtReads = R.NtHist.count();
  E.TxnLat = R.TxnHist.percentiles();
  E.TxnReads = R.TxnHist.count();
  if (C.Policy != OverloadPolicy::None) {
    E.HasOverload = true;
    E.OfferedQps = C.Qps;
    E.GoodputOpsPerSec = double(R.Good) / R.Seconds;
    E.ShedRate = double(R.Shed + R.Rejected) / double(R.Ops);
  }
  if (R.HasDurability) {
    E.HasDurability = true;
    E.DurMode = kv::durabilityModeName(C.Dur);
    E.FsyncBatches = R.Wal.FsyncBatches;
    E.WalRecords = R.Wal.RecordsWritten;
    E.RingStalls = R.Wal.RingStalls;
    E.RecoveryMs = R.RecoveryMs;
  }
  if (R.HasCheckpoint) {
    E.HasCheckpoint = true;
    E.CkptIntervalOps = C.CheckpointInterval;
    E.CkptMs = R.Ckpt.TotalMillis;
    E.WalTruncatedBytes = R.Ckpt.WalTruncatedBytes;
    E.CkptRecoveryMs = R.RecoveryMs;
  }
  return E;
}

std::string us(uint64_t Ns) { return Table::num(double(Ns) / 1000.0, 1); }

void printTable(const std::vector<RunConfig> &Cs,
                const std::vector<BenchEntry> &Es, const char *Title) {
  Table T({"benchmark", "thr", "load", "ops/s", "ns/op", "p50 µs", "p95 µs",
           "p99 µs", "p99.9 µs", "aborts"});
  for (size_t I = 0; I < Es.size(); ++I) {
    const BenchEntry &E = Es[I];
    std::string Load = Cs[I].Qps > 0
                           ? Table::num(Cs[I].Qps, 0) + " qps"
                           : std::string("closed");
    T.addRow({E.Name, Table::num(uint64_t(Cs[I].Threads)), Load,
              Table::num(E.OpsPerSec, 0),
              Table::num(E.NsPerOp, 0), us(E.Latency.P50), us(E.Latency.P95),
              us(E.Latency.P99), us(E.Latency.P999), Table::num(E.Aborts)});
  }
  T.print(Title);
  for (const BenchEntry &E : Es)
    if (E.HasOverload)
      std::printf("%s: offered %.0f qps, goodput %.0f ops/s, shed %.2f%%\n",
                  E.Name.c_str(), E.OfferedQps, E.GoodputOpsPerSec,
                  E.ShedRate * 100.0);
  for (const BenchEntry &E : Es)
    if (E.HasDurability)
      std::printf("%s: %s acks, %" PRIu64 " wal records in %" PRIu64
                  " fsync batches (%" PRIu64 " ring stalls), recovery "
                  "%.2f ms\n",
                  E.Name.c_str(), E.DurMode.c_str(), E.WalRecords,
                  E.FsyncBatches, E.RingStalls, E.RecoveryMs);
  for (const BenchEntry &E : Es)
    if (E.HasCheckpoint)
      std::printf("%s: checkpoint every %" PRIu64 " records, %.2f ms "
                  "checkpointing, %" PRIu64 " wal bytes truncated, "
                  "recovery %.2f ms\n",
                  E.Name.c_str(), E.CkptIntervalOps, E.CkptMs,
                  E.WalTruncatedBytes, E.CkptRecoveryMs);
}

bool parseMix(const char *Spec, Mix &M) {
  Mix Out{0, 0, 0, 0, 0, 0};
  std::string S(Spec);
  size_t Pos = 0;
  while (Pos < S.size()) {
    size_t Comma = S.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = S.size();
    std::string Part = S.substr(Pos, Comma - Pos);
    size_t Colon = Part.find(':');
    if (Colon == std::string::npos)
      return false;
    std::string Key = Part.substr(0, Colon);
    unsigned Val = unsigned(std::atoi(Part.c_str() + Colon + 1));
    if (Key == "get")
      Out.Get = Val;
    else if (Key == "put")
      Out.Put = Val;
    else if (Key == "mget")
      Out.Mget = Val;
    else if (Key == "rmw")
      Out.Rmw = Val;
    else if (Key == "cas")
      Out.Cas = Val;
    else if (Key == "snap")
      Out.Snap = Val;
    else
      return false;
    Pos = Comma + 1;
  }
  if (Out.Get + Out.Put + Out.Mget + Out.Rmw + Out.Cas + Out.Snap != 100)
    return false;
  M = Out;
  return true;
}

/// Scales the default mix to put \p Pct percent of requests on the
/// transactional plane (mget:rmw:cas stays 5:4:1, get:put stays 3:1).
Mix mixForTxnPct(unsigned Pct) {
  Mix M;
  M.Mget = Pct / 2;
  M.Rmw = Pct * 2 / 5;
  M.Cas = Pct - M.Mget - M.Rmw;
  unsigned Nt = 100 - Pct;
  M.Put = Nt / 4;
  M.Get = Nt - M.Put;
  return M;
}

std::vector<RunConfig> suiteConfigs(bool Smoke) {
  std::vector<RunConfig> Cs;
  auto Mk = [&](std::string Name, unsigned Threads, double Qps) {
    RunConfig C;
    C.Name = std::move(Name);
    C.Threads = Threads;
    C.Qps = Qps;
    if (Smoke) {
      C.Keys = 2048;
      C.Shards = 8;
      C.OpsPerThread = Qps > 0 ? 5000 : 20000;
    } else {
      C.OpsPerThread = Qps > 0 ? 100000 : 200000;
    }
    return C;
  };
  // Overload-degradation entry: open-loop at QpsFactor times the measured
  // throughput of the named closed-loop entry (calibrated in main), with a
  // per-request deadline, and either admission control + retry budgets
  // (Shed) or nothing (Queue — the baseline whose tail the deadline cannot
  // save). The adaptive contention manager is on so abort storms under
  // overload escalate instead of livelocking.
  auto MkOver = [&](std::string Name, unsigned Threads, const char *From,
                    OverloadPolicy P) {
    RunConfig C = Mk(std::move(Name), Threads, /*Qps=*/1);
    C.CalibrateFrom = From;
    C.QpsFactor = 2.0;
    C.Policy = P;
    C.DeadlineUs = 2000;
    C.RetryBudget = P == OverloadPolicy::Shed ? 4 : 0;
    C.IrrevocableAfterAborts = 32;
    C.Karma = true;
    return C;
  };
  // Read-plane triple: the same closed-loop 90% read / 10% PUT workload
  // with the read side routed through each plane in turn — snapshot
  // multi-get (wait-free), nt GET (batched to the same 8 keys/request),
  // and transactional multi-get. Only the read path differs, so the three
  // entries attribute the read tails to the planes themselves.
  auto MkPlane = [&](std::string Name, unsigned Threads, unsigned SnapPct,
                     unsigned GetPct, unsigned MgetPct) {
    RunConfig C = Mk(std::move(Name), Threads, 0);
    C.M = Mix{GetPct, 10, MgetPct, 0, 0, SnapPct};
    if (GetPct)
      C.NtGetBatch = C.MgetKeys;
    return C;
  };
  // Durable entries: the same closed-loop workload as kv/closed_tN with
  // the redo log attached, so the off/async pair isolates the log path as
  // the only variable. Sync entries run fewer ops — every mutation waits
  // out a group-commit fsync — and are full-suite only (the smoke/TSan
  // time budget cannot absorb per-op fsync waits). Each entry also times
  // recovery of its own log (the durability block's recovery_ms).
  auto MkDur = [&](std::string Name, unsigned Threads,
                   kv::DurabilityMode M) {
    RunConfig C = Mk(std::move(Name), Threads, 0);
    C.Dur = M;
    if (M == kv::DurabilityMode::Sync)
      C.OpsPerThread = 20000;
    return C;
  };
  // Checkpointed entries (DESIGN.md §14): the async durable workload with
  // the checkpointer compacting the log every Interval appended records.
  // The ckpt_recover_{1x,10x} pair is the bounded-recovery experiment:
  // same interval K (small enough that BOTH runs checkpoint — a 1× run
  // that never reaches the interval degenerates to full replay and the
  // comparison says nothing), 1× vs 10× the traffic — with compaction
  // the recovered state is image + O(K) suffix either way, so
  // recovery_ms stays flat instead of growing 10×.
  auto MkCkpt = [&](std::string Name, unsigned Threads, uint64_t Interval,
                    uint64_t Ops) {
    RunConfig C = Mk(std::move(Name), Threads, 0);
    C.Dur = kv::DurabilityMode::Async;
    C.CheckpointInterval = Interval;
    if (Ops)
      C.OpsPerThread = Ops;
    return C;
  };
  if (Smoke) {
    Cs.push_back(Mk("kv/closed_t1", 1, 0));
    Cs.push_back(Mk("kv/closed_t2", 2, 0));
    Cs.push_back(Mk("kv/open_t2_q20k", 2, 20000)); // TSan-safe arrival rate.
    Cs.push_back(
        MkOver("kv/overload/shed_t2", 2, "kv/closed_t2", OverloadPolicy::Shed));
    Cs.push_back(MkPlane("kv/snapshot/read_t2", 2, 90, 0, 0));
    Cs.push_back(MkPlane("kv/snapshot/ntread_t2", 2, 0, 90, 0));
    Cs.push_back(MkPlane("kv/snapshot/txnread_t2", 2, 0, 0, 90));
    Cs.push_back(MkDur("kv/durable/async_t1", 1, kv::DurabilityMode::Async));
    Cs.push_back(MkDur("kv/durable/async_t2", 2, kv::DurabilityMode::Async));
    Cs.push_back(MkCkpt("kv/durable/ckpt_t2", 2, /*Interval=*/2048, 0));
  } else {
    Cs.push_back(Mk("kv/closed_t1", 1, 0));
    Cs.push_back(Mk("kv/closed_t4", 4, 0));
    Cs.push_back(Mk("kv/closed_t8", 8, 0));
    Cs.push_back(Mk("kv/closed_t16", 16, 0));
    Cs.push_back(Mk("kv/open_t4_q400k", 4, 400000));
    Cs.push_back(MkOver("kv/overload/queue_t4", 4, "kv/closed_t4",
                        OverloadPolicy::Queue));
    Cs.push_back(
        MkOver("kv/overload/shed_t4", 4, "kv/closed_t4", OverloadPolicy::Shed));
    Cs.push_back(MkPlane("kv/snapshot/read_t8", 8, 90, 0, 0));
    Cs.push_back(MkPlane("kv/snapshot/ntread_t8", 8, 0, 90, 0));
    Cs.push_back(MkPlane("kv/snapshot/txnread_t8", 8, 0, 0, 90));
    Cs.push_back(MkDur("kv/durable/async_t1", 1, kv::DurabilityMode::Async));
    Cs.push_back(MkDur("kv/durable/async_t4", 4, kv::DurabilityMode::Async));
    Cs.push_back(MkDur("kv/durable/sync_t1", 1, kv::DurabilityMode::Sync));
    Cs.push_back(MkDur("kv/durable/sync_t4", 4, kv::DurabilityMode::Sync));
    Cs.push_back(MkCkpt("kv/durable/ckpt_t4", 4, /*Interval=*/50000, 0));
    Cs.push_back(
        MkCkpt("kv/durable/ckpt_recover_1x", 1, /*Interval=*/5000, 50000));
    Cs.push_back(
        MkCkpt("kv/durable/ckpt_recover_10x", 1, /*Interval=*/5000, 500000));
  }
  return Cs;
}

//===----------------------------------------------------------------------===//
// Server mode (--serve): the same store + durability setup as runService,
// fronted by the src/net epoll server instead of in-process workers.
//===----------------------------------------------------------------------===//

struct ServeOptions {
  std::string Host = "127.0.0.1";
  uint16_t Port = 0; ///< 0 = ephemeral; announced via --port-file.
  unsigned IoThreads = 1;
  uint32_t NetBatch = 16;
  std::string PortFile;
};

/// The serving instance, for the signal handler. requestStop() is only an
/// atomic store plus an eventfd write, both async-signal-safe.
std::atomic<net::Server *> GServer{nullptr};

void onStopSignal(int) {
  if (net::Server *Sv = GServer.load(std::memory_order_acquire))
    Sv->requestStop();
}

int runServe(const RunConfig &C, const ServeOptions &O) {
  Config Cfg;
  Cfg.DeaEnabled = true;
  Cfg.IrrevocableAfterAborts = C.IrrevocableAfterAborts;
  Cfg.KarmaPriority = C.Karma;
  // The checkpointer's consistent store scan pins a snapshot epoch.
  Cfg.SnapshotEnabled = C.CheckpointInterval > 0;
  ScopedConfig SC(Cfg);

  rt::Heap H;
  kv::StoreConfig KC;
  KC.Shards = C.Shards;
  uint32_t PerShard = uint32_t(2 * C.Keys / (C.Shards ? C.Shards : 1));
  KC.CapacityPerShard = PerShard < 8 ? 8 : PerShard;
  kv::Store S(H, KC);
  for (uint64_t K = 0; K < C.Keys; ++K)
    if (!S.insert(K, 1000)) {
      std::fprintf(stderr, "kv_service: prepopulate overflow at key %" PRIu64
                           " (shard full)\n",
                   K);
      return 1;
    }

  kv::Wal::Config WC;
  std::optional<kv::Wal> W;
  std::optional<kv::Checkpointer> CP;
  if (C.Dur != kv::DurabilityMode::Off) {
    WC.Dir = C.WalDir.empty() ? defaultWalDir("serve") : C.WalDir;
    std::filesystem::remove_all(WC.Dir);
    W.emplace(WC);
    W->start();
    S.attachWal(&*W);
    if (C.CheckpointInterval) {
      kv::Checkpointer::Config CC;
      CC.IntervalOps = C.CheckpointInterval;
      CP.emplace(S, *W, CC);
      CP->start();
    }
  }

  net::ServerConfig NC;
  NC.Host = O.Host;
  NC.Port = O.Port;
  NC.IoThreads = O.IoThreads;
  NC.NetBatch = O.NetBatch;
  NC.DeadlineUs = C.DeadlineUs;
  NC.RetryBudget = C.RetryBudget;
  NC.SyncWal = W && C.Dur == kv::DurabilityMode::Sync ? &*W : nullptr;
  NC.StatsWal = W ? &*W : nullptr;

  net::Server Sv(S, NC);
  std::string Err;
  if (!Sv.start(&Err)) {
    std::fprintf(stderr, "kv_service: --serve failed: %s\n", Err.c_str());
    return 1;
  }
  GServer.store(&Sv, std::memory_order_release);
  std::signal(SIGINT, onStopSignal);
  std::signal(SIGTERM, onStopSignal);

  if (!O.PortFile.empty()) {
    // Ephemeral-port handshake for scripted runs: the bound port appears
    // in the file only after the listener is live, so a poller that read
    // it can connect immediately.
    std::string Tmp = O.PortFile + ".tmp";
    if (FILE *PF = std::fopen(Tmp.c_str(), "w")) {
      std::fprintf(PF, "%u\n", unsigned(Sv.port()));
      std::fclose(PF);
      std::rename(Tmp.c_str(), O.PortFile.c_str());
    } else {
      std::fprintf(stderr, "kv_service: cannot write %s\n", O.PortFile.c_str());
      Sv.stop();
      return 1;
    }
  }
  std::printf("kv_service: serving %s:%u (io=%u batch=%u deadline_us=%" PRIu64
              " retry_budget=%u durability=%s)\n",
              O.Host.c_str(), unsigned(Sv.port()), O.IoThreads, O.NetBatch,
              C.DeadlineUs, C.RetryBudget, kv::durabilityModeName(C.Dur));
  std::fflush(stdout);

  while (!Sv.stopRequested())
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Ordered teardown (DESIGN.md §13): the server joins its I/O threads —
  // the only threads that run requests — and closes every socket before
  // the WAL stops, so no late batch can append to a stopped log.
  Sv.stop();
  GServer.store(nullptr, std::memory_order_release);
  net::ServerStats St = Sv.stats();
  std::printf("kv_service: served %" PRIu64 " requests (%" PRIu64
              " responses, %" PRIu64 " bad frames), %" PRIu64
              " conns accepted, batch_avg %.2f, shed %" PRIu64
              ", max burst %" PRIu64 ", out high water %" PRIu64 " B\n",
              St.Requests, St.Responses, St.BadFrames, St.Accepted,
              St.batchAvg(), St.ShedDeadline, St.MaxQueueDepth,
              St.OutHighWater);
  if (W) {
    if (CP) {
      CP->stop();
      kv::CheckpointStats CS = CP->stats();
      std::printf("kv_service: %" PRIu64 " checkpoints written (%" PRIu64
                  " wal bytes truncated)\n",
                  CS.Written, CS.WalTruncatedBytes);
    }
    S.attachWal(nullptr);
    W->stop();
    if (C.WalDir.empty())
      std::filesystem::remove_all(WC.Dir); // Scratch log: clean up.
  }
  snap::resetTable();
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  bool Smoke = false, Suite = false;
  std::string JsonPath;
  RunConfig Single;
  bool HaveTxnPct = false;
  unsigned TxnPct = 0;
  bool Serve = false, ThreadsSet = false, IoThreadsSet = false,
       NetBatchSet = false;
  ServeOptions SO;
  for (int I = 1; I < argc; ++I) {
    const char *A = argv[I];
    auto Val = [&](const char *Prefix) -> const char * {
      size_t N = std::strlen(Prefix);
      return std::strncmp(A, Prefix, N) ? nullptr : A + N;
    };
    const char *V;
    if (!std::strcmp(A, "--smoke"))
      Smoke = true;
    else if (!std::strcmp(A, "--suite"))
      Suite = true;
    else if ((V = Val("--json=")))
      JsonPath = V;
    else if ((V = Val("--threads="))) {
      Single.Threads = unsigned(std::atoi(V));
      ThreadsSet = true;
    } else if ((V = Val("--serve="))) {
      // addr:port, e.g. --serve=127.0.0.1:7400 (port 0 = ephemeral).
      const char *Colon = std::strrchr(V, ':');
      if (!Colon || Colon == V) {
        std::fprintf(stderr, "kv_service: --serve needs addr:port\n");
        return 2;
      }
      SO.Host.assign(V, size_t(Colon - V));
      SO.Port = uint16_t(std::atoi(Colon + 1));
      Serve = true;
    } else if ((V = Val("--io-threads="))) {
      SO.IoThreads = unsigned(std::atoi(V));
      IoThreadsSet = true;
    } else if ((V = Val("--net-batch="))) {
      SO.NetBatch = uint32_t(std::atoi(V));
      NetBatchSet = true;
    } else if ((V = Val("--port-file=")))
      SO.PortFile = V;
    else if ((V = Val("--keys=")))
      Single.Keys = uint64_t(std::atoll(V));
    else if ((V = Val("--shards=")))
      Single.Shards = uint32_t(std::atoi(V));
    else if ((V = Val("--ops=")))
      Single.OpsPerThread = uint64_t(std::atoll(V));
    else if ((V = Val("--dist="))) {
      if (!std::strcmp(V, "zipf"))
        Single.Dist = KeyGenerator::Dist::Zipfian;
      else if (!std::strcmp(V, "uniform"))
        Single.Dist = KeyGenerator::Dist::Uniform;
      else {
        std::fprintf(stderr, "kv_service: --dist must be zipf or uniform\n");
        return 2;
      }
    } else if ((V = Val("--theta=")))
      Single.Theta = std::atof(V);
    else if ((V = Val("--qps=")))
      Single.Qps = std::atof(V);
    else if ((V = Val("--mix="))) {
      if (!parseMix(V, Single.M)) {
        std::fprintf(stderr,
                     "kv_service: bad --mix (need get:N,put:N,mget:N,rmw:N,"
                     "cas:N summing to 100)\n");
        return 2;
      }
    } else if ((V = Val("--txn-pct="))) {
      HaveTxnPct = true;
      TxnPct = unsigned(std::atoi(V));
      if (TxnPct > 100) {
        std::fprintf(stderr, "kv_service: --txn-pct must be in [0,100]\n");
        return 2;
      }
    } else if ((V = Val("--seed=")))
      Single.Seed = uint64_t(std::atoll(V));
    else if ((V = Val("--mget-keys=")))
      Single.MgetKeys = uint32_t(std::atoi(V));
    else if ((V = Val("--nt-get-batch=")))
      Single.NtGetBatch = uint32_t(std::atoi(V));
    else if ((V = Val("--overload="))) {
      if (!std::strcmp(V, "shed"))
        Single.Policy = OverloadPolicy::Shed;
      else if (!std::strcmp(V, "queue"))
        Single.Policy = OverloadPolicy::Queue;
      else {
        std::fprintf(stderr, "kv_service: --overload must be shed or queue\n");
        return 2;
      }
    } else if ((V = Val("--durability="))) {
      if (!kv::parseDurabilityMode(V, Single.Dur)) {
        std::fprintf(stderr,
                     "kv_service: --durability must be off, async, or sync\n");
        return 2;
      }
    } else if ((V = Val("--wal-dir=")))
      Single.WalDir = V;
    else if ((V = Val("--checkpoint-interval=")))
      Single.CheckpointInterval = uint64_t(std::atoll(V));
    else if ((V = Val("--deadline-us=")))
      Single.DeadlineUs = uint64_t(std::atoll(V));
    else if ((V = Val("--retry-budget=")))
      Single.RetryBudget = uint32_t(std::atoi(V));
    else if ((V = Val("--irrevocable-after=")))
      Single.IrrevocableAfterAborts = uint32_t(std::atoi(V));
    else if (!std::strcmp(A, "--karma"))
      Single.Karma = true;
    else {
      std::fprintf(
          stderr,
          "usage: kv_service [--suite|--smoke] [--json=PATH]\n"
          "       kv_service [--threads=N] [--keys=N] [--shards=N] [--ops=N]\n"
          "                  [--dist=zipf|uniform] [--theta=T] [--qps=Q]\n"
          "                  [--mix=get:N,put:N,mget:N,rmw:N,cas:N,snap:N]\n"
          "                  [--txn-pct=P] [--seed=N] [--json=PATH]\n"
          "                  [--mget-keys=N] [--nt-get-batch=N]\n"
          "                  [--overload=shed|queue] [--deadline-us=N]\n"
          "                  [--retry-budget=N] [--irrevocable-after=N]\n"
          "                  [--karma]\n"
          "                  [--durability=off|async|sync] [--wal-dir=PATH]\n"
          "                  [--checkpoint-interval=N]\n"
          "       kv_service --serve=ADDR:PORT [--io-threads=N]\n"
          "                  [--net-batch=N] [--port-file=PATH]\n"
          "                  [--deadline-us=N] [--retry-budget=N]\n"
          "                  [--keys=N] [--shards=N]\n"
          "                  [--durability=off|async|sync] [--wal-dir=PATH]\n"
          "                  [--checkpoint-interval=N]\n");
      return 2;
    }
  }
  if (HaveTxnPct)
    Single.M = mixForTxnPct(TxnPct);
  // Fail fast on incoherent flag combinations (bench/ServiceFlags.h keeps
  // the matrix unit-testable) instead of emitting a misleading entry.
  ServiceFlags F;
  F.Qps = Single.Qps;
  F.Overload = Single.Policy != OverloadPolicy::None;
  F.Durability = Single.Dur;
  F.Smoke = Smoke;
  F.Suite = Suite;
  F.WalDirSet = !Single.WalDir.empty();
  F.Serve = Serve;
  F.ThreadsSet = ThreadsSet;
  F.IoThreadsSet = IoThreadsSet;
  F.NetBatchSet = NetBatchSet;
  F.CheckpointSet = Single.CheckpointInterval > 0;
  if (const char *Err = validateServiceFlags(F)) {
    std::fprintf(stderr, "kv_service: %s\n", Err);
    return 2;
  }

  if (Serve)
    return runServe(Single, SO);

  std::vector<RunConfig> Configs;
  if (Suite || Smoke) {
    Configs = suiteConfigs(Smoke);
    if (JsonPath.empty())
      JsonPath = Smoke ? "BENCH_kv_smoke.json" : "BENCH_kv.json";
  } else {
    Single.Name = Single.Qps > 0 ? "kv/custom_open" : "kv/custom_closed";
    Configs.push_back(Single);
  }

  std::vector<BenchEntry> Entries;
  for (RunConfig &C : Configs) {
    if (!C.CalibrateFrom.empty()) {
      // 2×-saturation calibration: the offered rate comes from this
      // machine's measured closed-loop throughput, not a hardcoded qps.
      double Sat = 0;
      for (const BenchEntry &E : Entries)
        if (E.Name == C.CalibrateFrom)
          Sat = E.OpsPerSec;
      if (Sat <= 0) {
        std::fprintf(stderr, "kv_service: %s calibrates from %s, which did "
                             "not run first\n",
                     C.Name.c_str(), C.CalibrateFrom.c_str());
        return 1;
      }
      C.Qps = C.QpsFactor * Sat;
    }
    RunResult R = runService(C);
    Entries.push_back(toEntry(C, R));
    std::fflush(stdout);
  }

  printTable(Configs, Entries,
             Smoke ? "kv_service (smoke — not a baseline)" : "kv_service");
  std::printf("mix %s, %s keys, theta %.2f\n", Configs[0].M.str().c_str(),
              Configs[0].Dist == KeyGenerator::Dist::Zipfian ? "zipfian"
                                                             : "uniform",
              Configs[0].Theta);
  maybeReportStats("kv_service, last run window");
  if (traceEnabled())
    std::printf("trace: %zu events retained across %" PRIu64
                " overwritten (SATM_TRACE)\n",
                traceDrain().size(), traceDropped());

  if (!JsonPath.empty()) {
    writeBenchJson(JsonPath.c_str(), Smoke ? "smoke" : "full", Entries);
    std::printf("wrote %s\n", JsonPath.c_str());
  }
  return 0;
}
