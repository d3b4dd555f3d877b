//===- satmbench/InProc.cpp - In-process closed-loop workloads -----------===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//
//
// kv_durable_mix and kv_nt_bigset: one client thread per CPU drives a
// kv::Store closed loop (each thread issues its next call when the last
// returns). Every Store call is timed from outside; the STM, WAL and
// checkpointer counters are read through their public stats calls.
//
//  - kv_durable_mix: Zipf 0.99 over 64 Ki keys, every read plane and
//    every transactional op, an async WAL and the checkpointer. Every
//    mutation takes a global publish ticket and a WAL append, and the
//    drain and checkpoint threads oversubscribe the CPUs.
//  - kv_nt_bigset: uniform over 4 Mi keys in 256 shards, nt GET/PUT only,
//    no WAL, no snapshot plane: the paper's isolation-barrier cost at a
//    working set larger than the last-level cache.
//
// After the window the live store is imaged key by key and recovered into
// a fresh store (the run's checkpoint plus log suffix for the durable mix;
// a checkpoint of the whole store, written after the window, for the big
// set), and the recovered image must equal the live one.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Checks.h"

#include "kv/Checkpoint.h"
#include "kv/Store.h"
#include "kv/Wal.h"
#include "stm/Config.h"
#include "stm/Snapshot.h"
#include "stm/Stats.h"
#include "support/Rng.h"
#include "support/Zipf.h"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>

using namespace satm;
using namespace satmbench;

namespace {

constexpr unsigned BatchKeys = 8;  ///< Keys per multiGet / snapshot read.
constexpr double WarmupS = 1.0;    ///< Excluded from every measurement.

struct Spec {
  const char *Name;
  uint64_t Keys;
  uint32_t Shards;
  bool Zipf;
  unsigned Mix[NumOpKinds]; ///< Percent per OpKind, summing to 100.
  bool Durable;             ///< Async WAL + checkpointer + snapshot plane.
  /// WAL records between checkpoints. A few seconds apart, so most
  /// latency slices hold none and p99_us is the steady state; each
  /// checkpoint's stall shows in kv.bucket_p99_max_us instead.
  uint64_t CkptInterval;
  unsigned SetupReps;       ///< setup_s is the median of this many.
  unsigned RecoverReps;     ///< recovery.seconds is the median of this many.
};

//                                     nt_get put mget rmw cas snap
const Spec DurableMix{"kv_durable_mix", 1u << 16, 64, true,
                      {50, 20, 5, 10, 5, 10}, true, 3000000, 9, 9};
const Spec NtBigset{"kv_nt_bigset", 1u << 22, 256, false,
                    {80, 20, 0, 0, 0, 0}, false, 0, 3, 5};

unsigned clientThreads() {
  size_t N = allowedCpus().size();
  return N ? unsigned(N) : 1;
}

kv::StoreConfig storeConfig(const Spec &P) {
  kv::StoreConfig KC;
  KC.Shards = P.Shards;
  KC.CapacityPerShard = uint32_t(2 * P.Keys / P.Shards); // Load factor 1/2.
  return KC;
}

/// One set-up store. Members are declared so destruction runs checkpointer,
/// log, store, heap.
struct Instance {
  std::unique_ptr<rt::Heap> H;
  std::unique_ptr<kv::Store> S;
  std::unique_ptr<kv::Wal> W;
  std::unique_ptr<kv::Checkpointer> CP;

  /// Destroys in dependency order (move-assignment would free the heap
  /// first).
  void reset() {
    CP.reset();
    W.reset();
    S.reset();
    H.reset();
  }

  /// Stops the background threads in dependency order.
  void stop() {
    if (CP)
      CP->stop();
    if (S)
      S->attachWal(nullptr);
    if (W)
      W->stop();
  }
};

struct Shared {
  const Spec &P;
  kv::Store &S;
  uint64_t Seed;
  bool Trace;
  size_t NumBuckets;
  size_t NumSlices;
  std::atomic<int> Phase{0}; ///< 0 warm-up, 1 measured window, 2 stop.
  std::atomic<uint64_t> WindowStart{0};
};

struct WorkerOut {
  Recorder Rec;
  SpanLog Spans;
  /// 16 per key a committed, logged mutation wrote.
  uint64_t UserBytes = 0;
};

OpKind pickKind(const Spec &P, unsigned Roll) {
  unsigned Acc = 0;
  for (unsigned I = 0; I < NumOpKinds; ++I) {
    Acc += P.Mix[I];
    if (Roll < Acc)
      return OpKind(I);
  }
  return OpKind::NtGet;
}

void workerLoop(Shared &Sh, unsigned Tid, WorkerOut &Out) {
  const Spec &P = Sh.P;
  kv::Store &S = Sh.S;
  KeyGenerator Gen(P.Zipf ? KeyGenerator::Dist::Zipfian
                          : KeyGenerator::Dist::Uniform,
                   P.Keys, Sh.Seed * 0x9e3779b97f4a7c15ull + Tid, 0.99);
  Rng Ops(Sh.Seed * 1000003 + Tid);
  Recorder &Rec = Out.Rec;
  Rec.Bucket.resize(Sh.NumBuckets);
  Rec.Slice.resize(Sh.NumSlices);
  Word Keys[BatchKeys], Vals[BatchKeys];
  uint64_t Seq = 0;
  for (;;) {
    const int Ph = Sh.Phase.load(std::memory_order_acquire);
    if (Ph == 2)
      break;
    const OpKind K = pickKind(P, unsigned(Ops.nextBelow(100)));
    const Word Key = Gen.next();
    bool Ok = true, CheckOk = true;
    uint64_t User = 0;
    const uint64_t T0 = nowNs();
    uint64_t CallStart = T0;
    switch (K) {
    case OpKind::NtGet: {
      Word V = 0;
      bool Found = S.get(Key, V);
      CheckOk = getHitOk(Found, Key, V);
      break;
    }
    case OpKind::Put:
      Ok = S.put(Key, tagValue(Key, Ops.next()));
      User = 16;
      break;
    case OpKind::TxnMget:
      Keys[0] = Key;
      for (unsigned I = 1; I < BatchKeys; ++I)
        Keys[I] = Gen.next();
      CheckOk = batchReadOk(S.multiGet(Keys, BatchKeys, Vals), Keys, Vals,
                            BatchKeys);
      break;
    case OpKind::TxnRmw:
      Keys[0] = Key;
      Keys[1] = Gen.next();
      Ok = S.rmwAdd(Keys, 2, 1);
      User = 32;
      break;
    case OpKind::TxnCas: {
      // Read-then-CAS: the CAS can lose a race (a legitimate mismatch).
      Word Cur = 0;
      bool Found = S.get(Key, Cur);
      CheckOk = getHitOk(Found, Key, Cur);
      CallStart = nowNs();
      User = S.cas(Key, Cur, tagValue(Key, Ops.next())) ? 16 : 0;
      break;
    }
    case OpKind::SnapMget:
      Keys[0] = Key;
      for (unsigned I = 1; I < BatchKeys; ++I)
        Keys[I] = Gen.next();
      CheckOk = batchReadOk(S.snapshotMultiGet(Keys, BatchKeys, Vals), Keys,
                            Vals, BatchKeys);
      break;
    }
    const uint64_t T1 = nowNs();
    if (Ok && P.Durable)
      Out.UserBytes += User;
    if (Ph != 1)
      continue;
    ++Rec.Ops;
    Rec.Failed += !Ok || !CheckOk;
    Rec.CheckFailures += !CheckOk;
    Rec.Kind[unsigned(K)].record(T1 - CallStart);
    const uint64_t Since =
        T0 - Sh.WindowStart.load(std::memory_order_relaxed);
    if (Since / BucketNs < Rec.Bucket.size())
      Rec.Bucket[Since / BucketNs].record(T1 - T0);
    if (Since / SliceNs < Rec.Slice.size())
      Rec.Slice[Since / SliceNs].record(T1 - T0);
    if (Sh.Trace) {
      // One span per Store call; a CAS request is a GET call then a CAS
      // call, sharing the request id.
      uint64_t Id = (uint64_t(Tid) << 40) | Seq++;
      if (CallStart != T0)
        Out.Spans.request(Id, SpanName::KvNtGet, T0, CallStart);
      Out.Spans.request(Id, spanForKind(K), CallStart, T1);
    }
  }
}

void sleepFor(double Seconds) {
  std::this_thread::sleep_for(std::chrono::duration<double>(Seconds));
}

kv::CheckpointStats ckptDelta(const kv::CheckpointStats &A,
                              const kv::CheckpointStats &B) {
  kv::CheckpointStats D;
  D.Written = B.Written - A.Written;
  D.TotalMillis = B.TotalMillis - A.TotalMillis;
  D.WalTruncatedBytes = B.WalTruncatedBytes - A.WalTruncatedBytes;
  return D;
}

Result runInProc(const Spec &P, const Options &O) {
  Result R;
  stm::Config Base;
  Base.DeaEnabled = true; // The paper's +DEA strong-atomicity mode.
  stm::ScopedConfig SC(Base);
  stm::setTraceEnabled(O.Trace);

  const unsigned Threads = clientThreads();
  const kv::StoreConfig KC = storeConfig(P);
  kv::Wal::Config WC;
  WC.Dir = O.WorkDir + "/" + P.Name + "-wal";
  WC.Shards = KC.Shards;
  std::filesystem::remove_all(WC.Dir);

  // Set up SetupReps times and keep the last instance; setup_s is the
  // median. Set-up is everything before the first client request:
  // building and prepopulating the store, and for the durable mix
  // starting the log and the checkpointer.
  std::vector<double> SetupS;
  Instance Live;
  for (unsigned Rep = 0; Rep < P.SetupReps; ++Rep) {
    if (Rep) {
      Live.stop();
      Live.reset();
      stm::snap::resetTable(); // Version entries key the dead heap.
      stm::config().SnapshotEnabled = false;
      std::filesystem::remove_all(WC.Dir);
    }
    const uint64_t T0 = nowNs();
    Live.H = std::make_unique<rt::Heap>();
    Live.S = std::make_unique<kv::Store>(*Live.H, KC);
    // Parallel only for the big set, whose uniform keys make the layout
    // matter little and whose load would otherwise take seconds.
    if (!prepopulate(*Live.S, P.Keys, P.Keys > (1u << 20) ? Threads : 1)) {
      R.fail("prepopulate: a shard filled up");
      return R;
    }
    if (P.Durable) {
      // Snapshot plane on after the bulk load (the checkpointer's scan
      // and the snap reads need it; the load needs no version history).
      stm::config().SnapshotEnabled = true;
      Live.W = std::make_unique<kv::Wal>(WC);
      Live.W->start();
      Live.S->attachWal(Live.W.get());
      kv::Checkpointer::Config CC;
      CC.IntervalOps = P.CkptInterval;
      Live.CP = std::make_unique<kv::Checkpointer>(*Live.S, *Live.W, CC);
      Live.CP->start();
    }
    SetupS.push_back(double(nowNs() - T0) / 1e9);
  }
  kv::Store &S = *Live.S;

  Shared Sh{P, S, O.Seed, O.Trace,
            size_t(std::ceil(O.Seconds * 1e9 / double(BucketNs))) + 1,
            numSlices(O.Seconds, SliceNs)};
  std::vector<WorkerOut> Outs(Threads);
  std::vector<std::thread> Ts;
  for (unsigned T = 0; T < Threads; ++T)
    Ts.emplace_back([&, T] { workerLoop(Sh, T, Outs[T]); });

  sleepFor(std::min(WarmupS, O.Seconds));
  stm::statsReset();
  if (O.Trace)
    stm::traceReset();
  const kv::WalStats W0 = Live.W ? Live.W->stats() : kv::WalStats{};
  const kv::CheckpointStats C0 =
      Live.CP ? Live.CP->stats() : kv::CheckpointStats{};
  const Usage U0 = readUsage();
  const uint64_t WinStart = nowNs();
  Sh.WindowStart.store(WinStart, std::memory_order_relaxed);
  Sh.Phase.store(1, std::memory_order_release);
  sleepFor(O.Seconds);
  Sh.Phase.store(2, std::memory_order_release);
  const uint64_t WinEnd = nowNs();
  for (std::thread &T : Ts)
    T.join();
  const Usage U1 = readUsage();
  const stm::StatsCounters Counters = stm::statsSnapshot();
  const kv::WalStats W1 = Live.W ? Live.W->stats() : kv::WalStats{};
  const double RssMb = peakRssMb();

  Recorder Rec;
  SpanLog Spans;
  uint64_t UserBytes = 0;
  for (WorkerOut &W : Outs) {
    Rec.merge(W.Rec);
    Spans.merge(W.Spans);
    UserBytes += W.UserBytes;
  }
  // Trace rings are drained now, so the counts cover the window only.
  Result TraceCounts;
  addTraceEventMetrics(TraceCounts);

  // After the window: stop the background checkpointer, then bring the
  // log to the common final shape (final checkpoint + fixed suffix + final
  // drain). The big set runs without a log, so it starts one here.
  kv::CheckpointStats CkptWin;
  if (Live.CP) {
    Live.CP->stop();
    CkptWin = ckptDelta(C0, Live.CP->stats());
    Live.CP.reset();
  }
  if (!Live.W) {
    Live.W = std::make_unique<kv::Wal>(WC);
    Live.W->start();
    S.attachWal(Live.W.get());
  }
  const FinalState FS = writeFinalState(S, *Live.W, P.Keys, O.Seed);
  if (!FS.Error.empty())
    R.fail(FS.Error);
  const kv::WalStats WFinal = Live.W->stats();
  Spans.request(0, SpanName::CkptRunOnce, 0, uint64_t(FS.CkptS * 1e9));
  Spans.request(0, SpanName::WalFinalDrain, 0, uint64_t(FS.DrainS * 1e9));

  const std::vector<Word> Image = readAll(S, P.Keys);
  for (uint64_t K = 0; K < P.Keys; ++K)
    if (!tagMatches(K, Image[K])) {
      R.fail("live store: key " + std::to_string(K) +
             " holds a value of another key");
      break;
    }
  Live.reset();
  stm::snap::resetTable();

  const RecoveryRun RR =
      recoverInFreshProcess(WC, KC, Image, P.RecoverReps, O.WorkDir);
  if (!RR.Ran)
    R.fail("recovery process failed");
  for (double Sec : RR.seconds())
    Spans.request(0, SpanName::RecoveryRecover, 0, uint64_t(Sec * 1e9));
  if (RR.ApplyFailures)
    R.fail("recovery: " + std::to_string(RR.ApplyFailures) +
           " apply failures");
  if (RR.Mismatched)
    R.fail("recovery: " + std::to_string(RR.Mismatched) +
           " keys differ from the live store (first: key " +
           std::to_string(RR.FirstBad) + ")");
  std::filesystem::remove_all(WC.Dir);

  // Results.
  const double WindowS = double(WinEnd - WinStart) / 1e9;
  R.Attempted = Rec.Ops;
  R.Failed = Rec.Failed;
  if (Rec.CheckFailures)
    R.fail(std::to_string(Rec.CheckFailures) +
           " reads returned a missing key or another key's value");
  if (Rec.Ops == 0)
    R.fail("no operation completed in the window");
  const double Ops = double(Rec.Ops ? Rec.Ops : 1);
  addSliceMetrics(R, Rec.Slice, double(SliceNs) / 1e9, /*WithRate=*/true);
  R.add("cpu_us_per_op",
        (U1.UserS + U1.SysS - U0.UserS - U0.SysS) * 1e6 / Ops, "us");
  R.add("peak_rss_mb", RssMb, "MB");
  R.add("setup_s", median(SetupS), "s");

  addStmMetrics(R, Counters);
  addKvMetrics(R, Rec, Rec.bucketP99MaxUs());
  addWalMetrics(R, W0, W1, WFinal, UserBytes + 16 * SuffixRecords);
  addCkptRecoveryMetrics(R, CkptWin, RR.First);
  R.add("recovery.seconds", median(RR.seconds()), "s");
  addNetMetrics(R, NetMeasure{});
  addProcMetrics(R, U0, U1, Rec.Ops);
  for (const Result::Metric &M : TraceCounts.Metrics)
    R.Metrics.push_back(M);
  addSelfTimeMetrics(R, Spans);

  R.info("client_threads", std::to_string(Threads));
  R.info("cpus", cpuListStr(allowedCpus()));
  R.info("window_s", fmt(WindowS));
  R.info("setup_s_samples", fmtList(SetupS));
  R.info("recovery_seconds_samples", fmtList(RR.seconds()));
  if (O.Trace) {
    std::string Path = O.WorkDir + "/spans-" + P.Name + ".tsv";
    if (Spans.write(Path))
      R.info("spans_file", Path);
  }
  return R;
}

} // namespace

Result satmbench::runKvDurableMix(const Options &O) {
  return runInProc(DurableMix, O);
}

Result satmbench::runKvNtBigset(const Options &O) {
  return runInProc(NtBigset, O);
}
