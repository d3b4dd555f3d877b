//===- satmbench/Bench.cpp - Shared plumbing of the SATM benchmark -------===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Checks.h"

#include "stm/Config.h"
#include "stm/Snapshot.h"
#include "support/Rng.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include <cerrno>
#include <csignal>
#include <type_traits>

#include <fcntl.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace satmbench;
using namespace satm;

const char *satmbench::opKindName(OpKind K) {
  switch (K) {
  case OpKind::NtGet:
    return "nt_get";
  case OpKind::Put:
    return "put";
  case OpKind::TxnMget:
    return "txn_mget";
  case OpKind::TxnRmw:
    return "txn_rmw";
  case OpKind::TxnCas:
    return "txn_cas";
  case OpKind::SnapMget:
    return "snap_mget";
  }
  return "?";
}

unsigned FineHistogram::index(uint64_t V) {
  constexpr uint64_t Linear = uint64_t(2) << SubBits;
  if (V >= (uint64_t(1) << MaxBits))
    V = (uint64_t(1) << MaxBits) - 1;
  if (V < Linear)
    return unsigned(V);
  unsigned H = 63 - unsigned(__builtin_clzll(V)); // >= SubBits + 1.
  unsigned Shift = H - SubBits;
  return unsigned(Linear) + (H - SubBits - 1) * (1u << SubBits) +
         unsigned((V >> Shift) - (uint64_t(1) << SubBits));
}

void FineHistogram::bounds(unsigned I, double &Lo, double &Width) {
  constexpr unsigned Linear = 2u << SubBits;
  if (I < Linear) {
    Lo = I;
    Width = 1;
    return;
  }
  unsigned G = (I - Linear) >> SubBits; // Group: top bit SubBits + 1 + G.
  unsigned Sub = (I - Linear) & ((1u << SubBits) - 1);
  unsigned Shift = G + 1;
  Lo = std::ldexp(double((1u << SubBits) + Sub), int(Shift));
  Width = std::ldexp(1.0, int(Shift));
}

void FineHistogram::record(uint64_t Ns) {
  unsigned I = index(Ns);
  if (I >= Counts.size())
    Counts.resize(size_t(I) + 1);
  ++Counts[I];
  ++Total;
}

FineHistogram &FineHistogram::operator+=(const FineHistogram &O) {
  if (Counts.size() < O.Counts.size())
    Counts.resize(O.Counts.size());
  for (size_t I = 0; I < O.Counts.size(); ++I)
    Counts[I] += O.Counts[I];
  Total += O.Total;
  return *this;
}

double FineHistogram::percentile(double Percentile) const {
  if (!Total)
    return 0;
  double Rank = std::max(1.0, Percentile / 100.0 * double(Total));
  double Seen = 0;
  for (size_t I = 0; I < Counts.size(); ++I) {
    if (!Counts[I])
      continue;
    if (Seen + double(Counts[I]) >= Rank) {
      double Lo, Width;
      bounds(unsigned(I), Lo, Width);
      return Lo + Width * (Rank - Seen) / double(Counts[I]);
    }
    Seen += double(Counts[I]);
  }
  return 0;
}

void Recorder::merge(const Recorder &O) {
  for (unsigned I = 0; I < NumOpKinds; ++I)
    Kind[I] += O.Kind[I];
  if (Bucket.size() < O.Bucket.size())
    Bucket.resize(O.Bucket.size());
  for (size_t I = 0; I < O.Bucket.size(); ++I)
    Bucket[I] += O.Bucket[I];
  if (Slice.size() < O.Slice.size())
    Slice.resize(O.Slice.size());
  for (size_t I = 0; I < O.Slice.size(); ++I)
    Slice[I] += O.Slice[I];
  Ops += O.Ops;
  Failed += O.Failed;
  CheckFailures += O.CheckFailures;
}

double Recorder::bucketP99MaxUs() const {
  uint64_t Worst = 0;
  for (const LatencyHistogram &H : Bucket)
    if (H.count() >= 100)
      Worst = std::max(Worst, H.valueAtPercentile(99));
  return double(Worst) / 1000.0;
}

//===----------------------------------------------------------------------===
// Spans.
//===----------------------------------------------------------------------===

const char *satmbench::spanNameStr(SpanName N) {
  static const char *Names[NumSpanNames] = {
      "kv.nt_get",     "kv.put",          "kv.txn_mget",
      "kv.txn_rmw",    "kv.txn_cas",      "kv.snap_mget",
      "wal.final_drain", "ckpt.run_once", "recovery.recover",
      "net.request",   "codec.encode",    "client.send",
      "codec.decode"};
  return Names[unsigned(N)];
}

const char *satmbench::spanLayer(SpanName N) {
  switch (N) {
  case SpanName::KvNtGet:
  case SpanName::KvPut:
  case SpanName::KvTxnMget:
  case SpanName::KvTxnRmw:
  case SpanName::KvTxnCas:
  case SpanName::KvSnapMget:
    return "kv";
  case SpanName::WalFinalDrain:
    return "wal";
  case SpanName::CkptRunOnce:
    return "ckpt";
  case SpanName::RecoveryRecover:
    return "recovery";
  case SpanName::WireRequest:
    // What is left of a wire request once the driver's own encode, send
    // and decode are taken out: transport plus the server.
    return "net.server_wait";
  case SpanName::CodecEncode:
  case SpanName::CodecDecode:
    return "net.codec";
  case SpanName::ClientSend:
    return "net.client";
  }
  return "?";
}

static const char *const AllLayers[] = {"kv",       "wal",
                                        "ckpt",     "recovery",
                                        "net.server_wait", "net.codec",
                                        "net.client"};

void SpanLog::request(uint64_t Id, SpanName Root, uint64_t Start,
                      uint64_t End, const Child *Children,
                      unsigned NumChildren) {
  uint64_t Covered = 0;
  for (unsigned I = 0; I < NumChildren; ++I) {
    uint64_t D = Children[I].End - Children[I].Start;
    Covered += D;
    SelfNs[unsigned(Children[I].Name)] += D;
  }
  uint64_t D = End - Start;
  SelfNs[unsigned(Root)] += D > Covered ? D - Covered : 0;
  if (Id % SampleEvery || Records.size() + NumChildren + 1 > MaxRecords)
    return;
  Records.push_back({Id, Start, End, -1, unsigned(Root)});
  for (unsigned I = 0; I < NumChildren; ++I)
    Records.push_back({Id, Children[I].Start, Children[I].End,
                       int32_t(Root), unsigned(Children[I].Name)});
}

void SpanLog::merge(const SpanLog &O) {
  for (unsigned I = 0; I < NumSpanNames; ++I)
    SelfNs[I] += O.SelfNs[I];
  size_t Room = MaxRecords * 4 - std::min(Records.size(), MaxRecords * 4);
  Records.insert(Records.end(), O.Records.begin(),
                 O.Records.begin() + std::min(Room, O.Records.size()));
}

double SpanLog::layerSelfMs(const std::string &Layer) const {
  uint64_t Ns = 0;
  for (unsigned I = 0; I < NumSpanNames; ++I)
    if (Layer == spanLayer(SpanName(I)))
      Ns += SelfNs[I];
  return double(Ns) / 1e6;
}

bool SpanLog::write(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "id\tname\tparent\tstart_ns\tend_ns\n");
  for (const SpanRec &S : Records)
    std::fprintf(F, "%" PRIu64 "\t%s\t%s\t%" PRIu64 "\t%" PRIu64 "\n", S.Id,
                 spanNameStr(SpanName(S.Name)),
                 S.Parent < 0 ? "-" : spanNameStr(SpanName(S.Parent)),
                 S.Start, S.End);
  return std::fclose(F) == 0;
}

//===----------------------------------------------------------------------===
// Process counters and CPU sets.
//===----------------------------------------------------------------------===

Usage satmbench::readUsage() {
  rusage Ru{};
  ::getrusage(RUSAGE_SELF, &Ru);
  Usage U;
  U.UserS = double(Ru.ru_utime.tv_sec) + double(Ru.ru_utime.tv_usec) / 1e6;
  U.SysS = double(Ru.ru_stime.tv_sec) + double(Ru.ru_stime.tv_usec) / 1e6;
  U.InvolCtx = uint64_t(Ru.ru_nivcsw);
  return U;
}

double satmbench::peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return double(std::strtoull(Line.c_str() + 6, nullptr, 10)) / 1024.0;
  // No procfs: fall back to getrusage's peak (also kB on Linux).
  rusage Ru{};
  ::getrusage(RUSAGE_SELF, &Ru);
  return double(Ru.ru_maxrss) / 1024.0;
}

std::vector<int> satmbench::allowedCpus() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  std::vector<int> Out;
  if (::sched_getaffinity(0, sizeof(Set), &Set) != 0)
    return Out;
  for (int C = 0; C < CPU_SETSIZE; ++C)
    if (CPU_ISSET(C, &Set))
      Out.push_back(C);
  return Out;
}

bool satmbench::pinTo(const std::vector<int> &Cpus) {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  for (int C : Cpus)
    CPU_SET(C, &Set);
  return ::sched_setaffinity(0, sizeof(Set), &Set) == 0;
}

std::string satmbench::cpuListStr(const std::vector<int> &Cpus) {
  std::string S;
  for (int C : Cpus)
    S += (S.empty() ? "" : ",") + std::to_string(C);
  return S;
}

double satmbench::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t M = V.size() / 2;
  return V.size() % 2 ? V[M] : (V[M - 1] + V[M]) / 2;
}

std::string satmbench::fmt(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.6g", V);
  return Buf;
}

std::string satmbench::fmtList(const std::vector<double> &V) {
  std::string S;
  for (double X : V)
    S += (S.empty() ? "" : ",") + fmt(X);
  return S;
}

bool satmbench::prepopulate(kv::Store &S, uint64_t N, unsigned Threads) {
  std::atomic<bool> Ok{true};
  std::vector<std::thread> Ts;
  for (unsigned T = 0; T < Threads; ++T)
    Ts.emplace_back([&, T] {
      for (uint64_t K = 0; K < N; ++K)
        if (S.shardOf(K) % Threads == T && !S.insert(K, tagValue(K, 1000)))
          Ok.store(false);
    });
  for (std::thread &T : Ts)
    T.join();
  return Ok.load();
}

//===----------------------------------------------------------------------===
// Metric groups.
//===----------------------------------------------------------------------===

size_t satmbench::numSlices(double Seconds, uint64_t Len) {
  size_t N = size_t(Seconds * 1e9 / double(Len));
  return N ? N : 1;
}

double satmbench::maxSliceP99Us(const std::vector<FineHistogram> &Slices) {
  double Worst = 0;
  for (const FineHistogram &H : Slices)
    if (H.count() >= 100)
      Worst = std::max(Worst, H.percentile(99) / 1000.0);
  return Worst;
}

void satmbench::addSliceMetrics(Result &R,
                                const std::vector<FineHistogram> &Slices,
                                double SliceS, bool WithRate) {
  std::vector<double> Rate, P50, P99;
  FineHistogram Whole;
  uint64_t MinCount = ~uint64_t(0);
  for (const FineHistogram &H : Slices) {
    Whole += H;
    Rate.push_back(double(H.count()) / SliceS);
    if (H.count() < 100)
      continue;
    MinCount = std::min(MinCount, H.count());
    P50.push_back(H.percentile(50) / 1000.0);
    P99.push_back(H.percentile(99) / 1000.0);
  }
  if (WithRate)
    R.add("throughput_ops_s", median(Rate), "ops/s");
  R.add("p50_us", median(P50), "us");
  R.add("p99_us", median(P99), "us");
  R.info("latency_samples", std::to_string(Whole.count()));
  R.info("slices", std::to_string(Slices.size()));
  R.info("latency_slices", std::to_string(P99.size()));
  R.info("p99_samples_beyond_per_slice",
         std::to_string(P99.empty() ? 0 : MinCount / 100));
  R.info("whole_window_p50_us", fmt(Whole.percentile(50) / 1000.0));
  R.info("whole_window_p99_us", fmt(Whole.percentile(99) / 1000.0));
  R.info("slice_p99_us", fmtList(P99));
  if (WithRate)
    R.info("slice_ops_s", fmtList(Rate));
}

void satmbench::addStmMetrics(Result &R, const stm::StatsCounters &C) {
  double Attempts = double(C.TxnCommits + C.TxnAborts);
  R.add("stm.commits", double(C.TxnCommits), "count");
  R.add("stm.aborts", double(C.TxnAborts), "count");
  R.add("stm.commit_ratio", Attempts ? double(C.TxnCommits) / Attempts : 0,
        "ratio");
  for (unsigned I = 0; I < stm::NumAbortReasons; ++I)
    R.add(std::string("stm.abort.") +
              stm::abortReasonKey(stm::AbortReason(I)),
          double(C.AbortReasons[I]), "count");
  R.add("stm.quiesce_waits", double(C.QuiesceWaits), "count");
  R.add("stm.serial_entries", double(C.SerialModeEntries), "count");
  R.add("stm.nt_barriers", double(C.NtReadBarriers + C.NtWriteBarriers),
        "count");
  R.add("stm.nt_conflicts", double(C.NtReadConflicts + C.NtWriteConflicts),
        "count");
  R.add("stm.snapshot_reads", double(C.SnapshotReads), "count");
  R.add("stm.snapshot_nodes_freed", double(C.SnapshotNodesFreed), "count");
}

void satmbench::addKvMetrics(Result &R, const Recorder &Rec,
                             double BucketP99MaxUs) {
  for (unsigned I = 0; I < NumOpKinds; ++I) {
    std::string P = std::string("kv.") + opKindName(OpKind(I));
    const LatencyHistogram &H = Rec.Kind[I];
    R.add(P + ".count", double(H.count()), "count");
    R.add(P + ".p50_ns", double(H.valueAtPercentile(50)), "ns");
    R.add(P + ".p99_ns", double(H.valueAtPercentile(99)), "ns");
  }
  R.add("kv.bucket_p99_max_us", BucketP99MaxUs, "us");
}

void satmbench::addWalMetrics(Result &R, const kv::WalStats &Before,
                              const kv::WalStats &After,
                              const kv::WalStats &Final, uint64_t UserBytes) {
  double Records = double(After.RecordsWritten - Before.RecordsWritten);
  double Batches = double(After.FsyncBatches - Before.FsyncBatches);
  R.add("wal.records", Records, "count");
  R.add("wal.fsync_batches", Batches, "count");
  R.add("wal.records_per_fsync", Batches ? Records / Batches : 0, "ratio");
  R.add("wal.ring_stalls", double(After.RingStalls - Before.RingStalls),
        "count");
  R.add("wal.bytes_per_user_byte",
        UserBytes ? double(Final.BytesWritten) / double(UserBytes) : 0,
        "ratio");
}

void satmbench::addCkptRecoveryMetrics(Result &R,
                                       const kv::CheckpointStats &Ckpt,
                                       const kv::RecoveryStats &Rec) {
  R.add("ckpt.written", double(Ckpt.Written), "count");
  R.add("ckpt.busy_ms", Ckpt.TotalMillis, "ms");
  R.add("ckpt.truncated_bytes", double(Ckpt.WalTruncatedBytes), "bytes");
  R.add("recovery.records_replayed", double(Rec.RecordsReplayed), "count");
  R.add("recovery.ckpt_entries", double(Rec.CheckpointEntries), "count");
  // Everything recovery applied (log records and checkpoint entries) per
  // second of Wal::recover.
  double Applied = double(Rec.RecordsReplayed + Rec.CheckpointEntries);
  R.add("recovery.records_per_s",
        Rec.Millis > 0 ? Applied / (Rec.Millis / 1000.0) : 0, "1/s");
}

void satmbench::addNetMetrics(Result &R, const NetMeasure &N) {
  R.add("net.batch_avg", N.BatchAvg, "ratio");
  R.add("net.max_queue_depth", N.MaxQueueDepth, "count");
  R.add("net.shed", N.Shed, "count");
  R.add("net.bad_frames", N.BadFrames, "count");
  R.add("net.encode_ns", N.EncodeNs, "ns");
  R.add("net.decode_ns", N.DecodeNs, "ns");
  R.add("net.send_call_p99_ns", N.SendCallP99Ns, "ns");
  R.add("driver.late_p99_us", N.LateP99Us, "us");
  R.add("driver.inflight_max", N.InflightMax, "count");
}

void satmbench::addProcMetrics(Result &R, const Usage &Before,
                               const Usage &After, uint64_t Ops) {
  double User = After.UserS - Before.UserS, Sys = After.SysS - Before.SysS;
  R.add("proc.sys_frac", User + Sys > 0 ? Sys / (User + Sys) : 0, "ratio");
  R.add("proc.invol_ctx_per_kop",
        Ops ? double(After.InvolCtx - Before.InvolCtx) * 1000.0 / double(Ops)
            : 0,
        "1/kop");
}

void satmbench::addTraceEventMetrics(Result &R) {
  uint64_t Quiesce = 0, Aborts = 0;
  if (stm::traceEnabled()) {
    for (const stm::TraceEntry &E : stm::traceDrain()) {
      Quiesce += E.Kind == stm::TraceKind::QuiesceWait;
      Aborts += E.Kind == stm::TraceKind::TxnAbort;
    }
  }
  R.add("trace.quiesce_wait_events", double(Quiesce), "count");
  R.add("trace.abort_events", double(Aborts), "count");
  R.add("trace.events_dropped",
        stm::traceEnabled() ? double(stm::traceDropped()) : 0, "count");
}

void satmbench::addSelfTimeMetrics(Result &R, const SpanLog &Spans) {
  for (const char *L : AllLayers)
    R.add(std::string("self_ms.") + L, Spans.layerSelfMs(L), "ms");
}

//===----------------------------------------------------------------------===
// JSON.
//===----------------------------------------------------------------------===

static std::string jsonStr(const std::string &S) {
  std::string O = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      O += '\\';
    if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", unsigned(C));
      O += Buf;
      continue;
    }
    O += C;
  }
  return O + "\"";
}

static std::string jsonNum(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string Result::json() const {
  std::string O = "{\"correct\": ";
  O += Correct ? "true" : "false";
  O += ", \"attempted\": " + std::to_string(Attempted);
  O += ", \"failed\": " + std::to_string(Failed);
  O += ", \"check_errors\": [";
  for (size_t I = 0; I < CheckErrors.size(); ++I)
    O += (I ? ", " : "") + jsonStr(CheckErrors[I]);
  O += "], \"metrics\": {";
  for (size_t I = 0; I < Metrics.size(); ++I)
    O += (I ? ", " : "") + jsonStr(Metrics[I].Name) + ": {\"value\": " +
         jsonNum(Metrics[I].Value) + ", \"unit\": " +
         jsonStr(Metrics[I].Unit) + "}";
  O += "}, \"info\": {";
  for (size_t I = 0; I < Info.size(); ++I)
    O += (I ? ", " : "") + jsonStr(Info[I].first) + ": " +
         jsonStr(Info[I].second);
  return O + "}}";
}

static_assert(std::is_trivially_copyable_v<RecoveryRun>,
              "RecoveryRun crosses a pipe as bytes");

//===----------------------------------------------------------------------===
// After the window.
//===----------------------------------------------------------------------===

FinalState satmbench::writeFinalState(kv::Store &S, kv::Wal &W,
                                      uint64_t Keys, uint64_t Seed) {
  FinalState F;
  // The checkpointer's scan pins a snapshot epoch; the suffix and the
  // recoveries run without the snapshot plane.
  Rng R(Seed * 0x2545f4914f6cdd1dull + 17);
  stm::config().SnapshotEnabled = true;
  {
    // Two checkpoints one commit apart: the second rotates the log below
    // the first, so the log recovery scans holds one record plus the
    // suffix, however much history the window wrote.
    kv::Checkpointer CP(S, W, kv::Checkpointer::Config{});
    const uint64_t T0 = nowNs();
    bool Ok = CP.runOnce(&F.Error);
    F.CkptS = double(nowNs() - T0) / 1e9;
    Word K = R.nextBelow(Keys);
    Ok = Ok && S.put(K, tagValue(K, R.next())) && CP.runOnce(&F.Error);
    if (!Ok)
      F.Error = "final checkpoint: " + F.Error;
  }
  stm::config().SnapshotEnabled = false;
  for (uint64_t I = 0; I < SuffixRecords; ++I) {
    Word K = R.nextBelow(Keys);
    if (!S.put(K, tagValue(K, R.next())) && F.Error.empty())
      F.Error = "log suffix: put failed";
  }
  S.attachWal(nullptr);
  const uint64_t T0 = nowNs();
  W.stop();
  F.DrainS = double(nowNs() - T0) / 1e9;
  return F;
}

RecoveryRun satmbench::recoverAndCompare(const kv::Wal::Config &WC,
                                         const kv::StoreConfig &KC,
                                         const std::vector<Word> &Image,
                                         unsigned Reps) {
  RecoveryRun Out;
  Out.Ran = true;
  Out.Reps = std::min(Reps, RecoveryRun::MaxReps);
  stm::config().SnapshotEnabled = false;
  for (unsigned Rep = 0; Rep < Out.Reps; ++Rep) {
    rt::Heap H;
    kv::Store S(H, KC);
    kv::Wal W(WC);
    const uint64_t T0 = nowNs();
    kv::RecoveryStats St = W.recover(S);
    Out.Seconds[Rep] = double(nowNs() - T0) / 1e9;
    if (Rep == 0)
      Out.First = St;
    Out.ApplyFailures += St.ApplyFailures + !St.ReclaimIdentityOk;
    if (Image.empty())
      continue;
    uint64_t FirstBad = 0;
    uint64_t Bad = compareImages(Image, readAll(S, Image.size()), &FirstBad);
    if (Bad && !Out.Mismatched)
      Out.FirstBad = FirstBad;
    Out.Mismatched += Bad;
  }
  stm::snap::resetTable();
  return Out;
}

/// One recovery in a child process running this binary's --recover mode;
/// Ran is false when the child failed.
static RecoveryRun recoverOnceInChild(const kv::Wal::Config &WC,
                                      const kv::StoreConfig &KC,
                                      const std::string &ImagePath,
                                      const std::vector<int> &Cpus) {
  RecoveryRun Out;
  int Pipe[2];
  if (::pipe2(Pipe, O_CLOEXEC))
    return Out;
  std::vector<std::string> Args = {
      "satmbench",
      "--recover=" + WC.Dir,
      "--shards=" + std::to_string(KC.Shards),
      "--capacity=" + std::to_string(KC.CapacityPerShard),
      "--result-fd=" + std::to_string(Pipe[1])};
  if (!ImagePath.empty())
    Args.push_back("--image=" + ImagePath);
  std::vector<char *> Argv;
  for (std::string &A : Args)
    Argv.push_back(A.data());
  Argv.push_back(nullptr);
  std::fflush(stdout);
  std::fflush(stderr);
  pid_t Pid = ::fork();
  if (Pid == 0) {
    if (!Cpus.empty())
      pinTo(Cpus);
    ::fcntl(Pipe[1], F_SETFD, 0); // The result end survives the exec.
    ::execv("/proc/self/exe", Argv.data());
    ::_exit(127);
  }
  ::close(Pipe[1]);
  if (Pid > 0) {
    RecoveryRun Got;
    size_t Have = 0;
    char *P = reinterpret_cast<char *>(&Got);
    while (Have < sizeof(Got)) {
      ssize_t N = ::read(Pipe[0], P + Have, sizeof(Got) - Have);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        break;
      Have += size_t(N);
    }
    int Status = 0;
    ::waitpid(Pid, &Status, 0);
    if (Have == sizeof(Got) && WIFEXITED(Status) && WEXITSTATUS(Status) == 0)
      Out = Got;
  }
  ::close(Pipe[0]);
  return Out;
}

RecoveryRun satmbench::recoverInFreshProcess(const kv::Wal::Config &WC,
                                             const kv::StoreConfig &KC,
                                             const std::vector<Word> &Image,
                                             unsigned Reps,
                                             const std::string &WorkDir,
                                             const std::vector<int> &Cpus) {
  RecoveryRun Out;
  const std::string ImagePath = WorkDir + "/recovery-image.bin";
  {
    std::ofstream F(ImagePath, std::ios::binary | std::ios::trunc);
    F.write(reinterpret_cast<const char *>(Image.data()),
            std::streamsize(Image.size() * sizeof(Word)));
    if (!F)
      return Out;
  }
  Out.Ran = true;
  Out.Reps = std::min(Reps, RecoveryRun::MaxReps);
  for (unsigned Rep = 0; Rep < Out.Reps; ++Rep) {
    RecoveryRun One =
        recoverOnceInChild(WC, KC, Rep ? std::string() : ImagePath, Cpus);
    Out.Ran = Out.Ran && One.Ran;
    Out.Seconds[Rep] = One.Seconds[0];
    if (Rep == 0)
      Out.First = One.First;
    if (One.Mismatched && !Out.Mismatched)
      Out.FirstBad = One.FirstBad;
    Out.Mismatched += One.Mismatched;
    Out.ApplyFailures += One.ApplyFailures;
  }
  ::unlink(ImagePath.c_str());
  return Out;
}

int satmbench::recoverMain(const kv::Wal::Config &WC,
                           const kv::StoreConfig &KC,
                           const std::string &ImagePath, int ResultFd) {
  ::prctl(PR_SET_PDEATHSIG, SIGKILL); // Never outlive the workload.
  std::vector<Word> Image; // Empty: time the recovery, compare nothing.
  if (!ImagePath.empty()) {
    std::ifstream F(ImagePath, std::ios::binary | std::ios::ate);
    if (!F)
      return 1;
    Image.resize(size_t(F.tellg()) / sizeof(Word));
    F.seekg(0);
    F.read(reinterpret_cast<char *>(Image.data()),
           std::streamsize(Image.size() * sizeof(Word)));
    if (!F)
      return 1;
  }
  stm::Config C;
  C.DeaEnabled = true;
  stm::ScopedConfig SC(C);
  RecoveryRun R = recoverAndCompare(WC, KC, Image, 1);
  const char *P = reinterpret_cast<const char *>(&R);
  for (size_t Off = 0; Off < sizeof(R);) {
    ssize_t N = ::write(ResultFd, P + Off, sizeof(R) - Off);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return 1;
    Off += size_t(N);
  }
  return 0;
}
