//===- satmbench/Bench.h - Shared plumbing of the SATM benchmark -*- C++ -*-===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Everything the three workloads share: the run options, the op kinds and
/// their latency recorders, the benchmark-side span log, process counters
/// (getrusage, VmHWM), CPU-set helpers and the result emitter. All timing
/// here is taken *outside* the measured layers: around calls into the
/// public kv/net API, never inside them.
///
//===----------------------------------------------------------------------===//

#ifndef SATMBENCH_BENCH_H
#define SATMBENCH_BENCH_H

#include "kv/Checkpoint.h"
#include "kv/Store.h"
#include "kv/Wal.h"
#include "stm/Stats.h"
#include "support/LatencyHistogram.h"

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace satmbench {

using Clock = std::chrono::steady_clock;

/// Monotonic nanoseconds (steady_clock); only differences are meaningful.
inline uint64_t nowNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now().time_since_epoch())
                      .count());
}

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Scratch directory inside the checkout (WAL files, span dump).
  std::string WorkDir = ".bench_build/work";
};

/// Latency histogram for the end-to-end percentiles: log-linear buckets
/// 1/512 wide (relative), with linear interpolation inside the bucket, so
/// a percentile moves smoothly from run to run instead of snapping to the
/// 3% steps of satm::LatencyHistogram.
class FineHistogram {
public:
  void record(uint64_t Ns);
  FineHistogram &operator+=(const FineHistogram &O);
  uint64_t count() const { return Total; }
  /// Interpolated value at \p Percentile (0..100), in ns; 0 when empty.
  double percentile(double Percentile) const;

private:
  static constexpr unsigned SubBits = 9;
  static constexpr unsigned MaxBits = 40; ///< Values clamp at 2^40 ns.
  static unsigned index(uint64_t V);
  static void bounds(unsigned I, double &Lo, double &Width);

  std::vector<uint64_t> Counts;
  uint64_t Total = 0;
};

//===----------------------------------------------------------------------===
// Op kinds and recorders.
//===----------------------------------------------------------------------===

/// One kind per Store entry point the workloads call (the kv.<op> metrics).
enum class OpKind : unsigned {
  NtGet,    ///< Store::get (isolation barriers).
  Put,      ///< Store::put (nt putFast, or a logged txn insert with a WAL).
  TxnMget,  ///< Store::multiGet (eager txn).
  TxnRmw,   ///< Store::rmwAdd (eager txn).
  TxnCas,   ///< Store::cas (eager txn).
  SnapMget, ///< Store::snapshotMultiGet (snapshot plane).
};
inline constexpr unsigned NumOpKinds = 6;
const char *opKindName(OpKind K);

/// Per-thread measurement state, merged after the window.
struct Recorder {
  satm::LatencyHistogram Kind[NumOpKinds];    ///< Around the Store call.
  std::vector<satm::LatencyHistogram> Bucket; ///< Op time per 100 ms bucket.
  std::vector<FineHistogram> Slice;           ///< Op time per SliceNs slice.
  uint64_t Ops = 0, Failed = 0, CheckFailures = 0;

  void merge(const Recorder &O);
  /// Worst p99 over the 100 ms buckets holding at least 100 samples.
  double bucketP99MaxUs() const;
};

//===----------------------------------------------------------------------===
// Spans (traced runs only).
//===----------------------------------------------------------------------===

/// Span names. Each maps to the layer its self time is charged to.
enum class SpanName : unsigned {
  KvNtGet,
  KvPut,
  KvTxnMget,
  KvTxnRmw,
  KvTxnCas,
  KvSnapMget,
  WalFinalDrain,   ///< Wal::stop after the window (final drain + fsync).
  CkptRunOnce,     ///< Checkpointer::runOnce called by the benchmark.
  RecoveryRecover, ///< Wal::recover into a fresh store.
  WireRequest,     ///< One wire request: encode start to response decoded.
  CodecEncode,     ///< net::encodeFrame.
  ClientSend,      ///< net::Client::send.
  CodecDecode,     ///< net::FrameDecoder::next producing the response.
};
inline constexpr unsigned NumSpanNames = 13;
const char *spanNameStr(SpanName N);
/// The layer a span's self time is charged to (the self_ms.<layer> key).
const char *spanLayer(SpanName N);

inline SpanName spanForKind(OpKind K) { return SpanName(unsigned(K)); }

/// One recorded span. Spans of one request share Id; Parent is the
/// enclosing span's name, or -1 for a root.
struct SpanRec {
  uint64_t Id;
  uint64_t Start, End;
  int32_t Parent;
  uint32_t Name;
};

/// A single thread's span log. Self time is aggregated for every span;
/// the span records themselves are kept for one request in SampleEvery
/// (up to a cap) and written out when the run ends.
class SpanLog {
public:
  static constexpr uint64_t SampleEvery = 64;
  static constexpr size_t MaxRecords = 1u << 18;

  struct Child {
    SpanName Name;
    uint64_t Start, End;
  };

  /// Records a root span and its (non-overlapping) children.
  void request(uint64_t Id, SpanName Root, uint64_t Start, uint64_t End,
               const Child *Children = nullptr, unsigned NumChildren = 0);

  void merge(const SpanLog &O);

  /// Summed self time of every span charged to \p Layer, in ms.
  double layerSelfMs(const std::string &Layer) const;

  /// Writes the retained records, one tab-separated line each.
  bool write(const std::string &Path) const;

private:
  uint64_t SelfNs[NumSpanNames] = {};
  std::vector<SpanRec> Records;
};

//===----------------------------------------------------------------------===
// Process counters and CPU sets.
//===----------------------------------------------------------------------===

struct Usage {
  double UserS = 0, SysS = 0;
  uint64_t InvolCtx = 0; ///< ru_nivcsw.
};
Usage readUsage();
/// VmHWM of this process in MB (peak resident set).
double peakRssMb();

/// CPUs this process may run on, ascending.
std::vector<int> allowedCpus();
/// Restricts the calling thread (and the threads it spawns) to \p Cpus.
bool pinTo(const std::vector<int> &Cpus);
std::string cpuListStr(const std::vector<int> &Cpus);

/// Median of \p V (V is copied and sorted); 0 when empty.
double median(std::vector<double> V);

/// Inserts keys [0, \p N) with tagged baseline values from \p Threads
/// threads, each owning the shards s with s % Threads == t so the inserting
/// transactions never conflict. One thread gives the same heap layout on
/// every run. Returns false if a shard filled up.
bool prepopulate(satm::kv::Store &S, uint64_t N, unsigned Threads);

//===----------------------------------------------------------------------===
// Result.
//===----------------------------------------------------------------------===

/// Everything one workload run reports. run.py picks the end-to-end or the
/// per-layer subset from Metrics and adds the host stamp.
struct Result {
  bool Correct = true;
  uint64_t Attempted = 0, Failed = 0;
  std::vector<std::string> CheckErrors;
  struct Metric {
    std::string Name, Unit;
    double Value;
  };
  std::vector<Metric> Metrics;
  /// Free-form run facts (sample counts, thread counts, CPU sets, ...).
  std::vector<std::pair<std::string, std::string>> Info;

  void add(const std::string &Name, double Value, const char *Unit) {
    Metrics.push_back({Name, Unit, Value});
  }
  void info(const std::string &Key, const std::string &Val) {
    Info.emplace_back(Key, Val);
  }
  void fail(const std::string &Why) {
    Correct = false;
    CheckErrors.push_back(Why);
  }
  /// The one-line JSON object the runner parses.
  std::string json() const;
};

/// Adds the stm.* per-layer metrics from a counter delta.
void addStmMetrics(Result &R, const satm::stm::StatsCounters &C);

/// Adds the wal.* metrics: window deltas of \p Before/\p After, and
/// write amplification over the whole run (\p Final is read after the
/// final drain; \p UserBytes counts 16 bytes per key a committed
/// mutation wrote since the log was attached). All zero without a log.
void addWalMetrics(Result &R, const satm::kv::WalStats &Before,
                   const satm::kv::WalStats &After,
                   const satm::kv::WalStats &Final, uint64_t UserBytes);

/// Adds ckpt.* (a checkpointer counter delta) and recovery.* metrics.
void addCkptRecoveryMetrics(Result &R, const satm::kv::CheckpointStats &Ckpt,
                            const satm::kv::RecoveryStats &Rec);

/// Wire-side measurements (zero on the in-process workloads).
struct NetMeasure {
  double BatchAvg = 0, MaxQueueDepth = 0, Shed = 0, BadFrames = 0;
  double EncodeNs = 0, DecodeNs = 0, SendCallP99Ns = 0;
  double LateP99Us = 0, InflightMax = 0;
};
void addNetMetrics(Result &R, const NetMeasure &N);

/// Adds proc.* from a getrusage delta over \p Ops completed operations.
void addProcMetrics(Result &R, const Usage &Before, const Usage &After,
                    uint64_t Ops);

/// Adds the kv.* per-layer metrics from merged recorders (zeros for op
/// kinds the workload does not issue) and kv.bucket_p99_max_us.
void addKvMetrics(Result &R, const Recorder &Rec, double BucketP99MaxUs);

/// Adds the trace.* event counts drained from the SATM_TRACE rings.
void addTraceEventMetrics(Result &R);

/// Adds self_ms.<layer> for every layer.
void addSelfTimeMetrics(Result &R, const SpanLog &Spans);

/// Length of the slices the end-to-end figures are taken over.
inline constexpr uint64_t SliceNs = 500'000'000;
/// Width of the kv.bucket_p99_max_us buckets.
inline constexpr uint64_t BucketNs = 100'000'000;

/// Number of whole \p Len-long slices in a window of \p Seconds (at least
/// 1).
size_t numSlices(double Seconds, uint64_t Len);

/// Worst p99 in us over \p Slices holding at least 100 samples.
double maxSliceP99Us(const std::vector<FineHistogram> &Slices);

/// Adds throughput_ops_s (when \p WithRate), p50_us and p99_us as the
/// medians over the window's slices of each slice's figure, so a burst of
/// interference from outside the benchmark moves one slice, not the
/// result. The latency medians skip slices holding fewer than 100 samples
/// (a stall can leave a slice empty); the rate counts every slice.
/// Whole-window figures and sample counts go to Info.
void addSliceMetrics(Result &R, const std::vector<FineHistogram> &Slices,
                     double SliceS, bool WithRate);

/// Fixed-format double for Info values.
std::string fmt(double V);
/// Comma-separated fmt() of every value.
std::string fmtList(const std::vector<double> &V);

//===----------------------------------------------------------------------===
// After the window.
//===----------------------------------------------------------------------===

/// Log records written after the final checkpoint, so every workload's
/// recovery replays a suffix of the same length whatever its throughput.
inline constexpr uint64_t SuffixRecords = 300000;

struct FinalState {
  double CkptS = 0;  ///< Checkpointer::runOnce of the first final checkpoint.
  double DrainS = 0; ///< Wal::stop: final drain and fsync.
  std::string Error;
};

/// Brings the log to the state recovery reads, identical in shape on every
/// workload: a checkpoint of the whole store, then SuffixRecords puts to
/// keys drawn from \p Seed over [0, \p Keys), then the final drain. \p W
/// must be started and attached to \p S, and nothing else may run against
/// the store. Leaves the snapshot plane off and \p W stopped and detached.
FinalState writeFinalState(satm::kv::Store &S, satm::kv::Wal &W,
                           uint64_t Keys, uint64_t Seed);

/// Outcome of recovering one log several times. Trivially copyable: the
/// recovering process hands it back over a pipe.
struct RecoveryRun {
  static constexpr unsigned MaxReps = 9;
  unsigned Reps = 0;
  double Seconds[MaxReps] = {}; ///< Wal::recover time of each repetition.
  satm::kv::RecoveryStats First;
  uint64_t Mismatched = 0, FirstBad = 0, ApplyFailures = 0;
  bool Ran = false; ///< False when the recovering process failed.

  std::vector<double> seconds() const {
    return std::vector<double>(Seconds, Seconds + Reps);
  }
};

/// Recovers the log in \p WC into \p Reps fresh, empty stores, timing
/// Wal::recover, and compares each recovered store with \p Image (the
/// live store read key by key); an empty \p Image skips the comparison.
RecoveryRun recoverAndCompare(const satm::kv::Wal::Config &WC,
                              const satm::kv::StoreConfig &KC,
                              const std::vector<satm::kv::Word> &Image,
                              unsigned Reps);

/// recoverAndCompare with each repetition in a freshly exec'd copy of this
/// program, as a restart would run it: the recovering process's heap holds
/// nothing of the run or of earlier repetitions. The first repetition
/// compares its store with \p Image, which travels through a file in
/// \p WorkDir; the later ones replay the same files and are only timed.
/// The recovering process runs on \p Cpus (empty: the caller's CPUs).
RecoveryRun recoverInFreshProcess(const satm::kv::Wal::Config &WC,
                                  const satm::kv::StoreConfig &KC,
                                  const std::vector<satm::kv::Word> &Image,
                                  unsigned Reps, const std::string &WorkDir,
                                  const std::vector<int> &Cpus = {});

/// The --recover mode of the binary: the other end of
/// recoverInFreshProcess. Returns the process exit status.
int recoverMain(const satm::kv::Wal::Config &WC,
                const satm::kv::StoreConfig &KC, const std::string &ImagePath,
                int ResultFd);

// Workload entry points.
Result runKvDurableMix(const Options &O);
Result runKvNtBigset(const Options &O);
Result runWireZipf(const Options &O);

} // namespace satmbench

#endif // SATMBENCH_BENCH_H
