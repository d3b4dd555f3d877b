//===- stm/Stats.h - Runtime event counters and tracing --------*- C++ -*-===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Low-overhead observability for the STM runtime and the isolation
/// barriers, in two tiers:
///
///  - Counters: per-thread blocks of relaxed-atomic event counts, including
///    a histogram of abort reasons (AbortReason). The hot path is one
///    relaxed load+store of an inline thread_local block — the barriers are
///    the instruction sequences Figures 15-17 time, so the accounting must
///    be nearly free. Blocks of exited threads are folded into a global
///    accumulator by a thread_local destructor; statsSnapshot() sums the
///    accumulator and the live blocks. statsReset() never writes another
///    thread's block: it rebases each block against a per-block baseline,
///    so resetting concurrently with running workers is race-free.
///
///  - Tracing: when SATM_TRACE is set (or setTraceEnabled(true) is called),
///    begin/commit/abort(reason)/barrier-conflict/quiesce-wait events are
///    recorded into per-thread lock-free rings (support/EventRing.h) with a
///    cheap timestamp. With tracing off, every traceEvent() site costs one
///    predicted-not-taken branch on an inline global — cheap enough for the
///    Figure 15-17 sequences.
///
//===----------------------------------------------------------------------===//

#ifndef SATM_STM_STATS_H
#define SATM_STM_STATS_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

namespace satm {
namespace stm {

//===----------------------------------------------------------------------===
// Abort-reason taxonomy.
//===----------------------------------------------------------------------===

/// Why a transaction rolled back. Carried by RollbackSignal and accumulated
/// as a histogram next to the event counters, so a workload can say not
/// just *that* it aborts but *what kills it* — the breakdown behind the
/// paper's Figure 15-20 "where did the cycles go" arguments.
enum class AbortReason : uint8_t {
  /// Read-set validation failed (periodic, at commit, or the lazy STM's
  /// commit-time phase 2): a committed writer invalidated an optimistic
  /// read.
  ReadValidation = 0,
  /// The contention policy decided against waiting for a record owned by
  /// another transaction (Timid's immediate abort, Timestamp's
  /// younger-yields rule).
  WriteLockConflict,
  /// A transactional read gave up on a record held Exclusive-anonymous by
  /// a non-transactional writer (Figure 9/10 write barrier hold).
  NtReadKill,
  /// A transactional write (or lazy commit-time acquire) gave up on an
  /// Exclusive-anonymous hold.
  NtWriteKill,
  /// An open-nested (aggregated) scope failed its commit validation and
  /// restarted the whole transaction conservatively.
  AggregatedScope,
  /// txn_retry(): user-requested wait-for-change re-execution.
  UserRetry,
  /// txn_abort(), or a foreign exception unwinding the region body (the
  /// user code terminated the region).
  UserAbort,
  /// The contention manager exhausted its pause budget against another
  /// transaction (2PL deadlock avoidance) or a forced abortRestart().
  ContentionGiveUp,
  /// The deterministic fault injector (support/FaultInjector.h) fired a
  /// spurious abort at a txn_open/txn_commit site. Kept distinct from the
  /// organic reasons so robustness runs can separate injected churn from
  /// real contention.
  FaultInjected,
};

inline constexpr unsigned NumAbortReasons = 9;

/// Display name (matches the enumerator).
const char *abortReasonName(AbortReason R);

/// Stable snake_case key used in JSON output.
const char *abortReasonKey(AbortReason R);

//===----------------------------------------------------------------------===
// Counters.
//===----------------------------------------------------------------------===

/// X-macro over the scalar counter fields: X(FieldName, "json_key").
/// Keeps the snapshot type, the relaxed-atomic TLS type, the fold
/// operators and the Report renderers in sync from one list.
#define SATM_STATS_COUNTERS(X)                                                 \
  X(TxnCommits, "txn_commits")                                                 \
  X(TxnAborts, "txn_aborts")                                                   \
  X(TxnUserRetries, "txn_user_retries")                                        \
  X(TxnReads, "txn_reads")                                                     \
  X(TxnWrites, "txn_writes")                                                   \
  X(NtReadBarriers, "nt_read_barriers")                                        \
  X(NtWriteBarriers, "nt_write_barriers")                                      \
  X(NtReadConflicts, "nt_read_conflicts")                                      \
  X(NtWriteConflicts, "nt_write_conflicts")                                    \
  X(PrivateFastPaths, "private_fast_paths")                                    \
  X(ObjectsPublished, "objects_published")                                     \
  X(AggregatedBarriers, "aggregated_barriers")                                 \
  X(QuiesceWaits, "quiesce_waits")                                             \
  X(SerialModeEntries, "serial_mode_entries")                                  \
  X(SnapshotTxns, "snapshot_txns")                                             \
  X(SnapshotReads, "snapshot_reads")                                           \
  X(SnapshotPublishes, "snapshot_publishes")                                   \
  X(SnapshotNodesFreed, "snapshot_nodes_freed")                               \
  X(PublishSessionWaits, "publish_session_waits")                             \
  X(PublishRingWaits, "publish_ring_waits")

/// Single-writer counter cell: incremented only by the owning thread, read
/// by snapshotters. Relaxed load+store (not an atomic RMW) keeps the hot
/// path free of lock-prefixed instructions while staying race-free under
/// TSan.
class RelaxedCounter {
public:
  void operator++(int) { add(1); }
  RelaxedCounter &operator+=(uint64_t N) {
    add(N);
    return *this;
  }
  uint64_t load() const { return V.load(std::memory_order_relaxed); }

private:
  void add(uint64_t N) {
    V.store(V.load(std::memory_order_relaxed) + N,
            std::memory_order_relaxed);
  }
  std::atomic<uint64_t> V{0};
};

/// Counter block over any cell type: uint64_t for snapshots, RelaxedCounter
/// for the live thread-local blocks. All fields are cumulative event
/// counts; AbortReasons is indexed by AbortReason.
template <typename CellTy> struct StatsCountersT {
#define SATM_STATS_FIELD(Name, Key) CellTy Name{};
  SATM_STATS_COUNTERS(SATM_STATS_FIELD)
#undef SATM_STATS_FIELD
  CellTy AbortReasons[NumAbortReasons] = {};
};

/// Plain snapshot of one or more threads' counters.
struct StatsCounters : StatsCountersT<uint64_t> {
  StatsCounters &operator+=(const StatsCounters &O) {
#define SATM_STATS_FIELD(Name, Key) Name += O.Name;
    SATM_STATS_COUNTERS(SATM_STATS_FIELD)
#undef SATM_STATS_FIELD
    for (unsigned I = 0; I < NumAbortReasons; ++I)
      AbortReasons[I] += O.AbortReasons[I];
    return *this;
  }
  StatsCounters &operator-=(const StatsCounters &O) {
#define SATM_STATS_FIELD(Name, Key) Name -= O.Name;
    SATM_STATS_COUNTERS(SATM_STATS_FIELD)
#undef SATM_STATS_FIELD
    for (unsigned I = 0; I < NumAbortReasons; ++I)
      AbortReasons[I] -= O.AbortReasons[I];
    return *this;
  }
};

namespace detail {

using TlsCounters = StatsCountersT<RelaxedCounter>;

/// Relaxed-load snapshot of a live block's cells.
inline StatsCounters readCounters(const TlsCounters &C) {
  StatsCounters S;
#define SATM_STATS_FIELD(Name, Key) S.Name = C.Name.load();
  SATM_STATS_COUNTERS(SATM_STATS_FIELD)
#undef SATM_STATS_FIELD
  for (unsigned I = 0; I < NumAbortReasons; ++I)
    S.AbortReasons[I] = C.AbortReasons[I].load();
  return S;
}

/// Thread-local counter block with registration lifecycle. Registration
/// (cold) happens on first use; the destructor folds the block (minus its
/// reset baseline) into the global accumulator and unregisters.
///
/// Cache-line aligned: the barriers bump these counters on every access,
/// so a block straddling a line with another thread's TLS data would put
/// false sharing directly on the Figure 15-17 instruction sequences.
struct alignas(64) TlsStatsBlock {
  TlsCounters Counters;
  /// Value of Counters at the last statsReset(); only accessed under the
  /// registry mutex. statsSnapshot() reports Counters - Baseline, which is
  /// how a reset "zeroes" a block it must not write.
  StatsCounters Baseline;
  bool Registered = false;
  ~TlsStatsBlock();
};

inline thread_local TlsStatsBlock TlsStats;

/// Out-of-line cold path: registers this thread's block.
void registerStatsBlock(TlsStatsBlock &Block);

} // namespace detail

/// The calling thread's counter block (hot path: one branch + TLS access).
inline detail::TlsCounters &statsForThisThread() {
  detail::TlsStatsBlock &Block = detail::TlsStats;
  if (!Block.Registered)
    detail::registerStatsBlock(Block);
  return Block.Counters;
}

/// Sums exited threads' accumulated counters and all live threads' blocks
/// (relaxed snapshot, exact once worker threads have joined).
StatsCounters statsSnapshot();

/// Logically zeroes all counters: clears the retired accumulator and
/// rebases every live block on its current value. Never stores to another
/// thread's cells, so it is safe to call while workers are running (their
/// in-flight increments land after the new baseline).
void statsReset();

//===----------------------------------------------------------------------===
// Event tracing (SATM_TRACE).
//===----------------------------------------------------------------------===

/// What a trace event records.
enum class TraceKind : uint8_t {
  TxnBegin,        ///< A top-level transaction attempt started.
  TxnCommit,       ///< A transaction committed.
  TxnAbort,        ///< A transaction rolled back; Arg is the AbortReason.
  BarrierConflict, ///< A non-transactional barrier hit a conflict; Arg is
                   ///< the BarrierSite.
  QuiesceWait,     ///< A committer waited for quiescence (§3.4).
  SerialEnter,     ///< The contention manager escalated a transaction to
                   ///< serial-irrevocable mode (gate held, system drained).
  SerialExit,      ///< The serial-irrevocable transaction committed and
                   ///< released the gate.
  FaultFired,      ///< The fault injector fired; Arg is the FaultSite.
  SnapshotBegin,   ///< A snapshot transaction pinned the stable epoch.
  SnapshotEnd,     ///< A snapshot transaction finished (read-only commit).
  SnapshotPublish, ///< A committer published version records; Arg is the
                   ///< number of objects published (saturated at 255).
  PublishSessionWait, ///< A snapshot begin waited for the stable frontier
                      ///< to cover its own thread's commits.
  PublishRingWait,    ///< A committer waited out a done-ring wrap (a ticket
                      ///< DoneRingSize older was still running).
};

/// Which barrier recorded a BarrierConflict event.
enum class BarrierSite : uint8_t {
  NtRead,         ///< Figure 9/10 read barrier.
  NtReadOrdering, ///< §3.3 ordering-only read barrier.
  NtWrite,        ///< Figure 9/10 write barrier.
  AggWrite,       ///< §6 AggregatedWriter scope entry.
  AggRead,        ///< §6 aggregatedRead validation retry.
};

const char *traceKindName(TraceKind K);
const char *barrierSiteName(BarrierSite S);

namespace detail {

/// Whether event recording is active. Seeded once from the SATM_TRACE
/// environment variable; flip with setTraceEnabled().
extern bool TraceOn;

/// Cold path: appends to (registering on first use) the calling thread's
/// ring.
void traceRecord(TraceKind K, uint8_t Arg);

} // namespace detail

/// True while trace recording is enabled.
inline bool traceEnabled() { return detail::TraceOn; }

/// Records an event into the calling thread's ring. With tracing disabled
/// this is a single predicted-not-taken branch on an inline global — the
/// whole cost added to the Figure 15-17 sequences.
inline void traceEvent(TraceKind K, uint8_t Arg = 0) {
  if (traceEnabled())
    detail::traceRecord(K, Arg);
}

/// Cheap per-event timestamp: the TSC on x86-64 (cycles, constant-rate on
/// every CPU this project targets), steady_clock ticks elsewhere. Only
/// deltas within one run are meaningful.
inline uint64_t traceTimestamp() {
#if defined(__x86_64__)
  return __builtin_ia32_rdtsc();
#else
  return uint64_t(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

/// One drained trace event (see traceDrain()).
struct TraceEntry {
  uint64_t Time;     ///< traceTimestamp() at record time.
  uint32_t ThreadId; ///< Dense id assigned at the thread's first event.
  TraceKind Kind;
  uint8_t Arg; ///< AbortReason or BarrierSite payload, else 0.
};

/// Enables/disables recording. Call while no thread is inside the STM.
void setTraceEnabled(bool On);

/// Clears every thread's ring (same quiescence caveat as above).
void traceReset();

/// Merges all rings (including those of exited threads), ordered by
/// timestamp.
std::vector<TraceEntry> traceDrain();

/// Events overwritten before they could be drained, summed over all rings.
uint64_t traceDropped();

/// Occupancy of one thread's trace ring — the per-ring view behind
/// traceDropped(). Under overload a hot thread can overwrite its own ring
/// long before the aggregate drop counter looks alarming, so reports
/// surface these per ring instead of only in sum.
struct TraceRingStats {
  uint32_t ThreadId; ///< Dense id, same as TraceEntry::ThreadId.
  uint64_t Written;  ///< Events ever pushed to this ring.
  uint64_t Dropped;  ///< Events overwritten before draining.
  uint64_t HighWater; ///< Max events resident at once (≤ capacity).
  uint64_t Capacity; ///< Ring slots.
};

/// Snapshot of the occupancy counters of every ring currently bound to a
/// live thread. Exited threads' events are preserved in the registry's
/// bounded retired buffer (see TraceRegistryStats) and their rings recycled.
std::vector<TraceRingStats> traceRingStats();

/// Registry-level view behind ring recycling. A thread's ring used to be
/// kept alive forever so post-join reports still saw its events — which
/// made the registry grow without bound under thread churn. Instead, a
/// thread-exit destructor drains the ring into a bounded retired-events
/// buffer and pushes the ring onto a free list for the next thread, so
/// ring count tracks *peak concurrency*, not cumulative churn.
struct TraceRegistryStats {
  uint64_t LiveRings;      ///< Rings currently bound to a running thread.
  uint64_t FreeRings;      ///< Recycled rings awaiting a new thread.
  uint64_t RetiredEvents;  ///< Exited threads' events held for draining.
  uint64_t RetiredWritten; ///< Events ever written by exited threads.
  uint64_t RetiredDropped; ///< Exited threads' events lost (ring overwrite
                           ///< before exit, or retired-buffer cap).
};

/// Current registry occupancy (see TraceRegistryStats). The memory-flatness
/// tests assert LiveRings + FreeRings stays bounded by peak concurrency
/// across thread churn far exceeding it.
TraceRegistryStats traceRegistryStats();

//===----------------------------------------------------------------------===
// Abort accounting helpers (counters + histogram + trace in one place).
//===----------------------------------------------------------------------===

/// Bumps the abort-reason histogram and records a trace event. Like
/// TxnCommits/TxnAborts, never gated by Config::CollectStats: reasons must
/// survive the barrier benchmarks, which time with stats collection off.
inline void noteAbortReason(AbortReason R) {
  statsForThisThread().AbortReasons[unsigned(R)]++;
  traceEvent(TraceKind::TxnAbort, uint8_t(R));
}

/// Accounts one full transaction abort: TxnAborts plus the histogram.
inline void noteTxnAbort(AbortReason R) {
  statsForThisThread().TxnAborts++;
  noteAbortReason(R);
}

/// Accounts one user retry: TxnUserRetries plus the histogram.
inline void noteUserRetry() {
  statsForThisThread().TxnUserRetries++;
  noteAbortReason(AbortReason::UserRetry);
}

} // namespace stm
} // namespace satm

#endif // SATM_STM_STATS_H
