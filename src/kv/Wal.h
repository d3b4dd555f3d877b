//===- kv/Wal.h - SATM-KV durability plane: segmented redo log -*- C++ -*-===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The SATM-KV durability plane: one append-only redo log in commit
/// order, cut into segment files, with group commit, one fsync per drain
/// cycle, and crash recovery by a single sequential scan (DESIGN.md §12).
///
/// Ordering. Every logging commit takes a publish ticket, and its redo
/// records carry LSN = BaseLsn + ticket, so log order is the snapshot
/// plane's commit order by construction — no log-side CAS, no sequencer.
/// Commits complete out of order (Quiesce.h), so records are not written
/// where they will finally sit: each committer appends to its *own*
/// in-memory log, indexed by its Quiescence slot (single producer, single
/// consumer, no multi-producer races). The one drain thread reads the
/// stable frontier, then the log heads, and merges every log's prefix at
/// or below the frontier's LSN in (Lsn, Index) order into one write to
/// the open segment; records above it stay in their log. Every ticket at
/// or below the frontier marked itself done after its last append, so the
/// merged prefix is complete and gap-free: the log stays (Lsn, Index)-
/// monotone, exactly what recovery's scan demands. The hand-off is
/// privatization-shaped (a record passes from the transactional world to
/// an I/O thread); the release store that bumps a log head is the only
/// barrier it needs, because the drainer never touches STM state.
///
/// Deadlock freedom. An append waits only when its log is full, i.e. on
/// the drainer, and the drainer only ever waits for the frontier, i.e. on
/// the holder of the lowest undone ticket. That committer's earlier
/// records are all at or below the frontier, and the drainer also takes
/// the records of the ticket just past it, so its log always drains — even
/// for a group larger than the whole log — and it completes.
///
/// Segments. The log is a sequence of files wal-<first LSN>.log, the
/// first LSN zero-padded so name order is log order. The drainer starts a
/// segment at its first write after start() or rollSegment(), naming it
/// by the first record it holds, and makes the directory entry durable
/// before writing (a failure seals the log, see below). A roll lands
/// between drain cycles, and a cycle may have taken only part of the
/// group just past its cut, so a group can straddle two segments; a
/// segment's records are therefore all at or below the next segment's
/// name. The checkpointer rolls just before it pins its epoch, so the
/// segments before the roll hold nothing newer than the checkpoint, and
/// truncateBelow() deletes whole segments. Rolls and truncations run on
/// the drain thread between cycles, which owns every segment fd.
///
/// Record format: 40 bytes, five host-endian words —
///   [0] Lsn       log sequence number = BaseLsn + publish ticket; all
///                 records of one transaction share it
///   [1] Meta      op (low 8 bits) | index-within-txn (bits 8..31)
///                 | txn span (bits 32..63)
///   [2] Key
///   [3] Val       (ignored for Erase)
///   [4] Check     seeded SplitMix-style mix of words 0..3
///
/// Recovery replays the *maximal durable prefix of the commit order*. One
/// scan reads the segments in name order and stops at the first record
/// that fails its checksum or the (Lsn, Index) order (never replaying
/// it), at an LSN hole, or at a group whose members are not exactly
/// indices 0..span-1; a group the stop or the end of the log leaves open
/// is dropped whole. Logged LSNs are contiguous by construction — every
/// logging commit takes the next publish ticket, and start() derives
/// BaseLsn from the live ticket counter so the first logged record
/// continues the on-disk history at exactly its cut + 1, no matter how
/// many tickets recovery replay or pre-attach traffic consumed — so a
/// hole is a lost group (a lost segment), and the first LSN must be 2.
/// The repair truncates the segment that holds the cut and deletes every
/// later one, then fsyncs the file and the directory, so a later run
/// cannot resurrect the rejected suffix even across power loss.
///
/// Checkpoints (kv/Checkpoint.h; DESIGN.md §14) bound both halves of
/// that story. recover() first loads the newest *valid* checkpoint in
/// the directory (falling back to the previous one, then to empty, on
/// corruption) and replays only records with LSN above the checkpoint's
/// barrier; contiguity is then demanded from barrier + 1, not from 2.
///
/// Degraded mode. A failed segment create, write or fsync (real
/// ENOSPC/EIO, or the injected log_enospc site) does not abort the
/// process: the WAL seals — DurableLsn freezes at the last honestly-
/// fsynced cut, later log contents are consumed and discarded (counted in
/// WalStats::DroppedRecords), and every waitDurable call for an LSN
/// beyond the frozen cut returns DurableWait::DurabilityLost instead of
/// blocking. Reads and async traffic keep flowing; only the sync-ack
/// promise is withdrawn, and visibly so.
///
//===----------------------------------------------------------------------===//

#ifndef SATM_KV_WAL_H
#define SATM_KV_WAL_H

#include "stm/Txn.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace satm {
namespace kv {

class Store;
using stm::Word;

/// Service-level durability modes (kv_service --durability=...). The Wal
/// itself is mode-agnostic — Off means no Wal is attached at all, and
/// Sync vs Async is whether the caller waits on waitDurable before
/// acking. Kept here so the flag, the bench schema, and the tests share
/// one spelling.
enum class DurabilityMode : uint8_t { Off = 0, Async, Sync };

/// Display key ("off" / "async" / "sync").
const char *durabilityModeName(DurabilityMode M);

/// Parses a --durability value; returns false on unknown spelling.
bool parseDurabilityMode(const char *S, DurabilityMode &Out);

/// fsync(2)s directory \p Dir, making the entries created, renamed or
/// removed in it durable. False (errno set) if it cannot be opened or
/// synced.
bool fsyncDir(const std::string &Dir);

/// Path of the file \p Prefix + N + \p Suffix inside \p Dir, N zero-padded
/// to 20 digits so name order is numeric order (log segments and
/// checkpoints are named this way).
std::string numberedFile(const std::string &Dir, const char *Prefix,
                         uint64_t N, const char *Suffix);

/// The numbers N of the numberedFile names in \p Dir, ascending.
std::vector<uint64_t> listNumberedFiles(const std::string &Dir,
                                        const char *Prefix,
                                        const char *Suffix);

/// Redo operations. Values are stable on-disk format.
enum class WalOp : uint8_t { Put = 1, Erase = 2 };

/// One on-disk redo record (host-endian, fixed 40 bytes).
struct WalRecord {
  uint64_t Lsn;
  uint64_t Meta; ///< op | index<<8 | span<<32 (see file comment).
  uint64_t Key;
  uint64_t Val;
  uint64_t Check;

  static uint64_t packMeta(WalOp Op, uint32_t Index, uint32_t Span) {
    return uint64_t(Op) | (uint64_t(Index & 0xffffffu) << 8) |
           (uint64_t(Span) << 32);
  }
  WalOp op() const { return WalOp(Meta & 0xff); }
  uint32_t index() const { return uint32_t((Meta >> 8) & 0xffffffu); }
  uint32_t span() const { return uint32_t(Meta >> 32); }

  /// Seeded mix of words 0..3 so an all-zero record does not checksum to
  /// zero (a zero-filled tail must read as torn).
  uint64_t checksum() const;
};
static_assert(sizeof(WalRecord) == 40, "on-disk record is 5 words");

/// Drain-side counters (monotone since start()).
struct WalStats {
  uint64_t RecordsAppended = 0; ///< Log appends (commit side).
  uint64_t RingStalls = 0;      ///< Appends that waited on a full log.
  uint64_t FsyncBatches = 0;    ///< Drain cycles that reached fsync.
  uint64_t RecordsWritten = 0;  ///< Records handed to write(2).
  uint64_t BytesWritten = 0;
  uint64_t DroppedRecords = 0;  ///< Records discarded while degraded.
  bool Degraded = false;        ///< WAL sealed by an I/O failure.
};

/// Outcome of a waitDurable call.
enum class DurableWait : uint8_t {
  Ok = 0,           ///< The LSN is fsynced.
  DeadlineExceeded, ///< The deadline passed first (durability unknown yet).
  DurabilityLost,   ///< The WAL is degraded and will never reach the LSN.
};

/// Outcome of Wal::recover.
struct RecoveryStats {
  uint64_t RecordsScanned = 0;  ///< Valid records read before the cut.
  uint64_t RecordsReplayed = 0; ///< Records applied (<= scanned: group cut).
  uint64_t TxnsReplayed = 0;    ///< Complete LSN groups applied.
  uint64_t TornRecords = 0;     ///< Torn or corrupt records (0 or 1).
  uint64_t TruncatedBytes = 0;  ///< Bytes removed from segments (torn + cut).
  uint64_t ApplyFailures = 0;   ///< Replay ops the store rejected (0 = clean).
  uint64_t CutLsn = 0;          ///< Highest LSN recovered (= new base).
  uint64_t CheckpointLsn = 0;   ///< Barrier of the checkpoint loaded (0: none).
  uint64_t CheckpointEntries = 0;   ///< (key,value) pairs applied from it.
  uint64_t CheckpointsDiscarded = 0; ///< Newer-but-invalid checkpoints skipped.
  bool ReclaimIdentityOk = true; ///< reclaimStats() identities held after.
  double Millis = 0;            ///< Wall time of scan + replay + repair.
};

/// Write-ahead redo log. Lifecycle: construct over a directory,
/// optionally recover() into a Store, start() the drain thread, attach
/// to the Store (Store::attachWal) so committing transactions register
/// publish-window appends, stop() before teardown.
class Wal {
public:
  struct Config {
    std::string Dir;            ///< Log directory (created if absent).
    /// Ignored: the log is one stream whatever the store's shard count.
    /// Kept only because existing callers still assign it.
    uint32_t Shards = 16;
    /// Per-committer log capacity in records (power of two). A log must
    /// cover one drain cycle of its committer's appends (one write and
    /// one fsync); a log holds 32-byte entries and exists only for
    /// threads that have logged.
    uint32_t RingSlots = 16384;
    uint32_t FlushIntervalUs = 1000; ///< Group-commit window (idle bound).
  };

  explicit Wal(const Config &C);
  ~Wal(); // Stops (final drain + fsync) if still running.

  Wal(const Wal &) = delete;
  Wal &operator=(const Wal &) = delete;

  /// Scans the segments, cuts the log at its first torn record, LSN hole
  /// or incomplete group, and replays the maximal complete prefix of the
  /// commit order into \p S, one thread per group of store shards (plain
  /// transactional insert/erase — call before attaching the Wal, so
  /// replay is not re-logged). Repairs the directory to the cut. Verifies
  /// the Store::reclaimStats identities afterward. Must run before
  /// start(); records the cut so start() re-bases post-recovery appends
  /// at exactly cut + 1.
  RecoveryStats recover(Store &S);

  /// Spawns the drain thread. append() may be called only between
  /// start() and stop().
  void start();

  /// Waits for every ticket issued so far to complete, drains every log,
  /// flushes, and joins the drain thread. Idempotent.
  void stop();

  /// Commit-side append to the calling thread's log, called inside the
  /// publish window (after the ticket, before its done mark). The
  /// transaction's durable LSN is BaseLsn + Ticket; the drainer writes
  /// it as durable only once the stable frontier covers the ticket, i.e.
  /// after its last record is in the log, so a group is never fsync-acked
  /// half-appended. Spins (bounded by drainer progress) when the log is
  /// full.
  void append(WalOp Op, Word Key, Word Val, uint64_t Ticket, uint32_t Index,
              uint32_t Count);

  /// Txn::PublishEntry trampoline: Ctx is the Wal, A is the op, B the
  /// key, C the value.
  static void publishHook(void *Ctx, uint64_t Ticket, uint32_t Index,
                          uint32_t Count, Word A, Word B, Word C);

  /// Blocks until every record with LSN <= \p Lsn is fsynced (the sync
  /// ack point). Kicks the drainer, so the wait is one group-commit
  /// cycle, not a flush-interval sleep. Returns DurabilityLost without
  /// further blocking once the WAL is degraded and the LSN is beyond
  /// the frozen durable cut.
  DurableWait waitDurable(uint64_t Lsn);

  /// Deadline variant: additionally gives up with DeadlineExceeded when
  /// \p Deadline passes first — a wedged or dying disk must not block a
  /// sync-mode network worker forever. DeadlineExceeded makes no claim
  /// either way about the record's eventual durability.
  DurableWait waitDurable(uint64_t Lsn,
                          std::chrono::steady_clock::time_point Deadline);

  /// Highest LSN known durable.
  uint64_t durableLsn() const {
    return DurableLsn.load(std::memory_order_acquire);
  }

  /// True once an I/O failure sealed the log (see file comment).
  bool degraded() const {
    return DegradedFlag.load(std::memory_order_acquire);
  }

  /// The LSN a given publish ticket logs (or logged) at: BaseLsn +
  /// ticket. Valid between start() and stop(). The checkpointer uses it
  /// to turn a pinned snapshot epoch into the checkpoint barrier LSN —
  /// exact because a snapshot pinned at epoch E sees precisely the
  /// commits with ticket <= E, i.e. the records with LSN <= lsnOfTicket(E).
  uint64_t lsnOfTicket(uint64_t Ticket) const { return BaseLsn + Ticket; }

  /// Closes the open segment, so the next record drained starts a new
  /// one. Runs on the drain thread after a drain cycle and returns once
  /// it has; the checkpointer calls it just before pinning its epoch.
  /// Callable between start() and stop().
  void rollSegment();

  /// Log compaction: deletes, oldest first, every closed segment whose
  /// records all lie at or below \p Barrier. Runs on the drain thread
  /// between cycles; callable between start() and stop(). Requires the
  /// barrier to be durable already — if DurableLsn < Barrier or the log
  /// is degraded, nothing is deleted and 0 is returned. Returns bytes
  /// removed.
  uint64_t truncateBelow(uint64_t Barrier);

  /// Log directory (checkpoint files live alongside the segments).
  const std::string &dir() const { return Cfg.Dir; }

  /// The LSN of the last append *this thread* performed (0 if none) —
  /// what a worker passes to waitDurable to ack its own write. Process-
  /// wide thread-local, deliberately: a thread talks to one Wal.
  static uint64_t lastAppendedLsn();

  WalStats stats() const;

  /// Path of the segment whose first record has LSN \p FirstLsn.
  static std::string segmentFile(const std::string &Dir, uint64_t FirstLsn);

  /// First LSNs of every segment in \p Dir, ascending (name-based).
  static std::vector<uint64_t> listSegments(const std::string &Dir);

private:
  /// A log slot: a record's first four words. The drainer seals it into
  /// a WalRecord (adding the checksum) as it copies it out, which keeps
  /// both the append and the slot short.
  struct LogEntry {
    uint64_t Lsn, Meta, Key, Val;
  };

  /// One committer's log: a single-producer (the owner of one Quiescence
  /// slot) single-consumer (the drainer) ring, in (Lsn, Index) order
  /// because a thread's tickets only grow.
  struct CommitterLog {
    explicit CommitterLog(uint32_t Slots) : Buf(new LogEntry[Slots]) {}
    std::unique_ptr<LogEntry[]> Buf;
    alignas(64) std::atomic<uint64_t> Head{0}; ///< Producer cursor.
    std::atomic<uint64_t> Appended{0};         ///< Producer-only odometer.
    alignas(64) std::atomic<uint64_t> Tail{0}; ///< Consumer cursor.
  };

  /// Drain-thread scratch reused across cycles: the write buffer and the
  /// merge's state — a cursor per log and a min-heap of (head LSN, cursor
  /// index).
  struct DrainScratch {
    std::vector<WalRecord> Buf;
    struct Cursor {
      CommitterLog *Log;
      uint64_t Pos; ///< Next entry to take; the log's new tail.
      uint64_t End; ///< The log head read this cycle.
    };
    std::vector<Cursor> Cursors;
    using HeapItem = std::pair<uint64_t, size_t>;
    std::vector<HeapItem> Heap;
  };

  /// The calling thread's log, created on its first append.
  CommitterLog &logForThisThread();
  void drainLoop();
  /// One drain cycle: read the stable frontier, merge every log's prefix
  /// at or below it (plus the lowest undone ticket's records), write and
  /// fsync it, advance durability.
  void drainCycle(DrainScratch &D);
  /// Appends \p Buf to the open segment, starting one if none is open,
  /// and fsyncs it; on failure seals the log and returns false. Adds
  /// the records that did not reach the file to \p Dropped.
  bool writeSegment(const std::vector<WalRecord> &Buf, uint64_t &Dropped);
  /// Deletes the closed segments wholly at or below \p Barrier (drain
  /// thread); returns bytes removed.
  uint64_t deleteSegmentsBelow(uint64_t Barrier);
  /// Runs \p Fn on the drain thread between two cycles and waits for it.
  void betweenCycles(const std::function<void()> &Fn);
  /// Drain-thread side of betweenCycles: runs the pending request, if any.
  void serveRequest();
  /// Seals the log after an I/O failure (degraded mode) and wakes every
  /// durability waiter so they observe DurabilityLost. Reads errno.
  void enterDegraded(const char *What, const std::string &Path);

  Config Cfg;
  /// Per-committer logs indexed by Quiescence slot, each created by its
  /// slot's owner on first append and freed with the Wal.
  std::unique_ptr<std::atomic<CommitterLog *>[]> Logs;
  /// The open segment's O_APPEND fd and first LSN (drain side only); -1
  /// until the next write starts a segment.
  int Fd = -1;
  uint64_t OpenSegment = 0;

  /// Highest LSN of the durable history this log continues: 1 for a
  /// fresh/empty log (so the first record lands at LSN 2), the recovery
  /// cut after recover(). start() derives BaseLsn from it.
  uint64_t LastLsn = 1;

  /// LSN base, derived at start() as LastLsn - lastPublishTicket() (mod
  /// 2^64 — the subtraction may wrap; append's BaseLsn + Ticket unwraps
  /// it). Tickets consumed before start() — snapshot-mode recovery
  /// replay, pre-attach prepopulation, earlier runs in this process —
  /// are thereby absorbed, and the first logged commit lands exactly at
  /// LastLsn + 1. Contiguity from there needs every later ticket to be
  /// taken by a logging commit, which attachWal guarantees for store
  /// traffic (raw fast paths refuse while a log is attached).
  uint64_t BaseLsn = 0;

  /// Highest LSN the drainer has taken out of a log (drain thread only;
  /// start() reads it after the previous run's thread joined, so a
  /// restart continues past everything already logged).
  uint64_t DrainedLsn = 0;
  /// Highest LSN known fsynced.
  std::atomic<uint64_t> DurableLsn{0};

  std::mutex WaitMutex;              ///< Guards DurableLsn updates + CVs.
  std::condition_variable DrainCv;   ///< Wakes the drainer early.
  std::condition_variable DurableCv; ///< Wakes waitDurable callers.
  uint32_t SyncWaitersPending = 0;
  /// The drain-thread request in flight (guarded by WaitMutex); its
  /// poster waits on RequestCv until the drainer clears it.
  const std::function<void()> *Request = nullptr;
  std::condition_variable RequestCv;

  std::thread Drainer;
  std::atomic<bool> Stopping{false};
  bool Started = false;

  std::atomic<bool> DegradedFlag{false};

  std::atomic<uint64_t> StatRingStalls{0};
  std::atomic<uint64_t> StatFsyncBatches{0};
  std::atomic<uint64_t> StatRecordsWritten{0};
  std::atomic<uint64_t> StatBytesWritten{0};
  std::atomic<uint64_t> StatDroppedRecords{0};
};

} // namespace kv
} // namespace satm

#endif // SATM_KV_WAL_H
