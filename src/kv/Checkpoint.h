//===- kv/Checkpoint.h - Snapshot-consistent checkpoints -------*- C++ -*-===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The checkpoint + compaction plane that bounds crash recovery
/// (DESIGN.md §14). A background checkpointer periodically:
///
///   1. rolls the log (Wal::rollSegment), then pins a snapshot epoch and
///      streams every live (key, value) pair — and every erasure, as a
///      Tombstone entry — out of the store via Store::snapshotScan. The
///      snapshot plane guarantees the scan sees exactly the commits with
///      publish ticket <= the pinned epoch E, a prefix of commit order,
///      without blocking writers. The roll before the pin ends the log's
///      segments at or just past E's barrier, so step 3 of the next
///      cycle deletes them whole;
///   2. converts E into the checkpoint barrier LSN via Wal::lsnOfTicket
///      (WAL records are appended inside the publish window, so LSN
///      order *is* ticket order) and writes the image to
///      ckpt-<lsn>.ckpt using write-temp → fsync → rename → fsync-dir.
///      A torn or half-written checkpoint therefore never shadows the
///      previous valid one — the rename is the atomic publication point;
///   3. retires history: checkpoints older than the *previous* one are
///      deleted, and so are the log segments wholly at or below the
///      previous barrier (Wal::truncateBelow). Two generations stay on
///      disk by design — if the newest checkpoint is later found
///      corrupt, recovery falls back to the previous one, and the WAL
///      suffix it needs (records above the *previous* barrier) is
///      exactly what retention kept.
///
/// Wal::recover consumes the other end: it loads the newest valid
/// checkpoint (ckpt::loadNewestValid), applies the image, and replays
/// only WAL records above the barrier — recovery time proportional to
/// the checkpoint interval, not to history.
///
/// Checkpoint I/O failures (real, or the ckpt_write / ckpt_rename fault
/// sites) are non-fatal and do not touch the WAL's health: the attempt
/// is abandoned, the temp file removed, the failure counted, and the
/// previous checkpoint stays authoritative — compaction merely pauses,
/// durability is untouched. (The reverse coupling is also one-way: a
/// *degraded* WAL keeps checkpointing, which is then the only durability
/// the process still makes.)
///
/// File format (host-endian words, like the WAL):
///   header  [Magic, Version, Lsn, Check]                      32 bytes
///   entries [Key, Val, Check(Key, Val, ordinal, Lsn)]  24 bytes each
///   trailer [TrailerMagic, EntryCount, Lsn, Check]            32 bytes
/// Every checksum is seeded so all-zero never validates; a short tail
/// loses the trailer and invalidates the file, a bit-flip anywhere fails
/// its record or frame checksum. Val == Store Tombstone encodes "erased
/// as of the barrier".
///
//===----------------------------------------------------------------------===//

#ifndef SATM_KV_CHECKPOINT_H
#define SATM_KV_CHECKPOINT_H

#include "kv/Wal.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace satm {
namespace kv {

class Store;

namespace ckpt {

/// A decoded checkpoint: the barrier LSN and the (key, value) image.
/// Val == Tombstone means the key was erased as of the barrier.
struct CheckpointImage {
  uint64_t Lsn = 0;
  std::vector<std::pair<Word, Word>> Entries;
};

/// Outcome of loadNewestValid.
struct LoadResult {
  bool Loaded = false;    ///< A valid checkpoint was applied to Out.
  uint64_t Discarded = 0; ///< Newer-but-invalid checkpoints skipped.
};

/// Path of the checkpoint with barrier \p Lsn inside \p Dir
/// (zero-padded so lexicographic order is numeric order).
std::string checkpointFile(const std::string &Dir, uint64_t Lsn);

/// Barrier LSNs of every checkpoint file in \p Dir, ascending. Purely
/// name-based (no validation).
std::vector<uint64_t> listCheckpoints(const std::string &Dir);

/// Writes \p Img to its checkpoint file via write-temp → fsync → rename
/// → fsync-dir. Returns false (and fills \p Err) on any I/O failure or
/// injected ckpt_write/ckpt_rename fault; the temp file is removed and
/// no existing checkpoint is disturbed.
bool writeCheckpoint(const std::string &Dir, const CheckpointImage &Img,
                     std::string *Err);

/// Strict single-file load: header, every entry checksum, trailer, and
/// the name-vs-header LSN agreement. Returns false without touching
/// \p Out's entries on any damage.
bool loadCheckpoint(const std::string &Path, uint64_t ExpectLsn,
                    CheckpointImage &Out);

/// Loads the newest checkpoint in \p Dir that validates, skipping (and
/// counting) corrupt newer ones. Out.Lsn == 0 when nothing validates.
LoadResult loadNewestValid(const std::string &Dir, CheckpointImage &Out);

/// Deletes checkpoint files with barrier < \p KeepLsn.
void removeCheckpointsBelow(const std::string &Dir, uint64_t KeepLsn);

} // namespace ckpt

/// Aggregate checkpointer counters (monotone since construction).
struct CheckpointStats {
  uint64_t Attempts = 0;      ///< runOnce calls that found new history.
  uint64_t Written = 0;       ///< Checkpoints published (renamed in).
  uint64_t Failures = 0;      ///< Attempts lost to I/O (incl. injected).
  uint64_t LastLsn = 0;       ///< Barrier of the newest published one.
  uint64_t LastEntries = 0;   ///< Image size of the newest published one.
  uint64_t WalTruncatedBytes = 0; ///< Total log bytes rotated out.
  double TotalMillis = 0;     ///< Wall time spent inside runOnce.
};

/// Background checkpoint writer. Lifecycle: construct over a recovered
/// store and a *started* Wal, start(), stop() before Wal::stop().
class Checkpointer {
public:
  struct Config {
    /// Take a checkpoint after this many new WAL record appends (the
    /// kv_service --checkpoint-interval flag). 0 disables the trigger —
    /// only explicit runOnce() calls checkpoint.
    uint64_t IntervalOps = 0;
    /// Trigger-poll cadence of the background thread.
    uint32_t PollMs = 5;
  };

  Checkpointer(Store &S, Wal &W, const Config &C);
  ~Checkpointer(); // stop()s if still running.

  Checkpointer(const Checkpointer &) = delete;
  Checkpointer &operator=(const Checkpointer &) = delete;

  void start();
  void stop();

  /// One synchronous checkpoint cycle: scan, publish, retire history.
  /// Returns false on a failed publication (counted in stats; the
  /// previous checkpoint stays authoritative). A cycle that finds no
  /// new history since the last barrier is a successful no-op.
  bool runOnce(std::string *Err = nullptr);

  CheckpointStats stats() const;

private:
  void loop();

  Store &S;
  Wal &W;
  Config Cfg;

  std::thread Worker;
  std::mutex Mu;
  std::condition_variable Cv;
  bool Stopping = false;
  bool Running = false;

  /// Barrier of the newest checkpoint (0 = none yet). Seeded from the
  /// directory at construction so a restarted process keeps rotating
  /// instead of re-writing from scratch.
  uint64_t NewestLsn = 0;
  /// Wal record count at the last trigger, for the interval test.
  uint64_t LastTriggerRecords = 0;

  std::atomic<uint64_t> StatAttempts{0};
  std::atomic<uint64_t> StatWritten{0};
  std::atomic<uint64_t> StatFailures{0};
  std::atomic<uint64_t> StatLastLsn{0};
  std::atomic<uint64_t> StatLastEntries{0};
  std::atomic<uint64_t> StatTruncatedBytes{0};
  std::atomic<uint64_t> StatTotalMicros{0};
};

} // namespace kv
} // namespace satm

#endif // SATM_KV_CHECKPOINT_H
