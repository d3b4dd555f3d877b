//===- kv/Wal.cpp - SATM-KV durability plane implementation --------------===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//

#include "kv/Wal.h"

#include "kv/Checkpoint.h"
#include "kv/Store.h"
#include "stm/Quiesce.h"
#include "support/Backoff.h"
#include "support/FaultInjector.h"
#include "support/Stopwatch.h"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>

#include <fcntl.h>
#include <unistd.h>

using namespace satm;
using namespace satm::kv;

const char *satm::kv::durabilityModeName(DurabilityMode M) {
  switch (M) {
  case DurabilityMode::Off:
    return "off";
  case DurabilityMode::Async:
    return "async";
  case DurabilityMode::Sync:
    return "sync";
  }
  return "?";
}

bool satm::kv::parseDurabilityMode(const char *S, DurabilityMode &Out) {
  if (!S)
    return false;
  if (std::strcmp(S, "off") == 0)
    Out = DurabilityMode::Off;
  else if (std::strcmp(S, "async") == 0)
    Out = DurabilityMode::Async;
  else if (std::strcmp(S, "sync") == 0)
    Out = DurabilityMode::Sync;
  else
    return false;
  return true;
}

uint64_t WalRecord::checksum() const {
  // SplitMix64-style finalize over a running combine, seeded so the
  // all-zero record (a zero-filled torn tail) never validates.
  uint64_t H = 0x5a71db14b816f5c3ull;
  const uint64_t W[4] = {Lsn, Meta, Key, Val};
  for (uint64_t X : W) {
    H ^= X + 0x9e3779b97f4a7c15ull + (H << 6) + (H >> 2);
    H = (H ^ (H >> 30)) * 0xbf58476d1ce4e5b9ull;
  }
  return H ^ (H >> 31);
}

namespace {

/// Per-thread LSN of the last append, for sync-mode acks.
thread_local uint64_t TlsLastAppendedLsn = 0;

void ioFatal(const char *What, const std::string &Path) {
  std::fprintf(stderr, "satm: wal %s failed for '%s': %s\n", What,
               Path.c_str(), std::strerror(errno));
  std::abort();
}

/// Writes \p Size bytes at \p P to \p Fd, retrying short writes and
/// EINTR. \p Off reports how far it got; false on a write error.
bool writeFully(int Fd, const void *P, size_t Size, size_t &Off) {
  const uint8_t *Bytes = static_cast<const uint8_t *>(P);
  for (Off = 0; Off < Size;) {
    ssize_t N = ::write(Fd, Bytes + Off, Size - Off);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Off += size_t(N);
  }
  return true;
}

/// Records per read in truncateBelow's copy. Copying in chunks keeps a
/// rotation's memory flat: a hot shard's file can run to tens of MB.
constexpr size_t CopyChunkRecords = 4096;

/// Copies the whole records of \p In from byte \p InOff onward that lie
/// above \p Barrier to \p Out, a chunk at a time, advancing \p InOff and
/// adding the skipped bytes to \p Dropped. A record still being appended
/// at the end is left for the next call. False on an I/O error.
bool copyAboveBarrier(int In, uint64_t &InOff, int Out, uint64_t Barrier,
                      std::vector<WalRecord> &Chunk, uint64_t &Dropped) {
  for (;;) {
    ssize_t N = ::pread(In, Chunk.data(), Chunk.size() * sizeof(WalRecord),
                        off_t(InOff));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    const size_t Whole = size_t(N) / sizeof(WalRecord);
    if (Whole == 0)
      return true;
    size_t Kept = 0;
    for (size_t I = 0; I < Whole; ++I) {
      if (Chunk[I].Lsn > Barrier)
        Chunk[Kept++] = Chunk[I];
      else
        Dropped += sizeof(WalRecord);
    }
    size_t Off;
    if (!writeFully(Out, Chunk.data(), Kept * sizeof(WalRecord), Off))
      return false;
    InOff += Whole * sizeof(WalRecord);
  }
}

} // namespace

uint64_t Wal::lastAppendedLsn() { return TlsLastAppendedLsn; }

std::string Wal::shardFile(uint32_t Shard) const {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "/shard-%04u.wal", Shard);
  return Cfg.Dir + Buf;
}

Wal::Wal(const Config &C) : Cfg(C) {
  assert((Cfg.RingSlots & (Cfg.RingSlots - 1)) == 0 && "log is power of two");
  std::error_code Ec;
  std::filesystem::create_directories(Cfg.Dir, Ec); // Pre-existing is fine.
  Logs = std::make_unique<std::atomic<CommitterLog *>[]>(
      stm::Quiescence::MaxThreads);
  Fds.assign(Cfg.Shards, -1);
  FileLocks.resize(Cfg.Shards);
  for (auto &M : FileLocks)
    M = std::make_unique<std::mutex>();
}

Wal::~Wal() {
  stop();
  for (int Fd : Fds)
    if (Fd >= 0)
      ::close(Fd);
  for (unsigned I = 0; I < stm::Quiescence::MaxThreads; ++I)
    delete Logs[I].load(std::memory_order_relaxed);
}

void Wal::start() {
  assert(!Started && "wal already started");
  for (uint32_t S = 0; S < Cfg.Shards; ++S) {
    if (Fds[S] >= 0)
      continue;
    Fds[S] = ::open(shardFile(S).c_str(), O_CREAT | O_WRONLY | O_APPEND,
                    0644);
    if (Fds[S] < 0)
      ioFatal("open", shardFile(S));
  }
  // Persist the directory entries once, so a crash right after start
  // cannot lose the (empty) shard files themselves.
  int DirFd = ::open(Cfg.Dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (DirFd >= 0) {
    ::fsync(DirFd);
    ::close(DirFd);
  }
  // A restart of the same instance continues past everything it already
  // logged (the logs are empty here: stop() drained them).
  LastLsn = std::max(LastLsn, DrainedLsn);
  // Derive the LSN base from the *live* ticket counter, not from an
  // assumed fresh-process value: recovery replay under SnapshotEnabled,
  // pre-attach prepopulation, and earlier runs in this process all
  // consume publish tickets, and the merge's hole rule (recover(), phase
  // 2) needs the first logged commit to land at exactly LastLsn + 1.
  // Unsigned wrap-around in the subtraction is fine — append computes
  // BaseLsn + Ticket, which unwraps it.
  BaseLsn = LastLsn - stm::Quiescence::lastPublishTicket();
  DurableLsn.store(LastLsn, std::memory_order_relaxed);
  Stopping.store(false, std::memory_order_relaxed);
  Started = true;
  Drainer = std::thread([this] { drainLoop(); });
}

void Wal::stop() {
  if (!Started)
    return;
  {
    std::lock_guard<std::mutex> Lock(WaitMutex);
    Stopping.store(true, std::memory_order_release);
  }
  DrainCv.notify_all();
  Drainer.join();
  Started = false;
}

//===----------------------------------------------------------------------===
// Commit side (publish window).
//===----------------------------------------------------------------------===

Wal::CommitterLog &Wal::logForThisThread() {
  // Only the slot's owner stores its pointer; an earlier owner's store
  // reached us through the slot registry's hand-off.
  std::atomic<CommitterLog *> &P =
      Logs[stm::Quiescence::slotIndexForThisThread()];
  CommitterLog *L = P.load(std::memory_order_relaxed);
  if (!L) {
    L = new CommitterLog(Cfg.RingSlots);
    P.store(L, std::memory_order_release);
  }
  return *L;
}

void Wal::append(uint32_t Shard, WalOp Op, Word Key, Word Val,
                 uint64_t Ticket, uint32_t Index, uint32_t Count) {
  assert(Started && "append on a stopped wal");
  if (faultPoint(FaultSite::LogAppend))
    faultSpin(FaultInjector::arg(FaultSite::LogAppend));
  const uint64_t Lsn = BaseLsn + Ticket;
  TlsLastAppendedLsn = Lsn;
  CommitterLog &L = logForThisThread();
  L.Appended.store(L.Appended.load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
  if (DegradedFlag.load(std::memory_order_acquire)) {
    // Sealed log: commits keep flowing, but feeding the logs would only
    // queue records no drainer will ever make durable. The per-thread LSN
    // still routes the committer to waitDurable, which reports the loss.
    StatDroppedRecords.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const uint32_t Mask = Cfg.RingSlots - 1;
  const uint64_t H = L.Head.load(std::memory_order_relaxed);
  // Backpressure: wait for the drainer, never overwrite. The drainer
  // always empties the log of the lowest undone ticket, so this wait
  // cannot close a cycle through the publish order (see Wal.h).
  if (H - L.Tail.load(std::memory_order_acquire) >= Cfg.RingSlots) {
    StatRingStalls.fetch_add(1, std::memory_order_relaxed);
    DrainCv.notify_one();
    Backoff B;
    while (H - L.Tail.load(std::memory_order_acquire) >= Cfg.RingSlots)
      B.pause();
  }
  L.Buf[H & Mask] = {Lsn, WalRecord::packMeta(Op, Index, Count), Key, Val,
                     Shard};
  L.Head.store(H + 1, std::memory_order_release);
}

void Wal::publishHook(void *Ctx, uint64_t Ticket, uint32_t Index,
                      uint32_t Count, Word A, Word B, Word C) {
  static_cast<Wal *>(Ctx)->append(uint32_t(A & 0xffffffffu),
                                  WalOp(uint32_t(A >> 32)), B, C, Ticket,
                                  Index, Count);
}

//===----------------------------------------------------------------------===
// Drain side (group commit).
//===----------------------------------------------------------------------===

void Wal::drainLoop() {
  DrainScratch D;
  D.ShardBuf.resize(Cfg.Shards);
  for (;;) {
    {
      std::unique_lock<std::mutex> Lock(WaitMutex);
      DrainCv.wait_for(Lock, std::chrono::microseconds(Cfg.FlushIntervalUs),
                       [&] {
                         return Stopping.load(std::memory_order_acquire) ||
                                SyncWaitersPending > 0;
                       });
    }
    if (Stopping.load(std::memory_order_acquire))
      break;
    drainCycle(D);
  }
  // Final drain: every ticket issued before stop() must reach the
  // frontier, so each of their records is at or below the last cut. Keep
  // draining meanwhile — a straggling committer may be waiting on its log.
  const uint64_t Last = stm::Quiescence::lastPublishTicket();
  Backoff B;
  while (stm::Quiescence::snapshotStable() < Last) {
    drainCycle(D);
    B.pause();
  }
  drainCycle(D);
}

void Wal::drainCycle(DrainScratch &D) {
  // The frontier is read *before* the log heads: every ticket at or below
  // it appended all of its records before marking itself done, so the
  // heads read below cover them. The lowest undone ticket (Cut + 1)
  // drains too, possibly in part: every record before it is in this
  // cycle, its later records have higher indices, and it can then never
  // be stuck behind a full log of its own group. Durability still
  // advances only to Cut.
  const uint64_t Cut = BaseLsn + stm::Quiescence::snapshotStable();
  const uint64_t Limit = Cut + 1;
  const uint32_t Mask = Cfg.RingSlots - 1;
  D.Cursors.clear();
  D.Heap.clear();
  const unsigned NumLogs =
      std::min(stm::Quiescence::peakSlots(), stm::Quiescence::MaxThreads);
  for (unsigned I = 0; I < NumLogs; ++I) {
    CommitterLog *L = Logs[I].load(std::memory_order_acquire);
    if (!L)
      continue;
    const uint64_t T = L->Tail.load(std::memory_order_relaxed);
    const uint64_t H = L->Head.load(std::memory_order_acquire);
    D.Cursors.push_back({L, T, H});
    if (T != H && L->Buf[T & Mask].Lsn <= Limit)
      D.Heap.push_back({L->Buf[T & Mask].Lsn, D.Cursors.size() - 1});
  }

  // K-way merge by LSN into the shard buffers. Each log is LSN-ordered and
  // holds a group's records contiguously, so the merge moves one whole
  // group at a time from the log with the smallest head LSN.
  const auto MinFirst = std::greater<DrainScratch::HeapItem>();
  std::make_heap(D.Heap.begin(), D.Heap.end(), MinFirst);
  D.Dirty.clear();
  while (!D.Heap.empty()) {
    std::pop_heap(D.Heap.begin(), D.Heap.end(), MinFirst);
    const auto [Lsn, C] = D.Heap.back();
    D.Heap.pop_back();
    DrainScratch::Cursor &Cur = D.Cursors[C];
    for (; Cur.Pos != Cur.End; ++Cur.Pos) {
      const LogEntry &E = Cur.Log->Buf[Cur.Pos & Mask];
      if (E.Lsn != Lsn)
        break;
      std::vector<WalRecord> &Buf = D.ShardBuf[E.Shard];
      if (Buf.empty())
        D.Dirty.push_back(uint32_t(E.Shard));
      WalRecord &R = Buf.emplace_back();
      R.Lsn = E.Lsn;
      R.Meta = E.Meta;
      R.Key = E.Key;
      R.Val = E.Val;
      R.Check = R.checksum();
    }
    DrainedLsn = std::max(DrainedLsn, Lsn);
    if (Cur.Pos != Cur.End) {
      const uint64_t Next = Cur.Log->Buf[Cur.Pos & Mask].Lsn;
      if (Next <= Limit) {
        D.Heap.push_back({Next, C});
        std::push_heap(D.Heap.begin(), D.Heap.end(), MinFirst);
      }
    }
  }
  // Everything taken is copied out: hand the space back to the committers
  // before the (slow) writes and fsyncs.
  for (const DrainScratch::Cursor &Cur : D.Cursors)
    Cur.Log->Tail.store(Cur.Pos, std::memory_order_release);

  bool Degraded = DegradedFlag.load(std::memory_order_acquire);
  uint64_t Written = 0, Dropped = 0;
  size_t NumWritten = 0; // D.Dirty's prefix of shards written this cycle.
  for (uint32_t S : D.Dirty) {
    std::vector<WalRecord> &Buf = D.ShardBuf[S];
    // Degraded: keep consuming (producers must never stall on a log no one
    // will drain) but discard — the log is sealed and these records will
    // never be fsync-acked.
    if (Degraded) {
      Dropped += Buf.size();
      Buf.clear();
      continue;
    }
    const size_t Size = Buf.size() * sizeof(WalRecord);
    // Injected disk-full: the shard write fails as if write(2) returned
    // ENOSPC. Real write errors take the same path — degrade, not abort.
    size_t Off = 0;
    bool WriteOk;
    if (faultPoint(FaultSite::LogEnospc)) {
      errno = ENOSPC;
      WriteOk = false;
    } else {
      std::lock_guard<std::mutex> FLock(*FileLocks[S]);
      WriteOk = writeFully(Fds[S], Buf.data(), Size, Off);
    }
    Buf.clear();
    if (!WriteOk) {
      enterDegraded("write", shardFile(S));
      Degraded = true;
      Dropped += (Size - Off + sizeof(WalRecord) - 1) / sizeof(WalRecord);
      continue;
    }
    Written += Size / sizeof(WalRecord);
    D.Dirty[NumWritten++] = S;
  }
  D.Dirty.resize(NumWritten);
  StatRecordsWritten.fetch_add(Written, std::memory_order_relaxed);
  StatBytesWritten.fetch_add(Written * sizeof(WalRecord),
                             std::memory_order_relaxed);
  StatDroppedRecords.fetch_add(Dropped, std::memory_order_relaxed);
  if (!D.Dirty.empty() && !Degraded) {
    // Group commit: one fsync per dirty shard file covers every record
    // that accumulated since the previous cycle; untouched files are
    // skipped (an fsync can cost a device cache flush even when clean).
    if (faultPoint(FaultSite::LogFsync))
      faultSpin(FaultInjector::arg(FaultSite::LogFsync));
    for (uint32_t S : D.Dirty) {
      std::lock_guard<std::mutex> FLock(*FileLocks[S]);
      if (::fsync(Fds[S]) < 0) {
        enterDegraded("fsync", shardFile(S));
        Degraded = true;
        break;
      }
    }
    if (!Degraded)
      StatFsyncBatches.fetch_add(1, std::memory_order_relaxed);
  }
  // Advance durability to the cut — even on an idle cycle (nothing to
  // write means every record at or below Cut was already durable). Never
  // while degraded: a failed write or fsync anywhere this cycle means Cut
  // was not honestly reached, and DurableLsn stays frozen at the last cut
  // that was.
  if (!Degraded) {
    std::lock_guard<std::mutex> Lock(WaitMutex);
    if (Cut > DurableLsn.load(std::memory_order_relaxed))
      DurableLsn.store(Cut, std::memory_order_release);
  }
  DurableCv.notify_all();
}

void Wal::enterDegraded(const char *What, const std::string &Path) {
  bool Expected = false;
  if (DegradedFlag.compare_exchange_strong(Expected, true,
                                           std::memory_order_acq_rel)) {
    std::fprintf(stderr,
                 "satm: wal %s failed for '%s': %s — sealing the log "
                 "(degraded mode, durable cut frozen at LSN %llu)\n",
                 What, Path.c_str(), std::strerror(errno),
                 (unsigned long long)DurableLsn.load(
                     std::memory_order_acquire));
  }
  // Every parked sync waiter must observe the seal and report
  // DurabilityLost instead of blocking on an LSN that will never come.
  DurableCv.notify_all();
}

DurableWait Wal::waitDurable(uint64_t Lsn) {
  return waitDurable(Lsn, std::chrono::steady_clock::time_point::max());
}

DurableWait Wal::waitDurable(uint64_t Lsn,
                             std::chrono::steady_clock::time_point Deadline) {
  if (DurableLsn.load(std::memory_order_acquire) >= Lsn)
    return DurableWait::Ok;
  if (DegradedFlag.load(std::memory_order_acquire))
    return DurableWait::DurabilityLost;
  std::unique_lock<std::mutex> Lock(WaitMutex);
  ++SyncWaitersPending;
  DrainCv.notify_all(); // Kick an immediate group-commit cycle.
  auto Reached = [&] {
    return DurableLsn.load(std::memory_order_acquire) >= Lsn ||
           DegradedFlag.load(std::memory_order_acquire);
  };
  if (Deadline == std::chrono::steady_clock::time_point::max())
    DurableCv.wait(Lock, Reached);
  else
    DurableCv.wait_until(Lock, Deadline, Reached);
  --SyncWaitersPending;
  // Durability beats the other verdicts: even a degraded log honestly
  // holds every record at or below the frozen cut.
  if (DurableLsn.load(std::memory_order_acquire) >= Lsn)
    return DurableWait::Ok;
  if (DegradedFlag.load(std::memory_order_acquire))
    return DurableWait::DurabilityLost;
  return DurableWait::DeadlineExceeded;
}

WalStats Wal::stats() const {
  WalStats S;
  for (unsigned I = 0; I < stm::Quiescence::MaxThreads; ++I)
    if (const CommitterLog *L = Logs[I].load(std::memory_order_acquire))
      S.RecordsAppended += L->Appended.load(std::memory_order_relaxed);
  S.RingStalls = StatRingStalls.load(std::memory_order_relaxed);
  S.FsyncBatches = StatFsyncBatches.load(std::memory_order_relaxed);
  S.RecordsWritten = StatRecordsWritten.load(std::memory_order_relaxed);
  S.BytesWritten = StatBytesWritten.load(std::memory_order_relaxed);
  S.DroppedRecords = StatDroppedRecords.load(std::memory_order_relaxed);
  S.Degraded = DegradedFlag.load(std::memory_order_acquire);
  return S;
}

//===----------------------------------------------------------------------===
// Compaction (checkpoint barrier rotation).
//===----------------------------------------------------------------------===

uint64_t Wal::truncateBelow(uint64_t Barrier) {
  assert(Started && "truncateBelow serves the live checkpointer");
  // Only durable prefixes may be dropped: a record still in a log (or
  // never fsynced at all) below the barrier would otherwise vanish from
  // both the log and the next recovery. A degraded log skips rotation
  // entirely — its files are frozen evidence.
  if (DegradedFlag.load(std::memory_order_acquire) ||
      DurableLsn.load(std::memory_order_acquire) < Barrier)
    return 0;
  uint64_t Removed = 0;
  bool Rotated = false;
  std::vector<WalRecord> Chunk(CopyChunkRecords);
  for (uint32_t S = 0; S < Cfg.Shards; ++S) {
    const std::string Path = shardFile(S);
    int In = ::open(Path.c_str(), O_RDONLY);
    if (In < 0)
      continue;
    // Shard files are (Lsn, Index)-monotone, so the records at or below
    // the barrier are a prefix: nothing to drop if the first is above it.
    WalRecord First;
    if (::pread(In, &First, sizeof(First), 0) != ssize_t(sizeof(First)) ||
        First.Lsn > Barrier) {
      ::close(In);
      continue;
    }
    // Write-temp → fsync → rename-over → reopen the append fd on the new
    // inode. The bulk copy runs without the shard lock — the drainer keeps
    // appending whole records meanwhile, so a rotation never stalls the
    // log for a whole file's worth of I/O — and the lock covers only the
    // catch-up on what it appended since, the fsync and the swap. Any
    // failure abandons this shard's rotation (the old file and fd stay
    // authoritative) — except a post-rename reopen failure, which would
    // silently route appends to a dead inode and so seals the log instead.
    const std::string Tmp = Path + ".tmp";
    int Out = ::open(Tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
    if (Out < 0) {
      ::close(In);
      continue;
    }
    uint64_t InOff = 0, Dropped = 0;
    bool Ok = copyAboveBarrier(In, InOff, Out, Barrier, Chunk, Dropped) &&
              ::fsync(Out) == 0;
    {
      std::lock_guard<std::mutex> FLock(*FileLocks[S]);
      // With the lock held no write is in flight: the file is record-
      // aligned and the catch-up copy reaches its true end.
      Ok = Ok && copyAboveBarrier(In, InOff, Out, Barrier, Chunk, Dropped) &&
           ::fsync(Out) == 0;
      ::close(Out);
      ::close(In);
      if (!Ok || ::rename(Tmp.c_str(), Path.c_str()) < 0) {
        ::unlink(Tmp.c_str());
        continue;
      }
      int NFd = ::open(Path.c_str(), O_WRONLY | O_APPEND);
      if (NFd < 0) {
        enterDegraded("reopen", Path);
        return Removed;
      }
      ::close(Fds[S]);
      Fds[S] = NFd;
    }
    Removed += Dropped;
    Rotated = true;
  }
  if (Rotated) {
    int DirFd = ::open(Cfg.Dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (DirFd >= 0) {
      ::fsync(DirFd);
      ::close(DirFd);
    }
  }
  return Removed;
}

//===----------------------------------------------------------------------===
// Recovery.
//===----------------------------------------------------------------------===

namespace {

/// One shard's validated scan: the longest file prefix of records that
/// checksum correctly and are (Lsn, Index)-monotone. ValidBytes is where
/// that prefix ends; everything after is torn or corrupt.
struct ShardScan {
  std::vector<WalRecord> Recs;
  uint64_t ValidBytes = 0;
  uint64_t FileBytes = 0;
  bool Torn = false;
  bool ReplayFaultStop = false;
};

void scanShard(const std::string &Path, ShardScan &Out) {
  FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return; // No file: empty log.
  WalRecord Rec;
  for (;;) {
    size_t N = std::fread(&Rec, 1, sizeof(Rec), F);
    Out.FileBytes += N;
    if (N < sizeof(Rec)) {
      Out.Torn |= N != 0; // Short tail: a record cut mid-write.
      break;
    }
    if (Rec.Check != Rec.checksum()) {
      Out.Torn = true; // Bit-flip or zero-fill: stop, never replay.
      break;
    }
    if (!Out.Recs.empty()) {
      const WalRecord &Prev = Out.Recs.back();
      // Per-shard order is strict: LSN non-decreasing, and within one
      // LSN (a multi-record transaction) the index strictly increases.
      // A duplicated tail repeats (Lsn, Index) and fails here.
      if (Rec.Lsn < Prev.Lsn ||
          (Rec.Lsn == Prev.Lsn && Rec.index() <= Prev.index())) {
        Out.Torn = true;
        break;
      }
    }
    // Injected recovery fault: abandon the rest of this shard's log as
    // if the scan hit a torn record (kill mode turns this into a crash
    // during recovery — double-crash testing).
    if (faultPoint(FaultSite::RecoveryReplay)) {
      faultSpin(FaultInjector::arg(FaultSite::RecoveryReplay));
      Out.ReplayFaultStop = true;
      break;
    }
    Out.Recs.push_back(Rec);
    Out.ValidBytes += sizeof(Rec);
  }
  // Anything read past ValidBytes (including a trailing partial record
  // fread consumed) does not count as file content to keep.
  std::fseek(F, 0, SEEK_END);
  Out.FileBytes = uint64_t(std::ftell(F));
  std::fclose(F);
}

} // namespace

RecoveryStats Wal::recover(Store &S) {
  assert(!Started && "recover must run before start()");
  assert(S.shards() == Cfg.Shards && "wal/store shard mismatch");
  Stopwatch Timer;
  RecoveryStats Out;
  // Phase 0: load the newest *valid* checkpoint in the directory and
  // apply its image — the bounded-recovery baseline. A corrupt newest
  // checkpoint falls back to the older retained one (whose WAL suffix
  // the two-generation retention rule kept on disk), and to empty when
  // none validates; the WAL merge below then simply replays from
  // further back. Erased keys arrive as Tombstone entries and must
  // override whatever baseline the caller prepopulated.
  ckpt::CheckpointImage Img;
  ckpt::LoadResult Lr = ckpt::loadNewestValid(Cfg.Dir, Img);
  Out.CheckpointLsn = Img.Lsn;
  Out.CheckpointsDiscarded = Lr.Discarded;
  if (Lr.Loaded) {
    for (const auto &E : Img.Entries) {
      if (E.second == Store::Tombstone) {
        S.erase(E.first); // Absent is fine: erased before it ever
                          // reached this baseline.
      } else if (!S.insert(E.first, E.second)) {
        ++Out.ApplyFailures;
      }
    }
    Out.CheckpointEntries = Img.Entries.size();
    Out.CutLsn = Img.Lsn; // An empty WAL suffix still recovers to here.
  }
  std::vector<ShardScan> Scans(Cfg.Shards);
  // Phase 1: shard-parallel validated scans. One thread per shard would
  // oversubscribe a small box for no gain; cap at hardware concurrency.
  {
    unsigned NumWorkers = std::max(1u, std::min<unsigned>(
        std::thread::hardware_concurrency(), Cfg.Shards));
    std::atomic<uint32_t> Next{0};
    std::vector<std::thread> Workers;
    for (unsigned W = 0; W < NumWorkers; ++W)
      Workers.emplace_back([&] {
        for (;;) {
          uint32_t Shard = Next.fetch_add(1, std::memory_order_relaxed);
          if (Shard >= Cfg.Shards)
            return;
          scanShard(shardFile(Shard), Scans[Shard]);
        }
      });
    for (auto &W : Workers)
      W.join();
  }
  for (const ShardScan &Sc : Scans) {
    Out.RecordsScanned += Sc.Recs.size();
    if (Sc.Torn)
      ++Out.TornRecords;
  }
  // Phase 2: cross-shard merge by LSN. A transaction's group is complete
  // iff its record count equals the span every record carries; the first
  // incomplete group cuts the global replay — records above it are a
  // suffix the crash made non-atomic, and replaying any of them would
  // break prefix-of-commit-order semantics.
  //
  // Incompleteness alone is not enough, though: a torn shard tail (or a
  // shard file that is simply behind, the drainer having died before
  // reaching it) can swallow transactions that lived *wholly* in that
  // shard. Their LSNs then vanish from the merge entirely — no
  // incomplete group, just a hole — while later complete groups from
  // other shards would happily replay past them, silently dropping a
  // middle transaction. Logged LSNs are contiguous from 2 over the log's
  // whole history (every logging commit takes the next publish ticket,
  // start() folds the live ticket counter into BaseLsn so a restart
  // continues at cut + 1, and truncation only ever drops suffixes), so a
  // discontinuity IS a lost group: cut there. PrevLsn starts at 1 so the
  // rule also covers the log's *first* commit — if LSN 2 itself was
  // swallowed, nothing is a prefix and the replay cuts to empty.
  uint64_t CutLsn = UINT64_MAX;
  {
    std::vector<size_t> Pos(Cfg.Shards, 0);
    // The hole rule anchors at the checkpoint barrier when one loaded:
    // records at or below it are already covered by the checkpoint image
    // and may legitimately linger on disk (a crash between checkpoint
    // publication and WAL rotation) — skip them, then demand contiguity
    // from barrier + 1. Without a checkpoint the anchor stays at 1, the
    // log's fixed origin.
    uint64_t PrevLsn = std::max<uint64_t>(Img.Lsn, 1);
    for (uint32_t Sd = 0; Sd < Cfg.Shards; ++Sd) {
      auto &Recs = Scans[Sd].Recs;
      size_t &P = Pos[Sd];
      while (P < Recs.size() && Recs[P].Lsn <= Img.Lsn)
        ++P;
    }
    for (;;) {
      uint64_t Lsn = UINT64_MAX;
      for (uint32_t Sd = 0; Sd < Cfg.Shards; ++Sd)
        if (Pos[Sd] < Scans[Sd].Recs.size())
          Lsn = std::min(Lsn, Scans[Sd].Recs[Pos[Sd]].Lsn);
      if (Lsn == UINT64_MAX)
        break; // All records grouped.
      if (Lsn != PrevLsn + 1) {
        CutLsn = PrevLsn; // Hole: a wholly-lost group hides in the gap.
        break;
      }
      PrevLsn = Lsn;
      uint32_t Count = 0, Span = 0;
      bool Coherent = true;
      for (uint32_t Sd = 0; Sd < Cfg.Shards; ++Sd) {
        auto &Recs = Scans[Sd].Recs;
        size_t &P = Pos[Sd];
        while (P < Recs.size() && Recs[P].Lsn == Lsn) {
          if (Span == 0)
            Span = Recs[P].span();
          else if (Recs[P].span() != Span)
            Coherent = false;
          ++Count;
          ++P;
        }
      }
      if (!Coherent || Count != Span) {
        CutLsn = Lsn - 1; // First incomplete group: cut before it.
        break;
      }
      ++Out.TxnsReplayed;
      Out.CutLsn = Lsn;
    }
  }
  if (CutLsn != UINT64_MAX)
    Out.CutLsn = std::min(Out.CutLsn, CutLsn);
  // Phase 3: shard-parallel replay of the prefix. Records of one shard
  // are already in commit order; cross-shard interleaving within the
  // prefix is free (transactions' shard-disjoint records commute, and
  // same-key records always share a shard).
  {
    std::atomic<uint64_t> Replayed{0}, Failures{0};
    std::atomic<uint32_t> Next{0};
    unsigned NumWorkers = std::max(1u, std::min<unsigned>(
        std::thread::hardware_concurrency(), Cfg.Shards));
    std::vector<std::thread> Workers;
    const uint64_t Cut = Out.CutLsn;
    for (unsigned W = 0; W < NumWorkers; ++W)
      Workers.emplace_back([&] {
        for (;;) {
          uint32_t Shard = Next.fetch_add(1, std::memory_order_relaxed);
          if (Shard >= Cfg.Shards)
            return;
          for (const WalRecord &Rec : Scans[Shard].Recs) {
            if (Rec.Lsn <= Img.Lsn)
              continue; // Covered by the checkpoint image already.
            if (Rec.Lsn > Cut)
              break;
            bool Ok = Rec.op() == WalOp::Put
                          ? S.insert(Rec.Key, Rec.Val)
                          : S.erase(Rec.Key);
            if (!Ok)
              Failures.fetch_add(1, std::memory_order_relaxed);
            Replayed.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    for (auto &W : Workers)
      W.join();
    Out.RecordsReplayed = Replayed.load(std::memory_order_relaxed);
    Out.ApplyFailures = Failures.load(std::memory_order_relaxed);
  }
  // Phase 4: truncate every shard file at its replayed prefix — torn
  // tails and beyond-cut suffixes alike — so the dropped records cannot
  // resurface in a later recovery (they would re-cut the log there and
  // orphan everything appended afterwards). The repair must be durable
  // before any new append can be acked: resize_file alone only reaches
  // the page cache, and after power loss a resurrected stale suffix
  // would collide with the reused LSNs of the next generation and make
  // an acked new-generation group look torn. So fsync each repaired
  // file, and the directory, before returning.
  bool Repaired = false;
  for (uint32_t Sd = 0; Sd < Cfg.Shards; ++Sd) {
    const ShardScan &Sc = Scans[Sd];
    uint64_t Keep = 0;
    for (const WalRecord &Rec : Sc.Recs) {
      if (Rec.Lsn > Out.CutLsn)
        break;
      Keep += sizeof(WalRecord);
    }
    if (Keep < Sc.FileBytes) {
      Out.TruncatedBytes += Sc.FileBytes - Keep;
      std::error_code Ec;
      std::filesystem::resize_file(shardFile(Sd), Keep, Ec);
      // A missing file truncates to nothing by definition (and cannot
      // be opened below; nothing to make durable either way).
      int Fd = ::open(shardFile(Sd).c_str(), O_WRONLY);
      if (Fd >= 0) {
        if (::fsync(Fd) < 0)
          ioFatal("fsync", shardFile(Sd));
        ::close(Fd);
        Repaired = true;
      }
    }
  }
  if (Repaired) {
    int DirFd = ::open(Cfg.Dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (DirFd >= 0) {
      ::fsync(DirFd);
      ::close(DirFd);
    }
  }
  // Record the durable history's high-water mark; start() folds the live
  // publish-ticket counter into BaseLsn so the next generation's first
  // record lands exactly at cut + 1 — even though the replay transactions
  // above consumed tickets themselves under Config::SnapshotEnabled. An
  // empty or fully-cut log continues at LSN 2, the fixed origin the
  // merge's hole rule anchors on.
  LastLsn = std::max<uint64_t>(Out.CutLsn, 1);
  // Reclamation identities must hold on the rebuilt store: every record
  // parked by a replayed erase is accounted for, nothing leaked.
  Store::ReclaimStats Rs = S.reclaimStats();
  Out.ReclaimIdentityOk =
      Rs.PoolSize == Rs.Retired - Rs.Recycled && Rs.Retired >= Rs.Recycled;
  Out.Millis = Timer.millis();
  return Out;
}
