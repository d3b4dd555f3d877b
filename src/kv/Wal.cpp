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
#include <sys/stat.h>
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

} // namespace

bool satm::kv::fsyncDir(const std::string &Dir) {
  int DirFd = ::open(Dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (DirFd < 0)
    return false;
  const bool Ok = ::fsync(DirFd) == 0;
  ::close(DirFd);
  return Ok;
}

std::string satm::kv::numberedFile(const std::string &Dir, const char *Prefix,
                                   uint64_t N, const char *Suffix) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%020llu", (unsigned long long)N);
  return Dir + "/" + Prefix + Buf + Suffix;
}

std::vector<uint64_t> satm::kv::listNumberedFiles(const std::string &Dir,
                                                  const char *Prefix,
                                                  const char *Suffix) {
  const std::string Pattern = std::string(Prefix) + "%20llu" + Suffix + "%n";
  std::vector<uint64_t> Out;
  std::error_code Ec;
  for (const auto &E : std::filesystem::directory_iterator(Dir, Ec)) {
    const std::string Name = E.path().filename().string();
    unsigned long long N = 0;
    int Consumed = 0;
    if (std::sscanf(Name.c_str(), Pattern.c_str(), &N, &Consumed) == 1 &&
        Consumed == int(Name.size()))
      Out.push_back(N);
  }
  std::sort(Out.begin(), Out.end());
  return Out;
}

uint64_t Wal::lastAppendedLsn() { return TlsLastAppendedLsn; }

std::string Wal::segmentFile(const std::string &Dir, uint64_t FirstLsn) {
  return numberedFile(Dir, "wal-", FirstLsn, ".log");
}

std::vector<uint64_t> Wal::listSegments(const std::string &Dir) {
  return listNumberedFiles(Dir, "wal-", ".log");
}

Wal::Wal(const Config &C) : Cfg(C) {
  assert((Cfg.RingSlots & (Cfg.RingSlots - 1)) == 0 && "log is power of two");
  std::error_code Ec;
  std::filesystem::create_directories(Cfg.Dir, Ec); // Pre-existing is fine.
  Logs = std::make_unique<std::atomic<CommitterLog *>[]>(
      stm::Quiescence::MaxThreads);
}

Wal::~Wal() {
  stop();
  if (Fd >= 0)
    ::close(Fd);
  for (unsigned I = 0; I < stm::Quiescence::MaxThreads; ++I)
    delete Logs[I].load(std::memory_order_relaxed);
}

void Wal::start() {
  assert(!Started && "wal already started");
  // No file is opened here: the first write starts a segment named by
  // its first record. A restart of the same instance continues past
  // everything it already logged (the logs are empty here: stop() drained
  // them), in the segment it left open.
  LastLsn = std::max(LastLsn, DrainedLsn);
  // Derive the LSN base from the *live* ticket counter, not from an
  // assumed fresh-process value: recovery replay under SnapshotEnabled,
  // pre-attach prepopulation, and earlier runs in this process all
  // consume publish tickets, and recovery's hole rule needs the first
  // logged commit to land at exactly LastLsn + 1. Unsigned wrap-around in
  // the subtraction is fine — append computes BaseLsn + Ticket, which
  // unwraps it.
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

void Wal::append(WalOp Op, Word Key, Word Val, uint64_t Ticket,
                 uint32_t Index, uint32_t Count) {
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
  L.Buf[H & Mask] = {Lsn, WalRecord::packMeta(Op, Index, Count), Key, Val};
  L.Head.store(H + 1, std::memory_order_release);
}

void Wal::publishHook(void *Ctx, uint64_t Ticket, uint32_t Index,
                      uint32_t Count, Word A, Word B, Word C) {
  static_cast<Wal *>(Ctx)->append(WalOp(A), B, C, Ticket, Index, Count);
}

//===----------------------------------------------------------------------===
// Drain side (group commit).
//===----------------------------------------------------------------------===

void Wal::drainLoop() {
  DrainScratch D;
  for (;;) {
    {
      std::unique_lock<std::mutex> Lock(WaitMutex);
      DrainCv.wait_for(Lock, std::chrono::microseconds(Cfg.FlushIntervalUs),
                       [&] {
                         return Stopping.load(std::memory_order_acquire) ||
                                SyncWaitersPending > 0 || Request;
                       });
    }
    if (Stopping.load(std::memory_order_acquire))
      break;
    drainCycle(D);
    serveRequest();
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

  // K-way merge by LSN into the write buffer. Each log is LSN-ordered and
  // holds a group's records contiguously, so the merge moves one whole
  // group at a time from the log with the smallest head LSN.
  const auto MinFirst = std::greater<DrainScratch::HeapItem>();
  std::make_heap(D.Heap.begin(), D.Heap.end(), MinFirst);
  D.Buf.clear();
  while (!D.Heap.empty()) {
    std::pop_heap(D.Heap.begin(), D.Heap.end(), MinFirst);
    const auto [Lsn, C] = D.Heap.back();
    D.Heap.pop_back();
    DrainScratch::Cursor &Cur = D.Cursors[C];
    for (; Cur.Pos != Cur.End; ++Cur.Pos) {
      const LogEntry &E = Cur.Log->Buf[Cur.Pos & Mask];
      if (E.Lsn != Lsn)
        break;
      WalRecord &R = D.Buf.emplace_back();
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
  // before the (slow) write and fsync.
  for (const DrainScratch::Cursor &Cur : D.Cursors)
    Cur.Log->Tail.store(Cur.Pos, std::memory_order_release);

  // Degraded: keep consuming (producers must never stall on a log no one
  // will drain) but discard — the log is sealed and these records will
  // never be fsync-acked.
  uint64_t Dropped = 0;
  bool Degraded = DegradedFlag.load(std::memory_order_acquire);
  if (Degraded)
    Dropped = D.Buf.size();
  else if (!D.Buf.empty())
    Degraded = !writeSegment(D.Buf, Dropped);
  StatDroppedRecords.fetch_add(Dropped, std::memory_order_relaxed);
  // Advance durability to the cut — even on an idle cycle (nothing to
  // write means every record at or below Cut was already durable). Never
  // while degraded: a failed write or fsync means Cut was not honestly
  // reached, and DurableLsn stays frozen at the last cut that was.
  if (!Degraded) {
    std::lock_guard<std::mutex> Lock(WaitMutex);
    if (Cut > DurableLsn.load(std::memory_order_relaxed))
      DurableLsn.store(Cut, std::memory_order_release);
  }
  DurableCv.notify_all();
}

bool Wal::writeSegment(const std::vector<WalRecord> &Buf, uint64_t &Dropped) {
  if (Fd < 0) {
    // A new segment is named by its first record, and its directory entry
    // must be durable before any record in it is acked: a segment the
    // directory forgets takes its acked records with it.
    OpenSegment = Buf.front().Lsn;
    const std::string Path = segmentFile(Cfg.Dir, OpenSegment);
    Fd = ::open(Path.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
    if (Fd < 0 || !fsyncDir(Cfg.Dir)) {
      enterDegraded("segment create", Path);
      Dropped += Buf.size();
      return false;
    }
  }
  const size_t Size = Buf.size() * sizeof(WalRecord);
  // Injected disk-full: the write fails as if write(2) returned ENOSPC.
  // Real write errors take the same path — degrade, not abort.
  size_t Off = 0;
  bool WriteOk;
  if (faultPoint(FaultSite::LogEnospc)) {
    errno = ENOSPC;
    WriteOk = false;
  } else {
    WriteOk = writeFully(Fd, Buf.data(), Size, Off);
  }
  if (!WriteOk) {
    enterDegraded("write", segmentFile(Cfg.Dir, OpenSegment));
    Dropped += (Size - Off + sizeof(WalRecord) - 1) / sizeof(WalRecord);
    return false;
  }
  StatRecordsWritten.fetch_add(Buf.size(), std::memory_order_relaxed);
  StatBytesWritten.fetch_add(Size, std::memory_order_relaxed);
  // Group commit: one fsync covers every record that accumulated since
  // the previous cycle.
  if (faultPoint(FaultSite::LogFsync))
    faultSpin(FaultInjector::arg(FaultSite::LogFsync));
  if (::fsync(Fd) < 0) {
    enterDegraded("fsync", segmentFile(Cfg.Dir, OpenSegment));
    return false;
  }
  StatFsyncBatches.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void Wal::betweenCycles(const std::function<void()> &Fn) {
  assert(Started && "only a running drainer serves requests");
  std::unique_lock<std::mutex> Lock(WaitMutex);
  RequestCv.wait(Lock, [&] { return Request == nullptr; }); // One at a time.
  Request = &Fn;
  DrainCv.notify_all();
  RequestCv.wait(Lock, [&] { return Request != &Fn; });
}

void Wal::serveRequest() {
  const std::function<void()> *Fn;
  {
    std::lock_guard<std::mutex> Lock(WaitMutex);
    Fn = Request;
  }
  if (!Fn)
    return;
  (*Fn)();
  {
    std::lock_guard<std::mutex> Lock(WaitMutex);
    Request = nullptr;
  }
  RequestCv.notify_all();
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
// Segment rolls and compaction (drain thread, between cycles).
//===----------------------------------------------------------------------===

void Wal::rollSegment() {
  // The cycle that wrote each record also fsynced it, so closing the
  // segment needs no sync of its own.
  betweenCycles([this] {
    if (Fd >= 0)
      ::close(Fd);
    Fd = -1;
  });
}

uint64_t Wal::truncateBelow(uint64_t Barrier) {
  uint64_t Removed = 0;
  betweenCycles([&] { Removed = deleteSegmentsBelow(Barrier); });
  return Removed;
}

uint64_t Wal::deleteSegmentsBelow(uint64_t Barrier) {
  // Only durable prefixes may be dropped: a record still in a log (or
  // never fsynced at all) below the barrier would otherwise vanish from
  // both the log and the next recovery. A degraded log keeps its files
  // as evidence.
  if (DegradedFlag.load(std::memory_order_acquire) ||
      DurableLsn.load(std::memory_order_acquire) < Barrier)
    return 0;
  uint64_t Removed = 0;
  for (uint64_t First : listSegments(Cfg.Dir)) {
    if (Fd >= 0 && First >= OpenSegment)
      break; // The open segment takes the next records.
    // Records are LSN-ordered, so a segment lies at or below the barrier
    // iff its last whole record does (an empty one holds nothing).
    const std::string Path = segmentFile(Cfg.Dir, First);
    int In = ::open(Path.c_str(), O_RDONLY);
    if (In < 0)
      break;
    struct stat St {};
    WalRecord Last;
    bool Below = ::fstat(In, &St) == 0;
    const off_t End = St.st_size / off_t(sizeof(Last)) * off_t(sizeof(Last));
    if (Below && End > 0)
      Below = ::pread(In, &Last, sizeof(Last), End - off_t(sizeof(Last))) ==
                  ssize_t(sizeof(Last)) &&
              Last.Check == Last.checksum() && Last.Lsn <= Barrier;
    ::close(In);
    if (!Below || ::unlink(Path.c_str()) != 0)
      break;
    Removed += uint64_t(St.st_size);
  }
  // A deleted segment that power loss brings back holds only records the
  // checkpoint covers, which recovery skips: the sync is best-effort.
  if (Removed)
    fsyncDir(Cfg.Dir);
  return Removed;
}

//===----------------------------------------------------------------------===
// Recovery.
//===----------------------------------------------------------------------===

RecoveryStats Wal::recover(Store &S) {
  assert(!Started && "recover must run before start()");
  Stopwatch Timer;
  RecoveryStats Out;
  // Phase 0: load the newest *valid* checkpoint in the directory and
  // apply its image — the bounded-recovery baseline. A corrupt newest
  // checkpoint falls back to the older retained one (whose log suffix
  // the two-generation retention rule kept on disk), and to empty when
  // none validates; the scan below then simply replays from further
  // back. Erased keys arrive as Tombstone entries and must override
  // whatever baseline the caller prepopulated.
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
  }
  // Phase 1: one validated scan of the segments in name order, i.e. of
  // the log in commit order. It stops at the first record that is torn
  // (short, or failing its checksum — never replayed) or breaks
  // (Lsn, Index) order (a duplicated tail), at an LSN hole, and at a
  // group member out of place; the group the stop or the end of the log
  // leaves open is dropped whole. A hole is a lost group, because logged
  // LSNs are contiguous over the log's whole history (see Wal.h), so
  // contiguity is demanded from LSN 2, the log's fixed origin — or from
  // the barrier + 1 when a checkpoint loaded: records at or below it are
  // in the image and may legitimately linger (a crash between checkpoint
  // publication and truncation), so they are order-checked and kept but
  // not replayed.
  const std::vector<uint64_t> Segs = listSegments(Cfg.Dir);
  std::vector<WalRecord> Recs; // The replay set, in commit order.
  size_t Complete = 0;         // Recs' prefix of complete groups.
  uint64_t Cut = Img.Lsn;      // Highest LSN recovered.
  uint32_t GroupHave = 0;      // Members of the open group read so far.
  // The kept log ends in segment KeepSegs - 1, after KeepBytes bytes
  // (KeepSegs == 0: nothing is kept).
  size_t KeepSegs = 0;
  uint64_t KeepBytes = 0;
  WalRecord Prev{};
  std::vector<WalRecord> Chunk(4096);
  bool Stop = false;
  for (size_t I = 0; I < Segs.size() && !Stop; ++I) {
    const std::string Path = segmentFile(Cfg.Dir, Segs[I]);
    FILE *F = std::fopen(Path.c_str(), "rb");
    if (!F)
      ioFatal("open", Path); // Never guess what an unread segment held.
    uint64_t Off = 0;
    size_t N;
    while (!Stop && (N = std::fread(Chunk.data(), sizeof(WalRecord),
                                    Chunk.size(), F)) > 0) {
      for (size_t J = 0; J < N; ++J) {
        const WalRecord &R = Chunk[J];
        if (R.Check != R.checksum() || R.Lsn < Prev.Lsn ||
            (R.Lsn == Prev.Lsn && R.index() <= Prev.index())) {
          ++Out.TornRecords; // Bit-flip, zero-fill or duplicate.
          Stop = true;
          break;
        }
        // Injected recovery fault: abandon the rest of the log as if the
        // scan hit a torn record (kill mode turns this into a crash
        // during recovery — double-crash testing).
        if (faultPoint(FaultSite::RecoveryReplay)) {
          faultSpin(FaultInjector::arg(FaultSite::RecoveryReplay));
          Stop = true;
          break;
        }
        ++Out.RecordsScanned;
        Off += sizeof(WalRecord);
        if (R.Lsn <= Img.Lsn) {
          Prev = R;
          KeepSegs = I + 1;
          KeepBytes = Off;
          continue;
        }
        // A group's members are indices 0..span-1 at one LSN, and a new
        // group starts at exactly the next LSN.
        const bool InPlace =
            R.index() == GroupHave &&
            (GroupHave == 0
                 ? R.Lsn == std::max<uint64_t>(Cut, 1) + 1
                 : R.Lsn == Prev.Lsn && R.span() == Prev.span());
        Prev = R;
        if (!InPlace) {
          Stop = true;
          break;
        }
        Recs.push_back(R);
        if (++GroupHave == R.span()) {
          GroupHave = 0;
          Cut = R.Lsn;
          Complete = Recs.size();
          ++Out.TxnsReplayed;
          KeepSegs = I + 1;
          KeepBytes = Off;
        }
      }
    }
    struct stat St {};
    if (!Stop &&
        (::fstat(::fileno(F), &St) != 0 || uint64_t(St.st_size) != Off)) {
      ++Out.TornRecords; // A record cut mid-write.
      Stop = true;
    }
    std::fclose(F);
  }
  Recs.resize(Complete);
  Out.CutLsn = Cut;
  // Phase 2: replay of the prefix, fanned out by store shard. A key's
  // records all land in its shard's worker in commit order; records of
  // different shards commute.
  {
    const unsigned NumWorkers = std::max(
        1u, std::min<unsigned>(std::thread::hardware_concurrency(),
                               S.shards()));
    std::atomic<uint64_t> Failures{0};
    std::vector<std::thread> Workers;
    for (unsigned W = 0; W < NumWorkers; ++W)
      Workers.emplace_back([&, W] {
        uint64_t Failed = 0;
        for (const WalRecord &R : Recs)
          if (S.shardOf(R.Key) % NumWorkers == W)
            Failed += !(R.op() == WalOp::Put ? S.insert(R.Key, R.Val)
                                             : S.erase(R.Key));
        Failures.fetch_add(Failed, std::memory_order_relaxed);
      });
    for (std::thread &T : Workers)
      T.join();
    Out.RecordsReplayed = Recs.size();
    Out.ApplyFailures += Failures.load(std::memory_order_relaxed);
  }
  // Phase 3: the repair. Everything past the kept log goes — every later
  // segment, newest first, then the tail of the segment that holds the
  // cut — so the dropped records cannot resurface in a later recovery
  // (they would re-cut the log there and orphan everything appended
  // afterwards); a crash part-way through leaves a log that recovers to
  // the same cut. The repair must be durable before any new append can
  // be acked: after power loss a resurrected stale suffix would collide
  // with the reused LSNs of the next generation and make an acked
  // new-generation group look torn. So the truncated segment and the
  // directory are fsynced before returning, and a repair that fails is
  // fatal.
  bool Repaired = false;
  for (size_t I = Segs.size(); I-- > KeepSegs;) {
    const std::string Path = segmentFile(Cfg.Dir, Segs[I]);
    std::error_code Ec;
    const uint64_t Size = std::filesystem::file_size(Path, Ec);
    if (::unlink(Path.c_str()) != 0)
      ioFatal("unlink", Path);
    Out.TruncatedBytes += Ec ? 0 : Size;
    Repaired = true;
  }
  if (KeepSegs > 0) {
    const std::string Path = segmentFile(Cfg.Dir, Segs[KeepSegs - 1]);
    std::error_code Ec;
    const uint64_t Size = std::filesystem::file_size(Path, Ec);
    if (!Ec && Size > KeepBytes) {
      int Fd = ::open(Path.c_str(), O_WRONLY);
      if (Fd < 0 || ::ftruncate(Fd, off_t(KeepBytes)) != 0)
        ioFatal("truncate", Path);
      if (::fsync(Fd) != 0)
        ioFatal("fsync", Path);
      ::close(Fd);
      Out.TruncatedBytes += Size - KeepBytes;
      Repaired = true;
    }
  }
  if (Repaired && !fsyncDir(Cfg.Dir))
    ioFatal("directory fsync", Cfg.Dir);
  // Record the durable history's high-water mark; start() folds the live
  // publish-ticket counter into BaseLsn so the next generation's first
  // record lands exactly at cut + 1 — even though the replay transactions
  // above consumed tickets themselves under Config::SnapshotEnabled. An
  // empty or fully-cut log continues at LSN 2, the fixed origin the hole
  // rule anchors on.
  LastLsn = std::max<uint64_t>(Out.CutLsn, 1);
  // Reclamation identities must hold on the rebuilt store: every record
  // parked by a replayed erase is accounted for, nothing leaked.
  Store::ReclaimStats Rs = S.reclaimStats();
  Out.ReclaimIdentityOk =
      Rs.PoolSize == Rs.Retired - Rs.Recycled && Rs.Retired >= Rs.Recycled;
  Out.Millis = Timer.millis();
  return Out;
}
