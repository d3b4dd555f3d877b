//===- kv/Checkpoint.cpp - Snapshot-consistent checkpoints ---------------===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//

#include "kv/Checkpoint.h"

#include "kv/Store.h"
#include "support/FaultInjector.h"
#include "support/Stopwatch.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

using namespace satm;
using namespace satm::kv;

namespace {

constexpr uint64_t HeaderMagic = 0x534154434b505431ull;  // "SATCKPT1"
constexpr uint64_t TrailerMagic = 0x534154434b50457eull; // "SATCKPE~"
constexpr uint64_t CheckpointVersion = 1;

/// Same SplitMix-style seeded combine the WAL records use, so an
/// all-zero frame or entry never checksums to zero.
uint64_t mixChecksum(const uint64_t *W, size_t N) {
  uint64_t H = 0x7c15d5a3b611f8c9ull;
  for (size_t I = 0; I < N; ++I) {
    H ^= W[I] + 0x9e3779b97f4a7c15ull + (H << 6) + (H >> 2);
    H = (H ^ (H >> 30)) * 0xbf58476d1ce4e5b9ull;
  }
  return H ^ (H >> 31);
}

uint64_t headerCheck(uint64_t Lsn) {
  const uint64_t W[3] = {HeaderMagic, CheckpointVersion, Lsn};
  return mixChecksum(W, 3);
}

uint64_t trailerCheck(uint64_t Count, uint64_t Lsn) {
  const uint64_t W[3] = {TrailerMagic, Count, Lsn};
  return mixChecksum(W, 3);
}

/// Per-entry checksum binds the pair to its ordinal and the barrier, so
/// shuffled, duplicated or cross-file-spliced entries fail too.
uint64_t entryCheck(Word Key, Word Val, uint64_t Ordinal, uint64_t Lsn) {
  const uint64_t W[4] = {Key, Val, Ordinal, Lsn};
  return mixChecksum(W, 4);
}

bool writeAll(int Fd, const uint8_t *P, size_t N) {
  size_t Off = 0;
  while (Off < N) {
    ssize_t W = ::write(Fd, P + Off, N - Off);
    if (W < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Off += size_t(W);
  }
  return true;
}

} // namespace

std::string ckpt::checkpointFile(const std::string &Dir, uint64_t Lsn) {
  return numberedFile(Dir, "ckpt-", Lsn, ".ckpt");
}

std::vector<uint64_t> ckpt::listCheckpoints(const std::string &Dir) {
  return listNumberedFiles(Dir, "ckpt-", ".ckpt");
}

bool ckpt::writeCheckpoint(const std::string &Dir, const CheckpointImage &Img,
                           std::string *Err) {
  auto Fail = [&](const char *What, const std::string &Path) {
    if (Err)
      *Err = std::string("checkpoint ") + What + " failed for '" + Path +
             "': " + std::strerror(errno);
    return false;
  };
  const std::string Path = checkpointFile(Dir, Img.Lsn);
  const std::string Tmp = Path + ".tmp";
  int Fd = ::open(Tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (Fd < 0)
    return Fail("open", Tmp);
  bool Ok = true;
  // Header, entries, trailer — buffered into one contiguous byte vector
  // so a checkpoint is a single sequential write burst.
  std::vector<uint8_t> Buf;
  Buf.reserve(32 + Img.Entries.size() * 24 + 32);
  auto PutWords = [&Buf](const uint64_t *W, size_t N) {
    const uint8_t *P = reinterpret_cast<const uint8_t *>(W);
    Buf.insert(Buf.end(), P, P + N * sizeof(uint64_t));
  };
  {
    const uint64_t H[4] = {HeaderMagic, CheckpointVersion, Img.Lsn,
                           headerCheck(Img.Lsn)};
    PutWords(H, 4);
  }
  for (size_t I = 0; I < Img.Entries.size(); ++I) {
    const uint64_t E[3] = {
        Img.Entries[I].first, Img.Entries[I].second,
        entryCheck(Img.Entries[I].first, Img.Entries[I].second, I, Img.Lsn)};
    PutWords(E, 3);
  }
  {
    const uint64_t T[4] = {TrailerMagic, Img.Entries.size(), Img.Lsn,
                           trailerCheck(Img.Entries.size(), Img.Lsn)};
    PutWords(T, 4);
  }
  // Injected ENOSPC/EIO on the data path; real write errors behave the
  // same — abandon the attempt, keep the previous checkpoint.
  if (faultPoint(FaultSite::CkptWrite)) {
    errno = ENOSPC;
    Ok = false;
  }
  if (Ok && !writeAll(Fd, Buf.data(), Buf.size()))
    Ok = false;
  if (Ok && ::fsync(Fd) < 0)
    Ok = false;
  ::close(Fd);
  if (!Ok) {
    ::unlink(Tmp.c_str());
    return Fail("write", Tmp);
  }
  // The rename is the atomic publication point: before it the file is
  // invisible to recovery (wrong suffix), after it the fully-fsynced
  // image shadows nothing until the directory entry itself is durable.
  if (faultPoint(FaultSite::CkptRename)) {
    errno = EIO;
    ::unlink(Tmp.c_str());
    return Fail("rename", Path);
  }
  if (::rename(Tmp.c_str(), Path.c_str()) < 0) {
    ::unlink(Tmp.c_str());
    return Fail("rename", Path);
  }
  // Until the directory entry is durable the checkpoint may vanish, so
  // it does not count as published (and retires no history).
  if (!fsyncDir(Dir))
    return Fail("directory fsync", Dir);
  return true;
}

bool ckpt::loadCheckpoint(const std::string &Path, uint64_t ExpectLsn,
                          CheckpointImage &Out) {
  FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return false;
  bool Ok = false;
  std::vector<std::pair<Word, Word>> Entries;
  do {
    uint64_t H[4];
    if (std::fread(H, 1, sizeof(H), F) != sizeof(H))
      break;
    if (H[0] != HeaderMagic || H[1] != CheckpointVersion ||
        H[2] != ExpectLsn || H[3] != headerCheck(H[2]))
      break;
    // Entry count comes from the trailer; derive it from the file size
    // first so a torn tail (missing/short trailer) fails cleanly here.
    std::fseek(F, 0, SEEK_END);
    long Size = std::ftell(F);
    if (Size < 64 || (Size - 64) % 24 != 0)
      break;
    const uint64_t Count = uint64_t(Size - 64) / 24;
    std::fseek(F, 32, SEEK_SET);
    Entries.reserve(Count);
    bool Damaged = false;
    for (uint64_t I = 0; I < Count; ++I) {
      uint64_t E[3];
      if (std::fread(E, 1, sizeof(E), F) != sizeof(E) ||
          E[2] != entryCheck(E[0], E[1], I, ExpectLsn)) {
        Damaged = true;
        break;
      }
      Entries.emplace_back(E[0], E[1]);
    }
    if (Damaged)
      break;
    uint64_t T[4];
    if (std::fread(T, 1, sizeof(T), F) != sizeof(T))
      break;
    if (T[0] != TrailerMagic || T[1] != Count || T[2] != ExpectLsn ||
        T[3] != trailerCheck(T[1], T[2]))
      break;
    Ok = true;
  } while (false);
  std::fclose(F);
  if (Ok) {
    Out.Lsn = ExpectLsn;
    Out.Entries = std::move(Entries);
  }
  return Ok;
}

ckpt::LoadResult ckpt::loadNewestValid(const std::string &Dir,
                                       CheckpointImage &Out) {
  LoadResult R;
  std::vector<uint64_t> Lsns = listCheckpoints(Dir);
  for (auto It = Lsns.rbegin(); It != Lsns.rend(); ++It) {
    if (loadCheckpoint(checkpointFile(Dir, *It), *It, Out)) {
      R.Loaded = true;
      return R;
    }
    ++R.Discarded;
  }
  Out.Lsn = 0;
  Out.Entries.clear();
  return R;
}

void ckpt::removeCheckpointsBelow(const std::string &Dir, uint64_t KeepLsn) {
  for (uint64_t Lsn : listCheckpoints(Dir))
    if (Lsn < KeepLsn)
      ::unlink(checkpointFile(Dir, Lsn).c_str());
}

//===----------------------------------------------------------------------===
// Checkpointer (background writer).
//===----------------------------------------------------------------------===

Checkpointer::Checkpointer(Store &S, Wal &W, const Config &C)
    : S(S), W(W), Cfg(C) {
  // Resume rotation where a previous incarnation left off: the newest
  // on-disk barrier is the generation the next one retires history
  // below (recover() already vouched for — or discarded — its content).
  std::vector<uint64_t> Lsns = ckpt::listCheckpoints(W.dir());
  if (!Lsns.empty())
    NewestLsn = Lsns.back();
}

Checkpointer::~Checkpointer() { stop(); }

void Checkpointer::start() {
  std::lock_guard<std::mutex> Lock(Mu);
  if (Running)
    return;
  Stopping = false;
  Running = true;
  LastTriggerRecords = W.stats().RecordsAppended;
  Worker = std::thread([this] { loop(); });
}

void Checkpointer::stop() {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (!Running)
      return;
    Stopping = true;
  }
  Cv.notify_all();
  Worker.join();
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Running = false;
  }
}

void Checkpointer::loop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> Lock(Mu);
      Cv.wait_for(Lock, std::chrono::milliseconds(Cfg.PollMs),
                  [&] { return Stopping; });
      if (Stopping)
        return;
    }
    if (Cfg.IntervalOps == 0)
      continue;
    const uint64_t Appended = W.stats().RecordsAppended;
    if (Appended - LastTriggerRecords < Cfg.IntervalOps)
      continue;
    LastTriggerRecords = Appended;
    std::string Err;
    if (!runOnce(&Err))
      std::fprintf(stderr, "satm: %s (previous checkpoint retained)\n",
                   Err.c_str());
  }
}

bool Checkpointer::runOnce(std::string *Err) {
  Stopwatch Timer;
  // Close the log's open segment first: every segment before the roll
  // then ends at or near the barrier pinned below, so the next
  // checkpoint's truncation deletes it whole.
  W.rollSegment();
  // Scan under one pinned epoch; the epoch→LSN conversion is exact (see
  // Wal::lsnOfTicket). The image is staged in memory so no file I/O —
  // and no fault site — runs inside the snapshot region.
  ckpt::CheckpointImage Img;
  const uint64_t Epoch = S.snapshotScan(
      [&Img](Word K, Word V) { Img.Entries.emplace_back(K, V); });
  Img.Lsn = W.lsnOfTicket(Epoch);
  if (Img.Lsn <= NewestLsn) {
    // No new history since the last barrier — a successful no-op.
    StatTotalMicros.fetch_add(uint64_t(Timer.millis() * 1000),
                              std::memory_order_relaxed);
    return true;
  }
  StatAttempts.fetch_add(1, std::memory_order_relaxed);
  std::string LocalErr;
  if (!ckpt::writeCheckpoint(W.dir(), Img, &LocalErr)) {
    StatFailures.fetch_add(1, std::memory_order_relaxed);
    StatTotalMicros.fetch_add(uint64_t(Timer.millis() * 1000),
                              std::memory_order_relaxed);
    if (Err)
      *Err = LocalErr;
    return false;
  }
  // Retire history: with Img published, the prior newest checkpoint
  // becomes the fallback generation. Older checkpoints go, and the WAL
  // loses the segments wholly below the *fallback's* barrier — the
  // suffix above it is exactly what recovery needs if Img is later found
  // corrupt. Rotation is a no-op until the second checkpoint exists.
  if (NewestLsn > 0) {
    ckpt::removeCheckpointsBelow(W.dir(), NewestLsn);
    uint64_t Removed = W.truncateBelow(NewestLsn);
    StatTruncatedBytes.fetch_add(Removed, std::memory_order_relaxed);
  }
  NewestLsn = Img.Lsn;
  StatWritten.fetch_add(1, std::memory_order_relaxed);
  StatLastLsn.store(Img.Lsn, std::memory_order_relaxed);
  StatLastEntries.store(Img.Entries.size(), std::memory_order_relaxed);
  StatTotalMicros.fetch_add(uint64_t(Timer.millis() * 1000),
                            std::memory_order_relaxed);
  return true;
}

CheckpointStats Checkpointer::stats() const {
  CheckpointStats C;
  C.Attempts = StatAttempts.load(std::memory_order_relaxed);
  C.Written = StatWritten.load(std::memory_order_relaxed);
  C.Failures = StatFailures.load(std::memory_order_relaxed);
  C.LastLsn = StatLastLsn.load(std::memory_order_relaxed);
  C.LastEntries = StatLastEntries.load(std::memory_order_relaxed);
  C.WalTruncatedBytes = StatTruncatedBytes.load(std::memory_order_relaxed);
  C.TotalMillis =
      double(StatTotalMicros.load(std::memory_order_relaxed)) / 1000.0;
  return C;
}
