//===- tests/kv/CheckpointRecoveryTest.cpp - Checkpoint corruption matrix -===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//
//
// The corruption matrix for checkpoint-aware recovery (DESIGN.md §14),
// extending WalRecoveryTest's golden-state method to the checkpoint
// plane. A deterministic workload builds a directory holding two
// checkpoint generations plus the compacted WAL suffix; each test damages
// a copy and recovery must land on a correct state anyway:
//
//  - torn tail / bit-flip in the newest checkpoint -> fall back to the
//    previous generation and replay the longer (retained) WAL suffix;
//  - every checkpoint corrupt where the WAL was never truncated -> plain
//    full replay, exact end state;
//  - checkpoint newer than every WAL record -> the image alone is the
//    recovered state (the suffix above the barrier is empty);
//  - crash between checkpoint publication and WAL truncation -> the
//    barrier-overlapping records are skipped, not re-applied;
//  - recover . recover == recover (repair is idempotent).
//
//===----------------------------------------------------------------------===//

#include "kv/Checkpoint.h"
#include "kv/Store.h"
#include "kv/Wal.h"

#include "rt/Heap.h"
#include "stm/Config.h"
#include "stm/Snapshot.h"

#include "gtest/gtest.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <unistd.h>

using namespace satm;
using namespace satm::kv;
using namespace satm::stm;

namespace {

namespace fs = std::filesystem;

constexpr uint32_t NumShards = 4;
constexpr Word BaseKeys = 64;     // Prepopulated (unlogged) 0..63 -> 1000.
constexpr Word KeyUniverse = 160; // Scan range for state dumps.

std::string scratchDir(const char *Name) {
  std::string Dir = "/tmp/satm-ckptrec-" + std::to_string(long(::getpid())) +
                    "-" + Name;
  fs::remove_all(Dir);
  return Dir;
}

void makeStore(rt::Heap &H, std::unique_ptr<Store> &S) {
  StoreConfig KC;
  KC.Shards = NumShards;
  KC.CapacityPerShard = 96;
  S = std::make_unique<Store>(H, KC);
}

void prepopulate(Store &S) {
  for (Word K = 0; K < BaseKeys; ++K)
    ASSERT_TRUE(S.insert(K, 1000));
}

std::map<Word, Word> dumpState(const Store &S) {
  std::map<Word, Word> Out;
  for (Word K = 0; K < KeyUniverse; ++K) {
    Word V = 0;
    if (S.get(K, V))
      Out[K] = V;
  }
  return Out;
}

/// Golden states captured as the log directory is built.
struct Built {
  std::map<Word, Word> AtCkpt2; ///< Store state when checkpoint 2 was cut.
  std::map<Word, Word> End;     ///< Final state (checkpoint 2 + suffix).
  uint64_t TotalRecords = 0;    ///< Redo records the whole run appended.
};

/// Deterministic three-phase workload: phase A, checkpoint 1, phase B,
/// checkpoint 2 (which compacts the WAL below checkpoint 1's barrier),
/// phase C. Leaves two checkpoint generations plus the suffix on disk.
/// With \p Checkpoints == 1 only checkpoint 1 is cut, so the WAL is never
/// truncated (retention waits for a second generation) — the
/// missing-checkpoint and rename-vs-truncation-crash scenarios need that
/// full log. With \p Checkpoints == 0 the directory is a plain WAL.
Built buildDir(const std::string &Dir, int Checkpoints) {
  rt::Heap H;
  std::unique_ptr<Store> S;
  makeStore(H, S);
  prepopulate(*S);

  Wal::Config WC;
  WC.Dir = Dir;
  Wal W(WC);
  W.start();
  S->attachWal(&W);
  Checkpointer::Config CC; // IntervalOps = 0: explicit runOnce only.
  Checkpointer CP(*S, W, CC);

  Built B;
  // Phase A: inserts, overwrites, erases, multi-record groups.
  for (Word K = BaseKeys; K < 96; ++K)
    EXPECT_TRUE(S->insert(K, K * 10));
  for (Word R = 0; R < 8; ++R) {
    Word Keys[2] = {R, 32 + R};
    EXPECT_TRUE(S->rmwAdd(Keys, 2, 3));
  }
  EXPECT_TRUE(S->erase(5));
  EXPECT_TRUE(S->erase(70));
  EXPECT_TRUE(S->put(8, 888));
  W.waitDurable(Wal::lastAppendedLsn());
  if (Checkpoints >= 1) {
    EXPECT_TRUE(CP.runOnce());
  }

  // Phase B: touch old keys, new keys, and re-erase territory.
  for (Word K = 96; K < 128; ++K)
    EXPECT_TRUE(S->insert(K, K + 5000));
  EXPECT_TRUE(S->put(8, 999));
  EXPECT_TRUE(S->erase(65));
  {
    Word Keys[4] = {1, 33, 97, 120};
    EXPECT_TRUE(S->rmwAdd(Keys, 4, 7));
  }
  W.waitDurable(Wal::lastAppendedLsn());
  B.AtCkpt2 = dumpState(*S);
  if (Checkpoints >= 2) {
    EXPECT_TRUE(CP.runOnce()); // Publishes gen 2, compacts below gen 1.
  }

  // Phase C: the suffix recovery must replay on top of checkpoint 2.
  for (Word K = 128; K < 144; ++K)
    EXPECT_TRUE(S->insert(K, K));
  EXPECT_TRUE(S->put(2, 2222));
  EXPECT_TRUE(S->erase(97));
  W.waitDurable(Wal::lastAppendedLsn());

  B.TotalRecords = W.stats().RecordsAppended;
  B.End = dumpState(*S);
  S->attachWal(nullptr);
  W.stop();
  return B;
}

struct Recovered {
  std::map<Word, Word> State;
  RecoveryStats Rec;
};

Recovered recoverDir(const std::string &Dir) {
  rt::Heap H;
  std::unique_ptr<Store> S;
  makeStore(H, S);
  prepopulate(*S);
  Wal::Config WC;
  WC.Dir = Dir;
  Wal W(WC);
  Recovered R;
  R.Rec = W.recover(*S);
  R.State = dumpState(*S);
  EXPECT_EQ(R.Rec.ApplyFailures, 0u);
  EXPECT_TRUE(R.Rec.ReclaimIdentityOk);
  return R;
}

/// Checkpoint files present in \p Dir, ascending by barrier LSN.
std::vector<std::string> ckptFiles(const std::string &Dir) {
  std::vector<std::string> Out;
  for (uint64_t L : ckpt::listCheckpoints(Dir))
    Out.push_back(ckpt::checkpointFile(Dir, L));
  return Out;
}

void truncateFileBy(const std::string &Path, uintmax_t Bytes) {
  uintmax_t Size = fs::file_size(Path);
  ASSERT_GT(Size, Bytes);
  fs::resize_file(Path, Size - Bytes);
}

void flipByte(const std::string &Path, uintmax_t Offset) {
  std::fstream F(Path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(F.is_open());
  F.seekg(std::streamoff(Offset));
  char C = 0;
  F.read(&C, 1);
  C ^= 0x40;
  F.seekp(std::streamoff(Offset));
  F.write(&C, 1);
}

class CheckpointRecoveryTest : public ::testing::Test {
protected:
  void SetUp() override {
    Config Cfg;
    Cfg.DeaEnabled = true;
    Cfg.SnapshotEnabled = true; // The checkpointer's scan pins an epoch.
    SC = std::make_unique<ScopedConfig>(Cfg);
  }
  void TearDown() override {
    snap::resetTable();
    for (const std::string &D : Scratch)
      fs::remove_all(D);
  }
  std::string dir(const char *Name) {
    Scratch.push_back(scratchDir(Name));
    return Scratch.back();
  }
  std::unique_ptr<ScopedConfig> SC;
  std::vector<std::string> Scratch;
};

TEST_F(CheckpointRecoveryTest, IntactDirRecoversExactlyAndBounded) {
  std::string Dir = dir("intact");
  Built B = buildDir(Dir, 2);
  ASSERT_EQ(ckptFiles(Dir).size(), 2u); // Two generations retained.

  Recovered R = recoverDir(Dir);
  EXPECT_EQ(R.State, B.End);
  EXPECT_GT(R.Rec.CheckpointLsn, 0u);
  EXPECT_GT(R.Rec.CheckpointEntries, 0u);
  EXPECT_EQ(R.Rec.CheckpointsDiscarded, 0u);
  // Bounded replay: only the phase-C suffix above checkpoint 2's barrier
  // is replayed, not the run's whole history.
  EXPECT_LT(R.Rec.RecordsReplayed, B.TotalRecords);
}

TEST_F(CheckpointRecoveryTest, TornNewestCheckpointFallsBackOneGeneration) {
  std::string Dir = dir("torn");
  Built B = buildDir(Dir, 2);
  std::vector<std::string> Files = ckptFiles(Dir);
  ASSERT_EQ(Files.size(), 2u);
  // Tear the newest checkpoint's tail: the trailer is gone, the file
  // cannot validate, and recovery must use generation 1 plus the longer
  // WAL suffix retention kept for exactly this case.
  truncateFileBy(Files[1], 40);

  Recovered R = recoverDir(Dir);
  EXPECT_EQ(R.State, B.End);
  EXPECT_EQ(R.Rec.CheckpointsDiscarded, 1u);
  EXPECT_GT(R.Rec.CheckpointLsn, 0u);
}

TEST_F(CheckpointRecoveryTest, BitFlipInNewestCheckpointFallsBack) {
  std::string Dir = dir("bitflip");
  Built B = buildDir(Dir, 2);
  std::vector<std::string> Files = ckptFiles(Dir);
  ASSERT_EQ(Files.size(), 2u);
  // Flip a byte in the middle of the entry area: that entry's checksum
  // fails and the whole file is discarded (a checkpoint is all-or-
  // nothing — applying half an image would not be a commit prefix).
  flipByte(Files[1], fs::file_size(Files[1]) / 2);

  Recovered R = recoverDir(Dir);
  EXPECT_EQ(R.State, B.End);
  EXPECT_EQ(R.Rec.CheckpointsDiscarded, 1u);
}

TEST_F(CheckpointRecoveryTest, MissingCheckpointWithIntactWalFullReplay) {
  // One checkpoint only: retention never truncated the WAL, so deleting
  // the checkpoint leaves a complete log — recovery degrades to plain
  // full replay and still lands on the exact end state.
  std::string Dir = dir("missing");
  Built B = buildDir(Dir, 1);
  std::vector<std::string> Files = ckptFiles(Dir);
  ASSERT_EQ(Files.size(), 1u);
  fs::remove(Files[0]);

  Recovered R = recoverDir(Dir);
  EXPECT_EQ(R.State, B.End);
  EXPECT_EQ(R.Rec.CheckpointLsn, 0u);
  EXPECT_EQ(R.Rec.CheckpointEntries, 0u);
  EXPECT_EQ(R.Rec.RecordsReplayed, B.TotalRecords);
}

TEST_F(CheckpointRecoveryTest, CheckpointNewerThanEveryWalRecord) {
  // Cut one checkpoint, then empty every segment (a barrier ahead of
  // every surviving record — e.g. the crash hit after an external
  // truncation finished but before new traffic arrived). The image alone
  // must be the recovered state.
  std::string Dir = dir("newer");
  rt::Heap H;
  std::unique_ptr<Store> S;
  makeStore(H, S);
  prepopulate(*S);
  Wal::Config WC;
  WC.Dir = Dir;
  std::map<Word, Word> AtCkpt;
  {
    Wal W(WC);
    W.start();
    S->attachWal(&W);
    for (Word K = BaseKeys; K < 80; ++K)
      EXPECT_TRUE(S->insert(K, K * 3));
    EXPECT_TRUE(S->erase(7));
    W.waitDurable(Wal::lastAppendedLsn());
    Checkpointer::Config CC;
    Checkpointer CP(*S, W, CC);
    EXPECT_TRUE(CP.runOnce());
    AtCkpt = dumpState(*S);
    S->attachWal(nullptr);
    W.stop();
  }
  const std::vector<uint64_t> Segs = Wal::listSegments(Dir);
  ASSERT_FALSE(Segs.empty());
  for (uint64_t First : Segs)
    fs::resize_file(Wal::segmentFile(Dir, First), 0); // Empty, not missing.

  Recovered R = recoverDir(Dir);
  EXPECT_EQ(R.State, AtCkpt);
  EXPECT_GT(R.Rec.CheckpointLsn, 0u);
  EXPECT_EQ(R.Rec.RecordsReplayed, 0u);
  EXPECT_EQ(R.Rec.TornRecords, 0u);
  EXPECT_EQ(R.Rec.CutLsn, R.Rec.CheckpointLsn);
  EXPECT_TRUE(Wal::listSegments(Dir).empty()) << "empty segments linger";
}

TEST_F(CheckpointRecoveryTest, CrashBetweenRenameAndTruncationSkipsOverlap) {
  // One checkpoint, full WAL still on disk (truncation happens one
  // generation later, so this directory *is* the crash-between-rename-
  // and-truncation state). Recovery must replay only records above the
  // barrier — double-applying the overlap would corrupt rmw results.
  std::string Dir = dir("overlap");
  Built B = buildDir(Dir, 1);
  ASSERT_EQ(ckptFiles(Dir).size(), 1u);

  Recovered R = recoverDir(Dir);
  EXPECT_EQ(R.State, B.End);
  EXPECT_GT(R.Rec.CheckpointLsn, 0u);
  EXPECT_LT(R.Rec.RecordsReplayed, B.TotalRecords);
  EXPECT_GT(R.Rec.RecordsReplayed, 0u); // Phases B and C did replay.
}

TEST_F(CheckpointRecoveryTest, RecoverOfRecoverIsIdentity) {
  // recover() repairs the directory in place; running it again over the
  // repaired state must change nothing — same cut, same store image.
  std::string Dir = dir("idem");
  Built B = buildDir(Dir, 2);
  std::vector<std::string> Files = ckptFiles(Dir);
  ASSERT_EQ(Files.size(), 2u);
  truncateFileBy(Files[1], 17); // Damage so the first pass has work.

  Recovered R1 = recoverDir(Dir);
  Recovered R2 = recoverDir(Dir);
  EXPECT_EQ(R1.State, R2.State);
  EXPECT_EQ(R1.Rec.CutLsn, R2.Rec.CutLsn);
  EXPECT_EQ(R2.State, B.End);
}

TEST_F(CheckpointRecoveryTest, AllCheckpointsCorruptUsesRetainedSuffix) {
  // Both generations corrupt: recovery falls through to Lsn 0, but the
  // WAL below generation-1's barrier was truncated — so the best the
  // suffix alone can rebuild is NOT the end state. This is the designed
  // limit of two-generation retention; what recovery must still do is
  // run to completion, count both discards, and keep the store at the
  // replayable suffix (no crash, no partial application).
  std::string Dir = dir("allbad");
  buildDir(Dir, 2);
  std::vector<std::string> Files = ckptFiles(Dir);
  ASSERT_EQ(Files.size(), 2u);
  flipByte(Files[0], fs::file_size(Files[0]) / 2);
  flipByte(Files[1], fs::file_size(Files[1]) / 2);

  Recovered R = recoverDir(Dir);
  EXPECT_EQ(R.Rec.CheckpointsDiscarded, 2u);
  EXPECT_EQ(R.Rec.CheckpointLsn, 0u);
}

} // namespace
