//===- tests/kv/WalRecoveryTest.cpp - Crash-recovery corruption matrix ----===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//
//
// The corruption matrix for Wal::recover (DESIGN.md §12): a deterministic
// single-threaded workload builds a pristine three-segment log, each test
// damages a copy of it (torn tail, bit flip, duplicated record, missing
// group member, lost first commit, lost middle segment, torn end of a
// closed segment, empty newest segment, group split across segments,
// empty log) and recovery must land on an exact *prefix of the commit
// order* — never a mix-and-match. The golden-state method makes that
// precise: recovering the damaged log must produce bit-identical store
// state to recovering an undamaged copy manually truncated at the damaged
// recovery's cut LSN. Process-kill crashes (real torn tails under fault
// injection) live in CrashRecoveryTest.
//
//===----------------------------------------------------------------------===//

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
constexpr Word BaseKeys = 64;   // Prepopulated (unlogged) 0..63 -> 1000.
constexpr Word KeyUniverse = 128; // Scan range for state dumps.

std::string scratchDir(const char *Name) {
  std::string Dir = "/tmp/satm-walrec-" + std::to_string(long(::getpid())) +
                    "-" + Name;
  fs::remove_all(Dir);
  return Dir;
}

void makeStore(rt::Heap &H, std::unique_ptr<Store> &S) {
  StoreConfig KC;
  KC.Shards = NumShards;
  KC.CapacityPerShard = 64;
  S = std::make_unique<Store>(H, KC);
}

/// The unlogged baseline every recovery starts from (mirrors kv_service:
/// prepopulation happens before the Wal is attached, so it is not in the
/// log and must be re-established before replay).
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

/// Runs the deterministic logged workload and returns the live end state.
/// Covers every record shape recovery must handle: single-record inserts
/// and overwrites, Erase records, multi-record groups (rmwAdd), and a
/// final wide group. Rolls after the inserts and after the rmwAdds leave
/// three segments: "2" (LSN 2..33), "34" (34..41, two records each) and
/// "42" (42..44, then the 8-record group at 45).
std::map<Word, Word> buildLog(const std::string &Dir) {
  rt::Heap H;
  std::unique_ptr<Store> S;
  makeStore(H, S);
  prepopulate(*S);

  Wal::Config WC;
  WC.Dir = Dir;
  Wal W(WC);
  W.start();
  S->attachWal(&W);
  auto Roll = [&W] {
    W.waitDurable(Wal::lastAppendedLsn());
    W.rollSegment();
  };

  for (Word K = BaseKeys; K < 96; ++K)
    EXPECT_TRUE(S->insert(K, K * 10));
  Roll();
  for (Word R = 0; R < 8; ++R) {
    Word Keys[2] = {R, 32 + R};
    EXPECT_TRUE(S->rmwAdd(Keys, 2, 3));
  }
  Roll();
  EXPECT_TRUE(S->erase(5));
  EXPECT_TRUE(S->erase(70));
  EXPECT_TRUE(S->put(8, 888));
  Word Fin[8] = {20, 21, 22, 23, 80, 81, 82, 83};
  EXPECT_TRUE(S->rmwAdd(Fin, 8, 1));

  W.waitDurable(Wal::lastAppendedLsn());
  S->attachWal(nullptr);
  W.stop();
  return dumpState(*S);
}

struct Recovered {
  std::map<Word, Word> State;
  RecoveryStats Rec;
};

/// Recovers \p Dir into a fresh prepopulated store. Note recover() also
/// repairs the directory in place (truncates torn/beyond-cut suffixes).
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
  return R;
}

void copyDir(const std::string &From, const std::string &To) {
  fs::remove_all(To);
  fs::copy(From, To, fs::copy_options::recursive);
}

std::vector<WalRecord> readSegment(const std::string &Path) {
  std::vector<WalRecord> Out;
  std::ifstream In(Path, std::ios::binary);
  WalRecord R;
  while (In.read(reinterpret_cast<char *>(&R), sizeof(R)))
    Out.push_back(R);
  return Out;
}

void writeSegment(const std::string &Path, const std::vector<WalRecord> &Recs,
                  std::ios::openmode Mode = std::ios::trunc) {
  std::ofstream Out(Path, std::ios::binary | Mode);
  for (const WalRecord &R : Recs)
    Out.write(reinterpret_cast<const char *>(&R), sizeof(R));
}

/// The manual truncation recovery must be equivalent to: keep only records
/// with Lsn <= Cut in every segment.
void truncateToLsn(const std::string &Dir, uint64_t Cut) {
  for (uint64_t First : Wal::listSegments(Dir)) {
    std::vector<WalRecord> Recs = readSegment(Wal::segmentFile(Dir, First));
    std::erase_if(Recs, [Cut](const WalRecord &R) { return R.Lsn > Cut; });
    writeSegment(Wal::segmentFile(Dir, First), Recs);
  }
}

/// Core check: recovering the damaged dir equals recovering a pristine
/// copy manually truncated at the damaged run's cut — an exact prefix of
/// the commit order, nothing reordered, nothing partially applied.
void expectPrefixSemantics(const std::string &Pristine,
                           const Recovered &Damaged, const char *Tag) {
  std::string Ref = scratchDir((std::string("ref-") + Tag).c_str());
  copyDir(Pristine, Ref);
  truncateToLsn(Ref, Damaged.Rec.CutLsn);
  Recovered Golden = recoverDir(Ref);
  EXPECT_EQ(Golden.Rec.TornRecords, 0u) << Tag;
  EXPECT_EQ(Damaged.State, Golden.State)
      << Tag << ": damaged recovery is not a prefix of the commit order";
  EXPECT_EQ(Damaged.Rec.ApplyFailures, 0u) << Tag;
  EXPECT_TRUE(Damaged.Rec.ReclaimIdentityOk) << Tag;
  fs::remove_all(Ref);
}

/// A second recovery of a repaired directory is clean and lands on the
/// same cut and state (recover . recover == recover).
void expectRepairIsFinal(const std::string &Dir, const Recovered &First) {
  Recovered Again = recoverDir(Dir);
  EXPECT_EQ(Again.Rec.TornRecords, 0u);
  EXPECT_EQ(Again.Rec.TruncatedBytes, 0u);
  EXPECT_EQ(Again.Rec.CutLsn, First.Rec.CutLsn);
  EXPECT_EQ(Again.State, First.State);
}

class WalRecoveryTest : public ::testing::Test {
protected:
  void SetUp() override {
    Config Cfg;
    Cfg.DeaEnabled = true;
    SC = std::make_unique<ScopedConfig>(Cfg);
    Pristine = scratchDir("pristine");
    LiveState = buildLog(Pristine);
    ASSERT_FALSE(LiveState.empty());
    ASSERT_EQ(Wal::listSegments(Pristine), (std::vector<uint64_t>{2, 34, 42}));
  }
  void TearDown() override {
    fs::remove_all(Pristine);
    fs::remove_all(Damaged);
    SC.reset();
  }

  /// Fresh damaged copy of the pristine log.
  const std::string &damagedCopy() {
    Damaged = scratchDir("damaged");
    copyDir(Pristine, Damaged);
    return Damaged;
  }

  std::unique_ptr<ScopedConfig> SC;
  std::string Pristine, Damaged;
  std::map<Word, Word> LiveState;
};

/// LSN of the final 8-record group, the newest segment's last record.
constexpr uint64_t FinalLsn = 45;

TEST_F(WalRecoveryTest, UndamagedReplayMatchesLiveStateAndIsIdempotent) {
  const std::string &D = damagedCopy(); // Not damaged: the control row.
  Recovered First = recoverDir(D);
  EXPECT_EQ(First.State, LiveState);
  EXPECT_EQ(First.Rec.TornRecords, 0u);
  EXPECT_EQ(First.Rec.ApplyFailures, 0u);
  EXPECT_TRUE(First.Rec.ReclaimIdentityOk);
  EXPECT_EQ(First.Rec.TxnsReplayed, FinalLsn - 1);
  EXPECT_EQ(First.Rec.CutLsn, FinalLsn);
  EXPECT_EQ(First.Rec.RecordsReplayed, First.Rec.RecordsScanned);

  // Recovery repaired nothing, so running it again is a no-op replay of
  // the same prefix.
  EXPECT_EQ(First.Rec.TruncatedBytes, 0u);
  expectRepairIsFinal(D, First);
}

TEST_F(WalRecoveryTest, TruncatedTailRecordIsNeverReplayed) {
  const std::string &D = damagedCopy();
  // Tear the newest segment mid-record: 13 bytes short of a full tail.
  const std::string Seg = Wal::segmentFile(D, 42);
  fs::resize_file(Seg, fs::file_size(Seg) - 13);

  Recovered R = recoverDir(D);
  EXPECT_EQ(R.Rec.TornRecords, 1u);
  EXPECT_EQ(R.Rec.CutLsn, FinalLsn - 1) << "the torn group is dropped whole";
  EXPECT_GE(R.Rec.TruncatedBytes, sizeof(WalRecord) - 13);
  expectPrefixSemantics(Pristine, R, "torn-tail");
  expectRepairIsFinal(D, R);
}

TEST_F(WalRecoveryTest, BitFlippedChecksumCutsTheLogThere) {
  const std::string &D = damagedCopy();
  std::vector<WalRecord> Recs = readSegment(Wal::segmentFile(D, 2));
  ASSERT_EQ(Recs.size(), 32u);
  Recs[16].Key ^= 1ull << 21; // LSN 18's checksum now mismatches.
  writeSegment(Wal::segmentFile(D, 2), Recs);

  Recovered R = recoverDir(D);
  // The flip kills the record and the log's entire suffix behind it,
  // later segments included.
  EXPECT_EQ(R.Rec.TornRecords, 1u);
  EXPECT_EQ(R.Rec.CutLsn, 17u);
  EXPECT_EQ(Wal::listSegments(D), std::vector<uint64_t>{2});
  expectPrefixSemantics(Pristine, R, "bit-flip");
  expectRepairIsFinal(D, R);
}

TEST_F(WalRecoveryTest, DuplicatedTailRecordIsRejectedNotReplayedTwice) {
  const std::string &D = damagedCopy();
  std::vector<WalRecord> Recs = readSegment(Wal::segmentFile(D, 42));
  ASSERT_FALSE(Recs.empty());
  // A re-sent tail: checksum-valid, but (Lsn, Index) does not advance.
  writeSegment(Wal::segmentFile(D, 42), {Recs.back()}, std::ios::app);

  Recovered R = recoverDir(D);
  EXPECT_EQ(R.Rec.TornRecords, 1u);
  // The duplicate is dropped as torn; everything real still replays.
  EXPECT_EQ(R.Rec.CutLsn, FinalLsn);
  EXPECT_EQ(R.Rec.TruncatedBytes, sizeof(WalRecord));
  EXPECT_EQ(R.State, LiveState);
  expectRepairIsFinal(D, R);
}

TEST_F(WalRecoveryTest, MissingGroupMemberCutsBeforeTheGroup) {
  const std::string &D = damagedCopy();
  // Drop one member from the middle of the final 8-record group.
  std::vector<WalRecord> Recs = readSegment(Wal::segmentFile(D, 42));
  ASSERT_EQ(Recs.size(), 11u);
  ASSERT_EQ(Recs[6].Lsn, FinalLsn);
  ASSERT_EQ(Recs[6].index(), 3u);
  Recs.erase(Recs.begin() + 6);
  writeSegment(Wal::segmentFile(D, 42), Recs);

  Recovered R = recoverDir(D);
  // The group is incomplete, so no part of it may replay — and recovery
  // must truncate away the members that *did* survive.
  EXPECT_EQ(R.Rec.CutLsn, FinalLsn - 1);
  EXPECT_EQ(R.Rec.TruncatedBytes, 7 * sizeof(WalRecord));
  expectPrefixSemantics(Pristine, R, "missing-member");
  for (const WalRecord &Rec : readSegment(Wal::segmentFile(D, 42)))
    EXPECT_LT(Rec.Lsn, FinalLsn) << "surviving member not truncated";
  expectRepairIsFinal(D, R);
}

TEST_F(WalRecoveryTest, CorruptedFirstCommitCutsToEmptyNotAMidLogSuffix) {
  const std::string &D = damagedCopy();
  // The log's first commit (LSN 2, buildLog's first single-record
  // insert) is the first segment's first record. Flip a bit in it: LSN
  // 3+ are all intact, but replaying them would not be a prefix of the
  // commit order — the cut must land before the lost first commit, i.e.
  // replay nothing at all.
  std::vector<WalRecord> Recs = readSegment(Wal::segmentFile(D, 2));
  ASSERT_EQ(Recs.front().Lsn, 2u);
  Recs.front().Val ^= 1ull << 13;
  writeSegment(Wal::segmentFile(D, 2), Recs);

  Recovered R = recoverDir(D);
  EXPECT_EQ(R.Rec.TornRecords, 1u);
  EXPECT_EQ(R.Rec.RecordsReplayed, 0u);
  EXPECT_EQ(R.Rec.TxnsReplayed, 0u);
  EXPECT_EQ(R.Rec.CutLsn, 0u);
  expectPrefixSemantics(Pristine, R, "first-commit-lost");
  // The repair deleted every segment; a second recovery is a clean
  // empty-log pass.
  EXPECT_TRUE(Wal::listSegments(D).empty());
  Recovered Again = recoverDir(D);
  EXPECT_EQ(Again.Rec.RecordsScanned, 0u);
  EXPECT_EQ(Again.Rec.TornRecords, 0u);
  EXPECT_EQ(Again.State, R.State);
}

TEST_F(WalRecoveryTest, LostMiddleSegmentCutsAtTheLsnHole) {
  const std::string &D = damagedCopy();
  // Every record left is intact, but LSNs 34..41 are gone: replaying the
  // newest segment would skip eight commits.
  fs::remove(Wal::segmentFile(D, 34));

  Recovered R = recoverDir(D);
  EXPECT_EQ(R.Rec.TornRecords, 0u);
  EXPECT_EQ(R.Rec.CutLsn, 33u);
  EXPECT_EQ(Wal::listSegments(D), std::vector<uint64_t>{2});
  expectPrefixSemantics(Pristine, R, "lost-segment");
  expectRepairIsFinal(D, R);
}

TEST_F(WalRecoveryTest, TornEndOfAClosedSegmentDeletesEveryLaterSegment) {
  const std::string &D = damagedCopy();
  // Tear the last record of the middle segment, the second member of
  // the rmwAdd group at LSN 41. The newest segment is intact and would
  // otherwise lie behind the cut: left on disk, it would sit between the
  // next generation's segments and cut them off at the next recovery.
  const std::string Seg = Wal::segmentFile(D, 34);
  fs::resize_file(Seg, fs::file_size(Seg) - 13);

  Recovered R = recoverDir(D);
  EXPECT_EQ(R.Rec.TornRecords, 1u);
  EXPECT_EQ(R.Rec.CutLsn, 40u);
  EXPECT_EQ(Wal::listSegments(D), (std::vector<uint64_t>{2, 34}));
  EXPECT_EQ(readSegment(Seg).size(), 14u) << "LSN 41's first member stays";
  expectPrefixSemantics(Pristine, R, "torn-closed-segment");
  expectRepairIsFinal(D, R);
}

TEST_F(WalRecoveryTest, EmptyNewestSegmentFromARollRecoversClean) {
  const std::string &D = damagedCopy();
  // A crash right after a roll created the next segment, before any
  // record reached it.
  writeSegment(Wal::segmentFile(D, FinalLsn + 1), {});

  Recovered R = recoverDir(D);
  EXPECT_EQ(R.Rec.TornRecords, 0u);
  EXPECT_EQ(R.Rec.CutLsn, FinalLsn);
  EXPECT_EQ(R.Rec.RecordsReplayed, R.Rec.RecordsScanned);
  EXPECT_EQ(R.State, LiveState);
  expectRepairIsFinal(D, R);
}

TEST_F(WalRecoveryTest, GroupSplitAcrossSegmentsReplaysWholeOrNotAtAll) {
  const std::string &D = damagedCopy();
  // A roll between two drain cycles can split a group: move the final
  // group's members 4..7 into a segment of their own, named by their LSN.
  std::vector<WalRecord> Recs = readSegment(Wal::segmentFile(D, 42));
  ASSERT_EQ(Recs.size(), 11u);
  ASSERT_EQ(Recs[7].index(), 4u);
  writeSegment(Wal::segmentFile(D, FinalLsn), {Recs.begin() + 7, Recs.end()});
  Recs.resize(7);
  writeSegment(Wal::segmentFile(D, 42), Recs);

  Recovered Whole = recoverDir(D);
  EXPECT_EQ(Whole.Rec.TornRecords, 0u);
  EXPECT_EQ(Whole.Rec.CutLsn, FinalLsn);
  EXPECT_EQ(Whole.State, LiveState);
  EXPECT_EQ(Whole.Rec.TruncatedBytes, 0u);

  // Lose the second half: the first half must not replay either.
  fs::remove(Wal::segmentFile(D, FinalLsn));
  Recovered Cut = recoverDir(D);
  EXPECT_EQ(Cut.Rec.CutLsn, FinalLsn - 1);
  EXPECT_EQ(Cut.Rec.TruncatedBytes, 4 * sizeof(WalRecord));
  expectPrefixSemantics(Pristine, Cut, "split-group");
  expectRepairIsFinal(D, Cut);
}

// Regression: under Config::SnapshotEnabled every writing commit consumes
// a publish ticket — including recover()'s own replay transactions and any
// pre-attach prepopulation. The LSN base must absorb those (it is derived
// from the live ticket counter at start()), or the first post-recovery
// record lands past cut + 1 and the next recovery's hole rule silently
// cuts away the entire fsync-acked second generation.
TEST(WalSnapshotRecoveryTest, RecoverThenLogUnderSnapshotModeStaysContiguous) {
  Config Cfg;
  Cfg.DeaEnabled = true;
  Cfg.SnapshotEnabled = true;
  ScopedConfig SC(Cfg);
  std::string Dir = scratchDir("snapgen");

  // Generation 1: prepopulate (ticket-consuming, unlogged), then log.
  {
    rt::Heap H;
    std::unique_ptr<Store> S;
    makeStore(H, S);
    prepopulate(*S);
    Wal::Config WC;
    WC.Dir = Dir;
    Wal W(WC);
    W.start();
    S->attachWal(&W);
    for (Word K = BaseKeys; K < BaseKeys + 16; ++K)
      EXPECT_TRUE(S->insert(K, K * 10));
    W.waitDurable(Wal::lastAppendedLsn());
    S->attachWal(nullptr);
    W.stop();
    snap::resetTable();
  }
  // Generation 2: recover (replay consumes tickets), keep logging on the
  // same instance, and remember the acked high-water mark.
  std::map<Word, Word> Live;
  uint64_t Gen2Last = 0;
  uint64_t Gen1Cut = 0;
  {
    rt::Heap H;
    std::unique_ptr<Store> S;
    makeStore(H, S);
    prepopulate(*S);
    Wal::Config WC;
    WC.Dir = Dir;
    Wal W(WC);
    RecoveryStats Rec = W.recover(*S);
    ASSERT_EQ(Rec.ApplyFailures, 0u);
    ASSERT_GT(Rec.TxnsReplayed, 0u);
    Gen1Cut = Rec.CutLsn;
    W.start();
    S->attachWal(&W);
    for (Word K = BaseKeys + 16; K < BaseKeys + 32; ++K)
      EXPECT_TRUE(S->insert(K, K * 10));
    EXPECT_TRUE(S->erase(3));
    Word Keys[2] = {1, 2};
    EXPECT_TRUE(S->rmwAdd(Keys, 2, 5));
    Gen2Last = Wal::lastAppendedLsn();
    W.waitDurable(Gen2Last);
    S->attachWal(nullptr);
    W.stop();
    Live = dumpState(*S);
    snap::resetTable();
  }
  // The second generation continued at exactly cut + 1: 18 commits (16
  // inserts, one erase, one rmwAdd — whose two records share one LSN).
  EXPECT_EQ(Gen2Last, Gen1Cut + 18);
  // Generation 3: a final recovery replays *everything* — an LSN gap
  // between the generations would have cut generation 2 away entirely.
  Recovered R = recoverDir(Dir);
  EXPECT_EQ(R.Rec.TornRecords, 0u);
  EXPECT_EQ(R.Rec.CutLsn, Gen2Last);
  EXPECT_EQ(R.Rec.RecordsReplayed, R.Rec.RecordsScanned);
  EXPECT_EQ(R.Rec.ApplyFailures, 0u);
  EXPECT_EQ(R.State, Live);
  snap::resetTable();
  fs::remove_all(Dir);
}

TEST_F(WalRecoveryTest, EmptyLogReplaysNothing) {
  std::string Empty = scratchDir("empty");
  fs::create_directories(Empty);
  Recovered R = recoverDir(Empty);
  EXPECT_EQ(R.Rec.RecordsScanned, 0u);
  EXPECT_EQ(R.Rec.RecordsReplayed, 0u);
  EXPECT_EQ(R.Rec.TxnsReplayed, 0u);
  EXPECT_EQ(R.Rec.CutLsn, 0u);
  EXPECT_TRUE(R.Rec.ReclaimIdentityOk);
  // State is exactly the unlogged baseline.
  ASSERT_EQ(R.State.size(), size_t(BaseKeys));
  for (const auto &[K, V] : R.State) {
    EXPECT_LT(K, BaseKeys);
    EXPECT_EQ(V, 1000u);
  }
  fs::remove_all(Empty);
}

} // namespace
