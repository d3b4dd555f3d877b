//===- tests/kv/WalTest.cpp - Durability plane unit tests -----------------===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//
//
// Unit coverage of the kv::Wal building blocks (DESIGN.md §12): the
// on-disk record format and its checksum, the mode spellings the bench
// harness and schema share, the append → group-commit drain → fsync
// pipeline and its telemetry, the sync-ack waitDurable contract, the
// store-side gating that routes every write through the logged
// transactional path while a Wal is attached, and the drainer's merge of
// out-of-order per-committer logs into one commit-ordered log (with and
// without checkpoint truncation deleting its segments meanwhile). Crash
// and corruption semantics live in WalRecoveryTest / CrashRecoveryTest.
//
//===----------------------------------------------------------------------===//

#include "kv/Checkpoint.h"
#include "kv/Store.h"
#include "kv/Wal.h"

#include "stm/Config.h"
#include "stm/Snapshot.h"
#include "support/FaultInjector.h"
#include "support/Rng.h"

#include "gtest/gtest.h"

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace satm;
using namespace satm::kv;
using namespace satm::stm;

namespace {

/// Fresh scratch directory per test, wiped on construction.
std::string scratchDir(const char *Name) {
  std::string Dir = "/tmp/satm-waltest-" + std::to_string(long(::getpid())) +
                    "-" + Name;
  std::filesystem::remove_all(Dir);
  return Dir;
}

TEST(Wal, DurabilityModeSpellingsRoundTrip) {
  EXPECT_STREQ(durabilityModeName(DurabilityMode::Off), "off");
  EXPECT_STREQ(durabilityModeName(DurabilityMode::Async), "async");
  EXPECT_STREQ(durabilityModeName(DurabilityMode::Sync), "sync");
  for (DurabilityMode M :
       {DurabilityMode::Off, DurabilityMode::Async, DurabilityMode::Sync}) {
    DurabilityMode Out = DurabilityMode::Off;
    ASSERT_TRUE(parseDurabilityMode(durabilityModeName(M), Out));
    EXPECT_EQ(Out, M);
  }
  DurabilityMode Out;
  EXPECT_FALSE(parseDurabilityMode("on", Out));
  EXPECT_FALSE(parseDurabilityMode("", Out));
  EXPECT_FALSE(parseDurabilityMode(nullptr, Out));
}

TEST(Wal, RecordMetaPacksOpIndexSpan) {
  WalRecord R{};
  R.Meta = WalRecord::packMeta(WalOp::Erase, 0x123456u, 0xdeadbeefu);
  EXPECT_EQ(R.op(), WalOp::Erase);
  EXPECT_EQ(R.index(), 0x123456u);
  EXPECT_EQ(R.span(), 0xdeadbeefu);
  static_assert(sizeof(WalRecord) == 40, "on-disk format is five words");
}

TEST(Wal, ChecksumRejectsZeroFillAndBitFlips) {
  // A zero-filled record is what a torn tail on a sparse file looks like:
  // it must never validate, which is why the checksum is seeded.
  WalRecord Zero{};
  EXPECT_NE(Zero.checksum(), 0u);

  WalRecord R{};
  R.Lsn = 41;
  R.Meta = WalRecord::packMeta(WalOp::Put, 0, 1);
  R.Key = 7;
  R.Val = 7000;
  R.Check = R.checksum();
  // Any single covered word changing must be detected.
  for (uint64_t *W : {&R.Lsn, &R.Meta, &R.Key, &R.Val}) {
    *W ^= 1ull << 17;
    EXPECT_NE(R.Check, R.checksum()) << "bit flip went undetected";
    *W ^= 1ull << 17;
  }
  EXPECT_EQ(R.Check, R.checksum());
}

TEST(Wal, AppendDrainFsyncAccountsEveryRecord) {
  Config Cfg;
  Cfg.DeaEnabled = true;
  ScopedConfig SC(Cfg);

  rt::Heap H;
  StoreConfig KC;
  KC.Shards = 4;
  KC.CapacityPerShard = 64;
  Store S(H, KC);

  Wal::Config WC;
  WC.Dir = scratchDir("drain");
  Wal W(WC);
  W.start();
  S.attachWal(&W);

  constexpr Word NumKeys = 48;
  for (Word K = 0; K < NumKeys; ++K)
    ASSERT_TRUE(S.insert(K, K + 100));
  ASSERT_TRUE(S.erase(3));
  Word Keys[2] = {10, 11};
  ASSERT_TRUE(S.rmwAdd(Keys, 2, 5)); // One txn, two redo records.

  // Sync-ack contract: after waitDurable(lastAppendedLsn()) every record
  // this thread ever published is on disk.
  const uint64_t Last = Wal::lastAppendedLsn();
  ASSERT_GT(Last, 0u);
  W.waitDurable(Last);
  EXPECT_GE(W.durableLsn(), Last);

  WalStats St = W.stats();
  EXPECT_EQ(St.RecordsAppended, NumKeys + 1 + 2);
  EXPECT_EQ(St.RecordsWritten, St.RecordsAppended)
      << "a durable last LSN means no record is still parked in a ring";
  EXPECT_EQ(St.BytesWritten, St.RecordsWritten * sizeof(WalRecord));
  EXPECT_GT(St.FsyncBatches, 0u);

  S.attachWal(nullptr);
  W.stop();

  // The bytes really are in the log: one segment, named by its first
  // record, LSN 2.
  EXPECT_EQ(Wal::listSegments(WC.Dir), std::vector<uint64_t>{2});
  EXPECT_EQ(std::filesystem::file_size(Wal::segmentFile(WC.Dir, 2)),
            St.BytesWritten);
  std::filesystem::remove_all(WC.Dir);
}

TEST(Wal, AttachedStoreRefusesRawFastPaths) {
  Config Cfg;
  Cfg.DeaEnabled = true;
  ScopedConfig SC(Cfg);

  rt::Heap H;
  StoreConfig KC;
  KC.Shards = 2;
  KC.CapacityPerShard = 32;
  Store S(H, KC);
  ASSERT_TRUE(S.insert(1, 10));

  // Detached: single-key overwrite takes the raw nt fast path.
  ASSERT_TRUE(S.putFast(1, 11));

  Wal::Config WC;
  WC.Dir = scratchDir("gate");
  Wal W(WC);
  W.start();
  S.attachWal(&W);

  // Attached: the raw path refuses — an unlogged overwrite would be
  // silently undone by recovery. put() still works via the logged
  // transactional insert.
  EXPECT_FALSE(S.putFast(1, 12));
  EXPECT_TRUE(S.put(1, 12));
  Word V = 0;
  ASSERT_TRUE(S.get(1, V));
  EXPECT_EQ(V, 12u);
  EXPECT_GE(W.stats().RecordsAppended, 1u);

  S.attachWal(nullptr);
  W.stop();
  ASSERT_TRUE(S.putFast(1, 13)) << "detach restores the fast path";
  std::filesystem::remove_all(WC.Dir);
}

/// Every record of one segment, in file order (no validation).
std::vector<WalRecord> readSegment(const std::string &Path) {
  std::vector<WalRecord> Out;
  FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return Out;
  WalRecord R;
  while (std::fread(&R, 1, sizeof(R), F) == sizeof(R))
    Out.push_back(R);
  std::fclose(F);
  return Out;
}

/// Eight committer threads run multi-key groups — and one, now and then,
/// a group larger than a whole log — against tiny per-committer logs,
/// while publish_stall parks committers between ticket and done mark so
/// commits complete (and append) well out of ticket order. With
/// \p Checkpointing a ninth thread checkpoints in a loop, so every cycle
/// rolls a segment and truncateBelow deletes whole segments under the
/// running drainer. The segments, read in name order, must be one
/// (Lsn, Index)-monotone stream with contiguous, complete LSN groups from
/// at or below the last truncation barrier, and recovery must rebuild
/// the live store exactly.
void checkConcurrentCommitters(const char *Name, bool Checkpointing) {
  Config Cfg;
  Cfg.DeaEnabled = true;
  Cfg.SnapshotEnabled = Checkpointing; // The checkpoint scan needs it.
  ScopedConfig SC(Cfg);
  snap::resetTable();
  FaultConfig FC;
  FC.Seed = 3;
  FC.Prob[unsigned(FaultSite::PublishStall)] = UINT32_MAX / 16;
  FC.Arg[unsigned(FaultSite::PublishStall)] = 4000;
  FaultInjector::arm(FC);

  constexpr Word NumKeys = 256;
  auto MakeStore = [](rt::Heap &H) {
    StoreConfig KC;
    KC.Shards = 8;
    KC.CapacityPerShard = 128;
    auto S = std::make_unique<Store>(H, KC);
    for (Word K = 0; K < NumKeys; ++K)
      EXPECT_TRUE(S->insert(K, 1000 + K)); // Unlogged baseline.
    return S;
  };
  rt::Heap H;
  std::unique_ptr<Store> S = MakeStore(H);

  Wal::Config WC;
  WC.Dir = scratchDir(Name);
  WC.RingSlots = 8; // Tiny logs: constant backpressure.
  WC.FlushIntervalUs = 100;
  Wal W(WC);
  W.start();
  S->attachWal(&W);

  constexpr unsigned Threads = 8, Iters = 150;
  constexpr size_t BigGroup = 20; // More records than a whole log holds.
  std::atomic<unsigned> Running{Threads};
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      Rng R(T + 1);
      for (unsigned I = 0; I < Iters; ++I) {
        Word Keys[BigGroup], Vals[BigGroup];
        OpStatus PerKey[BigGroup];
        const size_t N = (T == 0 && I % 25 == 0) ? BigGroup : 3;
        for (size_t J = 0; J < N; ++J) {
          Keys[J] = R.nextBelow(NumKeys);
          Vals[J] = R.next() >> 1;
        }
        EXPECT_EQ(S->multiPut(Keys, Vals, N, PerKey), OpStatus::Ok);
        EXPECT_TRUE(S->rmwAdd(Keys, 1, 7));
      }
      Running.fetch_sub(1);
    });
  uint64_t TruncatedBytes = 0;
  if (Checkpointing) {
    Checkpointer CP(*S, W, Checkpointer::Config{});
    while (Running.load() != 0)
      EXPECT_TRUE(CP.runOnce());
    TruncatedBytes = CP.stats().WalTruncatedBytes;
  }
  for (std::thread &T : Pool)
    T.join();
  S->attachWal(nullptr);
  W.stop();
  FaultInjector::disarm();

  const WalStats St = W.stats();
  EXPECT_EQ(St.RecordsWritten, St.RecordsAppended);
  EXPECT_GT(St.RingStalls, 0u) << "the logs were meant to fill up";

  std::map<uint64_t, std::pair<uint32_t, uint32_t>> Groups; // Lsn -> n, span
  uint64_t Total = 0;
  WalRecord P{};
  const std::vector<uint64_t> Segs = Wal::listSegments(WC.Dir);
  for (uint64_t Seg : Segs) {
    const std::vector<WalRecord> Recs =
        readSegment(Wal::segmentFile(WC.Dir, Seg));
    ASSERT_FALSE(Recs.empty()) << "segment " << Seg;
    EXPECT_EQ(Recs.front().Lsn, Seg) << "a segment is named by its first LSN";
    for (const WalRecord &R : Recs) {
      ASSERT_EQ(R.Check, R.checksum()) << "segment " << Seg;
      ASSERT_TRUE(P.Lsn < R.Lsn || (P.Lsn == R.Lsn && P.index() < R.index()))
          << "segment " << Seg << " out of order at LSN " << R.Lsn;
      P = R;
      auto &G = Groups[R.Lsn];
      ++G.first;
      G.second = R.span();
    }
    Total += Recs.size();
  }
  ASSERT_FALSE(Groups.empty());
  // Truncation deletes whole segments, oldest first, whose records all
  // lie at or below its barrier. A roll may split a group, so the first
  // group left may have lost its head — but only at or below the last
  // barrier; every record above it must remain.
  uint64_t LastBarrier = 0;
  if (Checkpointing) {
    const std::vector<uint64_t> Ckpts = ckpt::listCheckpoints(WC.Dir);
    ASSERT_GE(Ckpts.size(), 2u);
    LastBarrier = Ckpts[Ckpts.size() - 2];
    EXPECT_GT(TruncatedBytes, 0u) << "no segment was deleted";
    EXPECT_GT(Segs.front(), 2u) << "the first segment outlived truncation";
    EXPECT_LE(Groups.begin()->first, LastBarrier + 1)
        << "records above the last barrier were deleted";
  } else {
    EXPECT_EQ(Total, St.RecordsAppended);
    EXPECT_EQ(Groups.begin()->first, 2u) << "a fresh log starts at LSN 2";
  }
  uint64_t Expect = Groups.begin()->first;
  for (const auto &[Lsn, G] : Groups) {
    EXPECT_EQ(Lsn, Expect++) << "LSN hole";
    if (Lsn != Groups.begin()->first || Lsn > LastBarrier) {
      EXPECT_EQ(G.first, G.second) << "incomplete group at LSN " << Lsn;
    }
  }

  // Recovery rebuilds the live store exactly.
  rt::Heap H2;
  std::unique_ptr<Store> S2 = MakeStore(H2);
  Wal W2(WC);
  const RecoveryStats RS = W2.recover(*S2);
  EXPECT_EQ(RS.CutLsn, Groups.rbegin()->first);
  EXPECT_EQ(RS.ApplyFailures, 0u);
  if (!Checkpointing) {
    EXPECT_EQ(RS.RecordsReplayed, Total);
  }
  for (Word K = 0; K < NumKeys; ++K) {
    Word Live = 0, Rec = 0;
    ASSERT_TRUE(S->get(K, Live));
    ASSERT_TRUE(S2->get(K, Rec));
    EXPECT_EQ(Rec, Live) << "key " << K;
  }
  snap::resetTable();
  std::filesystem::remove_all(WC.Dir);
}

TEST(Wal, ConcurrentCommittersMergeIntoOneCommitOrderedLog) {
  checkConcurrentCommitters("merge", /*Checkpointing=*/false);
}

TEST(Wal, TruncationUnderTheRunningDrainerKeepsEveryRecord) {
  checkConcurrentCommitters("truncate", /*Checkpointing=*/true);
}

} // namespace
