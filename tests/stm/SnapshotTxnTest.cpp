//===- tests/stm/SnapshotTxnTest.cpp - Snapshot read plane tests ---------===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//
//
// Unit and stress tests for the multi-version snapshot plane (DESIGN.md
// §10): wait-free read-only regions (zero aborts, zero record CASes),
// epoch pinning against concurrent committers on both the eager and lazy
// planes, first-committer-wins for snapshot writes, chain pruning bounds,
// slot recycling under >MaxThreads thread churn, and the seeded
// fault-injection lane (heap_alloc on the version-node allocations,
// quiesce_stall on the commit-time scans). The whole file must be
// TSan-clean — the snapshot read protocol's only synchronization is
// release/acquire on chain links, and TSan is the proof.
//
//===----------------------------------------------------------------------===//

#include "rt/Heap.h"
#include "stm/LazyTxn.h"
#include "stm/Quiesce.h"
#include "stm/Snapshot.h"
#include "stm/Stats.h"
#include "stm/Txn.h"
#include "support/FaultInjector.h"
#include "support/Rng.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <latch>
#include <thread>
#include <vector>

#include <sched.h>

using namespace satm;
using namespace satm::rt;
using namespace satm::stm;

namespace {

const TypeDescriptor CellType("Cell", 1, {});
const TypeDescriptor PairType("Pair", 2, {});

bool fastTests() {
  const char *Env = std::getenv("SATM_FAST_TESTS");
  return Env && Env[0] == '1';
}

/// Pins the calling thread to CPU \p K modulo the CPU count (a no-op on
/// one CPU, or if the affinity call fails).
void pinToCpu(unsigned K) {
  unsigned N = std::thread::hardware_concurrency();
  if (N < 2)
    return;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  CPU_SET(K % N, &Set);
  sched_setaffinity(0, sizeof(Set), &Set);
}

class SnapshotTxnTest : public ::testing::Test {
protected:
  SnapshotTxnTest() {
    Config C;
    C.SnapshotEnabled = true;
    SC = std::make_unique<ScopedConfig>(C);
    statsReset();
  }
  ~SnapshotTxnTest() override {
    // Free the version chains of this fixture's heap before it dies, so
    // each test starts with an empty directory.
    snap::resetTable();
  }
  std::unique_ptr<ScopedConfig> SC;
  Heap H;
};

TEST_F(SnapshotTxnTest, ReadsCommittedState) {
  Object *X = H.allocate(&CellType, BirthState::Shared);
  atomically([&] { Txn::forThisThread().write(X, 0, 42); });
  Word Seen = 0;
  bool Ok = Txn::runSnapshot([&] { Seen = Txn::forThisThread().read(X, 0); });
  EXPECT_TRUE(Ok);
  EXPECT_EQ(Seen, 42u);
}

TEST_F(SnapshotTxnTest, ChainlessObjectReadsInPlace) {
  // Never transactionally written: no version chain, the snapshot read
  // falls back to the in-place value (the documented nt caveat).
  Object *X = H.allocate(&CellType, BirthState::Shared);
  X->rawStore(0, 7);
  Word Seen = 0;
  Txn::runSnapshot([&] { Seen = Txn::forThisThread().read(X, 0); });
  EXPECT_EQ(Seen, 7u);
  EXPECT_EQ(snap::chainLength(X), 0u);
}

TEST_F(SnapshotTxnTest, ReadOnlySnapshotNeverAbortsNorCASes) {
  Object *X = H.allocate(&CellType, BirthState::Shared);
  atomically([&] { Txn::forThisThread().write(X, 0, 5); });
  statsReset();
  Word RecordBefore = X->txRecord().load();
  for (int I = 0; I < 100; ++I)
    Txn::runSnapshot([&] { Txn::forThisThread().read(X, 0); });
  // The record word is untouched: a snapshot read performs no ownership
  // CAS, not even a transient acquire/release pair.
  EXPECT_EQ(X->txRecord().load(), RecordBefore);
  StatsCounters S = statsSnapshot();
  EXPECT_EQ(S.SnapshotTxns, 100u);
  EXPECT_EQ(S.SnapshotReads, 100u);
  EXPECT_EQ(S.TxnAborts, 0u);
  EXPECT_EQ(S.TxnCommits, 0u); // Read-only snapshots are not txn commits.
}

TEST_F(SnapshotTxnTest, PinnedEpochIsolatesFromLaterCommits) {
  Object *X = H.allocate(&CellType, BirthState::Shared);
  atomically([&] { Txn::forThisThread().write(X, 0, 1); });
  Word First = 0, Second = 0;
  Txn::runSnapshot([&] {
    Txn &T = Txn::forThisThread();
    First = T.read(X, 0);
    // A full commit lands while we are pinned...
    std::thread W([&] {
      atomically([&] { Txn::forThisThread().write(X, 0, 2); });
    });
    W.join();
    EXPECT_EQ(X->rawLoad(0), 2u); // ...and is in memory,
    Second = T.read(X, 0);        // but not in our snapshot.
  });
  EXPECT_EQ(First, 1u);
  EXPECT_EQ(Second, 1u);
  Word Fresh = 0;
  Txn::runSnapshot([&] { Fresh = Txn::forThisThread().read(X, 0); });
  EXPECT_EQ(Fresh, 2u);
}

TEST_F(SnapshotTxnTest, LazyCommitsPublishToTheSnapshotPlane) {
  Object *X = H.allocate(&CellType, BirthState::Shared);
  atomicallyLazy([&] { LazyTxn::forThisThread().write(X, 0, 11); });
  Word First = 0, Second = 0;
  Txn::runSnapshot([&] {
    Txn &T = Txn::forThisThread();
    First = T.read(X, 0);
    std::thread W([&] {
      atomicallyLazy([&] { LazyTxn::forThisThread().write(X, 0, 12); });
    });
    W.join();
    Second = T.read(X, 0);
  });
  EXPECT_EQ(First, 11u);
  EXPECT_EQ(Second, 11u); // Lazy write-back respected the pin too.
}

TEST_F(SnapshotTxnTest, ReadYourOwnSnapshotWrites) {
  Object *X = H.allocate(&CellType, BirthState::Shared);
  atomically([&] { Txn::forThisThread().write(X, 0, 3); });
  Word BeforeWrite = 0, AfterWrite = 0;
  bool Ok = Txn::runSnapshot([&] {
    Txn &T = Txn::forThisThread();
    BeforeWrite = T.read(X, 0);
    T.write(X, 0, 99);
    AfterWrite = T.read(X, 0);
  });
  EXPECT_TRUE(Ok);
  EXPECT_EQ(BeforeWrite, 3u);
  EXPECT_EQ(AfterWrite, 99u);
  EXPECT_EQ(X->rawLoad(0), 99u);
}

TEST_F(SnapshotTxnTest, FirstCommitterWinsAbortsTheSnapshotWriter) {
  Object *X = H.allocate(&CellType, BirthState::Shared);
  X->rawStore(0, 1);
  statsReset();
  int Attempt = 0;
  bool Ok = Txn::runSnapshot([&] {
    Txn &T = Txn::forThisThread();
    Word V = T.read(X, 0);
    if (++Attempt == 1) {
      // A conflicting commit lands between our pin and our write: the
      // snapshot attempt must lose (first committer wins) and retry
      // against a fresh epoch.
      std::thread W([&] {
        atomically([&] {
          Txn &U = Txn::forThisThread();
          U.write(X, 0, U.read(X, 0) + 10);
        });
      });
      W.join();
    }
    T.write(X, 0, V + 1);
  });
  EXPECT_TRUE(Ok);
  EXPECT_EQ(Attempt, 2);
  EXPECT_EQ(X->rawLoad(0), 12u); // 1 -> 11 (committer), 11 -> 12 (retry).
  StatsCounters S = statsSnapshot();
  EXPECT_GE(S.AbortReasons[unsigned(AbortReason::WriteLockConflict)], 1u);
}

TEST_F(SnapshotTxnTest, ChainStaysBoundedWithoutPinnedReaders) {
  Object *X = H.allocate(&CellType, BirthState::Shared);
  for (int I = 0; I < 200; ++I)
    atomically([&] { Txn::forThisThread().write(X, 0, Word(I)); });
  // No reader is pinned: each publication prunes everything below the
  // stable epoch, so the chain is the new node plus one stop node.
  EXPECT_LE(snap::chainLength(X), 2u);
  StatsCounters S = statsSnapshot();
  EXPECT_GE(S.SnapshotNodesFreed, 100u);
}

TEST_F(SnapshotTxnTest, PinnedReaderRetainsItsVersion) {
  Object *X = H.allocate(&CellType, BirthState::Shared);
  atomically([&] { Txn::forThisThread().write(X, 0, 1000); });
  Txn::runSnapshot([&] {
    Txn &T = Txn::forThisThread();
    EXPECT_EQ(T.read(X, 0), 1000u);
    std::thread W([&] {
      for (int I = 0; I < 50; ++I)
        atomically([&] { Txn::forThisThread().write(X, 0, Word(I)); });
    });
    W.join();
    // 50 commits later the pinned version must still be reachable. The
    // chain retains the versions committed while we are pinned (immediate
    // reclamation cannot free nodes a pinned walker may still traverse).
    EXPECT_EQ(T.read(X, 0), 1000u);
    EXPECT_GE(snap::chainLength(X), 50u);
  });
  // Pin released: the first publish afterwards collapses the chain to the
  // newest node plus its stop node.
  atomically([&] { Txn::forThisThread().write(X, 0, 2000); });
  EXPECT_LE(snap::chainLength(X), 2u);
}

TEST_F(SnapshotTxnTest, SnapshotSumInvariantUnderConcurrentTransfers) {
  // Conservation: transfers move value between X and Y transactionally;
  // every snapshot must observe X + Y == Total regardless of interleaving.
  constexpr Word Total = 1000;
  Object *X = H.allocate(&CellType, BirthState::Shared);
  Object *Y = H.allocate(&CellType, BirthState::Shared);
  atomically([&] {
    Txn &T = Txn::forThisThread();
    T.write(X, 0, Total);
    T.write(Y, 0, 0);
  });
  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> BadSnapshots{0};
  std::thread Writer([&] {
    for (int I = 0; I < 4000; ++I)
      atomically([&] {
        Txn &T = Txn::forThisThread();
        Word A = T.read(X, 0);
        if (A > 0) {
          T.write(X, 0, A - 1);
          T.write(Y, 0, T.read(Y, 0) + 1);
        }
      });
    Stop.store(true, std::memory_order_release);
  });
  std::vector<std::thread> Readers;
  for (int R = 0; R < 3; ++R)
    Readers.emplace_back([&] {
      while (!Stop.load(std::memory_order_acquire))
        Txn::runSnapshot([&] {
          Txn &T = Txn::forThisThread();
          Word Sum = T.read(X, 0) + T.read(Y, 0);
          if (Sum != Total)
            BadSnapshots.fetch_add(1, std::memory_order_relaxed);
        });
    });
  Writer.join();
  for (auto &T : Readers)
    T.join();
  EXPECT_EQ(BadSnapshots.load(), 0u);
}

TEST_F(SnapshotTxnTest, SlotRecyclingChurnNeverTearsASnapshot) {
  // ThreadChurn-style: far more reader/writer threads than MaxThreads, so
  // quiescence slots — including the PinnedEpoch field — are recycled many
  // times over. A stale pin left in a recycled slot would either leak
  // chain nodes or (zeroed too early) let a publisher reclaim a version a
  // live reader still needs; the invariant check catches both.
  constexpr Word Total = 64;
  Object *X = H.allocate(&PairType, BirthState::Shared);
  atomically([&] {
    Txn &T = Txn::forThisThread();
    T.write(X, 0, Total);
    T.write(X, 1, 0);
  });
  constexpr unsigned BatchSize = 8;
  constexpr unsigned Batches = 80; // 640 threads > MaxThreads = 512.
  static_assert(BatchSize * Batches > Quiescence::MaxThreads,
                "churn must exceed the registry capacity");
  std::atomic<uint64_t> BadSnapshots{0};
  const unsigned LiveBefore = Quiescence::liveSlots();
  for (unsigned B = 0; B < Batches; ++B) {
    std::vector<std::thread> Ts;
    for (unsigned I = 0; I < BatchSize; ++I)
      Ts.emplace_back([&, I] {
        if (I % 2 == 0) {
          atomically([&] {
            Txn &T = Txn::forThisThread();
            Word A = T.read(X, 0);
            if (A > 0) {
              T.write(X, 0, A - 1);
              T.write(X, 1, T.read(X, 1) + 1);
            }
          });
        }
        for (int R = 0; R < 4; ++R)
          Txn::runSnapshot([&] {
            Txn &T = Txn::forThisThread();
            if (T.read(X, 0) + T.read(X, 1) != Total)
              BadSnapshots.fetch_add(1, std::memory_order_relaxed);
          });
      });
    for (auto &T : Ts)
      T.join();
  }
  EXPECT_EQ(BadSnapshots.load(), 0u);
  EXPECT_EQ(Quiescence::liveSlots(), LiveBefore);
  EXPECT_LE(Quiescence::peakSlots(), Quiescence::MaxThreads);
}

TEST_F(SnapshotTxnTest, HeapAllocFaultsUnwindCleanly) {
  // Seeded heap_alloc faults hit the version-node allocations (base-node
  // install at acquire, publication at commit). Every hit must unwind as a
  // clean FaultInjected abort and retry to success.
  Object *X = H.allocate(&CellType, BirthState::Shared);
  Object *Y = H.allocate(&CellType, BirthState::Shared);
  statsReset();
  FaultConfig FC;
  std::string Err;
  ASSERT_TRUE(FaultInjector::parse("seed=7,heap_alloc=0.4", FC, Err)) << Err;
  FaultInjector::arm(FC);
  for (int I = 0; I < 60; ++I) {
    atomically([&] {
      Txn &T = Txn::forThisThread();
      T.write(X, 0, Word(I));
    });
    Txn::runSnapshot([&] {
      Txn &T = Txn::forThisThread();
      T.write(Y, 0, T.read(X, 0));
    });
  }
  FaultInjector::disarm();
  EXPECT_GT(FaultInjector::firedCount(FaultSite::HeapAlloc), 0u);
  EXPECT_EQ(X->rawLoad(0), 59u);
  EXPECT_EQ(Y->rawLoad(0), 59u);
  StatsCounters S = statsSnapshot();
  EXPECT_GE(S.AbortReasons[unsigned(AbortReason::FaultInjected)], 1u);
}

TEST_F(SnapshotTxnTest, QuiesceStallFaultsWithPinnedReaders) {
  // quiesce_stall delays the commit-time scans while snapshot readers are
  // pinned (QuiesceOnCommit makes every committer run the scan and wait
  // out the unvalidatable readers). Nothing may tear or deadlock.
  Config C = config();
  C.QuiesceOnCommit = true;
  ScopedConfig SC2(C);
  constexpr Word Total = 128;
  Object *X = H.allocate(&PairType, BirthState::Shared);
  atomically([&] {
    Txn &T = Txn::forThisThread();
    T.write(X, 0, Total);
    T.write(X, 1, 0);
  });
  FaultConfig FC;
  std::string Err;
  ASSERT_TRUE(
      FaultInjector::parse("seed=11,quiesce_stall=0.3:64", FC, Err))
      << Err;
  FaultInjector::arm(FC);
  std::atomic<uint64_t> BadSnapshots{0};
  std::thread Writer([&] {
    for (int I = 0; I < 300; ++I)
      atomically([&] {
        Txn &T = Txn::forThisThread();
        Word A = T.read(X, 0);
        if (A > 0) {
          T.write(X, 0, A - 1);
          T.write(X, 1, T.read(X, 1) + 1);
        }
      });
  });
  std::thread Reader([&] {
    for (int I = 0; I < 300; ++I)
      Txn::runSnapshot([&] {
        Txn &T = Txn::forThisThread();
        if (T.read(X, 0) + T.read(X, 1) != Total)
          BadSnapshots.fetch_add(1, std::memory_order_relaxed);
      });
  });
  Writer.join();
  Reader.join();
  FaultInjector::disarm();
  EXPECT_EQ(BadSnapshots.load(), 0u);
}

TEST_F(SnapshotTxnTest, SerialIrrevocableCommitsPublish) {
  Config C = config();
  C.IrrevocableAfterAborts = 1;
  ScopedConfig SC2(C);
  Object *X = H.allocate(&CellType, BirthState::Shared);
  statsReset();
  int Attempts = 0;
  atomically([&] {
    Txn &T = Txn::forThisThread();
    T.write(X, 0, 77);
    if (++Attempts == 1)
      T.abortRestart(); // Consecutive abort -> next attempt goes serial.
  });
  StatsCounters S = statsSnapshot();
  EXPECT_GE(S.SerialModeEntries, 1u);
  EXPECT_GE(S.SnapshotPublishes, 1u); // The serial commit published too.
  Word Seen = 0;
  Txn::runSnapshot([&] { Seen = Txn::forThisThread().read(X, 0); });
  EXPECT_EQ(Seen, 77u);
}

TEST_F(SnapshotTxnTest, StaleIndexAfterResetReadsAsChainless) {
  // resetTable frees the directory but cannot reach the headers, so X
  // keeps its old version index, and Y, the first object chained after
  // the reset, takes that same entry. The entry's back-pointer must tell
  // them apart: X reads as chain-less (its in-place value) until its next
  // commit installs an entry of its own.
  snap::resetTable();
  Object *X = H.allocate(&CellType, BirthState::Shared);
  Object *Y = H.allocate(&CellType, BirthState::Shared);
  atomically([&] { Txn::forThisThread().write(X, 0, 11); });
  snap::resetTable();
  atomically([&] { Txn::forThisThread().write(Y, 0, 22); });
  ASSERT_NE(X->versionIndex(), 0u);
  ASSERT_EQ(X->versionIndex(), Y->versionIndex())
      << "Y must take the entry X's stale index names";
  Word SeenX = 0, SeenY = 0;
  auto ReadBoth = [&] {
    Txn::runSnapshot([&] {
      Txn &T = Txn::forThisThread();
      SeenX = T.read(X, 0);
      SeenY = T.read(Y, 0);
    });
  };
  ReadBoth();
  EXPECT_EQ(SeenX, 11u);
  EXPECT_EQ(SeenY, 22u);
  EXPECT_FALSE(snap::hasChain(X));
  EXPECT_EQ(snap::chainLength(X), 0u);
  EXPECT_EQ(snap::newestEpoch(X), 0u);

  atomically([&] { Txn::forThisThread().write(X, 0, 33); });
  EXPECT_NE(X->versionIndex(), Y->versionIndex());
  EXPECT_GE(snap::chainLength(X), 1u);
  EXPECT_GT(snap::newestEpoch(X), 0u);
  ReadBoth();
  EXPECT_EQ(SeenX, 33u);
  EXPECT_EQ(SeenY, 22u);
}

TEST_F(SnapshotTxnTest, ConcurrentFirstChainsKeepTheirOwnEntries) {
  // Writers take objects from a shared cursor and chain each for the
  // first time, so neighbouring directory entries (and the first entries
  // of each new segment) are claimed by racing writers, across several
  // segments. Snapshot readers meanwhile read just behind the cursor,
  // where chains are being created, and check that every value carries
  // its own object's tag and that both slots of one version agree. Each
  // thread has its own CPU where there are enough: left to the scheduler,
  // the writers of so short a run tend to share one and take turns, and
  // the segment-install race never happens.
  const unsigned NumObjects = fastTests() ? 10000 : 40000;
  constexpr unsigned Writers = 2;
  constexpr unsigned Readers = 2;
  auto Tag = [](unsigned I, Word V) { return (Word(I) << 32) | V; };
  std::vector<Object *> Objs(NumObjects);
  for (unsigned I = 0; I < NumObjects; ++I) {
    Objs[I] = H.allocate(&PairType, BirthState::Shared);
    Objs[I]->rawStore(0, Tag(I, 0));
    Objs[I]->rawStore(1, Tag(I, 0));
  }
  std::atomic<unsigned> Cursor{0};
  std::atomic<unsigned> WritersDone{0};
  std::atomic<uint64_t> Bad{0};
  std::latch Start(Writers + Readers);
  std::vector<std::thread> Ts;
  for (unsigned W = 0; W < Writers; ++W)
    Ts.emplace_back([&, W] {
      pinToCpu(W);
      Start.arrive_and_wait();
      for (unsigned I; (I = Cursor.fetch_add(1)) < NumObjects;)
        atomically([&] {
          Txn &T = Txn::forThisThread();
          T.write(Objs[I], 0, Tag(I, 1));
          T.write(Objs[I], 1, Tag(I, 1));
        });
      WritersDone.fetch_add(1, std::memory_order_release);
    });
  for (unsigned R = 0; R < Readers; ++R)
    Ts.emplace_back([&, R] {
      Rng Rand(R + 1);
      pinToCpu(Writers + R);
      Start.arrive_and_wait();
      while (WritersDone.load(std::memory_order_acquire) < Writers)
        Txn::runSnapshot([&] {
          Txn &T = Txn::forThisThread();
          unsigned C = std::min(Cursor.load(std::memory_order_relaxed),
                                NumObjects);
          for (int K = 0; K < 8; ++K) {
            unsigned Back = unsigned(Rand.nextBelow(8));
            unsigned I = C > Back ? C - 1 - Back : 0;
            Word A = T.read(Objs[I], 0);
            Word B = T.read(Objs[I], 1);
            if ((A >> 32) != I || A != B)
              Bad.fetch_add(1, std::memory_order_relaxed);
          }
        });
    });
  for (auto &T : Ts)
    T.join();
  EXPECT_EQ(Bad.load(), 0u);

  // One entry per object, each its own, none lost to a segment race.
  EXPECT_EQ(snap::tableEntries(), size_t(NumObjects));
  std::vector<uint32_t> Indexes;
  unsigned Chainless = 0;
  for (Object *O : Objs) {
    Indexes.push_back(O->versionIndex());
    Chainless += !snap::hasChain(O);
  }
  EXPECT_EQ(Chainless, 0u);
  std::sort(Indexes.begin(), Indexes.end());
  EXPECT_EQ(std::adjacent_find(Indexes.begin(), Indexes.end()),
            Indexes.end());
  EXPECT_NE(Indexes.front(), 0u);
  unsigned Wrong = 0;
  Txn::runSnapshot([&] {
    Txn &T = Txn::forThisThread();
    for (unsigned I = 0; I < NumObjects; ++I)
      if (T.read(Objs[I], 0) != Tag(I, 1) || T.read(Objs[I], 1) != Tag(I, 1))
        ++Wrong;
  });
  EXPECT_EQ(Wrong, 0u);
}

TEST_F(SnapshotTxnTest, ResetTableFreesEverything) {
  Object *X = H.allocate(&CellType, BirthState::Shared);
  atomically([&] { Txn::forThisThread().write(X, 0, 1); });
  EXPECT_GE(snap::tableEntries(), 1u);
  snap::resetTable();
  EXPECT_EQ(snap::tableEntries(), 0u);
  EXPECT_EQ(snap::chainLength(X), 0u);
  // The plane rebuilds transparently on the next commit.
  atomically([&] { Txn::forThisThread().write(X, 0, 2); });
  Word Seen = 0;
  Txn::runSnapshot([&] { Seen = Txn::forThisThread().read(X, 0); });
  EXPECT_EQ(Seen, 2u);
}

} // namespace
