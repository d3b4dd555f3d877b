//===- tests/stm/QuiesceTest.cpp - Commit quiescence tests (§3.4) --------===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//

#include "stm/Quiesce.h"
#include "rt/Heap.h"
#include "stm/LazyTxn.h"
#include "stm/Report.h"
#include "stm/Txn.h"

#include "gtest/gtest.h"

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

using namespace satm;
using namespace satm::rt;
using namespace satm::stm;

namespace {

const TypeDescriptor CellType("Cell", 1, {});
const TypeDescriptor ItemType("Item", 3, {2}); // val1, val2, next ref
const TypeDescriptor HeadType("Head", 1, {0});

TEST(Quiesce, EpochMonotone) {
  uint64_t E1 = Quiescence::currentEpoch();
  uint64_t E2 = Quiescence::advanceEpoch();
  EXPECT_GT(E2, E1);
  EXPECT_GE(Quiescence::currentEpoch(), E2);
}

TEST(Quiesce, WaitReturnsWithNoActiveTransactions) {
  // Must not block when nothing is running.
  Quiescence::waitForValidationSince(Quiescence::advanceEpoch(),
                                     &Quiescence::slotForThisThread());
  Quiescence::waitForPriorWritebacks(Quiescence::nextCommitSeq(),
                                     &Quiescence::slotForThisThread());
  SUCCEED();
}

TEST(Quiesce, CommittersDoNotDeadlockOnEachOther) {
  Config C;
  C.QuiesceOnCommit = true;
  ScopedConfig SC(C);
  Heap H;
  Object *A = H.allocate(&CellType, BirthState::Shared);
  Object *B = H.allocate(&CellType, BirthState::Shared);
  constexpr int PerThread = 2000;
  std::vector<std::thread> Threads;
  for (int T = 0; T < 4; ++T)
    Threads.emplace_back([&, T] {
      Object *Mine = T % 2 ? A : B;
      for (int I = 0; I < PerThread; ++I)
        atomically([&] {
          Txn &Tx = Txn::forThisThread();
          Tx.write(Mine, 0, Tx.read(Mine, 0) + 1);
        });
    });
  for (auto &T : Threads)
    T.join();
  EXPECT_EQ(A->rawLoad(0) + B->rawLoad(0), 4u * PerThread);
}

TEST(Quiesce, EagerPrivatizationIsSafe) {
  // The Figure 1 idiom under weak atomicity *plus quiescence*: the
  // privatizer's post-transaction unsynchronized reads must never see a
  // doomed transaction's speculative state.
  Config C;
  C.QuiesceOnCommit = true;
  C.ValidateEvery = 4; // Doomed transactions notice their fate quickly.
  ScopedConfig SC(C);

  Heap H;
  Object *Head = H.allocate(&HeadType, BirthState::Shared);
  Object *Item = H.allocate(&ItemType, BirthState::Shared);
  Head->rawStoreRef(0, Item);

  std::atomic<bool> Stop{false};
  std::atomic<int> Violations{0};

  std::thread Mutator([&] {
    while (!Stop.load())
      atomically([&] {
        Txn &T = Txn::forThisThread();
        Object *It = T.readRef(Head, 0);
        if (It) {
          T.write(It, 0, T.read(It, 0) + 1);
          T.write(It, 1, T.read(It, 1) + 1);
        }
      });
  });

  for (int Round = 0; Round < 3000; ++Round) {
    Object *Mine = nullptr;
    atomically([&] {
      Txn &T = Txn::forThisThread();
      Mine = T.readRef(Head, 0);
      if (Mine)
        T.writeRef(Head, 0, nullptr);
    });
    if (!Mine)
      continue;
    // Privatized: plain unbarriered reads (weak atomicity!).
    Word V1 = Mine->rawLoad(0, std::memory_order_acquire);
    Word V2 = Mine->rawLoad(1, std::memory_order_acquire);
    if (V1 != V2)
      Violations.fetch_add(1);
    atomically([&] { Txn::forThisThread().writeRef(Head, 0, Mine); });
  }
  Stop.store(true);
  Mutator.join();
  EXPECT_EQ(Violations.load(), 0)
      << "quiescence failed to make privatization safe";
}

//===----------------------------------------------------------------------===
// The publish frontier: out-of-order completion, session order.
//===----------------------------------------------------------------------===

TEST(Quiesce, FrontierCoversExactlyTheContiguousDonePrefix) {
  const uint64_t Base = Quiescence::snapshotStable();
  ASSERT_EQ(Quiescence::lastPublishTicket(), Base) << "a ticket is in flight";
  uint64_t T[4];
  for (uint64_t &X : T)
    X = Quiescence::beginPublish();
  ASSERT_EQ(T[0], Base + 1);
  // Completions out of order: the frontier moves only once the prefix
  // below a done ticket is done too, then over every done ticket at once.
  Quiescence::completePublish(T[2]);
  EXPECT_EQ(Quiescence::snapshotStable(), Base);
  Quiescence::completePublish(T[1]);
  EXPECT_EQ(Quiescence::snapshotStable(), Base);
  Quiescence::completePublish(T[0]);
  EXPECT_EQ(Quiescence::snapshotStable(), T[2]);
  Quiescence::completePublish(T[3]);
  EXPECT_EQ(Quiescence::snapshotStable(), T[3]);
  EXPECT_EQ(Quiescence::ownLastTicket(), T[3]);
}

TEST(Quiesce, ConcurrentOutOfOrderCompletionsNeverStallTheFrontier) {
  // Every thread completes its tickets in reverse batches, so completions
  // constantly land ahead of the frontier. A lost help (a completer and a
  // helper each missing the other's write) would leave the frontier below
  // the last ticket with every ticket done.
  constexpr unsigned Threads = 4;
  constexpr unsigned Batches = 2000, Batch = 4;
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < Threads; ++T)
    Pool.emplace_back([] {
      for (unsigned B = 0; B < Batches; ++B) {
        uint64_t Mine[Batch];
        for (uint64_t &X : Mine)
          X = Quiescence::beginPublish();
        for (unsigned I = Batch; I-- > 0;)
          Quiescence::completePublish(Mine[I]);
      }
    });
  for (std::thread &T : Pool)
    T.join();
  EXPECT_EQ(Quiescence::snapshotStable(), Quiescence::lastPublishTicket());
}

/// Config::Yield hook noting that some thread blocked on the publish
/// frontier — the deterministic "it is waiting now" signal for the tests
/// below.
std::atomic<bool> FrontierWaitSeen{false};
void noteFrontierWait(YieldPoint P, const std::atomic<Word> *, Word) {
  if (P == YieldPoint::SnapshotPublish)
    FrontierWaitSeen.store(true);
}

/// Blocks until a thread waits on the frontier, or 10 s pass (a missing
/// wait then fails the caller's expectations instead of hanging).
bool awaitFrontierWait() {
  for (int Ms = 0; Ms < 10000 && !FrontierWaitSeen.load(); ++Ms)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  return FrontierWaitSeen.load();
}

TEST(Quiesce, DoneRingWrapWaitsForTheOldTicket) {
  Config C;
  C.Yield = &noteFrontierWait;
  ScopedConfig SC(C);
  FrontierWaitSeen.store(false);
  statsReset();
  const uint64_t Held = Quiescence::beginPublish();
  // Completing the ticket that reuses Held's done slot must wait until
  // Held is done: its mark would otherwise overwrite one the frontier has
  // not consumed.
  std::atomic<uint64_t> Completed{0};
  std::thread Runner([&] {
    for (uint64_t I = 1; I <= Quiescence::DoneRingSize; ++I) {
      Quiescence::completePublish(Quiescence::beginPublish());
      Completed.store(I);
    }
  });
  EXPECT_TRUE(awaitFrontierWait());
  EXPECT_EQ(Completed.load(), Quiescence::DoneRingSize - 1)
      << "a ring wrap overwrote an unconsumed done mark";
  EXPECT_EQ(Quiescence::snapshotStable(), Held - 1);
  Quiescence::completePublish(Held);
  Runner.join();
  EXPECT_EQ(Quiescence::snapshotStable(), Quiescence::lastPublishTicket());
  EXPECT_EQ(statsSnapshot().PublishRingWaits, 1u);
  EXPECT_NE(renderStatsJson(statsSnapshot()).find("\"publish_ring_waits\": 1"),
            std::string::npos);
}

/// A test that publishes versions starts and ends with an empty version
/// directory, so the chains it counts are its own.
struct FreshVersionTable {
  FreshVersionTable() { snap::resetTable(); }
  ~FreshVersionTable() { snap::resetTable(); }
};

/// Parks a committer between its publish ticket and its done mark: the
/// publish-window hook reports its ticket and spins until released.
struct ParkGate {
  std::atomic<uint64_t> Ticket{0};
  std::atomic<bool> Release{false};

  static void hook(void *Ctx, uint64_t Ticket, uint32_t, uint32_t, Word, Word,
                   Word) {
    auto *G = static_cast<ParkGate *>(Ctx);
    G->Ticket.store(Ticket);
    while (!G->Release.load())
      std::this_thread::yield();
  }

  /// Starts a thread whose committing transaction writes \p O and parks;
  /// returns once it is parked.
  std::thread park(Object *O) {
    std::thread T([this, O] {
      atomically([&] {
        Txn &Tx = Txn::forThisThread();
        Tx.write(O, 0, Tx.read(O, 0) + 1);
        Tx.onPublish({&ParkGate::hook, this, 0, 0, 0});
      });
    });
    while (Ticket.load() == 0)
      std::this_thread::yield();
    return T;
  }
};

TEST(Quiesce, StalledTicketHolderDoesNotBlockLaterCommitters) {
  Config C;
  C.SnapshotEnabled = true;
  ScopedConfig SC(C);
  FreshVersionTable Table;
  Heap H;
  Object *A = H.allocate(&CellType, BirthState::Shared);
  Object *B = H.allocate(&CellType, BirthState::Shared);
  ParkGate G;
  std::thread Holder = G.park(A);

  // Later committers must return while the holder sits in its window. An
  // in-order publish protocol would spin them behind it for the whole
  // bounded wait below.
  std::atomic<bool> Returned{false};
  std::thread Later([&] {
    for (int I = 0; I < 100; ++I)
      atomically([&] {
        Txn &Tx = Txn::forThisThread();
        Tx.write(B, 0, Tx.read(B, 0) + 1);
      });
    Returned.store(true);
  });
  for (int Ms = 0; Ms < 10000 && !Returned.load(); ++Ms)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(Returned.load())
      << "later committers waited on a stalled earlier ticket";
  EXPECT_LT(Quiescence::snapshotStable(), G.Ticket.load())
      << "the frontier passed a ticket that never completed";
  G.Release.store(true);
  Holder.join();
  Later.join();
  EXPECT_EQ(B->rawLoad(0), 100u);
  EXPECT_EQ(Quiescence::snapshotStable(), Quiescence::lastPublishTicket());
}

TEST(Quiesce, OwnSnapshotWaitsForItsCommitOthersMayLag) {
  Config C;
  C.SnapshotEnabled = true;
  C.Yield = &noteFrontierWait;
  ScopedConfig SC(C);
  FreshVersionTable Table;
  Heap H;
  Object *A = H.allocate(&CellType, BirthState::Shared);
  Object *B = H.allocate(&CellType, BirthState::Shared);
  FrontierWaitSeen.store(false);
  statsReset();
  ParkGate G;
  std::thread Holder = G.park(A);

  std::atomic<bool> Committed{false}, SnapDone{false};
  std::atomic<Word> Seen{0};
  std::thread Writer([&] {
    atomically([&] { Txn::forThisThread().write(B, 0, 42); });
    Committed.store(true);
    // Session order: our own commit sits above the frontier until the
    // holder completes, so this snapshot must wait — then see 42.
    Txn::runSnapshot([&] { Seen.store(Txn::forThisThread().read(B, 0)); });
    SnapDone.store(true);
  });
  while (!Committed.load())
    std::this_thread::yield();

  // Another thread's snapshot is admitted below the writer's commit: SI
  // lets it lag, and it must not wait for the holder.
  Word Lagging = 1;
  std::thread Reader([&] {
    Txn::runSnapshot([&] { Lagging = Txn::forThisThread().read(B, 0); });
  });
  Reader.join();
  EXPECT_EQ(Lagging, 0u);

  EXPECT_TRUE(awaitFrontierWait());
  EXPECT_FALSE(SnapDone.load())
      << "a snapshot began below its own thread's commit";
  G.Release.store(true);
  Holder.join();
  Writer.join();
  EXPECT_EQ(Seen.load(), 42u);
  EXPECT_EQ(statsSnapshot().PublishSessionWaits, 1u);
  EXPECT_NE(
      renderStatsJson(statsSnapshot()).find("\"publish_session_waits\": 1"),
      std::string::npos);
}

TEST(Quiesce, LazyWritebackCompletesBeforeReturn) {
  // atomicallyLazy must not return before its own write-back landed, so a
  // thread's later transactions are ordered after its earlier ones in
  // memory (the cross-thread §3.4 window is exercised by the MIR litmus).
  Config C;
  C.QuiesceOnCommit = true;
  ScopedConfig SC(C);
  Heap H;
  Object *X = H.allocate(&CellType, BirthState::Shared);
  Object *Y = H.allocate(&CellType, BirthState::Shared);
  constexpr int Rounds = 2000;
  std::atomic<int> Inconsistent{0};
  // T1 repeatedly writes X then Y in separate transactions; T2 reads Y
  // then X non-transactionally. With write-back-completion ordering and
  // eager-free memory, observing Y == k implies X >= k.
  std::thread T1([&] {
    for (int I = 1; I <= Rounds; ++I) {
      atomicallyLazy([&] { LazyTxn::forThisThread().write(X, 0, I); });
      atomicallyLazy([&] { LazyTxn::forThisThread().write(Y, 0, I); });
    }
  });
  std::thread T2([&] {
    for (int I = 0; I < Rounds; ++I) {
      Word SeenY = Y->rawLoad(0, std::memory_order_acquire);
      Word SeenX = X->rawLoad(0, std::memory_order_acquire);
      if (SeenX < SeenY)
        Inconsistent.fetch_add(1);
    }
  });
  T1.join();
  T2.join();
  EXPECT_EQ(Inconsistent.load(), 0);
}

} // namespace
