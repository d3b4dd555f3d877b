//===- tests/kv/ChurnFlatTest.cpp - Memory flatness under churn -----------===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//
//
// The runtime's unbounded-memory holes, closed and held closed:
//
//  - Tombstoned KV value records: erase parks the unlinked record in its
//    shard's epoch-gated retire pool and insert recycles it once the
//    quiescence horizon passes, so sustained erase/insert churn plateaus
//    fresh allocations while the recycle counter climbs without bound.
//  - Event-ring registry entries: a thread's trace ring is recycled at
//    thread exit, so ring count tracks peak concurrency — not the number
//    of threads that ever lived. Quiescence slots behave the same way
//    (their regression lives in stm/ThreadChurnTest; re-checked here
//    against the KV store's transactions).
//  - Snapshot version records: publication-time pruning keeps the global
//    node count bounded under sustained overwrites when no snapshot pin
//    holds history.
//  - Aborted inserts: an insert or multiPut attempt that aborts after
//    allocating a fresh value record hands it to its re-execution, so
//    contended inserts allocate exactly one record per key.
//
// All of them are asserted through the introspection counters
// Store::reclaimStats(), traceRegistryStats() and snap::liveNodes().
// Runs in CI's TSan lane via the `stm` label and in the seeded fault
// lanes (FAULT_TESTS in scripts/ci.sh); SATM_FAST_TESTS=1 shrinks the
// churn volumes.
//
//===----------------------------------------------------------------------===//

#include "kv/Store.h"

#include "stm/Config.h"
#include "stm/Quiesce.h"
#include "stm/Snapshot.h"
#include "stm/Stats.h"

#include "gtest/gtest.h"

#include <cstdlib>
#include <deque>
#include <thread>
#include <vector>

using namespace satm;
using namespace satm::kv;
using namespace satm::stm;

namespace {

bool fastTests() {
  const char *Env = std::getenv("SATM_FAST_TESTS");
  return Env && Env[0] == '1';
}

TEST(ChurnFlat, TombstoneChurnPlateausValueRecords) {
  Config Cfg;
  Cfg.DeaEnabled = true;
  ScopedConfig SC(Cfg);

  constexpr Word NumKeys = 32;
  const unsigned Rounds = fastTests() ? 50 : 200;

  rt::Heap H;
  StoreConfig KC;
  KC.Shards = 2;
  KC.CapacityPerShard = 64;
  Store S(H, KC);
  for (Word K = 0; K < NumKeys; ++K)
    ASSERT_TRUE(S.insert(K, K + 1));

  for (unsigned R = 0; R < Rounds; ++R) {
    for (Word K = 0; K < NumKeys; ++K)
      ASSERT_TRUE(S.erase(K));
    // The executor's quiesce tick: once the epoch passes the parks'
    // retirement horizon, every record parked this round is ripe. (Without
    // the tick the pool self-ripens one epoch per round — reclamation
    // still caps allocations at ~1 per round instead of NumKeys.)
    Quiescence::advanceEpoch();
    for (Word K = 0; K < NumKeys; ++K)
      ASSERT_TRUE(S.insert(K, R * NumKeys + K + 1));
  }

  Store::ReclaimStats RS = S.reclaimStats();
  // Retire/recycle are monotone churn odometers; allocation is the flat
  // line. Without reclamation every re-insert of an erased key would
  // allocate: Rounds * NumKeys fresh records over the run.
  EXPECT_EQ(RS.PoolSize, RS.Retired - RS.Recycled)
      << "every retired record is either recycled or still parked";
  EXPECT_EQ(RS.Allocated, uint64_t(NumKeys) + RS.PoolSize)
      << "every allocation is either linked live or parked";
  EXPECT_EQ(RS.Retired, uint64_t(Rounds) * NumKeys)
      << "one park per erase";
  EXPECT_GT(RS.Recycled, 0u);
  EXPECT_LE(RS.Allocated, 2 * NumKeys)
      << "allocations must plateau at the working set";
  EXPECT_LE(RS.PoolSize, NumKeys)
      << "parked records are bounded by the working set";

  // The store still answers correctly after all that churn.
  for (Word K = 0; K < NumKeys; ++K) {
    Word V = 0;
    ASSERT_TRUE(S.get(K, V));
    EXPECT_EQ(V, uint64_t(Rounds - 1) * NumKeys + K + 1);
  }
}

/// Four threads insert disjoint fresh keys into a one-shard store through
/// \p InsertRange(S, First, Count). Every fresh insert writes the shard's
/// Keys and Meta records, so the threads abort each other constantly; the
/// reclamation identity must still be exact: each key links one record,
/// and any record an attempt allocated but the committing attempt did not
/// link sits in the pool.
template <typename InsertRangeF>
void expectContendedFreshInsertsLeakNothing(InsertRangeF InsertRange) {
  Config Cfg;
  Cfg.DeaEnabled = true;
  ScopedConfig SC(Cfg);

  constexpr unsigned Threads = 4;
  const Word PerThread = fastTests() ? 2000 : 8000;
  rt::Heap H;
  StoreConfig KC;
  KC.Shards = 1;
  KC.CapacityPerShard = uint32_t(2 * Threads * PerThread);
  Store S(H, KC);

  const uint64_t AbortsBefore = statsSnapshot().TxnAborts;
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] { InsertRange(S, T * PerThread, PerThread); });
  for (std::thread &T : Pool)
    T.join();
  const uint64_t Aborts = statsSnapshot().TxnAborts - AbortsBefore;

  const Word Keys = Threads * PerThread;
  ASSERT_EQ(S.size(), Keys);
  Store::ReclaimStats RS = S.reclaimStats();
  EXPECT_EQ(RS.Allocated, uint64_t(Keys) + RS.PoolSize)
      << "an aborted attempt leaked its value record (" << Aborts
      << " aborts)";
  EXPECT_EQ(RS.PoolSize, RS.Retired - RS.Recycled);
  for (Word K = 0; K < Keys; ++K) {
    Word V = 0;
    ASSERT_TRUE(S.get(K, V)) << "key " << K;
    EXPECT_EQ(V, K + 1);
  }
}

TEST(ChurnFlat, ContendedFreshInsertsLeakNoValueRecords) {
  expectContendedFreshInsertsLeakNothing([](Store &S, Word First, Word N) {
    for (Word K = First; K < First + N; ++K)
      ASSERT_TRUE(S.insert(K, K + 1));
  });
}

TEST(ChurnFlat, ContendedFreshMultiPutsLeakNoValueRecords) {
  // The wire PUT path: batches of four fresh keys per transaction.
  expectContendedFreshInsertsLeakNothing([](Store &S, Word First, Word N) {
    constexpr size_t Batch = 4;
    for (Word K = First; K < First + N; K += Batch) {
      Word Keys[Batch], Vals[Batch];
      OpStatus PerKey[Batch];
      size_t Count = 0;
      for (; Count < Batch && K + Count < First + N; ++Count) {
        Keys[Count] = K + Count;
        Vals[Count] = K + Count + 1;
      }
      ASSERT_EQ(S.multiPut(Keys, Vals, Count, PerKey), OpStatus::Ok);
      for (size_t I = 0; I < Count; ++I)
        ASSERT_EQ(PerKey[I], OpStatus::Ok);
    }
  });
}

TEST(ChurnFlat, TombstoneSaturatedShardRecyclesSlots) {
  Config Cfg;
  Cfg.DeaEnabled = true;
  ScopedConfig SC(Cfg);

  // One shard, eight slots: small enough that a handful of erases puts a
  // tombstone on *every* probe sequence.
  rt::Heap H;
  StoreConfig KC;
  KC.Shards = 1;
  KC.CapacityPerShard = 8;
  Store S(H, KC);
  constexpr Word Cap = 8;

  Word Next = 0;
  std::deque<Word> Live;
  for (; Next < Cap; ++Next) {
    ASSERT_TRUE(S.insert(Next, Next + 100));
    Live.push_back(Next);
  }
  // Genuinely full (all slots live): Full is the right answer.
  EXPECT_FALSE(S.insert(Next, 1));

  const unsigned Rounds = fastTests() ? 64 : 256;
  for (unsigned R = 0; R < Rounds; ++R) {
    Word Victim = Live.front();
    Live.pop_front();
    ASSERT_TRUE(S.erase(Victim));
    // Ripen the parked record past both horizons (popRecycled requires
    // the epoch strictly beyond the retirement stamp).
    Quiescence::advanceEpoch();
    Quiescence::advanceEpoch();
    // The regression: the probe wraps the whole table without an empty
    // slot, so insert of a never-seen key used to report Full forever
    // even though a ripened tombstoned slot was available. It must
    // recycle that slot (and its parked record) instead.
    ASSERT_TRUE(S.insert(Next, Next + 100))
        << "round " << R << ": tombstone-saturated shard did not recycle";
    Live.push_back(Next);
    ++Next;
  }

  // The recycling is exact: every round reused the round's own park, so
  // the working set never grew past the table.
  Store::ReclaimStats RS = S.reclaimStats();
  EXPECT_EQ(RS.Retired, uint64_t(Rounds));
  EXPECT_EQ(RS.Recycled, uint64_t(Rounds));
  EXPECT_EQ(RS.PoolSize, 0u);
  EXPECT_EQ(RS.Allocated, uint64_t(Cap));

  // And the index still answers correctly through all the slot reuse.
  for (Word K : Live) {
    Word V = 0;
    ASSERT_TRUE(S.get(K, V));
    EXPECT_EQ(V, K + 100);
  }
  Word V = 0;
  EXPECT_FALSE(S.get(0, V)) << "round 0's victim stays erased";
}

TEST(ChurnFlat, RetireHorizonCoversTheErasersTicketPastAStalledOne) {
  Config Cfg;
  Cfg.DeaEnabled = true;
  Cfg.SnapshotEnabled = true; // Every commit takes a publish ticket.
  ScopedConfig SC(Cfg);
  snap::resetTable();

  rt::Heap H;
  StoreConfig KC;
  KC.Shards = 1;
  KC.CapacityPerShard = 8;
  Store S(H, KC);
  ASSERT_TRUE(S.insert(1, 100));

  // An earlier ticket that stays undone: the erase below completes ahead
  // of it, above the stable frontier. (No ASSERTs until it completes: an
  // early return would leave the frontier stuck for every later test.)
  const uint64_t Stalled = Quiescence::beginPublish();
  EXPECT_TRUE(S.erase(1));
  const uint64_t EraseTicket = Quiescence::ownLastTicket();
  EXPECT_GT(EraseTicket, Stalled);
  EXPECT_LT(Quiescence::snapshotStable(), EraseTicket);

  // A reader pinned now sits below the unlink and still reaches key 1's
  // record through the index.
  Word Seen = 0;
  std::thread([&] { EXPECT_TRUE(S.snapshotGet(1, Seen)); }).join();
  EXPECT_EQ(Seen, 100u);

  // So the record must not be recycled for another key yet, however far
  // the quiescence epoch moves: its horizon is the erase's own ticket,
  // not the lagging frontier.
  Quiescence::advanceEpoch();
  Quiescence::advanceEpoch();
  EXPECT_TRUE(S.insert(2, 200));
  EXPECT_EQ(S.reclaimStats().Recycled, 0u)
      << "recycled below the unlinking commit's ticket";

  // Once the stalled ticket completes, the frontier passes the erase and
  // the next insert recycles the record.
  Quiescence::completePublish(Stalled);
  EXPECT_GE(Quiescence::snapshotStable(), EraseTicket);
  Quiescence::advanceEpoch();
  Quiescence::advanceEpoch();
  ASSERT_TRUE(S.insert(3, 300));
  EXPECT_EQ(S.reclaimStats().Recycled, 1u);
  Word V = 0;
  EXPECT_FALSE(S.snapshotGet(1, V));
  ASSERT_TRUE(S.snapshotGet(3, V));
  EXPECT_EQ(V, 300u);
  snap::resetTable();
}

TEST(ChurnFlat, ThreadChurnKeepsRingAndSlotRegistriesBounded) {
  Config Cfg;
  Cfg.DeaEnabled = true;
  ScopedConfig SC(Cfg);

  const unsigned Batch = 8;
  const unsigned Total = fastTests() ? 120 : 600;

  rt::Heap H;
  StoreConfig KC;
  KC.Shards = 2;
  KC.CapacityPerShard = 64;
  Store S(H, KC);

  const unsigned SlotsBefore = Quiescence::liveSlots();
  setTraceEnabled(true);
  traceReset();

  for (unsigned Spawned = 0; Spawned < Total;) {
    std::vector<std::thread> Pool;
    for (unsigned T = 0; T < Batch && Spawned < Total; ++T, ++Spawned)
      Pool.emplace_back([&S, Spawned] {
        // Enough STM traffic to register a quiescence slot and bind a
        // trace ring: insert, read, erase, re-insert.
        Word K = Spawned % 16;
        (void)S.put(K, Spawned + 1);
        Word V = 0;
        (void)S.get(K, V);
        (void)S.erase(K);
        (void)S.insert(K, Spawned + 2);
      });
    for (std::thread &T : Pool)
      T.join();
  }
  setTraceEnabled(false);

  // Slots and rings are recycled at thread exit: occupancy is restored and
  // the registry footprint tracks peak concurrency, not total churn.
  EXPECT_EQ(Quiescence::liveSlots(), SlotsBefore);
  TraceRegistryStats TR = traceRegistryStats();
  EXPECT_LE(TR.LiveRings + TR.FreeRings, uint64_t(SlotsBefore) + Batch + 4)
      << "ring count must be bounded by peak concurrency, saw "
      << TR.LiveRings << " live + " << TR.FreeRings << " free after "
      << Total << " exited threads";
  EXPECT_GT(TR.RetiredWritten, 0u)
      << "exited threads' events drain into the retired buffer";
}

TEST(ChurnFlat, SnapshotVersionRecordsStayBoundedUnderOverwrites) {
  Config Cfg;
  Cfg.DeaEnabled = true;
  Cfg.SnapshotEnabled = true; // Committing writers publish version records.
  ScopedConfig SC(Cfg);

  constexpr Word NumKeys = 32;
  const unsigned Rounds = fastTests() ? 200 : 1000;

  rt::Heap H;
  StoreConfig KC;
  KC.Shards = 2;
  KC.CapacityPerShard = 64;
  Store S(H, KC);
  for (Word K = 0; K < NumKeys; ++K)
    ASSERT_TRUE(S.insert(K, 1));

  for (unsigned R = 0; R < Rounds; ++R)
    for (Word K = 0; K < NumKeys; ++K)
      ASSERT_TRUE(S.insert(K, R + 2)); // Transactional overwrite publishes.

  // No pin holds history, so publication-time pruning must have kept pace:
  // the live node count is a small multiple of the working set, nowhere
  // near the Rounds * NumKeys commits that published.
  EXPECT_LE(snap::liveNodes(), size_t(8) * NumKeys)
      << "version chains must prune under overwrite churn";
}

} // namespace
