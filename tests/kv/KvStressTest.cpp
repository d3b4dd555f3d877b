//===- tests/kv/KvStressTest.cpp - SATM-KV concurrency stress ------------===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//
//
// Real-thread stress of the store's two access planes running concurrently
// (the tiny-model counterpart is explored exhaustively in KvModelTest):
//
//  - transfer conservation: transactional rmwAdd transfers between random
//    pairs while readers snapshot the whole store with multiGet — every
//    snapshot must sum to the initial total, and barrier-plane GETs must
//    never observe a value outside the range any serial execution allows.
//  - insert race: concurrent transactional inserts of overlapping key sets
//    must end with every key present exactly once, with the count exact.
//  - mixed planes: nt PUTs race CAS and erase/resurrect on a small hot set;
//    terminal values must be ones some operation actually wrote.
//
// Runs under the `stm` label, so CI exercises it in the ThreadSanitizer
// build too; SATM_FAST_TESTS=1 shrinks iteration counts.
//
//===----------------------------------------------------------------------===//

#include "kv/Store.h"

#include "stm/Config.h"

#include "gtest/gtest.h"

#include <atomic>
#include <cstdlib>
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

TEST(KvStress, TransfersConserveTotalUnderSnapshots) {
  Config Cfg;
  Cfg.DeaEnabled = true;
  ScopedConfig SC(Cfg);

  constexpr Word NumKeys = 64;
  constexpr Word InitVal = 1000;
  const unsigned Writers = 3, Readers = 2;
  const unsigned Iters = fastTests() ? 2000 : 20000;

  rt::Heap H;
  StoreConfig KC;
  KC.Shards = 4;
  KC.CapacityPerShard = 64;
  Store S(H, KC);
  for (Word K = 0; K < NumKeys; ++K)
    ASSERT_TRUE(S.insert(K, InitVal));

  std::atomic<bool> Stop{false};
  std::atomic<bool> Failed{false};
  std::vector<std::thread> Threads;

  for (unsigned W = 0; W < Writers; ++W)
    Threads.emplace_back([&, W] {
      uint64_t X = 88172645463325252ull + W;
      auto Rnd = [&X] {
        X ^= X << 13;
        X ^= X >> 7;
        X ^= X << 17;
        return X;
      };
      for (unsigned I = 0; I < Iters; ++I) {
        Word A = Rnd() % NumKeys, B = Rnd() % NumKeys;
        if (A == B)
          continue;
        // Transfer 1 from A to B: one atomic read-modify-write batch. The
        // guard keeps values non-negative so no Word ever wraps.
        Word Keys[2] = {A, B};
        ASSERT_TRUE(S.readModifyWrite(Keys, 2, [](Word *V, size_t) {
          if (V[0] == 0)
            return;
          V[0] -= 1;
          V[1] += 1;
        }));
      }
    });

  for (unsigned R = 0; R < Readers; ++R)
    Threads.emplace_back([&, R] {
      std::vector<Word> Keys(NumKeys), Out(NumKeys);
      for (Word K = 0; K < NumKeys; ++K)
        Keys[K] = K;
      while (!Stop.load(std::memory_order_acquire)) {
        // Transactional plane: a whole-store snapshot must conserve the
        // total (transfers move value, never create it).
        ASSERT_EQ(S.multiGet(Keys.data(), NumKeys, Out.data()), NumKeys);
        Word Sum = 0;
        for (Word V : Out)
          Sum += V;
        if (Sum != NumKeys * InitVal) {
          Failed.store(true);
          ADD_FAILURE() << "snapshot sum " << Sum << " != "
                        << NumKeys * InitVal;
          return;
        }
        // Barrier plane: single-key GETs see committed values only; with
        // +-1 transfers bounded by total iterations, a torn read of a
        // half-applied transfer would show up as a wild value.
        Word V = 0;
        ASSERT_TRUE(S.get(R, V));
        if (V > InitVal + uint64_t(Writers) * Iters) {
          Failed.store(true);
          ADD_FAILURE() << "GET observed wild value " << V;
          return;
        }
      }
    });

  for (unsigned T = 0; T < Writers; ++T)
    Threads[T].join();
  Stop.store(true, std::memory_order_release);
  for (unsigned T = Writers; T < Threads.size(); ++T)
    Threads[T].join();
  ASSERT_FALSE(Failed.load());

  // Quiesced: the final snapshot and the barrier plane agree exactly.
  Word Sum = 0;
  for (Word K = 0; K < NumKeys; ++K) {
    Word V = 0;
    ASSERT_TRUE(S.get(K, V));
    Sum += V;
  }
  EXPECT_EQ(Sum, NumKeys * InitVal);
}

TEST(KvStress, ConcurrentInsertsAllLand) {
  Config Cfg;
  Cfg.DeaEnabled = true;
  ScopedConfig SC(Cfg);

  const unsigned Threads = 4;
  const Word KeysPerThread = fastTests() ? 500 : 4000;
  const Word Overlap = KeysPerThread / 2; // Each range overlaps the next.

  rt::Heap H;
  StoreConfig KC;
  KC.Shards = 8;
  KC.CapacityPerShard = uint32_t(2 * Threads * KeysPerThread / 8);
  Store S(H, KC);

  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      Word Base = T * (KeysPerThread - Overlap);
      for (Word K = Base; K < Base + KeysPerThread; ++K)
        ASSERT_TRUE(S.insert(K, K + 1));
    });
  for (std::thread &T : Pool)
    T.join();

  const Word Distinct =
      Threads * (KeysPerThread - Overlap) + Overlap;
  EXPECT_EQ(S.size(), Distinct);
  for (Word K = 0; K < Distinct; ++K) {
    Word Out = 0;
    ASSERT_TRUE(S.get(K, Out)) << "key " << K;
    EXPECT_EQ(Out, K + 1);
  }
}

TEST(KvStress, MixedPlanesOnHotKeys) {
  Config Cfg;
  Cfg.DeaEnabled = true;
  ScopedConfig SC(Cfg);

  constexpr Word HotKeys = 8;
  const unsigned Iters = fastTests() ? 3000 : 30000;

  rt::Heap H;
  StoreConfig KC;
  KC.Shards = 2;
  KC.CapacityPerShard = 16;
  Store S(H, KC);
  for (Word K = 0; K < HotKeys; ++K)
    ASSERT_TRUE(S.insert(K, 1));

  auto Plausible = [&](Word V) {
    // Values any operation writes: CAS/PUT write below 1000+Iters.
    return V == 1 || V < 1000 + uint64_t(Iters) * 4;
  };

  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < 4; ++T)
    Pool.emplace_back([&, T] {
      uint64_t X = 0x9e3779b97f4a7c15ull * (T + 1);
      auto Rnd = [&X] {
        X ^= X << 13;
        X ^= X >> 7;
        X ^= X << 17;
        return X;
      };
      for (unsigned I = 0; I < Iters; ++I) {
        Word K = Rnd() % HotKeys;
        switch (Rnd() % 4) {
        case 0: { // Barrier-plane PUT (resurrects tombstones via insert).
          ASSERT_TRUE(S.put(K, 1000 + I));
          break;
        }
        case 1: { // Barrier-plane GET: never a torn/uncommitted value.
          Word V = 0;
          if (S.get(K, V)) {
            ASSERT_TRUE(Plausible(V)) << "torn value " << V;
          }
          break;
        }
        case 2: { // Transactional CAS.
          Word Cur = 0;
          if (S.get(K, Cur))
            (void)S.cas(K, Cur, 1000 + I);
          break;
        }
        default: { // Erase, then transactional re-insert.
          if (S.erase(K)) {
            ASSERT_TRUE(S.insert(K, 1));
          }
          break;
        }
        }
      }
    });
  for (std::thread &T : Pool)
    T.join();

  // All keys still resident; every terminal value is one something wrote.
  EXPECT_EQ(S.size(), HotKeys);
  for (Word K = 0; K < HotKeys; ++K) {
    Word V = 0;
    if (S.get(K, V)) {
      EXPECT_TRUE(Plausible(V)) << "terminal value " << V;
    }
  }
}

} // namespace
