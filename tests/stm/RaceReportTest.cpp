//===- tests/stm/RaceReportTest.cpp - §3.2 race-detection mode tests -----===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//
//
// "The barriers invoke the conflict manager whenever multiple threads
// access a shared location simultaneously with at least one of the
// accesses updating the location. ... Alternatively, conflicts could
// signal a race ... Isolation barriers can thus aid in debugging
// concurrent programs." (§3.2)
//
//===----------------------------------------------------------------------===//

#include "rt/Heap.h"
#include "stm/Barriers.h"
#include "stm/Txn.h"

#include "gtest/gtest.h"

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

using namespace satm;
using namespace satm::rt;
using namespace satm::stm;

namespace {

const TypeDescriptor CellType("Cell", 1, {});
const TypeDescriptor PairType("Pair", 2, {});

struct Recorder {
  std::mutex Mutex;
  std::vector<RaceInfo> Races;

  Config makeConfig() {
    Config C;
    C.RaceReport = [this](const RaceInfo &R) {
      std::lock_guard<std::mutex> Lock(Mutex);
      Races.push_back(R);
    };
    return C;
  }
};

TEST(RaceReport, QuietWhenUncontended) {
  Recorder Rec;
  ScopedConfig SC(Rec.makeConfig());
  Heap H;
  Object *X = H.allocate(&CellType, BirthState::Shared);
  ntWrite(X, 0, 1);
  EXPECT_EQ(ntRead(X, 0), 1u);
  EXPECT_TRUE(Rec.Races.empty());
}

TEST(RaceReport, ReadBarrierReportsTransactionalOwner) {
  Recorder Rec;
  ScopedConfig SC(Rec.makeConfig());
  Heap H;
  Object *X = H.allocate(&CellType, BirthState::Shared);
  std::atomic<bool> Locked{false}, Release{false};
  std::thread TxnThread([&] {
    atomically([&] {
      Txn &T = Txn::forThisThread();
      T.write(X, 0, 1);
      Locked.store(true);
      while (!Release.load())
        std::this_thread::yield();
    });
  });
  while (!Locked.load())
    std::this_thread::yield();
  std::thread Reader([&] { ntRead(X, 0); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  Release.store(true);
  TxnThread.join();
  Reader.join();
  ASSERT_FALSE(Rec.Races.empty()) << "race went unreported";
  EXPECT_EQ(Rec.Races[0].Obj, X);
  EXPECT_FALSE(Rec.Races[0].IsWrite);
  EXPECT_TRUE(Rec.Races[0].PartnerIsTxn);
}

TEST(RaceReport, WriteBarrierReportsTransactionalOwner) {
  Recorder Rec;
  ScopedConfig SC(Rec.makeConfig());
  Heap H;
  Object *X = H.allocate(&CellType, BirthState::Shared);
  std::atomic<bool> Locked{false}, Release{false};
  std::thread TxnThread([&] {
    atomically([&] {
      Txn &T = Txn::forThisThread();
      T.write(X, 0, 1);
      Locked.store(true);
      while (!Release.load())
        std::this_thread::yield();
    });
  });
  while (!Locked.load())
    std::this_thread::yield();
  std::thread Writer([&] { ntWrite(X, 0, 2); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  Release.store(true);
  TxnThread.join();
  Writer.join();
  ASSERT_FALSE(Rec.Races.empty());
  EXPECT_TRUE(Rec.Races[0].IsWrite);
  EXPECT_TRUE(Rec.Races[0].PartnerIsTxn);
}

TEST(RaceReport, DetectsNonTransactionalWriterPairs) {
  // "It can detect such conflicts by simply checking the lowest-order
  // bit": a reader racing with a *non-transactional* writer. The writer
  // side is held open deterministically with an aggregated barrier.
  Recorder Rec;
  ScopedConfig SC(Rec.makeConfig());
  Heap H;
  Object *X = H.allocate(&PairType, BirthState::Shared);
  std::atomic<bool> Held{false}, Release{false};
  std::thread Writer([&] {
    AggregatedWriter W(X);
    W.store(0, 1);
    Held.store(true);
    while (!Release.load())
      std::this_thread::yield();
    W.store(1, 2);
  });
  while (!Held.load())
    std::this_thread::yield();
  std::thread Reader([&] { ntRead(X, 0); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  Release.store(true);
  Writer.join();
  Reader.join();
  ASSERT_FALSE(Rec.Races.empty());
  EXPECT_FALSE(Rec.Races[0].PartnerIsTxn)
      << "partner was a non-transactional writer";
}

TEST(RaceReport, ReportsOncePerBarrierInvocation) {
  // The reporter fires once even though the barrier retries many times.
  Recorder Rec;
  ScopedConfig SC(Rec.makeConfig());
  Heap H;
  Object *X = H.allocate(&CellType, BirthState::Shared);
  std::atomic<bool> Locked{false}, Release{false};
  std::thread TxnThread([&] {
    atomically([&] {
      Txn::forThisThread().write(X, 0, 1);
      Locked.store(true);
      while (!Release.load())
        std::this_thread::yield();
    });
  });
  while (!Locked.load())
    std::this_thread::yield();
  std::thread Reader([&] { ntRead(X, 0); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  Release.store(true);
  TxnThread.join();
  Reader.join();
  EXPECT_EQ(Rec.Races.size(), 1u);
}

TEST(RaceReport, RacyProgramIsFlaggedCleanProgramIsNot) {
  // End-to-end: a racy counter (non-txn increments racing a transactional
  // incrementer) produces reports; the properly-transactional version
  // stays quiet. The overlap is a handshake, not a scheduling accident:
  // each round the incrementer holds the record open until the other side
  // has run into it (racy: until its barrier reported; clean: for 10 ms,
  // as the other side's conflicts are transactional and never reported),
  // and starts the next round only after the other side's increment.
  constexpr int Rounds = 3;
  for (bool Racy : {true, false}) {
    Recorder Rec;
    ScopedConfig SC(Rec.makeConfig());
    Heap H;
    Object *X = H.allocate(&CellType, BirthState::Shared);
    std::atomic<int> Holding{0}, Released{0}, OtherDone{0};
    std::thread TxnThread([&] {
      for (int R = 1; R <= Rounds; ++R) {
        atomically([&] {
          Txn &T = Txn::forThisThread();
          T.write(X, 0, T.read(X, 0) + 1);
          Holding.store(R);
          while (Released.load() < R)
            std::this_thread::yield();
        });
        while (OtherDone.load() < R)
          std::this_thread::yield();
      }
    });
    std::thread Other([&] {
      for (int R = 1; R <= Rounds; ++R) {
        while (Holding.load() < R)
          std::this_thread::yield();
        if (Racy) {
          ntWrite(X, 0, ntRead(X, 0) + 1);
        } else {
          atomically([&] {
            Txn &T = Txn::forThisThread();
            T.write(X, 0, T.read(X, 0) + 1);
          });
        }
        OtherDone.store(R);
      }
    });
    auto Reported = [&] {
      std::lock_guard<std::mutex> Lock(Rec.Mutex);
      return Rec.Races.size();
    };
    for (int R = 1; R <= Rounds; ++R) {
      while (Holding.load() < R)
        std::this_thread::yield();
      if (Racy) {
        for (int Ms = 0; Ms < 10000 && Reported() < size_t(R); ++Ms)
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      Released.store(R);
    }
    TxnThread.join();
    Other.join();
    EXPECT_EQ(X->rawLoad(0), 2u * Rounds);
    if (Racy)
      EXPECT_GE(Reported(), size_t(Rounds)) << "racy program not flagged";
    else
      EXPECT_EQ(Reported(), 0u) << "clean program flagged";
  }
}

} // namespace
