//===- tests/rt/HeapTest.cpp - Object model and allocator tests ----------===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//

#include "rt/Heap.h"

#include "gtest/gtest.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace satm;
using namespace satm::rt;
using satm::stm::TxRecord;

namespace {

const TypeDescriptor PairType("Pair", 2, {});
const TypeDescriptor NodeType("Node", 3, {0, 1}); // two refs + one scalar
const TypeDescriptor IntArrayType("int[]", TypeKind::IntArray);
const TypeDescriptor RefArrayType("ref[]", TypeKind::RefArray);

TEST(Heap, AllocatesZeroInitializedSlots) {
  Heap H;
  Object *O = H.allocate(&PairType, BirthState::Shared);
  ASSERT_NE(O, nullptr);
  EXPECT_EQ(O->slotCount(), 2u);
  EXPECT_EQ(O->rawLoad(0), 0u);
  EXPECT_EQ(O->rawLoad(1), 0u);
  EXPECT_EQ(O->type(), &PairType);
}

TEST(Heap, BirthStateShared) {
  Heap H;
  Object *O = H.allocate(&PairType, BirthState::Shared);
  EXPECT_EQ(O->txRecord().load(), TxRecord::makeShared(0));
}

TEST(Heap, BirthStatePrivate) {
  Heap H;
  Object *O = H.allocate(&PairType, BirthState::Private);
  EXPECT_TRUE(TxRecord::isPrivate(O->txRecord().load()));
}

TEST(Heap, ArrayAllocation) {
  Heap H;
  Object *A = H.allocateArray(&IntArrayType, 100, BirthState::Shared);
  EXPECT_EQ(A->slotCount(), 100u);
  for (uint32_t I = 0; I < 100; ++I)
    EXPECT_EQ(A->rawLoad(I), 0u);
  A->rawStore(50, 12345);
  EXPECT_EQ(A->rawLoad(50), 12345u);
}

TEST(Heap, RefSlotClassification) {
  Heap H;
  Object *N = H.allocate(&NodeType, BirthState::Shared);
  EXPECT_TRUE(N->isRefSlot(0));
  EXPECT_TRUE(N->isRefSlot(1));
  EXPECT_FALSE(N->isRefSlot(2));

  Object *IA = H.allocateArray(&IntArrayType, 4, BirthState::Shared);
  EXPECT_FALSE(IA->isRefSlot(0));
  Object *RA = H.allocateArray(&RefArrayType, 4, BirthState::Shared);
  EXPECT_TRUE(RA->isRefSlot(3));
}

TEST(Heap, RefSlotRoundTrip) {
  Heap H;
  Object *N = H.allocate(&NodeType, BirthState::Shared);
  Object *M = H.allocate(&PairType, BirthState::Shared);
  N->rawStoreRef(0, M);
  EXPECT_EQ(N->rawLoadRef(0), M);
  N->rawStoreRef(0, nullptr);
  EXPECT_EQ(N->rawLoadRef(0), nullptr);
}

TEST(Heap, ObjectsAreDistinctAndAligned) {
  Heap H;
  std::set<Object *> Seen;
  for (int I = 0; I < 1000; ++I) {
    Object *O = H.allocate(&PairType, BirthState::Shared);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(O) % alignof(Object), 0u);
    EXPECT_TRUE(Seen.insert(O).second) << "duplicate allocation";
  }
}

TEST(Heap, LargeArrayGetsDedicatedChunk) {
  Heap H(/*ChunkBytes=*/4096);
  Object *Big = H.allocateArray(&IntArrayType, 100000, BirthState::Shared);
  EXPECT_EQ(Big->slotCount(), 100000u);
  Big->rawStore(99999, 7);
  // A small allocation after the big one must still work.
  Object *Small = H.allocate(&PairType, BirthState::Shared);
  Small->rawStore(0, 9);
  EXPECT_EQ(Big->rawLoad(99999), 7u);
  EXPECT_EQ(Small->rawLoad(0), 9u);
}

TEST(Heap, ThreadCachesSwitchBetweenHeaps) {
  Heap A(4096), B(4096);
  Object *OA = A.allocate(&PairType, BirthState::Shared);
  Object *OB = B.allocate(&PairType, BirthState::Shared);
  Object *OA2 = A.allocate(&PairType, BirthState::Shared);
  OA->rawStore(0, 1);
  OB->rawStore(0, 2);
  OA2->rawStore(0, 3);
  EXPECT_EQ(OA->rawLoad(0), 1u);
  EXPECT_EQ(OB->rawLoad(0), 2u);
  EXPECT_EQ(OA2->rawLoad(0), 3u);
}

TEST(Heap, ConcurrentAllocationYieldsDistinctObjects) {
  Heap H;
  constexpr int Threads = 8;
  constexpr int PerThread = 5000;
  std::vector<std::vector<Object *>> All(Threads);
  std::vector<std::thread> Workers;
  for (int T = 0; T < Threads; ++T)
    Workers.emplace_back([&H, &All, T] {
      for (int I = 0; I < PerThread; ++I) {
        Object *O = H.allocate(&PairType, BirthState::Private);
        O->rawStore(0, static_cast<stm::Word>(T));
        All[T].push_back(O);
      }
    });
  for (auto &W : Workers)
    W.join();
  std::set<Object *> Seen;
  for (int T = 0; T < Threads; ++T)
    for (Object *O : All[T]) {
      EXPECT_TRUE(Seen.insert(O).second);
      EXPECT_EQ(O->rawLoad(0), static_cast<stm::Word>(T));
    }
  EXPECT_EQ(Seen.size(), size_t(Threads) * PerThread);
}

TEST(Heap, BytesAllocatedGrows) {
  Heap H;
  size_t Before = H.bytesAllocated();
  H.allocate(&PairType, BirthState::Shared);
  EXPECT_GE(H.bytesAllocated(), Before + Object::allocationSize(2));
}

constexpr size_t MiB = size_t(1) << 20;

/// The THPeligible flag /proc/self/smaps shows for the mapping holding
/// \p Addr, or -1 when no mapping or flag is found.
int thpEligible(const void *Addr) {
  std::ifstream Smaps("/proc/self/smaps");
  const uintptr_t A = reinterpret_cast<uintptr_t>(Addr);
  bool Inside = false;
  for (std::string Line; std::getline(Smaps, Line);) {
    uintptr_t Lo = 0, Hi = 0;
    char Dash = 0;
    std::istringstream Head(Line);
    if (Head >> std::hex >> Lo >> Dash >> Hi && Dash == '-') {
      Inside = Lo <= A && A < Hi;
      continue;
    }
    if (Inside && Line.rfind("THPeligible:", 0) == 0)
      return std::stoi(Line.substr(12));
  }
  return -1;
}

/// False when /sys/kernel/mm/transparent_hugepage/enabled reads [never]
/// or is absent.
bool thpAvailable() {
  std::ifstream F("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string Mode;
  return std::getline(F, Mode) && Mode.find("[never]") == std::string::npos;
}

TEST(Heap, HugeDedicatedChunkIsAlignedAndHugePageEligible) {
  Heap H;
  // 9 MiB of slots: past the thread's 1 MiB chunk, so a dedicated chunk.
  const uint32_t Slots = uint32_t(9 * MiB / sizeof(stm::Word));
  Object *Big = H.allocateArray(&IntArrayType, Slots, BirthState::Shared);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(Big) % (2 * MiB), 0u);
  Big->rawStore(Slots - 1, 5);
  EXPECT_EQ(Big->rawLoad(Slots - 1), 5u);
  if (thpAvailable()) {
    EXPECT_EQ(thpEligible(Big), 1) << "mapping of " << Big;
  }
}

TEST(Heap, ChunksDoubleAndStartOverInAFreshHeap) {
  // Tiny chunks make the doubling cheap to watch: every refill shows in
  // bytesAllocated() as the size of the chunk it mapped.
  constexpr size_t First = 4096;
  const uint32_t Slots = 256; // ~2 KiB objects.
  Heap A(First);
  std::vector<size_t> Refills;
  size_t Seen = 0;
  while (Refills.size() < 6) {
    A.allocateArray(&IntArrayType, Slots, BirthState::Shared);
    if (A.bytesAllocated() != Seen) {
      Refills.push_back(A.bytesAllocated() - Seen);
      Seen = A.bytesAllocated();
    }
  }
  EXPECT_EQ(Refills, (std::vector<size_t>{First, 2 * First, 4 * First,
                                          8 * First, 16 * First,
                                          32 * First}));
  // The same thread's first refill in another heap is ChunkBytes again.
  Heap B(First);
  B.allocate(&PairType, BirthState::Shared);
  EXPECT_EQ(B.bytesAllocated(), First);
}

TEST(Heap, DestructorUnmapsEveryHugeChunkWholeAcrossThreads) {
  // Four threads take 16 MiB each: chunks of 1, 2 and 4 MiB from operator
  // new, then mapped chunks of 8 and 16 MiB, 124 MiB in all. Each thread
  // keeps the first and last allocated byte of every chunk it used; a
  // chunk starts wherever an allocation does not follow its predecessor.
  constexpr int Threads = 4;
  const uint32_t Slots = uint32_t(256 * 1024 / sizeof(stm::Word));
  const size_t ObjBytes = Object::allocationSize(Slots);
  auto H = std::make_unique<Heap>();
  std::vector<std::vector<const char *>> Ends(Threads);
  std::vector<std::thread> Workers;
  for (int T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      const char *Prev = nullptr;
      for (size_t Taken = 0; Taken < 16 * MiB; Taken += ObjBytes) {
        const char *O = reinterpret_cast<const char *>(
            H->allocateArray(&IntArrayType, Slots, BirthState::Shared));
        if (!Prev || O != Prev + ObjBytes) {
          if (Prev)
            Ends[T].push_back(Prev + ObjBytes - 1);
          Ends[T].push_back(O);
        }
        Prev = O;
      }
      Ends[T].push_back(Prev + ObjBytes - 1);
    });
  for (std::thread &W : Workers)
    W.join();
  EXPECT_GT(H->bytesAllocated(), 64 * MiB);

  // Chunks 3 and 4 of each thread are its 8 and 16 MiB mappings: probe
  // their first and last bytes.
  std::vector<uintptr_t> Probes;
  for (const auto &E : Ends) {
    ASSERT_EQ(E.size(), 10u) << "expected 5 chunks per thread";
    for (unsigned C = 3; C < 5; ++C) {
      const uintptr_t First = reinterpret_cast<uintptr_t>(E[2 * C]);
      Probes.push_back(First);
      Probes.push_back(First + (MiB << C) - 1);
    }
  }
  const uintptr_t Page = uintptr_t(::sysconf(_SC_PAGESIZE));
  auto Probe = [Page](uintptr_t P) {
    unsigned char Vec = 0;
    return ::mincore(reinterpret_cast<void *>(P & ~(Page - 1)), Page,
                     &Vec) == 0
               ? 0
               : errno;
  };
  for (uintptr_t P : Probes)
    ASSERT_EQ(Probe(P), 0) << std::hex << P;

  // Probe right after the unmap, allocating nothing in between, so no
  // new mapping can land on a probed address.
  std::vector<int> Errs(Probes.size());
  H.reset();
  for (size_t I = 0; I < Probes.size(); ++I)
    Errs[I] = Probe(Probes[I]);
  for (size_t I = 0; I < Probes.size(); ++I)
    EXPECT_EQ(Errs[I], ENOMEM) << std::hex << Probes[I];
}

/// Property sweep: allocation size covers header plus slots for any count.
class HeapSizeSweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(HeapSizeSweep, ArrayOfAnySizeIsUsable) {
  Heap H;
  uint32_t N = GetParam();
  Object *A = H.allocateArray(&IntArrayType, N, BirthState::Shared);
  ASSERT_EQ(A->slotCount(), N);
  if (N == 0)
    return;
  A->rawStore(0, 1);
  A->rawStore(N - 1, 2);
  EXPECT_EQ(A->rawLoad(0), N == 1 ? 2u : 1u);
  EXPECT_EQ(A->rawLoad(N - 1), 2u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, HeapSizeSweep,
                         ::testing::Values(0, 1, 2, 3, 15, 16, 17, 255, 1024,
                                           65536));

} // namespace
