//===- stm/Snapshot.cpp - Multi-version snapshot read plane --------------===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//

#include "stm/Snapshot.h"
#include "stm/Config.h"
#include "stm/Quiesce.h"
#include "stm/Stats.h"
#include "support/FaultInjector.h"

#include <cassert>
#include <cstddef>
#include <cstdlib>
#include <new>

using namespace satm;
using namespace satm::stm;
using namespace satm::stm::snap;
using rt::Object;

namespace {

/// One object's version chain. Entries are created only by a writer that
/// holds the object's transaction record exclusively (so per-object there
/// is exactly one creator) and live until resetTable(). BucketNext/AllNext
/// are immutable after the insertion CASes succeed.
struct VersionEntry {
  Object *Obj;
  std::atomic<VersionNode *> Head;
  VersionEntry *BucketNext;
  VersionEntry *AllNext;
};

constexpr size_t NumBuckets = size_t(1) << 14;

struct Table {
  std::atomic<VersionEntry *> Buckets[NumBuckets];
  std::atomic<VersionEntry *> AllEntries{nullptr};

  static Table &get() {
    static Table T;
    return T;
  }
};

std::atomic<VersionEntry *> &bucketFor(const Object *O) {
  uintptr_t P = reinterpret_cast<uintptr_t>(O);
  // Fibonacci hash of the pointer, low bits dropped (heap alignment).
  uint64_t H = (uint64_t(P) >> 4) * 0x9E3779B97F4A7C15ull;
  return Table::get().Buckets[(H >> 32) & (NumBuckets - 1)];
}

VersionEntry *findEntry(const Object *O) {
  for (VersionEntry *E = bucketFor(O).load(std::memory_order_acquire); E;
       E = E->BucketNext)
    if (E->Obj == O)
      return E;
  return nullptr;
}

Word readChain(const VersionEntry *E, Object *O, uint32_t Slot,
               uint64_t Epoch) {
  for (VersionNode *N = E->Head.load(std::memory_order_acquire); N;
       N = N->Next.load(std::memory_order_acquire)) {
    if (N->Epoch <= Epoch) {
      assert(Slot < N->NumSlots && "snapshot read past object bounds");
      return N->Values[Slot];
    }
  }
  // Unreachable while the pin protocol holds: the base node has epoch 0
  // and pruning never drops below Quiescence::minPinnedEpoch(). Keep a
  // safe fallback for release builds.
  assert(false && "version chain has no node at or below the pinned epoch");
  return O->rawLoad(Slot, std::memory_order_acquire);
}

size_t freeChain(VersionNode *N) {
  size_t Freed = 0;
  while (N) {
    VersionNode *Next = N->Next.load(std::memory_order_relaxed);
    std::free(N);
    N = Next;
    ++Freed;
  }
  return Freed;
}

} // namespace

snap::detail::LineCounter snap::detail::EntryCount;
snap::detail::LineCounter snap::detail::NodeCount;

VersionNode *snap::allocateNode(Object *O) {
  if (faultPoint(FaultSite::HeapAlloc)) {
    traceEvent(TraceKind::FaultFired, uint8_t(FaultSite::HeapAlloc));
    return nullptr;
  }
  uint32_t Slots = O->slotCount();
  size_t Bytes = offsetof(VersionNode, Values) + size_t(Slots) * sizeof(Word);
  void *Mem = std::malloc(Bytes);
  if (!Mem)
    return nullptr;
  VersionNode *N = static_cast<VersionNode *>(Mem);
  N->Epoch = 0;
  new (&N->Next) std::atomic<VersionNode *>(nullptr);
  N->NumSlots = Slots;
  detail::NodeCount.Value.fetch_add(1, std::memory_order_release);
  return N;
}

void snap::freeNode(VersionNode *N) {
  std::free(N);
  detail::NodeCount.Value.fetch_sub(1, std::memory_order_release);
}

void snap::fillNode(Object *O, VersionNode *N) {
  // The caller holds O's record exclusively: no committed write can race
  // this copy, and the caller's own in-place writes happened on this
  // thread, so relaxed loads see them.
  for (uint32_t I = 0; I < N->NumSlots; ++I)
    N->Values[I] = O->rawLoad(I, std::memory_order_relaxed);
}

bool snap::ensureBaseNode(Object *O) {
  if (findEntry(O))
    return true;
  VersionNode *Base = allocateNode(O);
  if (!Base)
    return false;
  fillNode(O, Base); // Epoch stays 0: "before every snapshot".
  void *Mem = std::malloc(sizeof(VersionEntry));
  if (!Mem) {
    freeNode(Base);
    return false;
  }
  VersionEntry *E = static_cast<VersionEntry *>(Mem);
  E->Obj = O;
  new (&E->Head) std::atomic<VersionNode *>(Base);
  // Bucket insert: we are the only creator for O (record held), but other
  // objects hashing here race the prepend.
  std::atomic<VersionEntry *> &B = bucketFor(O);
  VersionEntry *Cur = B.load(std::memory_order_relaxed);
  do {
    E->BucketNext = Cur;
  } while (!B.compare_exchange_weak(Cur, E, std::memory_order_release,
                                    std::memory_order_relaxed));
  Table &T = Table::get();
  VersionEntry *All = T.AllEntries.load(std::memory_order_relaxed);
  do {
    E->AllNext = All;
  } while (!T.AllEntries.compare_exchange_weak(All, E,
                                               std::memory_order_release,
                                               std::memory_order_relaxed));
  detail::EntryCount.Value.fetch_add(1, std::memory_order_relaxed);
  return true;
}

uint64_t snap::newestEpoch(Object *O) {
  VersionEntry *E = findEntry(O);
  if (!E)
    return 0;
  VersionNode *N = E->Head.load(std::memory_order_acquire);
  return N ? N->Epoch : 0;
}

bool snap::hasChain(Object *O) { return findEntry(O) != nullptr; }

void snap::publishNode(Object *O, VersionNode *N, uint64_t Epoch) {
  VersionEntry *E = findEntry(O);
  assert(E && "publishNode without a prior ensureBaseNode");
  N->Epoch = Epoch;
  // Single publisher per object (record held): plain read-modify-write of
  // the head, release so readers acquiring Head see the filled values.
  VersionNode *Head = E->Head.load(std::memory_order_relaxed);
  assert((!Head || Head->Epoch < Epoch) && "publishing out of epoch order");
  N->Next.store(Head, std::memory_order_relaxed);
  E->Head.store(N, std::memory_order_release);

  // Prune: keep the newest node at or below the oldest pin (every pinned
  // reader stops its walk there or earlier), free everything older. A
  // reader never loads the Next pointer of its stop node, so the freed
  // tail is unreachable the moment the stop node's Next is severed.
  uint64_t MinPin = Quiescence::minPinnedEpoch();
  VersionNode *Stop = N;
  while (Stop->Epoch > MinPin) {
    VersionNode *Older = Stop->Next.load(std::memory_order_relaxed);
    if (!Older)
      return; // Chain already shorter than the pin horizon.
    Stop = Older;
  }
  VersionNode *Tail = Stop->Next.load(std::memory_order_relaxed);
  if (!Tail)
    return;
  Stop->Next.store(nullptr, std::memory_order_release);
  uint64_t Freed = 0;
  while (Tail) {
    VersionNode *Older = Tail->Next.load(std::memory_order_relaxed);
    std::free(Tail);
    Tail = Older;
    ++Freed;
  }
  detail::NodeCount.Value.fetch_sub(Freed, std::memory_order_release);
  statsForThisThread().SnapshotNodesFreed += Freed;
}

Word snap::readAtEpoch(Object *O, uint32_t Slot, uint64_t Epoch) {
  // Empty-table fast path: while no transactional commit has created any
  // version entry, every read is the chain-less in-place fallback — skip
  // the bucket probe and check one hot shared counter instead. Sound by
  // the same double-check as the per-object miss path below: entries are
  // installed (and EntryCount bumped) before the first dirty in-place
  // write, and in-place transactional writes are release stores — so if
  // the raw load observed any post-entry value, it synchronized with that
  // release, the writer's prior EntryCount increment is visible to the
  // second acquire load, and we fall through to the versioned path.
  if (tableEntries() == 0) {
    Word V = O->rawLoad(Slot, std::memory_order_acquire);
    if (tableEntries() == 0)
      return V;
  }
  if (const VersionEntry *E = findEntry(O))
    return readChain(E, O, Slot, Epoch);
  // Chain-less object: read in place. The load is racy against a first
  // writer installing the base node and then writing, so re-check the
  // table afterwards: if an entry exists now, the in-place value may
  // already be dirty — take the versioned path instead. If the entry
  // still doesn't exist, no transactional commit has touched O since the
  // load (base nodes are installed before the first dirty write, and
  // in-place transactional writes are release stores).
  Word V = O->rawLoad(Slot, std::memory_order_acquire);
  if (const VersionEntry *E = findEntry(O))
    return readChain(E, O, Slot, Epoch);
  return V;
}

void snap::resetTable() {
  Table &T = Table::get();
  VersionEntry *E = T.AllEntries.exchange(nullptr, std::memory_order_acq_rel);
  if (!E && detail::EntryCount.Value.load(std::memory_order_relaxed) == 0)
    return;
  size_t Freed = 0;
  while (E) {
    VersionEntry *Next = E->AllNext;
    Freed += freeChain(E->Head.load(std::memory_order_relaxed));
    std::free(E);
    E = Next;
  }
  for (size_t I = 0; I < NumBuckets; ++I)
    T.Buckets[I].store(nullptr, std::memory_order_relaxed);
  detail::EntryCount.Value.store(0, std::memory_order_relaxed);
  detail::NodeCount.Value.fetch_sub(Freed, std::memory_order_release);
}

size_t snap::chainLength(Object *O) {
  VersionEntry *E = findEntry(O);
  if (!E)
    return 0;
  size_t Len = 0;
  for (VersionNode *N = E->Head.load(std::memory_order_acquire); N;
       N = N->Next.load(std::memory_order_acquire))
    ++Len;
  return Len;
}
