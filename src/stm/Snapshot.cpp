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
#include <cstdio>
#include <cstdlib>
#include <new>

using namespace satm;
using namespace satm::stm;
using namespace satm::stm::snap;
using rt::Object;

namespace {

/// One object's version chain, named by the index in the object's header.
/// Obj is the back-pointer that tells a live entry from a stale index: a
/// header whose index predates resetTable finds another object here (or
/// none) and reads as chain-less. Both fields are set once by the creator,
/// which holds the object's record; Head then changes only under it.
struct VersionEntry {
  std::atomic<VersionNode *> Head;
  std::atomic<Object *> Obj;
};

/// 4096 entries (64 KiB) per segment; enough segments for every 32-bit
/// index. A segment is allocated when its first index is handed out and
/// lives until resetTable, so an entry never moves.
constexpr unsigned SegmentBits = 12;
constexpr uint32_t SegmentSize = uint32_t(1) << SegmentBits;
constexpr size_t NumSegments = size_t(1) << (32 - SegmentBits);

struct Segment {
  VersionEntry Entries[SegmentSize];
};

/// The append-only directory: index I names entry I % SegmentSize of
/// segment I / SegmentSize. Index 0 is never handed out ("no chain").
constinit std::atomic<Segment *> Segments[NumSegments];
constinit std::atomic<uint64_t> NextIndex{1};

VersionEntry *entryFor(const Object *O) {
  uint32_t I = O->versionIndex();
  if (I == 0)
    return nullptr;
  Segment *S = Segments[I >> SegmentBits].load(std::memory_order_acquire);
  if (!S)
    return nullptr; // Stale index whose segment resetTable freed.
  VersionEntry &E = S->Entries[I & (SegmentSize - 1)];
  return E.Obj.load(std::memory_order_acquire) == O ? &E : nullptr;
}

/// The entry for a freshly handed-out index \p I, allocating its segment
/// if no earlier holder of an index in it has. Null if allocation failed.
VersionEntry *claimEntry(uint32_t I) {
  std::atomic<Segment *> &Slot = Segments[I >> SegmentBits];
  Segment *S = Slot.load(std::memory_order_acquire);
  if (!S) {
    Segment *Fresh = new (std::nothrow) Segment();
    if (!Fresh)
      return nullptr;
    // Different first writers may hold indexes of one segment: the first
    // to get here installs it, the rest use the winner's.
    if (Slot.compare_exchange_strong(S, Fresh, std::memory_order_acq_rel,
                                     std::memory_order_acquire))
      S = Fresh;
    else
      delete Fresh;
  }
  return &S->Entries[I & (SegmentSize - 1)];
}

/// Adds \p Delta to the calling thread's registry-slot node count. Only
/// the slot's owner writes it (resetTable aside, which runs with no thread
/// inside the STM), so a load and a store do: no locked instruction, and
/// no line shared with other committers.
void addNodes(int64_t Delta) {
  std::atomic<int64_t> &C = Quiescence::slotForThisThread().NodeCount;
  C.store(C.load(std::memory_order_relaxed) + Delta,
          std::memory_order_relaxed);
}

void fillNode(Object *O, VersionNode *N) {
  // The caller holds O's record exclusively: no committed write can race
  // this copy, and the caller's own in-place writes happened on this
  // thread, so relaxed loads see them.
  for (uint32_t I = 0; I < N->NumSlots; ++I)
    N->Values[I] = O->rawLoad(I, std::memory_order_relaxed);
}

/// Frees \p N and every older node after it; returns how many.
int64_t freeChain(VersionNode *N) {
  int64_t Freed = 0;
  while (N) {
    VersionNode *Next = N->Next.load(std::memory_order_relaxed);
    std::free(N);
    N = Next;
    ++Freed;
  }
  return Freed;
}

/// Stamps \p N with \p Epoch, links it as the newest version of \p O, and
/// prunes the chain past \p MinPin. Returns the number of nodes freed.
int64_t linkNode(Object *O, VersionNode *N, uint64_t Epoch, uint64_t MinPin) {
  VersionEntry *E = entryFor(O);
  assert(E && "publishing without a prior ensureBaseNode");
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
  VersionNode *Stop = N;
  while (Stop->Epoch > MinPin) {
    VersionNode *Older = Stop->Next.load(std::memory_order_relaxed);
    if (!Older)
      return 0; // Chain already shorter than the pin horizon.
    Stop = Older;
  }
  VersionNode *Tail = Stop->Next.load(std::memory_order_relaxed);
  if (!Tail)
    return 0;
  Stop->Next.store(nullptr, std::memory_order_release);
  return freeChain(Tail);
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

} // namespace

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
  return N;
}

void snap::freeNode(VersionNode *N) { std::free(N); }

bool snap::ensureBaseNode(Object *O) {
  if (entryFor(O))
    return true;
  VersionNode *Base = allocateNode(O);
  if (!Base)
    return false;
  fillNode(O, Base); // Epoch stays 0: "before every snapshot".
  uint64_t I = NextIndex.fetch_add(1, std::memory_order_relaxed);
  if (I > UINT32_MAX) {
    std::fprintf(stderr, "satm: snapshot directory exhausted: more than "
                         "2^32-1 version chains since the last reset\n");
    std::abort();
  }
  VersionEntry *E = claimEntry(uint32_t(I));
  if (!E) {
    freeNode(Base);
    return false;
  }
  E->Head.store(Base, std::memory_order_relaxed);
  // Obj last, with release: a reader reaching this entry through a stale
  // index that happens to equal I, unsynchronized with the header store
  // below, sees the base node once it sees its own object here.
  E->Obj.store(O, std::memory_order_release);
  // Before the caller's first dirty in-place write, itself a release
  // store: a reader whose raw load saw that write sees this index too.
  O->setVersionIndex(uint32_t(I));
  addNodes(1);
  return true;
}

uint64_t snap::newestEpoch(Object *O) {
  VersionEntry *E = entryFor(O);
  if (!E)
    return 0;
  VersionNode *N = E->Head.load(std::memory_order_acquire);
  return N ? N->Epoch : 0;
}

bool snap::hasChain(Object *O) { return entryFor(O) != nullptr; }

uint64_t snap::publishCommit(const PendingVersions &Nodes) {
  for (const auto &[O, N] : Nodes)
    fillNode(O, N);
  // One pin scan serves every chain of the commit, taken before the
  // ticket so it does not lengthen the window. Any later point would do:
  // a pin the scan misses re-pins at or above the scan's stable read, and
  // the stable epoch only grows.
  uint64_t MinPin = Quiescence::minPinnedEpoch();
  // From here until Quiescence::completePublish (the caller's duty, after
  // releasing the locks) this ticket holds the stable frontier back, so
  // the window must not wait on anything a later ticket could hold.
  uint64_t Ticket = Quiescence::beginPublish();
  int64_t Freed = 0;
  for (const auto &[O, N] : Nodes)
    Freed += linkNode(O, N, Ticket, MinPin);
  addNodes(int64_t(Nodes.size()) - Freed);
  auto &Stats = statsForThisThread();
  Stats.SnapshotPublishes++;
  Stats.SnapshotNodesFreed += uint64_t(Freed);
  traceEvent(TraceKind::SnapshotPublish,
             uint8_t(Nodes.size() < 255 ? Nodes.size() : 255));
  return Ticket;
}

Word snap::readAtEpoch(Object *O, uint32_t Slot, uint64_t Epoch) {
  if (const VersionEntry *E = entryFor(O))
    return readChain(E, O, Slot, Epoch);
  // Chain-less object: read in place. The load is racy against a first
  // writer installing the base node and then writing, so re-check the
  // header afterwards: if an entry exists now, the in-place value may
  // already be dirty — take the versioned path instead. If the entry
  // still doesn't exist, no transactional commit has touched O since the
  // load (the index is stored before the first dirty write, and in-place
  // transactional writes are release stores).
  Word V = O->rawLoad(Slot, std::memory_order_acquire);
  if (const VersionEntry *E = entryFor(O))
    return readChain(E, O, Slot, Epoch);
  return V;
}

void snap::resetTable() {
  uint64_t Used = NextIndex.exchange(1, std::memory_order_relaxed);
  for (size_t S = 0; S <= ((Used - 1) >> SegmentBits); ++S) {
    Segment *Seg = Segments[S].exchange(nullptr, std::memory_order_relaxed);
    if (!Seg)
      continue;
    for (VersionEntry &E : Seg->Entries)
      freeChain(E.Head.load(std::memory_order_relaxed));
    delete Seg;
  }
  for (unsigned I = 0, N = Quiescence::peakSlots(); I < N; ++I)
    Quiescence::slotAt(I).NodeCount.store(0, std::memory_order_relaxed);
}

size_t snap::tableEntries() {
  return size_t(NextIndex.load(std::memory_order_acquire) - 1);
}

size_t snap::liveNodes() {
  int64_t Sum = 0;
  for (unsigned I = 0, N = Quiescence::peakSlots(); I < N; ++I)
    Sum += Quiescence::slotAt(I).NodeCount.load(std::memory_order_acquire);
  return size_t(Sum);
}

size_t snap::chainLength(Object *O) {
  VersionEntry *E = entryFor(O);
  if (!E)
    return 0;
  size_t Len = 0;
  for (VersionNode *N = E->Head.load(std::memory_order_acquire); N;
       N = N->Next.load(std::memory_order_acquire))
    ++Len;
  return Len;
}
