//===- rt/Heap.cpp - Arena allocator for managed objects -----------------===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//

#include "rt/Heap.h"

#include "support/FaultInjector.h"

#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <new>

using namespace satm;
using namespace satm::rt;

namespace {
std::atomic<uint64_t> NextHeapId{1};

/// A thread's chunk stops doubling here.
constexpr size_t MaxChunkBytes = size_t(64) << 20;
/// Chunks of at least this size are mapped for transparent huge pages.
constexpr size_t HugeChunkBytes = size_t(8) << 20;
constexpr size_t HugePageBytes = size_t(2) << 20;

/// Allocates a chunk of \p Bytes. A chunk under HugeChunkBytes comes from
/// operator new, whose allocator can hand a dead heap's chunks to the next
/// heap with their pages already faulted in; short-lived small heaps
/// (set-up reps, figure passes) rely on that. A huge chunk (\p Bytes a
/// multiple of HugePageBytes) is an anonymous mapping, over-mapped by one
/// huge page, trimmed to a 2 MiB boundary and advised MADV_HUGEPAGE.
/// Without THP (set to never, or not built in) the advice has no effect or
/// fails, and the chunk stays on 4 KiB pages; either way the result is
/// ignored.
char *newChunk(size_t Bytes) {
  if (Bytes < HugeChunkBytes)
    return static_cast<char *>(
        ::operator new[](Bytes, std::align_val_t(alignof(Object))));
  void *Raw = ::mmap(nullptr, Bytes + HugePageBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (Raw == MAP_FAILED)
    throw std::bad_alloc();
  char *Lo = static_cast<char *>(Raw);
  size_t Head = -reinterpret_cast<uintptr_t>(Lo) & (HugePageBytes - 1);
  if (Head)
    ::munmap(Lo, Head);
  ::munmap(Lo + Head + Bytes, HugePageBytes - Head);
  (void)::madvise(Lo + Head, Bytes, MADV_HUGEPAGE);
  return Lo + Head;
}

/// Releases a chunk newChunk(\p Bytes) returned.
void deleteChunk(char *Base, size_t Bytes) {
  if (Bytes < HugeChunkBytes)
    ::operator delete[](Base, std::align_val_t(alignof(Object)));
  else
    ::munmap(Base, Bytes);
}
} // namespace

/// Per-thread bump region carved out of the owning heap.
struct Heap::ThreadCache {
  uint64_t HeapId = 0;
  char *Cur = nullptr;
  char *End = nullptr;
  size_t NextChunk = 0; ///< Size of this thread's next refill.
};

Heap::Heap(size_t ChunkBytes)
    : ChunkBytes(ChunkBytes), HeapId(NextHeapId.fetch_add(1)) {}

Heap::~Heap() {
  for (const Chunk &C : Chunks)
    deleteChunk(C.Base, C.Bytes);
}

Heap &Heap::global() {
  static Heap G;
  return G;
}

Heap::ThreadCache &Heap::cacheForThisThread() {
  thread_local ThreadCache Cache;
  if (Cache.HeapId != HeapId) {
    Cache.HeapId = HeapId;
    Cache.Cur = Cache.End = nullptr;
    Cache.NextChunk = ChunkBytes;
  }
  return Cache;
}

void *Heap::bump(size_t Bytes) {
  Bytes = (Bytes + alignof(Object) - 1) & ~(alignof(Object) - 1);
  ThreadCache &Cache = cacheForThisThread();
  if (static_cast<size_t>(Cache.End - Cache.Cur) < Bytes) {
    // Refill: oversized requests get their own chunk; otherwise the
    // thread's chunk doubles, up to MaxChunkBytes.
    const bool Oversized = Bytes > Cache.NextChunk;
    size_t Need = Oversized ? Bytes : Cache.NextChunk;
    if (Need >= HugeChunkBytes)
      Need = (Need + HugePageBytes - 1) & ~(HugePageBytes - 1);
    char *Base = newChunk(Need);
    try {
      std::lock_guard<std::mutex> Lock(Mutex);
      Chunks.push_back({Base, Need});
    } catch (...) {
      deleteChunk(Base, Need);
      throw;
    }
    // Account the whole chunk at refill time instead of per allocation:
    // one contended fetch_add per chunk rather than one per object, at
    // the cost of bytesAllocated() reporting reserved bytes (an upper
    // bound that includes each cache's unused tail).
    BytesAllocated.fetch_add(Need, std::memory_order_relaxed);
    if (Oversized)
      return Base; // Dedicated chunk; keep the current region.
    if (Need < MaxChunkBytes)
      Cache.NextChunk = std::min(2 * Need, MaxChunkBytes);
    Cache.Cur = Base;
    Cache.End = Base + Need;
  }
  char *Result = Cache.Cur;
  Cache.Cur += Bytes;
  return Result;
}

Object *Heap::allocateRaw(const TypeDescriptor *Type, uint32_t NumSlots,
                          BirthState Birth) {
  // FaultSite::HeapAlloc: a simulated out-of-memory, thrown before any
  // state changes so an enclosing transaction's foreign-exception path
  // rolls back and propagates it. Suppressed on threads running
  // serial-irrevocable (FaultInjector::setThreadSuppressed) — this layer
  // cannot see transaction state, but an irrevocable attempt must not die.
  if (faultPoint(FaultSite::HeapAlloc)) [[unlikely]]
    throw std::bad_alloc();
  void *Mem = bump(Object::allocationSize(NumSlots));
  Word Init = Birth == BirthState::Private
                  ? stm::TxRecord::PrivateWord
                  : stm::TxRecord::makeShared(0);
  return new (Mem) Object(Type, NumSlots, Init);
}

Object *Heap::allocate(const TypeDescriptor *Type, BirthState Birth) {
  assert(Type->kind() == TypeKind::Class && "use allocateArray for arrays");
  return allocateRaw(Type, Type->fieldCount(), Birth);
}

Object *Heap::allocateArray(const TypeDescriptor *Type, uint32_t Length,
                            BirthState Birth) {
  assert(Type->isArray() && "use allocate for class instances");
  return allocateRaw(Type, Length, Birth);
}
