//===- rt/Heap.h - Arena allocator for managed objects ---------*- C++ -*-===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A chunked arena allocator for managed objects. Objects live until the
/// heap is destroyed (the paper's system has a GC; our experiments never
/// depend on reclamation, see DESIGN.md §5). Allocation takes a per-thread
/// bump-pointer fast path and falls back to a mutex-protected chunk refill.
///
/// Each thread's chunk doubles at every refill, from ChunkBytes up to
/// 64 MiB, and a request larger than the thread's chunk gets a dedicated
/// one. Every chunk of 8 MiB or more is an anonymous mapping aligned to
/// 2 MiB and advised MADV_HUGEPAGE, so a heap far larger than the TLB's
/// reach (a 4 Mi-key store) is walked through huge pages; smaller chunks
/// come from operator new, so a thread that allocates under 7 MiB
/// (1 + 2 + 4) keeps 4 KiB pages and the allocator's reuse of a dead
/// heap's chunks. A huge chunk costs at most one partly used 2 MiB page
/// of extra RSS.
///
/// New objects are born Private when dynamic escape analysis is enabled
/// ("A freshly minted object is private", §4) and Shared(version 0)
/// otherwise, matching the barrier variant in use (Figure 9 vs Figure 10).
///
//===----------------------------------------------------------------------===//

#ifndef SATM_RT_HEAP_H
#define SATM_RT_HEAP_H

#include "rt/Object.h"

#include <cstddef>
#include <mutex>
#include <vector>

namespace satm {
namespace rt {

/// Controls the birth state of allocated objects.
enum class BirthState : uint8_t {
  Private, ///< Dynamic escape analysis on: record starts all-ones.
  Shared,  ///< DEA off: record starts Shared(0); every object is public.
};

/// A growable arena of managed objects.
class Heap {
public:
  explicit Heap(size_t ChunkBytes = 1u << 20);
  ~Heap();
  Heap(const Heap &) = delete;
  Heap &operator=(const Heap &) = delete;

  /// Allocates a class instance of \p Type.
  Object *allocate(const TypeDescriptor *Type, BirthState Birth);

  /// Allocates an array instance of \p Type with \p Length slots.
  Object *allocateArray(const TypeDescriptor *Type, uint32_t Length,
                        BirthState Birth);

  /// Total bytes reserved so far (for stats/tests). Accounted per chunk
  /// refill, not per allocation, so this is an upper bound on bytes handed
  /// out that includes each thread cache's unused tail: up to one 64 MiB
  /// chunk per allocating thread.
  size_t bytesAllocated() const { return BytesAllocated; }

  /// Process-wide default heap.
  static Heap &global();

private:
  Object *allocateRaw(const TypeDescriptor *Type, uint32_t NumSlots,
                      BirthState Birth);
  void *bump(size_t Bytes);

  struct ThreadCache;
  ThreadCache &cacheForThisThread();

  /// One chunk; ~Heap releases it by its recorded size.
  struct Chunk {
    char *Base;
    size_t Bytes;
  };

  size_t ChunkBytes; ///< Each thread's first chunk.
  std::mutex Mutex;
  std::vector<Chunk> Chunks;
  std::atomic<size_t> BytesAllocated{0};
  /// Generation stamp: thread caches referring to an older generation (or a
  /// different heap) refill before use, which keeps thread_local caches
  /// correct across multiple Heap instances in one test binary.
  uint64_t HeapId;
};

} // namespace rt
} // namespace satm

#endif // SATM_RT_HEAP_H
