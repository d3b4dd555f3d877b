//===- rt/Object.h - Managed object with transaction record ----*- C++ -*-===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The managed object representation. "Each object has a transaction field
/// holding its transaction record" (§3.1); here the record is the first
/// header word, followed by the type descriptor, the slot count, the
/// snapshot plane's version index (in the slot count's padding, so the
/// header stays three words), and the word-sized data slots. All slots are
/// std::atomic<Word> accessed with explicit memory orders, so the data
/// races the paper studies (between transactional and non-transactional
/// code) are well-defined at the C++ level while still compiling to plain
/// loads/stores on x86.
///
//===----------------------------------------------------------------------===//

#ifndef SATM_RT_OBJECT_H
#define SATM_RT_OBJECT_H

#include "rt/TypeDescriptor.h"
#include "stm/TxRecord.h"

#include <atomic>
#include <cassert>

namespace satm {
namespace rt {

using stm::Word;

/// A managed heap object: one transaction-record header word plus N data
/// slots. Instances are created only by Heap; the class itself is
/// non-copyable and has no public constructor.
class Object {
public:
  Object(const Object &) = delete;
  Object &operator=(const Object &) = delete;

  /// The object's transaction record (paper Figure 7).
  std::atomic<Word> &txRecord() { return TxRec; }
  const std::atomic<Word> &txRecord() const { return TxRec; }

  const TypeDescriptor *type() const { return Type; }

  /// Number of data slots in this instance (fields, or array length).
  uint32_t slotCount() const { return NumSlots; }

  /// The snapshot plane's directory index of this object's version chain
  /// (stm/Snapshot.h), or 0 if it never had one. Set by the chain's
  /// creator, which holds the record, before its first dirty in-place
  /// write; an index left over from before snap::resetTable may be stale.
  uint32_t versionIndex() const {
    return VersionIdx.load(std::memory_order_acquire);
  }
  void setVersionIndex(uint32_t I) {
    VersionIdx.store(I, std::memory_order_release);
  }

  /// The \p I'th data slot.
  std::atomic<Word> &slot(uint32_t I) {
    assert(I < NumSlots && "slot index out of range");
    return slots()[I];
  }
  const std::atomic<Word> &slot(uint32_t I) const {
    assert(I < NumSlots && "slot index out of range");
    return slots()[I];
  }

  /// Unbarriered load/store helpers. Barrier code in stm/ wraps these.
  Word rawLoad(uint32_t I,
               std::memory_order MO = std::memory_order_relaxed) const {
    return slot(I).load(MO);
  }
  void rawStore(uint32_t I, Word V,
                std::memory_order MO = std::memory_order_relaxed) {
    slot(I).store(V, MO);
  }

  /// Reference slots store the referee's address; null is 0.
  Object *rawLoadRef(uint32_t I,
                     std::memory_order MO = std::memory_order_relaxed) const {
    return fromWord(rawLoad(I, MO));
  }
  void rawStoreRef(uint32_t I, Object *O,
                   std::memory_order MO = std::memory_order_relaxed) {
    rawStore(I, toWord(O), MO);
  }

  /// Converts between reference slots' word representation and pointers.
  static Word toWord(const Object *O) { return reinterpret_cast<Word>(O); }
  static Object *fromWord(Word W) { return reinterpret_cast<Object *>(W); }

  /// True iff slot \p I holds a reference according to the type layout.
  bool isRefSlot(uint32_t I) const {
    assert(I < NumSlots && "slot index out of range");
    if (Type->kind() == TypeKind::RefArray)
      return true;
    if (Type->kind() == TypeKind::IntArray)
      return false;
    for (uint32_t R : Type->refSlots())
      if (R == I)
        return true;
    return false;
  }

  /// Number of bytes an instance with \p NumSlots slots occupies.
  static size_t allocationSize(uint32_t NumSlots) {
    return sizeof(Object) + size_t(NumSlots) * sizeof(std::atomic<Word>);
  }

private:
  friend class Heap;

  Object(const TypeDescriptor *Type, uint32_t NumSlots, Word InitialRecord)
      : TxRec(InitialRecord), Type(Type), NumSlots(NumSlots), VersionIdx(0) {
    for (uint32_t I = 0; I < NumSlots; ++I)
      new (&slots()[I]) std::atomic<Word>(0);
  }

  std::atomic<Word> *slots() {
    return reinterpret_cast<std::atomic<Word> *>(this + 1);
  }
  const std::atomic<Word> *slots() const {
    return reinterpret_cast<const std::atomic<Word> *>(this + 1);
  }

  std::atomic<Word> TxRec;
  const TypeDescriptor *Type;
  uint32_t NumSlots;
  std::atomic<uint32_t> VersionIdx;
};

static_assert(alignof(Object) >= 8, "records require 8-aligned objects");
static_assert(sizeof(Object) == 24,
              "the version index must fit the slot count's padding");

} // namespace rt
} // namespace satm

#endif // SATM_RT_OBJECT_H
