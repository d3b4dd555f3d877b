//===- satmbench/Checks.h - Output checks of the SATM benchmark -*- C++ -*-===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The checks that decide whether a run's outputs are correct. Each one is
/// a small function or class over plain inputs so tests/checks_test.cpp can
/// feed it corrupted inputs and show that it rejects them.
///
///  - Value tags: every value the benchmark stores for key K carries K in
///    its high 32 bits, so a read that returns another key's value (a
///    wrong probe slot, a torn record) is caught on the read itself.
///  - Store equality: the recovered store must equal the live store key
///    by key (stronger than RecoveryStats::ApplyFailures == 0).
///  - Answer ledger: on the wire, every correlation id sent must be
///    answered exactly once.
///
//===----------------------------------------------------------------------===//

#ifndef SATMBENCH_CHECKS_H
#define SATMBENCH_CHECKS_H

#include "kv/Store.h"

#include <cstdint>
#include <deque>
#include <vector>

namespace satmbench {

using satm::kv::Word;

/// A value for \p Key: the key in the high half, \p Low (< 2^31, so the
/// increments of rmwAdd never carry into the key) in the low half.
inline Word tagValue(Word Key, uint64_t Low) {
  return (Key << 32) | (Low & 0x7fffffffu);
}

/// True when \p V was written for \p Key.
inline bool tagMatches(Word Key, Word V) { return (V >> 32) == Key; }

/// A GET's outcome is correct only if it hit and the value belongs to the
/// key (kv_nt_bigset requires every GET to hit: no key is ever erased).
inline bool getHitOk(bool Found, Word Key, Word V) {
  return Found && tagMatches(Key, V);
}

/// A multi-key read is correct only if every key was found with a value
/// of its own.
inline bool batchReadOk(size_t Found, const Word *Keys, const Word *Vals,
                        size_t N) {
  if (Found != N)
    return false;
  for (size_t I = 0; I < N; ++I)
    if (!tagMatches(Keys[I], Vals[I]))
      return false;
  return true;
}

/// Reads keys [0, N) of \p S through the nt plane (call only while the
/// store is quiescent). Missing keys read as Store::Tombstone.
std::vector<Word> readAll(const satm::kv::Store &S, uint64_t N);

/// Compares \p Recovered with the live image \p Live key by key. Returns
/// the number of keys that differ; \p FirstBad receives the first one.
uint64_t compareImages(const std::vector<Word> &Live,
                       const std::vector<Word> &Recovered, uint64_t *FirstBad);

/// Exactly-once bookkeeping of correlation ids on one connection. Ids are
/// issued in increasing order; the ledger keeps a sliding window of the
/// ids in flight, so memory is bounded by the in-flight count, not by the
/// run length.
class AnswerLedger {
public:
  /// Registers \p Cid as sent. Ids must increase; returns false otherwise.
  bool sent(uint64_t Cid);
  /// Registers an answer. False for an id never sent, or answered before.
  bool answered(uint64_t Cid);
  /// Ids sent but not answered yet.
  uint64_t outstanding() const { return Open; }
  /// Answers rejected by answered() so far.
  uint64_t violations() const { return Bad; }

private:
  /// Window[i] is 1 while id Base + i is sent and unanswered.
  std::deque<uint8_t> Window;
  uint64_t Base = 0;  ///< Id of Window[0].
  uint64_t Next = 0;  ///< Lowest id that may be sent next.
  uint64_t Open = 0;
  uint64_t Bad = 0;
};

} // namespace satmbench

#endif // SATMBENCH_CHECKS_H
