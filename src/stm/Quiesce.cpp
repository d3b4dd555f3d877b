//===- stm/Quiesce.cpp - Commit-time quiescence (§3.4) -------------------===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//

#include "stm/Quiesce.h"
#include "stm/Config.h"
#include "stm/Stats.h"
#include "support/Backoff.h"
#include "support/FaultInjector.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <vector>

using namespace satm;
using namespace satm::stm;

namespace {

struct Registry {
  Quiescence::Slot Slots[Quiescence::MaxThreads];
  /// One past the highest slot index ever handed out; the scan bound for
  /// the waiters. Slots of exited threads below it are zeroed, so scanning
  /// them is a no-op. Published with release under FreeMutex.
  std::atomic<unsigned> HighWater{0};
  /// The hot global counters each get their own cache line: Epoch is
  /// loaded by every transaction begin, while CommitSeq / SnapTicket are
  /// bumped per lazy commit / per version publish — packed together, each
  /// bump would invalidate the line every beginner reads.
  alignas(64) std::atomic<uint64_t> Epoch{1};
  alignas(64) std::atomic<uint64_t> CommitSeq{0};
  /// Snapshot-plane publish tickets (last reserved) and the stable
  /// frontier (every ticket at or below it is done). Both start at 1 so a
  /// pin is never 0, which doubles as the "not pinned" sentinel in
  /// Slot::PinnedEpoch.
  alignas(64) std::atomic<uint64_t> SnapTicket{1};
  alignas(64) std::atomic<uint64_t> SnapStable{1};
  /// Done marks: slot T % DoneRingSize holds T once ticket T completed.
  /// Storing the full ticket (not a flag) means a slot still holding an
  /// older ticket's mark can never pass for the newer ticket's.
  alignas(64) std::atomic<uint64_t> Done[Quiescence::DoneRingSize] = {};
  std::mutex FreeMutex;
  std::vector<unsigned> FreeList; ///< Indices of exited threads' slots.
  unsigned LiveCount = 0;         ///< Guarded by FreeMutex.

  static Registry &get() {
    static Registry R;
    return R;
  }
};

unsigned acquireSlotIndex() {
  Registry &R = Registry::get();
  std::lock_guard<std::mutex> Lock(R.FreeMutex);
  ++R.LiveCount;
  if (!R.FreeList.empty()) {
    unsigned Index = R.FreeList.back();
    R.FreeList.pop_back();
    return Index;
  }
  unsigned Index = R.HighWater.load(std::memory_order_relaxed);
  if (Index >= Quiescence::MaxThreads) {
    // Every slot is held by a live thread. Unlike the old assert (compiled
    // out in release, leaving an out-of-bounds write into Slots), this is
    // fatal in every build type.
    std::fprintf(stderr,
                 "satm: quiescence registry exhausted: more than %u "
                 "simultaneously live STM threads\n",
                 Quiescence::MaxThreads);
    std::abort();
  }
  R.HighWater.store(Index + 1, std::memory_order_release);
  return Index;
}

void releaseSlotIndex(unsigned Index) {
  Registry &R = Registry::get();
  // Zero the slot before recycling: a committer scanning it mid-release
  // must read "no transaction", and the next owner starts clean.
  Quiescence::Slot &S = R.Slots[Index];
  S.ActiveSince.store(0, std::memory_order_release);
  S.ValidatedAt.store(0, std::memory_order_release);
  S.WritebackSeq.store(0, std::memory_order_release);
  S.PinnedEpoch.store(0, std::memory_order_release);
  std::lock_guard<std::mutex> Lock(R.FreeMutex);
  R.FreeList.push_back(Index);
  --R.LiveCount;
}

/// RAII slot registration mirroring TlsStatsBlock: the destructor returns
/// the slot to the free-list at thread exit.
struct SlotHandle {
  static constexpr unsigned None = ~0u;
  unsigned Index = None;
  ~SlotHandle() {
    if (Index != None)
      releaseSlotIndex(Index);
  }
};

thread_local SlotHandle TlsSlot;

/// The newest publish ticket this thread completed (session order).
thread_local uint64_t TlsLastTicket = 0;

/// Helps advance the stable frontier: while the ticket just past it is
/// marked done, CAS the frontier over it. Every access is seq_cst and
/// pairs with the done-mark store in completePublish (a Dekker pattern):
/// a completer that marks ticket T and then reads the frontier below T-1
/// returns, trusting whoever moves the frontier to T-1 to see its mark.
/// With weaker orders both sides could miss each other and the frontier
/// would stall with every ticket done.
void advanceFrontier(Registry &R) {
  uint64_t F = R.SnapStable.load(std::memory_order_seq_cst);
  for (;;) {
    const uint64_t Next = F + 1;
    if (R.Done[Next % Quiescence::DoneRingSize].load(
            std::memory_order_seq_cst) != Next)
      return;
    // A failed CAS reloads F: someone else advanced, so keep helping from
    // wherever the frontier is now.
    if (R.SnapStable.compare_exchange_weak(F, Next, std::memory_order_seq_cst))
      F = Next;
  }
}

/// Helps advance the stable frontier until it reaches \p Target. Returns
/// true if helping once was not enough and the caller had to wait for an
/// earlier ticket to complete.
bool waitFrontier(Registry &R, uint64_t Target) {
  Backoff B;
  for (bool Waited = false;; Waited = true) {
    advanceFrontier(R);
    uint64_t S = R.SnapStable.load(std::memory_order_acquire);
    if (S >= Target)
      return Waited;
    schedYield(YieldPoint::SnapshotPublish, &R.SnapStable, S);
    B.pause();
  }
}

} // namespace

Quiescence::Slot &Quiescence::slotForThisThread() {
  return Registry::get().Slots[slotIndexForThisThread()];
}

unsigned Quiescence::slotIndexForThisThread() {
  if (TlsSlot.Index == SlotHandle::None)
    TlsSlot.Index = acquireSlotIndex();
  return TlsSlot.Index;
}

Quiescence::Slot &Quiescence::slotAt(unsigned Index) {
  return Registry::get().Slots[Index];
}

unsigned Quiescence::liveSlots() {
  Registry &R = Registry::get();
  std::lock_guard<std::mutex> Lock(R.FreeMutex);
  return R.LiveCount;
}

unsigned Quiescence::peakSlots() {
  return Registry::get().HighWater.load(std::memory_order_acquire);
}

uint64_t Quiescence::currentEpoch() {
  return Registry::get().Epoch.load(std::memory_order_acquire);
}

uint64_t Quiescence::advanceEpoch() {
  return Registry::get().Epoch.fetch_add(1, std::memory_order_acq_rel) + 1;
}

void Quiescence::waitForValidationSince(uint64_t Epoch, const Slot *Self) {
  if (faultPoint(FaultSite::QuiesceStall)) {
    traceEvent(TraceKind::FaultFired, uint8_t(FaultSite::QuiesceStall));
    faultSpin(FaultInjector::arg(FaultSite::QuiesceStall));
  }
  Registry &R = Registry::get();
  unsigned N = R.HighWater.load(std::memory_order_acquire);
  bool Waited = false;
  for (unsigned I = 0; I < N && I < MaxThreads; ++I) {
    const Slot &S = R.Slots[I];
    if (&S == Self)
      continue;
    Backoff B;
    for (;;) {
      uint64_t Since = S.ActiveSince.load(std::memory_order_acquire);
      if (Since == 0 || Since > Epoch)
        break; // No transaction, or one serialized after us.
      if (S.ValidatedAt.load(std::memory_order_acquire) >= Epoch)
        break; // It has observed (or will reflect) our committed state.
      Waited = true;
      schedYield(YieldPoint::QuiesceWait, &S.ActiveSince, Since);
      B.pause();
    }
  }
  if (Waited) {
    statsForThisThread().QuiesceWaits++;
    traceEvent(TraceKind::QuiesceWait);
  }
}

void Quiescence::acquireSerialGate(uint64_t Owner) {
  auto &Gate = detail::SerialGateWord;
  Backoff B;
  for (;;) {
    uint64_t Expected = 0;
    if (Gate.compare_exchange_strong(Expected, Owner,
                                     std::memory_order_seq_cst))
      return;
    schedYield(YieldPoint::SerialGate, &Gate, Expected);
    B.pause();
  }
}

void Quiescence::releaseSerialGate() {
  detail::SerialGateWord.store(0, std::memory_order_seq_cst);
}

void Quiescence::serialGateWait(uint64_t Self) {
  auto &Gate = detail::SerialGateWord;
  Backoff B;
  for (;;) {
    uint64_t G = Gate.load(std::memory_order_seq_cst);
    if (G == 0 || (Self != 0 && G == Self))
      return;
    schedYield(YieldPoint::SerialGate, &Gate, G);
    B.pause();
  }
}

void Quiescence::drainForSerial(const Slot *Self) {
  Registry &R = Registry::get();
  unsigned N = R.HighWater.load(std::memory_order_acquire);
  for (unsigned I = 0; I < N && I < MaxThreads; ++I) {
    Slot &S = R.Slots[I];
    if (&S == Self)
      continue;
    Backoff B;
    for (;;) {
      // seq_cst: pairs with the begin-side ActiveSince publication so a
      // transaction either retreats (it saw our gate) or is seen here.
      uint64_t Since = S.ActiveSince.load(std::memory_order_seq_cst);
      if (Since == 0)
        break;
      schedYield(YieldPoint::SerialGate, &S.ActiveSince, Since);
      B.pause();
    }
  }
  // Threads registering after the scan bound was read still can't slip a
  // transaction in: the gate was already visible before we started, so
  // their begin-side handshake retreats.
}

uint64_t Quiescence::snapshotStable() {
  return Registry::get().SnapStable.load(std::memory_order_acquire);
}

uint64_t Quiescence::beginPublish() {
  return Registry::get().SnapTicket.fetch_add(1, std::memory_order_acq_rel) +
         1;
}

uint64_t Quiescence::lastPublishTicket() {
  return Registry::get().SnapTicket.load(std::memory_order_acquire);
}

void Quiescence::completePublish(uint64_t Ticket) {
  if (faultPoint(FaultSite::PublishStall)) {
    traceEvent(TraceKind::FaultFired, uint8_t(FaultSite::PublishStall));
    faultSpin(FaultInjector::arg(FaultSite::PublishStall));
  }
  Registry &R = Registry::get();
  assert(R.SnapStable.load(std::memory_order_relaxed) < Ticket &&
         "stable frontier overtook an unfinished ticket");
  // Ring wrap: the slot still belongs to ticket Ticket - DoneRingSize
  // until the frontier passes it. That ticket is older than ours, so
  // waiting for it cannot close a cycle.
  if (Ticket > DoneRingSize &&
      R.SnapStable.load(std::memory_order_acquire) < Ticket - DoneRingSize &&
      waitFrontier(R, Ticket - DoneRingSize)) {
    statsForThisThread().PublishRingWaits++;
    traceEvent(TraceKind::PublishRingWait);
  }
  R.Done[Ticket % DoneRingSize].store(Ticket, std::memory_order_seq_cst);
  advanceFrontier(R);
  if (Ticket > TlsLastTicket)
    TlsLastTicket = Ticket;
}

uint64_t Quiescence::ownLastTicket() { return TlsLastTicket; }

void Quiescence::waitOwnPublished() {
  Registry &R = Registry::get();
  // Our own ticket is done, so only an earlier, still-running ticket can
  // hold the frontier below it.
  if (R.SnapStable.load(std::memory_order_acquire) < TlsLastTicket &&
      waitFrontier(R, TlsLastTicket)) {
    statsForThisThread().PublishSessionWaits++;
    traceEvent(TraceKind::PublishSessionWait);
  }
}

uint64_t Quiescence::pinSnapshot(Slot &S) {
  // Hazard-pointer handshake with the pruners (publishNode): publish the
  // pin, then revalidate that the stable epoch has not moved. A plain
  // load-then-store pin is unsound — the pin store can sit in this
  // thread's store buffer while a committer's minPinnedEpoch() scan runs,
  // so the scan misses the pin, computes a minimum above it, and frees
  // version nodes this reader is about to walk. All four accesses (the
  // pin store and revalidation load here, the stable load and pin scan in
  // minPinnedEpoch) are seq_cst, so they carry one total order: a scan
  // that misses our pin store precedes it in that order, which puts the
  // scanner's stable load before our revalidation load — we re-read a
  // stable epoch at least as new as the scanner's minimum and re-pin at
  // or above it. (seq_cst operations, not thread fences: TSan does not
  // model standalone fences, and on x86 the store is the only flush.)
  // Revalidation fails at most once per concurrent stable-epoch advance
  // landing between the store and the reload, so the loop settles as soon
  // as publication traffic pauses for two instructions.
  auto &Stable = Registry::get().SnapStable;
  uint64_t E = Stable.load(std::memory_order_acquire);
  for (;;) {
    S.PinnedEpoch.store(E, std::memory_order_seq_cst);
    uint64_t Cur = Stable.load(std::memory_order_seq_cst);
    if (Cur == E)
      return E;
    E = Cur;
  }
}

void Quiescence::unpinSnapshot(Slot &S) {
  S.PinnedEpoch.store(0, std::memory_order_release);
}

uint64_t Quiescence::minPinnedEpoch() {
  Registry &R = Registry::get();
  // Stable first, then the pin scan, all seq_cst — the scanner half of
  // the handshake in pinSnapshot(). For any reader: if its pin store is
  // not visible to our scan, the single total order puts our stable load
  // before the reader's revalidation load, so the reader re-pins at or
  // above the value we return; if the pin is visible, the scan folds it
  // in directly. Either way no concurrent reader sits below the minimum.
  uint64_t Min = R.SnapStable.load(std::memory_order_seq_cst);
  unsigned N = R.HighWater.load(std::memory_order_acquire);
  for (unsigned I = 0; I < N && I < MaxThreads; ++I) {
    uint64_t P = R.Slots[I].PinnedEpoch.load(std::memory_order_seq_cst);
    if (P != 0 && P < Min)
      Min = P;
  }
  return Min;
}

uint64_t Quiescence::nextCommitSeq() {
  return Registry::get().CommitSeq.fetch_add(1, std::memory_order_acq_rel) +
         1;
}

void Quiescence::waitForPriorWritebacks(uint64_t Seq, const Slot *Self) {
  if (faultPoint(FaultSite::QuiesceStall)) {
    traceEvent(TraceKind::FaultFired, uint8_t(FaultSite::QuiesceStall));
    faultSpin(FaultInjector::arg(FaultSite::QuiesceStall));
  }
  Registry &R = Registry::get();
  unsigned N = R.HighWater.load(std::memory_order_acquire);
  bool Waited = false;
  for (unsigned I = 0; I < N && I < MaxThreads; ++I) {
    const Slot &S = R.Slots[I];
    if (&S == Self)
      continue;
    Backoff B;
    for (;;) {
      uint64_t WB = S.WritebackSeq.load(std::memory_order_acquire);
      if (WB == 0 || WB >= Seq)
        break;
      Waited = true;
      schedYield(YieldPoint::QuiesceWait, &S.WritebackSeq, WB);
      B.pause();
    }
  }
  if (Waited) {
    statsForThisThread().QuiesceWaits++;
    traceEvent(TraceKind::QuiesceWait);
  }
}
