//===- stm/Quiesce.h - Commit-time quiescence (§3.4) -----------*- C++ -*-===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The quiescence mechanism of §3.4: an alternative to strong-atomicity
/// barriers that provides *partial* isolation/ordering guarantees and
/// handles the privatization idiom of Figures 1 and 4(b).
///
///  - Eager STM: "a transaction can complete only when all other
///    transactions reach a consistent state" — a committing transaction
///    waits until every concurrently-active transaction has validated its
///    read set at or after the committer's epoch (doomed transactions
///    abort when they do so).
///  - Lazy STM: "a transaction must wait until previously serialized
///    transactions finish applying their updates to memory before
///    completing itself".
///
/// The registry is a fixed array of per-thread slots published with
/// release/acquire; waiting is bounded-spin with yield escalation.
///
/// The same registry orders the snapshot and durability planes: commits
/// that publish versions or log redo records take a global ticket, mark
/// it done when they finish, and any committer helps advance the stable
/// frontier over the contiguous done prefix (DESIGN.md §10.1). Commits
/// complete out of order; readers and the WAL drainer only ever see the
/// frontier, a gap-free prefix of ticket order.
///
//===----------------------------------------------------------------------===//

#ifndef SATM_STM_QUIESCE_H
#define SATM_STM_QUIESCE_H

#include <atomic>
#include <cstdint>

namespace satm {
namespace stm {

namespace detail {
/// The contention manager's serial-irrevocable gate: 0 when clear,
/// otherwise the owning Txn's address. Inline storage so the begin-time
/// and barrier-side checks are one load + predicted branch.
inline std::atomic<uint64_t> SerialGateWord{0};
} // namespace detail

/// Global transaction registry and the two quiescence protocols.
class Quiescence {
public:
  static constexpr unsigned MaxThreads = 512;

  /// One registered thread's published transaction state. Cache-line
  /// aligned: slots live in one contiguous array and are stored to on
  /// every transaction begin/end, so neighboring threads' slots must not
  /// share a line (unpadded, two 32-byte slots per line turned every
  /// begin into a coherence miss for the adjacent thread).
  struct alignas(64) Slot {
    /// Epoch at which the thread's current transaction began; 0 when no
    /// transaction is active.
    std::atomic<uint64_t> ActiveSince{0};
    /// Epoch at which the transaction last validated successfully.
    std::atomic<uint64_t> ValidatedAt{0};
    /// Commit sequence number of a lazy write-back in progress; 0 if none.
    std::atomic<uint64_t> WritebackSeq{0};
    /// Snapshot epoch this thread has pinned (snapshot readers, and
    /// snapshot transactions with writes); 0 when none. Publishers prune
    /// version chains no further than the minimum pinned epoch.
    std::atomic<uint64_t> PinnedEpoch{0};
    /// Version nodes this slot's owners linked minus those they pruned
    /// (snap::liveNodes sums it). Negative when a thread prunes nodes
    /// others linked. Written only by the owner, so commits update it with
    /// a plain load and store; kept across slot recycling, since the nodes
    /// outlive the thread.
    std::atomic<int64_t> NodeCount{0};
  };

  /// Returns (registering on first use) the calling thread's slot. Slots
  /// are recycled through a free-list when their thread exits, so thread
  /// churn never exhausts the registry; running more than MaxThreads
  /// *simultaneous* STM threads is a hard error in every build type.
  static Slot &slotForThisThread();

  /// Index of the calling thread's slot (registering on first use), below
  /// peakSlots(). A recycled index passes to its next owner through the
  /// registry mutex, so per-slot state handed along with it (the WAL's
  /// per-committer logs) needs no further synchronization.
  static unsigned slotIndexForThisThread();

  /// Slot \p Index, below peakSlots(): for summing per-slot counters.
  static Slot &slotAt(unsigned Index);

  /// Number of currently registered threads (introspection for tests).
  static unsigned liveSlots();

  /// High-water mark of slot indices ever in use. Bounded by the number of
  /// simultaneously live threads — not by how many have come and gone —
  /// which is what the thread-churn regression test asserts.
  static unsigned peakSlots();

  /// Current global epoch.
  static uint64_t currentEpoch();

  /// Advances and returns the new global epoch.
  static uint64_t advanceEpoch();

  /// Eager commit quiescence: blocks until every *other* registered thread
  /// either has no active transaction, started after \p Epoch, or has
  /// validated at or after \p Epoch. The caller must have marked its own
  /// slot inactive first (its transaction is already committed).
  static void waitForValidationSince(uint64_t Epoch, const Slot *Self);

  /// Allocates the next lazy commit sequence number (starting at 1).
  static uint64_t nextCommitSeq();

  /// Lazy write-back ordering: blocks until no registered thread has an
  /// incomplete write-back with a sequence number below \p Seq.
  static void waitForPriorWritebacks(uint64_t Seq, const Slot *Self);

  //===--------------------------------------------------------------------===
  // Snapshot-plane epochs (DESIGN.md §10.1).
  //
  // Publishers reserve a unique ticket with beginPublish(), link their
  // version nodes stamped with it (and run their publish-window actions),
  // then call completePublish(), which marks the ticket done and helps
  // advance the reader-visible *stable frontier* over the contiguous
  // prefix of done tickets. Commits complete out of order — no publisher
  // waits for an earlier ticket — but the frontier only ever covers a
  // gap-free prefix, so a reader pinned at E sees every version record of
  // every commit with ticket <= E, fully linked: a prefix of the commit
  // order, never a suffix hole or a torn commit. A snapshot may lag other
  // threads' completed commits (snapshot isolation allows it); session
  // order — a thread's snapshot covers its own commits — is restored by
  // waitOwnPublished(). Progress: the holder of the lowest undone ticket
  // waits on nothing that depends on a later ticket, so the frontier
  // always advances once it completes.
  //===--------------------------------------------------------------------===

  /// Done marks are kept in a ring of this many tickets. A committer whose
  /// slot still holds a done mark the frontier has not consumed (a ticket
  /// this far behind is still undone) waits for it: the ring-wrap wait.
  static constexpr uint64_t DoneRingSize = uint64_t(1) << 14;

  /// The stable frontier: every ticket at or below it is done (what a
  /// reader may pin).
  static uint64_t snapshotStable();

  /// Reserves the next publish ticket (strictly increasing, starting at 2;
  /// stable starts at 1 and base version nodes use epoch 0).
  static uint64_t beginPublish();

  /// The most recently issued publish ticket (1 if none was ever issued):
  /// the next beginPublish() returns a value strictly above this. The
  /// durability plane reads it when a Wal starts so the LSN base absorbs
  /// every ticket already consumed — by recovery replay under
  /// Config::SnapshotEnabled, pre-attach prepopulation, or any earlier
  /// run in the same process (DESIGN.md §12.2).
  static uint64_t lastPublishTicket();

  /// Completes a publication: marks \p Ticket done, then helps advance the
  /// stable frontier over every contiguous done ticket. Returns without
  /// waiting for earlier tickets; the only wait is the rare done-ring wrap
  /// (a ticket DoneRingSize behind is still undone). Records \p Ticket as
  /// the calling thread's newest (see waitOwnPublished).
  static void completePublish(uint64_t Ticket);

  /// The newest ticket the calling thread completed (0 if none).
  static uint64_t ownLastTicket();

  /// Session order for snapshot readers: helps advance the frontier, then
  /// waits until it covers ownLastTicket(), so a thread's snapshot always
  /// includes its own commits. Other threads' commits may still sit above
  /// the frontier.
  static void waitOwnPublished();

  /// Pins the current stable epoch in \p S and returns it. Publishes the
  /// pin with a store-fence-revalidate handshake (hazard-pointer style)
  /// against minPinnedEpoch(), so a pruner can never miss a pin that is
  /// below the minimum it computes.
  static uint64_t pinSnapshot(Slot &S);

  /// Clears \p S's pin.
  static void unpinSnapshot(Slot &S);

  /// The oldest epoch any thread has pinned, or the current stable epoch
  /// if none is pinned — the pruning-safety horizon. Pairs fences with
  /// pinSnapshot() so that a concurrent pin is either visible to the scan
  /// or re-pins at or above the returned value.
  static uint64_t minPinnedEpoch();

  //===--------------------------------------------------------------------===
  // Serial-irrevocable gate (adaptive contention management).
  //
  // The escalation endpoint of the contention-manager ladder: a transaction
  // that keeps losing acquires the gate, drains every other in-flight
  // transaction through the registry, and then runs alone — undo-free and
  // unkillable. Threads check the gate only at points where they hold no
  // ownership record (transaction begin, barrier entry/retry), which is
  // what makes the handshake deadlock-free; see DESIGN.md §9.
  //===--------------------------------------------------------------------===

  /// True while some transaction holds the serial gate. One acquire load —
  /// this is the hot-path check the barriers perform.
  static bool serialGateActive() {
    return detail::SerialGateWord.load(std::memory_order_acquire) != 0;
  }

  /// True if the gate is held by a transaction other than \p Self. The
  /// seq_cst load pairs with the seq_cst ActiveSince publication in
  /// Txn::begin (Dekker handshake): either the beginner sees the gate, or
  /// the gate-holder's drain sees the beginner's slot.
  static bool serialGateBlocks(uint64_t Self) {
    uint64_t G = detail::SerialGateWord.load(std::memory_order_seq_cst);
    return G != 0 && G != Self;
  }

  /// Acquires the gate for \p Owner (a Txn address), waiting out any
  /// current holder. The caller must hold no ownership records and have no
  /// active transaction published.
  static void acquireSerialGate(uint64_t Owner);

  /// Clears the gate, releasing every thread parked on it.
  static void releaseSerialGate();

  /// Blocks until the gate is clear or held by \p Self (0 = wait for fully
  /// clear). Barriers and transaction begins park here.
  static void serialGateWait(uint64_t Self);

  /// Gate-holder side: blocks until every other registered thread has no
  /// active transaction. Combined with the begin-side handshake this
  /// guarantees the holder runs with no transaction in flight anywhere.
  static void drainForSerial(const Slot *Self);
};

} // namespace stm
} // namespace satm

#endif // SATM_STM_QUIESCE_H
