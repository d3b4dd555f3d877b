//===- stm/Snapshot.h - Multi-version snapshot read plane ------*- C++ -*-===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-object last-committed version records backing the snapshot read
/// plane (DESIGN.md §10). Every committing writer — eager, lazy, or
/// serial-irrevocable — publishes a full copy of each written object's
/// slots, stamped with a global snapshot epoch, onto a bounded per-object
/// version chain. Snapshot readers (Txn::beginSnapshot) pin the stable
/// epoch and walk the chain to the newest version at or below their pin:
/// no validation, no aborts, no ownership-record CASes — the read side is
/// wait-free.
///
/// Reclamation: at publication time the writer prunes every node strictly
/// older than the newest node at or below the oldest pinned epoch
/// (Quiescence::minPinnedEpoch, scanned once per commit). This is the
/// *maximal* reclamation that permits immediate frees: a reader pinned at
/// P walks only nodes with Epoch > P and stops at its first node with
/// Epoch <= P without loading that node's Next pointer, so everything
/// below the min-pin stop node is unreachable — but any node above it may
/// have a reader mid-walk and must be retained. Consequently a chain with
/// no pinned readers collapses to two nodes (newest + stop) at the next
/// publish, while a held pin retains the versions committed during its
/// lifetime — the familiar MVCC trade: long snapshots hold history.
/// minPinnedEpoch reads the stable epoch before scanning the pins, so a
/// concurrently arriving pin can never be below the returned minimum.
///
/// The chain is found from the object itself, like its transaction record:
/// the header's version index (rt::Object::versionIndex) names an entry
/// {Head, Obj} in an append-only directory of fixed-size segments. Index 0
/// means "never chained". Entries are immortal until resetTable(), which
/// frees everything and must only run while no thread is inside the STM
/// (tests, explorer setupRun, end of a bench service run); it leaves the
/// indexes in surviving headers stale, and the entry's Obj back-pointer
/// makes a stale index read as "no chain" whoever takes its entry next.
/// Entries are only created by writers that hold the object's transaction
/// record exclusively, so per-object publication is serialized by
/// construction; cross-object ordering comes from the Quiescence publish
/// ticket (beginPublish / completePublish). Commits link their nodes and
/// complete out of order, but the reader-visible stable frontier only
/// advances over a contiguous prefix of completed tickets, so a pinned
/// reader observes a prefix of the commit order — never a suffix hole or
/// a half-linked commit. A node whose epoch is above every pin may belong
/// to a commit still linking its siblings; readers skip it like any newer
/// version.
///
/// Objects written only by non-transactional barriers never grow a chain;
/// snapshot reads of chain-less objects fall back to an in-place atomic
/// load (consistent per-slot, but not ordered against transactional
/// epochs — the documented nt caveat, same as the paper's nt plane).
///
//===----------------------------------------------------------------------===//

#ifndef SATM_STM_SNAPSHOT_H
#define SATM_STM_SNAPSHOT_H

#include "rt/Object.h"

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

namespace satm {
namespace stm {
namespace snap {

/// One committed version of an object: the epoch it became stable at and a
/// full copy of the data slots. Values are plain (non-atomic) because they
/// are written before the node is linked and never mutated afterwards; the
/// release/acquire pair on the chain link publishes them.
struct VersionNode {
  uint64_t Epoch;
  std::atomic<VersionNode *> Next; ///< Older version, or null.
  uint32_t NumSlots;
  Word Values[1]; ///< Trailing array, NumSlots entries.
};

/// One commit's allocated, not yet linked versions, one per written object.
using PendingVersions = std::vector<std::pair<rt::Object *, VersionNode *>>;

/// Ensures \p O has a version chain, installing a base node (Epoch 0)
/// that captures the current committed slot values if it does not, and
/// storing its index in O's header. Caller must hold O's transaction
/// record exclusively (or otherwise guarantee no concurrent committed
/// writes), so the captured values are the last committed state, and must
/// call it before its first in-place write to O. Returns false if the node
/// allocation was fault-injected (FaultSite::HeapAlloc); the caller aborts
/// cleanly — nothing has been written yet.
bool ensureBaseNode(rt::Object *O);

/// Epoch of the newest published version of \p O, or 0 if it has no chain.
/// Used for first-committer-wins conflict checks by snapshot writers.
uint64_t newestEpoch(rt::Object *O);

/// True if \p O has a version chain, even one holding only its epoch-0
/// base node (left by a write that aborted). Snapshot readers resolve such
/// an object through the chain and never read it in place, so a raw store
/// into it would be invisible to them.
bool hasChain(rt::Object *O);

/// Allocates an unlinked, unstamped node sized for \p O. Returns null if
/// the allocation was fault-injected; the caller unwinds (freeing any
/// sibling nodes already allocated) and aborts.
VersionNode *allocateNode(rt::Object *O);

/// Frees a node that was never linked (fault-injection unwind path).
void freeNode(VersionNode *N);

/// Publishes one commit's versions: copies each object's current slots
/// into its node, reserves a publish ticket, links every node stamped
/// with it as its object's newest version, and prunes each chain past the
/// oldest pinned epoch (one pin scan for the whole commit). Returns the
/// ticket, which the caller completes (Quiescence::completePublish) after
/// releasing its records. Caller holds every object's record, has called
/// ensureBaseNode on each, and has finished its in-place writes, so the
/// copies are exactly the committed state.
uint64_t publishCommit(const PendingVersions &Nodes);

/// Wait-free snapshot read: the value of O.Slot as of epoch \p E, where
/// \p E was obtained from Quiescence::pinSnapshot and is still pinned.
/// Walks the chain to the newest node with Epoch <= E; for chain-less
/// objects falls back to an in-place load with an index re-check to close
/// the race against a first writer installing the base node.
Word readAtEpoch(rt::Object *O, uint32_t Slot, uint64_t E);

/// Frees every entry and every node. Call only while no thread is inside
/// the STM and no snapshot is pinned. Bounds the plane's memory between
/// explorer runs, test cases and bench runs; headers keep their (now
/// stale) indexes, which read as chain-less.
void resetTable();

/// Number of directory entries handed out since the last resetTable
/// (test introspection).
size_t tableEntries();

/// Version nodes currently linked into chains: the per-registry-slot
/// counts (Quiescence::Slot::NodeCount) summed. The memory-flatness tests
/// assert this stays bounded under sustained commit churn: publication-
/// time pruning must reclaim as fast as commits allocate once no snapshot
/// pin holds history. Exact only while no commit is in flight.
size_t liveNodes();

/// Length of \p O's chain, 0 if it has none (test introspection; only
/// meaningful while no writer is concurrently publishing to \p O).
size_t chainLength(rt::Object *O);

} // namespace snap
} // namespace stm
} // namespace satm

#endif // SATM_STM_SNAPSHOT_H
