//===- stm/Txn.cpp - Eager-versioning transaction ------------------------===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//

#include "stm/Txn.h"
#include "stm/Dea.h"
#include "stm/Snapshot.h"
#include "support/FaultInjector.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

using namespace satm;
using namespace satm::stm;
using rt::Object;

namespace {
/// Monotone source for transaction start stamps.
std::atomic<uint64_t> NextStartStamp{1};

/// waitForChange timeout, in Backoff::pause() calls. Far past the backoff's
/// spin plateau (~8 calls), so a timed-out wait has long since been paying
/// scheduler yields, not hot scans.
constexpr uint64_t RetryWaitScans = 512;
} // namespace

Txn &Txn::forThisThread() {
  thread_local Txn T;
  return T;
}

void Txn::begin() { beginImpl(/*EagerStamp=*/true); }

void Txn::beginImpl(bool EagerStamp) {
  assert(Depth == 0 && "begin() inside an active transaction");
  assert(ReadSet.empty() && WriteLocks.empty() && UndoLog.empty() &&
         "stale transaction state");
  Depth = 1;
  NextValidateAt = config().ValidateEvery;
  // The stamp source is the one globally contended line a begin touches.
  // Only the contention manager ever reads a stamp, and only for a
  // transaction that contends for or owns a record — which a read-only
  // snapshot never does — so beginSnapshot passes EagerStamp=false and the
  // fetch-add is deferred to the first write acquisition (0 = unstamped;
  // NextStartStamp starts at 1, so no real stamp collides).
  StartStamp.store(EagerStamp
                       ? NextStartStamp.fetch_add(1, std::memory_order_relaxed)
                       : 0,
                   std::memory_order_release);
  KarmaPub.store(ConsecAborts, std::memory_order_relaxed);
  if (!QSlot)
    QSlot = &Quiescence::slotForThisThread();
  uint64_t Now = Quiescence::currentEpoch();
  // An empty read set is trivially consistent as of Now.
  QSlot->ValidatedAt.store(Now, std::memory_order_relaxed);
  if (config().IrrevocableAfterAborts == 0) {
    // Serial escalation disabled process-wide: no gate can ever be held,
    // so publish activity with the original cheap release store.
    QSlot->ActiveSince.store(Now, std::memory_order_release);
  } else {
    // Dekker handshake with the serial gate: publish activity (seq_cst),
    // then check the gate (seq_cst inside serialGateBlocks). Either the
    // gate-holder's drain sees our slot, or we see its gate and retreat —
    // the two seq_cst accesses cannot both miss. The gate-holder itself
    // passes via the Self match.
    for (;;) {
      QSlot->ActiveSince.store(Now, std::memory_order_seq_cst);
      if (!Quiescence::serialGateBlocks(reinterpret_cast<uint64_t>(this)))
        break;
      QSlot->ActiveSince.store(0, std::memory_order_release);
      Quiescence::serialGateWait(reinterpret_cast<uint64_t>(this));
      Now = Quiescence::currentEpoch();
      QSlot->ValidatedAt.store(Now, std::memory_order_relaxed);
    }
  }
  traceEvent(TraceKind::TxnBegin);
}

Word Txn::readShared(Object *O, uint32_t Slot) {
  assert(isActive() && "transactional read outside a transaction");
  if (config().CollectStats)
    ++PendingReads; // Folded into the stats block at transaction end.
  std::atomic<Word> &Rec = O->txRecord();
  Word W = Rec.load(std::memory_order_acquire);
  // Private objects belong to this thread: no logging, no validation (§4).
  if (TxRecord::isPrivate(W))
    return O->rawLoad(Slot);
  if (TxRecord::isExclusive(W) && TxRecord::owner(W) == this)
    return O->rawLoad(Slot);
  if (SerialMode) {
    // Serial-irrevocable: take every record Exclusive, reads included.
    // With the system drained, only single-record nt stragglers can touch
    // shared state, and against strict two-phase locking they serialize;
    // an optimistic read here could still be overwritten by one of them
    // mid-transaction, and a serial transaction must never re-validate.
    acquireForWrite(O, Rec);
    return O->rawLoad(Slot);
  }

  Backoff B;
  uint32_t Pauses = 0;
  for (;;) {
    if (TxRecord::isShared(W)) {
      Word V = O->rawLoad(Slot, std::memory_order_acquire);
      if (Rec.load(std::memory_order_acquire) == W) {
        // Optimistic read: log the observed record word for validation.
        // The filter dedups re-reads of an already-logged (record, word)
        // pair, keeping the read set — and so validation — O(unique
        // objects). If the record changed since, W differs and the read is
        // logged again; a filter eviction costs a duplicate entry only.
        if (!ReadFilter.hitOrInstall(reinterpret_cast<uintptr_t>(&Rec), W))
          ReadSet.push_back({&Rec, W});
        maybePeriodicValidate();
        return V;
      }
    } else if (TxRecord::isExclusive(W) && TxRecord::owner(W) == this) {
      return O->rawLoad(Slot); // Acquired by us while we were waiting.
    }
    // Owned by another transaction or by a non-transactional writer
    // (Exclusive-anonymous): back off; abort self past the limit.
    contentionPause(B, Pauses, &Rec, W, /*IsRead=*/true);
    W = Rec.load(std::memory_order_acquire);
  }
}

void Txn::writeImpl(Object *O, uint32_t Slot, Word V, bool IsRef) {
  assert(isActive() && "transactional write outside a transaction");
  if (config().CollectStats)
    ++PendingWrites; // Folded into the stats block at transaction end.
  std::atomic<Word> &Rec = O->txRecord();
  Word W = Rec.load(std::memory_order_acquire);
  if (TxRecord::isPrivate(W)) {
    // Writes to private objects skip synchronization but still need undo
    // logging: the object may predate this transaction. Serial mode never
    // rolls back, so it logs nothing.
    if (!SerialMode)
      logUndo(O, Slot);
    O->rawStore(Slot, V);
    return;
  }
  if (!(TxRecord::isExclusive(W) && TxRecord::owner(W) == this))
    acquireForWrite(O, Rec);
  if (TxnHooks *H = config().Hooks)
    if (H->AfterEagerAcquire)
      H->AfterEagerAcquire(*this, O, Slot);
  // Storing a reference into a public object publishes the referee's graph
  // immediately — not at commit — because doomed transactions of other
  // threads may reach it before we commit (§4).
  if (IsRef && V != 0 && config().DeaEnabled)
    publishObject(Object::fromWord(V));
  if (!SerialMode)
    logUndo(O, Slot); // Serial-irrevocable mode is undo-free.
  O->rawStore(Slot, V, std::memory_order_release);
}

void Txn::acquireForWrite(Object *O, std::atomic<Word> &Rec) {
  (void)O;
  // Snapshot transactions begin unstamped (beginImpl); stamp before the
  // first acquire can either enter arbitration below or make this
  // descriptor an Owner whose stamp other threads' managers inspect.
  if (StartStamp.load(std::memory_order_relaxed) == 0)
    StartStamp.store(NextStartStamp.fetch_add(1, std::memory_order_relaxed),
                     std::memory_order_release);
  Backoff B;
  uint32_t Pauses = 0;
  for (;;) {
    Word W = Rec.load(std::memory_order_acquire);
    assert(!TxRecord::isPrivate(W) && "public objects never become private");
    if (TxRecord::isExclusive(W)) {
      if (TxRecord::owner(W) == this)
        return;
      contentionPause(B, Pauses, &Rec, W, /*IsRead=*/false);
      continue;
    }
    if (TxRecord::isShared(W)) {
      Word Observed;
      if (TxRecord::acquireExclusive(Rec, this, W, Observed)) {
        Word Prior = TxRecord::version(W);
        WriteLocks.push_back({&Rec, Prior});
        WriteLockIndex.insert(&Rec, uint32_t(WriteLocks.size() - 1));
        if (config().SnapshotEnabled) {
          // First-committer-wins for snapshot transactions: a version of
          // this object newer than our pinned epoch means someone committed
          // after our snapshot — and our unvalidated reads cannot tell.
          // Complete at acquire time: once we hold the record, no one else
          // can commit to the object. Both aborts below are safe — the lock
          // was pushed, nothing was written yet.
          if (SnapMode && snap::newestEpoch(O) > SnapEpoch)
            conflictAbort(AbortReason::WriteLockConflict);
          // First-ever transactional acquire of this object on the snapshot
          // plane: install the epoch-0 base version capturing the committed
          // pre-write state, so pinned readers always find a node.
          if (!snap::ensureBaseNode(O))
            conflictAbort(AbortReason::FaultInjected);
        }
        return;
      }
      continue; // Lost the race; re-examine the record.
    }
    // Exclusive-anonymous: a non-transactional writer is mid-update.
    contentionPause(B, Pauses, &Rec, W, /*IsRead=*/false);
  }
}

void Txn::logUndo(Object *O, uint32_t Slot) {
  uint32_t G = config().LogGranularitySlots;
  uint32_t Base = G <= 1 ? Slot : (Slot / G) * G;
  // The slot group's address is globally unique, so it keys the dedup
  // filter: a repeated write to an already-logged group since the last
  // filter flush logs nothing. A spurious miss (eviction) only duplicates
  // an entry, which reverse-order rollback makes harmless — the oldest
  // value is restored last.
  if (UndoFilter.hitOrInstall(reinterpret_cast<uintptr_t>(&O->slot(Base))))
    return;
  if (G <= 1) {
    UndoLog.push_back({O, Slot, O->rawLoad(Slot)});
    return;
  }
  // Coarse-grained versioning (§2.4): the undo entry spans an aligned group
  // of G slots, manufacturing writes to adjacent data on rollback.
  for (uint32_t I = Base; I < Base + G && I < O->slotCount(); ++I)
    UndoLog.push_back({O, I, O->rawLoad(I)});
}

bool Txn::validateReadSet() {
  for (const ReadEntry &E : ReadSet) {
    Word W = E.Rec->load(std::memory_order_acquire);
    if (W == E.Observed)
      continue;
    if (TxRecord::isExclusive(W) && TxRecord::owner(W) == this) {
      // We acquired this record after reading it; the read is still valid
      // iff nothing committed in between, i.e. the version we captured at
      // acquire time matches the version we observed at read time.
      const WriteEntry *L = findWriteLock(E.Rec);
      assert(L && "owned record missing from index");
      if (L && TxRecord::makeShared(L->PriorVersion) == E.Observed)
        continue;
    }
    return false;
  }
  return true;
}

void Txn::maybePeriodicValidate() {
  // Validate when the read set doubles: bounds how long a doomed
  // transaction computes on inconsistent state while keeping total
  // validation work linear (each entry is revalidated O(1) times).
  if (ReadSet.size() < NextValidateAt)
    return;
  NextValidateAt *= 2;
  uint64_t Now = Quiescence::currentEpoch();
  if (!validateReadSet())
    conflictAbort(AbortReason::ReadValidation);
  QSlot->ValidatedAt.store(Now, std::memory_order_release);
}

bool Txn::tryCommit() {
  assert(Depth == 1 && "commit with unfinished nested regions");
  if (SerialMode)
    return commitSerial();
  if (faultPoint(FaultSite::TxnCommit)) {
    // Injected commit failure. Locks and undo log are still intact here,
    // so the normal conflict unwind rolls everything back.
    traceEvent(TraceKind::FaultFired, uint8_t(FaultSite::TxnCommit));
    conflictAbort(AbortReason::FaultInjected);
  }
  uint64_t Now = Quiescence::currentEpoch();
  if (!validateReadSet()) {
    rollbackAll();
    return false;
  }
  QSlot->ValidatedAt.store(Now, std::memory_order_release);
  if (TxnHooks *H = config().Hooks)
    if (H->AfterValidate)
      H->AfterValidate(this);
  // Snapshot-plane publication happens while the locks are still held (the
  // node values must be the committed state) but before the commit point:
  // an injected allocation failure in publishVersions throws, and the
  // normal conflict unwind still has the undo log and the locks.
  uint64_t PubTicket = 0;
  if (config().SnapshotEnabled && !WriteLocks.empty())
    PubTicket = publishVersions();
  // Publish-window actions (durability redo appends) need a ticket even
  // when no version nodes were published. Taken while the locks are still
  // held, so ticket order extends the conflict order: a competing writer
  // to any of our objects can only acquire — and ticket — after us.
  if (PubTicket == 0 && !PublishLog.empty())
    PubTicket = Quiescence::beginPublish();
  // Commit point: releasing each record bumps its version, atomically
  // publishing our in-place updates to other transactions' validators.
  releaseLockRange(0, WriteLocks.size());
  statsForThisThread().TxnCommits++;
  traceEvent(TraceKind::TxnCommit);
  if (PubTicket)
    runPublishWindow(PubTicket);
  // We are no longer a hazard to anyone: mark inactive *before* quiescing
  // so that two concurrently quiescing committers do not wait on each
  // other (both are already committed).
  QSlot->ActiveSince.store(0, std::memory_order_release);
  if (config().QuiesceOnCommit)
    Quiescence::waitForValidationSince(Quiescence::advanceEpoch(), QSlot);
  std::vector<std::function<void()>> Commits = std::move(CommitActions);
  resetState();
  for (auto &Action : Commits)
    Action();
  return true;
}

/// Serial-irrevocable commit: nothing to validate (every read holds its
/// record Exclusive) and nothing to quiesce (the system was drained at
/// escalation). Releases records, then activity, then the gate, so a
/// thread released from the gate finds no stale Exclusive records.
bool Txn::commitSerial() {
  assert(UndoLog.empty() && "serial-irrevocable mode is undo-free");
  // Serial transactions lock their reads too, so this over-publishes
  // (read-only objects get an identical-valued version). Correct, and
  // serial mode is the rare escalation endpoint. Faults are suppressed in
  // serial mode; a real allocation failure aborts the process via the
  // irrevocability contract (conflictAbort -> serialFatal).
  uint64_t PubTicket = 0;
  if (config().SnapshotEnabled && !WriteLocks.empty())
    PubTicket = publishVersions();
  if (PubTicket == 0 && !PublishLog.empty())
    PubTicket = Quiescence::beginPublish();
  releaseLockRange(0, WriteLocks.size());
  statsForThisThread().TxnCommits++;
  traceEvent(TraceKind::TxnCommit);
  if (PubTicket)
    runPublishWindow(PubTicket);
  QSlot->ActiveSince.store(0, std::memory_order_release);
  SerialMode = false;
  FaultInjector::setThreadSuppressed(false);
  Quiescence::releaseSerialGate();
  traceEvent(TraceKind::SerialExit);
  std::vector<std::function<void()>> Commits = std::move(CommitActions);
  resetState();
  for (auto &Action : Commits)
    Action();
  return true;
}

void Txn::beginSnapshot() {
  assert(config().SnapshotEnabled && "snapshot plane is disabled");
  // Session order: our own commits may have completed ahead of an earlier
  // ticket still in flight. Wait for the frontier to cover them before
  // registering, so a waiting reader holds up no quiescing committer.
  Quiescence::waitOwnPublished();
  // Full begin() minus the start stamp (taken lazily on first write):
  // registry publication (so privatizing committers running quiescence
  // wait for us — we never validate, so QuiesceOnCommit blocks them until
  // we finish) and the serial-gate handshake.
  beginImpl(/*EagerStamp=*/false);
  SnapMode = true;
  SnapEpoch = Quiescence::pinSnapshot(*QSlot);
  schedYield(YieldPoint::SnapshotPin, nullptr, SnapEpoch);
  traceEvent(TraceKind::SnapshotBegin);
}

Word Txn::snapshotReadSlow(Object *O, uint32_t Slot) {
  std::atomic<Word> &Rec = O->txRecord();
  Word W = Rec.load(std::memory_order_acquire);
  // Private objects belong to this thread (a foreign private object is
  // unreachable): read in place.
  if (TxRecord::isPrivate(W))
    return O->rawLoad(Slot);
  // Read-your-writes: a record we hold means our own uncommitted values
  // are in place — the snapshot plane still holds the pre-write state.
  if (TxRecord::isExclusive(W) && TxRecord::owner(W) == this)
    return O->rawLoad(Slot);
  if (config().CollectStats)
    ++PendingSnapReads;
  // Plain preemption point, no record: the read is wait-free and must stay
  // schedulable under the explorer even when the record never changes.
  schedYield(YieldPoint::SnapshotRead, nullptr, W);
  return snap::readAtEpoch(O, Slot, SnapEpoch);
}

uint64_t Txn::publishVersions() {
  // Allocate every node first: an injected allocation failure here can
  // still unwind (locks and undo log intact, nothing linked yet).
  PubNodes.clear();
  for (const WriteEntry &L : WriteLocks) {
    // The record is the object's first header word.
    Object *O = reinterpret_cast<Object *>(L.Rec);
    assert(&O->txRecord() == L.Rec && "record is not the object header");
    snap::VersionNode *N = snap::allocateNode(O);
    if (!N) {
      for (auto &P : PubNodes)
        snap::freeNode(P.second);
      conflictAbort(AbortReason::FaultInjected);
    }
    PubNodes.push_back({O, N});
  }
  return snap::publishCommit(PubNodes);
}

void Txn::runPublishWindow(uint64_t Ticket) {
  // No wait on earlier tickets: entries of different committers run
  // concurrently, and each carries its ticket so consumers order by it.
  // Entries run in registration order; a multi-record group (Index/Count)
  // shares the ticket.
  const uint32_t Count = uint32_t(PublishLog.size());
  for (uint32_t I = 0; I < Count; ++I) {
    const PublishEntry &E = PublishLog[I];
    E.Fn(E.Ctx, Ticket, I, Count, E.A, E.B, E.C);
  }
  Quiescence::completePublish(Ticket);
}

bool Txn::tryCommitSnapshot() {
  assert(Depth == 1 && SnapMode && "snapshot commit outside a snapshot");
  if (WriteLocks.empty()) {
    // Wait-free read-only completion: nothing to validate, publish, or
    // CAS; there is no transaction anyone could have conflicted with.
    // (Publish-window actions still honor their ticket contract.)
    if (!PublishLog.empty())
      runPublishWindow(Quiescence::beginPublish());
    statsForThisThread().SnapshotTxns++;
    traceEvent(TraceKind::SnapshotEnd);
    QSlot->ActiveSince.store(0, std::memory_order_release);
    if (CommitActions.empty()) {
      resetState();
      return true;
    }
    std::vector<std::function<void()>> Commits = std::move(CommitActions);
    resetState();
    for (auto &Action : Commits)
      Action();
    return true;
  }
  if (faultPoint(FaultSite::TxnCommit)) {
    traceEvent(TraceKind::FaultFired, uint8_t(FaultSite::TxnCommit));
    conflictAbort(AbortReason::FaultInjected);
  }
  // No read validation, by design: isolation comes from first-committer-
  // wins, checked when each write acquired its record — and once held,
  // nothing else can commit to those objects.
  uint64_t PubTicket = publishVersions();
  releaseLockRange(0, WriteLocks.size());
  statsForThisThread().TxnCommits++;
  statsForThisThread().SnapshotTxns++;
  traceEvent(TraceKind::TxnCommit);
  traceEvent(TraceKind::SnapshotEnd);
  runPublishWindow(PubTicket);
  QSlot->ActiveSince.store(0, std::memory_order_release);
  if (config().QuiesceOnCommit)
    Quiescence::waitForValidationSince(Quiescence::advanceEpoch(), QSlot);
  std::vector<std::function<void()>> Commits = std::move(CommitActions);
  resetState();
  for (auto &Action : Commits)
    Action();
  return true;
}

void Txn::maybeEscalateToSerial() {
  const Config &Cfg = config();
  if (Cfg.IrrevocableAfterAborts == 0 || SerialMode ||
      ConsecAborts < Cfg.IrrevocableAfterAborts)
    return;
  if (!QSlot)
    QSlot = &Quiescence::slotForThisThread();
  // Ladder endpoint: acquire the gate, then drain every other in-flight
  // transaction. We hold no ownership records here (the previous attempt
  // rolled everything back), so neither wait can deadlock.
  Quiescence::acquireSerialGate(reinterpret_cast<uint64_t>(this));
  Quiescence::drainForSerial(QSlot);
  SerialMode = true;
  // An injected fault must never hit an irrevocable attempt: it could not
  // roll back. This also keeps HeapAlloc faults (rt layer, which cannot
  // see transaction state) out of the serial window.
  FaultInjector::setThreadSuppressed(true);
  statsForThisThread().SerialModeEntries++;
  traceEvent(TraceKind::SerialEnter);
}

void Txn::injectOpenFault() {
  if (faultPoint(FaultSite::TxnOpen)) {
    traceEvent(TraceKind::FaultFired, uint8_t(FaultSite::TxnOpen));
    conflictAbort(AbortReason::FaultInjected);
  }
}

void Txn::serialFatal(const char *What) {
  std::fprintf(stderr,
               "satm: irrevocability violation: %s — a serial-irrevocable "
               "transaction cannot roll back (see DESIGN.md §9)\n",
               What);
  std::abort();
}

void Txn::rollbackAll() {
  if (SerialMode)
    serialFatal("rollback of a serial-irrevocable transaction (foreign "
                "exception or forced abort in the body)");
  // The eager write-rollback window: an abort is decided but memory still
  // holds this transaction's speculative stores. Explorable like the lazy
  // write-back window.
  schedYield(YieldPoint::TxnRollback);
  if (TxnHooks *H = config().Hooks)
    if (H->BeforeRollback)
      H->BeforeRollback(*this);
  rollbackUndoRange(0, UndoLog.size());
  releaseLockRange(0, WriteLocks.size());
  QSlot->ActiveSince.store(0, std::memory_order_release);
  std::vector<std::function<void()>> Aborts = std::move(AbortActions);
  resetState();
  // Compensations run in reverse registration order.
  for (auto It = Aborts.rbegin(), E = Aborts.rend(); It != E; ++It)
    (*It)();
}

void Txn::rollbackUndoRange(size_t Begin, size_t End) {
  for (size_t I = End; I > Begin; --I) {
    UndoEntry &U = UndoLog[I - 1];
    std::atomic<Word> &Rec = U.Obj->txRecord();
    Word W = Rec.load(std::memory_order_acquire);
    if (TxRecord::isPrivate(W) ||
        (TxRecord::isExclusive(W) && TxRecord::owner(W) == this)) {
      U.Obj->rawStore(U.Slot, U.OldValue, std::memory_order_release);
      continue;
    }
    // The object was written while private and published afterwards, so we
    // hold no lock on it: restore under anonymous ownership.
    Backoff B;
    while (!TxRecord::acquireAnon(Rec))
      B.pause();
    U.Obj->rawStore(U.Slot, U.OldValue, std::memory_order_release);
    TxRecord::releaseAnon(Rec);
  }
}

void Txn::releaseLockRange(size_t Begin, size_t End) {
  for (size_t I = Begin; I < End; ++I)
    TxRecord::releaseExclusive(*WriteLocks[I].Rec, WriteLocks[I].PriorVersion);
  // Truncating WriteLocks is all the index maintenance needed: a stale
  // WriteLockIndex entry fails findWriteLock's Rec recheck and reads as
  // absent, so releasing N locks is N stores — no hashing, no erase.
  WriteLocks.resize(Begin);
}

void Txn::pushSavepoint() {
  Savepoints.push_back({ReadSet.size(), WriteLocks.size(), UndoLog.size(),
                        CommitActions.size(), AbortActions.size(),
                        PublishLog.size()});
  // The undo filter must not dedup across this boundary: a write inside
  // the nested region to a slot logged before it needs a fresh entry
  // holding the at-savepoint value, or rollbackToSavepoint (which only
  // rolls back entries above the boundary) would miss it.
  UndoFilter.clear();
  ++Depth;
}

void Txn::popSavepointKeep() {
  assert(!Savepoints.empty() && "unbalanced nesting");
  Savepoints.pop_back();
  --Depth;
}

void Txn::rollbackToSavepoint() {
  assert(!Savepoints.empty() && "unbalanced nesting");
  Savepoint S = Savepoints.back();
  Savepoints.pop_back();
  rollbackUndoRange(S.Undos, UndoLog.size());
  UndoLog.resize(S.Undos);
  releaseLockRange(S.Locks, WriteLocks.size());
  ReadSet.resize(S.Reads);
  // Both logs were truncated: the filters may claim entries that no
  // longer exist, so flush them (a later re-log is merely a duplicate).
  UndoFilter.clear();
  ReadFilter.clear();
  CommitActions.resize(S.Commits);
  PublishLog.resize(S.Publishes);
  // Compensations registered inside the aborted region (by committed
  // open-nested children) must run now, in reverse.
  for (size_t I = AbortActions.size(); I > S.Aborts; --I)
    AbortActions[I - 1]();
  AbortActions.resize(S.Aborts);
  --Depth;
}

void Txn::beginOpenNested() {
  assert(isActive() && "open nesting requires an enclosing transaction");
  OpenFrames.push_back({ReadSet.size(), WriteLocks.size(), UndoLog.size(),
                        CommitActions.size(), AbortActions.size(),
                        PublishLog.size()});
  // Same boundary rule as pushSavepoint: the open region's undo entries
  // are rolled back or dropped independently of the parent's.
  UndoFilter.clear();
  ++Depth;
}

void Txn::commitOpenNested(std::function<void()> OnParentAbort) {
  assert(!OpenFrames.empty() && "unbalanced open nesting");
  Savepoint F = OpenFrames.back();
  // Validate only the reads performed inside the open region.
  bool Valid = true;
  for (size_t I = F.Reads, E = ReadSet.size(); I != E && Valid; ++I) {
    Word W = ReadSet[I].Rec->load(std::memory_order_acquire);
    if (W == ReadSet[I].Observed)
      continue;
    if (TxRecord::isExclusive(W) && TxRecord::owner(W) == this) {
      const WriteEntry *L = findWriteLock(ReadSet[I].Rec);
      if (L && TxRecord::makeShared(L->PriorVersion) == ReadSet[I].Observed)
        continue;
    }
    Valid = false;
  }
  if (!Valid) {
    abortOpenNested();
    // Conservative: restart the whole transaction. This is the
    // aggregated-scope conflict of the taxonomy — the open-nested region's
    // independently-validated reads were invalidated.
    conflictAbort(AbortReason::AggregatedScope);
  }
  OpenFrames.pop_back();
  // Independent commit: the open region's writes survive a parent abort.
  UndoLog.resize(F.Undos);
  releaseLockRange(F.Locks, WriteLocks.size());
  ReadSet.resize(F.Reads); // Parent is not constrained by child reads.
  // Truncation invalidated the open region's log entries; without the
  // flush a later parent write could dedup against a dropped undo entry
  // and lose its rollback record.
  UndoFilter.clear();
  ReadFilter.clear();
  --Depth;
  if (OnParentAbort)
    AbortActions.push_back(std::move(OnParentAbort));
}

void Txn::abortOpenNested() {
  assert(!OpenFrames.empty() && "unbalanced open nesting");
  if (SerialMode)
    serialFatal("abort of an open-nested scope in serial-irrevocable mode "
                "(its writes were applied undo-free)");
  Savepoint F = OpenFrames.back();
  OpenFrames.pop_back();
  rollbackUndoRange(F.Undos, UndoLog.size());
  UndoLog.resize(F.Undos);
  releaseLockRange(F.Locks, WriteLocks.size());
  ReadSet.resize(F.Reads);
  UndoFilter.clear();
  ReadFilter.clear();
  CommitActions.resize(F.Commits);
  AbortActions.resize(F.Aborts);
  PublishLog.resize(F.Publishes);
  --Depth;
}

void Txn::userRetry() {
  assert(isActive() && "retry outside a transaction");
  assert(OpenFrames.empty() && "retry inside an open-nested region");
  if (SerialMode)
    serialFatal("txn_retry() in serial-irrevocable mode");
  throw RollbackSignal{RollbackSignal::UserRetry, 0, AbortReason::UserRetry};
}

void Txn::userAbort() {
  assert(isActive() && "abort outside a transaction");
  assert(OpenFrames.empty() && "abort inside an open-nested region");
  if (SerialMode)
    serialFatal("txn_abort() in serial-irrevocable mode");
  throw RollbackSignal{RollbackSignal::UserAbort, Depth,
                       AbortReason::UserAbort};
}

void Txn::abortRestart() {
  assert(isActive() && "abortRestart outside a transaction");
  if (SerialMode)
    serialFatal("abortRestart() in serial-irrevocable mode");
  throw RollbackSignal{RollbackSignal::Conflict, 0,
                       AbortReason::ContentionGiveUp};
}

void Txn::conflictAbort(AbortReason Reason) {
  if (SerialMode)
    serialFatal("conflict abort in serial-irrevocable mode");
  throw RollbackSignal{RollbackSignal::Conflict, 0, Reason};
}

void Txn::contentionPause(Backoff &B, uint32_t &Pauses,
                          const std::atomic<Word> *Rec, Word ObservedRecord,
                          bool IsRead) {
  schedYield(YieldPoint::TxnContention, Rec, ObservedRecord);
  if (SerialMode) {
    // A serial-irrevocable transaction never aborts. The only parties that
    // can be ahead of it are in-flight nt writers holding a record
    // Exclusive-anonymous for a bounded store sequence — wait them out.
    B.pause();
    return;
  }
  const Config &Cfg = config();
  uint64_t Limit = Cfg.ConflictPauseLimit;
  switch (Cfg.Contention) {
  case ContentionPolicy::BackoffThenAbort:
    if (Cfg.KarmaPriority && TxRecord::isExclusive(ObservedRecord)) {
      // Karma layer: consecutive-abort counts are the priorities. The
      // poorer transaction self-aborts at once (its next attempt outranks
      // more peers); the richer one waits with 16x patience. Ties — the
      // common uncontended case — fall through to the base policy. The
      // owner's priority is read racy-by-design, like the Timestamp
      // policy's stamp read: a stale value costs an extra abort or wait,
      // never a deadlock.
      uint32_t Theirs = TxRecord::owner(ObservedRecord)->karmaPriority();
      if (ConsecAborts < Theirs)
        conflictAbort(giveUpReason(IsRead, ObservedRecord,
                                   /*BudgetExhausted=*/false));
      if (ConsecAborts > Theirs)
        Limit *= 16;
    }
    break;
  case ContentionPolicy::Polite:
    Limit *= 16;
    break;
  case ContentionPolicy::Timid:
    conflictAbort(giveUpReason(IsRead, ObservedRecord,
                               /*BudgetExhausted=*/false));
  case ContentionPolicy::Timestamp:
    // Age decides: the younger transaction yields immediately; the older
    // waits patiently. Conflicts with non-transactional writers
    // (Exclusive-anonymous) are always short: plain bounded waiting.
    if (TxRecord::isExclusive(ObservedRecord)) {
      const Txn *Owner = TxRecord::owner(ObservedRecord);
      // Racy-by-design stamp read: the owner may commit concurrently and
      // reuse the descriptor; a stale comparison only costs an extra
      // abort or wait, never a deadlock (waiting is still bounded).
      if (startStamp() > Owner->startStamp())
        conflictAbort(AbortReason::WriteLockConflict);
      Limit *= 16;
    }
    break;
  }
  if (++Pauses > Limit) // 2PL deadlock avoidance: give up our locks.
    conflictAbort(giveUpReason(IsRead, ObservedRecord,
                               /*BudgetExhausted=*/true));
  B.pause();
}

void Txn::waitForChange(const std::vector<ReadEntry> &Snapshot) {
  Backoff B;
  if (Snapshot.empty()) {
    B.pause();
    return;
  }
  // Capped exponential wait: each pause() doubles the spin window up to a
  // yield plateau, so a long wait costs scheduler yields rather than a hot
  // scan loop. The scan budget is a timeout, not just a cap: a wait that
  // exhausts it (it escalated past the spin plateau long ago — see
  // Backoff::escalation) gives up and records a ContentionGiveUp in the
  // abort-reason histogram, so a retry burning cycles with no writer in
  // sight shows up in reports instead of spinning silently. The timed-out
  // wakeup itself is harmless: the region re-executes and retries again.
  while (B.escalation() < RetryWaitScans) {
    for (const ReadEntry &E : Snapshot)
      if (E.Rec->load(std::memory_order_acquire) != E.Observed)
        return;
    B.pause();
  }
  noteAbortReason(AbortReason::ContentionGiveUp);
}

void Txn::resetState() {
  if (PendingReads | PendingWrites | PendingSnapReads) {
    detail::TlsCounters &S = statsForThisThread();
    S.TxnReads += PendingReads;
    S.TxnWrites += PendingWrites;
    S.SnapshotReads += PendingSnapReads;
    PendingReads = PendingWrites = PendingSnapReads = 0;
  }
  if (SnapMode) {
    SnapMode = false;
    SnapEpoch = 0;
    Quiescence::unpinSnapshot(*QSlot);
  }
  ReadSet.clear();
  WriteLocks.clear();
  WriteLockIndex.clear();
  ReadFilter.clear();
  UndoFilter.clear();
  UndoLog.clear();
  Savepoints.clear();
  OpenFrames.clear();
  CommitActions.clear();
  AbortActions.clear();
  PublishLog.clear();
  Depth = 0;
  NextValidateAt = 0;
}
