//===- kv/Store.cpp - SATM-KV store implementation -----------------------===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//

#include "kv/Store.h"

#include "kv/Wal.h"
#include "stm/Barriers.h"
#include "stm/Quiesce.h"
#include "stm/Snapshot.h"
#include "stm/Txn.h"

#include <algorithm>
#include <cassert>

using namespace satm;
using namespace satm::kv;
using namespace satm::rt;

namespace {

const TypeDescriptor IntArrayType("kv.int[]", TypeKind::IntArray);
const TypeDescriptor RefArrayType("kv.ref[]", TypeKind::RefArray);
// Value record: slot 0 holds the value word (or Store::Tombstone).
const TypeDescriptor ValueType("kv.Value", 1, {});
// Shard metadata: slot 0 counts resident index entries.
const TypeDescriptor MetaType("kv.ShardMeta", 1, {});

uint32_t roundUpPow2(uint32_t V) {
  uint32_t P = 1;
  while (P < V)
    P <<= 1;
  return P;
}

/// Shared driver for the budgeted transactional operations: runs \p Body
/// (which sets \p St to the committed outcome) as an eager transaction,
/// cutting it short via userAbort when \p B runs out. The budget check sits
/// at the top of each attempt, before any transactional access, so a shed
/// operation has touched nothing. A serial-irrevocable attempt (the
/// contention manager's escalation) skips the check entirely: it cannot
/// roll back, so it must not userAbort — and it is guaranteed to finish.
template <typename BodyF>
OpStatus runBudgeted(const OpBudget &B, OpStatus &St, BodyF &&Body) {
  uint32_t Attempts = 0;
  OpStatus Cut = OpStatus::Ok;
  bool Committed = stm::atomically([&] {
    stm::Txn &Tx = stm::Txn::forThisThread();
    if (!Tx.inSerialMode()) {
      if (B.Deadline != std::chrono::steady_clock::time_point{} &&
          std::chrono::steady_clock::now() >= B.Deadline) {
        Cut = OpStatus::DeadlineExceeded;
        Tx.userAbort();
      }
      if (B.MaxAttempts != 0 && ++Attempts > B.MaxAttempts) {
        Cut = OpStatus::Overloaded;
        Tx.userAbort();
      }
    }
    Body(Tx);
  });
  return Committed ? St : Cut;
}

} // namespace

const char *satm::kv::opStatusName(OpStatus S) {
  switch (S) {
  case OpStatus::Ok:
    return "Ok";
  case OpStatus::NotFound:
    return "NotFound";
  case OpStatus::Mismatch:
    return "Mismatch";
  case OpStatus::Full:
    return "Full";
  case OpStatus::Overloaded:
    return "Overloaded";
  case OpStatus::DeadlineExceeded:
    return "DeadlineExceeded";
  case OpStatus::DurabilityLost:
    return "DurabilityLost";
  }
  return "?";
}

Store::Store(rt::Heap &Heap, const StoreConfig &C) : H(Heap) {
  Capacity = roundUpPow2(C.CapacityPerShard < 2 ? 2 : C.CapacityPerShard);
  uint32_t NumShards = roundUpPow2(C.Shards < 1 ? 1 : C.Shards);
  Reps.reserve(NumShards);
  Pools.reserve(NumShards);
  for (uint32_t S = 0; S < NumShards; ++S) {
    ShardRep R;
    R.Keys = H.allocateArray(&IntArrayType, Capacity, BirthState::Shared);
    R.Vals = H.allocateArray(&RefArrayType, Capacity, BirthState::Shared);
    R.Meta = H.allocate(&MetaType, BirthState::Shared);
    Reps.push_back(R);
    Pools.push_back(std::make_unique<ShardPool>());
  }
}

//===----------------------------------------------------------------------===
// Value-record retire pools (quiescence-deferred reclamation).
//===----------------------------------------------------------------------===

void Store::pushRetired(uint32_t Shard, rt::Object *V, uint32_t Slot) {
  using stm::Quiescence;
  // The unlinking commit has completed but may sit above the stable
  // frontier (an earlier ticket still running), so the frontier alone
  // would let a reader pinned below the unlink — one that still reaches
  // V through the index — watch V get recycled for another key. Its own
  // ticket is the true horizon.
  const uint64_t Stable = std::max(Quiescence::snapshotStable(),
                                   Quiescence::ownLastTicket());
  ShardPool &P = *Pools[Shard];
  std::lock_guard<std::mutex> Lock(P.Mutex);
  P.Queue.push_back({V, Slot, Quiescence::currentEpoch(), Stable});
}

bool Store::popRecycled(uint32_t Shard, RetiredRecord &Out) {
  using stm::Quiescence;
  ShardPool &P = *Pools[Shard];
  std::lock_guard<std::mutex> Lock(P.Mutex);
  if (P.Queue.empty())
    return false;
  const RetiredRecord &F = P.Queue.front();
  if (Quiescence::currentEpoch() <= F.RetireEpoch) {
    // Never block an insert on the horizon: advance the epoch once (it
    // stalls when QuiesceOnCommit is off) and let a later harvest reap.
    Quiescence::advanceEpoch();
    return false;
  }
  if (Quiescence::minPinnedEpoch() < F.RetireStable)
    return false; // A pinned snapshot predates the unlink: keep parking.
  Out = F;
  P.Queue.pop_front();
  return true;
}

Store::ReclaimStats Store::reclaimStats() const {
  uint64_t Pool = 0;
  for (const auto &P : Pools) {
    std::lock_guard<std::mutex> Lock(P->Mutex);
    Pool += P->Queue.size();
  }
  return {ValueAllocated.load(std::memory_order_relaxed),
          ValueRetired.load(std::memory_order_relaxed),
          ValueRecycled.load(std::memory_order_relaxed), Pool};
}

//===----------------------------------------------------------------------===
// Non-transactional plane.
//===----------------------------------------------------------------------===

bool Store::get(Word Key, Word &Out) const {
  const ShardRep &S = Reps[shardOf(Key)];
  const uint32_t Mask = Capacity - 1;
  uint32_t I = probeStart(Key, Capacity);
  for (uint32_t N = 0; N < Capacity; ++N, I = (I + 1) & Mask) {
    Word K = stm::ntRead(S.Keys, I);
    if (K == 0)
      return false; // Probe chains never shrink: empty slot ends the search.
    if (K != Key + 1)
      continue;
    for (;;) {
      Word VW = stm::ntRead(S.Vals, I);
      const Object *V = Object::fromWord(VW);
      if (!V)
        return false; // Erased: the record was unlinked.
      Out = stm::ntRead(V, 0);
      // Re-confirm the link after the value read: a concurrent erase may
      // have unlinked V and a recycling insert rewritten it for another
      // key. An unchanged link means the value belonged to Key at the
      // second read (unlink commits publish before any reuse).
      if (stm::ntRead(S.Vals, I) == VW)
        return Out != Tombstone;
    }
  }
  return false;
}

void Store::logRedo(stm::Txn &Tx, WalOp Op, Word Key, Word Val) {
  if (!DurableLog)
    return; // --durability=off: the log path is fully elided.
  stm::Txn::PublishEntry E;
  E.Fn = &Wal::publishHook;
  E.Ctx = DurableLog;
  E.A = Word(Op);
  E.B = Key;
  E.C = Val;
  Tx.onPublish(E);
}

bool Store::putFast(Word Key, Word Val) {
  assert(Val != Tombstone && "Tombstone is reserved");
  if (DurableLog)
    return false; // Raw stores bypass the redo log: take the txn path.
  const ShardRep &S = Reps[shardOf(Key)];
  const uint32_t Mask = Capacity - 1;
  uint32_t I = probeStart(Key, Capacity);
  for (uint32_t N = 0; N < Capacity; ++N, I = (I + 1) & Mask) {
    Word K = stm::ntRead(S.Keys, I);
    if (K == 0)
      return false;
    if (K != Key + 1)
      continue;
    Word VW = stm::ntRead(S.Vals, I);
    Object *V = Object::fromWord(VW);
    if (!V)
      return false; // Erased: the transactional insert path resurrects.
    // Store under an aggregated anon hold and re-confirm the link while
    // holding it: a concurrent erase may unlink V (parking it for reuse
    // under another key) between the probe and the store. The re-read is
    // a raw load on purpose — a full barrier read here could wait on the
    // serial gate while holding V's record, and a speculative value only
    // causes a harmless fallback to the transactional path.
    stm::AggregatedWriter W(V);
    if (S.Vals->rawLoad(I, std::memory_order_acquire) != VW)
      return false; // Unlinked underneath us.
    // Snapshot readers resolve a chained object through its chain, never
    // in place, so a raw store into one would stay invisible to them
    // forever: let the transactional insert publish a version instead.
    // Checked under the hold, which keeps any transaction from chaining V
    // between the check and the store. Chain-less objects (no version
    // index, or a stale one) keep the raw store; snapshot reads see them
    // in place (the nt caveat, stm/Snapshot.h).
    if (stm::config().SnapshotEnabled && V->versionIndex() != 0 &&
        stm::snap::hasChain(V))
      return false;
    W.store(0, Val);
    return true;
  }
  return false;
}

bool Store::put(Word Key, Word Val) {
  if (putFast(Key, Val))
    return true;
  return insert(Key, Val);
}

//===----------------------------------------------------------------------===
// Transactional plane.
//===----------------------------------------------------------------------===

int Store::findSlotTxn(stm::Txn &Tx, const ShardRep &S, Word Key,
                       int *FirstFree) const {
  const uint32_t Mask = Capacity - 1;
  uint32_t I = probeStart(Key, Capacity);
  if (FirstFree)
    *FirstFree = -1;
  for (uint32_t N = 0; N < Capacity; ++N, I = (I + 1) & Mask) {
    Word K = Tx.read(S.Keys, I);
    if (K == Key + 1)
      return int(I);
    if (K == 0) {
      if (FirstFree)
        *FirstFree = int(I);
      return -1;
    }
  }
  return -1; // Full shard, no free slot either.
}

Object *Store::linkFresh(stm::Txn &Tx, FreshRecord &F, uint32_t Slot,
                         Word Val) {
  F.Slot = Slot;
  F.Linked = true;
  if (F.V) {
    // Reused after an aborted attempt whose link may have published it:
    // a doomed reader of the rolled-back link may still hold it, so
    // write transactionally, as the harvested-record path does.
    Tx.write(F.V, 0, Val);
    return F.V;
  }
  // Born per config().birthState(): under DEA it stays private — invisible
  // to every other thread — until the transactional ref store publishes it
  // (§4), so its initializing rawStore needs no barrier.
  F.V = H.allocate(&ValueType, stm::config().birthState());
  F.V->rawStore(0, Val);
  ValueAllocated.fetch_add(1, std::memory_order_relaxed);
  return F.V;
}

void Store::parkUnlinked(uint32_t Shard, const FreshRecord &F,
                         bool Committed) {
  if (!F.V || (Committed && F.Linked))
    return;
  ValueRetired.fetch_add(1, std::memory_order_relaxed);
  pushRetired(Shard, F.V, F.Slot);
}

OpStatus Store::insert(Word Key, Word Val, const OpBudget &B) {
  assert(Val != Tombstone && "Tombstone is reserved");
  uint32_t Shard = shardOf(Key);
  ShardRep &S = Reps[Shard];
  // Harvest at most one ripe retired record *before* the attempt loop —
  // popping inside the body would double-pop across re-executions.
  RetiredRecord Recycled{nullptr, 0, 0, 0};
  bool Harvested = popRecycled(Shard, Recycled);
  bool UsedRecycled = false;
  FreshRecord Fresh;
  OpStatus St = OpStatus::Ok;
  OpStatus R = runBudgeted(B, St, [&](stm::Txn &Tx) {
    St = OpStatus::Ok;
    UsedRecycled = false;
    Fresh.Linked = false;
    int FirstFree = -1;
    int Slot = findSlotTxn(Tx, S, Key, &FirstFree);
    int Target = Slot;
    bool RecycledSlot = false;
    if (Slot >= 0) {
      Object *V = Tx.readRef(S.Vals, uint32_t(Slot));
      if (V) {
        // Present: overwrite in place.
        Tx.write(V, 0, Val);
        logRedo(Tx, WalOp::Put, Key, Val);
        return;
      }
      // Erased key: resurrect by relinking a value record below. Meta is
      // untouched — size() counts index entries, which never shrink.
    } else if (FirstFree >= 0) {
      Target = FirstFree;
    } else if (Harvested &&
               Tx.readRef(S.Vals, Recycled.Slot) == nullptr) {
      // Tombstone-saturated shard: the probe wrapped the whole table
      // without an empty slot, so every slot is on every key's probe
      // sequence and any still-tombstoned slot is a legal home for Key.
      // Reuse the harvested record's own slot — ripened past both
      // reclamation horizons, and (checked transactionally above) not
      // resurrected since. The Keys rewrite is transactional, so
      // concurrent probes validate against it, and the slot stays
      // non-zero throughout: nt probe chains never see it go empty.
      Target = int(Recycled.Slot);
      RecycledSlot = true;
    } else {
      St = OpStatus::Full;
      return;
    }
    Object *V;
    if (Harvested) {
      // A recycled record may have straggling optimistic readers from its
      // previous key: write transactionally so the acquire arbitrates
      // against them and the commit-time version bump (plus the published
      // version node under SnapshotEnabled) kills their validation.
      V = Recycled.V;
      Tx.write(V, 0, Val);
      UsedRecycled = true;
    } else {
      V = linkFresh(Tx, Fresh, uint32_t(Target), Val);
    }
    if (Slot < 0) {
      Tx.write(S.Keys, uint32_t(Target), Key + 1);
      // A recycled slot replaces a tombstoned entry with a live one:
      // the resident-entry count is unchanged, so no Meta bump.
      if (!RecycledSlot)
        Tx.write(S.Meta, 0, Tx.read(S.Meta, 0) + 1);
    }
    Tx.writeRef(S.Vals, uint32_t(Target), V);
    logRedo(Tx, WalOp::Put, Key, Val);
  });
  if (Harvested) {
    if (R == OpStatus::Ok && UsedRecycled)
      ValueRecycled.fetch_add(1, std::memory_order_relaxed);
    else // Unused (overwrite path or shed): park it again, slot intact.
      pushRetired(Shard, Recycled.V, Recycled.Slot);
  }
  parkUnlinked(Shard, Fresh, R == OpStatus::Ok);
  return R;
}

bool Store::insert(Word Key, Word Val) {
  return insert(Key, Val, OpBudget{}) == OpStatus::Ok;
}

OpStatus Store::multiPut(const Word *Keys, const Word *Vals, size_t N,
                         OpStatus *PerKey, const OpBudget &B) {
  // Per-key fresh records, sized on the first fresh key: a batch of
  // overwrites allocates nothing.
  std::vector<FreshRecord> Fresh;
  OpStatus St = OpStatus::Ok;
  OpStatus R = runBudgeted(B, St, [&](stm::Txn &Tx) {
    St = OpStatus::Ok;
    for (FreshRecord &F : Fresh)
      F.Linked = false;
    for (size_t I = 0; I < N; ++I) {
      assert(Vals[I] != Tombstone && "Tombstone is reserved");
      uint32_t Shard = shardOf(Keys[I]);
      ShardRep &S = Reps[Shard];
      int FirstFree = -1;
      int Slot = findSlotTxn(Tx, S, Keys[I], &FirstFree);
      if (Slot >= 0) {
        Object *V = Tx.readRef(S.Vals, uint32_t(Slot));
        if (V) {
          // Present (or written earlier in this very batch — eager
          // writes land in place, so the probe read our own insert):
          // overwrite.
          Tx.write(V, 0, Vals[I]);
          logRedo(Tx, WalOp::Put, Keys[I], Vals[I]);
          PerKey[I] = OpStatus::Ok;
          continue;
        }
        // Erased key: resurrect by relinking a fresh record below.
      } else if (FirstFree < 0) {
        // No retire-pool harvest on the batch path (see Store.h): the
        // caller retries this key through the single insert.
        PerKey[I] = OpStatus::Full;
        continue;
      }
      uint32_t Target = uint32_t(Slot >= 0 ? Slot : FirstFree);
      if (Fresh.empty())
        Fresh.resize(N);
      Object *V = linkFresh(Tx, Fresh[I], Target, Vals[I]);
      if (Slot < 0) {
        Tx.write(S.Keys, Target, Keys[I] + 1);
        Tx.write(S.Meta, 0, Tx.read(S.Meta, 0) + 1);
      }
      Tx.writeRef(S.Vals, Target, V);
      logRedo(Tx, WalOp::Put, Keys[I], Vals[I]);
      PerKey[I] = OpStatus::Ok;
    }
  });
  for (size_t I = 0; I < Fresh.size(); ++I)
    parkUnlinked(shardOf(Keys[I]), Fresh[I], R == OpStatus::Ok);
  return R;
}

OpStatus Store::erase(Word Key, const OpBudget &B) {
  uint32_t Shard = shardOf(Key);
  ShardRep &S = Reps[Shard];
  OpStatus St = OpStatus::Ok;
  return runBudgeted(B, St, [&](stm::Txn &Tx) {
    St = OpStatus::NotFound;
    int Slot = findSlotTxn(Tx, S, Key, nullptr);
    if (Slot < 0)
      return;
    Object *V = Tx.readRef(S.Vals, uint32_t(Slot));
    if (!V)
      return; // Already erased.
    // Unlink the record instead of tombstoning its value in place: it
    // becomes unreachable from the index at commit and parks in the
    // shard's retire pool for epoch-gated recycling. The park runs
    // post-commit (discarded on abort), when the retirement horizon —
    // current epoch and the unlinking commit's publish ticket — is final.
    Tx.writeRef(S.Vals, uint32_t(Slot), nullptr);
    Tx.onCommit([this, Shard, V, Slot = uint32_t(Slot)] {
      ValueRetired.fetch_add(1, std::memory_order_relaxed);
      pushRetired(Shard, V, Slot);
    });
    logRedo(Tx, WalOp::Erase, Key, 0);
    St = OpStatus::Ok;
  });
}

bool Store::erase(Word Key) {
  return erase(Key, OpBudget{}) == OpStatus::Ok;
}

OpStatus Store::cas(Word Key, Word Expected, Word Desired,
                    const OpBudget &B) {
  assert(Desired != Tombstone && "Tombstone is reserved");
  ShardRep &S = Reps[shardOf(Key)];
  OpStatus St = OpStatus::Ok;
  return runBudgeted(B, St, [&](stm::Txn &Tx) {
    St = OpStatus::NotFound;
    int Slot = findSlotTxn(Tx, S, Key, nullptr);
    if (Slot < 0)
      return;
    Object *V = Tx.readRef(S.Vals, uint32_t(Slot));
    if (!V)
      return; // Erased.
    Word Cur = Tx.read(V, 0);
    if (Cur == Tombstone)
      return;
    if (Cur != Expected) {
      St = OpStatus::Mismatch;
      return;
    }
    Tx.write(V, 0, Desired);
    logRedo(Tx, WalOp::Put, Key, Desired);
    St = OpStatus::Ok;
  });
}

bool Store::cas(Word Key, Word Expected, Word Desired) {
  return cas(Key, Expected, Desired, OpBudget{}) == OpStatus::Ok;
}

OpStatus Store::multiGet(const Word *Keys, size_t N, Word *Out,
                         const OpBudget &B, size_t *Found) const {
  size_t Hits = 0;
  OpStatus St = OpStatus::Ok;
  OpStatus R = runBudgeted(B, St, [&](stm::Txn &Tx) {
    Hits = 0;
    for (size_t I = 0; I < N; ++I) {
      const ShardRep &S = Reps[shardOf(Keys[I])];
      int Slot = findSlotTxn(Tx, S, Keys[I], nullptr);
      Object *V =
          Slot < 0 ? nullptr : Tx.readRef(S.Vals, uint32_t(Slot));
      if (!V) {
        Out[I] = Tombstone;
        continue;
      }
      Out[I] = Tx.read(V, 0);
      if (Out[I] != Tombstone)
        ++Hits;
    }
  });
  if (Found)
    *Found = R == OpStatus::Ok ? Hits : 0;
  return R;
}

size_t Store::multiGet(const Word *Keys, size_t N, Word *Out) const {
  size_t Found = 0;
  multiGet(Keys, N, Out, OpBudget{}, &Found);
  return Found;
}

//===----------------------------------------------------------------------===
// Snapshot plane.
//===----------------------------------------------------------------------===

size_t Store::snapshotMultiGet(const Word *Keys, size_t N, Word *Out) const {
  size_t Hits = 0;
  // Read-only snapshot region: the probe and the value loads all resolve
  // against the pinned epoch's version records. The body cannot conflict
  // (no writes, no validation), so it executes exactly once.
  stm::Txn::runSnapshot([&] {
    stm::Txn &Tx = stm::Txn::forThisThread();
    Hits = 0;
    for (size_t I = 0; I < N; ++I) {
      const ShardRep &S = Reps[shardOf(Keys[I])];
      int Slot = findSlotTxn(Tx, S, Keys[I], nullptr);
      Object *V =
          Slot < 0 ? nullptr : Tx.readRef(S.Vals, uint32_t(Slot));
      if (!V) {
        Out[I] = Tombstone; // Missing or erased as of the pinned epoch.
        continue;
      }
      Out[I] = Tx.read(V, 0);
      if (Out[I] != Tombstone)
        ++Hits;
    }
  });
  return Hits;
}

uint64_t Store::snapshotScan(
    const std::function<void(Word, Word)> &Visit) const {
  uint64_t Epoch = 0;
  // One snapshot region over the whole store: every slot of every shard
  // is read against the same pinned epoch, so the visited set is exactly
  // the commit-order prefix with ticket <= Epoch — the property the
  // checkpoint barrier LSN depends on. Read-only, so the body runs once.
  stm::Txn::runSnapshot([&] {
    stm::Txn &Tx = stm::Txn::forThisThread();
    Epoch = Tx.snapshotEpoch();
    for (const ShardRep &S : Reps) {
      for (uint32_t I = 0; I < Capacity; ++I) {
        Word K = Tx.read(S.Keys, I);
        if (K == 0)
          continue; // Never-used slot.
        Object *V = Tx.readRef(S.Vals, I);
        Word Val = V ? Tx.read(V, 0) : Tombstone;
        // Erased keys (unlinked record, or an in-place Tombstone) are
        // reported as Tombstone: the checkpoint must overwrite whatever
        // baseline a recovering store was seeded with.
        Visit(K - 1, Val);
      }
    }
  });
  return Epoch;
}

bool Store::snapshotGet(Word Key, Word &Out) const {
  Word V = Tombstone;
  snapshotMultiGet(&Key, 1, &V);
  if (V == Tombstone)
    return false;
  Out = V;
  return true;
}

OpStatus Store::readModifyWrite(
    const Word *Keys, size_t N,
    const std::function<void(Word *Vals, size_t N)> &Mutate,
    const OpBudget &B) {
  std::vector<Word> Buf(N);
  std::vector<rt::Object *> Objs(N);
  OpStatus St = OpStatus::Ok;
  return runBudgeted(B, St, [&](stm::Txn &Tx) {
    St = OpStatus::NotFound;
    for (size_t I = 0; I < N; ++I) {
      const ShardRep &S = Reps[shardOf(Keys[I])];
      int Slot = findSlotTxn(Tx, S, Keys[I], nullptr);
      if (Slot < 0)
        return;
      Objs[I] = Tx.readRef(S.Vals, uint32_t(Slot));
      if (!Objs[I])
        return; // Erased.
      Buf[I] = Tx.read(Objs[I], 0);
      if (Buf[I] == Tombstone)
        return;
    }
    Mutate(Buf.data(), N);
    for (size_t I = 0; I < N; ++I) {
      assert(Buf[I] != Tombstone && "Tombstone is reserved");
      Tx.write(Objs[I], 0, Buf[I]);
      logRedo(Tx, WalOp::Put, Keys[I], Buf[I]);
    }
    St = OpStatus::Ok;
  });
}

bool Store::readModifyWrite(
    const Word *Keys, size_t N,
    const std::function<void(Word *Vals, size_t N)> &Mutate) {
  return readModifyWrite(Keys, N, Mutate, OpBudget{}) == OpStatus::Ok;
}

OpStatus Store::rmwAdd(const Word *Keys, size_t N, Word Delta,
                       const OpBudget &B) {
  return readModifyWrite(
      Keys, N,
      [Delta](Word *Vals, size_t Count) {
        for (size_t I = 0; I < Count; ++I)
          Vals[I] += Delta;
      },
      B);
}

bool Store::rmwAdd(const Word *Keys, size_t N, Word Delta) {
  return rmwAdd(Keys, N, Delta, OpBudget{}) == OpStatus::Ok;
}

//===----------------------------------------------------------------------===
// Introspection.
//===----------------------------------------------------------------------===

uint64_t Store::size() const {
  uint64_t Sum = 0;
  for (const ShardRep &S : Reps)
    Sum += stm::ntRead(S.Meta, 0);
  return Sum;
}

rt::Object *Store::valueObjectFor(Word Key) const {
  const ShardRep &S = Reps[shardOf(Key)];
  const uint32_t Mask = Capacity - 1;
  uint32_t I = probeStart(Key, Capacity);
  for (uint32_t N = 0; N < Capacity; ++N, I = (I + 1) & Mask) {
    Word K = stm::ntRead(S.Keys, I);
    if (K == 0)
      return nullptr;
    if (K == Key + 1)
      return Object::fromWord(stm::ntRead(S.Vals, I));
  }
  return nullptr;
}
