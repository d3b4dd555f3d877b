//===- stm/Stats.cpp - Runtime event counters and tracing ----------------===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//

#include "stm/Stats.h"

#include "support/EventRing.h"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <vector>

using namespace satm;
using namespace satm::stm;

const char *satm::stm::abortReasonName(AbortReason R) {
  switch (R) {
  case AbortReason::ReadValidation:
    return "ReadValidation";
  case AbortReason::WriteLockConflict:
    return "WriteLockConflict";
  case AbortReason::NtReadKill:
    return "NtReadKill";
  case AbortReason::NtWriteKill:
    return "NtWriteKill";
  case AbortReason::AggregatedScope:
    return "AggregatedScope";
  case AbortReason::UserRetry:
    return "UserRetry";
  case AbortReason::UserAbort:
    return "UserAbort";
  case AbortReason::ContentionGiveUp:
    return "ContentionGiveUp";
  case AbortReason::FaultInjected:
    return "FaultInjected";
  }
  return "?";
}

const char *satm::stm::abortReasonKey(AbortReason R) {
  switch (R) {
  case AbortReason::ReadValidation:
    return "read_validation";
  case AbortReason::WriteLockConflict:
    return "write_lock_conflict";
  case AbortReason::NtReadKill:
    return "nt_read_kill";
  case AbortReason::NtWriteKill:
    return "nt_write_kill";
  case AbortReason::AggregatedScope:
    return "aggregated_scope";
  case AbortReason::UserRetry:
    return "user_retry";
  case AbortReason::UserAbort:
    return "user_abort";
  case AbortReason::ContentionGiveUp:
    return "contention_give_up";
  case AbortReason::FaultInjected:
    return "fault_injected";
  }
  return "?";
}

const char *satm::stm::traceKindName(TraceKind K) {
  switch (K) {
  case TraceKind::TxnBegin:
    return "TxnBegin";
  case TraceKind::TxnCommit:
    return "TxnCommit";
  case TraceKind::TxnAbort:
    return "TxnAbort";
  case TraceKind::BarrierConflict:
    return "BarrierConflict";
  case TraceKind::QuiesceWait:
    return "QuiesceWait";
  case TraceKind::SerialEnter:
    return "SerialEnter";
  case TraceKind::SerialExit:
    return "SerialExit";
  case TraceKind::FaultFired:
    return "FaultFired";
  case TraceKind::SnapshotBegin:
    return "SnapshotBegin";
  case TraceKind::SnapshotEnd:
    return "SnapshotEnd";
  case TraceKind::SnapshotPublish:
    return "SnapshotPublish";
  case TraceKind::PublishSessionWait:
    return "PublishSessionWait";
  case TraceKind::PublishRingWait:
    return "PublishRingWait";
  }
  return "?";
}

const char *satm::stm::barrierSiteName(BarrierSite S) {
  switch (S) {
  case BarrierSite::NtRead:
    return "ntRead";
  case BarrierSite::NtReadOrdering:
    return "ntReadOrdering";
  case BarrierSite::NtWrite:
    return "ntWrite";
  case BarrierSite::AggWrite:
    return "AggregatedWriter";
  case BarrierSite::AggRead:
    return "aggregatedRead";
  }
  return "?";
}

//===----------------------------------------------------------------------===
// Counter registry.
//===----------------------------------------------------------------------===

namespace {

struct Registry {
  std::mutex Mutex;
  std::vector<detail::TlsStatsBlock *> Live;
  StatsCounters Retired; ///< Folded-in counters of exited threads.

  static Registry &get() {
    static Registry R;
    return R;
  }
};

} // namespace

void satm::stm::detail::registerStatsBlock(TlsStatsBlock &Block) {
  Registry &R = Registry::get();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  R.Live.push_back(&Block);
  Block.Registered = true;
}

satm::stm::detail::TlsStatsBlock::~TlsStatsBlock() {
  if (!Registered)
    return;
  Registry &R = Registry::get();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  StatsCounters Final = detail::readCounters(Counters);
  Final -= Baseline;
  R.Retired += Final;
  R.Live.erase(std::remove(R.Live.begin(), R.Live.end(), this),
               R.Live.end());
}

StatsCounters satm::stm::statsSnapshot() {
  Registry &R = Registry::get();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  StatsCounters Sum = R.Retired;
  for (detail::TlsStatsBlock *B : R.Live) {
    Sum += detail::readCounters(B->Counters);
    Sum -= B->Baseline;
  }
  return Sum;
}

void satm::stm::statsReset() {
  Registry &R = Registry::get();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  R.Retired = StatsCounters();
  // Rebase rather than zero: the owning thread may be incrementing its
  // cells right now, and a plain cross-thread store would race with it.
  for (detail::TlsStatsBlock *B : R.Live)
    B->Baseline = detail::readCounters(B->Counters);
}

//===----------------------------------------------------------------------===
// Trace rings.
//===----------------------------------------------------------------------===

bool satm::stm::detail::TraceOn = [] {
  const char *E = std::getenv("SATM_TRACE");
  return E && *E && !(E[0] == '0' && E[1] == '\0');
}();

namespace {

/// Packed per-thread ring element; the thread id lives on the ring.
struct TraceEvt {
  uint64_t Time;
  TraceKind Kind;
  uint8_t Arg;
};

/// 4096 events per thread (~96 KiB); old events are overwritten and
/// counted as dropped.
constexpr unsigned TraceRingPow2 = 12;

struct TraceRing {
  uint32_t ThreadId;
  EventRing<TraceEvt, TraceRingPow2> Ring;
};

/// Retired-events buffer cap: exited threads' undrained events are kept for
/// the next traceDrain() up to this many entries; the excess is counted as
/// dropped. Bounds registry memory under unbounded thread churn.
constexpr size_t RetiredEventCap = size_t(1) << 16;

/// Ring ownership: every ring ever allocated lives in Rings; a ring is
/// either bound to a live thread or parked on the Free list awaiting the
/// next thread. A thread-exit destructor drains the departing thread's
/// ring into RetiredEvents (tagged with its dense ThreadId), clears it,
/// and recycles it — so the ring count tracks peak concurrency, not
/// cumulative thread churn.
struct TraceRegistry {
  std::mutex Mutex;
  std::vector<std::unique_ptr<TraceRing>> Rings;
  std::vector<TraceRing *> Free;
  uint32_t NextThreadId = 0;
  std::vector<TraceEntry> RetiredEvents;
  uint64_t RetiredWritten = 0;
  uint64_t RetiredDropped = 0;

  static TraceRegistry &get() {
    static TraceRegistry R;
    return R;
  }
};

/// Per-thread binding with a retirement destructor. Retired is sticky: a
/// traceEvent() fired from a later thread_local destructor on the same
/// thread is dropped rather than re-registering a ring that would never be
/// retired.
struct TraceHandle {
  TraceRing *Ring = nullptr;
  bool Retired = false;
  ~TraceHandle() {
    Retired = true;
    TraceRing *R = Ring;
    Ring = nullptr;
    if (!R)
      return;
    TraceRegistry &Reg = TraceRegistry::get();
    std::lock_guard<std::mutex> Lock(Reg.Mutex);
    // Capture occupancy before clear() rewinds the cursors.
    Reg.RetiredWritten += R->Ring.written();
    Reg.RetiredDropped += R->Ring.dropped();
    std::vector<TraceEvt> Scratch;
    R->Ring.drain(Scratch);
    for (const TraceEvt &E : Scratch) {
      if (Reg.RetiredEvents.size() < RetiredEventCap)
        Reg.RetiredEvents.push_back({E.Time, R->ThreadId, E.Kind, E.Arg});
      else
        ++Reg.RetiredDropped;
    }
    // Sole writer has exited (we are its destructor), so clear() is safe.
    R->Ring.clear();
    Reg.Free.push_back(R);
  }
};

thread_local TraceHandle TlsTrace;

} // namespace

void satm::stm::detail::traceRecord(TraceKind K, uint8_t Arg) {
  TraceHandle &H = TlsTrace;
  if (!H.Ring) {
    if (H.Retired)
      return; // Post-retirement event from another TLS destructor.
    TraceRegistry &Reg = TraceRegistry::get();
    std::lock_guard<std::mutex> Lock(Reg.Mutex);
    if (!Reg.Free.empty()) {
      H.Ring = Reg.Free.back();
      Reg.Free.pop_back();
    } else {
      Reg.Rings.push_back(std::make_unique<TraceRing>());
      H.Ring = Reg.Rings.back().get();
    }
    H.Ring->ThreadId = Reg.NextThreadId++;
  }
  H.Ring->Ring.push({traceTimestamp(), K, Arg});
}

void satm::stm::setTraceEnabled(bool On) { detail::TraceOn = On; }

void satm::stm::traceReset() {
  TraceRegistry &Reg = TraceRegistry::get();
  std::lock_guard<std::mutex> Lock(Reg.Mutex);
  for (auto &R : Reg.Rings)
    R->Ring.clear();
  Reg.RetiredEvents.clear();
  Reg.RetiredEvents.shrink_to_fit();
  Reg.RetiredWritten = 0;
  Reg.RetiredDropped = 0;
}

std::vector<TraceEntry> satm::stm::traceDrain() {
  TraceRegistry &Reg = TraceRegistry::get();
  std::vector<TraceEntry> Out;
  {
    std::lock_guard<std::mutex> Lock(Reg.Mutex);
    Out = Reg.RetiredEvents;
    std::vector<TraceEvt> Scratch;
    for (auto &R : Reg.Rings) {
      Scratch.clear();
      R->Ring.drain(Scratch);
      for (const TraceEvt &E : Scratch)
        Out.push_back({E.Time, R->ThreadId, E.Kind, E.Arg});
    }
  }
  std::stable_sort(Out.begin(), Out.end(),
                   [](const TraceEntry &A, const TraceEntry &B) {
                     return A.Time < B.Time;
                   });
  return Out;
}

uint64_t satm::stm::traceDropped() {
  TraceRegistry &Reg = TraceRegistry::get();
  std::lock_guard<std::mutex> Lock(Reg.Mutex);
  uint64_t Sum = Reg.RetiredDropped;
  for (auto &R : Reg.Rings)
    Sum += R->Ring.dropped();
  return Sum;
}

std::vector<TraceRingStats> satm::stm::traceRingStats() {
  TraceRegistry &Reg = TraceRegistry::get();
  std::lock_guard<std::mutex> Lock(Reg.Mutex);
  std::vector<TraceRingStats> Out;
  Out.reserve(Reg.Rings.size());
  for (auto &R : Reg.Rings) {
    // Parked rings are empty by construction; skip them so the report
    // covers live threads only.
    bool IsFree = false;
    for (TraceRing *F : Reg.Free)
      IsFree |= F == R.get();
    if (IsFree)
      continue;
    uint64_t Written = R->Ring.written();
    uint64_t Capacity = uint64_t(1) << TraceRingPow2;
    Out.push_back({R->ThreadId, Written, R->Ring.dropped(),
                   Written < Capacity ? Written : Capacity, Capacity});
  }
  return Out;
}

TraceRegistryStats satm::stm::traceRegistryStats() {
  TraceRegistry &Reg = TraceRegistry::get();
  std::lock_guard<std::mutex> Lock(Reg.Mutex);
  return {Reg.Rings.size() - Reg.Free.size(), Reg.Free.size(),
          Reg.RetiredEvents.size(), Reg.RetiredWritten, Reg.RetiredDropped};
}
