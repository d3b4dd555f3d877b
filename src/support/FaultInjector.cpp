//===- support/FaultInjector.cpp - Deterministic fault injection ---------===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//

#include "support/FaultInjector.h"

#include "support/Rng.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

using namespace satm;

const char *satm::faultSiteName(FaultSite S) {
  switch (S) {
  case FaultSite::TxnOpen:
    return "TxnOpen";
  case FaultSite::TxnCommit:
    return "TxnCommit";
  case FaultSite::LazyOpen:
    return "LazyOpen";
  case FaultSite::LazyCommit:
    return "LazyCommit";
  case FaultSite::BarrierAcquire:
    return "BarrierAcquire";
  case FaultSite::QuiesceStall:
    return "QuiesceStall";
  case FaultSite::HeapAlloc:
    return "HeapAlloc";
  case FaultSite::LogAppend:
    return "LogAppend";
  case FaultSite::LogFsync:
    return "LogFsync";
  case FaultSite::RecoveryReplay:
    return "RecoveryReplay";
  case FaultSite::NetAccept:
    return "NetAccept";
  case FaultSite::NetRead:
    return "NetRead";
  case FaultSite::NetWrite:
    return "NetWrite";
  case FaultSite::LogEnospc:
    return "LogEnospc";
  case FaultSite::CkptWrite:
    return "CkptWrite";
  case FaultSite::CkptRename:
    return "CkptRename";
  case FaultSite::PublishStall:
    return "PublishStall";
  }
  return "?";
}

const char *satm::faultSiteKey(FaultSite S) {
  switch (S) {
  case FaultSite::TxnOpen:
    return "txn_open";
  case FaultSite::TxnCommit:
    return "txn_commit";
  case FaultSite::LazyOpen:
    return "lazy_open";
  case FaultSite::LazyCommit:
    return "lazy_commit";
  case FaultSite::BarrierAcquire:
    return "barrier_delay";
  case FaultSite::QuiesceStall:
    return "quiesce_stall";
  case FaultSite::HeapAlloc:
    return "heap_alloc";
  case FaultSite::LogAppend:
    return "log_append";
  case FaultSite::LogFsync:
    return "log_fsync";
  case FaultSite::RecoveryReplay:
    return "recovery_replay";
  case FaultSite::NetAccept:
    return "net_accept";
  case FaultSite::NetRead:
    return "net_read";
  case FaultSite::NetWrite:
    return "net_write";
  case FaultSite::LogEnospc:
    return "log_enospc";
  case FaultSite::CkptWrite:
    return "ckpt_write";
  case FaultSite::CkptRename:
    return "ckpt_rename";
  case FaultSite::PublishStall:
    return "publish_stall";
  }
  return "?";
}

namespace {

/// Default pause-loop iterations for the delay sites.
constexpr uint32_t DefaultDelaySpins = 256;

/// The armed campaign. Generation invalidates every thread's cached
/// stream; NextOrdinal hands out default thread tags in first-use order.
struct Campaign {
  std::mutex Mutex; ///< Serializes arm()/disarm().
  FaultConfig C;
  std::atomic<uint64_t> Generation{0};
  std::atomic<uint64_t> NextOrdinal{0};
  std::atomic<uint64_t> Fired[NumFaultSites] = {};

  static Campaign &get() {
    static Campaign A;
    return A;
  }
};

/// Per-thread decision stream. Tag pinning (setThreadTag) is sticky across
/// re-arms so a replay test can arm twice without re-pinning.
struct TlsFaultState {
  uint64_t Generation = 0;
  uint64_t Tag = 0;
  bool HasPinnedTag = false;
  bool Suppressed = false;
  Rng Stream{0};
};

thread_local TlsFaultState TlsFault;

void reseed(TlsFaultState &T, Campaign &A) {
  if (!T.HasPinnedTag)
    T.Tag = A.NextOrdinal.fetch_add(1, std::memory_order_relaxed);
  // SplitMix inside Rng's constructor decorrelates nearby tags; the odd
  // multiplier spreads them across the seed space first.
  T.Stream = Rng(A.C.Seed ^ (0x9e3779b97f4a7c15ull * (T.Tag + 1)));
  T.Generation = A.Generation.load(std::memory_order_acquire);
}

} // namespace

bool satm::detail::faultFireSlow(FaultSite S) {
  Campaign &A = Campaign::get();
  TlsFaultState &T = TlsFault;
  if (T.Suppressed)
    return false;
  if (T.Generation != A.Generation.load(std::memory_order_acquire))
    reseed(T, A);
  // One draw per armed decision regardless of outcome: a thread's stream
  // position depends only on how many fault points it has passed, never on
  // which of them fired.
  uint32_t Draw = uint32_t(T.Stream.next() >> 32);
  uint32_t P = A.C.Prob[unsigned(S)];
  if (P != UINT32_MAX && (P == 0 || Draw >= P))
    return false;
  A.Fired[unsigned(S)].fetch_add(1, std::memory_order_relaxed);
  if (A.C.KillOnFire) [[unlikely]]
    std::_Exit(FaultKillExitCode); // Simulated crash: no flushes, no atexit.
  return true;
}

void satm::FaultInjector::arm(const FaultConfig &C) {
  Campaign &A = Campaign::get();
  std::lock_guard<std::mutex> Lock(A.Mutex);
  A.C = C;
  for (unsigned I = 0; I < NumFaultSites; ++I) {
    A.Fired[I].store(0, std::memory_order_relaxed);
    if (A.C.Arg[I] == 0)
      A.C.Arg[I] = DefaultDelaySpins;
  }
  A.NextOrdinal.store(0, std::memory_order_relaxed);
  A.Generation.fetch_add(1, std::memory_order_release);
  bool Any = false;
  for (unsigned I = 0; I < NumFaultSites; ++I)
    Any |= C.Prob[I] != 0;
  detail::FaultsArmed.store(Any, std::memory_order_release);
}

void satm::FaultInjector::disarm() {
  Campaign &A = Campaign::get();
  std::lock_guard<std::mutex> Lock(A.Mutex);
  detail::FaultsArmed.store(false, std::memory_order_release);
  A.Generation.fetch_add(1, std::memory_order_release);
}

uint64_t satm::FaultInjector::firedCount(FaultSite S) {
  return Campaign::get().Fired[unsigned(S)].load(std::memory_order_relaxed);
}

uint64_t satm::FaultInjector::firedTotal() {
  uint64_t Sum = 0;
  for (unsigned I = 0; I < NumFaultSites; ++I)
    Sum += firedCount(FaultSite(I));
  return Sum;
}

uint32_t satm::FaultInjector::arg(FaultSite S) {
  return Campaign::get().C.Arg[unsigned(S)];
}

void satm::FaultInjector::setThreadSuppressed(bool On) {
  TlsFault.Suppressed = On;
}

void satm::FaultInjector::setThreadTag(uint64_t Tag) {
  Campaign &A = Campaign::get();
  TlsFaultState &T = TlsFault;
  T.Tag = Tag;
  T.HasPinnedTag = true;
  reseed(T, A);
}

bool satm::FaultInjector::parse(const char *Spec, FaultConfig &Out,
                                std::string &Err) {
  FaultConfig C;
  std::string S(Spec ? Spec : "");
  size_t Pos = 0;
  while (Pos < S.size()) {
    size_t Comma = S.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = S.size();
    std::string Tok = S.substr(Pos, Comma - Pos);
    Pos = Comma + 1;
    if (Tok.empty())
      continue;
    size_t Eq = Tok.find('=');
    if (Eq == std::string::npos) {
      Err = "token '" + Tok + "' is not key=value";
      return false;
    }
    std::string Key = Tok.substr(0, Eq);
    std::string Val = Tok.substr(Eq + 1);
    if (Key == "seed") {
      C.Seed = std::strtoull(Val.c_str(), nullptr, 0);
      continue;
    }
    if (Key == "kill") {
      if (Val != "0" && Val != "1") {
        Err = "kill must be 0 or 1, got '" + Val + "'";
        return false;
      }
      C.KillOnFire = Val == "1";
      continue;
    }
    int Site = -1;
    for (unsigned I = 0; I < NumFaultSites; ++I)
      if (Key == faultSiteKey(FaultSite(I)))
        Site = int(I);
    if (Site < 0) {
      Err = "unknown fault site '" + Key + "'";
      return false;
    }
    uint32_t Arg = 0;
    size_t Colon = Val.find(':');
    if (Colon != std::string::npos) {
      Arg = uint32_t(std::strtoul(Val.c_str() + Colon + 1, nullptr, 0));
      Val.resize(Colon);
    }
    char *End = nullptr;
    double Rate = std::strtod(Val.c_str(), &End);
    if (End == Val.c_str() || *End || !(Rate >= 0.0) || Rate > 1.0) {
      Err = "rate for '" + Key + "' must be in [0,1], got '" + Val + "'";
      return false;
    }
    C.Prob[Site] =
        Rate >= 1.0 ? UINT32_MAX : uint32_t(std::ldexp(Rate, 32));
    C.Arg[Site] = Arg;
  }
  Out = C;
  return true;
}

void satm::faultSpin(uint32_t Iters) {
  for (uint32_t I = 0; I < Iters; ++I)
#if defined(__x86_64__)
    __builtin_ia32_pause();
#else
    std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

namespace {

/// SATM_FAULTS bootstrap, same pattern as SATM_TRACE: evaluated once at
/// startup. A malformed spec is a hard error — silently running a
/// robustness campaign with no faults armed would be worse.
[[maybe_unused]] const bool EnvFaultsArmed = [] {
  const char *E = std::getenv("SATM_FAULTS");
  if (!E || !*E)
    return false;
  FaultConfig C;
  std::string Err;
  if (!FaultInjector::parse(E, C, Err)) {
    std::fprintf(stderr, "satm: bad SATM_FAULTS spec: %s\n", Err.c_str());
    std::exit(2);
  }
  FaultInjector::arm(C);
  return true;
}();

} // namespace
