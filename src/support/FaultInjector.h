//===- support/FaultInjector.h - Deterministic fault injection -*- C++ -*-===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic fault injection for the STM runtime. Named sites in the
/// transaction engines, the isolation barriers, the quiescence machinery
/// and the heap can be armed to fire spurious aborts, delays or allocation
/// failures with per-site probabilities, either programmatically
/// (FaultInjector::arm) or from the SATM_FAULTS environment variable:
///
///   SATM_FAULTS="seed=42,txn_open=0.01,txn_commit=0.05,barrier_delay=0.01:400"
///
/// Every decision comes from a per-thread xorshift128+ stream keyed by
/// (global seed, thread tag), so a thread's fire/no-fire sequence depends
/// only on its tag and on how many fault points it has passed — a failing
/// seeded run replays bit-identically. Thread tags default to arming order
/// (first fault point wins the next ordinal); tests that need cross-run
/// determinism with concurrent threads pin them with setThreadTag().
///
/// Cost when disarmed: one relaxed load of an inline atomic plus a
/// predicted-not-taken branch per site — the same discipline as the
/// SATM_TRACE traceEvent() sites, cheap enough for the Figure 15-17
/// barrier sequences.
///
//===----------------------------------------------------------------------===//

#ifndef SATM_SUPPORT_FAULTINJECTOR_H
#define SATM_SUPPORT_FAULTINJECTOR_H

#include <atomic>
#include <cstdint>
#include <string>

namespace satm {

/// Where an injected fault fires and what firing means there.
enum class FaultSite : uint8_t {
  TxnOpen = 0,    ///< Eager txn: spurious abort as the body starts.
  TxnCommit,      ///< Eager txn: spurious abort entering tryCommit.
  LazyOpen,       ///< Lazy txn: spurious abort as the body starts.
  LazyCommit,     ///< Lazy txn: spurious commit failure entering tryCommit.
  BarrierAcquire, ///< Nt barriers: busy-delay (arg spins) before acquiring.
  QuiesceStall,   ///< Quiescence scans: busy-delay (arg spins) per wait.
  HeapAlloc,      ///< rt::Heap: allocation throws std::bad_alloc.
  LogAppend,      ///< kv::Wal: busy-delay (arg spins) before a ring append.
  LogFsync,       ///< kv::Wal: busy-delay (arg spins) before a batch fsync.
  RecoveryReplay, ///< kv::Wal recovery: abandon the rest of a shard's log.
  NetAccept,      ///< net::Server: drop the freshly accepted connection.
  NetRead,        ///< net::Server I/O: cap this read() to arg bytes,
                  ///< forcing the short-read / partial-frame paths.
  NetWrite,       ///< net::Server I/O: cap this write() to arg bytes,
                  ///< forcing partial-flush backpressure.
  LogEnospc,      ///< kv::Wal drain: the shard write/fsync fails as if the
                  ///< disk returned ENOSPC — the WAL seals into degraded
                  ///< mode instead of aborting.
  CkptWrite,      ///< kv::Checkpointer: the temp-file write/fsync fails;
                  ///< the checkpoint attempt is abandoned, the previous
                  ///< checkpoint stays authoritative.
  CkptRename,     ///< kv::Checkpointer: the publishing rename fails after
                  ///< the temp file is durable.
  PublishStall,   ///< Quiescence: busy-delay (arg spins) between a publish
                  ///< ticket and its done mark, so later commits complete
                  ///< ahead of it.
};

inline constexpr unsigned NumFaultSites = 17;

/// Display name (matches the enumerator).
const char *faultSiteName(FaultSite S);

/// Stable snake_case key used in SATM_FAULTS specs and reports.
const char *faultSiteKey(FaultSite S);

/// A full injection campaign: one seed, one (probability, argument) pair
/// per site. Probabilities are fixed-point thresholds in units of 2^-32;
/// 0 disables a site, UINT32_MAX fires unconditionally. The argument is
/// site-specific (delay sites: pause-loop iterations, default 256).
struct FaultConfig {
  uint64_t Seed = 1;
  uint32_t Prob[NumFaultSites] = {};
  uint32_t Arg[NumFaultSites] = {};
  /// Crash-test mode ("kill=1" in a SATM_FAULTS spec): any site that fires
  /// terminates the process immediately via _Exit(37) — no atexit handlers,
  /// no flushes — after bumping its fired counter. Turns every armed site
  /// into a kill site for recovery testing; the parent harness recognizes
  /// exit code 37 as an injected crash.
  bool KillOnFire = false;
};

/// The exit code of a KillOnFire termination.
inline constexpr int FaultKillExitCode = 37;

namespace detail {

/// Whether any site is armed. Inline so the disabled fast path of every
/// faultPoint() is a relaxed load + predicted branch with no call.
inline std::atomic<bool> FaultsArmed{false};

/// Cold path: seeds the thread stream if stale, draws one decision.
bool faultFireSlow(FaultSite S);

} // namespace detail

/// Static facade over the armed campaign.
class FaultInjector {
public:
  /// Parses a SATM_FAULTS spec ("seed=N" and "site=rate[:arg]" tokens,
  /// comma-separated; rate is a probability in [0,1]). On failure returns
  /// false and describes the problem in \p Err.
  static bool parse(const char *Spec, FaultConfig &Out, std::string &Err);

  /// Installs \p C, zeroes the fired counters, resets thread-ordinal
  /// assignment and invalidates every thread's PRNG stream (they reseed at
  /// their next fault point). Like setTraceEnabled(), call while no thread
  /// is inside the STM.
  static void arm(const FaultConfig &C);

  /// Disables all sites (fired counters are preserved for inspection).
  static void disarm();

  /// True if any site is currently armed.
  static bool armed() {
    return detail::FaultsArmed.load(std::memory_order_relaxed);
  }

  /// Injections fired at \p S since the last arm().
  static uint64_t firedCount(FaultSite S);

  /// Sum of firedCount over all sites.
  static uint64_t firedTotal();

  /// The armed per-site argument (delay sites: spin iterations).
  static uint32_t arg(FaultSite S);

  /// Pins the calling thread's PRNG stream to (seed, Tag) instead of the
  /// default arming-order ordinal, and reseeds immediately. Lets replay
  /// tests make multi-threaded runs scheduling-independent.
  static void setThreadTag(uint64_t Tag);

  /// Suppresses injection on the calling thread while \p On. Used by the
  /// serial-irrevocable contention-manager mode, whose attempts cannot
  /// roll back and therefore must not be injected (including HeapAlloc
  /// failures from the rt layer, which cannot see transaction state).
  /// Suppressed decisions draw nothing, so they do not advance the
  /// thread's stream.
  static void setThreadSuppressed(bool On);
};

/// Injection check for site \p S: false (one relaxed load + predicted
/// branch) when disarmed, otherwise draws from the calling thread's
/// deterministic stream. The caller applies the site's effect.
inline bool faultPoint(FaultSite S) {
  if (!detail::FaultsArmed.load(std::memory_order_relaxed)) [[likely]]
    return false;
  return detail::faultFireSlow(S);
}

/// Busy-delay loop used by the delay sites (BarrierAcquire, QuiesceStall,
/// PublishStall, ...).
void faultSpin(uint32_t Iters);

} // namespace satm

#endif // SATM_SUPPORT_FAULTINJECTOR_H
