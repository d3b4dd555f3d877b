//===- bench/ServiceFlags.h - kv_service flag coherence checks -*- C++ -*-===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Flag-combination validation for the kv_service harness, factored out of
/// main() so the incoherent-combo matrix is unit-testable
/// (tests/kv/ServiceFlagsTest.cpp). Every rejected combination is one that
/// would otherwise run and emit a misleading bench entry — the harness
/// fails fast instead.
///
//===----------------------------------------------------------------------===//

#ifndef SATM_BENCH_SERVICEFLAGS_H
#define SATM_BENCH_SERVICEFLAGS_H

#include "kv/Wal.h"

namespace satm {
namespace bench {

/// The subset of kv_service's parsed flags that interact. The same
/// struct validates bench/kv_loadgen (Loadgen = true), which shares the
/// open-loop flag family but drives a remote server instead of in-process
/// workers.
struct ServiceFlags {
  double Qps = 0;        ///< --qps (0 = closed loop)
  bool Overload = false; ///< an --overload policy was given
  kv::DurabilityMode Durability = kv::DurabilityMode::Off;
  bool Smoke = false;      ///< --smoke (tiny CI/TSan time budgets)
  bool Suite = false;      ///< --suite
  bool WalDirSet = false;  ///< --wal-dir was given
  bool Serve = false;      ///< --serve=addr:port (network server mode)
  bool ThreadsSet = false; ///< --threads was given explicitly
  bool IoThreadsSet = false; ///< --io-threads was given
  bool NetBatchSet = false;  ///< --net-batch was given
  bool Loadgen = false;      ///< validating kv_loadgen's flag family
  bool CheckpointSet = false; ///< --checkpoint-interval was given
  bool RetriesSet = false;    ///< --retries was given (loadgen only)
};

/// Returns null when the combination is coherent, else a static
/// diagnostic (no allocation — callable from tests and from main before
/// any setup).
inline const char *validateServiceFlags(const ServiceFlags &F) {
  if (F.Loadgen) {
    // kv_loadgen reuses the open-loop flag family; only a few apply.
    if (!(F.Qps > 0))
      return "kv_loadgen is open-loop by construction: --qps is required "
             "(per-point offered rate, or the sweep's starting rate)";
    if (F.Serve || F.IoThreadsSet || F.NetBatchSet)
      return "--serve/--io-threads/--net-batch are kv_service server flags; "
             "kv_loadgen takes --host/--port instead";
    if (F.CheckpointSet)
      return "--checkpoint-interval configures the server's checkpointer "
             "and does nothing in kv_loadgen (pass it to kv_service)";
    return nullptr;
  }
  if (F.RetriesSet)
    return "--retries is a kv_loadgen client policy (idempotent-op "
           "reconnect budget); kv_service has no remote to retry against";
  if (F.CheckpointSet && F.Durability == kv::DurabilityMode::Off)
    return "--checkpoint-interval compacts the write-ahead log, which "
           "--durability=off never writes: a checkpointer with no WAL "
           "records nothing and truncates nothing (set a durability mode)";
  if (F.Serve && F.Qps > 0)
    return "--serve is driven by remote open-loop clients (kv_loadgen "
           "--qps): an in-process arrival clock would compete with the "
           "wire for the same cores (drop --qps)";
  if (F.Serve && F.ThreadsSet)
    return "--serve replaces the closed-loop worker pool with I/O threads "
           "and shard workers (use --io-threads/--workers, not --threads)";
  if (F.Serve && (F.Smoke || F.Suite))
    return "--serve runs until a SHUTDOWN frame or SIGINT; the "
           "--smoke/--suite time-budget harnesses drive in-process "
           "workers only (use kv_loadgen against a plain --serve run)";
  if (F.IoThreadsSet && !F.Serve)
    return "--io-threads configures the network event loop and does "
           "nothing without --serve (add --serve=addr:port)";
  if (F.NetBatchSet && !F.Serve)
    return "--net-batch bounds the per-shard wire batch and does nothing "
           "without --serve (add --serve=addr:port)";
  if (F.Overload && !(F.Qps > 0) && !F.Serve)
    return "--overload is an open-loop experiment: without --qps there is "
           "no offered rate to exceed capacity (add --qps, or shed at the "
           "socket with --serve)";
  if (F.Durability == kv::DurabilityMode::Sync && (F.Smoke || F.Suite))
    return "--durability=sync waits out an fsync per mutation, which the "
           "--smoke/--suite time budgets do not cover; the full suite runs "
           "its own sized sync entries (use a single custom run)";
  if (F.WalDirSet && F.Durability == kv::DurabilityMode::Off)
    return "--wal-dir without --durability=async|sync would be silently "
           "ignored (set a durability mode)";
  return nullptr;
}

} // namespace bench
} // namespace satm

#endif // SATM_BENCH_SERVICEFLAGS_H
