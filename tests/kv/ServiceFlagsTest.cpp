//===- tests/kv/ServiceFlagsTest.cpp - kv_service flag validation ---------===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//
//
// The incoherent-flag matrix for bench/ServiceFlags.h: every combination
// kv_service rejects (exit 2 before any setup) and the nearby coherent
// ones it must keep accepting. Each rejected combo would otherwise run
// and emit a misleading bench entry — overload numbers with no offered
// rate, sync-durability entries cut short by smoke budgets, or a
// --wal-dir that silently did nothing.
//
//===----------------------------------------------------------------------===//

#include "ServiceFlags.h"

#include "gtest/gtest.h"

#include <cstring>

using namespace satm;
using namespace satm::bench;

namespace {

ServiceFlags base() { return ServiceFlags{}; }

void expectOk(const ServiceFlags &F, const char *What) {
  const char *Err = validateServiceFlags(F);
  EXPECT_EQ(Err, nullptr) << What << " wrongly rejected: " << Err;
}

void expectRejected(const ServiceFlags &F, const char *Needle,
                    const char *What) {
  const char *Err = validateServiceFlags(F);
  ASSERT_NE(Err, nullptr) << What << " wrongly accepted";
  EXPECT_NE(std::strstr(Err, Needle), nullptr)
      << What << ": diagnostic \"" << Err << "\" does not mention \""
      << Needle << "\"";
}

TEST(ServiceFlags, CoherentCombinationsPass) {
  expectOk(base(), "defaults");

  ServiceFlags F = base();
  F.Qps = 50000;
  expectOk(F, "open loop");

  F = base();
  F.Qps = 50000;
  F.Overload = true;
  expectOk(F, "overload with an offered rate");

  F = base();
  F.Durability = kv::DurabilityMode::Sync;
  expectOk(F, "sync durability on a custom run");

  F = base();
  F.Durability = kv::DurabilityMode::Async;
  F.Smoke = true;
  expectOk(F, "async durability fits the smoke budget");

  F = base();
  F.Durability = kv::DurabilityMode::Async;
  F.WalDirSet = true;
  expectOk(F, "wal dir with a durability mode");
}

TEST(ServiceFlags, OverloadRequiresAnOfferedRate) {
  ServiceFlags F = base();
  F.Overload = true;
  expectRejected(F, "--qps", "overload without qps");
}

TEST(ServiceFlags, SyncDurabilityRejectsSmokeAndSuiteBudgets) {
  ServiceFlags F = base();
  F.Durability = kv::DurabilityMode::Sync;
  F.Smoke = true;
  expectRejected(F, "--durability=sync", "sync + smoke");

  F = base();
  F.Durability = kv::DurabilityMode::Sync;
  F.Suite = true;
  expectRejected(F, "--durability=sync", "sync + suite");
}

TEST(ServiceFlags, WalDirRequiresADurabilityMode) {
  ServiceFlags F = base();
  F.WalDirSet = true;
  expectRejected(F, "--wal-dir", "wal dir with durability off");
}

TEST(ServiceFlags, ServeCoherentCombinationsPass) {
  ServiceFlags F = base();
  F.Serve = true;
  expectOk(F, "plain serve");

  F = base();
  F.Serve = true;
  F.IoThreadsSet = true;
  F.NetBatchSet = true;
  expectOk(F, "serve with event-loop tuning");

  F = base();
  F.Serve = true;
  F.Durability = kv::DurabilityMode::Sync;
  expectOk(F, "serve + sync durability");
}

TEST(ServiceFlags, ServeRejectsInProcessArrivalClock) {
  ServiceFlags F = base();
  F.Serve = true;
  F.Qps = 50000;
  expectRejected(F, "--qps", "serve + qps");

  // The server has no overload policy: its per-request budget comes from
  // --deadline-us/--retry-budget alone.
  F = base();
  F.Serve = true;
  F.Overload = true;
  expectRejected(F, "--overload", "serve + overload policy");
}

TEST(ServiceFlags, ServeRejectsClosedLoopThreadPool) {
  ServiceFlags F = base();
  F.Serve = true;
  F.ThreadsSet = true;
  expectRejected(F, "--io-threads", "serve + threads");
}

TEST(ServiceFlags, ServeRejectsTimeBudgetHarnesses) {
  ServiceFlags F = base();
  F.Serve = true;
  F.Smoke = true;
  expectRejected(F, "--smoke", "serve + smoke");

  F = base();
  F.Serve = true;
  F.Suite = true;
  expectRejected(F, "--smoke/--suite", "serve + suite");
}

TEST(ServiceFlags, NetTuningFlagsRequireServe) {
  ServiceFlags F = base();
  F.IoThreadsSet = true;
  expectRejected(F, "--serve", "io-threads without serve");

  F = base();
  F.NetBatchSet = true;
  expectRejected(F, "--serve", "net-batch without serve");
}

TEST(ServiceFlags, LoadgenRequiresAnOfferedRate) {
  ServiceFlags F = base();
  F.Loadgen = true;
  expectRejected(F, "--qps", "loadgen without qps");

  F.Qps = 10000;
  expectOk(F, "loadgen with an offered rate");
}

TEST(ServiceFlags, CheckpointRequiresADurabilityMode) {
  ServiceFlags F = base();
  F.CheckpointSet = true;
  expectRejected(F, "--checkpoint-interval",
                 "checkpoint interval with durability off");

  F.Durability = kv::DurabilityMode::Async;
  expectOk(F, "checkpoint interval over an async log");

  F.Durability = kv::DurabilityMode::Sync;
  expectOk(F, "checkpoint interval over a sync log");

  F = base();
  F.Serve = true;
  F.CheckpointSet = true;
  F.Durability = kv::DurabilityMode::Sync;
  expectOk(F, "serve + checkpointed sync durability");
}

TEST(ServiceFlags, RetriesIsLoadgenOnly) {
  ServiceFlags F = base();
  F.RetriesSet = true;
  expectRejected(F, "--retries", "retries on kv_service");

  F = base();
  F.Serve = true;
  F.RetriesSet = true;
  expectRejected(F, "--retries", "retries on kv_service --serve");

  F = base();
  F.Loadgen = true;
  F.Qps = 10000;
  F.RetriesSet = true;
  expectOk(F, "retries on kv_loadgen");
}

TEST(ServiceFlags, LoadgenRejectsCheckpointInterval) {
  ServiceFlags F = base();
  F.Loadgen = true;
  F.Qps = 10000;
  F.CheckpointSet = true;
  expectRejected(F, "--checkpoint-interval", "loadgen + checkpoint interval");
}

TEST(ServiceFlags, LoadgenRejectsServerSideFlags) {
  ServiceFlags F = base();
  F.Loadgen = true;
  F.Qps = 10000;
  F.Serve = true;
  expectRejected(F, "--host/--port", "loadgen + serve");

  F = base();
  F.Loadgen = true;
  F.Qps = 10000;
  F.IoThreadsSet = true;
  expectRejected(F, "--host/--port", "loadgen + io-threads");

  F = base();
  F.Loadgen = true;
  F.Qps = 10000;
  F.NetBatchSet = true;
  expectRejected(F, "--host/--port", "loadgen + net-batch");
}

} // namespace
