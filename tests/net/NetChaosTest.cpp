//===- tests/net/NetChaosTest.cpp - Kill-under-network-load chaos loop ----===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//
//
// The end-to-end chaos harness for the bounded-recovery plane
// (DESIGN.md §14): a child process runs the full production stack — a
// WAL-recovered store, a background checkpointer compacting the log, and
// the epoll TCP server with sync-durability acks — while SATM_FAULTS
// kill mode is armed over rotated sites (commit, log append/fsync,
// checkpoint write/rename, recovery replay, socket reads). The parent
// drives real protocol traffic over TCP and the child dies mid-load,
// mid-checkpoint, or mid-recovery; the parent then recovers the
// directory in-process and checks the guarantees the whole stack sells:
//
//  - exact conservation: every RMW frame adds +1 to all 64 ledger keys
//    in one transaction, so the recovered ledger is all-equal with
//    1000 + N for some N — a torn group or a half-applied checkpoint
//    image would break it;
//  - no acked sync write is lost: a PUT the server acked Ok was fsynced
//    first, so each sequence key's recovered value sits in
//    [last Ok-acked, last sent] — across kills *during checkpoint
//    publication* and *during a previous recovery*;
//  - recovery stays checkpoint-bounded: the chained log never grows
//    unboundedly because compaction keeps rotating underneath the kills.
//
// A second scenario arms log_enospc without kill mode: the WAL seals
// into degraded mode under live TCP load, mutation acks turn into
// DurabilityLost, reads and STATS keep flowing, and the process still
// shuts down cleanly — a disk fault degrades the service, never aborts
// it (ROADMAP item 6).
//
// Iterations chain: each child recovers what the previous one left.
// The file has its own main (no gtest_main): with --chaos-child it runs
// the serving child instead of the test suite, so the kill-armed process
// is this same binary re-executed.
//
//===----------------------------------------------------------------------===//

#include "kv/Checkpoint.h"
#include "kv/Store.h"
#include "kv/Wal.h"
#include "net/Client.h"
#include "net/Protocol.h"
#include "net/Server.h"

#include "rt/Heap.h"
#include "stm/Config.h"
#include "stm/Snapshot.h"
#include "support/FaultInjector.h"

#include "gtest/gtest.h"

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <random>
#include <string>
#include <thread>

#include <sys/wait.h>
#include <unistd.h>

using namespace satm;
using namespace satm::stm;

namespace {

// The ledger: 64 conservation keys every RMW frame touches at once (the
// wire maximum, so one frame is one 64-key transaction = one LSN group).
constexpr kv::Word LedgerKeys = 64;
constexpr kv::Word LedgerBase = 1000;
// The sequence keys: monotone PUT targets for acked-write tracking.
constexpr kv::Word SeqBase = 64;
constexpr kv::Word SeqKeys = 64;
constexpr uint32_t NumShards = 4;

bool fastTests() {
  const char *Env = std::getenv("SATM_FAST_TESTS");
  return Env && Env[0] == '1';
}

void storeConfig(kv::StoreConfig &KC) {
  KC.Shards = NumShards;
  KC.CapacityPerShard = 96;
}

/// The unlogged baseline both ends re-establish before recovery: ledger
/// keys at their endowment, sequence keys at zero.
bool prepopulate(kv::Store &S) {
  for (kv::Word K = 0; K < LedgerKeys; ++K)
    if (!S.insert(K, LedgerBase))
      return false;
  for (kv::Word K = SeqBase; K < SeqBase + SeqKeys; ++K)
    if (!S.insert(K, 0))
      return false;
  return true;
}

/// All-equal ledger check; returns the common value (0 on violation).
kv::Word ledgerValue(const kv::Store &S) {
  kv::Word First = 0;
  for (kv::Word K = 0; K < LedgerKeys; ++K) {
    kv::Word V = 0;
    if (!S.get(K, V))
      return 0;
    if (K == 0)
      First = V;
    else if (V != First)
      return 0;
  }
  return First;
}

std::string portFile(const std::string &Dir) { return Dir + "/port"; }

/// The kill-armed serving child: recover, checkpoint, serve until a
/// fault kills it or a SHUTDOWN frame arrives. Exit 0 = clean run, 37 =
/// simulated crash, 1 = invariant violation (the actual failure).
int chaosChild(const char *Dir) {
  Config Cfg;
  Cfg.DeaEnabled = true;
  Cfg.SnapshotEnabled = true; // The checkpointer pins snapshot epochs.
  ScopedConfig SC(Cfg);

  rt::Heap H;
  kv::StoreConfig KC;
  storeConfig(KC);
  kv::Store S(H, KC);
  if (!prepopulate(S))
    return 1;

  kv::Wal::Config WC;
  WC.Dir = Dir;
  WC.FlushIntervalUs = 200; // Short group-commit window: more fsyncs hit.
  kv::Wal W(WC);
  kv::RecoveryStats Rec = W.recover(S); // recovery_replay kills land here.
  if (Rec.ApplyFailures != 0 || !Rec.ReclaimIdentityOk) {
    std::fprintf(stderr, "chaos-child: recovery broken\n");
    return 1;
  }
  if (ledgerValue(S) < LedgerBase) {
    std::fprintf(stderr, "chaos-child: ledger broken after recovery\n");
    return 1;
  }

  W.start();
  S.attachWal(&W);

  // Aggressive compaction so kills land inside checkpoint cycles and the
  // chained log stays interval-bounded, not history-bounded.
  kv::Checkpointer::Config CC;
  CC.IntervalOps = 256;
  CC.PollMs = 2;
  kv::Checkpointer CP(S, W, CC);
  CP.start();

  net::ServerConfig NC;
  NC.IoThreads = 2; // Two threads committing concurrently over the wire.
  NC.SyncWal = &W; // Acks wait out the fsync (or turn DurabilityLost).
  NC.StatsWal = &W;
  net::Server Sv(S, NC);
  std::string Err;
  if (!Sv.start(&Err)) {
    std::fprintf(stderr, "chaos-child: start failed: %s\n", Err.c_str());
    return 1;
  }

  // Ephemeral-port handshake: the port appears only once the listener is
  // live, via rename so the parent never reads a torn file.
  std::string PF = portFile(Dir), Tmp = PF + ".tmp";
  if (FILE *F = std::fopen(Tmp.c_str(), "w")) {
    std::fprintf(F, "%u\n", unsigned(Sv.port()));
    std::fclose(F);
    std::rename(Tmp.c_str(), PF.c_str());
  } else {
    return 1;
  }

  while (!Sv.stopRequested())
    std::this_thread::sleep_for(std::chrono::milliseconds(2));

  Sv.stop();
  CP.stop();
  S.attachWal(nullptr);
  W.stop();
  snap::resetTable();
  return 0;
}

/// What the parent has promised itself about the child's state, carried
/// across chained iterations.
struct DriveLedger {
  uint64_t SentRmw = 0;  ///< RMW frames put on the wire.
  uint64_t AckedRmw = 0; ///< RMW frames the server acked Ok (fsynced).
  kv::Word LastSent[SeqKeys] = {};  ///< Highest value ever sent per key.
  kv::Word LastAcked[SeqKeys] = {}; ///< Highest Ok-acked value per key.
};

/// Spawns the serving child with \p Spec armed in SATM_FAULTS (the
/// re-executed binary's bootstrap picks it up at startup).
pid_t spawnChild(const std::string &Dir, const char *Spec) {
  pid_t Pid = ::fork();
  if (Pid != 0)
    return Pid;
  if (Spec)
    ::setenv("SATM_FAULTS", Spec, 1);
  else
    ::unsetenv("SATM_FAULTS");
  ::execl("/proc/self/exe", "net_chaos_test", "--chaos-child", Dir.c_str(),
          (char *)nullptr);
  ::_exit(127); // exec failed
}

/// Waits for the port file or for the child to die first (a kill during
/// recovery never reaches the listener). Returns true with \p Port set
/// when the server came up.
bool awaitPort(const std::string &Dir, pid_t Pid, uint16_t &Port,
               bool &Exited, int &Status) {
  Exited = false;
  for (int Tick = 0; Tick < 2000; ++Tick) {
    if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
      Exited = true;
      return false;
    }
    if (FILE *F = std::fopen(portFile(Dir).c_str(), "r")) {
      unsigned P = 0;
      int N = std::fscanf(F, "%u", &P);
      std::fclose(F);
      if (N == 1 && P != 0) {
        Port = uint16_t(P);
        return true;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

/// Drives a mixed load until the budget runs out or the connection dies
/// (the child crashed under us). Sent counters move before the wire
/// write, acked counters only on an Ok status — the same discipline the
/// sync ack file uses in kv/CrashRecoveryTest.
void driveLoad(net::Client &C, DriveLedger &L, int MaxOps, uint64_t Seed) {
  kv::Word Keys[LedgerKeys];
  for (kv::Word K = 0; K < LedgerKeys; ++K)
    Keys[K] = K;
  std::mt19937_64 Rng(Seed);
  for (int I = 0; I < MaxOps; ++I) {
    if (Rng() & 1) {
      ++L.SentRmw;
      net::Status St = C.rmwAdd(Keys, LedgerKeys, 1);
      if (St == net::Status::Ok)
        ++L.AckedRmw;
      else if (St != net::Status::DurabilityLost)
        break; // Transport death or shed: the child is going down.
    } else {
      size_t Idx = Rng() % SeqKeys;
      kv::Word V = L.LastSent[Idx] + 1;
      L.LastSent[Idx] = V;
      net::Status St = C.put(SeqBase + Idx, V);
      if (St == net::Status::Ok)
        L.LastAcked[Idx] = V;
      else if (St != net::Status::DurabilityLost)
        break;
    }
  }
}

/// Parent-side verification: recover whatever the child left behind and
/// hold it against the drive ledger. (This also repairs the log in
/// place; the next child chains on it.)
void verifyRecovered(const std::string &Dir, const DriveLedger &L, int Iter,
                     const char *Spec, bool &SawCheckpoint) {
  Config Cfg;
  Cfg.DeaEnabled = true;
  ScopedConfig SC(Cfg);
  rt::Heap H;
  kv::StoreConfig KC;
  storeConfig(KC);
  kv::Store S(H, KC);
  ASSERT_TRUE(prepopulate(S));
  kv::Wal::Config WC;
  WC.Dir = Dir;
  kv::Wal W(WC);
  kv::RecoveryStats Rec = W.recover(S);
  EXPECT_EQ(Rec.ApplyFailures, 0u) << "iter " << Iter << " (" << Spec << ")";
  EXPECT_TRUE(Rec.ReclaimIdentityOk) << "iter " << Iter;
  if (Rec.CheckpointLsn != 0) {
    SawCheckpoint = true;
    EXPECT_GE(Rec.CutLsn, Rec.CheckpointLsn) << "iter " << Iter;
  }

  kv::Word LV = ledgerValue(S);
  ASSERT_GE(LV, LedgerBase)
      << "iter " << Iter << " (" << Spec
      << "): recovered ledger is unequal — a torn RMW group was applied";
  uint64_t Applied = LV - LedgerBase;
  EXPECT_GE(Applied, L.AckedRmw)
      << "iter " << Iter << " (" << Spec << "): an acked RMW frame was lost";
  EXPECT_LE(Applied, L.SentRmw)
      << "iter " << Iter << " (" << Spec << "): phantom RMW frames appeared";

  for (size_t Idx = 0; Idx < SeqKeys; ++Idx) {
    kv::Word V = 0;
    ASSERT_TRUE(S.get(SeqBase + Idx, V)) << "iter " << Iter;
    EXPECT_GE(V, L.LastAcked[Idx])
        << "iter " << Iter << " (" << Spec << "): acked PUT lost on key "
        << (SeqBase + Idx);
    EXPECT_LE(V, L.LastSent[Idx])
        << "iter " << Iter << " (" << Spec << "): phantom PUT on key "
        << (SeqBase + Idx);
  }
}

class NetChaosTest : public ::testing::Test {
protected:
  void SetUp() override {
    Dir = "/tmp/satm-netchaos-" + std::to_string(long(::getpid()));
    std::filesystem::remove_all(Dir);
  }
  void TearDown() override { std::filesystem::remove_all(Dir); }
  std::string Dir;
};

TEST_F(NetChaosTest, SeededKillLoopUnderTcpLoad) {
  const int Iters = fastTests() ? 10 : 100;
  const int MaxOps = 250;
  // Rotated kill sites across every layer a crash can land in: commit,
  // both log-I/O sides, checkpoint publication (write and rename),
  // recovery itself, and the server's socket reads.
  const char *Sites[] = {
      "txn_commit=0.002",        "log_append=0.004:64",
      "log_fsync=0.05:64",       "ckpt_write=0.5",
      "ckpt_rename=0.5",         "recovery_replay=0.02:64",
      "net_read=0.005:64",
  };
  constexpr int NumSites = int(sizeof(Sites) / sizeof(Sites[0]));

  DriveLedger L;
  bool SawCheckpoint = false;
  int Kills = 0, Cleans = 0;

  for (int I = 0; I < Iters; ++I) {
    char Spec[96];
    std::snprintf(Spec, sizeof(Spec), "seed=%d,%s,kill=1", 300 + I,
                  Sites[I % NumSites]);
    std::filesystem::remove(portFile(Dir)); // Never read a stale port.
    pid_t Pid = spawnChild(Dir, Spec);
    ASSERT_GE(Pid, 0);

    uint16_t Port = 0;
    bool Exited = false;
    int Status = 0;
    if (awaitPort(Dir, Pid, Port, Exited, Status)) {
      net::Client C;
      if (C.connectTo("127.0.0.1", Port, nullptr)) {
        driveLoad(C, L, MaxOps, 9000 + I);
        // A child that survived the whole budget is told to go down
        // cleanly; if the frame fails, a fault is already killing it.
        C.shutdownServer();
        C.close();
      }
    }
    if (!Exited) {
      ASSERT_EQ(::waitpid(Pid, &Status, 0), Pid);
    }
    ASSERT_TRUE(WIFEXITED(Status))
        << "iter " << I << " (" << Spec << "): child signalled";
    int Code = WEXITSTATUS(Status);
    ASSERT_TRUE(Code == 0 || Code == FaultKillExitCode)
        << "iter " << I << " (" << Spec << "): child exit " << Code;
    Code == 0 ? ++Cleans : ++Kills;

    verifyRecovered(Dir, L, I, Spec, SawCheckpoint);
    if (::testing::Test::HasFatalFailure())
      return;
  }

  // The chained log must actually be compacting under the kills — a loop
  // that recovers from full history every time is not testing the plane.
  EXPECT_TRUE(SawCheckpoint) << "no recovery ever loaded a checkpoint";
  // And the rates are tuned so crashes dominate; a loop that never kills
  // is not testing recovery.
  EXPECT_GT(Kills, Iters / 6)
      << "fault sites barely fired (" << Cleans << " clean runs)";
}

TEST_F(NetChaosTest, SeededEnospcDegradesWithoutAborting) {
  // No kill mode: the armed site seals the WAL instead (an injected
  // ENOSPC on a shard drain), and the server must keep running.
  std::filesystem::remove(portFile(Dir));
  pid_t Pid = spawnChild(Dir, "seed=17,log_enospc=0.2");
  ASSERT_GE(Pid, 0);

  uint16_t Port = 0;
  bool Exited = false;
  int Status = 0;
  ASSERT_TRUE(awaitPort(Dir, Pid, Port, Exited, Status))
      << "server never came up (exited=" << Exited << ")";
  net::Client C;
  ASSERT_TRUE(C.connectTo("127.0.0.1", Port, nullptr));

  // Drive sync-acked PUTs until the seal bites. Every op forces a drain
  // pass, so at rate 0.2 the seal is effectively certain inside the cap.
  kv::Word LastSent = 0, LastDurable = 0;
  bool SawLost = false;
  for (int I = 0; I < 600 && !SawLost; ++I) {
    kv::Word V = ++LastSent;
    net::Status St = C.put(SeqBase, V);
    if (St == net::Status::Ok)
      LastDurable = V;
    else if (St == net::Status::DurabilityLost)
      SawLost = true;
    else
      FAIL() << "put " << I << ": unexpected status " << int(St);
  }
  ASSERT_TRUE(SawLost) << "the log never sealed";

  // Degraded, not down: reads serve the in-memory commit (the lost ack
  // was about durability, not visibility), STATS reports the seal, and
  // further mutations fail fast with DurabilityLost instead of hanging.
  kv::Word V = 0;
  EXPECT_EQ(C.get(SeqBase, V), net::Status::Ok);
  EXPECT_EQ(V, LastSent);
  uint64_t Stats[net::StatsWordCount] = {};
  ASSERT_TRUE(C.statsProbe(Stats));
  EXPECT_EQ(Stats[net::StatWalDegraded], 1u);
  EXPECT_EQ(C.put(SeqBase, LastSent + 1), net::Status::DurabilityLost);
  LastSent += 1;

  // And the fault is survivable: graceful shutdown, clean exit.
  EXPECT_TRUE(C.shutdownServer());
  C.close();
  ASSERT_EQ(::waitpid(Pid, &Status, 0), Pid);
  ASSERT_TRUE(WIFEXITED(Status)) << "child signalled";
  EXPECT_EQ(WEXITSTATUS(Status), 0) << "disk fault aborted the process";

  // Everything durably acked before the seal survives recovery.
  Config Cfg;
  Cfg.DeaEnabled = true;
  ScopedConfig SC(Cfg);
  rt::Heap H;
  kv::StoreConfig KC;
  storeConfig(KC);
  kv::Store S(H, KC);
  ASSERT_TRUE(prepopulate(S));
  kv::Wal::Config WC;
  WC.Dir = Dir;
  kv::Wal W(WC);
  kv::RecoveryStats Rec = W.recover(S);
  EXPECT_EQ(Rec.ApplyFailures, 0u);
  kv::Word RV = 0;
  ASSERT_TRUE(S.get(SeqBase, RV));
  EXPECT_GE(RV, LastDurable) << "a durably-acked PUT was lost to the seal";
  EXPECT_LE(RV, LastSent);
}

} // namespace

int main(int argc, char **argv) {
  if (argc > 2 && std::strcmp(argv[1], "--chaos-child") == 0)
    return chaosChild(argv[2]);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
