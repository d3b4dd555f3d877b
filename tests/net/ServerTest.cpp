//===- tests/net/ServerTest.cpp - Loopback server end-to-end tests -------===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//
//
// In-process net::Server against a real kv::Store, exercised over
// loopback with net::Client and raw sockets: per-opcode correctness,
// per-read batching (a pipelined burst in one send() is one read, so
// batchAvg must exceed 1), the retry budget shedding an abort storm,
// TCP push-back on a client that never reads, read fairness against a
// firehose connection, peers resetting mid-flush, framing-damage
// connection close, the net_accept / net_read / net_write fault sites,
// and the start/connect/kill/join loop that certifies stop() is clean
// with traffic in flight.
//
//===----------------------------------------------------------------------===//

#include "net/Server.h"

#include "net/Client.h"
#include "stm/Config.h"
#include "stm/Snapshot.h"
#include "support/FaultInjector.h"

#include "gtest/gtest.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace satm;
using namespace satm::net;

namespace {

using SteadyClock = std::chrono::steady_clock;

Frame getFrame(uint64_t Key) {
  Frame F;
  F.Op = MsgOp::Get;
  F.Count = F.Words = 1;
  F.Body[0] = Key;
  return F;
}

/// An MGET of keys 0..63: a full-size request with a full-size response.
Frame wideMgetFrame() {
  Frame F;
  F.Op = MsgOp::MultiGet;
  F.Count = F.Words = MaxKeysPerFrame;
  for (size_t I = 0; I < MaxKeysPerFrame; ++I)
    F.Body[I] = I;
  return F;
}

/// \p Count copies of \p F back to back (cids 1..Count): a pipelined
/// burst one send() can carry.
std::vector<uint8_t> encodeBurst(Frame F, int Count) {
  std::vector<uint8_t> Buf(size_t(Count) * MaxFrameBytes);
  size_t Len = 0;
  for (int I = 0; I < Count; ++I) {
    F.Cid = uint64_t(I) + 1;
    Len += encodeFrame(Buf.data() + Len, F);
  }
  Buf.resize(Len);
  return Buf;
}

/// Blocking send of all of \p Buf; false once the connection fails.
bool sendAll(int Fd, const std::vector<uint8_t> &Buf) {
  size_t Off = 0;
  while (Off < Buf.size()) {
    ssize_t W = ::send(Fd, Buf.data() + Off, Buf.size() - Off, MSG_NOSIGNAL);
    if (W > 0)
      Off += size_t(W);
    else if (!(W < 0 && errno == EINTR))
      return false;
  }
  return true;
}

/// A plain blocking loopback socket, for peers that must misbehave in
/// ways net::Client never does. Returns -1 on failure.
int dialLoopback(uint16_t Port) {
  int Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (Fd >= 0 &&
      ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    ::close(Fd);
    Fd = -1;
  }
  return Fd;
}

/// Bounds every blocking receive on \p Fd, so a server that never
/// answers fails the test instead of hanging it.
void setRecvTimeout(int Fd, int Seconds) {
  timeval Tv{Seconds, 0};
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));
}

/// Server tests run in the service's production shape: +DEA strong mode,
/// like kv_service --serve. The snapshot version table keys raw Object*
/// into this fixture's heap, so it is cleared before the heap dies.
class ServerTest : public ::testing::Test {
protected:
  ServerTest() {
    stm::Config C;
    C.DeaEnabled = true;
    SC = std::make_unique<stm::ScopedConfig>(C);
  }
  ~ServerTest() override {
    // Tests that arm their own campaign must not leave the process
    // disarmed for the rest of an env-seeded lane (ci.sh's net-fault
    // matrix): restore SATM_FAULTS if one is set, else disarm.
    FaultInjector::disarm();
    if (const char *E = std::getenv("SATM_FAULTS"); E && *E) {
      FaultConfig FC;
      std::string Err;
      if (FaultInjector::parse(E, FC, Err))
        FaultInjector::arm(FC);
    }
    stm::snap::resetTable();
  }

  kv::StoreConfig storeShape() {
    kv::StoreConfig C;
    C.Shards = 4;
    C.CapacityPerShard = 256;
    return C;
  }

  ServerConfig serverShape() {
    ServerConfig C;
    C.IoThreads = 2; // Two threads committing concurrently over the wire.
    C.NetBatch = 16;
    return C;
  }

  std::unique_ptr<stm::ScopedConfig> SC;
  rt::Heap H;
};

TEST_F(ServerTest, EveryOpcodeEndToEnd) {
  kv::Store S(H, storeShape());
  Server Sv(S, serverShape());
  std::string Err;
  ASSERT_TRUE(Sv.start(&Err)) << Err;

  Client Cl;
  ASSERT_TRUE(Cl.connectTo("127.0.0.1", Sv.port(), &Err)) << Err;

  // INSERT then GET round-trips; GET of an absent key misses.
  EXPECT_EQ(Cl.insert(1, 100), Status::Ok);
  uint64_t V = 0;
  EXPECT_EQ(Cl.get(1, V), Status::Ok);
  EXPECT_EQ(V, 100u);
  EXPECT_EQ(Cl.get(999, V), Status::NotFound);

  // Wire PUT is an upsert (it rides the same multiPut batch path as
  // INSERT): it overwrites an existing key and creates an absent one.
  EXPECT_EQ(Cl.put(1, 200), Status::Ok);
  EXPECT_EQ(Cl.get(1, V), Status::Ok);
  EXPECT_EQ(V, 200u);
  EXPECT_EQ(Cl.put(998, 8), Status::Ok);
  EXPECT_EQ(Cl.get(998, V), Status::Ok);
  EXPECT_EQ(V, 8u);

  // CAS takes only from the expected value.
  EXPECT_EQ(Cl.cas(1, 999, 5), Status::Mismatch);
  EXPECT_EQ(Cl.cas(1, 200, 5), Status::Ok);
  EXPECT_EQ(Cl.get(1, V), Status::Ok);
  EXPECT_EQ(V, 5u);

  // MGET returns present values and tombstones for absent keys.
  ASSERT_EQ(Cl.insert(2, 20), Status::Ok);
  ASSERT_EQ(Cl.insert(3, 30), Status::Ok);
  uint64_t Keys[3] = {2, 3, 777};
  uint64_t Out[3] = {};
  EXPECT_EQ(Cl.multiGet(Keys, 3, Out), Status::Ok);
  EXPECT_EQ(Out[0], 20u);
  EXPECT_EQ(Out[1], 30u);
  EXPECT_EQ(Out[2], kv::Store::Tombstone);

  // RMW adds the delta to every named key atomically.
  uint64_t RmwKeys[2] = {2, 3};
  EXPECT_EQ(Cl.rmwAdd(RmwKeys, 2, 7), Status::Ok);
  EXPECT_EQ(Cl.get(2, V), Status::Ok);
  EXPECT_EQ(V, 27u);
  EXPECT_EQ(Cl.get(3, V), Status::Ok);
  EXPECT_EQ(V, 37u);

  // ERASE hides the key; erasing again reports the miss.
  EXPECT_EQ(Cl.eraseKey(2), Status::Ok);
  EXPECT_EQ(Cl.get(2, V), Status::NotFound);
  EXPECT_EQ(Cl.eraseKey(2), Status::NotFound);

  // STATS reflects the traffic so far.
  uint64_t Stats[StatsWordCount] = {};
  ASSERT_TRUE(Cl.statsProbe(Stats));
  EXPECT_GE(Stats[StatAccepted], 1u);
  EXPECT_GT(Stats[StatRequests], 10u);
  EXPECT_EQ(Stats[StatBadFrames], 0u);

  // SHUTDOWN acks and flags the stop; teardown is clean.
  EXPECT_TRUE(Cl.shutdownServer());
  EXPECT_TRUE(Sv.stopRequested());
  Cl.close();
  Sv.stop();
  EXPECT_EQ(Sv.stats().BadFrames, 0u);
  EXPECT_GE(Sv.stats().Closed, 1u);
}

TEST_F(ServerTest, PipelinedBurstBatchesSameShardOps) {
  kv::Store S(H, storeShape());
  ASSERT_TRUE(S.insert(42, 1));
  Server Sv(S, serverShape());
  std::string Err;
  ASSERT_TRUE(Sv.start(&Err)) << Err;

  Client Cl;
  ASSERT_TRUE(Cl.connectTo("127.0.0.1", Sv.port(), &Err)) << Err;

  // 64 pipelined single-key GETs of one key in one send(): one read
  // carries the whole burst, and the I/O thread folds it NetBatch at a
  // time into multiGet transactions.
  const int N = 64;
  ASSERT_TRUE(sendAll(Cl.fd(), encodeBurst(getFrame(42), N)));
  int Got = 0;
  Frame Resp;
  while (Got < N && Cl.recv(Resp)) {
    EXPECT_EQ(Resp.status(), Status::Ok);
    ASSERT_GE(Resp.Words, 1u);
    EXPECT_EQ(Resp.Body[0], 1u);
    ++Got;
  }
  EXPECT_EQ(Got, N);

  Cl.close();
  Sv.stop();
  ServerStats St = Sv.stats();
  EXPECT_EQ(St.Requests, uint64_t(N));
  EXPECT_EQ(St.Responses, uint64_t(N));
  // The acceptance bar for the whole front end: > 1 request per
  // amortizing transaction once requests arrive together.
  EXPECT_GT(St.batchAvg(), 1.5) << "Batches=" << St.Batches
                                << " BatchedOps=" << St.BatchedOps;
  EXPECT_GT(St.MaxQueueDepth, 1u);
}

TEST_F(ServerTest, RetryBudgetShedsAnAbortStorm) {
  kv::Store S(H, storeShape());
  ASSERT_TRUE(S.insert(42, 1));
  ServerConfig C = serverShape();
  C.RetryBudget = 2;
  Server Sv(S, C);
  std::string Err;
  ASSERT_TRUE(Sv.start(&Err)) << Err;

  Client Cl;
  ASSERT_TRUE(Cl.connectTo("127.0.0.1", Sv.port(), &Err)) << Err;
  setRecvTimeout(Cl.fd(), 3);

  // Every commit attempt aborts. Each request gets two attempts and then
  // answers Overloaded instead of retrying forever. (txn_commit, not
  // txn_open: an open-time abort comes before the attempt is counted.)
  FaultConfig FC;
  FC.Seed = 3;
  FC.Prob[unsigned(FaultSite::TxnCommit)] = UINT32_MAX;
  FaultInjector::arm(FC);
  uint64_t V = 0;
  uint64_t Key = 42;
  EXPECT_EQ(Cl.get(42, V), Status::Overloaded);
  EXPECT_EQ(Cl.put(42, 2), Status::Overloaded);
  EXPECT_EQ(Cl.rmwAdd(&Key, 1, 5), Status::Overloaded);
  FaultInjector::disarm(); // Before stop(): a looping request must end.

  // A shed request has no effects.
  EXPECT_EQ(Cl.get(42, V), Status::Ok);
  EXPECT_EQ(V, 1u);

  Cl.close();
  Sv.stop();
  EXPECT_EQ(Sv.stats().ShedDeadline, 3u);
}

TEST_F(ServerTest, ClientThatNeverReadsMeetsTcpPushBack) {
  kv::Store S(H, storeShape());
  Server Sv(S, serverShape());
  std::string Err;
  ASSERT_TRUE(Sv.start(&Err)) << Err;

  int Fd = dialLoopback(Sv.port());
  ASSERT_GE(Fd, 0) << std::strerror(errno);
  ASSERT_EQ(::fcntl(Fd, F_SETFL, ::fcntl(Fd, F_GETFL) | O_NONBLOCK), 0);

  // Pipeline 64-key MGETs and never read a response. A partial send
  // resumes mid-frame on the next call, so every frame stays whole. The
  // server has pushed back once the socket stays unwritable while it
  // decodes nothing more.
  const std::vector<uint8_t> Burst = encodeBurst(wideMgetFrame(), 64);
  size_t Off = 0;
  uint64_t Sent = 0;
  bool PushedBack = false;
  const auto Deadline = SteadyClock::now() + std::chrono::seconds(3);
  while (!PushedBack && SteadyClock::now() < Deadline) {
    ssize_t W =
        ::send(Fd, Burst.data() + Off, Burst.size() - Off, MSG_NOSIGNAL);
    if (W > 0) {
      Sent += uint64_t(W);
      Off = (Off + size_t(W)) % Burst.size();
      continue;
    }
    ASSERT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
        << std::strerror(errno);
    uint64_t Decoded = Sv.stats().Requests;
    pollfd P{Fd, POLLOUT, 0};
    PushedBack = ::poll(&P, 1, 500) == 0 && Sv.stats().Requests == Decoded;
  }
  EXPECT_TRUE(PushedBack) << "the server took " << Sent
                          << " bytes in 3 s without pushing back";

  // The bound shows over STATS, and the paused connection does not wedge
  // its I/O thread: a fresh client is served.
  Client Cl;
  ASSERT_TRUE(Cl.connectTo("127.0.0.1", Sv.port(), &Err)) << Err;
  EXPECT_EQ(Cl.insert(7, 70), Status::Ok);
  uint64_t Stats[StatsWordCount] = {};
  ASSERT_TRUE(Cl.statsProbe(Stats));
  EXPECT_GT(Stats[StatOutHighWater], 0u);
  EXPECT_LE(Stats[StatOutHighWater], 512u * 1024);
  EXPECT_EQ(Stats[StatShedQueueFull], 0u);

  ::close(Fd);
  Cl.close();
  Sv.stop();
  EXPECT_LE(Sv.stats().OutHighWater, 512u * 1024);
}

TEST_F(ServerTest, FirehoseConnectionCannotStarveItsSibling) {
  kv::Store S(H, storeShape());
  ASSERT_TRUE(S.insert(1, 11));
  ServerConfig C = serverShape();
  C.IoThreads = 1; // Both connections share one event loop.
  Server Sv(S, C);
  std::string Err;
  ASSERT_TRUE(Sv.start(&Err)) << Err;

  // The firehose pipelines GETs nonstop and drains its responses, so the
  // server never reaches EAGAIN on it and never pauses it for backlog.
  Client Hose;
  ASSERT_TRUE(Hose.connectTo("127.0.0.1", Sv.port(), &Err)) << Err;
  const std::vector<uint8_t> Burst = encodeBurst(getFrame(1), 512);
  std::atomic<bool> Done{false};
  std::thread Sender([&] {
    while (!Done.load(std::memory_order_relaxed) &&
           sendAll(Hose.fd(), Burst))
      ;
  });
  std::thread Drainer([&] {
    uint8_t Buf[64 * 1024];
    while (::recv(Hose.fd(), Buf, sizeof(Buf), 0) > 0)
      ;
  });

  // Meanwhile a sibling on the same I/O thread must keep getting turns.
  Client Sib;
  ASSERT_TRUE(Sib.connectTo("127.0.0.1", Sv.port(), &Err)) << Err;
  setRecvTimeout(Sib.fd(), 5);
  const auto T0 = SteadyClock::now();
  int Served = 0;
  for (uint64_t V = 0; Served < 200; ++Served)
    if (Sib.get(1, V) != Status::Ok || V != 11)
      break;
  const double Secs =
      std::chrono::duration<double>(SteadyClock::now() - T0).count();

  Done.store(true, std::memory_order_relaxed);
  Hose.shutdownConn(); // Wakes both firehose threads.
  Sender.join();
  Drainer.join();
  EXPECT_EQ(Served, 200) << "sibling starved after " << Served
                         << " round trips";
  EXPECT_LT(Secs, 10.0) << "200 sibling round trips took " << Secs << " s";

  Hose.close();
  Sib.close();
  Sv.stop();
}

TEST_F(ServerTest, PeersResettingMidFlushDoNotHurtTheServer) {
  kv::Store S(H, storeShape());
  ASSERT_TRUE(S.insert(5, 55));
  Server Sv(S, serverShape());
  std::string Err;
  ASSERT_TRUE(Sv.start(&Err)) << Err;

  // Each peer pipelines 200 64-key MGETs (about 106 KB of responses) and
  // then closes abortively: SO_LINGER {1, 0} turns close() into a RST,
  // so the server's reads and flushes hit a reset socket. A send there
  // must fail with an error, never raise SIGPIPE.
  const std::vector<uint8_t> Burst = encodeBurst(wideMgetFrame(), 200);
  for (int Peer = 0; Peer < 50; ++Peer) {
    int Fd = dialLoopback(Sv.port());
    ASSERT_GE(Fd, 0) << "peer " << Peer << ": " << std::strerror(errno);
    EXPECT_TRUE(sendAll(Fd, Burst)) << "peer " << Peer;
    linger L{1, 0};
    ::setsockopt(Fd, SOL_SOCKET, SO_LINGER, &L, sizeof(L));
    ::close(Fd);
  }

  // The server is still up and serving correctly.
  Client Cl;
  ASSERT_TRUE(Cl.connectTo("127.0.0.1", Sv.port(), &Err)) << Err;
  uint64_t V = 0;
  EXPECT_EQ(Cl.get(5, V), Status::Ok);
  EXPECT_EQ(V, 55u);
  EXPECT_EQ(Cl.insert(6, 66), Status::Ok);

  Cl.close();
  Sv.stop();
  EXPECT_EQ(Sv.stats().BadFrames, 0u);
}

TEST_F(ServerTest, FramingDamageClosesTheConnection) {
  kv::Store S(H, storeShape());
  Server Sv(S, serverShape());
  std::string Err;
  ASSERT_TRUE(Sv.start(&Err)) << Err;

  Client Cl;
  ASSERT_TRUE(Cl.connectTo("127.0.0.1", Sv.port(), &Err)) << Err;
  // A full header's worth of garbage: wrong magic is unrecoverable on a
  // byte stream, so the server must close rather than answer.
  uint8_t Junk[FrameHeaderSize];
  for (size_t I = 0; I < sizeof(Junk); ++I)
    Junk[I] = uint8_t(0xA5 + I);
  ASSERT_EQ(::send(Cl.fd(), Junk, sizeof(Junk), 0), ssize_t(sizeof(Junk)));
  Frame Resp;
  EXPECT_FALSE(Cl.recv(Resp)) << "expected EOF, got a response frame";

  // The server is still healthy for well-framed clients.
  Client Cl2;
  ASSERT_TRUE(Cl2.connectTo("127.0.0.1", Sv.port(), &Err)) << Err;
  EXPECT_EQ(Cl2.insert(5, 50), Status::Ok);

  Cl.close();
  Cl2.close();
  Sv.stop();
  ServerStats St = Sv.stats();
  EXPECT_EQ(St.BadFrames, 1u);
  EXPECT_GE(St.Closed, 1u);
}

TEST_F(ServerTest, SurvivesOneByteReadsAndWrites) {
  // net_read / net_write fault sites with arg 1: every server-side socket
  // read and write is capped to a single byte, forcing the partial-frame
  // decode path and the partial-flush EPOLLOUT resume path on every
  // request. Correctness must be unchanged.
  FaultConfig FC;
  FC.Seed = 7;
  FC.Prob[unsigned(FaultSite::NetRead)] = UINT32_MAX;
  FC.Arg[unsigned(FaultSite::NetRead)] = 1;
  FC.Prob[unsigned(FaultSite::NetWrite)] = UINT32_MAX;
  FC.Arg[unsigned(FaultSite::NetWrite)] = 1;
  FaultInjector::arm(FC);

  kv::Store S(H, storeShape());
  Server Sv(S, serverShape());
  std::string Err;
  ASSERT_TRUE(Sv.start(&Err)) << Err;

  Client Cl;
  ASSERT_TRUE(Cl.connectTo("127.0.0.1", Sv.port(), &Err)) << Err;
  for (uint64_t K = 0; K < 30; ++K)
    ASSERT_EQ(Cl.insert(K, K * 3), Status::Ok) << "key " << K;
  for (uint64_t K = 0; K < 30; ++K) {
    uint64_t V = 0;
    ASSERT_EQ(Cl.get(K, V), Status::Ok) << "key " << K;
    EXPECT_EQ(V, K * 3);
  }
  EXPECT_GT(FaultInjector::firedCount(FaultSite::NetRead), 0u);
  EXPECT_GT(FaultInjector::firedCount(FaultSite::NetWrite), 0u);

  Cl.close();
  Sv.stop();
  EXPECT_EQ(Sv.stats().BadFrames, 0u);
  FaultInjector::disarm();
}

TEST_F(ServerTest, AcceptFaultDropsConnectionsWithoutWedgingTheServer) {
  kv::Store S(H, storeShape());
  Server Sv(S, serverShape());
  std::string Err;
  ASSERT_TRUE(Sv.start(&Err)) << Err;

  // net_accept at probability 1: the acceptor drops every new connection.
  FaultConfig FC;
  FC.Seed = 11;
  FC.Prob[unsigned(FaultSite::NetAccept)] = UINT32_MAX;
  FaultInjector::arm(FC);

  Client Dropped;
  ASSERT_TRUE(Dropped.connectTo("127.0.0.1", Sv.port(), &Err)) << Err;
  uint64_t V = 0;
  // The TCP handshake lands in the backlog, but the server hung up: the
  // first round trip fails instead of answering.
  EXPECT_EQ(Dropped.get(1, V), Status::BadRequest);
  Dropped.close();

  // Disarmed, the same server accepts and serves again.
  FaultInjector::disarm();
  Client Cl;
  ASSERT_TRUE(Cl.connectTo("127.0.0.1", Sv.port(), &Err)) << Err;
  EXPECT_EQ(Cl.insert(9, 90), Status::Ok);
  Cl.close();

  Sv.stop();
  ServerStats St = Sv.stats();
  EXPECT_GE(St.DroppedAccepts, 1u);
  EXPECT_EQ(FaultInjector::firedCount(FaultSite::NetAccept),
            St.DroppedAccepts);
}

TEST_F(ServerTest, StartKillJoinLoopWithTrafficInFlight) {
  // The satellite-6 teardown drill: repeatedly start a server, point
  // hammering clients at it, then stop() with their requests still in
  // flight. Every iteration must come back joined, with no stuck thread
  // and no crash; clients are allowed to see Overloaded or a closed
  // connection, never a wrong answer.
  kv::Store S(H, storeShape());
  ASSERT_TRUE(S.insert(1, 11));

  for (int Round = 0; Round < 5; ++Round) {
    ServerConfig C = serverShape();
    Server Sv(S, C);
    std::string Err;
    ASSERT_TRUE(Sv.start(&Err)) << "round " << Round << ": " << Err;

    std::atomic<uint64_t> GoodReads{0};
    std::vector<std::thread> Clients;
    for (int T = 0; T < 3; ++T)
      Clients.emplace_back([&, T] {
        Client Cl;
        std::string CErr;
        if (!Cl.connectTo("127.0.0.1", Sv.port(), &CErr))
          return; // Raced the stop; nothing to verify.
        for (uint64_t I = 0;; ++I) {
          uint64_t V = 0;
          Status St = Cl.get(1, V);
          if (St == Status::Ok) {
            if (V != 11)
              ADD_FAILURE() << "client " << T << " read wrong value " << V;
            GoodReads.fetch_add(1, std::memory_order_relaxed);
          } else if (St != Status::Overloaded) {
            return; // Connection torn down by the stop.
          }
        }
      });

    // Let traffic flow, then kill the server under it.
    while (GoodReads.load(std::memory_order_relaxed) < 50)
      std::this_thread::yield();
    Sv.requestStop();
    Sv.stop();
    for (std::thread &T : Clients)
      T.join();

    ServerStats St = Sv.stats();
    EXPECT_GE(St.Accepted, 1u) << "round " << Round;
    EXPECT_EQ(St.BadFrames, 0u) << "round " << Round;
    EXPECT_GT(GoodReads.load(), 0u) << "round " << Round;
  }
}

} // namespace
