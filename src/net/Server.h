//===- net/Server.h - epoll TCP front end for SATM-KV -----------*- C++ -*-===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The network front end that promotes kv_service from an in-process
/// driver to a real TCP server (DESIGN.md §13). Two thread roles:
///
///  - one *acceptor* blocks in poll on the listening socket and hands
///    accepted connections round-robin to the I/O threads;
///  - N *I/O threads*, each with its own edge-triggered epoll set, own
///    their sockets outright and run every request to completion: one
///    read feeds the incremental frame decoder (net/Codec.h), the I/O
///    thread executes the decoded requests against kv::Store itself,
///    appends the responses to the connection's outbound buffer, and
///    flushes (partial writes resume on the next EPOLLOUT edge).
///
/// Batching is per read: the single-key GETs of one read fold into
/// multiGet transactions of at most NetBatch keys, PUT/INSERTs into
/// multiPut transactions, so one commit (one publish ticket, one WAL
/// group) amortizes N network requests; the rest run one transaction
/// each. Chunks may mix shards — isolation comes from the STM's
/// transaction records and barriers, not from which thread transacts.
/// No request and no buffer ever crosses threads.
///
/// Overload control: each request carries an OpBudget of RetryBudget
/// attempts and a DeadlineUs deadline counted from decode, so abort
/// storms cannot turn into unbounded latency. Memory and fairness are
/// bounded by TCP push-back instead of queues: a connection holding
/// more than 256 KiB of unflushed responses is not read again until
/// EPOLLOUT flushes it back under that mark, and each ready connection
/// gets one 16 KiB read per turn of its I/O thread's event loop.
///
/// Shutdown (stop()) is ordered so TSan-clean teardown is structural:
/// close the listener, stop admitting (frames decoded after the stop
/// answer Overloaded), then final-flush and close every connection and
/// join the I/O threads. There is no queue to drain. The caller
/// detaches/stops an attached Wal afterwards.
///
//===----------------------------------------------------------------------===//

#ifndef SATM_NET_SERVER_H
#define SATM_NET_SERVER_H

#include "kv/Store.h"
#include "net/Codec.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace satm {
namespace kv {
class Wal;
}
namespace net {

struct ServerConfig {
  std::string Host = "127.0.0.1";
  uint16_t Port = 0;    ///< 0 = kernel-assigned; read back via port().
  unsigned IoThreads = 1;
  /// Ignored: requests run on the I/O thread that read them. Kept only
  /// because satmbench/Wire.cpp still assigns it; it goes with the next
  /// change to the benchmark.
  unsigned Workers = 1;
  uint32_t NetBatch = 16;   ///< Max requests per multiGet/multiPut (1..64).
  uint64_t DeadlineUs = 0;  ///< Per-request deadline from decode (0 = ∞).
  uint32_t RetryBudget = 0; ///< Txn attempts per request (0 = ∞).
  /// Sync-durability ack discipline: when set, a read's responses are
  /// withheld until its last redo LSN is fsynced (bounded by DeadlineUs
  /// when that is set — a wedged disk must not wedge the I/O thread
  /// forever). A degraded WAL turns committed mutation acks into
  /// Status::DurabilityLost instead of blocking.
  kv::Wal *SyncWal = nullptr;
  /// Durability visibility for the STATS opcode (degraded flag, dropped
  /// record count) — set whenever a WAL is attached, sync *or* async, so
  /// async deployments can observe a sealed log too.
  kv::Wal *StatsWal = nullptr;
};

/// Monotone counters and high-water marks, readable live (the STATS
/// opcode) and post-join.
struct ServerStats {
  uint64_t Accepted = 0;       ///< Connections admitted.
  uint64_t DroppedAccepts = 0; ///< net_accept fault drops.
  uint64_t Closed = 0;         ///< Connections torn down.
  uint64_t Requests = 0;       ///< Data frames decoded.
  uint64_t Responses = 0;      ///< Response frames enqueued.
  uint64_t BadFrames = 0;      ///< Framing errors (connection closed).
  uint64_t Batches = 0;        ///< Amortizing txns issued (GET/PUT merges).
  uint64_t BatchedOps = 0;     ///< Single-key requests those txns covered.
  /// Data requests answered Overloaded or DeadlineExceeded: a spent
  /// OpBudget, a sync-ack deadline, or a frame decoded after a stop.
  uint64_t ShedDeadline = 0;
  uint64_t MaxQueueDepth = 0; ///< Largest burst of requests from one read.
  uint64_t OutHighWater = 0;  ///< Most unflushed response bytes on a conn.
  /// Requests per amortizing transaction; > 1 means batching is live.
  double batchAvg() const {
    return Batches ? double(BatchedOps) / double(Batches) : 0.0;
  }
};

class Server {
public:
  Server(kv::Store &S, const ServerConfig &C);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds, listens, spawns the acceptor and I/O threads. On failure
  /// fills \p Err and leaves the server stopped.
  bool start(std::string *Err);

  /// The bound port (after start(); useful with Cfg.Port == 0).
  uint16_t port() const { return BoundPort; }

  /// Flags the server to stop and nudges the acceptor. Safe to call from
  /// a signal handler's forwarding thread or a SHUTDOWN frame handler;
  /// the actual teardown happens in stop().
  void requestStop();

  /// True once requestStop() fired (poll this to know when to stop()).
  bool stopRequested() const {
    return Stopping.load(std::memory_order_acquire);
  }

  /// Graceful teardown: listener closed, connections flushed and closed,
  /// I/O threads joined. Idempotent.
  void stop();

  ServerStats stats() const;

private:
  struct Conn;
  using ConnPtr = std::shared_ptr<Conn>;
  struct IoState;

  using Clock = std::chrono::steady_clock;

  void acceptorLoop();
  void ioLoop(unsigned Idx);

  void registerIncoming(IoState &Io);
  void markReady(IoState &Io, const ConnPtr &C);
  void readOnce(IoState &Io, const ConnPtr &C);
  void flushConn(IoState &Io, const ConnPtr &C);
  void closeConn(IoState &Io, const ConnPtr &C);

  /// Encodes \p F (a request turned into its response) onto \p C's
  /// outbound buffer.
  void respond(Conn &C, const Frame &F);
  /// Answers a STATS or SHUTDOWN frame as soon as it is decoded.
  void answerControl(Conn &C, Frame &F);
  /// Executes the current read's data requests and queues their responses.
  void runBatch(IoState &Io, Conn &C);

  kv::Store &S;
  ServerConfig Cfg;

  int ListenFd = -1;
  /// Atomic: the Shutdown-frame path calls requestStop() from I/O threads
  /// while stop() retires the fd on the owner thread.
  std::atomic<int> AcceptWakeFd{-1};
  uint16_t BoundPort = 0;
  bool Started = false;

  std::atomic<bool> Stopping{false};   ///< Stop admitting new work.
  std::atomic<bool> IoStopping{false}; ///< Final-flush and exit I/O.

  std::thread Acceptor;
  std::vector<std::unique_ptr<IoState>> Io;

  /// Monotone counter cells (relaxed; snapshotted by stats()).
  struct Cells;
  std::unique_ptr<Cells> C;
};

} // namespace net
} // namespace satm

#endif // SATM_NET_SERVER_H
