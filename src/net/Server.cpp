//===- net/Server.cpp - epoll TCP front end for SATM-KV ------------------===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//

#include "net/Server.h"

#include "kv/Wal.h"
#include "support/FaultInjector.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstring>
#include <mutex>

using namespace satm;
using namespace satm::net;

//===----------------------------------------------------------------------===//
// Internal state
//===----------------------------------------------------------------------===//

namespace {

/// Bytes one read() may take from a connection per turn of the event loop.
constexpr size_t ReadBytes = 16 * 1024;

/// A connection holding more unflushed response bytes than this is not
/// read again until EPOLLOUT flushes it back under the mark, so a client
/// that stops reading meets TCP push-back instead of growing Out.
constexpr size_t OutHighWater = 256 * 1024;

} // namespace

/// One client connection, touched only by its own I/O thread.
struct Server::Conn {
  int Fd = -1;
  FrameDecoder Dec{/*Strict=*/true};
  std::vector<uint8_t> Out; ///< Encoded responses awaiting flush.
  size_t OutOff = 0;        ///< Flushed prefix of Out.
  bool Ready = false;       ///< On the I/O thread's ready list.
  bool ReadPaused = false;  ///< Out backlog past OutHighWater.
  bool ReadEof = false;     ///< Peer half-closed: close once Out is flushed.
};

/// Per-I/O-thread state. Conns holds the owning references; epoll events
/// carry raw Conn pointers that are re-validated against Conns before use
/// (a close earlier in the same event batch may have dropped them).
struct Server::IoState {
  int EpollFd = -1;
  int WakeFd = -1;
  std::thread Thr;
  std::mutex Mutex;               ///< Guards Incoming.
  std::vector<ConnPtr> Incoming;  ///< Accepted, not yet registered.
  std::vector<ConnPtr> Conns;     ///< I/O-thread-private after register.
  /// Connections with unread bytes, served one read each per turn.
  std::vector<ConnPtr> Ready;
  /// The data requests of the current read, each turned into its
  /// response in place by runBatch().
  std::vector<Frame> Batch;
  Clock::time_point Decoded; ///< When the current read was decoded.
  uint8_t ReadBuf[ReadBytes];
};

struct Server::Cells {
  std::atomic<uint64_t> Accepted{0};
  std::atomic<uint64_t> DroppedAccepts{0};
  std::atomic<uint64_t> Closed{0};
  std::atomic<uint64_t> Requests{0};
  std::atomic<uint64_t> Responses{0};
  std::atomic<uint64_t> BadFrames{0};
  std::atomic<uint64_t> Batches{0};
  std::atomic<uint64_t> BatchedOps{0};
  std::atomic<uint64_t> ShedDeadline{0};
  std::atomic<uint64_t> MaxQueueDepth{0};
  std::atomic<uint64_t> OutHighWater{0};

  static void raise(std::atomic<uint64_t> &Mark, uint64_t V) {
    uint64_t Cur = Mark.load(std::memory_order_relaxed);
    while (V > Cur &&
           !Mark.compare_exchange_weak(Cur, V, std::memory_order_relaxed))
      ;
  }
};

namespace {

void drainEventFd(int Fd) {
  uint64_t V;
  while (::read(Fd, &V, sizeof(V)) == sizeof(V))
    ;
}

void signalEventFd(int Fd) {
  uint64_t One = 1;
  ssize_t R = ::write(Fd, &One, sizeof(One));
  (void)R; // EAGAIN means the counter is already nonzero — wake pending.
}

Status toStatus(kv::OpStatus St) {
  // Ordinals 0..5 mirror exactly; DurabilityLost's kv ordinal (6) is
  // BadRequest on the wire and must map explicitly.
  if (St == kv::OpStatus::DurabilityLost)
    return Status::DurabilityLost;
  return Status(uint8_t(St));
}

/// Turns request \p F into a bodyless response carrying \p St.
void answer(Frame &F, Status St) {
  F.Aux = uint8_t(St);
  F.Count = 0;
  F.Words = 0;
}

} // namespace

//===----------------------------------------------------------------------===//
// Lifecycle
//===----------------------------------------------------------------------===//

Server::Server(kv::Store &S, const ServerConfig &Cfg) : S(S), Cfg(Cfg) {
  this->Cfg.IoThreads = std::clamp(this->Cfg.IoThreads, 1u, 64u);
  this->Cfg.NetBatch =
      std::clamp(this->Cfg.NetBatch, 1u, uint32_t(MaxKeysPerFrame));
}

Server::~Server() { stop(); }

bool Server::start(std::string *Err) {
  auto Fail = [&](const char *What) {
    if (Err)
      *Err = std::string(What) + ": " + std::strerror(errno);
    if (ListenFd >= 0)
      ::close(ListenFd);
    if (AcceptWakeFd >= 0)
      ::close(AcceptWakeFd);
    ListenFd = AcceptWakeFd = -1;
    for (auto &I : Io) {
      if (I->EpollFd >= 0)
        ::close(I->EpollFd);
      if (I->WakeFd >= 0)
        ::close(I->WakeFd);
    }
    Io.clear();
    C.reset();
    return false;
  };

  assert(!Started && "start() is not re-entrant");
  C = std::make_unique<Cells>();
  Stopping.store(false, std::memory_order_release);
  IoStopping.store(false, std::memory_order_release);

  ListenFd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (ListenFd < 0)
    return Fail("socket");
  int One = 1;
  ::setsockopt(ListenFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));

  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Cfg.Port);
  if (::inet_pton(AF_INET, Cfg.Host.c_str(), &Addr.sin_addr) != 1) {
    errno = EINVAL;
    return Fail("inet_pton");
  }
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0)
    return Fail("bind");
  if (::listen(ListenFd, 128) < 0)
    return Fail("listen");

  sockaddr_in Bound{};
  socklen_t BoundLen = sizeof(Bound);
  if (::getsockname(ListenFd, reinterpret_cast<sockaddr *>(&Bound),
                    &BoundLen) < 0)
    return Fail("getsockname");
  BoundPort = ntohs(Bound.sin_port);

  AcceptWakeFd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (AcceptWakeFd < 0)
    return Fail("eventfd");

  for (unsigned I = 0; I < Cfg.IoThreads; ++I) {
    auto St = std::make_unique<IoState>();
    St->EpollFd = ::epoll_create1(EPOLL_CLOEXEC);
    St->WakeFd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (St->EpollFd < 0 || St->WakeFd < 0) {
      Io.push_back(std::move(St));
      return Fail("epoll_create1/eventfd");
    }
    epoll_event Ev{};
    Ev.events = EPOLLIN; // Level-triggered: re-fires until drained.
    Ev.data.ptr = nullptr;
    if (::epoll_ctl(St->EpollFd, EPOLL_CTL_ADD, St->WakeFd, &Ev) < 0) {
      Io.push_back(std::move(St));
      return Fail("epoll_ctl(wake)");
    }
    Io.push_back(std::move(St));
  }

  Started = true;
  for (unsigned I = 0; I < Cfg.IoThreads; ++I)
    Io[I]->Thr = std::thread([this, I] { ioLoop(I); });
  Acceptor = std::thread([this] { acceptorLoop(); });
  return true;
}

void Server::requestStop() {
  Stopping.store(true, std::memory_order_release);
  // Load once: stop() retires the fd to -1 concurrently (it stays open
  // until the I/O threads — the in-process callers of this — are joined).
  int Wake = AcceptWakeFd.load(std::memory_order_acquire);
  if (Wake >= 0)
    signalEventFd(Wake);
}

void Server::stop() {
  if (!Started)
    return;

  // 1. Stop admitting: flag, close the listener. Frames decoded from this
  //    point on answer Overloaded instead of running.
  requestStop();
  if (Acceptor.joinable())
    Acceptor.join();
  if (ListenFd >= 0)
    ::close(ListenFd);
  ListenFd = -1;
  // AcceptWakeFd stays open: I/O threads still running below may hit a
  // Shutdown frame and requestStop() signals through it. Retired after
  // they are joined.

  // 2. Tear down I/O: final-flush each connection's pending bytes (with a
  //    bounded politeness window), close every socket, exit, join. Every
  //    request was answered by the thread that read it, so nothing waits
  //    in between.
  IoStopping.store(true, std::memory_order_release);
  for (auto &I : Io)
    signalEventFd(I->WakeFd);
  for (auto &I : Io)
    if (I->Thr.joinable())
      I->Thr.join();
  for (auto &I : Io) {
    if (I->EpollFd >= 0)
      ::close(I->EpollFd);
    if (I->WakeFd >= 0)
      ::close(I->WakeFd);
    I->EpollFd = I->WakeFd = -1;
  }
  if (int Wake = AcceptWakeFd.exchange(-1); Wake >= 0)
    ::close(Wake);
  Started = false;
}

ServerStats Server::stats() const {
  ServerStats R;
  if (!C)
    return R;
  R.Accepted = C->Accepted.load(std::memory_order_relaxed);
  R.DroppedAccepts = C->DroppedAccepts.load(std::memory_order_relaxed);
  R.Closed = C->Closed.load(std::memory_order_relaxed);
  R.Requests = C->Requests.load(std::memory_order_relaxed);
  R.Responses = C->Responses.load(std::memory_order_relaxed);
  R.BadFrames = C->BadFrames.load(std::memory_order_relaxed);
  R.Batches = C->Batches.load(std::memory_order_relaxed);
  R.BatchedOps = C->BatchedOps.load(std::memory_order_relaxed);
  R.ShedDeadline = C->ShedDeadline.load(std::memory_order_relaxed);
  R.MaxQueueDepth = C->MaxQueueDepth.load(std::memory_order_relaxed);
  R.OutHighWater = C->OutHighWater.load(std::memory_order_relaxed);
  return R;
}

//===----------------------------------------------------------------------===//
// Acceptor
//===----------------------------------------------------------------------===//

void Server::acceptorLoop() {
  pollfd P[2] = {{ListenFd, POLLIN, 0}, {AcceptWakeFd, POLLIN, 0}};
  while (!Stopping.load(std::memory_order_acquire)) {
    int N = ::poll(P, 2, -1);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    if (P[1].revents)
      drainEventFd(AcceptWakeFd);
    if (Stopping.load(std::memory_order_acquire))
      break;
    if (!(P[0].revents & POLLIN))
      continue;
    for (;;) {
      int Fd = ::accept4(ListenFd, nullptr, nullptr,
                         SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (Fd < 0) {
        if (errno == EINTR)
          continue;
        break; // EAGAIN or a transient accept error: back to poll.
      }
      if (faultPoint(FaultSite::NetAccept)) {
        ::close(Fd);
        C->DroppedAccepts.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      int One = 1;
      ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
      uint64_t Seq = C->Accepted.fetch_add(1, std::memory_order_relaxed);
      unsigned Idx = unsigned(Seq % Cfg.IoThreads);
      auto Cn = std::make_shared<Conn>();
      Cn->Fd = Fd;
      {
        std::lock_guard<std::mutex> L(Io[Idx]->Mutex);
        Io[Idx]->Incoming.push_back(std::move(Cn));
      }
      signalEventFd(Io[Idx]->WakeFd);
    }
  }
}

//===----------------------------------------------------------------------===//
// I/O threads
//===----------------------------------------------------------------------===//

void Server::registerIncoming(IoState &IoSt) {
  std::vector<ConnPtr> Fresh;
  {
    std::lock_guard<std::mutex> L(IoSt.Mutex);
    Fresh.swap(IoSt.Incoming);
  }
  for (ConnPtr &Cn : Fresh) {
    epoll_event Ev{};
    Ev.events = EPOLLIN | EPOLLOUT | EPOLLET;
    Ev.data.ptr = Cn.get();
    if (::epoll_ctl(IoSt.EpollFd, EPOLL_CTL_ADD, Cn->Fd, &Ev) < 0) {
      ::close(Cn->Fd);
      C->Closed.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    IoSt.Conns.push_back(Cn);
    // Bytes may have arrived before the ADD; with ET the registration
    // reports current readiness, but read defensively anyway.
    markReady(IoSt, Cn);
  }
}

void Server::markReady(IoState &IoSt, const ConnPtr &Cn) {
  if (Cn->Ready || Cn->ReadEof)
    return;
  Cn->Ready = true;
  IoSt.Ready.push_back(Cn);
}

void Server::closeConn(IoState &IoSt, const ConnPtr &Cn) {
  if (Cn->Fd < 0)
    return;
  ::epoll_ctl(IoSt.EpollFd, EPOLL_CTL_DEL, Cn->Fd, nullptr);
  ::close(Cn->Fd);
  Cn->Fd = -1; // A stale entry on the ready list now skips it.
  auto It = std::find(IoSt.Conns.begin(), IoSt.Conns.end(), Cn);
  if (It != IoSt.Conns.end())
    IoSt.Conns.erase(It);
  C->Closed.fetch_add(1, std::memory_order_relaxed);
}

void Server::readOnce(IoState &IoSt, const ConnPtr &Cn) {
  size_t Cap = ReadBytes;
  if (faultPoint(FaultSite::NetRead)) {
    uint32_t Arg = FaultInjector::arg(FaultSite::NetRead);
    Cap = std::min<size_t>(Cap, std::max<uint32_t>(Arg, 1));
  }
  ssize_t N;
  do
    N = ::read(Cn->Fd, IoSt.ReadBuf, Cap);
  while (N < 0 && errno == EINTR);
  if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
    return; // Drained: the next EPOLLIN edge makes it ready again.
  if (N < 0) { // A socket error.
    closeConn(IoSt, Cn);
    return;
  }
  if (N == 0) { // Orderly (half-)close: answer what was read, then close.
    Cn->ReadEof = true;
    flushConn(IoSt, Cn);
    return;
  }

  if (Cfg.DeadlineUs)
    IoSt.Decoded = Clock::now();
  Cn->Dec.feed(IoSt.ReadBuf, size_t(N));
  Frame F;
  while (Cn->Dec.next(F)) {
    if (F.Op == MsgOp::Stats || F.Op == MsgOp::Shutdown) {
      answerControl(*Cn, F);
      continue;
    }
    C->Requests.fetch_add(1, std::memory_order_relaxed);
    if (Stopping.load(std::memory_order_acquire)) {
      answer(F, Status::Overloaded); // Stopping: admit no new work.
      respond(*Cn, F);
      continue;
    }
    IoSt.Batch.push_back(F);
  }
  if (Cn->Dec.failed()) {
    C->BadFrames.fetch_add(1, std::memory_order_relaxed);
    IoSt.Batch.clear();
    closeConn(IoSt, Cn);
    return;
  }
  runBatch(IoSt, *Cn);

  flushConn(IoSt, Cn);
  if (Cn->Fd < 0)
    return;
  size_t Backlog = Cn->Out.size() - Cn->OutOff;
  Cells::raise(C->OutHighWater, Backlog);
  if (Backlog > OutHighWater)
    Cn->ReadPaused = true; // flushConn() lifts it once the client reads.
  else
    markReady(IoSt, Cn); // Not at EAGAIN yet: back of the line.
}

void Server::flushConn(IoState &IoSt, const ConnPtr &Cn) {
  if (Cn->Fd < 0)
    return;
  while (Cn->OutOff < Cn->Out.size()) {
    size_t N = Cn->Out.size() - Cn->OutOff;
    if (faultPoint(FaultSite::NetWrite)) {
      uint32_t Arg = FaultInjector::arg(FaultSite::NetWrite);
      N = std::min<size_t>(N, std::max<uint32_t>(Arg, 1));
    }
    // MSG_NOSIGNAL: a peer that reset mid-flush is an EPIPE here, never a
    // process-killing SIGPIPE.
    ssize_t W =
        ::send(Cn->Fd, Cn->Out.data() + Cn->OutOff, N, MSG_NOSIGNAL);
    if (W > 0) {
      Cn->OutOff += size_t(W);
      continue;
    }
    if (W < 0 && errno == EINTR)
      continue;
    if (W < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      break; // Resume on the next EPOLLOUT edge.
    closeConn(IoSt, Cn);
    return;
  }
  if (Cn->OutOff == Cn->Out.size()) {
    if (Cn->ReadEof) {
      closeConn(IoSt, Cn); // Every response read so far is out.
      return;
    }
    Cn->Out.clear();
    Cn->OutOff = 0;
  } else if (Cn->OutOff > 64 * 1024) {
    Cn->Out.erase(Cn->Out.begin(),
                  Cn->Out.begin() + std::ptrdiff_t(Cn->OutOff));
    Cn->OutOff = 0;
  }
  if (Cn->ReadPaused && Cn->Out.size() - Cn->OutOff <= OutHighWater) {
    Cn->ReadPaused = false;
    markReady(IoSt, Cn);
  }
}

void Server::ioLoop(unsigned Idx) {
  IoState &IoSt = *Io[Idx];
  epoll_event Evs[64];
  std::vector<ConnPtr> Turn;
  for (;;) {
    // A non-empty ready list still holds unread bytes: poll, don't block.
    int N = ::epoll_wait(IoSt.EpollFd, Evs, 64, IoSt.Ready.empty() ? -1 : 0);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    for (int E = 0; E < N; ++E) {
      if (Evs[E].data.ptr == nullptr) {
        drainEventFd(IoSt.WakeFd);
        registerIncoming(IoSt);
        continue;
      }
      // Re-validate: a close earlier in this batch may have dropped the
      // connection, leaving a dangling raw pointer in the event.
      ConnPtr Cn;
      for (const ConnPtr &P : IoSt.Conns)
        if (P.get() == Evs[E].data.ptr) {
          Cn = P;
          break;
        }
      if (!Cn)
        continue;
      if (Evs[E].events & (EPOLLHUP | EPOLLERR)) {
        closeConn(IoSt, Cn);
        continue;
      }
      if (Evs[E].events & EPOLLOUT)
        flushConn(IoSt, Cn); // May lift a read pause.
      if ((Evs[E].events & EPOLLIN) && Cn->Fd >= 0 && !Cn->ReadPaused)
        markReady(IoSt, Cn);
    }

    // Fairness: one read per ready connection per turn. A connection
    // that has not reached EAGAIN re-queues itself behind the others, so
    // a firehose client cannot starve its siblings.
    Turn.swap(IoSt.Ready);
    for (const ConnPtr &Cn : Turn) {
      Cn->Ready = false;
      if (Cn->Fd >= 0 && !Cn->ReadPaused)
        readOnce(IoSt, Cn);
    }
    Turn.clear();

    if (IoStopping.load(std::memory_order_acquire)) {
      registerIncoming(IoSt); // Strays accepted right before the stop.
      // Final flush with a bounded politeness window, then close all.
      for (int Round = 0; Round < 100; ++Round) {
        bool AnyPending = false;
        std::vector<ConnPtr> Snapshot = IoSt.Conns;
        for (const ConnPtr &Cn : Snapshot) {
          flushConn(IoSt, Cn);
          AnyPending |= Cn->Fd >= 0 && Cn->OutOff < Cn->Out.size();
        }
        if (!AnyPending)
          break;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      std::vector<ConnPtr> Snapshot = IoSt.Conns;
      for (const ConnPtr &Cn : Snapshot)
        closeConn(IoSt, Cn);
      break;
    }
  }
}

//===----------------------------------------------------------------------===//
// Request execution (on the I/O thread that read the requests)
//===----------------------------------------------------------------------===//

void Server::respond(Conn &Cn, const Frame &F) {
  uint8_t Enc[MaxFrameBytes];
  size_t Len = encodeFrame(Enc, F);
  Cn.Out.insert(Cn.Out.end(), Enc, Enc + Len);
  C->Responses.fetch_add(1, std::memory_order_relaxed);
  if (F.status() == Status::Overloaded ||
      F.status() == Status::DeadlineExceeded)
    C->ShedDeadline.fetch_add(1, std::memory_order_relaxed);
}

void Server::answerControl(Conn &Cn, Frame &F) {
  if (F.Op == MsgOp::Stats) {
    ServerStats St = stats();
    kv::Word WalDegraded = 0, WalDropped = 0;
    if (Cfg.StatsWal) {
      kv::WalStats Ws = Cfg.StatsWal->stats();
      WalDegraded = Ws.Degraded ? 1 : 0;
      WalDropped = Ws.DroppedRecords;
    }
    // Word order is wire protocol (net/Protocol.h StatsField).
    kv::Word Body[StatsWordCount] = {
        St.Accepted,  St.DroppedAccepts, St.Closed,     St.Requests,
        St.Responses, St.BadFrames,      St.Batches,    St.BatchedOps,
        /*StatShedQueueFull=*/0, St.ShedDeadline, St.MaxQueueDepth,
        WalDegraded,  WalDropped,        St.OutHighWater};
    answer(F, Status::Ok);
    F.Count = F.Words = StatsWordCount;
    std::copy(Body, Body + StatsWordCount, F.Body);
  } else {
    // Shutdown: stop first, then ack — a client that has seen the Ok
    // frame may rely on stopRequested() already reading true.
    requestStop();
    answer(F, Status::Ok);
  }
  respond(Cn, F);
}

void Server::runBatch(IoState &IoSt, Conn &Cn) {
  std::vector<Frame> &Batch = IoSt.Batch;
  if (Batch.empty())
    return;
  Cells::raise(C->MaxQueueDepth, Batch.size());

  kv::OpBudget B;
  B.MaxAttempts = Cfg.RetryBudget;
  if (Cfg.DeadlineUs)
    B.Deadline = IoSt.Decoded + std::chrono::microseconds(Cfg.DeadlineUs);

  // Runs \p RunChunk over the batch's frames whose op \p IsKind accepts,
  // NetBatch of them at a time.
  auto ForChunks = [&](auto IsKind, auto RunChunk) {
    Frame *Chunk[MaxKeysPerFrame];
    size_t N = 0;
    for (Frame &F : Batch) {
      if (!IsKind(F.Op))
        continue;
      Chunk[N++] = &F;
      if (N == Cfg.NetBatch) {
        RunChunk(Chunk, N);
        N = 0;
      }
    }
    if (N)
      RunChunk(Chunk, N);
  };
  kv::Word Keys[MaxKeysPerFrame], Vals[MaxKeysPerFrame];

  // Single-key GETs: one multiGet transaction per chunk. This is the
  // amortization the front end exists for — one serialization point, one
  // read-set validation, N network requests, from any mix of shards.
  ForChunks([](MsgOp Op) { return Op == MsgOp::Get; },
            [&](Frame **Chunk, size_t N) {
              for (size_t I = 0; I < N; ++I)
                Keys[I] = Chunk[I]->Body[0];
              kv::OpStatus St = S.multiGet(Keys, N, Vals, B);
              C->Batches.fetch_add(1, std::memory_order_relaxed);
              C->BatchedOps.fetch_add(N, std::memory_order_relaxed);
              for (size_t I = 0; I < N; ++I) {
                Frame &F = *Chunk[I];
                if (St != kv::OpStatus::Ok) {
                  answer(F, toStatus(St));
                } else if (Vals[I] == kv::Store::Tombstone) {
                  answer(F, Status::NotFound);
                } else {
                  answer(F, Status::Ok);
                  F.Count = F.Words = 1;
                  F.Body[0] = Vals[I];
                }
              }
            });

  // PUT/INSERTs: one multiPut transaction per chunk. A per-key Full
  // falls back to the single-key insert path, which harvests the retire
  // pools (multiPut deliberately does not).
  ForChunks(
      [](MsgOp Op) { return Op == MsgOp::Put || Op == MsgOp::Insert; },
      [&](Frame **Chunk, size_t N) {
        for (size_t I = 0; I < N; ++I) {
          Keys[I] = Chunk[I]->Body[0];
          Vals[I] = Chunk[I]->Body[1];
        }
        kv::OpStatus PerKey[MaxKeysPerFrame];
        kv::OpStatus St = S.multiPut(Keys, Vals, N, PerKey, B);
        C->Batches.fetch_add(1, std::memory_order_relaxed);
        C->BatchedOps.fetch_add(N, std::memory_order_relaxed);
        for (size_t I = 0; I < N; ++I) {
          kv::OpStatus KSt = St == kv::OpStatus::Ok ? PerKey[I] : St;
          if (KSt == kv::OpStatus::Full)
            KSt = S.insert(Keys[I], Vals[I], B); // Recycling retry.
          answer(*Chunk[I], toStatus(KSt));
        }
      });

  // The rest run one transaction each, in arrival order.
  for (Frame &F : Batch) {
    switch (F.Op) {
    case MsgOp::Erase:
      answer(F, toStatus(S.erase(F.Body[0], B)));
      break;
    case MsgOp::Cas:
      answer(F, toStatus(S.cas(F.Body[0], F.Body[1], F.Body[2], B)));
      break;
    case MsgOp::MultiGet: {
      const uint16_t Count = F.Count;
      kv::OpStatus St = S.multiGet(F.Body, Count, Vals, B);
      answer(F, toStatus(St));
      if (St == kv::OpStatus::Ok) {
        F.Count = F.Words = Count;
        std::copy(Vals, Vals + Count, F.Body);
      }
      break;
    }
    case MsgOp::Rmw:
      answer(F, toStatus(S.rmwAdd(F.Body, F.Count, F.Body[F.Count], B)));
      break;
    default:
      break; // GET/PUT/INSERT: answered by their chunks above.
    }
  }

  // Durability gate: no ack leaves before the read's redo records are
  // fsynced. lastAppendedLsn() is this thread's, taken after the last
  // commit above, so it covers every mutation in the batch. The wait is
  // bounded by the request deadline when one is configured (a wedged
  // disk must not block the I/O thread forever), and a degraded WAL
  // reports immediately. On either non-Ok verdict the committed
  // mutations are re-acked honestly: their in-memory effect stands, but
  // the sync durability promise does not — DeadlineExceeded (unknown
  // yet) or DurabilityLost (never). Read results are untouched: they
  // never promised durability.
  if (Cfg.SyncWal) {
    kv::DurableWait Verdict =
        Cfg.DeadlineUs
            ? Cfg.SyncWal->waitDurable(kv::Wal::lastAppendedLsn(), B.Deadline)
            : Cfg.SyncWal->waitDurable(kv::Wal::lastAppendedLsn());
    if (Verdict != kv::DurableWait::Ok) {
      const Status Downgrade = Verdict == kv::DurableWait::DurabilityLost
                                   ? Status::DurabilityLost
                                   : Status::DeadlineExceeded;
      for (Frame &F : Batch) {
        const bool Mutation = F.Op == MsgOp::Put || F.Op == MsgOp::Insert ||
                              F.Op == MsgOp::Erase || F.Op == MsgOp::Cas ||
                              F.Op == MsgOp::Rmw;
        if (Mutation && F.status() == Status::Ok)
          F.Aux = uint8_t(Downgrade);
      }
    }
  }

  for (const Frame &F : Batch)
    respond(Cn, F);
  Batch.clear();
}
