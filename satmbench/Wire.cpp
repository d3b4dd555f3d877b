//===- satmbench/Wire.cpp - The wire_zipf workload -----------------------===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//
//
// A net::Server over a 64 Ki-key store with an async WAL runs in a child
// process pinned to one half of the CPUs. The driver, this process, is
// pinned to the other half: one event-loop thread per driver CPU (at most
// two), each multiplexing two of the four loopback connections:
//
//  1. warm-up: open loop at the fixed rate, not measured;
//  2. open loop: Poisson arrivals at OpenRateQps, each request timed from
//     its *scheduled* send instant to reading its response (p50_us,
//     p99_us); the driver's own lateness is reported beside it;
//  3. capacity: closed loop, Conns connections x Depth requests in flight
//     (throughput_ops_s).
//
// Each request is encoded with net::encodeFrame, sent with
// net::Client::send, and its response decoded by a net::FrameDecoder fed
// from the socket; each of those calls is timed. The server's own counters
// come from its STATS frame; its CPU time, peak RSS and the STM and WAL
// counters come from the child over a control pipe. After the window the
// child stops the server, brings the log to its final shape (checkpoint,
// fixed suffix, drain), recovers it in fresh processes and compares the
// first recovered store with the live one key by key.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Checks.h"

#include "kv/Store.h"
#include "kv/Wal.h"
#include "net/Client.h"
#include "net/Codec.h"
#include "net/Protocol.h"
#include "net/Server.h"
#include "stm/Config.h"
#include "stm/Snapshot.h"
#include "stm/Stats.h"
#include "support/Rng.h"
#include "support/Zipf.h"

#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <thread>
#include <type_traits>

#include <fcntl.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace satm;
using namespace satmbench;

namespace {

constexpr uint64_t NumKeys = 1u << 16;
constexpr uint32_t NumShards = 64;
constexpr double OpenRateQps = 50000; ///< A fifth to a third of capacity.
/// Share of --seconds run open loop: the p99 needs the most samples.
constexpr double OpenShare = 0.8;
constexpr double WarmupS = 1.0;
constexpr unsigned Conns = 4;
constexpr unsigned Depth = 16; ///< In flight per connection, capacity phase.
constexpr unsigned MgetKeys = 8;
constexpr unsigned SetupReps = 9, RecoverReps = 9;
/// The open loop's latency slices are short: a host stall of a few ms
/// (measured on a 4-vCPU VM: about one over 1 ms per CPU-second) then
/// spoils a few slices instead of most of them. 0.1 s at OpenRateQps is
/// 5000 samples, 50 beyond the p99.
constexpr uint64_t OpenSliceNs = 100'000'000;
/// Mix in percent: get, put, mget, rmw, cas (kv_loadgen's mix).
constexpr unsigned MixGet = 80, MixPut = 10, MixMget = 5, MixRmw = 3;

//===----------------------------------------------------------------------===
// Control channel: fixed-size messages over pipes (same binary both ends).
//===----------------------------------------------------------------------===

enum class Cmd : uint32_t { Mark = 1, Stop = 2 };

struct ReadyMsg {
  uint32_t Port = 0;
  uint32_t Ok = 0;
  double SetupS[SetupReps] = {};
};

struct MarkMsg {
  Usage U;
  kv::WalStats Wal;
  stm::StatsCounters Stm;
  double PeakRssMb = 0;
};

struct FinalMsg {
  kv::WalStats WalFinal;
  RecoveryRun Recovery;
  double CkptS = 0, DrainS = 0;
  uint32_t FinalError = 0; ///< Final checkpoint or log suffix failed.
  uint64_t BadTags = 0;
  uint64_t TraceQuiesce = 0, TraceAborts = 0, TraceDropped = 0;
};

static_assert(std::is_trivially_copyable_v<MarkMsg> &&
                  std::is_trivially_copyable_v<FinalMsg>,
              "control messages are copied as bytes");

bool writeAll(int Fd, const void *P, size_t N) {
  const char *C = static_cast<const char *>(P);
  while (N) {
    ssize_t W = ::write(Fd, C, N);
    if (W < 0 && errno == EINTR)
      continue;
    if (W <= 0)
      return false;
    C += W;
    N -= size_t(W);
  }
  return true;
}

/// Reads exactly \p N bytes, giving up after \p TimeoutMs (< 0: never).
bool readFull(int Fd, void *P, size_t N, int TimeoutMs) {
  char *C = static_cast<char *>(P);
  while (N) {
    pollfd Pfd{Fd, POLLIN, 0};
    int R = ::poll(&Pfd, 1, TimeoutMs);
    if (R < 0 && errno == EINTR)
      continue;
    if (R <= 0)
      return false;
    ssize_t Got = ::read(Fd, C, N);
    if (Got < 0 && errno == EINTR)
      continue;
    if (Got <= 0)
      return false;
    C += Got;
    N -= size_t(Got);
  }
  return true;
}

//===----------------------------------------------------------------------===
// Server process.
//===----------------------------------------------------------------------===

struct ServerInstance {
  std::unique_ptr<rt::Heap> H;
  std::unique_ptr<kv::Store> S;
  std::unique_ptr<kv::Wal> W;
  std::unique_ptr<net::Server> Sv;

  /// Ordered teardown: the server drains and closes before the log stops.
  void stop() {
    if (Sv)
      Sv->stop();
    if (S)
      S->attachWal(nullptr);
    if (W)
      W->stop();
  }
  void reset() {
    Sv.reset();
    W.reset();
    S.reset();
    H.reset();
  }
};

kv::StoreConfig storeConfig() {
  kv::StoreConfig KC;
  KC.Shards = NumShards;
  KC.CapacityPerShard = uint32_t(2 * NumKeys / NumShards);
  return KC;
}

int serverMain(int CmdFd, int RespFd, const Options &O,
               const std::vector<int> &Cpus, const std::vector<int> &AllCpus) {
  ::prctl(PR_SET_PDEATHSIG, SIGKILL); // Never outlive the driver.
  pinTo(Cpus);
  stm::Config Base;
  Base.DeaEnabled = true;
  stm::ScopedConfig SC(Base);
  stm::setTraceEnabled(O.Trace);

  kv::Wal::Config WC;
  WC.Dir = O.WorkDir + "/wire_zipf-wal";
  WC.Shards = NumShards;
  std::filesystem::remove_all(WC.Dir);

  // Set-up (timed SetupReps times, the last instance kept): build and
  // prepopulate the store, start and attach the log, start the server.
  ReadyMsg Ready;
  ServerInstance Live;
  for (unsigned Rep = 0; Rep < SetupReps; ++Rep) {
    if (Rep) {
      Live.stop();
      Live.reset();
      std::filesystem::remove_all(WC.Dir);
    }
    const uint64_t T0 = nowNs();
    Live.H = std::make_unique<rt::Heap>();
    Live.S = std::make_unique<kv::Store>(*Live.H, storeConfig());
    if (!prepopulate(*Live.S, NumKeys, 1)) {
      std::fprintf(stderr, "satmbench: prepopulate: a shard filled up\n");
      writeAll(RespFd, &Ready, sizeof(Ready));
      return 1;
    }
    Live.W = std::make_unique<kv::Wal>(WC);
    Live.W->start();
    Live.S->attachWal(Live.W.get());
    net::ServerConfig NC;
    NC.IoThreads = 1;
    NC.Workers = 1;
    NC.NetBatch = 16;
    NC.StatsWal = Live.W.get();
    Live.Sv = std::make_unique<net::Server>(*Live.S, NC);
    std::string Err;
    if (!Live.Sv->start(&Err)) {
      std::fprintf(stderr, "satmbench: server start failed: %s\n",
                   Err.c_str());
      writeAll(RespFd, &Ready, sizeof(Ready));
      return 1;
    }
    Ready.SetupS[Rep] = double(nowNs() - T0) / 1e9;
  }
  Ready.Port = Live.Sv->port();
  Ready.Ok = 1;
  if (!writeAll(RespFd, &Ready, sizeof(Ready)))
    return 1;

  bool FirstMark = true;
  for (;;) {
    Cmd C;
    if (!readFull(CmdFd, &C, sizeof(C), -1))
      return 1;
    if (C == Cmd::Mark) {
      if (FirstMark) {
        stm::statsReset();
        if (O.Trace)
          stm::traceReset();
        FirstMark = false;
      }
      MarkMsg M;
      M.U = readUsage();
      M.Wal = Live.W->stats();
      M.Stm = stm::statsSnapshot();
      M.PeakRssMb = peakRssMb();
      if (!writeAll(RespFd, &M, sizeof(M)))
        return 1;
      continue;
    }
    break; // Cmd::Stop.
  }

  FinalMsg F;
  if (O.Trace) {
    for (const stm::TraceEntry &E : stm::traceDrain()) {
      F.TraceQuiesce += E.Kind == stm::TraceKind::QuiesceWait;
      F.TraceAborts += E.Kind == stm::TraceKind::TxnAbort;
    }
    F.TraceDropped = stm::traceDropped();
  }
  // The server drains and closes every connection before the log is
  // brought to its final shape and recovered.
  Live.Sv->stop();
  const FinalState FS = writeFinalState(*Live.S, *Live.W, NumKeys, O.Seed);
  F.FinalError = !FS.Error.empty();
  F.CkptS = FS.CkptS;
  F.DrainS = FS.DrainS;
  F.WalFinal = Live.W->stats();
  const std::vector<Word> Image = readAll(*Live.S, NumKeys);
  for (uint64_t K = 0; K < NumKeys; ++K)
    F.BadTags += !tagMatches(K, Image[K]);
  Live.reset();
  stm::snap::resetTable();

  // The driver is idle by now: recovery gets every CPU, as it does on the
  // in-process workloads (Wal::recover replays on one thread per CPU).
  F.Recovery = recoverInFreshProcess(WC, storeConfig(), Image, RecoverReps,
                                     O.WorkDir, AllCpus);
  std::filesystem::remove_all(WC.Dir);
  return writeAll(RespFd, &F, sizeof(F)) ? 0 : 1;
}

//===----------------------------------------------------------------------===
// Driver.
//===----------------------------------------------------------------------===

enum class Phase : uint8_t { Warmup, Open, Capacity };

/// One request in flight.
struct Pending {
  uint64_t Cid = 0; ///< 0 = free slot.
  uint64_t Sched = 0, EncStart = 0, EncEnd = 0, SendEnd = 0;
  net::MsgOp Op = net::MsgOp::Get;
  Phase Ph = Phase::Warmup;
  uint8_t N = 0;
  Word Keys[MgetKeys] = {};
};

struct Conn {
  static constexpr size_t RingSize = 1u << 15; ///< Max in flight.
  net::Client Cl;
  net::FrameDecoder Dec{/*Strict=*/false};
  AnswerLedger Ledger;
  std::vector<Pending> Ring = std::vector<Pending>(RingSize);
  bool Dead = false;
};

/// One driver thread's event loop over its share of the connections.
/// Each instance is used by one thread at a time.
class Driver {
public:
  Driver(const Options &O, unsigned Index, unsigned NumConns)
      : O(O), NumConns(NumConns),
        Gen(KeyGenerator::Dist::Zipfian, NumKeys,
            O.Seed * 7919 + 1 + Index * 0x9e3779b9ull, 0.99),
        Ops(O.Seed * 104729 + 3 + Index * 0x632be5abull), LastSeen(NumKeys) {
    for (uint64_t K = 0; K < NumKeys; ++K)
      LastSeen[K] = tagValue(K, 1000);
  }

  bool connect(uint16_t Port, std::string &Err) {
    Ep = ::epoll_create1(EPOLL_CLOEXEC);
    if (Ep < 0) {
      Err = "epoll_create1 failed";
      return false;
    }
    for (unsigned I = 0; I < NumConns; ++I) {
      Cs.push_back(std::make_unique<Conn>());
      if (!Cs[I]->Cl.connectTo("127.0.0.1", Port, &Err))
        return false;
      epoll_event Ev{};
      Ev.events = EPOLLIN;
      Ev.data.u32 = I;
      ::epoll_ctl(Ep, EPOLL_CTL_ADD, Cs[I]->Cl.fd(), &Ev);
    }
    return true;
  }

  ~Driver() {
    if (Ep >= 0)
      ::close(Ep);
  }

  /// Open loop at \p Qps for \p Seconds from \p Start.
  void openLoop(Phase Ph, double Qps, uint64_t Start, double Seconds) {
    const uint64_t End = Start + uint64_t(Seconds * 1e9);
    const double MeanGapNs = 1e9 / Qps;
    double Next = double(Start);
    while (nowNs() < Start)
      pollFor(0);
    unsigned Rr = 0;
    if (Ph == Phase::Open) {
      OpenStart = Start;
      OpenSlices.resize(numSlices(Seconds, OpenSliceNs));
    }
    for (;;) {
      const uint64_t Now = nowNs();
      while (Next <= double(Now) && Next < double(End)) {
        sendOne(*Cs[Rr++ % NumConns], Ph, uint64_t(Next));
        Next += -std::log(1.0 - Ops.nextDouble()) * MeanGapNs;
      }
      if (Now >= End)
        break;
      pollFor(0); // Spin: a sleeping driver wakes late on a VM.
    }
  }

  /// Closed loop with Depth requests in flight per connection for
  /// \p Seconds from \p Start, counting completions per slice into
  /// CapacitySlices.
  void capacity(uint64_t Start, double Seconds) {
    CapacitySlices.assign(numSlices(Seconds, SliceNs), 0);
    while (nowNs() < Start)
      pollFor(0);
    CapacityStart = Start;
    CapacityOpen = true;
    for (auto &C : Cs)
      for (unsigned I = 0; I < Depth; ++I)
        sendOne(*C, Phase::Capacity, nowNs());
    const uint64_t End = CapacityStart + uint64_t(Seconds * 1e9);
    while (nowNs() < End && !anyDead())
      pollFor(1'000'000);
    CapacityOpen = false;
  }

  /// Waits until every request is answered (bounded); returns the number
  /// still unanswered.
  uint64_t drain(double TimeoutS) {
    const uint64_t End = nowNs() + uint64_t(TimeoutS * 1e9);
    while (outstanding() && nowNs() < End && !anyDead())
      pollFor(1'000'000);
    return outstanding();
  }

  void close() {
    for (auto &C : Cs)
      C->Cl.close();
  }

  uint64_t outstanding() const {
    uint64_t N = 0;
    for (auto &C : Cs)
      N += C->Ledger.outstanding();
    return N;
  }
  bool anyDead() const {
    for (auto &C : Cs)
      if (C->Dead)
        return true;
    return false;
  }
  uint64_t violations() const {
    uint64_t N = 0;
    for (auto &C : Cs)
      N += C->Ledger.violations();
    return N;
  }

  /// Folds another driver's results into this one (slices are aligned:
  /// every driver starts each phase at the same instant).
  void merge(const Driver &O) {
    for (size_t I = 0; I < O.OpenSlices.size() && I < OpenSlices.size(); ++I)
      OpenSlices[I] += O.OpenSlices[I];
    for (size_t I = 0; I < O.CapacitySlices.size() &&
                       I < CapacitySlices.size();
         ++I)
      CapacitySlices[I] += O.CapacitySlices[I];
    Late += O.Late;
    Encode += O.Encode;
    Decode += O.Decode;
    SendCall += O.SendCall;
    Spans.merge(O.Spans);
    Attempted += O.Attempted;
    Failed += O.Failed;
    Completed += O.Completed;
    BadRequests += O.BadRequests;
    WrongValues += O.WrongValues;
    TransportLoss += O.TransportLoss;
    InflightMax += O.InflightMax;
    UserBytes += O.UserBytes;
  }

  // Results.
  /// Open phase, per slice of scheduled send time: scheduled send to
  /// decoded response.
  std::vector<FineHistogram> OpenSlices;
  /// Capacity phase: completions per slice.
  std::vector<uint64_t> CapacitySlices;
  LatencyHistogram Late;    ///< Open phase: actual - scheduled send.
  LatencyHistogram Encode, Decode, SendCall;
  SpanLog Spans;
  uint64_t Attempted = 0, Failed = 0, Completed = 0;
  uint64_t BadRequests = 0, WrongValues = 0, TransportLoss = 0;
  uint64_t InflightMax = 0; ///< Summed over drivers when merged.
  uint64_t UserBytes = 0;

private:
  net::Frame makeRequest(Pending &P) {
    net::Frame F;
    const unsigned Roll = unsigned(Ops.nextBelow(100));
    const Word K = Gen.next();
    P.N = 1;
    P.Keys[0] = K;
    if (Roll < MixGet) {
      F.Op = net::MsgOp::Get;
      F.Count = 1;
      F.Words = 1;
      F.Body[0] = K;
    } else if (Roll < MixGet + MixPut) {
      F.Op = net::MsgOp::Put;
      F.Count = 1;
      F.Words = 2;
      F.Body[0] = K;
      F.Body[1] = tagValue(K, Ops.next());
    } else if (Roll < MixGet + MixPut + MixMget) {
      F.Op = net::MsgOp::MultiGet;
      F.Count = MgetKeys;
      F.Words = MgetKeys;
      P.N = MgetKeys;
      F.Body[0] = K;
      for (unsigned I = 1; I < MgetKeys; ++I)
        P.Keys[I] = F.Body[I] = Gen.next();
    } else if (Roll < MixGet + MixPut + MixMget + MixRmw) {
      F.Op = net::MsgOp::Rmw;
      F.Count = 2;
      F.Words = 3;
      P.N = 2;
      F.Body[0] = K;
      P.Keys[1] = F.Body[1] = Gen.next();
      F.Body[2] = 1;
    } else {
      // CAS against the value this driver last saw for the key: it wins
      // unless another request changed the key since.
      F.Op = net::MsgOp::Cas;
      F.Count = 1;
      F.Words = 3;
      F.Body[0] = K;
      F.Body[1] = LastSeen[K];
      F.Body[2] = tagValue(K, Ops.next());
    }
    P.Op = F.Op;
    return F;
  }

  void sendOne(Conn &C, Phase Ph, uint64_t Sched) {
    if (C.Dead)
      return;
    const uint64_t Cid = NextCid++;
    Pending &P = C.Ring[Cid & (Conn::RingSize - 1)];
    if (P.Cid) {
      // The in-flight window wrapped onto an unanswered request.
      ++TransportLoss;
      C.Dead = true;
      return;
    }
    net::Frame F = makeRequest(P);
    F.Cid = Cid;
    uint8_t Scratch[net::MaxFrameBytes];
    const uint64_t T0 = nowNs();
    net::encodeFrame(Scratch, F);
    const uint64_t T1 = nowNs();
    C.Ledger.sent(Cid);
    const uint64_t Sent = C.Cl.send(F);
    const uint64_t T2 = nowNs();
    P.Cid = Cid;
    P.Sched = Sched;
    P.EncStart = T0;
    P.EncEnd = T1;
    P.SendEnd = T2;
    P.Ph = Ph;
    if (Ph != Phase::Warmup)
      ++Attempted;
    Encode.record(T1 - T0);
    SendCall.record(T2 - T1);
    if (Ph == Phase::Open)
      Late.record(T0 > Sched ? T0 - Sched : 0);
    if (Sent != Cid) {
      ++TransportLoss;
      C.Dead = true;
      return;
    }
    InflightMax = std::max(InflightMax, outstanding());
  }

  /// Serves every readable connection, waiting up to \p TimeoutNs for one.
  void pollFor(uint64_t TimeoutNs) {
    epoll_event Evs[Conns];
    timespec Ts{time_t(TimeoutNs / 1'000'000'000), long(TimeoutNs % 1'000'000'000)};
    int N = ::epoll_pwait2(Ep, Evs, int(NumConns), &Ts, nullptr);
    for (int I = 0; I < N; ++I)
      readConn(*Cs[Evs[I].data.u32]);
  }

  void readConn(Conn &C) {
    uint8_t Buf[65536];
    for (;;) {
      ssize_t Got = ::recv(C.Cl.fd(), Buf, sizeof(Buf), MSG_DONTWAIT);
      if (Got > 0) {
        C.Dec.feed(Buf, size_t(Got));
        continue;
      }
      if (Got < 0 && errno == EINTR)
        continue;
      if (Got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
        break;
      // EOF or a hard error with requests possibly in flight.
      if (!C.Dead) {
        ++TransportLoss;
        C.Dead = true;
        epoll_ctl(Ep, EPOLL_CTL_DEL, C.Cl.fd(), nullptr);
      }
      break;
    }
    for (;;) {
      net::Frame F;
      const uint64_t T0 = nowNs();
      if (!C.Dec.next(F))
        break;
      const uint64_t T1 = nowNs();
      Decode.record(T1 - T0);
      onResponse(C, F, T0, T1);
    }
    if (C.Dec.failed() && !C.Dead) {
      ++TransportLoss;
      C.Dead = true;
      epoll_ctl(Ep, EPOLL_CTL_DEL, C.Cl.fd(), nullptr);
    }
  }

  void onResponse(Conn &C, const net::Frame &F, uint64_t DecStart,
                  uint64_t DecEnd) {
    if (!C.Ledger.answered(F.Cid))
      return; // Unknown or duplicate id: counted as a ledger violation.
    Pending &P = C.Ring[F.Cid & (Conn::RingSize - 1)];
    const bool Measured = P.Ph != Phase::Warmup;
    bool Ok = true;
    const net::Status St = F.status();
    switch (P.Op) {
    case net::MsgOp::Get:
      Ok = St == net::Status::Ok && F.Words >= 1 &&
           tagMatches(P.Keys[0], F.Body[0]);
      if (Ok)
        LastSeen[P.Keys[0]] = F.Body[0];
      else if (St == net::Status::Ok || St == net::Status::NotFound)
        ++WrongValues;
      break;
    case net::MsgOp::MultiGet:
      Ok = St == net::Status::Ok && F.Words == P.N &&
           batchReadOk(P.N, P.Keys, F.Body, P.N);
      if (!Ok && St == net::Status::Ok)
        ++WrongValues;
      break;
    case net::MsgOp::Put:
      Ok = St == net::Status::Ok;
      UserBytes += Ok ? 16 : 0;
      break;
    case net::MsgOp::Rmw:
      Ok = St == net::Status::Ok;
      UserBytes += Ok ? 16 * P.N : 0;
      break;
    case net::MsgOp::Cas:
      Ok = St == net::Status::Ok || St == net::Status::Mismatch;
      UserBytes += St == net::Status::Ok ? 16 : 0;
      break;
    default:
      Ok = false;
      break;
    }
    if (St == net::Status::BadRequest)
      ++BadRequests;
    if (Measured) {
      ++Completed;
      Failed += !Ok;
    }
    if (P.Ph == Phase::Open) {
      const uint64_t Ns = DecEnd - P.Sched;
      const uint64_t Since = P.Sched - OpenStart;
      if (Since / OpenSliceNs < OpenSlices.size())
        OpenSlices[Since / OpenSliceNs].record(Ns);
    }
    if (O.Trace && Measured) {
      SpanLog::Child Ch[3] = {{SpanName::CodecEncode, P.EncStart, P.EncEnd},
                              {SpanName::ClientSend, P.EncEnd, P.SendEnd},
                              {SpanName::CodecDecode, DecStart, DecEnd}};
      Spans.request(F.Cid, SpanName::WireRequest, P.EncStart, DecEnd, Ch, 3);
    }
    const Phase Ph = P.Ph;
    P.Cid = 0;
    if (Ph == Phase::Capacity && CapacityOpen) {
      const uint64_t Slice = (nowNs() - CapacityStart) / SliceNs;
      if (Slice < CapacitySlices.size())
        ++CapacitySlices[Slice];
      sendOne(C, Phase::Capacity, nowNs());
    }
  }

  const Options &O;
  const unsigned NumConns;
  KeyGenerator Gen;
  Rng Ops;
  std::vector<Word> LastSeen;
  std::vector<std::unique_ptr<Conn>> Cs;
  int Ep = -1;
  uint64_t NextCid = 1;
  uint64_t OpenStart = 0;
  bool CapacityOpen = false;
  uint64_t CapacityStart = 0;
};

/// Kills and reaps the server child on every exit path.
struct ChildGuard {
  pid_t Pid = -1;
  int Status = 0;
  bool wait(int TimeoutMs) {
    for (int Waited = 0; Pid > 0; Waited += 10) {
      pid_t R = ::waitpid(Pid, &Status, WNOHANG);
      if (R == Pid) {
        Pid = -1;
        return true;
      }
      if (Waited >= TimeoutMs)
        return false;
      ::usleep(10000);
    }
    return true;
  }
  ~ChildGuard() {
    if (Pid > 0) {
      ::kill(Pid, SIGKILL);
      ::waitpid(Pid, &Status, 0);
    }
  }
};

bool mark(int CmdFd, int RespFd, MarkMsg &M) {
  Cmd C = Cmd::Mark;
  return writeAll(CmdFd, &C, sizeof(C)) &&
         readFull(RespFd, &M, sizeof(M), 30000);
}

} // namespace

Result satmbench::runWireZipf(const Options &O) {
  Result R;
  std::vector<int> All = allowedCpus();
  std::vector<int> ServerCpus = All, DriverCpus = All;
  if (All.size() >= 2) {
    size_t Half = (All.size() + 1) / 2;
    ServerCpus.assign(All.begin(), All.begin() + long(Half));
    DriverCpus.assign(All.begin() + long(Half), All.end());
  }

  int CmdPipe[2], RespPipe[2];
  if (::pipe2(CmdPipe, O_CLOEXEC) || ::pipe2(RespPipe, O_CLOEXEC)) {
    R.fail("pipe2 failed");
    return R;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  ChildGuard Child;
  Child.Pid = ::fork();
  if (Child.Pid < 0) {
    R.fail("fork failed");
    return R;
  }
  if (Child.Pid == 0) {
    ::close(CmdPipe[1]);
    ::close(RespPipe[0]);
    int Rc = serverMain(CmdPipe[0], RespPipe[1], O, ServerCpus, All);
    std::fflush(stderr);
    ::_exit(Rc);
  }
  ::close(CmdPipe[0]);
  ::close(RespPipe[1]);
  struct FdCloser {
    int A, B;
    ~FdCloser() {
      ::close(A);
      ::close(B);
    }
  } Fds{CmdPipe[1], RespPipe[0]};
  const int CmdFd = CmdPipe[1], RespFd = RespPipe[0];
  pinTo(DriverCpus);

  ReadyMsg Ready;
  if (!readFull(RespFd, &Ready, sizeof(Ready), 120000) || !Ready.Ok) {
    R.fail("server process did not start");
    return R;
  }
  // One driver thread per driver CPU (at most two), each owning its share
  // of the connections and of the open-loop rate; the main thread is one
  // of them.
  const unsigned NumDrivers = DriverCpus.size() >= 2 ? 2 : 1;
  std::vector<std::unique_ptr<Driver>> Ds;
  std::string Err;
  for (unsigned I = 0; I < NumDrivers; ++I) {
    Ds.push_back(std::make_unique<Driver>(O, I, Conns / NumDrivers));
    if (!Ds[I]->connect(uint16_t(Ready.Port), Err)) {
      R.fail("connect: " + Err);
      return R;
    }
  }
  net::Client Stats; // STATS probes only; not a load connection.
  if (!Stats.connectTo("127.0.0.1", uint16_t(Ready.Port), &Err)) {
    R.fail("connect: " + Err);
    return R;
  }
  if (NumDrivers == 2)
    pinTo({DriverCpus[0]});
  // Runs Fn on every driver at once and waits for all of them.
  auto OnAll = [&](auto Fn) {
    std::thread Second;
    if (NumDrivers == 2)
      Second = std::thread([&] {
        pinTo({DriverCpus[1]});
        Fn(*Ds[1]);
      });
    Fn(*Ds[0]);
    if (Second.joinable())
      Second.join();
  };
  auto Soon = [] { return nowNs() + 2'000'000; }; // Common phase start.
  const double RateEach = OpenRateQps / NumDrivers;

  const double OpenS = O.Seconds * OpenShare;
  const double CapS = O.Seconds - OpenS;
  uint64_t St0[net::StatsWordCount] = {}, St1[net::StatsWordCount] = {};
  uint64_t At = Soon();
  OnAll([&](Driver &D) {
    D.openLoop(Phase::Warmup, RateEach, At, std::min(WarmupS, O.Seconds));
  });
  MarkMsg M0, M1;
  if (!mark(CmdFd, RespFd, M0) || !Stats.statsProbe(St0)) {
    R.fail("server stopped answering control requests");
    return R;
  }
  const uint64_t W0 = nowNs();
  At = Soon();
  OnAll([&](Driver &D) {
    D.openLoop(Phase::Open, RateEach, At, OpenS);
    D.drain(5);
  });
  uint64_t OpenDone = 0;
  for (auto &D : Ds)
    OpenDone += D->Completed;
  const Usage DU0 = readUsage();
  At = Soon();
  OnAll([&](Driver &D) { D.capacity(At, CapS); });
  const Usage DU1 = readUsage();
  uint64_t Unanswered = 0, Violations = 0;
  OnAll([&](Driver &D) { D.drain(5); });
  for (auto &D : Ds) {
    Unanswered += D->outstanding();
    Violations += D->violations();
    D->close();
  }
  const uint64_t W1 = nowNs();
  if (!mark(CmdFd, RespFd, M1) || !Stats.statsProbe(St1)) {
    R.fail("server stopped answering control requests");
    return R;
  }
  Stats.close();
  Driver &D = *Ds[0];
  for (unsigned I = 1; I < NumDrivers; ++I)
    D.merge(*Ds[I]);

  Cmd Stop = Cmd::Stop;
  FinalMsg F;
  if (!writeAll(CmdFd, &Stop, sizeof(Stop)) ||
      !readFull(RespFd, &F, sizeof(F), 150000)) {
    R.fail("server process died before reporting recovery");
    return R;
  }
  if (!Child.wait(10000) || !WIFEXITED(Child.Status) ||
      WEXITSTATUS(Child.Status) != 0)
    R.fail("server process exited abnormally");

  // Checks.
  if (Unanswered)
    R.fail(std::to_string(Unanswered) + " requests never answered");
  if (Violations)
    R.fail(std::to_string(Violations) +
           " responses for unknown or already-answered ids");
  if (D.BadRequests)
    R.fail(std::to_string(D.BadRequests) + " BadRequest responses");
  if (D.TransportLoss)
    R.fail("transport loss on " + std::to_string(D.TransportLoss) +
           " connections");
  if (D.WrongValues)
    R.fail(std::to_string(D.WrongValues) +
           " reads returned a missing key or another key's value");
  if (F.FinalError)
    R.fail("server: final checkpoint or log suffix failed");
  if (F.BadTags)
    R.fail(std::to_string(F.BadTags) + " live keys hold another key's value");
  const RecoveryRun &RR = F.Recovery;
  if (!RR.Ran)
    R.fail("recovery process failed");
  if (RR.ApplyFailures)
    R.fail("recovery: " + std::to_string(RR.ApplyFailures) +
           " apply failures");
  if (RR.Mismatched)
    R.fail("recovery: " + std::to_string(RR.Mismatched) +
           " keys differ from the live store (first: key " +
           std::to_string(RR.FirstBad) + ")");
  if (D.OpenSlices.empty() || D.OpenSlices[0].count() == 0)
    R.fail("no request completed in the open-loop phase");

  R.Attempted = D.Attempted;
  R.Failed = D.Failed + Unanswered;
  const double WindowOps = double(D.Completed ? D.Completed : 1);
  std::vector<double> CapRates;
  for (uint64_t N : D.CapacitySlices)
    CapRates.push_back(double(N) / (double(SliceNs) / 1e9));
  R.add("throughput_ops_s", median(CapRates), "ops/s");
  R.info("slice_ops_s", fmtList(CapRates));
  addSliceMetrics(R, D.OpenSlices, double(OpenSliceNs) / 1e9,
                  /*WithRate=*/false);
  R.add("cpu_us_per_op",
        (M1.U.UserS + M1.U.SysS - M0.U.UserS - M0.U.SysS) * 1e6 / WindowOps,
        "us");
  R.add("peak_rss_mb", M1.PeakRssMb, "MB");
  R.add("setup_s",
        median(std::vector<double>(Ready.SetupS, Ready.SetupS + SetupReps)),
        "s");

  stm::StatsCounters Stm = M1.Stm;
  Stm -= M0.Stm;
  addStmMetrics(R, Stm);
  // The driver makes no in-process Store calls, so the kv.<op> recorders
  // stay empty; the bucket tail comes from the open-loop request latencies.
  addKvMetrics(R, Recorder{}, maxSliceP99Us(D.OpenSlices));
  addWalMetrics(R, M0.Wal, M1.Wal, F.WalFinal,
                D.UserBytes + 16 * SuffixRecords);
  addCkptRecoveryMetrics(R, kv::CheckpointStats{}, RR.First);
  R.add("recovery.seconds", median(RR.seconds()), "s");
  NetMeasure N;
  const uint64_t Batches = St1[net::StatBatches] - St0[net::StatBatches];
  N.BatchAvg = Batches ? double(St1[net::StatBatchedOps] -
                                St0[net::StatBatchedOps]) /
                             double(Batches)
                       : 0;
  N.MaxQueueDepth = double(St1[net::StatMaxQueueDepth]);
  N.Shed = double(St1[net::StatShedQueueFull] + St1[net::StatShedDeadline] -
                  St0[net::StatShedQueueFull] - St0[net::StatShedDeadline]);
  N.BadFrames = double(St1[net::StatBadFrames] - St0[net::StatBadFrames]);
  N.EncodeNs = double(D.Encode.valueAtPercentile(50));
  N.DecodeNs = double(D.Decode.valueAtPercentile(50));
  N.SendCallP99Ns = double(D.SendCall.valueAtPercentile(99));
  N.LateP99Us = double(D.Late.valueAtPercentile(99)) / 1000.0;
  N.InflightMax = double(D.InflightMax);
  addNetMetrics(R, N);
  addProcMetrics(R, M0.U, M1.U, D.Completed);
  R.add("trace.quiesce_wait_events", double(F.TraceQuiesce), "count");
  R.add("trace.abort_events", double(F.TraceAborts), "count");
  R.add("trace.events_dropped", double(F.TraceDropped), "count");
  // Server-side phases, timed in the server process.
  D.Spans.request(0, SpanName::CkptRunOnce, 0, uint64_t(F.CkptS * 1e9));
  D.Spans.request(0, SpanName::WalFinalDrain, 0, uint64_t(F.DrainS * 1e9));
  for (double S : RR.seconds())
    D.Spans.request(0, SpanName::RecoveryRecover, 0, uint64_t(S * 1e9));
  addSelfTimeMetrics(R, D.Spans);

  R.info("server_cpus", cpuListStr(ServerCpus));
  R.info("driver_cpus", cpuListStr(DriverCpus));
  R.info("load", "open loop " + fmt(OpenRateQps) + " qps for " + fmt(OpenS) +
                     " s, then closed loop " + std::to_string(Conns) +
                     " conns x " + std::to_string(Depth) + " in flight for " +
                     fmt(CapS) + " s");
  R.info("open_phase_ops", std::to_string(OpenDone));
  R.info("driver_cpu_frac_capacity",
         fmt((DU1.UserS + DU1.SysS - DU0.UserS - DU0.SysS) / CapS /
             NumDrivers));
  R.info("driver_threads", std::to_string(NumDrivers));
  R.info("window_s", fmt(double(W1 - W0) / 1e9));
  R.info("setup_s_samples",
         fmtList(std::vector<double>(Ready.SetupS, Ready.SetupS + SetupReps)));
  R.info("recovery_seconds_samples", fmtList(RR.seconds()));
  if (O.Trace) {
    std::string Path = O.WorkDir + "/spans-wire_zipf.tsv";
    if (D.Spans.write(Path))
      R.info("spans_file", Path);
  }
  return R;
}
