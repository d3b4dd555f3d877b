//===- net/Protocol.h - SATM-KV binary wire protocol -----------*- C++ -*-===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fixed-header, length-prefixed binary protocol spoken between
/// kv_service --serve and its clients (net/Client.h, bench/kv_loadgen).
/// One frame shape serves both directions:
///
///   offset  size  field
///        0     4  magic      (0x53544D00 | protocol version; LE)
///        4     1  opcode     (MsgOp)
///        5     1  aux        (request: flags, must be 0; response: Status)
///        6     2  count      (number of keys / returned values; LE)
///        8     4  body_len   (bytes after the 20-byte header; LE)
///       12     8  correlation id (echoed verbatim in the response; LE)
///       20     …  body       (body_len bytes: count-dependent u64 words)
///
/// Request bodies are flat little-endian u64 arrays:
///   GET    [key]                         count=1
///   PUT    [key, val]                    count=1
///   INSERT [key, val]                    count=1
///   ERASE  [key]                         count=1
///   CAS    [key, expected, desired]      count=1
///   MGET   [k0 … k{count-1}]             count=N (≤ MaxKeysPerFrame)
///   RMW    [k0 … k{count-1}, delta]      count=N (rmwAdd semantics)
///   STATS  []                            count=0 (server counters probe)
///   SHUTDOWN []                          count=0 (graceful server stop)
///
/// Response bodies: GET carries [val] on Ok; MGET carries count values
/// (Store::Tombstone for absent keys) on Ok; STATS carries the
/// ServerStats counter vector; everything else is empty. The status byte
/// mirrors kv::OpStatus one-for-one, plus BadRequest for frames the
/// server could parse but not serve (e.g. zero keys). Framing damage —
/// wrong magic, oversized body, count/body mismatch — is not answerable
/// on a byte stream (resynchronization is guesswork), so the server
/// closes the connection instead.
///
/// Connections are pipelined: clients may have any number of requests in
/// flight; responses come back in server completion order (the server
/// batches each read's GETs, then its PUT/INSERTs, then the rest), matched
/// by correlation id.
///
/// The wire format is little-endian by fiat (every deployment target of
/// this repo is LE); encode/decode go through memcpy so unaligned
/// buffers are fine and the compiler lowers them to plain loads/stores.
///
//===----------------------------------------------------------------------===//

#ifndef SATM_NET_PROTOCOL_H
#define SATM_NET_PROTOCOL_H

#include <cstdint>
#include <cstring>

namespace satm {
namespace net {

/// Protocol version, folded into the low byte of the magic so a version
/// bump makes old and new frames mutually unparseable up front.
inline constexpr uint32_t ProtocolVersion = 1;
inline constexpr uint32_t FrameMagic = 0x53544D00u | ProtocolVersion;

/// Header bytes before the body.
inline constexpr size_t FrameHeaderSize = 20;

/// Most keys one MGET/RMW frame may carry (matches the 64-key batch cap
/// of the kv_service driver); one extra word allows RMW's trailing delta
/// and PUT/CAS payloads.
inline constexpr size_t MaxKeysPerFrame = 64;
inline constexpr size_t MaxWordsPerFrame = MaxKeysPerFrame + 1;
inline constexpr size_t MaxBodyBytes = MaxWordsPerFrame * 8;

/// CAS is the one opcode with more words than keys+1; give the decoder
/// the true ceiling.
inline constexpr size_t MaxFrameBytes = FrameHeaderSize + MaxBodyBytes;

enum class MsgOp : uint8_t {
  Get = 1,
  Put = 2,
  Insert = 3,
  Erase = 4,
  Cas = 5,
  MultiGet = 6,
  Rmw = 7,
  Stats = 8,
  Shutdown = 9,
};

/// Response status byte. The first six values mirror kv::OpStatus
/// one-for-one (same ordinals), so the server converts with a cast —
/// except DurabilityLost, whose kv ordinal (6) collided with BadRequest
/// and is mapped explicitly (Server.cpp toStatus).
enum class Status : uint8_t {
  Ok = 0,
  NotFound = 1,
  Mismatch = 2,
  Full = 3,
  Overloaded = 4,       ///< Shed: queue full or budget exhausted. No effects.
  DeadlineExceeded = 5, ///< Shed: per-request deadline passed. No effects.
  BadRequest = 6,       ///< Parseable frame the server cannot serve.
  DurabilityLost = 7,   ///< Sync-mode mutation committed in memory, but
                        ///< the WAL is degraded (disk fault) and the
                        ///< durability promise cannot be kept.
};

const char *msgOpName(MsgOp Op);
const char *statusName(Status S);

/// Word indexes of the STATS response body (one u64 per counter, in this
/// order; a new word only ever goes at the end). The loadgen samples STATS
/// before and after a measurement window and differences the monotone
/// counters (e.g. to report the server-side batch amortization actually
/// achieved at each load point).
enum StatsField : unsigned {
  StatAccepted = 0,
  StatDroppedAccepts,
  StatClosed,
  StatRequests,
  StatResponses,
  StatBadFrames,
  StatBatches,
  StatBatchedOps,
  StatShedQueueFull, ///< Always 0: the server has no queue to fill.
  StatShedDeadline,  ///< Requests answered Overloaded/DeadlineExceeded.
  StatMaxQueueDepth, ///< Largest burst of requests executed from one read.
  /// Durability visibility (0 when the server runs without a WAL):
  StatWalDegraded,       ///< 1 once the WAL sealed into degraded mode.
  StatWalDroppedRecords, ///< Redo records discarded while degraded.
  StatOutHighWater, ///< Most unflushed response bytes one connection held.
  StatsWordCount,   ///< Number of words in a STATS response body.
};
static_assert(StatsWordCount <= MaxWordsPerFrame,
              "STATS body must fit one frame");

/// One decoded frame, either direction. Body words are inline — no
/// allocation anywhere on the codec path.
struct Frame {
  MsgOp Op = MsgOp::Get;
  uint8_t Aux = 0; ///< Request flags (0) or response Status.
  uint16_t Count = 0;
  uint64_t Cid = 0;
  uint32_t Words = 0; ///< Body length in u64 words.
  uint64_t Body[MaxWordsPerFrame + 1];

  Status status() const { return Status(Aux); }
};

/// Expected body word count for a *request* frame, or -1 if the
/// (op, count) pair is not a legal request shape. The decoder applies
/// this to inbound server traffic; responses are validated by the
/// looser word bound only (their body size depends on status).
inline int requestBodyWords(MsgOp Op, uint16_t Count) {
  switch (Op) {
  case MsgOp::Get:
  case MsgOp::Erase:
    return Count == 1 ? 1 : -1;
  case MsgOp::Put:
  case MsgOp::Insert:
    return Count == 1 ? 2 : -1;
  case MsgOp::Cas:
    return Count == 1 ? 3 : -1;
  case MsgOp::MultiGet:
    return Count >= 1 && Count <= MaxKeysPerFrame ? Count : -1;
  case MsgOp::Rmw:
    return Count >= 1 && Count <= MaxKeysPerFrame ? Count + 1 : -1;
  case MsgOp::Stats:
  case MsgOp::Shutdown:
    return Count == 0 ? 0 : -1;
  }
  return -1;
}

inline void putU16(uint8_t *P, uint16_t V) { std::memcpy(P, &V, 2); }
inline void putU32(uint8_t *P, uint32_t V) { std::memcpy(P, &V, 4); }
inline void putU64(uint8_t *P, uint64_t V) { std::memcpy(P, &V, 8); }
inline uint16_t getU16(const uint8_t *P) {
  uint16_t V;
  std::memcpy(&V, P, 2);
  return V;
}
inline uint32_t getU32(const uint8_t *P) {
  uint32_t V;
  std::memcpy(&V, P, 4);
  return V;
}
inline uint64_t getU64(const uint8_t *P) {
  uint64_t V;
  std::memcpy(&V, P, 8);
  return V;
}

/// Serializes \p F into \p Out (which must hold MaxFrameBytes); returns
/// the encoded length.
inline size_t encodeFrame(uint8_t *Out, const Frame &F) {
  putU32(Out, FrameMagic);
  Out[4] = uint8_t(F.Op);
  Out[5] = F.Aux;
  putU16(Out + 6, F.Count);
  putU32(Out + 8, F.Words * 8);
  putU64(Out + 12, F.Cid);
  for (uint32_t I = 0; I < F.Words; ++I)
    putU64(Out + FrameHeaderSize + I * 8, F.Body[I]);
  return FrameHeaderSize + size_t(F.Words) * 8;
}

} // namespace net
} // namespace satm

#endif // SATM_NET_PROTOCOL_H
