// Wire protocol for the xjoin network front-end: a length-prefixed
// framed request/response format over a byte stream, dependency-free
// (no protobuf), deterministic, and versioned.
//
// Every frame is a fixed 12-byte little-endian header followed by
// `payload_len` payload bytes:
//
//     offset  size  field
//     0       4     magic        0x584A4F49 ("XJOI" read as LE u32)
//     4       1     version      kProtocolVersion (currently 1)
//     5       1     type         FrameType
//     6       2     reserved     must be 0
//     8       4     payload_len  <= kMaxPayloadBytes (64 MiB)
//
// Frame conversation (client drives; one outstanding request per
// connection):
//
//     kQuery  ->                  <- kResult | kError
//     kPing   ->                  <- kPong
//
// A malformed HEADER (bad magic/version/oversized payload) poisons the
// stream — the receiver closes the connection. A malformed PAYLOAD on
// an intact header is recoverable — the server answers kError
// (kInvalidArgument) and keeps the connection.
//
// Payload encodings are little-endian with u32 length-prefixed strings;
// result cells travel as decoded dictionary strings so the bytes mean
// the same thing on both sides of the socket. Error payloads carry the
// machine-readable StatusCode plus optional RetryInfo (retry-after
// suggestion + admission queue depth), so a client backs off on data
// instead of parsing the human message.
#ifndef XJOIN_NET_FRAME_H_
#define XJOIN_NET_FRAME_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace xjoin {

class Dictionary;
class Relation;

namespace net {

inline constexpr uint32_t kFrameMagic = 0x584A4F49;  // "XJOI"
inline constexpr uint8_t kProtocolVersion = 1;
inline constexpr size_t kFrameHeaderSize = 12;
inline constexpr uint32_t kMaxPayloadBytes = 64u << 20;  // 64 MiB

enum class FrameType : uint8_t {
  kQuery = 1,   ///< client -> server: run a query
  kResult = 2,  ///< server -> client: rows
  kError = 3,   ///< server -> client: typed Status (+ retry context)
  kPing = 4,    ///< client -> server: health/readiness probe
  kPong = 5,    ///< server -> client: health snapshot
};

/// True for the five known frame types above.
bool IsKnownFrameType(uint8_t type);

struct FrameHeader {
  uint8_t version = kProtocolVersion;
  FrameType type = FrameType::kQuery;
  uint32_t payload_len = 0;
};

/// Serializes `header` into exactly kFrameHeaderSize bytes.
void EncodeFrameHeader(const FrameHeader& header,
                       uint8_t out[kFrameHeaderSize]);

/// Parses a header from exactly kFrameHeaderSize bytes. Fails
/// kParseError on bad magic, unknown version, unknown type, nonzero
/// reserved bits, or an oversized payload — all of which mean the
/// stream can no longer be trusted and the connection should close.
Result<FrameHeader> DecodeFrameHeader(const uint8_t* data);

/// A query request as it travels on the wire: the query text plus the
/// QueryOptions subset that makes sense cross-process (per-query
/// budgets and the tenant pool name; cancellation is implicit — the
/// connection is the cancel scope).
struct QueryRequest {
  std::string text;
  std::string tenant;          ///< "" = no admission pool
  int64_t max_rows = 0;        ///< 0 = unlimited
  int64_t max_bytes = 0;       ///< 0 = unlimited
  int64_t deadline_micros = 0; ///< relative to server-side start; 0 = none
};

std::string EncodeQueryRequest(const QueryRequest& req);
Result<QueryRequest> DecodeQueryRequest(std::string_view payload);

/// A query result as it travels on the wire: column names plus row-major
/// cells, each cell the dictionary-decoded string (cells whose code is
/// not in the server dictionary — possible only for synthetic data —
/// travel as "#<code>").
struct QueryResultSet {
  std::vector<std::string> columns;
  std::vector<std::vector<std::string>> rows;
};

/// Fails kResourceExhausted (no retry context) when the serialized
/// result would not fit one frame; tighten max_rows/max_bytes instead
/// of retrying.
Result<std::string> EncodeQueryResultSet(const QueryResultSet& result);
Result<QueryResultSet> DecodeQueryResultSet(std::string_view payload);

/// Encodes a query's result relation straight into the kResult payload,
/// decoding its codes through `dict` block by block: the same bytes as
/// EncodeQueryResultSet of the per-cell QueryResultSet, without building
/// a string per cell. Same "#<code>" fallback and frame cap.
Result<std::string> EncodeRelationResultSet(const Relation& relation,
                                            const Dictionary& dict);

/// Serializes a non-OK Status, including its RetryInfo when present.
std::string EncodeErrorStatus(const Status& status);
/// Reconstructs the Status (code, message, retry context) from a kError
/// payload into *decoded. The return value reports the decode itself
/// (kParseError on a malformed payload; *decoded untouched then).
Status DecodeErrorStatus(std::string_view payload, Status* decoded);

/// The kPong payload: a point-in-time health/readiness snapshot.
struct HealthReply {
  bool draining = false;  ///< true once Shutdown began: not ready
  int32_t active_connections = 0;
  int32_t inflight = 0;  ///< requests queued or executing
  int64_t served = 0;    ///< responses written (rows or typed errors)
  int64_t shed = 0;      ///< requests rejected by overload ceilings
};

std::string EncodeHealthReply(const HealthReply& health);
Result<HealthReply> DecodeHealthReply(std::string_view payload);

}  // namespace net
}  // namespace xjoin

#endif  // XJOIN_NET_FRAME_H_
