#include "net/frame.h"

#include <algorithm>
#include <cstring>

#include "common/dictionary.h"
#include "relational/relation.h"
#include "relational/result_batch.h"

namespace xjoin {
namespace net {

namespace {

// Little-endian scalar/string writer over a std::string buffer.
class PayloadWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }
  void PutU64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutI32(int32_t v) { PutU32(static_cast<uint32_t>(v)); }
  void PutString(std::string_view s) {
    PutU32(static_cast<uint32_t>(s.size()));
    buf_.append(s.data(), s.size());
  }

  std::string Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  std::string buf_;
};

// Bounds-checked little-endian reader. Every Get* fails kParseError
// instead of reading past the payload, so a truncated or hostile frame
// can never walk off the buffer.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view data) : data_(data) {}

  Status GetU8(uint8_t* out) {
    if (pos_ + 1 > data_.size()) return Truncated();
    *out = static_cast<uint8_t>(data_[pos_++]);
    return Status::OK();
  }
  Status GetU32(uint32_t* out) {
    if (pos_ + 4 > data_.size()) return Truncated();
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    *out = v;
    return Status::OK();
  }
  Status GetU64(uint64_t* out) {
    if (pos_ + 8 > data_.size()) return Truncated();
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    *out = v;
    return Status::OK();
  }
  Status GetI64(int64_t* out) {
    uint64_t v = 0;
    XJ_RETURN_NOT_OK(GetU64(&v));
    *out = static_cast<int64_t>(v);
    return Status::OK();
  }
  Status GetI32(int32_t* out) {
    uint32_t v = 0;
    XJ_RETURN_NOT_OK(GetU32(&v));
    *out = static_cast<int32_t>(v);
    return Status::OK();
  }
  Status GetString(std::string* out) {
    uint32_t len = 0;
    XJ_RETURN_NOT_OK(GetU32(&len));
    if (pos_ + len > data_.size()) return Truncated();
    out->assign(data_.data() + pos_, len);
    pos_ += len;
    return Status::OK();
  }

  /// Decoders call this last: trailing bytes mean a version/format
  /// mismatch and must not be silently ignored.
  Status ExpectEnd() const {
    if (pos_ != data_.size()) {
      return Status::ParseError("frame payload has " +
                                std::to_string(data_.size() - pos_) +
                                " trailing bytes");
    }
    return Status::OK();
  }

 private:
  Status Truncated() const {
    return Status::ParseError("frame payload truncated at offset " +
                              std::to_string(pos_));
  }

  std::string_view data_;
  size_t pos_ = 0;
};

// The kResult payload, written once for both result encoders: u32
// column count and the column names, u64 row count, then every row's
// cells row-major as length-prefixed strings. Stops growing once the
// payload outgrows one frame; Finish then fails kResourceExhausted.
class ResultPayloadWriter {
 public:
  ResultPayloadWriter(const std::vector<std::string>& columns,
                      uint64_t num_rows) {
    w_.PutU32(static_cast<uint32_t>(columns.size()));
    for (const std::string& name : columns) w_.PutString(name);
    w_.PutU64(num_rows);
  }

  /// Appends one cell; false once the payload exceeds the frame cap.
  bool PutCell(std::string_view cell) {
    w_.PutString(cell);
    return w_.size() <= kMaxPayloadBytes;
  }

  Result<std::string> Finish() {
    if (w_.size() > kMaxPayloadBytes) {
      return Status::ResourceExhausted(
          "serialized result exceeds the 64 MiB frame cap; constrain the "
          "query with max_rows / max_bytes");
    }
    return w_.Take();
  }

 private:
  PayloadWriter w_;
};

}  // namespace

bool IsKnownFrameType(uint8_t type) {
  return type >= static_cast<uint8_t>(FrameType::kQuery) &&
         type <= static_cast<uint8_t>(FrameType::kPong);
}

void EncodeFrameHeader(const FrameHeader& header,
                       uint8_t out[kFrameHeaderSize]) {
  const uint32_t magic = kFrameMagic;
  for (int i = 0; i < 4; ++i) out[i] = (magic >> (8 * i)) & 0xff;
  out[4] = header.version;
  out[5] = static_cast<uint8_t>(header.type);
  out[6] = 0;
  out[7] = 0;
  for (int i = 0; i < 4; ++i) {
    out[8 + i] = (header.payload_len >> (8 * i)) & 0xff;
  }
}

Result<FrameHeader> DecodeFrameHeader(const uint8_t* data) {
  uint32_t magic = 0;
  for (int i = 0; i < 4; ++i) {
    magic |= static_cast<uint32_t>(data[i]) << (8 * i);
  }
  if (magic != kFrameMagic) {
    return Status::ParseError("bad frame magic (not an xjoin stream)");
  }
  FrameHeader header;
  header.version = data[4];
  if (header.version != kProtocolVersion) {
    return Status::ParseError("unsupported protocol version " +
                              std::to_string(header.version));
  }
  if (!IsKnownFrameType(data[5])) {
    return Status::ParseError("unknown frame type " + std::to_string(data[5]));
  }
  header.type = static_cast<FrameType>(data[5]);
  if (data[6] != 0 || data[7] != 0) {
    return Status::ParseError("nonzero reserved bits in frame header");
  }
  uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<uint32_t>(data[8 + i]) << (8 * i);
  }
  if (len > kMaxPayloadBytes) {
    return Status::ParseError("frame payload of " + std::to_string(len) +
                              " bytes exceeds the 64 MiB cap");
  }
  header.payload_len = len;
  return header;
}

std::string EncodeQueryRequest(const QueryRequest& req) {
  PayloadWriter w;
  w.PutString(req.text);
  w.PutString(req.tenant);
  w.PutI64(req.max_rows);
  w.PutI64(req.max_bytes);
  w.PutI64(req.deadline_micros);
  return w.Take();
}

Result<QueryRequest> DecodeQueryRequest(std::string_view payload) {
  PayloadReader r(payload);
  QueryRequest req;
  XJ_RETURN_NOT_OK(r.GetString(&req.text));
  XJ_RETURN_NOT_OK(r.GetString(&req.tenant));
  XJ_RETURN_NOT_OK(r.GetI64(&req.max_rows));
  XJ_RETURN_NOT_OK(r.GetI64(&req.max_bytes));
  XJ_RETURN_NOT_OK(r.GetI64(&req.deadline_micros));
  XJ_RETURN_NOT_OK(r.ExpectEnd());
  return req;
}

Result<std::string> EncodeQueryResultSet(const QueryResultSet& result) {
  ResultPayloadWriter w(result.columns, result.rows.size());
  for (const auto& row : result.rows) {
    for (const std::string& cell : row) {
      if (!w.PutCell(cell)) return w.Finish();
    }
  }
  return w.Finish();
}

Result<std::string> EncodeRelationResultSet(const Relation& relation,
                                            const Dictionary& dict) {
  const size_t num_rows = relation.num_rows();
  const size_t num_columns = relation.num_columns();
  ResultPayloadWriter w(relation.schema().attributes(), num_rows);
  if (num_columns == 0) return w.Finish();  // no cells, no block size
  // Decode a block of rows at a time, one DecodeMany (one reader lock)
  // per column of at most kDefaultResultBatchCapacity codes.
  const size_t block_rows = std::max<size_t>(
      1, static_cast<size_t>(kDefaultResultBatchCapacity) / num_columns);
  std::vector<const std::string*> cells(block_rows * num_columns);
  std::string unknown;
  for (size_t begin = 0; begin < num_rows; begin += block_rows) {
    const size_t n = std::min(block_rows, num_rows - begin);
    for (size_t c = 0; c < num_columns; ++c) {
      dict.DecodeMany(relation.column(c).data() + begin, n,
                      &cells[c * block_rows]);
    }
    for (size_t r = 0; r < n; ++r) {
      for (size_t c = 0; c < num_columns; ++c) {
        const std::string* cell = cells[c * block_rows + r];
        if (cell == nullptr) {
          // Not in the dictionary (synthetic data only): "#<code>".
          unknown = "#" + std::to_string(relation.at(begin + r, c));
          cell = &unknown;
        }
        if (!w.PutCell(*cell)) return w.Finish();
      }
    }
  }
  return w.Finish();
}

Result<QueryResultSet> DecodeQueryResultSet(std::string_view payload) {
  PayloadReader r(payload);
  QueryResultSet result;
  uint32_t num_columns = 0;
  XJ_RETURN_NOT_OK(r.GetU32(&num_columns));
  result.columns.resize(num_columns);
  for (uint32_t c = 0; c < num_columns; ++c) {
    XJ_RETURN_NOT_OK(r.GetString(&result.columns[c]));
  }
  uint64_t num_rows = 0;
  XJ_RETURN_NOT_OK(r.GetU64(&num_rows));
  // A row costs at least num_columns 4-byte length prefixes, so a
  // hostile count cannot force a huge allocation before the bounds
  // checks below reject the truncated payload.
  if (num_columns > 0 && num_rows > payload.size() / (4 * num_columns) + 1) {
    return Status::ParseError("result row count " + std::to_string(num_rows) +
                              " is impossible for the payload size");
  }
  result.rows.reserve(num_rows);
  for (uint64_t i = 0; i < num_rows; ++i) {
    std::vector<std::string> row(num_columns);
    for (uint32_t c = 0; c < num_columns; ++c) {
      XJ_RETURN_NOT_OK(r.GetString(&row[c]));
    }
    result.rows.push_back(std::move(row));
  }
  XJ_RETURN_NOT_OK(r.ExpectEnd());
  return result;
}

std::string EncodeErrorStatus(const Status& status) {
  PayloadWriter w;
  w.PutU8(static_cast<uint8_t>(status.code()));
  w.PutString(status.message());
  if (status.retry_info().has_value()) {
    w.PutU8(1);
    w.PutI64(status.retry_info()->retry_after_micros);
    w.PutI32(status.retry_info()->queue_depth);
  } else {
    w.PutU8(0);
    w.PutI64(0);
    w.PutI32(-1);
  }
  return w.Take();
}

Status DecodeErrorStatus(std::string_view payload, Status* decoded) {
  PayloadReader r(payload);
  uint8_t code = 0;
  std::string message;
  uint8_t has_retry = 0;
  int64_t retry_after = 0;
  int32_t queue_depth = -1;
  XJ_RETURN_NOT_OK(r.GetU8(&code));
  XJ_RETURN_NOT_OK(r.GetString(&message));
  XJ_RETURN_NOT_OK(r.GetU8(&has_retry));
  XJ_RETURN_NOT_OK(r.GetI64(&retry_after));
  XJ_RETURN_NOT_OK(r.GetI32(&queue_depth));
  XJ_RETURN_NOT_OK(r.ExpectEnd());
  if (code == 0 || code > static_cast<uint8_t>(StatusCode::kCancelled)) {
    return Status::ParseError("error frame carries invalid status code " +
                              std::to_string(code));
  }
  Status st(static_cast<StatusCode>(code), std::move(message));
  if (has_retry != 0) {
    st = st.WithRetryInfo(RetryInfo{retry_after, queue_depth});
  }
  *decoded = std::move(st);
  return Status::OK();
}

std::string EncodeHealthReply(const HealthReply& health) {
  PayloadWriter w;
  w.PutU8(health.draining ? 1 : 0);
  w.PutI32(health.active_connections);
  w.PutI32(health.inflight);
  w.PutI64(health.served);
  w.PutI64(health.shed);
  return w.Take();
}

Result<HealthReply> DecodeHealthReply(std::string_view payload) {
  PayloadReader r(payload);
  HealthReply health;
  uint8_t draining = 0;
  XJ_RETURN_NOT_OK(r.GetU8(&draining));
  health.draining = draining != 0;
  XJ_RETURN_NOT_OK(r.GetI32(&health.active_connections));
  XJ_RETURN_NOT_OK(r.GetI32(&health.inflight));
  XJ_RETURN_NOT_OK(r.GetI64(&health.served));
  XJ_RETURN_NOT_OK(r.GetI64(&health.shed));
  XJ_RETURN_NOT_OK(r.ExpectEnd());
  return health;
}

}  // namespace net
}  // namespace xjoin
