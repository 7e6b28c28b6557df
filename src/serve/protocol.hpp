// Wire protocol of the mapping service (tools/chortle_serve): length-
// prefixed frames carrying a JSON header (parsed by the existing
// obs::Json strict parser) and an opaque payload (BLIF text).
//
// Frame layout (all integers big-endian):
//
//   offset  0  magic "CSv1"                      (4 bytes)
//   offset  4  header length H                   (u32)
//   offset  8  payload length P                  (u32)
//   offset 12  header: JSON object, UTF-8        (H bytes)
//   offset 12+H  payload                         (P bytes)
//
// Limits are enforced BEFORE any allocation: H <= kMaxHeaderBytes and
// P <= kMaxPayloadBytes, so a hostile length field cannot balloon
// memory. The header parser itself is hardened (nesting depth cap,
// UTF-8 validation — obs/json.hpp), so arbitrary bytes fed to the
// decode path produce clean InvalidInput errors, never crashes
// (tests/json_adversarial_test.cpp).
//
// Requests and responses are JSON headers with a "type" tag
// ("map_request/1" / "map_response/1"); the request payload is the
// BLIF model to map, the response payload the mapped LUT netlist. A
// "stats_request/1" frame instead returns a live chortle-serve-stats/1
// snapshot as the response payload (obs/serve_stats.hpp).
//
// One header revision: the "map_request/1" / "map_response/1" type tag
// is the revision. Everything past the basic mapping options is an
// optional key, written only when it carries a value — a trace context
// ("trace_id"/"span_id", 16 hex digits), backend selection ("mapper",
// a core::mapper_names() name, with the portfolio-only "objective" and
// "portfolio_budget_ms"), and on the response the per-stage timings,
// "cache_coalesced", the winning "mapper" and the portfolio race
// counters. Every parser ignores keys it does not know, so a peer that
// still sends the retired "proto" key is served as usual.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "obs/context.hpp"
#include "obs/json.hpp"

namespace chortle::serve {

inline constexpr char kFrameMagic[4] = {'C', 'S', 'v', '1'};
inline constexpr std::size_t kFramePreambleBytes = 12;
inline constexpr std::size_t kMaxHeaderBytes = std::size_t{1} << 20;
inline constexpr std::size_t kMaxPayloadBytes = std::size_t{64} << 20;

inline constexpr const char* kMapRequestType = "map_request/1";
inline constexpr const char* kMapResponseType = "map_response/1";
inline constexpr const char* kStatsRequestType = "stats_request/1";
inline constexpr const char* kStatsResponseType = "stats_response/1";

struct Frame {
  obs::Json header;
  std::string payload;
};

/// Serializes one frame.
std::string encode_frame(const obs::Json& header, std::string_view payload);

/// Decodes exactly one complete frame from a buffer — the unit under
/// test for adversarial inputs; the socket reader below goes through
/// the same validation. Throws InvalidInput on bad magic, oversized or
/// truncated lengths, malformed header JSON, or trailing bytes.
Frame decode_frame(std::string_view bytes);

/// Reads one frame from a (blocking) socket. Returns nullopt on clean
/// EOF before the first byte of a frame; throws InvalidInput on a
/// malformed frame and std::runtime_error on I/O errors or EOF
/// mid-frame.
std::optional<Frame> read_frame(int fd);

/// Incremental frame decoder for non-blocking I/O: the server's event
/// loop feeds it whatever bytes a socket had ready and asks for
/// complete frames, so a peer that dribbles a request one byte at a
/// time (slowloris) costs a buffer, never a blocked thread.
///
/// The preamble is validated as soon as its 12 bytes are buffered —
/// a hostile length field is rejected *before* any body byte is
/// accepted, exactly like decode_frame. next() throws InvalidInput on
/// bad magic or oversized lengths; once it has thrown, framing on the
/// stream is lost and the connection must be dropped.
class FrameAssembler {
 public:
  /// Buffers more bytes off the wire.
  void append(std::string_view bytes);

  /// Extracts the next complete frame, or nullopt if the buffered
  /// bytes end mid-frame. Call repeatedly: one append may complete
  /// several pipelined frames.
  std::optional<Frame> next();

  /// Bytes buffered but not yet returned as a frame (a partially
  /// received frame, or pipelined frames not yet asked for).
  std::size_t buffered_bytes() const { return buffer_.size() - pos_; }

 private:
  std::string buffer_;
  std::size_t pos_ = 0;  // consumed prefix, compacted lazily
  bool have_preamble_ = false;
  std::size_t header_len_ = 0;
  std::size_t payload_len_ = 0;
};

/// Writes one frame, retrying partial writes. Throws std::runtime_error
/// on I/O errors.
void write_frame(int fd, const obs::Json& header, std::string_view payload);

// ---------------------------------------------------------- requests

struct MapRequest {
  std::string id;                 // echoed in the response and report row
  int k = 4;
  int split_threshold = 10;
  bool search_decompositions = true;
  bool optimize = false;          // run the full optimization script first
  bool verify = false;            // verify::check the result at kFormal
  std::int64_t deadline_ms = -1;  // budget from server receipt; < 0 = none
  /// Backend to map with: a core::mapper_names() name.
  std::string mapper = "chortle";
  /// Portfolio objective: a portfolio::objective_names() name. Ignored
  /// by the plain backends.
  std::string objective = "luts";
  /// Portfolio race budget in ms; < 0 = no budget beyond deadline_ms.
  /// Ignored by the plain backends.
  std::int64_t portfolio_budget_ms = -1;
  /// Optional trace context; invalid() = none attached.
  obs::RequestContext context;
  std::string blif;               // payload: BLIF model to map
};

obs::Json encode_request_header(const MapRequest& request);

/// Validates and extracts a request from a decoded frame. Throws
/// InvalidInput on a missing/unknown type tag, wrong field kinds, or
/// out-of-range option values.
MapRequest parse_map_request(const Frame& frame);

// --------------------------------------------------------- responses

/// Server-side wall time of one request's stages, seconds. Returned
/// with every request the server got far enough to parse, so a caller
/// can see where its own latency went without pulling the whole STATS
/// snapshot. All zero = not measured (absent on the wire).
struct StageSeconds {
  double queue_wait = 0.0;  // complete request enqueued -> worker pickup
  double parse = 0.0;       // request header + BLIF parse + decompose
  double solve = 0.0;       // map_network (DP-cache lookups inside)
  double emit = 0.0;        // mapped-netlist serialization

  bool operator==(const StageSeconds&) const = default;
};

struct MapResponse {
  /// "ok", "invalid", "deadline", "busy", or "internal".
  std::string status;
  std::string error;  // empty iff status == "ok"
  std::string id;
  int luts = 0;
  int trees = 0;
  int depth = 0;
  int cache_hits = 0;
  int cache_misses = 0;
  /// Trees that piggybacked on a concurrent identical solve
  /// (single-flight coalescing; on the wire only when non-zero).
  int cache_coalesced = 0;
  double seconds = 0.0;
  std::string verified;  // "", "equivalent", "different", "inconclusive"
  /// The backend that actually mapped (absent on the wire = "chortle").
  std::string mapper;
  /// Portfolio race outcome (on the wire only when the portfolio
  /// backend ran — portfolio_winner non-empty).
  std::string portfolio_winner;
  int portfolio_cancelled = 0;
  int portfolio_stitched_trees = 0;
  /// Echo of the request's trace context (or the server-generated one).
  obs::RequestContext context;
  StageSeconds stages;
  std::string blif;      // payload: mapped netlist iff status == "ok"

  bool ok() const { return status == "ok"; }
};

obs::Json encode_response_header(const MapResponse& response);
MapResponse parse_map_response(const Frame& frame);

// ------------------------------------------------------------- stats

/// True when a decoded frame is a STATS introspection request (the
/// server dispatches on this before treating a frame as a map request).
bool is_stats_request(const Frame& frame);

obs::Json encode_stats_request_header();
/// Header for the stats response; the chortle-serve-stats/1 document
/// travels as the frame payload.
obs::Json encode_stats_response_header();
/// Validates the response type and payload against the
/// chortle-serve-stats/1 schema; throws InvalidInput (listing the
/// validator's findings) on any mismatch.
obs::Json parse_stats_response(const Frame& frame);

}  // namespace chortle::serve
