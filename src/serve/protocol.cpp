#include "serve/protocol.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "base/check.hpp"
#include "obs/serve_stats.hpp"

namespace chortle::serve {
namespace {

void put_u32(std::string& out, std::uint32_t value) {
  out += static_cast<char>((value >> 24) & 0xFF);
  out += static_cast<char>((value >> 16) & 0xFF);
  out += static_cast<char>((value >> 8) & 0xFF);
  out += static_cast<char>(value & 0xFF);
}

std::uint32_t get_u32(const unsigned char* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

/// Validates the 12-byte preamble and returns {header_len, payload_len}.
std::pair<std::size_t, std::size_t> check_preamble(const unsigned char* p) {
  if (std::memcmp(p, kFrameMagic, sizeof kFrameMagic) != 0)
    throw InvalidInput("frame: bad magic (not a chortle-serve peer?)");
  const std::size_t header_len = get_u32(p + 4);
  const std::size_t payload_len = get_u32(p + 8);
  if (header_len > kMaxHeaderBytes)
    throw InvalidInput("frame: header length " + std::to_string(header_len) +
                       " exceeds the limit");
  if (payload_len > kMaxPayloadBytes)
    throw InvalidInput("frame: payload length " + std::to_string(payload_len) +
                       " exceeds the limit");
  return {header_len, payload_len};
}

obs::Json parse_header(std::string_view bytes) {
  obs::Json header = obs::Json::parse(bytes);
  if (!header.is_object())
    throw InvalidInput("frame: header is not a JSON object");
  return header;
}

// Typed field extraction with precise error messages; a request from an
// untrusted peer must never trip a CHECK.
const obs::Json* find_field(const obs::Json& header, const char* name) {
  return header.find(name);
}

std::string get_string(const obs::Json& header, const char* name,
                       const std::string& fallback) {
  const obs::Json* field = find_field(header, name);
  if (field == nullptr) return fallback;
  if (!field->is_string())
    throw InvalidInput(std::string("frame: field \"") + name +
                       "\" must be a string");
  return field->as_string();
}

std::int64_t get_int(const obs::Json& header, const char* name,
                     std::int64_t fallback) {
  const obs::Json* field = find_field(header, name);
  if (field == nullptr) return fallback;
  if (!field->is_number())
    throw InvalidInput(std::string("frame: field \"") + name +
                       "\" must be a number");
  return field->as_int();
}

bool get_bool(const obs::Json& header, const char* name, bool fallback) {
  const obs::Json* field = find_field(header, name);
  if (field == nullptr) return fallback;
  if (!field->is_bool())
    throw InvalidInput(std::string("frame: field \"") + name +
                       "\" must be a boolean");
  return field->as_bool();
}

int get_bounded_int(const obs::Json& header, const char* name, int fallback,
                    int lo, int hi) {
  const std::int64_t value = get_int(header, name, fallback);
  if (value < lo || value > hi)
    throw InvalidInput(std::string("frame: field \"") + name + "\" = " +
                       std::to_string(value) + " is outside [" +
                       std::to_string(lo) + ", " + std::to_string(hi) + "]");
  return static_cast<int>(value);
}

void require_type(const obs::Json& header, const char* want) {
  const std::string type = get_string(header, "type", "");
  if (type != want)
    throw InvalidInput("frame: expected type \"" + std::string(want) +
                       "\", got \"" + type + "\"");
}

/// Reads an optional 16-hex-digit trace/span id; 0 when absent. Present
/// but malformed is a hard error so a peer cannot smuggle garbage into
/// trace files.
std::uint64_t get_hex_id(const obs::Json& header, const char* name) {
  const obs::Json* field = find_field(header, name);
  if (field == nullptr) return 0;
  if (field->is_string())
    if (const auto id = obs::parse_hex_id(field->as_string())) return *id;
  throw InvalidInput(std::string("frame: field \"") + name +
                     "\" must be 16 lowercase hex digits");
}

void set_context_fields(obs::Json& header, const obs::RequestContext& context) {
  if (!context.valid()) return;
  header.set("trace_id", context.trace_hex());
  header.set("span_id", context.span_hex());
}

}  // namespace

std::string encode_frame(const obs::Json& header, std::string_view payload) {
  const std::string header_bytes = header.dump();
  CHORTLE_REQUIRE(header_bytes.size() <= kMaxHeaderBytes,
                  "frame header exceeds the protocol limit");
  CHORTLE_REQUIRE(payload.size() <= kMaxPayloadBytes,
                  "frame payload exceeds the protocol limit");
  std::string out;
  out.reserve(kFramePreambleBytes + header_bytes.size() + payload.size());
  out.append(kFrameMagic, sizeof kFrameMagic);
  put_u32(out, static_cast<std::uint32_t>(header_bytes.size()));
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out += header_bytes;
  out.append(payload.data(), payload.size());
  return out;
}

Frame decode_frame(std::string_view bytes) {
  if (bytes.size() < kFramePreambleBytes)
    throw InvalidInput("frame: truncated before the end of the preamble");
  const auto [header_len, payload_len] = check_preamble(
      reinterpret_cast<const unsigned char*>(bytes.data()));
  const std::size_t total = kFramePreambleBytes + header_len + payload_len;
  if (bytes.size() < total)
    throw InvalidInput("frame: truncated body (expected " +
                       std::to_string(total) + " bytes, got " +
                       std::to_string(bytes.size()) + ")");
  if (bytes.size() > total)
    throw InvalidInput("frame: trailing bytes after the frame");
  Frame frame;
  frame.header = parse_header(bytes.substr(kFramePreambleBytes, header_len));
  frame.payload.assign(bytes.substr(kFramePreambleBytes + header_len,
                                    payload_len));
  return frame;
}

namespace {

/// Reads exactly `n` bytes. Returns false on EOF at byte 0 when
/// `eof_ok`; throws on I/O errors or EOF mid-read.
bool read_exact(int fd, char* buf, std::size_t n, bool eof_ok) {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t got = ::read(fd, buf + done, n - done);
    if (got < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("frame read failed: ") +
                               std::strerror(errno));
    }
    if (got == 0) {
      if (done == 0 && eof_ok) return false;
      throw std::runtime_error("connection closed mid-frame");
    }
    done += static_cast<std::size_t>(got);
  }
  return true;
}

}  // namespace

std::optional<Frame> read_frame(int fd) {
  char preamble[kFramePreambleBytes];
  if (!read_exact(fd, preamble, sizeof preamble, /*eof_ok=*/true))
    return std::nullopt;
  const auto [header_len, payload_len] = check_preamble(
      reinterpret_cast<const unsigned char*>(preamble));
  std::string header_bytes(header_len, '\0');
  if (header_len > 0)
    read_exact(fd, header_bytes.data(), header_len, /*eof_ok=*/false);
  Frame frame;
  frame.payload.assign(payload_len, '\0');
  if (payload_len > 0)
    read_exact(fd, frame.payload.data(), payload_len, /*eof_ok=*/false);
  frame.header = parse_header(header_bytes);
  return frame;
}

void FrameAssembler::append(std::string_view bytes) {
  // Compact the consumed prefix before it dominates the buffer; the
  // threshold keeps the amortized cost of erase() linear in traffic.
  if (pos_ > 0 && (pos_ >= buffer_.size() || pos_ > (std::size_t{1} << 16))) {
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
  buffer_.append(bytes.data(), bytes.size());
}

std::optional<Frame> FrameAssembler::next() {
  const std::size_t avail = buffer_.size() - pos_;
  if (!have_preamble_) {
    if (avail < kFramePreambleBytes) return std::nullopt;
    // Throws InvalidInput on bad magic or hostile lengths — before a
    // single body byte is accepted, same as the one-shot decoder.
    const auto [header_len, payload_len] = check_preamble(
        reinterpret_cast<const unsigned char*>(buffer_.data() + pos_));
    header_len_ = header_len;
    payload_len_ = payload_len;
    have_preamble_ = true;
  }
  const std::size_t total = kFramePreambleBytes + header_len_ + payload_len_;
  if (buffer_.size() - pos_ < total) return std::nullopt;
  Frame frame;
  frame.header = parse_header(
      std::string_view(buffer_).substr(pos_ + kFramePreambleBytes,
                                       header_len_));
  frame.payload.assign(buffer_, pos_ + kFramePreambleBytes + header_len_,
                       payload_len_);
  pos_ += total;
  have_preamble_ = false;
  header_len_ = payload_len_ = 0;
  return frame;
}

void write_frame(int fd, const obs::Json& header, std::string_view payload) {
  const std::string bytes = encode_frame(header, payload);
  std::size_t done = 0;
  while (done < bytes.size()) {
    // MSG_NOSIGNAL: a peer that closed mid-conversation (a vanished
    // client, or the acceptor's busy-reject close) must surface as
    // EPIPE, not kill the process with SIGPIPE.
    const ssize_t put = ::send(fd, bytes.data() + done, bytes.size() - done,
                               MSG_NOSIGNAL);
    if (put < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("frame write failed: ") +
                               std::strerror(errno));
    }
    done += static_cast<std::size_t>(put);
  }
}

obs::Json encode_request_header(const MapRequest& request) {
  obs::Json header = obs::Json::object();
  header.set("type", kMapRequestType);
  if (!request.id.empty()) header.set("id", request.id);
  header.set("k", request.k);
  header.set("split_threshold", request.split_threshold);
  header.set("search_decompositions", request.search_decompositions);
  header.set("optimize", request.optimize);
  header.set("verify", request.verify);
  if (request.deadline_ms >= 0) header.set("deadline_ms", request.deadline_ms);
  set_context_fields(header, request.context);
  if (!request.mapper.empty() && request.mapper != "chortle")
    header.set("mapper", request.mapper);
  if (!request.objective.empty() && request.objective != "luts")
    header.set("objective", request.objective);
  if (request.portfolio_budget_ms >= 0)
    header.set("portfolio_budget_ms", request.portfolio_budget_ms);
  return header;
}

MapRequest parse_map_request(const Frame& frame) {
  require_type(frame.header, kMapRequestType);
  MapRequest request;
  request.id = get_string(frame.header, "id", "");
  // Bounds mirror Options::validate so a bad request fails at the
  // protocol edge with a field name instead of deep inside the mapper.
  request.k = get_bounded_int(frame.header, "k", request.k, 2, 6);
  request.split_threshold = get_bounded_int(
      frame.header, "split_threshold", request.split_threshold, 2, 16);
  request.search_decompositions = get_bool(
      frame.header, "search_decompositions", request.search_decompositions);
  request.optimize = get_bool(frame.header, "optimize", false);
  request.verify = get_bool(frame.header, "verify", false);
  request.deadline_ms = get_int(frame.header, "deadline_ms", -1);
  request.mapper = get_string(frame.header, "mapper", "chortle");
  request.objective = get_string(frame.header, "objective", "luts");
  request.portfolio_budget_ms =
      get_int(frame.header, "portfolio_budget_ms", -1);
  request.context.trace_id = get_hex_id(frame.header, "trace_id");
  request.context.span_id = get_hex_id(frame.header, "span_id");
  request.blif = frame.payload;
  if (request.blif.empty())
    throw InvalidInput("map_request: empty BLIF payload");
  return request;
}

obs::Json encode_response_header(const MapResponse& response) {
  obs::Json header = obs::Json::object();
  header.set("type", kMapResponseType);
  header.set("status", response.status);
  if (!response.error.empty()) header.set("error", response.error);
  if (!response.id.empty()) header.set("id", response.id);
  header.set("luts", response.luts);
  header.set("trees", response.trees);
  header.set("depth", response.depth);
  header.set("cache_hits", response.cache_hits);
  header.set("cache_misses", response.cache_misses);
  header.set("seconds", response.seconds);
  if (!response.verified.empty()) header.set("verified", response.verified);
  set_context_fields(header, response.context);
  if (response.cache_coalesced > 0)
    header.set("cache_coalesced", response.cache_coalesced);
  if (response.stages != StageSeconds{}) {
    obs::Json stages = obs::Json::object();
    stages.set("queue_wait", response.stages.queue_wait);
    stages.set("parse", response.stages.parse);
    stages.set("solve", response.stages.solve);
    stages.set("emit", response.stages.emit);
    header.set("stages", std::move(stages));
  }
  // "chortle" stays implicit: the default backend needs no key.
  if (!response.mapper.empty() && response.mapper != "chortle")
    header.set("mapper", response.mapper);
  if (!response.portfolio_winner.empty()) {
    obs::Json portfolio = obs::Json::object();
    portfolio.set("winner", response.portfolio_winner);
    portfolio.set("cancelled", response.portfolio_cancelled);
    portfolio.set("stitched_trees", response.portfolio_stitched_trees);
    header.set("portfolio", std::move(portfolio));
  }
  return header;
}

MapResponse parse_map_response(const Frame& frame) {
  require_type(frame.header, kMapResponseType);
  MapResponse response;
  response.status = get_string(frame.header, "status", "");
  if (response.status.empty())
    throw InvalidInput("map_response: missing status");
  response.error = get_string(frame.header, "error", "");
  response.id = get_string(frame.header, "id", "");
  response.luts = static_cast<int>(get_int(frame.header, "luts", 0));
  response.trees = static_cast<int>(get_int(frame.header, "trees", 0));
  response.depth = static_cast<int>(get_int(frame.header, "depth", 0));
  response.cache_hits =
      static_cast<int>(get_int(frame.header, "cache_hits", 0));
  response.cache_misses =
      static_cast<int>(get_int(frame.header, "cache_misses", 0));
  response.cache_coalesced =
      static_cast<int>(get_int(frame.header, "cache_coalesced", 0));
  const obs::Json* seconds = frame.header.find("seconds");
  if (seconds != nullptr && seconds->is_number())
    response.seconds = seconds->as_number();
  response.verified = get_string(frame.header, "verified", "");
  response.context.trace_id = get_hex_id(frame.header, "trace_id");
  response.context.span_id = get_hex_id(frame.header, "span_id");
  if (const obs::Json* stages = frame.header.find("stages")) {
    if (!stages->is_object())
      throw InvalidInput("map_response: \"stages\" must be an object");
    const auto stage = [&](const char* name) {
      const obs::Json* field = stages->find(name);
      if (field == nullptr) return 0.0;
      if (!field->is_number() || field->as_number() < 0.0)
        throw InvalidInput(std::string("map_response: stages.") + name +
                           " must be a non-negative number");
      return field->as_number();
    };
    response.stages.queue_wait = stage("queue_wait");
    response.stages.parse = stage("parse");
    response.stages.solve = stage("solve");
    response.stages.emit = stage("emit");
  }
  response.mapper = get_string(frame.header, "mapper", "");
  if (const obs::Json* portfolio = frame.header.find("portfolio")) {
    if (!portfolio->is_object())
      throw InvalidInput("map_response: \"portfolio\" must be an object");
    response.portfolio_winner = get_string(*portfolio, "winner", "");
    response.portfolio_cancelled =
        static_cast<int>(get_int(*portfolio, "cancelled", 0));
    response.portfolio_stitched_trees =
        static_cast<int>(get_int(*portfolio, "stitched_trees", 0));
  }
  response.blif = frame.payload;
  return response;
}

bool is_stats_request(const Frame& frame) {
  const obs::Json* type = frame.header.find("type");
  return type != nullptr && type->is_string() &&
         type->as_string() == kStatsRequestType;
}

obs::Json encode_stats_request_header() {
  obs::Json header = obs::Json::object();
  header.set("type", kStatsRequestType);
  return header;
}

obs::Json encode_stats_response_header() {
  obs::Json header = obs::Json::object();
  header.set("type", kStatsResponseType);
  return header;
}

obs::Json parse_stats_response(const Frame& frame) {
  require_type(frame.header, kStatsResponseType);
  obs::Json doc = obs::Json::parse(frame.payload);
  const std::vector<std::string> problems = obs::validate_serve_stats(doc);
  if (!problems.empty()) {
    std::string what = "stats_response: invalid " +
                       std::string(obs::kServeStatsSchema) + " payload:";
    for (const std::string& problem : problems) what += "\n  - " + problem;
    throw InvalidInput(what);
  }
  return doc;
}

}  // namespace chortle::serve
