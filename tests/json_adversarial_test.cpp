// Adversarial inputs into the service request-decode path: the frame
// decoder (serve/protocol.hpp) and the obs::Json parser behind it are
// the only code that touches bytes from an untrusted socket, so every
// hostile shape here must produce a clean InvalidInput — never a
// crash, a hang, or an allocation sized by attacker-chosen lengths.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "base/check.hpp"
#include "base/rng.hpp"
#include "obs/json.hpp"
#include "obs/serve_stats.hpp"
#include "serve/protocol.hpp"

namespace chortle::serve {
namespace {

std::string be32(std::uint32_t value) {
  std::string out(4, '\0');
  out[0] = static_cast<char>(value >> 24);
  out[1] = static_cast<char>(value >> 16);
  out[2] = static_cast<char>(value >> 8);
  out[3] = static_cast<char>(value);
  return out;
}

std::string raw_frame(const std::string& magic, std::uint32_t header_len,
                      std::uint32_t payload_len, const std::string& body) {
  return magic + be32(header_len) + be32(payload_len) + body;
}

std::string good_frame() {
  return encode_frame(obs::Json::object(), "payload");
}

TEST(FrameDecode, RoundTripsAWellFormedFrame) {
  obs::Json header = obs::Json::object();
  header.set("type", "map_request/1");
  const Frame frame = decode_frame(encode_frame(header, "abc"));
  EXPECT_EQ(frame.payload, "abc");
  ASSERT_NE(frame.header.find("type"), nullptr);
  EXPECT_EQ(frame.header.find("type")->as_string(), "map_request/1");
}

TEST(FrameDecode, RejectsBadMagic) {
  std::string bytes = good_frame();
  bytes[0] = 'X';
  EXPECT_THROW(decode_frame(bytes), InvalidInput);
  EXPECT_THROW(decode_frame("CSv2" + good_frame().substr(4)), InvalidInput);
}

TEST(FrameDecode, RejectsTruncationAtEveryBoundary) {
  const std::string bytes = good_frame();
  // Every proper prefix is a truncated frame; none may decode and none
  // may crash (this sweeps preamble, header, and payload truncation).
  for (std::size_t len = 0; len < bytes.size(); ++len)
    EXPECT_THROW(decode_frame(bytes.substr(0, len)), InvalidInput) << len;
}

TEST(FrameDecode, RejectsTrailingGarbage) {
  EXPECT_THROW(decode_frame(good_frame() + "x"), InvalidInput);
}

TEST(FrameDecode, RejectsOversizedLengthFieldsBeforeAllocating) {
  // Lengths just past the limits, and the classic 0xFFFFFFFF. The body
  // is tiny: a decoder that believed the length would over-read or
  // over-allocate; the contract is an InvalidInput before either.
  EXPECT_THROW(
      decode_frame(raw_frame("CSv1", static_cast<std::uint32_t>(kMaxHeaderBytes + 1),
                             0, "{}")),
      InvalidInput);
  EXPECT_THROW(
      decode_frame(raw_frame(
          "CSv1", 2, static_cast<std::uint32_t>(kMaxPayloadBytes + 1), "{}")),
      InvalidInput);
  EXPECT_THROW(decode_frame(raw_frame("CSv1", 0xFFFFFFFFu, 0xFFFFFFFFu, "")),
               InvalidInput);
}

TEST(FrameDecode, RejectsMalformedHeaderJson) {
  for (const std::string header :
       {std::string("{"), std::string("nul"), std::string("{\"a\":}"),
        std::string("[]trail"), std::string("\xff\xfe"), std::string()}) {
    const std::string bytes =
        raw_frame("CSv1", static_cast<std::uint32_t>(header.size()), 0, header);
    EXPECT_THROW(decode_frame(bytes), InvalidInput) << header;
  }
}

TEST(FrameAssembler, ByteAtATimeFeedMatchesWholeFrameDecode) {
  obs::Json header = obs::Json::object();
  header.set("type", "map_request/1");
  header.set("id", "drip");
  const std::string bytes = encode_frame(header, "payload bytes");
  // The slowest possible peer: one byte per append. The assembler must
  // stay mid-frame (nullopt) until the very last byte, then yield the
  // same frame decode_frame sees.
  serve::FrameAssembler assembler;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    assembler.append(std::string_view(bytes).substr(i, 1));
    EXPECT_EQ(assembler.next(), std::nullopt) << "byte " << i;
  }
  assembler.append(std::string_view(bytes).substr(bytes.size() - 1, 1));
  const std::optional<Frame> frame = assembler.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->payload, "payload bytes");
  ASSERT_NE(frame->header.find("id"), nullptr);
  EXPECT_EQ(frame->header.find("id")->as_string(), "drip");
  EXPECT_EQ(assembler.buffered_bytes(), 0u);
  EXPECT_EQ(assembler.next(), std::nullopt);
}

TEST(FrameAssembler, OneAppendCanCompleteSeveralPipelinedFrames) {
  std::string wire;
  for (int i = 0; i < 3; ++i) {
    obs::Json header = obs::Json::object();
    header.set("id", "req-" + std::to_string(i));
    wire += encode_frame(header, "p" + std::to_string(i));
  }
  // Plus the start of a fourth frame: three complete frames come out in
  // order, the partial tail stays buffered.
  obs::Json tail_header = obs::Json::object();
  tail_header.set("id", "req-3");
  const std::string tail = encode_frame(tail_header, "p3");
  wire += tail.substr(0, tail.size() / 2);

  serve::FrameAssembler assembler;
  assembler.append(wire);
  for (int i = 0; i < 3; ++i) {
    const std::optional<Frame> frame = assembler.next();
    ASSERT_TRUE(frame.has_value()) << i;
    ASSERT_NE(frame->header.find("id"), nullptr);
    EXPECT_EQ(frame->header.find("id")->as_string(),
              "req-" + std::to_string(i));
    EXPECT_EQ(frame->payload, "p" + std::to_string(i));
  }
  EXPECT_EQ(assembler.next(), std::nullopt);
  EXPECT_GT(assembler.buffered_bytes(), 0u);
  assembler.append(tail.substr(tail.size() / 2));
  const std::optional<Frame> fourth = assembler.next();
  ASSERT_TRUE(fourth.has_value());
  EXPECT_EQ(fourth->payload, "p3");
}

TEST(FrameAssembler, RejectsHostilePreamblesAsEarlyAsDecodeFrame) {
  // Bad magic and oversized length fields are detectable from the
  // 12-byte preamble; the assembler must throw there instead of
  // buffering toward an attacker-chosen length.
  {
    serve::FrameAssembler assembler;
    assembler.append("XSv1" + be32(2) + be32(0) + "{}");
    EXPECT_THROW(assembler.next(), InvalidInput);
  }
  {
    serve::FrameAssembler assembler;
    assembler.append(raw_frame(
        "CSv1", static_cast<std::uint32_t>(kMaxHeaderBytes + 1), 0, ""));
    EXPECT_THROW(assembler.next(), InvalidInput);
  }
  {
    serve::FrameAssembler assembler;
    assembler.append(raw_frame("CSv1", 0xFFFFFFFFu, 0xFFFFFFFFu, ""));
    EXPECT_THROW(assembler.next(), InvalidInput);
  }
}

TEST(JsonHardening, DeepNestingFailsCleanlyInsteadOfOverflowing) {
  // 4000 levels would overflow the recursive-descent stack without the
  // depth cap; the cap (128) turns it into a clean parse error.
  const std::string deep_arrays(4000, '[');
  EXPECT_THROW(obs::Json::parse(deep_arrays), InvalidInput);
  std::string deep_objects;
  for (int i = 0; i < 4000; ++i) deep_objects += "{\"k\":";
  EXPECT_THROW(obs::Json::parse(deep_objects), InvalidInput);

  // At exactly the cap the document still parses.
  std::string ok(127, '[');
  ok += "1";
  ok += std::string(127, ']');
  EXPECT_NO_THROW(obs::Json::parse(ok));
}

TEST(JsonHardening, RejectsInvalidUtf8InStrings) {
  for (const std::string body : {
           std::string("\"\xc0\xaf\""),          // overlong '/'
           std::string("\"\x80\""),              // stray continuation
           std::string("\"\xc2\""),              // truncated 2-byte seq
           std::string("\"\xe0\x80\x80\""),      // overlong 3-byte
           std::string("\"\xed\xa0\x80\""),      // UTF-16 surrogate
           std::string("\"\xf4\x90\x80\x80\""),  // beyond U+10FFFF
           std::string("\"\xf5\x80\x80\x80\""),  // lead byte > F4
           std::string("\"\xc2""a\""),           // continuation missing
       }) {
    EXPECT_THROW(obs::Json::parse(body), InvalidInput) << body;
  }
  // Well-formed multibyte text still round-trips.
  const obs::Json parsed = obs::Json::parse("\"caf\xc3\xa9 \xe2\x9c\x93\"");
  EXPECT_EQ(parsed.as_string(), "caf\xc3\xa9 \xe2\x9c\x93");
}

TEST(JsonHardening, RejectsOversizedEscapes) {
  EXPECT_THROW(obs::Json::parse("\"\\uD800\""), InvalidInput);  // lone surrogate
  EXPECT_THROW(obs::Json::parse("\"\\ud800\\u0041\""), InvalidInput);
  EXPECT_NO_THROW(obs::Json::parse("\"\\ud83d\\ude00\""));  // paired is fine
}

TEST(RequestParse, RejectsWrongTypesAndOutOfRangeOptions) {
  const auto request_frame = [](const std::string& header_body,
                                const std::string& payload) {
    Frame frame;
    frame.header = obs::Json::parse(header_body);
    frame.payload = payload;
    return frame;
  };
  // Valid baseline parses.
  EXPECT_NO_THROW(parse_map_request(
      request_frame("{\"type\":\"map_request/1\",\"k\":4}", ".model m\n.end\n")));
  // Missing/wrong type tag.
  EXPECT_THROW(parse_map_request(request_frame("{}", "x")), InvalidInput);
  EXPECT_THROW(
      parse_map_request(request_frame("{\"type\":\"nope/9\"}", "x")),
      InvalidInput);
  // Field of the wrong JSON kind.
  EXPECT_THROW(parse_map_request(request_frame(
                   "{\"type\":\"map_request/1\",\"k\":\"four\"}", "x")),
               InvalidInput);
  // Out-of-range option values (mirrors Options::validate bounds).
  for (const char* bad :
       {"{\"type\":\"map_request/1\",\"k\":1}",
        "{\"type\":\"map_request/1\",\"k\":7}",
        "{\"type\":\"map_request/1\",\"split_threshold\":1}",
        "{\"type\":\"map_request/1\",\"split_threshold\":17}"}) {
    EXPECT_THROW(parse_map_request(request_frame(bad, "x")), InvalidInput)
        << bad;
  }
  // Empty payload: there is nothing to map.
  EXPECT_THROW(
      parse_map_request(request_frame("{\"type\":\"map_request/1\"}", "")),
      InvalidInput);
}

TEST(FrameDecode, RandomBytesNeverCrashTheDecoder) {
  // Deterministic fuzz sweep: random buffers, and random corruptions of
  // a valid frame (the nastier case — magic and lengths often survive).
  Rng rng(20260805);
  const std::string valid = good_frame();
  for (int iter = 0; iter < 2000; ++iter) {
    std::string bytes;
    if (iter % 2 == 0) {
      bytes.resize(rng.next_below(64));
      for (char& byte : bytes)
        byte = static_cast<char>(rng.next_below(256));
    } else {
      bytes = valid;
      const int flips = 1 + static_cast<int>(rng.next_below(4));
      for (int i = 0; i < flips && !bytes.empty(); ++i)
        bytes[rng.next_below(bytes.size())] =
            static_cast<char>(rng.next_below(256));
    }
    try {
      const Frame frame = decode_frame(bytes);
      (void)frame;  // surviving corruption intact is acceptable
    } catch (const InvalidInput&) {
      // expected for nearly every input
    }
    // Anything else (segfault, std::bad_alloc from a hostile length,
    // InternalError) fails the test by escaping.
  }
}

TEST(RequestParse, RejectsMalformedTraceIds) {
  const auto request_frame = [](const std::string& header_body) {
    Frame frame;
    frame.header = obs::Json::parse(header_body);
    frame.payload = ".model m\n.end\n";
    return frame;
  };
  // A well-formed context round-trips.
  const MapRequest good = parse_map_request(request_frame(
      "{\"type\":\"map_request/1\","
      "\"trace_id\":\"0123456789abcdef\",\"span_id\":\"00000000000000ff\"}"));
  EXPECT_EQ(good.context.trace_id, 0x0123456789abcdefull);
  EXPECT_EQ(good.context.span_id, 0xffull);
  // Absent context is fine and parses to "none".
  EXPECT_FALSE(parse_map_request(request_frame("{\"type\":\"map_request/1\"}"))
                   .context.valid());
  // Present-but-malformed is a hard error: a peer must not be able to
  // smuggle arbitrary strings into trace files.
  for (const char* bad :
       {"{\"type\":\"map_request/1\",\"trace_id\":\"xyz\"}",
        "{\"type\":\"map_request/1\",\"trace_id\":\"0123456789ABCDEF\"}",
        "{\"type\":\"map_request/1\",\"trace_id\":\"0123\"}",
        "{\"type\":\"map_request/1\",\"trace_id\":\"0123456789abcdef0\"}",
        "{\"type\":\"map_request/1\",\"trace_id\":42}",
        "{\"type\":\"map_request/1\",\"span_id\":\" 123456789abcdef\"}"}) {
    EXPECT_THROW(parse_map_request(request_frame(bad)), InvalidInput) << bad;
  }
}

TEST(ResponseParse, RejectsMalformedStageTimings) {
  const auto response_frame = [](const std::string& header_body) {
    Frame frame;
    frame.header = obs::Json::parse(header_body);
    return frame;
  };
  const MapResponse good = parse_map_response(response_frame(
      "{\"type\":\"map_response/1\",\"status\":\"ok\","
      "\"stages\":{\"queue_wait\":0.0,\"parse\":0.001,\"solve\":0.01,"
      "\"emit\":0.002}}"));
  EXPECT_DOUBLE_EQ(good.stages.solve, 0.01);
  for (const char* bad :
       {"{\"type\":\"map_response/1\",\"status\":\"ok\",\"stages\":7}",
        "{\"type\":\"map_response/1\",\"status\":\"ok\","
        "\"stages\":{\"solve\":-1.0}}",
        "{\"type\":\"map_response/1\",\"status\":\"ok\","
        "\"stages\":{\"parse\":\"fast\"}}"}) {
    EXPECT_THROW(parse_map_response(response_frame(bad)), InvalidInput) << bad;
  }
}

// ---------------------------------------------------------------------
// chortle-serve-stats/1: the validator sits behind the STATS client
// path, so hostile documents must produce problem lists, never throws.

std::string valid_stats_text() {
  return R"({"schema":"chortle-serve-stats/1","uptime_seconds":1.5,)"
         R"("in_flight":0,"open_connections":1,)"
         R"("queue_depth":0,"queue_high_water":2,)"
         R"("config":{"workers":4,"queue_capacity":16,"max_connections":64,)"
         R"("idle_timeout_ms":60000,"map_jobs":1,)"
         R"("cache_bytes":1048576},)"
         R"("requests":{"accepted":3,"served":3,"ok":3,"rejected_busy":0,)"
         R"("deadline_errors":0,"invalid_requests":0,"internal_errors":0,)"
         R"("stats_requests":1,"idle_closed":0},)"
         R"("dp_cache":{"hits":5,"misses":2,"insertions":2,"evictions":0,)"
         R"("coalesced":0,"entries":2,"bytes":2048,"hit_rate":0.714},)"
         R"("stages":{"request":{"count":3,"sum":0.03,"min":0.005,)"
         R"("max":0.02,"p50":0.01,"p90":0.02,"p99":0.02,"p999":0.02,)"
         R"("buckets":[{"lo":0.005,"count":3}]}}})";
}

TEST(StatsValidation, AcceptsAWellFormedDocument) {
  const obs::Json doc = obs::Json::parse(valid_stats_text());
  EXPECT_TRUE(obs::validate_serve_stats(doc).empty());
}

TEST(StatsValidation, ReportsEveryStructuralProblemWithoutThrowing) {
  // Each mutation breaks one clause; the validator must name it.
  const auto problems_of = [](const std::string& text) {
    return obs::validate_serve_stats(obs::Json::parse(text));
  };
  EXPECT_FALSE(problems_of("{}").empty());
  EXPECT_FALSE(problems_of("[1,2,3]").empty());
  EXPECT_FALSE(problems_of("42").empty());
  // Wrong schema tag.
  std::string wrong_schema = valid_stats_text();
  wrong_schema.replace(wrong_schema.find("stats/1"), 7, "stats/9");
  EXPECT_FALSE(problems_of(wrong_schema).empty());
  // hit_rate outside [0, 1].
  std::string bad_rate = valid_stats_text();
  bad_rate.replace(bad_rate.find("0.714"), 5, "1.714");
  EXPECT_FALSE(problems_of(bad_rate).empty());
  // Non-monotone quantiles.
  std::string bad_quantiles = valid_stats_text();
  bad_quantiles.replace(bad_quantiles.find("\"p90\":0.02"), 10,
                        "\"p90\":0.001");
  EXPECT_FALSE(problems_of(bad_quantiles).empty());
}

TEST(StatsValidation, FuzzedDocumentsNeverThrow) {
  // Corrupt the valid document's bytes; whatever still parses as JSON
  // must flow through the validator without an exception escaping.
  Rng rng(20260808);
  const std::string valid = valid_stats_text();
  int still_parsed = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    std::string text = valid;
    const int edits = 1 + static_cast<int>(rng.next_below(6));
    for (int e = 0; e < edits; ++e) {
      const std::size_t at = rng.next_below(text.size());
      switch (rng.next_below(3)) {
        case 0:
          text[at] = static_cast<char>(rng.next_below(128));
          break;
        case 1:
          text.erase(at, 1 + rng.next_below(4));
          break;
        default:
          text.insert(at, 1, static_cast<char>('0' + rng.next_below(10)));
          break;
      }
      if (text.empty()) text = "0";
    }
    obs::Json doc;
    try {
      doc = obs::Json::parse(text);
    } catch (const InvalidInput&) {
      continue;  // not this test's concern (JsonHardening covers it)
    }
    ++still_parsed;
    const std::vector<std::string> problems = obs::validate_serve_stats(doc);
    (void)problems;  // any outcome is fine; escaping exceptions are not
  }
  // The mutator is gentle enough that a meaningful fraction of inputs
  // reaches the validator; otherwise this test fuzzes only the parser.
  EXPECT_GT(still_parsed, 100);
}

TEST(StatsResponseParse, RejectsInvalidPayloads) {
  const auto stats_frame = [](const std::string& header_body,
                              const std::string& payload) {
    Frame frame;
    frame.header = obs::Json::parse(header_body);
    frame.payload = payload;
    return frame;
  };
  // Valid round trip.
  EXPECT_NO_THROW(parse_stats_response(stats_frame(
      "{\"type\":\"stats_response/1\"}", valid_stats_text())));
  // Wrong type tag.
  EXPECT_THROW(parse_stats_response(stats_frame(
                   "{\"type\":\"map_response/1\",\"status\":\"ok\"}",
                   valid_stats_text())),
               InvalidInput);
  // Payload is not JSON at all.
  EXPECT_THROW(parse_stats_response(stats_frame(
                   "{\"type\":\"stats_response/1\"}", "not json")),
               InvalidInput);
  // Parses but fails schema validation; the error lists the findings.
  try {
    parse_stats_response(
        stats_frame("{\"type\":\"stats_response/1\"}", "{\"schema\":\"x\"}"));
    FAIL() << "invalid stats payload was accepted";
  } catch (const InvalidInput& error) {
    EXPECT_NE(std::string(error.what()).find("schema"), std::string::npos);
  }
}

}  // namespace
}  // namespace chortle::serve
