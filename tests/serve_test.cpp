// End-to-end tests of the mapping service (src/serve): a real Server on
// a real Unix (and TCP) socket, driven through the client library. The
// acceptance properties of the service PR live here: cache hits across
// requests with byte-identical output, deadline errors without mapping
// work, busy backpressure, and graceful shutdown. The whole file runs
// under the TSan CI configuration like every other test.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "blif/blif.hpp"
#include "chortle/mapper.hpp"
#include "helpers.hpp"
#include "mcnc/generators.hpp"
#include "obs/serve_stats.hpp"
#include "opt/decompose.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace chortle::serve {
namespace {

/// Short, per-process socket path: sun_path is only ~108 bytes, so the
/// build-tree cwd is not a safe prefix.
std::string test_socket_path(const char* tag) {
  return "/tmp/chortle_test_" + std::to_string(::getpid()) + "_" + tag +
         ".sock";
}

std::string benchmark_blif(const std::string& name) {
  return blif::write_blif_string(mcnc::generate(name), name);
}

/// What the offline CLI (examples/map_blif --no-optimize) produces for
/// the same BLIF text — the byte-identity reference.
std::string offline_mapping(const std::string& blif_text, int k) {
  const blif::BlifModel model = blif::read_blif_string(blif_text);
  core::Options options;
  options.k = k;
  const core::MapResult result =
      core::map_network(opt::decompose_to_and_or(model.network), options);
  return blif::write_blif_string(result.circuit, model.name + "_luts");
}

/// Raw client socket speaking frames directly — stands in for a
/// hand-built or hostile peer.
int raw_connect(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  return fd;
}

/// An idle keep-alive adversary: 4 bytes of preamble, then silence.
/// Under the old blocking design this pinned a worker inside a frame
/// read; under the event loop it costs a socket and a 4-byte buffer.
int raw_partial_connection(const std::string& path) {
  const int fd = raw_connect(path);
  EXPECT_EQ(::send(fd, "CSv1", 4, MSG_NOSIGNAL), 4);
  return fd;
}

TEST(Serve, MapsTwiceWithCacheHitsAndByteIdenticalOutput) {
  ServerConfig config;
  config.unix_path = test_socket_path("twice");
  config.workers = 2;
  Server server(config);
  server.start();

  const std::string blif_text = benchmark_blif("count");
  const std::string reference = offline_mapping(blif_text, 3);

  MapRequest request;
  request.k = 3;
  request.blif = blif_text;

  Client client = Client::connect_unix(config.unix_path);
  const MapResponse first = client.map(request);
  ASSERT_TRUE(first.ok()) << first.error;
  EXPECT_EQ(first.blif, reference);
  EXPECT_GT(first.cache_misses, 0);

  const MapResponse second = client.map(request);
  ASSERT_TRUE(second.ok()) << second.error;
  EXPECT_EQ(second.blif, reference);
  EXPECT_GT(second.cache_hits, 0) << "second identical request must hit";
  EXPECT_EQ(second.cache_misses, 0);
  EXPECT_EQ(second.luts, first.luts);

  const core::DpCache::Stats cache = server.cache_stats();
  EXPECT_GT(cache.hits, 0u);
  server.shutdown();
  const Server::Counters counters = server.counters();
  EXPECT_EQ(counters.served, 2u);
  EXPECT_EQ(counters.ok, 2u);
}

TEST(Serve, ServesSequentialRequestsOnOneConnectionAndManyClients) {
  ServerConfig config;
  config.unix_path = test_socket_path("many");
  config.workers = 3;
  Server server(config);
  server.start();

  const std::string blif_text = benchmark_blif("9symml");
  const std::string reference = offline_mapping(blif_text, 4);

  std::vector<std::thread> threads;
  std::vector<std::string> results(3);
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      Client client = Client::connect_unix(config.unix_path);
      for (int r = 0; r < 2; ++r) {
        MapRequest request;
        request.id = "t" + std::to_string(t);
        request.blif = blif_text;
        const MapResponse response = client.map(request);
        ASSERT_TRUE(response.ok()) << response.error;
        results[static_cast<std::size_t>(t)] = response.blif;
        EXPECT_EQ(response.id, request.id);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::string& result : results) EXPECT_EQ(result, reference);
  server.shutdown();
  EXPECT_EQ(server.counters().served, 6u);
}

TEST(Serve, ExpiredDeadlineReturnsDeadlineErrorWithoutMappingWork) {
  ServerConfig config;
  config.unix_path = test_socket_path("deadline");
  config.workers = 1;
  Server server(config);
  server.start();

  MapRequest request;
  request.deadline_ms = 0;  // expired on arrival
  request.blif = benchmark_blif("alu2");
  Client client = Client::connect_unix(config.unix_path);
  const MapResponse response = client.map(request);
  EXPECT_EQ(response.status, "deadline");
  EXPECT_FALSE(response.error.empty());
  EXPECT_TRUE(response.blif.empty());

  // "Without mapping work": nothing was solved, so nothing entered the
  // DP cache and no tree DP ran at all.
  const core::DpCache::Stats cache = server.cache_stats();
  EXPECT_EQ(cache.misses, 0u);
  EXPECT_EQ(cache.insertions, 0u);
  server.shutdown();
  EXPECT_EQ(server.counters().deadline_errors, 1u);
}

TEST(Serve, DeadlineFiresInsideDivisorExtraction) {
  // optimize:true runs the optimizer inside the request's deadline. With
  // a clock that advances 1 ms per read, the token's reads are: made,
  // the pickup check, then one per extraction round — so a 5 ms budget
  // lets alu4's rounds 0-2 run and fires at round 3 of its 88.
  const testing::TickingClock clock;
  ServerConfig config;
  config.unix_path = test_socket_path("optdeadline");
  config.workers = 1;
  config.clock = &clock;
  Server server(config);
  server.start();

  MapRequest request;
  request.optimize = true;
  request.deadline_ms = 5;
  request.blif = benchmark_blif("alu4");
  Client client = Client::connect_unix(config.unix_path);
  const MapResponse response = client.map(request);
  EXPECT_EQ(response.status, "deadline");
  EXPECT_NE(response.error.find("opt.extract"), std::string::npos)
      << response.error;
  EXPECT_TRUE(response.blif.empty());
  EXPECT_EQ(server.cache_stats().misses, 0u);  // mapping never started
  server.shutdown();
  EXPECT_EQ(server.counters().deadline_errors, 1u);
}

TEST(Serve, InvalidBlifAndMalformedHeaderYieldInvalidStatus) {
  ServerConfig config;
  config.unix_path = test_socket_path("invalid");
  config.workers = 1;
  Server server(config);
  server.start();

  MapRequest request;
  request.blif = "this is not blif\n";
  Client client = Client::connect_unix(config.unix_path);
  const MapResponse bad_payload = client.map(request);
  EXPECT_EQ(bad_payload.status, "invalid");
  EXPECT_FALSE(bad_payload.error.empty());

  // Out-of-range option off the wire (k = 9): rejected at request
  // parse, still a clean response on the same connection.
  request.blif = benchmark_blif("count");
  request.k = 9;
  const MapResponse bad_option = client.map(request);
  EXPECT_EQ(bad_option.status, "invalid");
  server.shutdown();
  EXPECT_EQ(server.counters().invalid_requests, 2u);
}

TEST(Serve, VerifyFlagRunsTheEquivalenceOracle) {
  ServerConfig config;
  config.unix_path = test_socket_path("verify");
  config.workers = 1;
  Server server(config);
  server.start();

  MapRequest request;
  request.verify = true;
  request.blif = benchmark_blif("count");
  Client client = Client::connect_unix(config.unix_path);
  const MapResponse response = client.map(request);
  ASSERT_TRUE(response.ok()) << response.error;
  EXPECT_EQ(response.verified, "equivalent");
  server.shutdown();
}

/// A request whose cold solve takes long enough (~400 ms in release,
/// more under sanitizers) that the test can arrange server state around
/// it; every wait below is gated on observable server state, not time.
MapRequest slow_request() {
  MapRequest request;
  request.blif = benchmark_blif("alu4");
  request.k = 6;
  request.split_threshold = 14;
  return request;
}

TEST(Serve, FullAdmissionQueueRejectsWithBusy) {
  ServerConfig config;
  config.unix_path = test_socket_path("busy");
  config.workers = 1;
  config.queue_capacity = 1;
  Server server(config);
  server.start();

  // Occupy the single worker with a genuinely slow solve.
  std::thread solving([&] {
    Client client = Client::connect_unix(config.unix_path);
    const MapResponse response = client.map(slow_request());
    EXPECT_TRUE(response.ok()) << response.error;
  });
  for (int i = 0; i < 5000 && server.in_flight_requests() == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_EQ(server.in_flight_requests(), 1u);

  // Fill the one queue slot with a second complete request.
  std::thread queued([&] {
    Client client = Client::connect_unix(config.unix_path);
    MapRequest request;
    request.blif = benchmark_blif("count");
    const MapResponse response = client.map(request);
    EXPECT_TRUE(response.ok()) << response.error;
  });
  for (int i = 0; i < 5000 && server.queue_depth() == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_EQ(server.queue_depth(), 1u);

  // Overflow: a third request must be rejected "busy" by the event
  // loop itself — no worker is free to even look at it.
  Client overflow = Client::connect_unix(config.unix_path);
  MapRequest request;
  request.blif = benchmark_blif("count");
  const MapResponse response = overflow.map(request);
  EXPECT_EQ(response.status, "busy");
  EXPECT_TRUE(response.blif.empty());

  // The slow and the queued request are unaffected by the rejection.
  solving.join();
  queued.join();
  server.shutdown();
  EXPECT_GE(server.counters().rejected_busy, 1u);
  EXPECT_EQ(server.counters().ok, 2u);
}

TEST(Serve, MaxConnectionsRejectFreshConnectionsWithBusy) {
  ServerConfig config;
  config.unix_path = test_socket_path("conncap");
  config.workers = 1;
  config.max_connections = 2;
  Server server(config);
  server.start();

  const int idle1 = raw_partial_connection(config.unix_path);
  const int idle2 = raw_partial_connection(config.unix_path);
  ASSERT_GE(idle1, 0);
  ASSERT_GE(idle2, 0);
  for (int i = 0; i < 5000 && server.open_connections() < 2; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_EQ(server.open_connections(), 2u);

  // The connection budget is exhausted: a fresh connection gets a
  // best-effort busy frame and an immediate close.
  Client overflow = Client::connect_unix(config.unix_path);
  MapRequest request;
  request.blif = benchmark_blif("count");
  const MapResponse response = overflow.map(request);
  EXPECT_EQ(response.status, "busy");

  ::close(idle1);
  ::close(idle2);
  server.shutdown();
  EXPECT_GE(server.counters().rejected_busy, 1u);
}

TEST(Serve, TcpListenerWithEphemeralPort) {
  ServerConfig config;
  config.tcp_port = 0;  // ephemeral
  config.workers = 1;
  Server server(config);
  server.start();
  ASSERT_GT(server.tcp_port(), 0);

  MapRequest request;
  request.blif = benchmark_blif("count");
  Client client = Client::connect_tcp("127.0.0.1", server.tcp_port());
  const MapResponse response = client.map(request);
  EXPECT_TRUE(response.ok()) << response.error;
  server.shutdown();
}

TEST(Serve, ShutdownIsGracefulAndIdempotent) {
  ServerConfig config;
  config.unix_path = test_socket_path("drain");
  config.workers = 2;
  Server server(config);
  server.start();

  // In-flight request racing shutdown: it must complete, not be cut.
  Client client = Client::connect_unix(config.unix_path);
  MapRequest request;
  request.blif = benchmark_blif("count");
  std::thread requester([&] {
    const MapResponse response = client.map(request);
    EXPECT_TRUE(response.ok()) << response.error;
  });
  // Let the request frame reach the socket; once its bytes are pending
  // the drain contract guarantees it is served, not cut.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server.shutdown();
  requester.join();
  server.shutdown();  // idempotent
  EXPECT_EQ(server.counters().ok, 1u);

  // The socket file is gone and new connections are refused.
  EXPECT_THROW(Client::connect_unix(config.unix_path), std::runtime_error);
}

TEST(Serve, RunReportRecordsOneRowPerRequest) {
  ServerConfig config;
  config.unix_path = test_socket_path("report");
  config.workers = 1;
  Server server(config);
  server.start();

  MapRequest request;
  request.id = "report-row";
  request.blif = benchmark_blif("count");
  Client client = Client::connect_unix(config.unix_path);
  ASSERT_TRUE(client.map(request).ok());
  server.shutdown();

  const std::string path =
      "/tmp/chortle_test_report_" + std::to_string(::getpid()) + ".json";
  ASSERT_TRUE(server.write_report(path));
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string report = buffer.str();
  EXPECT_NE(report.find("chortle-run-report/1"), std::string::npos);
  EXPECT_NE(report.find("report-row"), std::string::npos);
  EXPECT_NE(report.find("cache_hits"), std::string::npos);
  ::unlink(path.c_str());
}

TEST(Serve, RunReportKeepsOnlyTheMostRecentRows) {
  ServerConfig config;
  config.unix_path = test_socket_path("reportcap");
  config.workers = 1;
  Server server(config);
  server.start();

  MapRequest request;
  request.blif = ".model tiny\n.inputs a b\n.outputs y\n.names a b y\n"
                 "11 1\n.end\n";
  Client client = Client::connect_unix(config.unix_path);
  const std::size_t total = Server::kReportRows + 8;
  for (std::size_t i = 0; i < total; ++i) {
    request.id = "row" + std::to_string(i);
    ASSERT_TRUE(client.map(request).ok());
  }
  server.shutdown();

  const std::string path =
      "/tmp/chortle_test_reportcap_" + std::to_string(::getpid()) + ".json";
  ASSERT_TRUE(server.write_report(path));
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const obs::Json report = obs::Json::parse(buffer.str());
  ::unlink(path.c_str());

  // The rows are the newest kReportRows, oldest first ...
  const obs::Json::Array& rows = report.find("benchmarks")->as_array();
  ASSERT_EQ(rows.size(), Server::kReportRows);
  EXPECT_EQ(rows.front().find("id")->as_string(), "row8");
  EXPECT_EQ(rows.back().find("id")->as_string(),
            "row" + std::to_string(total - 1));
  // ... while the aggregates still count every request.
  EXPECT_EQ(server.counters().served, total);
  EXPECT_EQ(report.find("requests")->find("served")->as_int(),
            static_cast<std::int64_t>(total));
  EXPECT_EQ(report.find("hdr")
                ->find("serve.stage.request")
                ->find("count")
                ->as_int(),
            static_cast<std::int64_t>(total));
}

TEST(Serve, StampedeSolvesEachContestedTreeOnce) {
  // A cold server and eight barrier-synced clients mapping one Table-2
  // circuit: with four workers solving the same tree sequence at once,
  // a lookup of a tree another worker is still solving must wait for
  // that solve (coalesce) instead of running the DP again. Timing
  // decides how many lookups coalesce rather than hit; the totals
  // asserted below hold either way, and fail as soon as one contested
  // tree is solved twice.
  constexpr int kClients = 8;
  MapRequest request;
  request.k = 4;
  // Wide nodes left unsplit make des's costliest trees slow to solve,
  // so the four concurrent requests reliably meet on one in flight.
  request.split_threshold = 14;
  request.blif = benchmark_blif("des");

  ServerConfig config;
  config.workers = 4;
  config.unix_path = test_socket_path("stampsolo");
  MapResponse solo;
  core::DpCache::Stats solo_cache;
  {
    Server server(config);
    server.start();
    solo = Client::connect_unix(config.unix_path).map(request);
    solo_cache = server.cache_stats();
    server.shutdown();
  }
  ASSERT_TRUE(solo.ok()) << solo.error;
  ASSERT_GT(solo_cache.misses, 0u);
  EXPECT_EQ(solo_cache.coalesced, 0u);
  const std::uint64_t solo_lookups = solo_cache.hits + solo_cache.misses;

  config.unix_path = test_socket_path("stampede");
  Server server(config);
  server.start();
  std::vector<Client> clients;
  for (int c = 0; c < kClients; ++c)
    clients.push_back(Client::connect_unix(config.unix_path));
  std::vector<MapResponse> responses(kClients);
  std::atomic<int> arrived{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      arrived.fetch_add(1);
      while (arrived.load() < kClients) std::this_thread::yield();
      responses[static_cast<std::size_t>(c)] =
          clients[static_cast<std::size_t>(c)].map(request);
    });
  }
  for (std::thread& thread : threads) thread.join();
  const core::DpCache::Stats cache = server.cache_stats();
  server.shutdown();

  for (const MapResponse& response : responses) {
    ASSERT_TRUE(response.ok()) << response.error;
    EXPECT_EQ(response.blif, solo.blif);
    EXPECT_EQ(response.luts, solo.luts);
    EXPECT_EQ(response.depth, solo.depth);
  }
  // Every distinct tree was solved exactly once across all eight
  // requests: the lookups that did not hit a resident entry waited for
  // the one in flight.
  EXPECT_EQ(cache.misses, solo_cache.misses);
  EXPECT_EQ(cache.insertions, solo_cache.misses);
  EXPECT_EQ(cache.hits + cache.coalesced + cache.misses,
            kClients * solo_lookups);
}

// ---------------------------------------------------------------------
// Trace context + per-stage timings on every response.

TEST(ServeProtocol, NewClientGetsEchoedContextAndStages) {
  ServerConfig config;
  config.unix_path = test_socket_path("v2peer");
  config.workers = 1;
  Server server(config);
  server.start();

  MapRequest request;
  request.blif = benchmark_blif("count");
  request.context.trace_id = 0x0123456789abcdefull;
  request.context.span_id = 0xfedcba9876543210ull;
  Client client = Client::connect_unix(config.unix_path);
  const MapResponse response = client.map(request);
  ASSERT_TRUE(response.ok()) << response.error;
  // Caller-supplied trace id is echoed, not replaced.
  EXPECT_EQ(response.context.trace_id, request.context.trace_id);
  EXPECT_GT(response.stages.parse, 0.0);
  EXPECT_GT(response.stages.solve, 0.0);
  EXPECT_GT(response.stages.emit, 0.0);
  EXPECT_GE(response.stages.queue_wait, 0.0);

  // A client that sends no context still gets a server-minted trace id
  // back, so its logs can reference the server's spans.
  MapRequest bare;
  bare.blif = request.blif;
  const MapResponse minted = client.map(bare);
  ASSERT_TRUE(minted.ok()) << minted.error;
  EXPECT_TRUE(minted.context.valid());

  // A peer still sending the retired "proto" key, and none of the
  // optional ones, is served the same way: stages and a minted trace id.
  obs::Json header = obs::Json::object();
  header.set("type", kMapRequestType);
  header.set("proto", 2);
  header.set("k", 3);
  const int fd = raw_connect(config.unix_path);
  write_frame(fd, header, request.blif);
  const std::optional<Frame> reply = read_frame(fd);
  ::close(fd);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->header.find("proto"), nullptr);
  ASSERT_NE(reply->header.find("stages"), nullptr);
  const MapResponse old_peer = parse_map_response(*reply);
  ASSERT_TRUE(old_peer.ok()) << old_peer.error;
  EXPECT_GT(old_peer.stages.parse, 0.0);
  EXPECT_GT(old_peer.stages.solve, 0.0);
  EXPECT_TRUE(old_peer.context.valid());
  server.shutdown();
}

TEST(ServePortfolio, MapsWithTheRegisteredPortfolioBackend) {
  ServerConfig config;
  config.unix_path = test_socket_path("pfok");
  config.workers = 1;
  Server server(config);
  server.start();

  const std::string blif_text = benchmark_blif("9symml");
  Client client = Client::connect_unix(config.unix_path);

  MapRequest chortle_request;
  chortle_request.k = 4;
  chortle_request.blif = blif_text;
  const MapResponse chortle_response = client.map(chortle_request);
  ASSERT_TRUE(chortle_response.ok()) << chortle_response.error;

  MapRequest request;
  request.k = 4;
  request.blif = blif_text;
  request.mapper = "portfolio";
  request.objective = "luts";
  const MapResponse response = client.map(request);
  ASSERT_TRUE(response.ok()) << response.error;
  EXPECT_EQ(response.mapper, "portfolio");
  EXPECT_FALSE(response.portfolio_winner.empty());
  // Ties break toward the chortle fallback, so the race can only help.
  EXPECT_LE(response.luts, chortle_response.luts);
  server.shutdown();
  const Server::Counters counters = server.counters();
  EXPECT_EQ(counters.portfolio_requests, 1u);
}

TEST(ServePortfolio, ExpiredRaceBudgetReturnsFallbackCoverNotBusy) {
  ServerConfig config;
  config.unix_path = test_socket_path("pfbudget");
  config.workers = 1;
  Server server(config);
  server.start();

  const std::string blif_text = benchmark_blif("count");
  Client client = Client::connect_unix(config.unix_path);

  // A zero race budget is the deterministic worst case of "the deadline
  // fired mid-race": every racer is cancelled before contributing. The
  // request must still be served — the uncancellable chortle fallback
  // is the answer — never rejected as busy or deadline-expired.
  MapRequest request;
  request.k = 3;
  request.blif = blif_text;
  request.mapper = "portfolio";
  request.portfolio_budget_ms = 0;
  request.deadline_ms = 10000;  // generous: only the race budget expires
  const MapResponse response = client.map(request);
  ASSERT_TRUE(response.ok()) << response.error;
  EXPECT_EQ(response.status, "ok");
  EXPECT_EQ(response.mapper, "portfolio");
  EXPECT_EQ(response.portfolio_winner, "chortle");

  // The fallback cover is byte-identical to a plain chortle response.
  MapRequest plain;
  plain.k = 3;
  plain.blif = blif_text;
  const MapResponse plain_response = client.map(plain);
  ASSERT_TRUE(plain_response.ok()) << plain_response.error;
  EXPECT_EQ(response.blif, plain_response.blif);
  server.shutdown();
  EXPECT_EQ(server.counters().rejected_busy, 0u);
}

TEST(ServePortfolio, UnknownMapperIsInvalidAndListsTheRegistry) {
  ServerConfig config;
  config.unix_path = test_socket_path("pfbad");
  config.workers = 1;
  Server server(config);
  server.start();

  MapRequest request;
  request.blif = benchmark_blif("count");
  request.mapper = "nosuch";
  Client client = Client::connect_unix(config.unix_path);
  const MapResponse response = client.map(request);
  EXPECT_EQ(response.status, "invalid");
  // The error names the live registry (including the portfolio racer),
  // not a hard-coded list.
  EXPECT_NE(response.error.find("nosuch"), std::string::npos);
  EXPECT_NE(response.error.find("portfolio"), std::string::npos);
  EXPECT_NE(response.error.find("chortle"), std::string::npos);
  server.shutdown();
  EXPECT_EQ(server.counters().invalid_requests, 1u);
}

TEST(ServeProtocol, MalformedTraceIdIsRejectedNotSmuggled) {
  ServerConfig config;
  config.unix_path = test_socket_path("badtrace");
  config.workers = 1;
  Server server(config);
  server.start();

  for (const char* bad : {"xyz", "0123456789ABCDEF", "0123",
                          "0123456789abcdef00"}) {
    obs::Json header = obs::Json::object();
    header.set("type", kMapRequestType);
    header.set("trace_id", bad);
    const int fd = raw_connect(config.unix_path);
    write_frame(fd, header, benchmark_blif("count"));
    const std::optional<Frame> reply = read_frame(fd);
    ::close(fd);
    ASSERT_TRUE(reply.has_value());
    const MapResponse response = parse_map_response(*reply);
    EXPECT_EQ(response.status, "invalid") << "trace_id '" << bad << "'";
  }
  server.shutdown();
  EXPECT_EQ(server.counters().invalid_requests, 4u);
}

TEST(ServeProtocol, StatsFrameReturnsValidatedLiveSnapshot) {
  ServerConfig config;
  config.unix_path = test_socket_path("stats");
  config.workers = 2;
  Server server(config);
  server.start();

  Client client = Client::connect_unix(config.unix_path);
  MapRequest request;
  request.blif = benchmark_blif("count");
  ASSERT_TRUE(client.map(request).ok());
  ASSERT_TRUE(client.map(request).ok());  // second: a cache hit

  // Client::stats() validates the document against the schema before
  // returning it; re-validating here keeps the test honest if that
  // changes.
  const obs::Json stats = client.stats();
  EXPECT_TRUE(obs::validate_serve_stats(stats).empty());

  const obs::Json* requests = stats.find("requests");
  ASSERT_NE(requests, nullptr);
  EXPECT_EQ(requests->find("served")->as_int(), 2);
  EXPECT_EQ(requests->find("ok")->as_int(), 2);
  const obs::Json* cache = stats.find("dp_cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_GT(cache->find("hit_rate")->as_number(), 0.0);
  EXPECT_LE(cache->find("hit_rate")->as_number(), 1.0);
  const obs::Json* stages = stats.find("stages");
  ASSERT_NE(stages, nullptr);
  // Per-stage HDR sections for everything that ran, including the
  // DP-cache hit/miss latency split.
  for (const char* stage :
       {"request", "parse", "solve", "emit", "write", "cache_hit",
        "cache_miss"}) {
    const obs::Json* section = stages->find(stage);
    ASSERT_NE(section, nullptr) << "missing stage '" << stage << "'";
    EXPECT_GT(section->find("count")->as_int(), 0) << stage;
  }
  const obs::Json* request_stage = stages->find("request");
  EXPECT_EQ(request_stage->find("count")->as_int(), 2);
  EXPECT_GT(request_stage->find("p50")->as_number(), 0.0);
  EXPECT_GE(request_stage->find("p99")->as_number(),
            request_stage->find("p50")->as_number());

  server.shutdown();
  EXPECT_EQ(server.counters().stats_requests, 1u);
  // The stats frame is introspection, not a served request.
  EXPECT_EQ(server.counters().served, 2u);
}

TEST(ServeProtocol, StatsAreScopedToTheServerNotTheProcess) {
  // Metrics are process-global; the baseline snapshot taken in start()
  // must keep a later server's stats clean of an earlier server's
  // traffic (this test suite runs many servers in one process).
  ServerConfig config;
  config.unix_path = test_socket_path("scoped");
  config.workers = 1;
  Server server(config);
  server.start();
  Client client = Client::connect_unix(config.unix_path);
  const obs::Json stats = client.stats();
  const obs::Json* stages = stats.find("stages");
  ASSERT_NE(stages, nullptr);
  // No requests served by THIS server yet, so no request stage shows up
  // even though earlier tests populated the global registry.
  EXPECT_EQ(stages->find("request"), nullptr);
  EXPECT_EQ(stats.find("requests")->find("served")->as_int(), 0);
  server.shutdown();
}

TEST(ServeProtocol, DrainFlushesFinalSnapshotIntoReport) {
  ServerConfig config;
  config.unix_path = test_socket_path("flush");
  config.workers = 1;
  Server server(config);
  server.start();
  Client client = Client::connect_unix(config.unix_path);
  MapRequest request;
  request.blif = benchmark_blif("count");
  ASSERT_TRUE(client.map(request).ok());
  server.shutdown();  // flushes counters + histogram deltas to the report

  const std::string path =
      "/tmp/chortle_test_flush_" + std::to_string(::getpid()) + ".json";
  ASSERT_TRUE(server.write_report(path));
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const obs::Json report = obs::Json::parse(buffer.str());
  ::unlink(path.c_str());

  const obs::Json* requests = report.find("requests");
  ASSERT_NE(requests, nullptr);
  EXPECT_EQ(requests->find("ok")->as_int(), 1);
  const obs::Json* cache = report.find("dp_cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_GT(cache->find("insertions")->as_int(), 0);
  // The captured metrics delta carries the per-stage HDR histograms.
  const obs::Json* hdr = report.find("hdr");
  ASSERT_NE(hdr, nullptr);
  const obs::Json* stage = hdr->find("serve.stage.request");
  ASSERT_NE(stage, nullptr);
  EXPECT_EQ(stage->find("count")->as_int(), 1);
}

// ---------------------------------------------------------------------
// Event-driven connection multiplexing: the keep-alive starvation class
// of bugs. Idle or dribbling peers must never occupy a worker.

TEST(ServeMultiplex, IdleKeepAliveConnectionsDoNotStarveWorkers) {
  ServerConfig config;
  config.unix_path = test_socket_path("starve");
  config.workers = 2;
  Server server(config);
  server.start();

  // More idle connections than workers, each parked mid-preamble. The
  // old per-connection-worker design dispatched the first two of these
  // to the pool and never got them back: the real request below then
  // waited forever. The event loop just buffers 4 bytes each.
  std::vector<int> idle_fds;
  for (int i = 0; i < config.workers + 4; ++i)
    idle_fds.push_back(raw_partial_connection(config.unix_path));
  for (int i = 0; i < 5000 && server.open_connections() < idle_fds.size();
       ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_EQ(server.open_connections(), idle_fds.size());

  Client client = Client::connect_unix(config.unix_path);
  MapRequest request;
  request.blif = benchmark_blif("count");
  const MapResponse response = client.map(request);
  EXPECT_TRUE(response.ok()) << response.error;

  for (const int fd : idle_fds) ::close(fd);
  server.shutdown();
  EXPECT_EQ(server.counters().ok, 1u);
}

TEST(ServeMultiplex, SlowlorisFrameDoesNotBlockOtherRequests) {
  ServerConfig config;
  config.unix_path = test_socket_path("loris");
  config.workers = 1;  // a pinned worker would be THE worker
  Server server(config);
  server.start();

  // A complete, valid request delivered in two halves, with the pause
  // between them under test control — no timing assumptions.
  MapRequest slow;
  slow.id = "slowloris";
  slow.blif = benchmark_blif("count");
  const std::string bytes =
      encode_frame(encode_request_header(slow), slow.blif);
  const int fd = raw_connect(config.unix_path);
  const std::size_t half = bytes.size() / 2;
  ASSERT_EQ(::send(fd, bytes.data(), half, MSG_NOSIGNAL),
            static_cast<ssize_t>(half));

  // While the frame sits half-received, the single worker must still
  // serve other connections.
  Client client = Client::connect_unix(config.unix_path);
  MapRequest request;
  request.blif = benchmark_blif("count");
  for (int i = 0; i < 3; ++i) {
    const MapResponse response = client.map(request);
    EXPECT_TRUE(response.ok()) << response.error;
  }

  // Now finish the frame; the dribbled request gets its response too.
  ASSERT_EQ(::send(fd, bytes.data() + half, bytes.size() - half,
                   MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size() - half));
  const std::optional<Frame> reply = read_frame(fd);
  ::close(fd);
  ASSERT_TRUE(reply.has_value());
  const MapResponse slow_response = parse_map_response(*reply);
  EXPECT_TRUE(slow_response.ok()) << slow_response.error;
  EXPECT_EQ(slow_response.id, "slowloris");
  server.shutdown();
  EXPECT_EQ(server.counters().ok, 4u);
}

TEST(ServeMultiplex, PipelinedRequestsAnswerInOrder) {
  ServerConfig config;
  config.unix_path = test_socket_path("pipeline");
  config.workers = 2;  // order must come from the protocol, not the pool
  Server server(config);
  server.start();

  const int fd = raw_connect(config.unix_path);
  std::string bytes;
  for (const char* id : {"first", "second", "third"}) {
    MapRequest request;
    request.id = id;
    request.blif = benchmark_blif("count");
    bytes += encode_frame(encode_request_header(request), request.blif);
  }
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
  for (const char* id : {"first", "second", "third"}) {
    const std::optional<Frame> reply = read_frame(fd);
    ASSERT_TRUE(reply.has_value()) << id;
    const MapResponse response = parse_map_response(*reply);
    EXPECT_TRUE(response.ok()) << response.error;
    EXPECT_EQ(response.id, id);
  }
  ::close(fd);
  server.shutdown();
  EXPECT_EQ(server.counters().ok, 3u);
}

TEST(ServeMultiplex, IdleTimeoutReapsQuietAndMidFrameConnections) {
  ServerConfig config;
  config.unix_path = test_socket_path("reap");
  config.workers = 1;
  config.idle_timeout_ms = 100;
  Server server(config);
  server.start();

  const int quiet = raw_connect(config.unix_path);
  const int mid_frame = raw_partial_connection(config.unix_path);
  for (const int fd : {quiet, mid_frame}) {
    timeval timeout{5, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    char byte;
    // EOF (0) within the receive timeout: the server reaped us.
    EXPECT_EQ(::read(fd, &byte, 1), 0);
    ::close(fd);
  }
  server.shutdown();
  EXPECT_GE(server.counters().idle_closed, 2u);
}

// ---------------------------------------------------------------------
// Serving-layer bugfix sweep.

TEST(ServeBugfix, StartFailureReleasesEarlierListeners) {
  // Occupy a TCP port so the server's TCP bind fails AFTER its unix
  // listener was already bound.
  const int blocker = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(blocker, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(blocker, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  ASSERT_EQ(::listen(blocker, 1), 0);
  socklen_t len = sizeof addr;
  ASSERT_EQ(::getsockname(blocker, reinterpret_cast<sockaddr*>(&addr), &len),
            0);

  ServerConfig config;
  config.unix_path = test_socket_path("startfail");
  config.tcp_port = ntohs(addr.sin_port);
  {
    Server server(config);
    EXPECT_THROW(server.start(), std::runtime_error);
  }
  // The already-bound unix listener's socket file must be gone...
  struct stat st {};
  EXPECT_NE(::lstat(config.unix_path.c_str(), &st), 0);
  // ...so a corrected retry can bind the same path.
  config.tcp_port = -1;
  Server retry(config);
  retry.start();
  Client client = Client::connect_unix(config.unix_path);
  MapRequest request;
  request.blif = benchmark_blif("count");
  EXPECT_TRUE(client.map(request).ok());
  retry.shutdown();
  ::close(blocker);
}

TEST(ServeBugfix, ListenUnixRefusesToUnlinkARegularFile) {
  const std::string path = test_socket_path("regfile");
  {
    std::ofstream out(path);
    out << "somebody's precious data\n";
  }
  ServerConfig config;
  config.unix_path = path;
  {
    Server server(config);
    EXPECT_THROW(server.start(), std::runtime_error);
  }
  // The file survived, contents intact: a mistyped --unix cannot
  // destroy data.
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "somebody's precious data");
  ::unlink(path.c_str());
}

TEST(ServeBugfix, InvalidRequestStillEchoesIdAndTraceContext) {
  ServerConfig config;
  config.unix_path = test_socket_path("echoinv");
  config.workers = 1;
  Server server(config);
  server.start();

  // k = 9 fails request validation; the peer must still get its id and
  // trace id back so client-side correlation works. One header carries
  // the retired "proto" key, the other does not: both are echoed.
  for (const bool with_proto : {true, false}) {
    obs::Json header = obs::Json::object();
    header.set("type", kMapRequestType);
    header.set("id", "correlate-me");
    if (with_proto) header.set("proto", 2);
    header.set("trace_id", "00112233445566aa");
    header.set("span_id", "aabbccddeeff0011");
    header.set("k", 9);
    const int fd = raw_connect(config.unix_path);
    write_frame(fd, header, benchmark_blif("count"));
    const std::optional<Frame> reply = read_frame(fd);
    ::close(fd);
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->header.find("proto"), nullptr);
    EXPECT_EQ(reply->header.find("stages"), nullptr);
    const MapResponse response = parse_map_response(*reply);
    EXPECT_EQ(response.status, "invalid");
    EXPECT_EQ(response.id, "correlate-me");
    EXPECT_EQ(response.context.trace_id, 0x00112233445566aaull);
    EXPECT_EQ(response.context.span_id, 0xaabbccddeeff0011ull);
  }
  server.shutdown();
  EXPECT_EQ(server.counters().invalid_requests, 2u);
}

TEST(ServeBugfix, ClientSurfacesWriteErrorWhenBusyRecoveryFails) {
  // A fake "server" that sends garbage and hangs up: the client's write
  // fails mid-request, and its busy-recovery fallback read then hits
  // bytes that are not a frame. The original write error must survive,
  // with the read failure attached as context — not be masked by it.
  const std::string path = test_socket_path("fakesrv");
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  ASSERT_EQ(
      ::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  ASSERT_EQ(::listen(listener, 1), 0);
  std::thread fake([&] {
    const int conn = ::accept(listener, nullptr, nullptr);
    ASSERT_GE(conn, 0);
    (void)!::send(conn, "GARBAGEGARBAGE!!", 16, MSG_NOSIGNAL);
    ::close(conn);
  });

  Client client = Client::connect_unix(path);
  fake.join();
  MapRequest request;
  // Far larger than the socket buffers, so the write cannot complete
  // before the peer's close turns into EPIPE.
  request.blif = std::string(std::size_t{32} << 20, 'x');
  try {
    client.map(request);
    FAIL() << "map() must throw when the server hangs up mid-write";
  } catch (const std::exception& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("frame write failed"), std::string::npos) << what;
    EXPECT_NE(what.find("no rejection frame"), std::string::npos) << what;
  }
  ::close(listener);
  ::unlink(path.c_str());
}

}  // namespace
}  // namespace chortle::serve
