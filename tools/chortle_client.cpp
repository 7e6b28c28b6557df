// chortle_client: one-shot CLI client for the mapping service.
//
//   chortle_client (--unix PATH | --host H --port N)
//                  [-k N] [--split N] [--no-search] [--optimize]
//                  [--verify] [--deadline-ms N] [--id STR]
//                  [--mapper NAME] [--objective NAME]
//                  [--portfolio-budget-ms N]
//                  [-o OUT] input.blif
//   chortle_client (--unix PATH | --host H --port N) --stats [-o OUT]
//   chortle_client --dump-benchmark NAME [-o OUT]
//
// The first form sends input.blif to a running chortle_serve and writes
// the mapped netlist to OUT (default stdout). Request stats go to
// stderr. --stats instead pulls the server's live chortle-serve-stats/1
// snapshot (validated client-side) and writes the JSON to OUT. The
// --dump-benchmark form runs no server at all: it emits the named
// built-in MCNC benchmark substitute as BLIF, which gives CI scripts a
// benchmark file to feed both the offline mapper and the service.
//
// Set CHORTLE_TRACE=PATH to record a client-side Chrome trace of the
// request; its trace id matches the server's spans, so the two files
// merge into one end-to-end picture (obs_check --merge-traces).
//
// Exit codes: 0 ok, 2 usage, 3 server busy, 4 deadline exceeded,
// 1 any other failure.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "blif/blif.hpp"
#include "mcnc/generators.hpp"
#include "obs/trace.hpp"
#include "serve/client.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: chortle_client (--unix PATH | --host H --port N) "
               "[-k N] [--split N] [--no-search] [--optimize] [--verify] "
               "[--deadline-ms N] [--id STR] [--mapper NAME] "
               "[--objective NAME] [--portfolio-budget-ms N] "
               "[-o OUT] input.blif\n"
               "       chortle_client (--unix PATH | --host H --port N) "
               "--stats [-o OUT]\n"
               "       chortle_client --dump-benchmark NAME [-o OUT]\n");
}

/// Flushes the client-side Chrome trace (CHORTLE_TRACE) on the way out.
int finish(int code, const std::string& trace_out) {
  if (!trace_out.empty() &&
      !chortle::obs::write_chrome_trace_file(trace_out) && code == 0)
    return 1;
  return code;
}

bool write_output(const std::string& path, const std::string& text) {
  if (path.empty() || path == "-") {
    std::cout << text;
    return static_cast<bool>(std::cout);
  }
  std::ofstream out(path, std::ios::binary);
  out << text;
  out.close();
  if (!out) {
    std::fprintf(stderr, "chortle_client: cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace chortle;

  std::string unix_path;
  std::string host = "127.0.0.1";
  int port = -1;
  std::string input_path;
  std::string output_path;
  std::string dump_benchmark;
  bool fetch_stats = false;
  serve::MapRequest request;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--unix" && has_value) {
      unix_path = argv[++i];
    } else if (arg == "--host" && has_value) {
      host = argv[++i];
    } else if (arg == "--port" && has_value) {
      port = std::atoi(argv[++i]);
    } else if (arg == "-k" && has_value) {
      request.k = std::atoi(argv[++i]);
    } else if (arg == "--split" && has_value) {
      request.split_threshold = std::atoi(argv[++i]);
    } else if (arg == "--no-search") {
      request.search_decompositions = false;
    } else if (arg == "--optimize") {
      request.optimize = true;
    } else if (arg == "--verify") {
      request.verify = true;
    } else if (arg == "--deadline-ms" && has_value) {
      request.deadline_ms = std::atoll(argv[++i]);
    } else if (arg == "--mapper" && has_value) {
      request.mapper = argv[++i];
    } else if (arg == "--objective" && has_value) {
      request.objective = argv[++i];
    } else if (arg == "--portfolio-budget-ms" && has_value) {
      request.portfolio_budget_ms = std::atoll(argv[++i]);
    } else if (arg == "--id" && has_value) {
      request.id = argv[++i];
    } else if (arg == "-o" && has_value) {
      output_path = argv[++i];
    } else if (arg == "--dump-benchmark" && has_value) {
      dump_benchmark = argv[++i];
    } else if (arg == "--stats") {
      fetch_stats = true;
    } else if (arg == "-h" || arg == "--help") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] != '-' && input_path.empty()) {
      input_path = arg;
    } else {
      usage();
      return 2;
    }
  }

  const std::string trace_out = obs::trace_path_from_env();
  if (!trace_out.empty()) obs::set_trace_enabled(true);

  try {
    if (!dump_benchmark.empty()) {
      const std::string text = blif::write_blif_string(
          mcnc::generate(dump_benchmark), dump_benchmark);
      return write_output(output_path, text) ? 0 : 1;
    }

    if (fetch_stats) {
      if (unix_path.empty() && port < 0) {
        usage();
        return 2;
      }
      serve::Client client = unix_path.empty()
                                 ? serve::Client::connect_tcp(host, port)
                                 : serve::Client::connect_unix(unix_path);
      return write_output(output_path, client.stats().dump(2) + "\n") ? 0 : 1;
    }

    if (input_path.empty() || (unix_path.empty() && port < 0)) {
      usage();
      return 2;
    }
    std::ifstream in(input_path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "chortle_client: cannot read %s\n",
                   input_path.c_str());
      return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    request.blif = buffer.str();

    serve::Client client = unix_path.empty()
                               ? serve::Client::connect_tcp(host, port)
                               : serve::Client::connect_unix(unix_path);
    const serve::MapResponse response = client.map(request);

    if (!response.ok()) {
      std::fprintf(stderr, "chortle_client: %s: %s\n",
                   response.status.c_str(), response.error.c_str());
      if (response.status == "busy") return finish(3, trace_out);
      if (response.status == "deadline") return finish(4, trace_out);
      return finish(1, trace_out);
    }
    std::fprintf(stderr,
                 "chortle_client: id=%s luts=%d trees=%d depth=%d "
                 "cache_hits=%d cache_misses=%d seconds=%.3f%s%s\n",
                 response.id.c_str(), response.luts, response.trees,
                 response.depth, response.cache_hits, response.cache_misses,
                 response.seconds,
                 response.verified.empty() ? "" : " verified=",
                 response.verified.c_str());
    if (!response.portfolio_winner.empty())
      std::fprintf(stderr,
                   "chortle_client: portfolio: winner=%s cancelled=%d "
                   "stitched_trees=%d\n",
                   response.portfolio_winner.c_str(),
                   response.portfolio_cancelled,
                   response.portfolio_stitched_trees);
    std::fprintf(stderr,
                 "chortle_client: trace=%s stages: queue_wait=%.6f "
                 "parse=%.6f solve=%.6f emit=%.6f\n",
                 response.context.trace_hex().c_str(),
                 response.stages.queue_wait, response.stages.parse,
                 response.stages.solve, response.stages.emit);
    return finish(write_output(output_path, response.blif) ? 0 : 1,
                  trace_out);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "chortle_client: %s\n", error.what());
    return finish(1, trace_out);
  }
}
