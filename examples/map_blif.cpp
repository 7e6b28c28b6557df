// map_blif: a command-line technology mapper, the tool a user of the
// original Chortle program would have run.
//
//   map_blif [input.blif] [-k K] [-o output.blif] [--mapper NAME]
//            [--objective NAME] [--portfolio-budget-ms N]
//            [--baseline] [--no-optimize] [--split N] [--stats]
//            [--verilog]
//
// Reads a combinational BLIF model, optimizes it, maps it into K-input
// LUTs with the selected backend (--mapper=help lists every registered
// backend; --baseline is shorthand for --mapper libmap), verifies the
// result, and writes a LUT-level BLIF netlist to stdout or to the -o
// file. --mapper portfolio races every backend under
// --portfolio-budget-ms and returns the best cover by --objective
// (src/portfolio). Without an input path, a built-in demo circuit (the
// alu2 benchmark substitute) is used so the binary runs standalone.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "blif/blif.hpp"
#include "blif/verilog.hpp"
#include "chortle/imapper.hpp"
#include "chortle/mapper.hpp"
#include "mcnc/generators.hpp"
#include "opt/decompose.hpp"
#include "opt/script.hpp"
#include "portfolio/portfolio.hpp"
#include "verify/verify.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: map_blif [input.blif] [-k K] [-o out.blif] "
               "[--mapper NAME|help] [--objective NAME] "
               "[--portfolio-budget-ms N] [--baseline] [--no-optimize] "
               "[--split N] [--stats] [--verilog]\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace chortle;
  std::string input_path;
  std::string output_path;
  int k = 4;
  int split_threshold = 10;
  std::string mapper_name = "chortle";
  std::string objective_name = "luts";
  long long portfolio_budget_ms = -1;
  bool run_optimizer = true;
  bool print_stats = false;
  bool emit_verilog = false;

  // Registration first, so --mapper=help and error messages list the
  // full registry rather than a stale hard-coded set.
  portfolio::ensure_registered();

  const core::IMapper* mapper = nullptr;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-k" && i + 1 < argc) {
      k = std::atoi(argv[++i]);
    } else if (arg == "-o" && i + 1 < argc) {
      output_path = argv[++i];
    } else if (arg == "--split" && i + 1 < argc) {
      split_threshold = std::atoi(argv[++i]);
    } else if (arg == "--mapper" && i + 1 < argc) {
      mapper_name = argv[++i];
    } else if (arg.rfind("--mapper=", 0) == 0) {
      mapper_name = arg.substr(9);
    } else if (arg == "--objective" && i + 1 < argc) {
      objective_name = argv[++i];
    } else if (arg.rfind("--objective=", 0) == 0) {
      objective_name = arg.substr(12);
    } else if (arg == "--portfolio-budget-ms" && i + 1 < argc) {
      portfolio_budget_ms = std::atoll(argv[++i]);
    } else if (arg.rfind("--portfolio-budget-ms=", 0) == 0) {
      portfolio_budget_ms = std::atoll(arg.c_str() + 22);
    } else if (arg == "--baseline") {
      mapper_name = "libmap";
    } else if (arg == "--no-optimize") {
      run_optimizer = false;
    } else if (arg == "--stats") {
      print_stats = true;
    } else if (arg == "--verilog") {
      emit_verilog = true;
    } else if (arg == "-h" || arg == "--help") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] != '-') {
      input_path = arg;
    } else {
      usage();
      return 2;
    }
  }

  if (mapper_name == "help") {
    std::fprintf(stderr, "map_blif: registered mappers: %s\n",
                 core::mapper_names().c_str());
    return 0;
  }
  mapper = core::find_mapper(mapper_name);
  if (mapper == nullptr) {
    std::fprintf(stderr, "map_blif: unknown mapper '%s' (expected %s)\n",
                 mapper_name.c_str(), core::mapper_names().c_str());
    return 2;
  }
  if (k < mapper->min_k() || k > mapper->max_k()) {
    std::fprintf(stderr, "map_blif: mapper '%s' supports K=%d..%d, got %d\n",
                 mapper->name(), mapper->min_k(), mapper->max_k(), k);
    return 2;
  }

  try {
    blif::BlifModel model;
    if (input_path.empty()) {
      std::fprintf(stderr,
                   "map_blif: no input given; using the built-in alu2 "
                   "demo circuit\n");
      model.name = "alu2";
      model.network = mcnc::generate("alu2");
    } else {
      model = blif::read_blif_file(input_path);
    }
    if (model.num_latches > 0)
      std::fprintf(stderr,
                   "map_blif: %d latches treated as pseudo inputs/outputs\n",
                   model.num_latches);

    net::Network network;
    if (run_optimizer) {
      const opt::OptimizedDesign design = opt::optimize(model.network);
      network = design.network;
      if (print_stats) {
        const opt::ExtractStats& extract = design.stats.extract;
        std::fprintf(stderr,
                     "optimize: %d -> %d literals, %d gates, %.3fs\n",
                     model.network.total_literals(), design.stats.literals,
                     network.num_gates(), design.stats.seconds);
        std::fprintf(stderr,
                     "extract: %d divisors in %d rounds, %lld candidates "
                     "valued, %lld trial divisions\n",
                     extract.divisors_extracted, extract.rounds,
                     static_cast<long long>(extract.candidates_valued),
                     static_cast<long long>(extract.trial_divisions));
      }
    } else {
      network = opt::decompose_to_and_or(model.network);
    }

    core::Options options;
    options.k = k;
    options.split_threshold = split_threshold;
    core::MapResult result = [&] {
      if (mapper_name != "portfolio") return mapper->map(network, options);
      portfolio::PortfolioConfig race =
          portfolio::default_portfolio().config();
      race.objective = portfolio::parse_objective(objective_name);
      race.budget_ms = portfolio_budget_ms;
      return portfolio::default_portfolio().map_with(network, options, race,
                                                     nullptr);
    }();
    const net::LutCircuit& circuit = result.circuit;
    if (print_stats)
      std::fprintf(stderr, "%s: %d LUTs, depth %d, %.3fs\n", mapper->name(),
                   result.stats.num_luts, result.stats.depth,
                   result.stats.seconds);
    if (!result.stats.portfolio_winner.empty())
      std::fprintf(stderr,
                   "portfolio: winner=%s cancelled=%d stitched_trees=%d "
                   "objective=%s\n",
                   result.stats.portfolio_winner.c_str(),
                   result.stats.portfolio_cancelled,
                   result.stats.portfolio_stitched_trees,
                   objective_name.c_str());

    const verify::Verdict verdict =
        verify::check(model.network, circuit, verify::Level::kSimulate);
    if (!verdict.ok()) {
      std::fprintf(stderr, "map_blif: VERIFICATION FAILED: %s\n",
                   verdict.detail.c_str());
      return 1;
    }
    std::fprintf(stderr, "map_blif: mapped to %d %d-input LUTs (verified)\n",
                 circuit.num_luts(), k);

    const std::string out_name = model.name + "_luts";
    const auto emit = [&](std::ostream& out) {
      if (emit_verilog)
        blif::write_verilog(out, circuit, out_name);
      else
        blif::write_blif(out, circuit, out_name);
    };
    if (output_path.empty()) {
      emit(std::cout);
    } else {
      std::ofstream out(output_path);
      if (!out) {
        std::fprintf(stderr, "map_blif: cannot write %s\n",
                     output_path.c_str());
        return 1;
      }
      emit(out);
    }
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "map_blif: %s\n", error.what());
    return 1;
  }
}
