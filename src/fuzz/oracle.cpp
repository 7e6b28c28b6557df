#include "fuzz/oracle.hpp"

#include <exception>
#include <map>
#include <sstream>

#include "chortle/forest.hpp"
#include "chortle/mapper.hpp"
#include "cutmap/cutmap.hpp"
#include "flowmap/flowmap.hpp"
#include "libmap/library.hpp"
#include "libmap/matcher.hpp"
#include "libmap/subject.hpp"
#include "obs/metrics.hpp"
#include "opt/script.hpp"
#include "portfolio/portfolio.hpp"
#include "verify/verify.hpp"

namespace chortle::fuzz {
namespace {

/// The baseline mapper's library for a given K, built once per process
/// (complete for K <= 3, level-0 kernels above, as the paper does).
const libmap::Library& library_for(int k) {
  static std::map<int, libmap::Library> cache;
  auto it = cache.find(k);
  if (it == cache.end()) {
    it = cache
             .emplace(k, k <= 3 ? libmap::Library::complete(k)
                                : libmap::Library::level0_kernels(k))
             .first;
  }
  return it->second;
}

/// A copy of `circuit` with one truth-table bit flipped (the injected
/// miscompile the oracle must catch). A circuit without LUTs is
/// returned unchanged.
net::LutCircuit with_injected_fault(const net::LutCircuit& circuit,
                                    const Injection& injection) {
  if (circuit.num_luts() == 0) return circuit;
  const int victim =
      injection.lut_index % circuit.num_luts();
  net::LutCircuit corrupted(circuit.k());
  for (const std::string& name : circuit.input_names())
    corrupted.add_input(name);
  for (int i = 0; i < circuit.num_luts(); ++i) {
    net::Lut lut = circuit.luts()[static_cast<std::size_t>(i)];
    if (i == victim) {
      const std::uint64_t bit =
          injection.bit_index % lut.function.num_minterms();
      lut.function.set_bit(bit, !lut.function.bit(bit));
    }
    corrupted.add_lut(std::move(lut));
  }
  for (const net::LutOutput& o : circuit.outputs()) {
    if (o.is_const)
      corrupted.add_const_output(o.name, o.const_value);
    else
      corrupted.add_output(o.name, o.signal, o.negated);
  }
  return corrupted;
}

class OracleRun {
 public:
  OracleRun(const FuzzCase& fuzz_case, const OracleOptions& options)
      : case_(fuzz_case), options_(options) {}

  Verdict run() {
    try {
      case_.network.check();
      case_.options.validate();
    } catch (const std::exception& error) {
      fail("case", "exception", error.what());
      return verdict_;
    }

    opt::OptimizedDesign design;
    try {
      design = opt::optimize(case_.network);
      record("optimize", verify::check(case_.network, design.network,
                                       verify::Level::kSimulate));
      check_forest_invariants(design.network);
    } catch (const std::exception& error) {
      fail("optimize", "exception", error.what());
      return verdict_;
    }

    for (Backend backend : case_.backends) {
      ++verdict_.backends_run;
      OBS_COUNT("fuzz.backend_runs", 1);
      try {
        run_backend(backend, design.network);
      } catch (const std::exception& error) {
        fail(to_string(backend), "exception", error.what());
      }
    }
    return verdict_;
  }

 private:
  void fail(const std::string& stage, const std::string& kind,
            const std::string& detail) {
    // The counter name depends on the runtime failure kind, so this
    // goes through the registry directly rather than OBS_COUNT (whose
    // per-call-site MetricId cache assumes one fixed name).
    if constexpr (obs::kObsEnabled) {
      auto& registry = obs::Registry::global();
      registry.add(registry.counter("fuzz.disagree." + kind), 1);
    }
    verdict_.failures.push_back(Failure{stage, kind, detail});
  }

  void record(const std::string& stage, const verify::Verdict& verdict) {
    if (!verdict.ok())
      fail(stage, verify::to_string(verdict.kind), verdict.detail);
  }

  /// Paper §3: the forest partition must place every live gate in
  /// exactly one tree, and every non-root tree gate must be read by
  /// exactly one fanin edge and no primary output (fanout-free trees).
  /// References are counted among live readers only — the decomposed
  /// mapper input may contain dead shared gates, which the forest
  /// rightly ignores.
  void check_forest_invariants(const net::Network& network) {
    const core::Forest forest = core::build_forest(network);
    std::vector<int> refs(static_cast<std::size_t>(network.num_nodes()), 0);
    for (net::NodeId id = 0; id < network.num_nodes(); ++id) {
      if (network.is_input(id) ||
          !forest.is_live[static_cast<std::size_t>(id)])
        continue;
      for (const net::Fanin& fanin : network.node(id).fanins)
        ++refs[static_cast<std::size_t>(fanin.node)];
    }
    for (const net::Output& output : network.outputs())
      if (!output.is_const) ++refs[static_cast<std::size_t>(output.node)];
    std::vector<int> seen(static_cast<std::size_t>(network.num_nodes()), 0);
    for (const core::Tree& tree : forest.trees) {
      if (tree.gates.empty() || tree.gates.back() != tree.root) {
        fail("forest", "structure", "tree root is not its last gate");
        return;
      }
      for (net::NodeId gate : tree.gates) {
        ++seen[static_cast<std::size_t>(gate)];
        if (gate == tree.root) continue;
        if (refs[static_cast<std::size_t>(gate)] != 1) {
          std::ostringstream os;
          os << "non-root gate " << gate << " of tree " << tree.root
             << " has " << refs[static_cast<std::size_t>(gate)]
             << " references (trees must be fanout-free)";
          fail("forest", "structure", os.str());
        }
      }
    }
    for (net::NodeId id = 0; id < network.num_nodes(); ++id) {
      if (network.is_input(id)) continue;
      const bool live = forest.is_live[static_cast<std::size_t>(id)];
      const int count = seen[static_cast<std::size_t>(id)];
      if (live != (count == 1)) {
        std::ostringstream os;
        os << "gate " << id << " is " << (live ? "live" : "dead")
           << " but appears in " << count << " trees";
        fail("forest", "structure", os.str());
      }
    }
  }

  /// The case-specific checks (requested K, reported LUT count), then
  /// the shared checker at kFormal. The circuit's own invariants — LUT
  /// fanins within its K, acyclicity — are verify::check's structure
  /// checks.
  void check_circuit(const std::string& stage,
                     const net::LutCircuit& circuit, int reported_luts) {
    if (circuit.k() != case_.options.k)
      fail(stage, "structure", "circuit K does not match the requested K");
    if (reported_luts != circuit.num_luts()) {
      std::ostringstream os;
      os << "reported " << reported_luts << " LUTs but the circuit has "
         << circuit.num_luts();
      fail(stage, "lut-count", os.str());
    }
    record(stage,
           verify::check(case_.network, circuit, verify::Level::kFormal));
  }

  void run_backend(Backend backend, const net::Network& mapper_input) {
    switch (backend) {
      case Backend::kChortle: {
        const core::MapResult result =
            core::map_network(mapper_input, case_.options);
        net::LutCircuit circuit = result.circuit;
        if (options_.injection.enabled)
          circuit = with_injected_fault(circuit, options_.injection);
        check_circuit("chortle", circuit, result.stats.num_luts);
        // Cost-driven duplication (§5) only ever accepts a replication
        // that the exact tree DP proves profitable, so enabling it can
        // never increase the LUT count.
        if (case_.options.duplicate_fanout_logic &&
            !options_.injection.enabled) {
          core::Options plain = case_.options;
          plain.duplicate_fanout_logic = false;
          const core::MapResult without =
              core::map_network(mapper_input, plain);
          if (result.stats.num_luts > without.stats.num_luts) {
            std::ostringstream os;
            os << "duplication increased LUT count: "
               << result.stats.num_luts << " > " << without.stats.num_luts;
            fail("chortle", "lut-count", os.str());
          }
        }
        break;
      }
      case Backend::kFlowMap: {
        const net::Network subject =
            libmap::build_subject_graph(mapper_input);
        const flowmap::FlowMapResult result =
            flowmap::flowmap(subject, case_.options.k);
        check_circuit("flowmap", result.circuit, result.stats.num_luts);
        break;
      }
      case Backend::kLibMap: {
        const libmap::BaselineResult result = libmap::map_with_library(
            mapper_input, library_for(case_.options.k));
        check_circuit("libmap", result.circuit, result.stats.num_luts);
        break;
      }
      case Backend::kCutMap: {
        const net::Network subject =
            libmap::build_subject_graph(mapper_input);
        cutmap::CutMapOptions cut_options;
        cut_options.k = case_.options.k;
        const cutmap::CutMapResult result =
            cutmap::map_luts(subject, cut_options);
        check_circuit("cutmap", result.circuit, result.stats.num_luts);
        break;
      }
      case Backend::kPortfolio: {
        // Race every backend with no budget (all racers run to
        // completion — the case stays deterministic) and hold the
        // winner to the oracle's full battery plus the portfolio's own
        // guarantee: under the LUT objective the stitched/raced cover
        // is never worse than plain chortle, because chortle is the
        // fallback and ties break toward it.
        portfolio::PortfolioConfig race =
            portfolio::default_portfolio().config();
        race.budget_ms = -1;
        const core::MapResult result = portfolio::default_portfolio()
                                           .map_with(mapper_input,
                                                     case_.options, race,
                                                     nullptr);
        check_circuit("portfolio", result.circuit, result.stats.num_luts);
        const core::MapResult plain =
            core::map_network(mapper_input, case_.options);
        if (result.stats.num_luts > plain.stats.num_luts) {
          std::ostringstream os;
          os << "portfolio (winner " << result.stats.portfolio_winner
             << ") used " << result.stats.num_luts
             << " LUTs, worse than plain chortle's "
             << plain.stats.num_luts;
          fail("portfolio", "lut-count", os.str());
        }
        break;
      }
    }
  }

  const FuzzCase& case_;
  const OracleOptions& options_;
  Verdict verdict_;
};

}  // namespace

std::string Verdict::summary() const {
  if (failures.empty()) return "ok";
  std::ostringstream os;
  for (std::size_t i = 0; i < failures.size(); ++i) {
    if (i > 0) os << "; ";
    os << failures[i].stage << "/" << failures[i].kind << ": "
       << failures[i].detail;
  }
  return os.str();
}

Verdict check_case(const FuzzCase& fuzz_case, const OracleOptions& options) {
  return OracleRun(fuzz_case, options).run();
}

}  // namespace chortle::fuzz
