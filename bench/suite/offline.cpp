// The offline workloads: the map_blif flows over whole circuits, one
// circuit per operation, repeated in passes over a fixed input set.
//
//   table2_flow  read -> opt::optimize -> chortle K=2..6 -> write ->
//                verify, over nine Table-2 circuits and six PLAs; the
//                other three Table-2 circuits run once after the window
//   map_sweep    read -> decompose -> chortle K=2..6 (+ cutmap K=6) ->
//                write -> verify, over the 12 raw Table-2 circuits and
//                16 seeded random circuits
#include <algorithm>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "base/fnv.hpp"
#include "blif/blif.hpp"
#include "chortle/imapper.hpp"
#include "chortle/mapper.hpp"
#include "mcnc/generators.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "opt/decompose.hpp"
#include "opt/script.hpp"
#include "sim/simulate.hpp"
#include "suite.hpp"

namespace chortle::suite {
namespace {

constexpr int kMinK = 2;
constexpr int kMaxK = 6;
constexpr int kCutmapK = 6;

/// Bench-side spans around layer calls. Each span is recorded into the
/// Chrome trace as "suite.<layer>" and its duration, taken from the same
/// two timestamps, is added to the layer's total. Disabled (untraced
/// runs) it records nothing.
class Ledger {
 public:
  explicit Ledger(bool enabled) : enabled_(enabled) {}

  class Span {
   public:
    Span(Ledger& ledger, const char* layer) : ledger_(ledger), layer_(layer) {
      if (ledger_.enabled_) begin_ = obs::trace_now_micros();
    }
    ~Span() {
      if (!ledger_.enabled_) return;
      const std::uint64_t end = obs::trace_now_micros();
      obs::record_span(std::string("suite.") + layer_, begin_, end);
      ledger_.totals_[layer_] += static_cast<double>(end - begin_) * 1e-6;
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Ledger& ledger_;
    const char* layer_;
    std::uint64_t begin_ = 0;
  };

  bool enabled() const { return enabled_; }
  /// Summed self seconds per layer.
  const std::map<std::string, double>& totals() const { return totals_; }
  double total() const {
    double sum = 0.0;
    for (const auto& [layer, seconds] : totals_) sum += seconds;
    return sum;
  }

 private:
  bool enabled_;
  std::map<std::string, double> totals_;
};

struct Circuit {
  std::string name;
  std::string blif;     // the input exactly as the program receives it
  bool table2 = false;  // fixed Table-2 circuit: counts toward quality
};

struct GoldenRow {
  int luts = 0;
  std::string hash;
};
using Goldens = std::map<std::pair<std::string, int>, GoldenRow>;

/// tests/golden/lut_counts.tsv: LUTs and BLIF fnv1a64 for every
/// Table-2 circuit at K=2..6 after the default optimize script.
Goldens load_goldens() {
  const std::string path =
      std::string(CHORTLE_REPO_ROOT) + "/tests/golden/lut_counts.tsv";
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  Goldens rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name;
    int k = 0;
    GoldenRow row;
    if (!(fields >> name >> k >> row.luts >> row.hash))
      throw std::runtime_error("malformed golden row: " + line);
    rows[{name, k}] = row;
  }
  return rows;
}

/// The Table-2 circuits whose optimize script is one call of 2-6 s. A
/// single sample that long cannot be repeated inside the window, so
/// table2_flow maps them once after it: golden-checked, not timed.
bool is_giant(const std::string& name) {
  return name == "alu4" || name == "des" || name == "k2";
}

std::string pla_blif(int io, int cubes, std::uint64_t seed,
                     const std::string& name) {
  return blif::write_blif_string(mcnc::make_k2(io, io, cubes, seed), name);
}

/// The window of table2_flow: the nine Table-2 circuits whose flow is
/// short, four fixed k2-style PLAs (20 in/out, 40 cubes) that keep
/// divisor extraction the dominant layer, and two seeded PLAs (16 in/out,
/// 32 cubes). The seed changes the seeded PLAs' cubes, not their size,
/// so the pass cost barely moves with it while a claim can still be
/// rechecked on held-out inputs. PLAs have no golden row: they are
/// checked by simulation.
std::vector<Circuit> table2_flow_inputs(std::uint64_t seed) {
  std::vector<Circuit> circuits;
  for (const std::string& name : mcnc::benchmark_names())
    if (!is_giant(name)) circuits.push_back({name, table2_blif(name), true});
  for (int i = 0; i < 4; ++i) {
    const std::string name = "kpla" + std::to_string(i);
    circuits.push_back({name, pla_blif(20, 40, 0xC20 + i, name), false});
  }
  for (int i = 0; i < 2; ++i) {
    const std::string name = "pla" + std::to_string(i);
    circuits.push_back(
        {name, pla_blif(16, 32, stream_seed(seed, 10 + i), name), false});
  }
  return circuits;
}

/// The raw Table-2 circuits plus 16 seeded random circuits of 150..990
/// gates. cutmap maps only the Table-2 circuits (see Flow::run_circuit),
/// so the slowest job stays a fixed circuit and the tail does not move
/// with the seed.
std::vector<Circuit> map_sweep_inputs(std::uint64_t seed) {
  std::vector<Circuit> circuits;
  for (const std::string& name : mcnc::benchmark_names())
    circuits.push_back({name, table2_blif(name), true});
  for (int i = 0; i < 16; ++i) {
    const std::string name = "rand" + std::to_string(i);
    circuits.push_back(
        {name, random_blif(150 + 56 * i, stream_seed(seed, 20 + i), name),
         false});
  }
  return circuits;
}

/// A copy of `circuit` with bit 0 of the LUT driving its first output
/// flipped: the miscompile the verification must catch.
net::LutCircuit with_flipped_bit(const net::LutCircuit& circuit) {
  int victim = 0;
  for (const net::LutOutput& o : circuit.outputs())
    if (!o.is_const && !circuit.is_input_signal(o.signal)) {
      victim = o.signal - circuit.num_inputs();
      break;
    }
  net::LutCircuit corrupted(circuit.k());
  for (const std::string& name : circuit.input_names())
    corrupted.add_input(name);
  for (int i = 0; i < circuit.num_luts(); ++i) {
    net::Lut lut = circuit.luts()[static_cast<std::size_t>(i)];
    if (i == victim) lut.function.set_bit(0, !lut.function.bit(0));
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

/// One offline flow. `optimize` selects table2_flow's default script;
/// otherwise map_sweep's --no-optimize flow with cutmap added.
class Flow {
 public:
  Flow(bool optimize, bool traced, bool inject_flip, Outcome& out)
      : optimize_(optimize),
        ledger_(traced),
        inject_pending_(inject_flip),
        out_(out) {
    if (optimize_) goldens_ = load_goldens();
    cutmap_ = core::find_mapper("cutmap");
    if (cutmap_ == nullptr) throw std::runtime_error("no cutmap mapper");
  }

  /// map_sweep runs cutmap on the fixed Table-2 circuits only: on ~1% of
  /// seeded random circuits it throws ("LUT inputs must be distinct"),
  /// and no operation of a workload may fail.
  bool runs_cutmap(const Circuit& c) const { return !optimize_ && c.table2; }

  int mappings(const Circuit& c) const {
    return kMaxK - kMinK + 1 + (runs_cutmap(c) ? 1 : 0);
  }

  void run_circuit(const Circuit& c, bool first_pass) {
    blif::BlifModel model;
    {
      Ledger::Span span(ledger_, "blif.read");
      model = blif::read_blif_string(c.blif);
    }
    count_["blif.read_bytes"] += static_cast<double>(c.blif.size());

    net::Network network;
    if (optimize_ && ledger_.enabled()) {
      // opt::optimize's script, one span per pass (script.cpp).
      sop::SopNetwork sop;
      {
        Ledger::Span span(ledger_, "opt.sweep");
        sop = model.network;
        opt::sweep(sop);
      }
      {
        Ledger::Span span(ledger_, "opt.simplify");
        count_["opt.simplify.nodes"] +=
            opt::simplify_covers(sop).nodes_simplified;
      }
      {
        Ledger::Span span(ledger_, "opt.extract");
        count_["opt.extract.divisors"] +=
            opt::extract_divisors(sop).divisors_extracted;
      }
      {
        Ledger::Span span(ledger_, "opt.simplify");
        count_["opt.simplify.nodes"] +=
            opt::simplify_covers(sop).nodes_simplified;
      }
      {
        Ledger::Span span(ledger_, "opt.sweep");
        opt::sweep(sop);
      }
      {
        Ledger::Span span(ledger_, "opt.decompose");
        network = opt::decompose_to_and_or(sop);
      }
      count_["opt.literals_after"] += sop.total_literals();
    } else if (optimize_) {
      opt::OptimizedDesign design = opt::optimize(model.network);
      network = std::move(design.network);
    } else {
      Ledger::Span span(ledger_, "opt.decompose");
      network = opt::decompose_to_and_or(model.network);
    }
    count_["opt.decompose.gates"] += network.num_gates();

    sim::Design source;
    {
      Ledger::Span span(ledger_, "sim.verify");
      source = sim::design_of(model.network);
    }
    const int inputs = static_cast<int>(model.network.inputs().size());
    for (int k = kMinK; k <= kMaxK; ++k) {
      core::Options options;
      options.k = k;
      options.jobs = 1;
      const core::MapResult mapped = [&] {
        Ledger::Span span(ledger_, "chortle.map");
        return core::map_network(network, options);
      }();
      finish(c, "chortle", k, mapped, source, inputs, first_pass);
    }
    if (runs_cutmap(c)) {
      core::Options options;
      options.k = kCutmapK;
      options.jobs = 1;
      const core::MapResult mapped = [&] {
        Ledger::Span span(ledger_, "cutmap.map");
        return cutmap_->map(network, options);
      }();
      finish(c, "cutmap", kCutmapK, mapped, source, inputs, first_pass);
    }
  }

  const Ledger& ledger() const { return ledger_; }
  const std::map<std::string, double>& counts() const { return count_; }
  std::int64_t luts_total() const { return luts_total_; }
  std::int64_t depth_total() const { return depth_total_; }

 private:
  void finish(const Circuit& c, const char* mapper, int k,
              const core::MapResult& mapped, const sim::Design& source,
              int inputs, bool first_pass) {
    std::optional<net::LutCircuit> corrupted;
    if (inject_pending_) {
      corrupted = with_flipped_bit(mapped.circuit);
      inject_pending_ = false;
    }
    const net::LutCircuit& circuit = corrupted ? *corrupted : mapped.circuit;
    std::string text;
    {
      Ledger::Span span(ledger_, "blif.write");
      text = blif::write_blif_string(circuit, "bench");
    }
    count_["blif.write_bytes"] += static_cast<double>(text.size());
    bool equivalent = false;
    {
      Ledger::Span span(ledger_, "sim.verify");
      equivalent = sim::equivalent(source, sim::design_of(circuit));
    }
    count_["sim.checks"] += 1;
    count_["sim.patterns"] += static_cast<double>(equivalence_patterns(inputs));

    ++out_.attempted;
    const std::string label =
        c.name + " " + mapper + " K=" + std::to_string(k);
    std::string problem;
    if (!equivalent) problem = "simulation mismatch against the source";
    const std::string hash = base::fnv1a64_hex(text);
    if (first_pass) {
      first_hash_[label] = hash;
      if (c.table2) {
        luts_total_ += mapped.stats.num_luts;
        depth_total_ += mapped.stats.depth;
      }
    } else if (first_hash_[label] != hash) {
      problem = "output differs from the first pass";
    }
    if (optimize_ && c.table2) {
      const auto it = goldens_.find({c.name, k});
      if (it == goldens_.end())
        problem = "no golden row";
      else if (it->second.luts != circuit.num_luts() ||
               it->second.hash != hash)
        problem = "golden mismatch: " + std::to_string(circuit.num_luts()) +
                  " LUTs, blif " + hash + " (expected " +
                  std::to_string(it->second.luts) + ", " + it->second.hash +
                  ")";
    }
    if (!problem.empty()) out_.fail(label + ": " + problem);
  }

  bool optimize_;
  Ledger ledger_;
  bool inject_pending_;
  Outcome& out_;
  Goldens goldens_;
  const core::IMapper* cutmap_ = nullptr;
  std::map<std::string, std::string> first_hash_;
  std::map<std::string, double> count_;
  std::int64_t luts_total_ = 0;
  std::int64_t depth_total_ = 0;
};

/// Layers in ledger order; the serve-only shares are reported as 0.
constexpr const char* kOfflineLayers[] = {
    "blif.read",   "opt.sweep",  "opt.simplify", "opt.extract",
    "opt.decompose", "chortle.map", "cutmap.map", "blif.write",
    "sim.verify"};

constexpr const char* kPerOpCounters[] = {
    "chortle.trees_mapped",          "chortle.tree.dp_cells",
    "chortle.tree.decomp_candidates", "chortle.tree.decomp_memo_hits",
    "chortle.emit.kernel_ops",       "cutmap.cuts_enumerated",
    "cutmap.repair_cuts",            "cutmap.decomposed_luts",
    "flowmap.maxflow_runs"};

/// Each circuit's time is the fastest of at least this many passes.
constexpr std::size_t kMinPasses = 3;

Outcome run_offline(const RunConfig& config, bool optimize) {
  Outcome out;
  const Clock::time_point gen_start = Clock::now();
  const std::vector<Circuit> inputs =
      optimize ? table2_flow_inputs(config.seed)
               : map_sweep_inputs(config.seed);
  std::vector<Circuit> giants;
  for (const std::string& name : mcnc::benchmark_names())
    if (optimize && is_giant(name))
      giants.push_back({name, table2_blif(name), true});
  set_metric(out.info, "gen_s", seconds_between(gen_start, Clock::now()),
             "s");

  Flow flow(optimize, config.traced, config.inject_flip, out);
  if (config.traced) obs::set_trace_enabled(true);
  const obs::MetricsSnapshot before = obs::Registry::global().snapshot();

  // Whole passes: at least kMinPasses, then more while the next one is
  // expected to end inside the window.
  std::vector<std::vector<double>> op_ms(inputs.size());
  std::vector<double> pass_walls;
  const Clock::time_point window_start = Clock::now();
  for (bool first_pass = true;; first_pass = false) {
    const Clock::time_point pass_start = Clock::now();
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const Clock::time_point op_start = Clock::now();
      try {
        flow.run_circuit(inputs[i], first_pass);
      } catch (const std::exception& error) {
        ++out.attempted;
        out.fail(inputs[i].name + ": " + error.what());
      }
      op_ms[i].push_back(seconds_between(op_start, Clock::now()) * 1e3);
    }
    pass_walls.push_back(seconds_between(pass_start, Clock::now()));
    if (pass_walls.size() >= kMinPasses &&
        seconds_between(window_start, Clock::now()) + pass_walls.back() >
            config.seconds)
      break;
  }
  const obs::MetricsSnapshot delta =
      obs::Registry::global().snapshot().since(before);
  obs::set_trace_enabled(false);

  // Each circuit's fastest pass (a repeat-min): the machine only ever
  // slows a job down, so a slow spell costs a sample, not the estimate.
  std::vector<double> circuit_ms;
  double pass_ms = 0.0;
  double mappings = 0.0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    circuit_ms.push_back(*std::min_element(op_ms[i].begin(), op_ms[i].end()));
    pass_ms += circuit_ms.back();
    mappings += flow.mappings(inputs[i]);
  }

  std::int64_t luts_total = flow.luts_total();
  std::int64_t depth_total = flow.depth_total();
  if (!giants.empty()) {
    Flow giant_flow(optimize, /*traced=*/false, /*inject_flip=*/false, out);
    const Clock::time_point giants_start = Clock::now();
    for (const Circuit& c : giants) {
      try {
        giant_flow.run_circuit(c, true);
      } catch (const std::exception& error) {
        ++out.attempted;
        out.fail(c.name + ": " + error.what());
      }
    }
    set_metric(out.info, "giants_s",
               seconds_between(giants_start, Clock::now()), "s");
    luts_total += giant_flow.luts_total();
    depth_total += giant_flow.depth_total();
  }

  set_metric(out.metrics, "throughput_per_s", mappings / (pass_ms * 1e-3),
             "1/s");
  set_metric(out.metrics, "p50_ms", median(circuit_ms), "ms");
  set_metric(out.metrics, "tail_ms",
             *std::max_element(circuit_ms.begin(), circuit_ms.end()), "ms");
  set_metric(out.metrics, "luts_total", static_cast<double>(luts_total),
             "luts");
  set_metric(out.metrics, "depth_total", static_cast<double>(depth_total),
             "levels");
  set_metric(out.info, "wall_s", median(pass_walls), "s");
  set_metric(out.info, "passes", static_cast<double>(pass_walls.size()),
             "count");

  if (!config.traced) return out;
  double wall = 0.0;
  for (const double w : pass_walls) wall += w;
  const double ops =
      static_cast<double>(inputs.size() * pass_walls.size());
  for (const char* layer : kOfflineLayers) {
    const auto it = flow.ledger().totals().find(layer);
    const double seconds =
        it == flow.ledger().totals().end() ? 0.0 : it->second;
    set_metric(out.layers, std::string(layer) + ".share",
               100.0 * seconds / wall, "%");
    set_metric(out.info, std::string(layer) + "_s",
               seconds / static_cast<double>(pass_walls.size()), "s/pass");
  }
  const double unattributed = wall - flow.ledger().total();
  set_metric(out.layers, "unattributed.share", 100.0 * unattributed / wall,
             "%");
  set_metric(out.info, "unattributed_s",
             unattributed / static_cast<double>(pass_walls.size()),
             "s/pass");
  // The ledger must account for the pass: self times plus the remainder
  // equal pass wall by construction, and the remainder stays small.
  if (unattributed > 0.05 * wall)
    out.fail("ledger leaves " + std::to_string(100.0 * unattributed / wall) +
             "% of pass wall unattributed (limit 5%)");

  const std::map<std::string, double>& counts = flow.counts();
  const auto count = [&](const std::string& name) {
    const auto it = counts.find(name);
    return it == counts.end() ? 0.0 : it->second;
  };
  for (const char* name : {"blif.read_bytes", "blif.write_bytes"})
    set_metric(out.layers, name, count(name) / ops, "bytes/op");
  for (const char* name : {"opt.extract.divisors", "opt.literals_after",
                           "opt.simplify.nodes", "opt.decompose.gates"})
    set_metric(out.layers, name, count(name) / ops, "count/op");
  for (const char* name : kPerOpCounters)
    set_metric(out.layers, name,
               static_cast<double>(delta.counter(name)) / ops, "count/op");
  set_metric(out.layers, "sim.patterns",
             count("sim.patterns") / count("sim.checks"), "count/check");
  const double divisors = count("opt.extract.divisors");
  if (divisors > 0.0)
    set_metric(out.info, "opt.extract.s_per_divisor",
               flow.ledger().totals().at("opt.extract") / divisors, "s");
  return out;
}

}  // namespace

Outcome run_table2_flow(const RunConfig& config) {
  return run_offline(config, /*optimize=*/true);
}

Outcome run_map_sweep(const RunConfig& config) {
  return run_offline(config, /*optimize=*/false);
}

void setup_offline_once(const std::string& workload,
                        const std::function<void()>& ready) {
  Outcome out;
  Flow flow(workload == "table2_flow", false, false, out);
  flow.run_circuit({"count", table2_blif("count"), false}, true);
  if (!out.correct())
    throw std::runtime_error("set-up mapping failed: " +
                             (out.failures.empty() ? std::string("no checks")
                                                   : out.failures.front()));
  ready();
}

}  // namespace chortle::suite
