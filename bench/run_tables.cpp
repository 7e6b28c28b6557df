// Benchmark driver for the mapping hot path: runs every MCNC-substitute
// benchmark through the optimization script once, then times
// core::map_network alone (no baseline mapper, no verification — those
// dominate the table benches and would bury the mapper signal) for
// K = kmin..kmax in four modes:
//
//   serial       --jobs 1, no DP cache (the paper's configuration)
//   jobs         --jobs N (parallel tree solving)
//   cache_cold   --jobs 1 with a fresh cross-request DP cache
//   cache_warm   --jobs 1 re-mapping through the now-populated cache
//
// Every mode must produce byte-identical BLIF; the driver fails loudly
// if any mode disagrees with the serial mapping. Results are written as
// BENCH_chortle.json (schema chortle-bench/1) so each PR has a measured
// runtime trajectory to compare against; see DESIGN.md "Performance
// model" for how to read the file.
//
// Flags:
//   --out PATH         JSON output path (default BENCH_chortle.json)
//   --mapper NAME      registry backend to time (default chortle). Any
//                      other registered mapper — flowmap, cutmap,
//                      libmap, portfolio — runs in serial mode only
//                      (the jobs/cache modes are chortle's seams); the
//                      default keeps the historical output and the
//                      committed baselines byte-identical.
//   --benchmarks CSV   subset of benchmark names (default: all twelve)
//   --kmin N --kmax N  K range (default 2..6)
//   --jobs N           worker threads for the "jobs" mode (default 4)
//   --repeat R         timing repetitions, minimum is reported (default 3)
//   --label STR        free-form label recorded in the JSON
//   --golden-out PATH  also write tests/golden-style TSV rows
//                      (name, k, luts, blif_fnv1a64)
//   --check PATH       gate against a previously written JSON
//                      (bench/table_common.hpp): every field but the
//                      seconds must match exactly, and each mode's
//                      summed seconds may drift up to 15% when its
//                      baseline total is at least 5 ms. Exits 3 on a
//                      perf regression, 1 on any exact mismatch, 2 on
//                      an unusable baseline.
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "base/fnv.hpp"
#include "base/timer.hpp"
#include "blif/blif.hpp"
#include "chortle/dp_cache.hpp"
#include "chortle/imapper.hpp"
#include "chortle/mapper.hpp"
#include "mcnc/generators.hpp"
#include "obs/json.hpp"
#include "opt/script.hpp"
#include "portfolio/portfolio.hpp"
#include "table_common.hpp"

namespace chortle::bench {
namespace {

struct Flags {
  std::string out = "BENCH_chortle.json";
  std::string mapper = "chortle";
  std::vector<std::string> benchmarks;
  int kmin = 2;
  int kmax = 6;
  int jobs = 4;
  int repeat = 3;
  std::string label;
  std::string golden_out;
  std::string check;
};

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream stream(csv);
  std::string item;
  while (std::getline(stream, item, ','))
    if (!item.empty()) out.push_back(item);
  return out;
}

/// nullopt (after a message) on a bad command line.
std::optional<Flags> parse_command_line(int argc, char** argv) {
  Flags flags;
  std::string benchmarks;
  if (!parse_flags(argc, argv,
                   {{"--out", &flags.out},
                    {"--mapper", &flags.mapper},
                    {"--benchmarks", &benchmarks},
                    {"--kmin", &flags.kmin},
                    {"--kmax", &flags.kmax},
                    {"--jobs", &flags.jobs},
                    {"--repeat", &flags.repeat},
                    {"--label", &flags.label},
                    {"--golden-out", &flags.golden_out},
                    {"--check", &flags.check}},
                   "usage: run_tables [--out FILE] [--mapper NAME]\n"
                   "                  [--benchmarks a,b,c]\n"
                   "                  [--kmin N] [--kmax N] [--jobs N]\n"
                   "                  [--repeat R] [--label STR]\n"
                   "                  [--golden-out FILE] [--check FILE]\n"))
    return std::nullopt;
  flags.benchmarks = split_csv(benchmarks);
  if (flags.kmin < 2 || flags.kmax > 6 || flags.kmin > flags.kmax ||
      flags.jobs < 1 || flags.repeat < 1) {
    std::fprintf(stderr, "run_tables: bad flag values\n");
    return std::nullopt;
  }
  return flags;
}

struct Row {
  std::string name;
  int k = 0;
  int luts = 0;
  int depth = 0;
  std::string blif_hash;  // fnv1a64 of the serial BLIF, hex
  double seconds_serial = 0.0;
  double seconds_jobs = 0.0;
  double seconds_cache_cold = 0.0;
  double seconds_cache_warm = 0.0;
};

/// Times `repeat` runs of map_network and returns the minimum seconds;
/// the last result's circuit is written out as BLIF text.
template <typename MapFn>
double time_mapping(int repeat, MapFn map, std::string* blif_out,
                    int* luts_out, int* depth_out = nullptr) {
  double best = 0.0;
  for (int r = 0; r < repeat; ++r) {
    WallTimer timer;
    const core::MapResult result = map();
    const double seconds = timer.seconds();
    if (r == 0 || seconds < best) best = seconds;
    if (r == repeat - 1) {
      if (blif_out != nullptr)
        *blif_out = blif::write_blif_string(result.circuit, "bench");
      if (luts_out != nullptr) *luts_out = result.stats.num_luts;
      if (depth_out != nullptr) *depth_out = result.stats.depth;
    }
  }
  return best;
}

int run(const Flags& flags) {
  std::vector<std::string> names = flags.benchmarks;
  if (names.empty()) names = mcnc::benchmark_names();

  // Any backend other than chortle is timed through the registry in
  // serial mode only: the jobs/cache columns exercise chortle-specific
  // seams (tree-level parallelism, the cross-request DP cache) that the
  // other mappers do not share.
  const core::IMapper* backend = nullptr;
  if (flags.mapper != "chortle") {
    portfolio::ensure_registered();
    backend = core::find_mapper(flags.mapper);
    if (backend == nullptr) {
      std::fprintf(stderr, "run_tables: unknown mapper '%s' (registered: %s)\n",
                   flags.mapper.c_str(), core::mapper_names().c_str());
      return 2;
    }
  }

  std::vector<Row> rows;
  int blif_mismatches = 0;
  for (const std::string& name : names) {
    const sop::SopNetwork source = mcnc::generate(name);
    const opt::OptimizedDesign design = opt::optimize(source);
    for (int k = flags.kmin; k <= flags.kmax; ++k) {
      Row row;
      row.name = name;
      row.k = k;

      if (backend != nullptr) {
        if (k < backend->min_k() || k > backend->max_k()) continue;
        core::Options options;
        options.k = k;
        options.jobs = 1;
        std::string blif;
        row.seconds_serial = time_mapping(
            flags.repeat,
            [&] { return backend->map(design.network, options); }, &blif,
            &row.luts, &row.depth);
        row.blif_hash = base::fnv1a64_hex(blif);
        std::printf("%-8s K=%d  luts %5d  depth %3d  %s %8.4fs\n",
                    name.c_str(), k, row.luts, row.depth, backend->name(),
                    row.seconds_serial);
        rows.push_back(std::move(row));
        continue;
      }

      core::Options serial;
      serial.k = k;
      serial.jobs = 1;
      std::string serial_blif;
      row.seconds_serial = time_mapping(
          flags.repeat,
          [&] { return core::map_network(design.network, serial); },
          &serial_blif, &row.luts, &row.depth);
      row.blif_hash = base::fnv1a64_hex(serial_blif);

      core::Options parallel = serial;
      parallel.jobs = flags.jobs;
      std::string jobs_blif;
      row.seconds_jobs = time_mapping(
          flags.repeat,
          [&] { return core::map_network(design.network, parallel); },
          &jobs_blif, nullptr);

      core::DpCache cache;
      std::string cold_blif;
      row.seconds_cache_cold = time_mapping(
          1, [&] { return core::map_network(design.network, serial, &cache); },
          &cold_blif, nullptr);
      std::string warm_blif;
      row.seconds_cache_warm = time_mapping(
          flags.repeat,
          [&] { return core::map_network(design.network, serial, &cache); },
          &warm_blif, nullptr);

      for (const auto& [mode, blif] :
           {std::pair<const char*, const std::string*>{"jobs", &jobs_blif},
            {"cache_cold", &cold_blif},
            {"cache_warm", &warm_blif}}) {
        if (*blif != serial_blif) {
          std::fprintf(stderr,
                       "run_tables: %s K=%d: %s BLIF differs from serial\n",
                       name.c_str(), k, mode);
          ++blif_mismatches;
        }
      }

      std::printf(
          "%-8s K=%d  luts %5d  depth %3d  serial %8.4fs  jobs%-2d %8.4fs  "
          "cold %8.4fs  warm %8.4fs\n",
          name.c_str(), k, row.luts, row.depth, row.seconds_serial,
          flags.jobs, row.seconds_jobs, row.seconds_cache_cold,
          row.seconds_cache_warm);
      rows.push_back(std::move(row));
    }
  }

  obs::Json doc = obs::Json::object();
  doc.set("schema", "chortle-bench/1");
  // Only recorded off the default so historical chortle baselines stay
  // byte-identical.
  if (flags.mapper != "chortle") doc.set("mapper", flags.mapper);
  if (!flags.label.empty()) doc.set("label", flags.label);
  doc.set("kmin", flags.kmin);
  doc.set("kmax", flags.kmax);
  doc.set("jobs", flags.jobs);
  doc.set("repeat", flags.repeat);
  obs::Json bench_rows = obs::Json::array();
  double total[4] = {0, 0, 0, 0};
  long total_luts = 0;
  for (const Row& row : rows) {
    obs::Json entry = obs::Json::object();
    entry.set("name", row.name);
    entry.set("k", row.k);
    entry.set("luts", row.luts);
    entry.set("depth", row.depth);
    entry.set("blif_fnv1a64", row.blif_hash);
    entry.set("seconds_serial", row.seconds_serial);
    entry.set("seconds_jobs", row.seconds_jobs);
    entry.set("seconds_cache_cold", row.seconds_cache_cold);
    entry.set("seconds_cache_warm", row.seconds_cache_warm);
    bench_rows.push_back(std::move(entry));
    total[0] += row.seconds_serial;
    total[1] += row.seconds_jobs;
    total[2] += row.seconds_cache_cold;
    total[3] += row.seconds_cache_warm;
    total_luts += row.luts;
  }
  doc.set("benchmarks", std::move(bench_rows));
  obs::Json totals = obs::Json::object();
  totals.set("rows", static_cast<int>(rows.size()));
  totals.set("luts", static_cast<std::int64_t>(total_luts));
  totals.set("seconds_serial", total[0]);
  totals.set("seconds_jobs", total[1]);
  totals.set("seconds_cache_cold", total[2]);
  totals.set("seconds_cache_warm", total[3]);
  doc.set("totals", std::move(totals));

  if (!write_json(doc, flags.out, "run_tables")) return 1;
  std::printf("total: serial %.4fs  jobs %.4fs  cold %.4fs  warm %.4fs  "
              "-> %s\n",
              total[0], total[1], total[2], total[3], flags.out.c_str());

  if (!flags.golden_out.empty()) {
    std::ofstream out(flags.golden_out);
    if (!out) {
      std::fprintf(stderr, "run_tables: cannot write %s\n",
                   flags.golden_out.c_str());
      return 1;
    }
    out << "# benchmark\tk\tluts\tblif_fnv1a64\n";
    for (const Row& row : rows)
      out << row.name << "\t" << row.k << "\t" << row.luts << "\t"
          << row.blif_hash << "\n";
  }

  if (blif_mismatches > 0) return 1;
  if (!flags.check.empty())
    return check_against_baseline(doc, flags.check, "run_tables");
  return 0;
}

}  // namespace
}  // namespace chortle::bench

int main(int argc, char** argv) {
  const auto flags = chortle::bench::parse_command_line(argc, argv);
  if (!flags) return 2;
  return chortle::bench::run(*flags);
}
