// Extension bench: the priority-cuts delay-driven mapper (src/cutmap)
// on the Table-2 benchmark suite. For every circuit it maps the
// 2-input subject graph at K (default 6) and reports, per row:
//
//   luts        final LUT count after area recovery
//   first       LUT count of the depth-only first pass
//   rec%        area-recovery win over the first pass
//   depth       mapped LUT depth
//   bound       FlowMap-optimal depth label of the subject graph
//   casc        LUTs emitted as decomposition cascades
//
// Every mapped circuit is verified against the source with
// verify::check at kRoundTrip: simulation, BDD equivalence, and again
// after a BLIF write and re-read (the emitted netlist must mean what
// the mapper computed). The mapper's own invariant guarantees
// depth <= bound; this bench fails loudly if that ever breaks.
//
// Flags:
//   --out PATH       JSON output (default BENCH_cutmap.json)
//   --k N            LUT arity (default 6)
//   --repeat R       timing repetitions, minimum reported (default 3)
//   --check PATH     gate against a committed baseline
//                    (bench/table_common.hpp): every field but the
//                    seconds must match exactly, and the summed seconds
//                    may drift up to 15%. Exits 3 on a perf regression,
//                    1 on any exact mismatch, 2 on an unusable baseline.
#include <cstdio>
#include <string>

#include "base/fnv.hpp"
#include "base/timer.hpp"
#include "blif/blif.hpp"
#include "cutmap/cutmap.hpp"
#include "libmap/subject.hpp"
#include "mcnc/generators.hpp"
#include "obs/json.hpp"
#include "opt/script.hpp"
#include "table_common.hpp"
#include "verify/verify.hpp"

namespace chortle::bench {
namespace {

int run(int argc, char** argv) {
  std::string out = "BENCH_cutmap.json";
  std::string check;
  int k = 6;
  int repeat = 3;
  if (!parse_flags(argc, argv,
                   {{"--out", &out},
                    {"--check", &check},
                    {"--k", &k},
                    {"--repeat", &repeat}},
                   "usage: ext_cutmap [--out FILE] [--k N] [--repeat R]\n"
                   "                  [--check FILE]\n"))
    return 2;
  if (k < 2 || k > cutmap::CutMapOptions::kMaxK || repeat < 1) {
    std::fprintf(stderr, "ext_cutmap: bad flag values\n");
    return 2;
  }

  std::printf("Extension: priority-cuts delay-driven mapper, K=%d\n", k);
  std::printf("%-8s %6s %6s %6s %6s %6s %5s %9s\n", "circuit", "luts",
              "first", "rec%", "depth", "bound", "casc", "t(s)");

  obs::Json rows = obs::Json::array();
  int failures = 0;
  long total_luts = 0;
  long total_first = 0;
  long total_depth = 0;
  long total_bound = 0;
  double total_seconds = 0.0;
  for (const std::string& name : mcnc::benchmark_names()) {
    const sop::SopNetwork source = mcnc::generate(name);
    const opt::OptimizedDesign design = opt::optimize(source);
    const net::Network subject =
        libmap::build_subject_graph(design.network);

    cutmap::CutMapOptions options;
    options.k = k;
    cutmap::CutMapResult result{net::LutCircuit(k), cutmap::CutMapStats{}};
    double seconds = 0.0;
    for (int r = 0; r < repeat; ++r) {
      WallTimer timer;
      result = cutmap::map_luts(subject, options);
      const double elapsed = timer.seconds();
      if (r == 0 || elapsed < seconds) seconds = elapsed;
    }
    const cutmap::CutMapStats& stats = result.stats;
    const bool ok =
        verify::check(source, result.circuit, verify::Level::kRoundTrip)
            .ok() &&
        stats.depth <= stats.depth_bound;
    if (!ok) ++failures;

    const double recovery =
        stats.first_pass_luts > 0
            ? 100.0 * (stats.first_pass_luts - stats.num_luts) /
                  stats.first_pass_luts
            : 0.0;
    std::printf("%-8s %6d %6d %5.1f%% %6d %6d %5d %9.4f%s\n", name.c_str(),
                stats.num_luts, stats.first_pass_luts, recovery, stats.depth,
                stats.depth_bound, stats.decomposed_luts, seconds,
                ok ? "" : "  VERIFY-FAIL");
    total_luts += stats.num_luts;
    total_first += stats.first_pass_luts;
    total_depth += stats.depth;
    total_bound += stats.depth_bound;
    total_seconds += seconds;

    obs::Json entry = obs::Json::object();
    entry.set("name", name);
    entry.set("k", k);
    entry.set("luts", stats.num_luts);
    entry.set("first_pass_luts", stats.first_pass_luts);
    entry.set("depth", stats.depth);
    entry.set("depth_bound", stats.depth_bound);
    entry.set("decomposed_luts", stats.decomposed_luts);
    entry.set("blif_fnv1a64",
              base::fnv1a64_hex(blif::write_blif_string(
                  result.circuit, name + "_cutmap")));
    entry.set("seconds", seconds);
    rows.push_back(std::move(entry));
  }
  std::printf("%-8s %6ld %6ld %5.1f%% %6ld %6ld\n", "total", total_luts,
              total_first,
              100.0 * (total_first - total_luts) /
                  static_cast<double>(total_first),
              total_depth, total_bound);

  const int num_rows = static_cast<int>(rows.as_array().size());
  obs::Json doc = obs::Json::object();
  doc.set("schema", "chortle-bench/1");
  doc.set("k", k);
  doc.set("repeat", repeat);
  doc.set("benchmarks", std::move(rows));
  obs::Json totals = obs::Json::object();
  totals.set("rows", num_rows);
  totals.set("luts", static_cast<std::int64_t>(total_luts));
  totals.set("first_pass_luts", static_cast<std::int64_t>(total_first));
  totals.set("depth", static_cast<std::int64_t>(total_depth));
  totals.set("depth_bound", static_cast<std::int64_t>(total_bound));
  totals.set("seconds", total_seconds);
  doc.set("totals", std::move(totals));
  if (!write_json(doc, out, "ext_cutmap")) return 1;
  std::printf("total: %.4fs  -> %s\n", total_seconds, out.c_str());

  if (failures > 0) return 1;
  if (!check.empty()) return check_against_baseline(doc, check, "ext_cutmap");
  return 0;
}

}  // namespace
}  // namespace chortle::bench

int main(int argc, char** argv) { return chortle::bench::run(argc, argv); }
