// Extension bench: the deadline-aware portfolio racer (src/portfolio)
// on the Table-2 benchmark suite. For every circuit it races the full
// default lineup (chortle fallback, flowmap, cutmap, libmap) with no
// budget — every racer runs to completion, so the winner set and the
// emitted circuit are deterministic — and reports, per row:
//
//   luts / depth   the winning cover under the LUT objective
//   winner         which strategy (or "stitched") won the race
//   stitch         trees a non-fallback strategy won, when stitched won
//   chor/flow/cut/lib   each strategy's solo whole-network LUT count
//
// Two guarantees are asserted on every circuit: the portfolio's LUT
// count never exceeds any individual strategy's (ties break toward the
// chortle fallback, so racing can only help), and a second pass with a
// 1 ms budget — the starvation worst case — still returns a cover that
// verifies. The unbudgeted winner is checked with verify::check at
// kRoundTrip (simulation, BDD, BLIF write and re-read), the 1 ms cover
// at kSimulate.
//
// Flags:
//   --out PATH       JSON output (default BENCH_portfolio.json)
//   --k N            LUT arity (default 6)
//   --repeat R       timing repetitions, minimum reported (default 2)
//   --check PATH     gate against a committed baseline
//                    (bench/table_common.hpp): every field but the
//                    seconds — LUT counts, depth, winner, stitched
//                    trees, solo counts, BLIF hash — must match exactly,
//                    and the summed seconds may drift up to 15%. Exits 3
//                    on a perf regression, 1 on any exact mismatch, 2 on
//                    an unusable baseline.
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "base/fnv.hpp"
#include "base/timer.hpp"
#include "blif/blif.hpp"
#include "chortle/imapper.hpp"
#include "mcnc/generators.hpp"
#include "obs/json.hpp"
#include "opt/script.hpp"
#include "portfolio/portfolio.hpp"
#include "table_common.hpp"
#include "verify/verify.hpp"

namespace chortle::bench {
namespace {

int run(int argc, char** argv) {
  std::string out = "BENCH_portfolio.json";
  std::string check;
  int k = 6;
  int repeat = 2;
  if (!parse_flags(argc, argv,
                   {{"--out", &out},
                    {"--check", &check},
                    {"--k", &k},
                    {"--repeat", &repeat}},
                   "usage: ext_portfolio [--out FILE] [--k N] [--repeat R]\n"
                   "                     [--check FILE]\n"))
    return 2;
  if (k < 2 || k > 6 || repeat < 1) {
    std::fprintf(stderr, "ext_portfolio: bad flag values\n");
    return 2;
  }

  portfolio::ensure_registered();
  const std::vector<const core::IMapper*> lineup =
      portfolio::default_strategies();
  std::printf("Extension: portfolio race (full lineup, no budget), K=%d\n",
              k);
  std::printf("%-8s %6s %6s %-9s %6s %6s %6s %6s %6s %9s\n", "circuit",
              "luts", "depth", "winner", "stitch", "chor", "flow", "cut",
              "lib", "t(s)");

  obs::Json rows = obs::Json::array();
  int failures = 0;
  long total_luts = 0;
  long total_depth = 0;
  long total_solo_best = 0;
  double total_seconds = 0.0;
  for (const std::string& name : mcnc::benchmark_names()) {
    const sop::SopNetwork source = mcnc::generate(name);
    const opt::OptimizedDesign design = opt::optimize(source);

    core::Options options;
    options.k = k;

    // Solo runs: every strategy alone on the whole network, the
    // attribution columns and the never-worse floor.
    std::map<std::string, int> solo_luts;  // strategy name -> whole cover
    for (const core::IMapper* strategy : lineup)
      solo_luts[strategy->name()] =
          strategy->map(design.network, options).stats.num_luts;
    const int solo_best =
        std::min_element(solo_luts.begin(), solo_luts.end(),
                         [](const auto& a, const auto& b) {
                           return a.second < b.second;
                         })
            ->second;

    // The race, unbudgeted: deterministic winner set and output.
    portfolio::PortfolioConfig race;
    race.objective = portfolio::Objective::kLuts;
    race.budget_ms = -1;
    portfolio::PortfolioStats stats;
    core::MapResult result{net::LutCircuit(k), core::MapStats{}};
    double seconds = 0.0;
    for (int r = 0; r < repeat; ++r) {
      WallTimer timer;
      result = portfolio::default_portfolio().map_with(design.network,
                                                       options, race,
                                                       &stats);
      const double elapsed = timer.seconds();
      if (r == 0 || elapsed < seconds) seconds = elapsed;
    }
    const int luts = result.stats.num_luts;
    const int depth = result.stats.depth;

    bool ok = true;
    // Guarantee 1: racing never loses to the best solo strategy (nor,
    // in particular, to the chortle fallback).
    if (luts > solo_best) {
      std::fprintf(stderr,
                   "ext_portfolio: %s portfolio %d LUTs worse than best "
                   "solo %d\n",
                   name.c_str(), luts, solo_best);
      ok = false;
    }
    if (ok)
      ok = verify::check(source, result.circuit, verify::Level::kRoundTrip)
               .ok();

    // Guarantee 2: a starved race (1 ms budget) still returns a
    // verified cover — the uncancellable fallback at worst.
    if (ok) {
      portfolio::PortfolioConfig starved = race;
      starved.budget_ms = 1;
      const core::MapResult rushed = portfolio::default_portfolio()
                                         .map_with(design.network, options,
                                                   starved, nullptr);
      ok = verify::check(source, rushed.circuit, verify::Level::kSimulate)
               .ok();
      if (!ok)
        std::fprintf(stderr,
                     "ext_portfolio: %s 1ms-budget cover failed to verify\n",
                     name.c_str());
    }
    if (!ok) ++failures;

    std::printf("%-8s %6d %6d %-9s %6d %6d %6d %6d %6d %9.4f%s\n",
                name.c_str(), luts, depth, stats.winner.c_str(),
                stats.stitched_trees, solo_luts["chortle"],
                solo_luts["flowmap"], solo_luts["cutmap"],
                solo_luts["libmap"], seconds, ok ? "" : "  VERIFY-FAIL");
    total_luts += luts;
    total_depth += depth;
    total_solo_best += solo_best;
    total_seconds += seconds;

    obs::Json entry = obs::Json::object();
    entry.set("name", name);
    entry.set("k", k);
    entry.set("luts", luts);
    entry.set("depth", depth);
    entry.set("winner", stats.winner);
    entry.set("stitched_trees", stats.stitched_trees);
    for (const auto& [strategy, strategy_luts] : solo_luts)
      entry.set("luts_" + strategy, strategy_luts);
    entry.set("blif_fnv1a64",
              base::fnv1a64_hex(blif::write_blif_string(
                  result.circuit, name + "_portfolio")));
    entry.set("seconds", seconds);
    rows.push_back(std::move(entry));
  }
  std::printf("%-8s %6ld %6ld  (best solo total %ld)\n", "total", total_luts,
              total_depth, total_solo_best);

  const int num_rows = static_cast<int>(rows.as_array().size());
  obs::Json doc = obs::Json::object();
  doc.set("schema", "chortle-portfolio-bench/1");
  doc.set("k", k);
  doc.set("repeat", repeat);
  doc.set("benchmarks", std::move(rows));
  obs::Json totals = obs::Json::object();
  totals.set("rows", num_rows);
  totals.set("luts", static_cast<std::int64_t>(total_luts));
  totals.set("depth", static_cast<std::int64_t>(total_depth));
  totals.set("best_solo_luts", static_cast<std::int64_t>(total_solo_best));
  totals.set("seconds", total_seconds);
  doc.set("totals", std::move(totals));
  if (!write_json(doc, out, "ext_portfolio")) return 1;
  std::printf("total: %.4fs  -> %s\n", total_seconds, out.c_str());

  if (failures > 0) return 1;
  if (!check.empty())
    return check_against_baseline(doc, check, "ext_portfolio");
  return 0;
}

}  // namespace
}  // namespace chortle::bench

int main(int argc, char** argv) { return chortle::bench::run(argc, argv); }
