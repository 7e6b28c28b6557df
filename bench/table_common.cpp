#include "table_common.hpp"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "base/thread_pool.hpp"
#include "base/timer.hpp"
#include "chortle/mapper.hpp"
#include "libmap/library.hpp"
#include "libmap/matcher.hpp"
#include "mcnc/generators.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "opt/script.hpp"
#include "verify/verify.hpp"

namespace chortle::bench {
namespace {

/// Strict int: the whole text must be a decimal number in int range.
bool parse_int(const char* text, int* out) {
  errno = 0;
  char* end = nullptr;
  const long parsed = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || parsed < INT_MIN ||
      parsed > INT_MAX)
    return false;
  *out = static_cast<int>(parsed);
  return true;
}

}  // namespace

bool parse_flags(int argc, char** argv, std::initializer_list<Flag> flags,
                 const char* usage) {
  for (int i = 1; i < argc; ++i) {
    const Flag* flag = nullptr;
    for (const Flag& candidate : flags)
      if (std::strcmp(argv[i], candidate.name) == 0) flag = &candidate;
    if (flag == nullptr || i + 1 >= argc) {
      std::fputs(usage, stderr);
      return false;
    }
    const char* text = argv[++i];
    if (std::string* const* target = std::get_if<std::string*>(&flag->value)) {
      **target = text;
    } else if (!parse_int(text, std::get<int*>(flag->value))) {
      std::fprintf(stderr, "%s expects a whole number, got '%s'\n",
                   flag->name, text);
      std::fputs(usage, stderr);
      return false;
    }
  }
  return true;
}

bool write_json(const obs::Json& doc, const std::string& path,
                const char* tool) {
  std::ofstream out(path);
  if (out) {
    doc.dump(out, 2);
    out << "\n";
  }
  if (!out) {
    std::fprintf(stderr, "%s: cannot write %s\n", tool, path.c_str());
    return false;
  }
  return true;
}

int compare_to_baseline(const obs::Json& current, const obs::Json& baseline,
                        const char* tool) {
  const obs::Json* base_rows = baseline.find("benchmarks");
  const obs::Json* rows = current.find("benchmarks");
  if (base_rows == nullptr || !base_rows->is_array() || rows == nullptr ||
      !rows->is_array()) {
    std::fprintf(stderr, "%s: baseline has no benchmarks array\n", tool);
    return 2;
  }
  using Key = std::pair<std::string, std::string>;  // dumped name, k
  const auto key_of = [](const obs::Json& row) -> std::optional<Key> {
    const obs::Json* name = row.find("name");
    const obs::Json* k = row.find("k");
    if (name == nullptr || k == nullptr) return std::nullopt;
    return Key{name->dump(), k->dump()};
  };
  std::map<Key, const obs::Json*> base_by_key;
  for (const obs::Json& row : base_rows->as_array())
    if (const auto key = key_of(row)) base_by_key[*key] = &row;

  struct Column {
    std::string field;
    double base = 0.0;
    double current = 0.0;
  };
  std::vector<Column> timing;  // in the baseline's field order
  int compared = 0;
  int mismatches = 0;
  for (const obs::Json& row : rows->as_array()) {
    const auto key = key_of(row);
    const auto it = key ? base_by_key.find(*key) : base_by_key.end();
    if (it == base_by_key.end()) continue;
    ++compared;
    for (const auto& [field, base_value] : it->second->as_object()) {
      const obs::Json* value = row.find(field);
      if (value != nullptr && field.rfind("seconds", 0) == 0) {
        auto column = std::find_if(timing.begin(), timing.end(),
                                   [&](const Column& c) {
                                     return c.field == field;
                                   });
        if (column == timing.end())
          column = timing.insert(timing.end(), Column{field});
        column->base += base_value.as_number();
        column->current += value->as_number();
        continue;
      }
      const std::string want = base_value.dump();
      const std::string got = value != nullptr ? value->dump() : "missing";
      if (got == want) continue;
      std::fprintf(stderr,
                   "%s: %s mismatch vs baseline: %s K=%s (baseline %s, "
                   "current %s)\n",
                   tool, field.c_str(), key->first.c_str(),
                   key->second.c_str(), want.c_str(), got.c_str());
      ++mismatches;
    }
  }
  if (compared == 0) {
    std::fprintf(stderr, "%s: baseline shares no (name, K) rows\n", tool);
    return 2;
  }
  if (mismatches > 0) return 1;

  int regressions = 0;
  for (const Column& column : timing) {
    if (column.base < kMinTimedSeconds) {
      std::printf("check %-18s baseline %8.4fs  below %.0f ms, not timed\n",
                  column.field.c_str(), column.base, kMinTimedSeconds * 1e3);
      continue;
    }
    const double ratio = column.current / column.base;
    std::printf("check %-18s baseline %8.4fs  current %8.4fs  ratio %.2f\n",
                column.field.c_str(), column.base, column.current, ratio);
    if (ratio > 1.0 + kTimeTolerance) {
      std::fprintf(stderr, "%s: %s regressed %.0f%% (> %.0f%% tolerance)\n",
                   tool, column.field.c_str(), (ratio - 1.0) * 100.0,
                   kTimeTolerance * 100.0);
      ++regressions;
    }
  }
  return regressions > 0 ? 3 : 0;
}

int check_against_baseline(const obs::Json& current,
                           const std::string& baseline_path,
                           const char* tool) {
  std::ifstream in(baseline_path);
  if (!in) {
    std::fprintf(stderr, "%s: cannot open baseline %s\n", tool,
                 baseline_path.c_str());
    return 2;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  try {
    return compare_to_baseline(current, obs::Json::parse(buffer.str()), tool);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "%s: unusable baseline %s: %s\n", tool,
                 baseline_path.c_str(), error.what());
    return 2;
  }
}

int run_table(int k, const char* table_name, int argc, char** argv) {
  std::string stats_out;
  std::string trace_out;
  int jobs = 0;  // 0 = auto (CHORTLE_JOBS, else 1)
  if (!parse_flags(argc, argv,
                   {{"--stats-out", &stats_out},
                    {"--trace-out", &trace_out},
                    {"--jobs", &jobs}},
                   "usage: table [--stats-out FILE] [--trace-out FILE] "
                   "[--jobs N]\n"))
    return 2;
  if (jobs < 0 || jobs > 512) {
    std::fprintf(stderr, "--jobs expects an integer in [0, 512]\n");
    return 2;
  }
  if (trace_out.empty()) trace_out = obs::trace_path_from_env();
  if (!trace_out.empty()) obs::set_trace_enabled(true);

  obs::RunReport report(table_name);
  report.set_option("k", k);
  obs::TraceSpan table_span(std::string("bench.") + table_name);

  std::printf("%s: Results, K=%d (Chortle DAC-90 reproduction)\n",
              table_name, k);
  std::printf("Baseline: MIS II-style tree covering, %s library\n",
              k <= 3 ? "complete" : "level-0-kernel (incomplete)");
  std::printf("%-8s %10s %10s %7s %10s %10s\n", "circuit", "#tab MIS",
              "#tab Chor", "%", "t(s) MIS", "t(s) Chor");

  core::Options options;
  options.k = k;
  options.jobs = jobs;
  report.set_option("split_threshold", options.split_threshold);
  report.set_option("duplicate_fanout_logic",
                    options.duplicate_fanout_logic);
  report.set_option("jobs", base::resolve_jobs(options.jobs));

  const libmap::Library library = [&] {
    ScopedTimer timer(obs::phase_sink(report, "library"));
    return k <= 3 ? libmap::Library::complete(k)
                  : libmap::Library::level0_kernels(k);
  }();

  double sum_percent = 0.0;
  int rows = 0;
  int failures = 0;
  long total_mis = 0;
  long total_chortle = 0;
  long total_depth_mis = 0;
  long total_depth_chortle = 0;
  for (const std::string& name : mcnc::benchmark_names()) {
    obs::TraceSpan bench_span("bench." + name);
    const obs::MetricsSnapshot before = obs::Registry::global().snapshot();

    const sop::SopNetwork source = [&] {
      ScopedTimer timer(obs::phase_sink(report, "generate"));
      return mcnc::generate(name);
    }();
    const opt::OptimizedDesign design = [&] {
      ScopedTimer timer(obs::phase_sink(report, "optimize"));
      return opt::optimize(source);
    }();

    double mis_seconds = 0.0;
    const libmap::BaselineResult mis = [&] {
      ScopedTimer timer(
          obs::phase_sink(report, "map.baseline", &mis_seconds));
      return libmap::map_with_library(design.network, library);
    }();

    double chortle_seconds = 0.0;
    const core::MapResult chortle = [&] {
      ScopedTimer timer(
          obs::phase_sink(report, "map.chortle", &chortle_seconds));
      return core::map_network(design.network, options);
    }();

    bool mis_ok = false;
    bool chortle_ok = false;
    {
      ScopedTimer timer(obs::phase_sink(report, "verify"));
      mis_ok = verify::check(source, mis.circuit, verify::Level::kSimulate)
                   .ok();
      chortle_ok =
          verify::check(source, chortle.circuit, verify::Level::kSimulate)
              .ok();
    }
    if (!mis_ok || !chortle_ok) ++failures;

    const double percent =
        100.0 * (mis.stats.num_luts - chortle.stats.num_luts) /
        static_cast<double>(mis.stats.num_luts);
    sum_percent += percent;
    ++rows;
    total_mis += mis.stats.num_luts;
    total_chortle += chortle.stats.num_luts;
    total_depth_mis += mis.stats.depth;
    total_depth_chortle += chortle.stats.depth;
    std::printf("%-8s %10d %10d %6.1f%% %10.4f %10.4f%s\n", name.c_str(),
                mis.stats.num_luts, chortle.stats.num_luts, percent,
                mis_seconds, chortle_seconds,
                mis_ok && chortle_ok ? "" : "  VERIFY-FAIL");

    const obs::MetricsSnapshot delta =
        obs::Registry::global().snapshot().since(before);
    obs::Json entry = obs::Json::object();
    entry.set("name", name);
    entry.set("luts_baseline", mis.stats.num_luts);
    entry.set("luts_chortle", chortle.stats.num_luts);
    entry.set("depth_baseline", mis.stats.depth);
    entry.set("depth_chortle", chortle.stats.depth);
    entry.set("percent_vs_baseline", percent);
    entry.set("seconds_baseline", mis_seconds);
    entry.set("seconds_chortle", chortle_seconds);
    entry.set("verified", mis_ok && chortle_ok);
    entry.set("dp_cells", delta.counter("chortle.tree.dp_cells"));
    entry.set("util_divisions", delta.counter("chortle.tree.util_divisions"));
    entry.set("decomp_candidates",
              delta.counter("chortle.tree.decomp_candidates"));
    entry.set("split_events", delta.counter("chortle.tree.split_events"));
    report.add_benchmark(std::move(entry));
  }
  std::printf("%-8s %10ld %10ld %6.1f%%\n", "total", total_mis,
              total_chortle,
              100.0 * (total_mis - total_chortle) /
                  static_cast<double>(total_mis));
  std::printf("average LUT reduction vs baseline: %.1f%%\n\n",
              sum_percent / rows);

  report.set_field("benchmarks_run", rows);
  report.set_field("verify_failures", failures);
  report.set_field("total_luts_baseline", static_cast<std::int64_t>(total_mis));
  report.set_field("total_luts_chortle",
                   static_cast<std::int64_t>(total_chortle));
  // Summed LUT depths, so delay-driven mappers are comparable from the
  // stats block alone without re-deriving per-circuit maxima.
  report.set_field("total_depth_baseline",
                   static_cast<std::int64_t>(total_depth_mis));
  report.set_field("total_depth_chortle",
                   static_cast<std::int64_t>(total_depth_chortle));
  report.set_field("average_percent_vs_baseline", sum_percent / rows);

  if (!stats_out.empty() && !report.write_file(stats_out)) return 1;
  if (!trace_out.empty() && !obs::write_chrome_trace_file(trace_out))
    return 1;
  return failures == 0 ? 0 : 1;
}

}  // namespace chortle::bench
