// Machine-readable run reports: one JSON document per harness
// invocation recording what ran (tool, options), where the time went
// (named phases), what the pipeline did (metrics snapshot), per-
// benchmark results, and peak RSS. bench/table* and tools/fuzz_mapper
// write these via --stats-out so a results trajectory can be consumed
// without scraping stdout. Schema: "chortle-run-report/1", documented
// in DESIGN.md §8.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "base/timer.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace chortle::obs {

inline constexpr const char* kRunReportSchema = "chortle-run-report/1";

class RunReport {
 public:
  /// Starts the total-wall-time clock. A long-lived writer (the
  /// server) caps the "benchmarks" array at `max_benchmarks` entries.
  explicit RunReport(std::string tool,
                     std::size_t max_benchmarks = SIZE_MAX);

  void set_option(const std::string& name, Json value);
  /// Accumulates `seconds` into the named phase.
  void add_phase(const std::string& name, double seconds);
  double phase_seconds(const std::string& name) const;
  /// Sum over all phases (the acceptance check against total time).
  double phases_total_seconds() const;
  /// Extra top-level field (totals, failure counts, ...).
  void set_field(const std::string& name, Json value);
  /// Appends one entry to the "benchmarks" array, dropping the oldest
  /// entry once the array holds `max_benchmarks` of them.
  void add_benchmark(Json entry);
  /// Fixes the metrics section to `snapshot`. Without this call,
  /// to_json() snapshots Registry::global() at serialization time.
  void capture_metrics(MetricsSnapshot snapshot);

  /// Serializes the report; total_seconds is the time since
  /// construction, peak_rss_kb the process high-water mark.
  Json to_json() const;
  void write(std::ostream& out) const;
  /// False (with a WARN log) when the file cannot be opened.
  bool write_file(const std::string& path) const;

 private:
  std::string tool_;
  WallTimer timer_;
  Json options_ = Json::object();
  std::vector<std::pair<std::string, double>> phases_;
  Json extras_ = Json::object();
  Json benchmarks_ = Json::array();
  std::size_t max_benchmarks_;
  MetricsSnapshot metrics_;
  bool metrics_captured_ = false;
};

/// {"counters":{...},"gauges":{...},"histograms":{...},"hdr":{...}}
/// with fixed histogram buckets as [{"le":bound,"count":n},...] (last
/// bucket "le":null). Every section is sorted by metric name.
Json snapshot_to_json(const MetricsSnapshot& snapshot);

/// One HDR histogram as {"count","sum","min","max","p50","p90","p99",
/// "p999","buckets":[{"lo":bound,"count":n},...]} — only occupied
/// buckets are listed; quantiles are precomputed so consumers (the
/// stats endpoint, bench harnesses) need no bucket math.
Json hdr_snapshot_to_json(const Histogram::Snapshot& snap);

/// Process peak resident set size in kilobytes (0 when unavailable).
long peak_rss_kb();

/// ScopedTimer sink that adds the elapsed seconds to `report` under
/// phase `name`, observes the "phase.<name>" latency histogram in the
/// global registry, and (when non-null) also adds into *out_seconds.
/// The report must outlive the returned sink.
ScopedTimer::Sink phase_sink(RunReport& report, std::string name,
                             double* out_seconds = nullptr);

}  // namespace chortle::obs
