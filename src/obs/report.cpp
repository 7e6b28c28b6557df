#include "obs/report.hpp"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <vector>

#include "base/logging.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace chortle::obs {

RunReport::RunReport(std::string tool, std::size_t max_benchmarks)
    : tool_(std::move(tool)), max_benchmarks_(max_benchmarks) {}

void RunReport::set_option(const std::string& name, Json value) {
  options_.set(name, std::move(value));
}

void RunReport::add_phase(const std::string& name, double seconds) {
  for (auto& [phase, total] : phases_)
    if (phase == name) {
      total += seconds;
      return;
    }
  phases_.emplace_back(name, seconds);
}

double RunReport::phase_seconds(const std::string& name) const {
  for (const auto& [phase, total] : phases_)
    if (phase == name) return total;
  return 0.0;
}

double RunReport::phases_total_seconds() const {
  double total = 0.0;
  for (const auto& [phase, seconds] : phases_) total += seconds;
  return total;
}

void RunReport::set_field(const std::string& name, Json value) {
  extras_.set(name, std::move(value));
}

void RunReport::add_benchmark(Json entry) {
  Json::Array& rows = benchmarks_.as_array();
  if (!rows.empty() && rows.size() >= max_benchmarks_)
    rows.erase(rows.begin());
  rows.push_back(std::move(entry));
}

void RunReport::capture_metrics(MetricsSnapshot snapshot) {
  metrics_ = std::move(snapshot);
  metrics_captured_ = true;
}

Json RunReport::to_json() const {
  Json doc = Json::object();
  doc.set("schema", kRunReportSchema);
  doc.set("tool", tool_);
  doc.set("options", options_);
  // Phases are accumulated in first-touch order, which under the thread
  // pool (or concurrent server workers) is nondeterministic; sort by
  // name so report diffs and CI artifact comparisons are stable.
  std::vector<std::pair<std::string, double>> sorted_phases = phases_;
  std::sort(sorted_phases.begin(), sorted_phases.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  Json phases = Json::object();
  for (const auto& [name, seconds] : sorted_phases) phases.set(name, seconds);
  doc.set("phases", std::move(phases));
  const MetricsSnapshot snapshot =
      metrics_captured_ ? metrics_ : Registry::global().snapshot();
  const Json metrics = snapshot_to_json(snapshot);
  doc.set("counters", *metrics.find("counters"));
  doc.set("gauges", *metrics.find("gauges"));
  doc.set("histograms", *metrics.find("histograms"));
  doc.set("hdr", *metrics.find("hdr"));
  if (!benchmarks_.as_array().empty()) doc.set("benchmarks", benchmarks_);
  for (const auto& [name, value] : extras_.as_object())
    doc.set(name, value);
  doc.set("total_seconds", timer_.seconds());
  doc.set("peak_rss_kb", static_cast<std::int64_t>(peak_rss_kb()));
  return doc;
}

void RunReport::write(std::ostream& out) const {
  to_json().dump(out, 2);
  out << "\n";
}

bool RunReport::write_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    LOG_WARN << "cannot open stats output file '" << path << "'";
    return false;
  }
  write(out);
  return out.good();
}

Json snapshot_to_json(const MetricsSnapshot& snapshot) {
  Json counters = Json::object();
  for (const auto& [name, value] : snapshot.counters)
    counters.set(name, value);
  Json gauges = Json::object();
  for (const auto& [name, value] : snapshot.gauges) gauges.set(name, value);
  Json histograms = Json::object();
  for (const auto& [name, hist] : snapshot.histograms) {
    Json h = Json::object();
    h.set("count", hist.count);
    h.set("sum", hist.sum);
    if (hist.count > 0) {
      h.set("min", hist.min);
      h.set("max", hist.max);
    }
    Json buckets = Json::array();
    for (std::size_t i = 0; i < hist.buckets.size(); ++i) {
      Json bucket = Json::object();
      bucket.set("le", i < hist.bounds.size() ? Json(hist.bounds[i])
                                              : Json());  // null = +inf
      bucket.set("count", hist.buckets[i]);
      buckets.push_back(std::move(bucket));
    }
    h.set("buckets", std::move(buckets));
    histograms.set(name, std::move(h));
  }
  Json hdr = Json::object();
  for (const auto& [name, snap] : snapshot.hdr)
    hdr.set(name, hdr_snapshot_to_json(snap));
  Json out = Json::object();
  out.set("counters", std::move(counters));
  out.set("gauges", std::move(gauges));
  out.set("histograms", std::move(histograms));
  out.set("hdr", std::move(hdr));
  return out;
}

Json hdr_snapshot_to_json(const Histogram::Snapshot& snap) {
  Json h = Json::object();
  h.set("count", snap.count);
  h.set("sum", snap.sum);
  if (snap.count > 0) {
    h.set("min", snap.min);
    h.set("max", snap.max);
    h.set("p50", snap.p50());
    h.set("p90", snap.p90());
    h.set("p99", snap.p99());
    h.set("p999", snap.p999());
  }
  // Only occupied buckets: the fixed layout has ~1200 of them and a
  // latency distribution touches a handful.
  Json buckets = Json::array();
  for (std::size_t i = 0; i < snap.buckets.size(); ++i) {
    if (snap.buckets[i] == 0) continue;
    Json bucket = Json::object();
    bucket.set("lo", Histogram::bucket_lower(i));
    bucket.set("count", snap.buckets[i]);
    buckets.push_back(std::move(bucket));
  }
  h.set("buckets", std::move(buckets));
  return h;
}

long peak_rss_kb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return usage.ru_maxrss / 1024;  // bytes on macOS
#else
  return usage.ru_maxrss;  // kilobytes on Linux
#endif
#else
  return 0;
#endif
}

ScopedTimer::Sink phase_sink(RunReport& report, std::string name,
                             double* out_seconds) {
  return [&report, name = std::move(name), out_seconds](double seconds) {
    report.add_phase(name, seconds);
    if (out_seconds != nullptr) *out_seconds += seconds;
    if constexpr (kObsEnabled) {
      Registry& registry = Registry::global();
      registry.observe(
          registry.histogram("phase." + name, Registry::latency_bounds()),
          seconds);
    }
  };
}

}  // namespace chortle::obs
