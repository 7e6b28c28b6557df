// chortle_suite: the repository's one benchmark. Four workloads drive
// the public entry points of every layer (BLIF I/O, the optimizer, the
// Chortle mapper, cutmap, simulation and the mapping service) and time
// each call from outside; see README.md for why each workload exists
// and what every metric means.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"

namespace chortle::suite {

/// The workloads in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();
bool is_offline(const std::string& workload);

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the measured window; workloads size their work to it.
  double seconds = 16.0;
  /// Per-layer run: bench-side spans around every layer call.
  bool traced = false;
  /// Chrome trace output of a traced run ("" = none).
  std::string trace_path;
  /// Corrupt one truth-table bit of the first mapped circuit before it
  /// is verified (offline workloads); the run must then fail.
  bool inject_flip = false;
};

/// What one workload run reports. Metric sections map a name to
/// {"value": v, "unit": u}.
struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  // the first few, for the log
  obs::Json metrics = obs::Json::object();  // end-to-end (untraced run)
  obs::Json layers = obs::Json::object();   // per-layer (traced run)
  obs::Json info = obs::Json::object();     // printed, never gated

  void fail(const std::string& what);
  bool correct() const { return failed == 0 && attempted > 0; }
};

void set_metric(obs::Json& section, const std::string& name, double value,
                const std::string& unit);

/// The metrics a run reports, in BENCHMARK.json order: every workload
/// reports every one of them (selftest checks the two lists agree).
struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& end_to_end_metrics();
const std::vector<MetricSpec>& per_layer_metrics();

/// `section` restricted to `specs`, in their order and units. A layer a
/// workload never runs reads 0; `missing` receives the names absent
/// from `section`.
obs::Json complete(const obs::Json& section,
                   const std::vector<MetricSpec>& specs,
                   std::vector<std::string>* missing);

// --------------------------------------------------------------- inputs

/// One independent seed per purpose, so adding inputs to one list never
/// reshuffles another.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream);
/// A Table-2 circuit (mcnc::generate) as BLIF, model name = `name`.
std::string table2_blif(const std::string& name);
/// A seeded random circuit as BLIF: the size is fixed by `gates`, the
/// structure by `seed`.
std::string random_blif(int gates, std::uint64_t seed,
                        const std::string& name);

// ------------------------------------------------------------ workloads

Outcome run_table2_flow(const RunConfig& config);
Outcome run_map_sweep(const RunConfig& config);
Outcome run_serve_warm(const RunConfig& config);
Outcome run_serve_fresh(const RunConfig& config);

/// One cold set-up in this (fresh) process, the unit `setup_s` times:
/// lazily built tables initialized by one small circuit through the
/// workload's layers; for the serve workloads, a started server that
/// answered one request. `ready` is called once set-up is complete
/// (before any teardown). Throw on failure.
void setup_offline_once(const std::string& workload,
                        const std::function<void()>& ready);
void setup_serve_once(const std::function<void()>& ready);

// ---------------------------------------------------------------- stats

/// Linear-interpolated percentile (0..100) of unsorted samples; 0 when
/// empty.
double percentile(std::vector<double> samples, double pct);
double median(std::vector<double> samples);
/// First and third quartile exactly as Python's
/// statistics.quantiles(values, n=4) (method "exclusive") computes them.
/// Needs at least two values.
std::pair<double, double> quartiles(std::vector<double> values);

/// Patterns sim::equivalent applies to a design with `inputs` inputs
/// under its default options.
std::int64_t equivalence_patterns(int inputs);

/// Peak resident set of this process, MB.
double peak_rss_mb();

using Clock = std::chrono::steady_clock;
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ------------------------------------------------------------- compare

/// `chortle_suite compare A... -- B...`: one verdict per (metric,
/// workload) under BENCHMARK.json's bounds. Returns the exit code.
int compare_main(const std::vector<std::string>& args);
/// `chortle_suite selftest A...`: the gate must flag a doctored result
/// and an injected LUT-bit flip. Returns the exit code.
int selftest_main(const std::vector<std::string>& args);

// ------------------------------------------------------------ processes

struct Child {
  int exit_code = -1;
  std::string out;  // captured stdout (capture mode only)
};

/// Path of this binary; `--all` writes its children's documents next
/// to it, inside the build tree.
std::string self_exe();

/// Runs this binary with `args` and waits for it to end. With `capture`
/// its stdout is collected; otherwise it shares ours.
Child run_self(const std::vector<std::string>& args, bool capture);

obs::Json read_json(const std::string& path);

}  // namespace chortle::suite
