#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "base/check.hpp"
#include "base/rng.hpp"
#include "blif/blif.hpp"
#include "mcnc/generators.hpp"
#include "mcnc/random_logic.hpp"
#include "sim/simulate.hpp"
#include "suite.hpp"

extern char** environ;

namespace chortle::suite {

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "table2_flow", "map_sweep", "serve_warm", "serve_fresh"};
  return names;
}

bool is_offline(const std::string& workload) {
  return workload == "table2_flow" || workload == "map_sweep";
}

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  Rng rng(seed * 0x100000001B3ull + stream);
  return rng.next_u64();
}

std::string table2_blif(const std::string& name) {
  return blif::write_blif_string(mcnc::generate(name), name);
}

std::string random_blif(int gates, std::uint64_t seed,
                        const std::string& name) {
  mcnc::RandomLogicParams params;
  params.num_gates = gates;
  params.num_inputs = 16 + gates / 20;
  params.num_outputs = 8 + gates / 40;
  params.seed = seed;
  return blif::write_blif_string(mcnc::random_logic(params), name);
}

void Outcome::fail(const std::string& what) {
  ++failed;
  if (failures.size() < 20) failures.push_back(what);
}

void set_metric(obs::Json& section, const std::string& name, double value,
                const std::string& unit) {
  obs::Json metric = obs::Json::object();
  // Only a failed run divides by an empty count; keep its JSON valid.
  metric.set("value", std::isfinite(value) ? value : 0.0);
  metric.set("unit", unit);
  section.set(name, std::move(metric));
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},          {"throughput_per_s", "1/s"},
      {"p50_ms", "ms"},          {"tail_ms", "ms"},
      {"luts_total", "luts"},    {"depth_total", "levels"},
      {"peak_rss_mb", "MB"}};
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"blif.read.share", "%"},
      {"opt.sweep.share", "%"},
      {"opt.simplify.share", "%"},
      {"opt.extract.share", "%"},
      {"opt.decompose.share", "%"},
      {"chortle.map.share", "%"},
      {"cutmap.map.share", "%"},
      {"blif.write.share", "%"},
      {"sim.verify.share", "%"},
      {"serve.queue_wait.share", "%"},
      {"serve.parse.share", "%"},
      {"serve.solve.share", "%"},
      {"serve.emit.share", "%"},
      {"serve.client_gap.share", "%"},
      {"unattributed.share", "%"},
      {"blif.read_bytes", "bytes/op"},
      {"blif.write_bytes", "bytes/op"},
      {"opt.extract.divisors", "count/op"},
      {"opt.literals_after", "count/op"},
      {"opt.simplify.nodes", "count/op"},
      {"opt.decompose.gates", "count/op"},
      {"chortle.trees_mapped", "count/op"},
      {"chortle.tree.dp_cells", "count/op"},
      {"chortle.tree.decomp_candidates", "count/op"},
      {"chortle.tree.decomp_memo_hits", "count/op"},
      {"chortle.emit.kernel_ops", "count/op"},
      {"chortle.dp_cache.hit_ratio", "%"},
      {"chortle.dp_cache.coalesced", "count/op"},
      {"chortle.dp_cache.evictions", "count/op"},
      {"chortle.dp_cache.bytes", "bytes"},
      {"cutmap.cuts_enumerated", "count/op"},
      {"cutmap.repair_cuts", "count/op"},
      {"cutmap.decomposed_luts", "count/op"},
      {"flowmap.maxflow_runs", "count/op"},
      {"sim.patterns", "count/check"},
      {"serve.queue_high_water", "count"},
      {"serve.rejected_busy", "count"},
      {"serve.max_rate_rps", "1/s"}};
  return specs;
}

obs::Json complete(const obs::Json& section,
                   const std::vector<MetricSpec>& specs,
                   std::vector<std::string>* missing) {
  obs::Json out = obs::Json::object();
  for (const MetricSpec& spec : specs) {
    const obs::Json* metric = section.find(spec.name);
    if (metric == nullptr) missing->push_back(spec.name);
    set_metric(out, spec.name,
               metric != nullptr ? metric->find("value")->as_number() : 0.0,
               spec.unit);
  }
  return out;
}

double percentile(std::vector<double> samples, double pct) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank =
      pct / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (samples[hi] - samples[lo]) *
                           (rank - static_cast<double>(lo));
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

std::pair<double, double> quartiles(std::vector<double> values) {
  CHORTLE_REQUIRE(values.size() >= 2, "quartiles need two values");
  std::sort(values.begin(), values.end());
  const auto n = static_cast<std::int64_t>(values.size());
  const auto cut = [&](std::int64_t i) {
    const std::int64_t j = std::clamp<std::int64_t>(i * (n + 1) / 4, 1, n - 1);
    const auto delta = static_cast<double>(i * (n + 1) - j * 4);
    return (values[static_cast<std::size_t>(j - 1)] * (4.0 - delta) +
            values[static_cast<std::size_t>(j)] * delta) /
           4.0;
  };
  return {cut(1), cut(3)};
}

std::int64_t equivalence_patterns(int inputs) {
  const sim::EquivalenceOptions defaults;
  return inputs <= defaults.exhaustive_limit
             ? std::int64_t{1} << inputs
             : std::int64_t{defaults.random_words} * 64;
}

std::string self_exe() {
  char buffer[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buffer, sizeof buffer - 1);
  if (n <= 0) throw std::runtime_error("cannot resolve /proc/self/exe");
  return std::string(buffer, static_cast<std::size_t>(n));
}

Child run_self(const std::vector<std::string>& args, bool capture) {
  const std::string exe = self_exe();
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(exe.c_str()));
  for (const std::string& arg : args)
    argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);

  int fds[2] = {-1, -1};
  if (capture && ::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  if (capture) {
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
  }
  std::fflush(stdout);
  pid_t pid = 0;
  const int spawned =
      posix_spawn(&pid, exe.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  Child child;
  if (capture) {
    ::close(fds[1]);
    char buffer[4096];
    ssize_t n = 0;
    while (spawned == 0 && (n = ::read(fds[0], buffer, sizeof buffer)) > 0)
      child.out.append(buffer, static_cast<std::size_t>(n));
    ::close(fds[0]);
  }
  if (spawned != 0) throw std::runtime_error("cannot start " + exe);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  child.exit_code =
      WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  return child;
}

obs::Json read_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return obs::Json::parse(buffer.str());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

}  // namespace chortle::suite
