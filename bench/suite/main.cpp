// chortle_suite — the repository benchmark (README.md).
//
//   chortle_suite --workload W --seed S [--seconds T] [--trace 0|1|PATH]
//                 [--out PATH] [--inject-flip]
//       one workload in this process; the last stdout line is
//       {"correct","attempted","failed","metrics"} with the end-to-end
//       metrics (--trace 0) or the per-layer ledger (--trace 1|PATH)
//   chortle_suite --all --seed S [--seconds T] [--trace PATH] [--out PATH]
//       every workload, each in a fresh child process; with --trace a
//       traced rerun of each adds the ledger and trace_overhead_ratio
//   chortle_suite compare A.json... -- B.json...
//   chortle_suite selftest A.json...
//
// Exit codes: 0 all checks passed, 1 a check failed, 2 usage.
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "suite.hpp"

namespace chortle::suite {
namespace {

constexpr int kSetupProbes = 9;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// One cold set-up, timed from spawn to the child's "ready" line (both
/// processes read the same monotonic clock).
double probe_setup(const std::string& workload) {
  const std::int64_t spawned = now_ns();
  const Child child = run_self({"--setup-probe", workload}, true);
  std::istringstream lines(child.out);
  std::string word;
  std::int64_t ready = 0;
  if (child.exit_code != 0 || !(lines >> word >> ready) || word != "ready")
    throw std::runtime_error("set-up probe failed (exit " +
                             std::to_string(child.exit_code) + ")");
  return static_cast<double>(ready - spawned) * 1e-9;
}

int setup_probe_main(const std::string& workload) {
  const auto ready = [] {
    std::printf("ready %lld\n", static_cast<long long>(now_ns()));
    std::fflush(stdout);
  };
  try {
    if (is_offline(workload))
      setup_offline_once(workload, ready);
    else
      setup_serve_once(ready);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "setup probe: %s\n", error.what());
    return 1;
  }
  return 0;
}

Outcome run_workload(const RunConfig& config) {
  if (config.workload == "table2_flow") return run_table2_flow(config);
  if (config.workload == "map_sweep") return run_map_sweep(config);
  if (config.workload == "serve_warm") return run_serve_warm(config);
  return run_serve_fresh(config);
}

obs::Json workload_json(const Outcome& out) {
  obs::Json entry = obs::Json::object();
  entry.set("correct", out.correct());
  entry.set("attempted", out.attempted);
  entry.set("failed", out.failed);
  obs::Json failures = obs::Json::array();
  for (const std::string& f : out.failures) failures.push_back(f);
  entry.set("failures", std::move(failures));
  entry.set("metrics", out.metrics);
  entry.set("layers", out.layers);
  entry.set("info", out.info);
  return entry;
}

void print_section(const char* title, const obs::Json* section) {
  if (section == nullptr || section->as_object().empty()) return;
  std::printf("  %s\n", title);
  for (const auto& [name, metric] : section->as_object())
    std::printf("    %-34s %16.6g %s\n", name.c_str(),
                metric.find("value")->as_number(),
                metric.find("unit")->as_string().c_str());
}

void print_workload(const std::string& name, const obs::Json& entry) {
  std::printf("== %s: %s, %lld attempted, %lld failed\n", name.c_str(),
              entry.find("correct")->as_bool() ? "correct" : "INCORRECT",
              static_cast<long long>(entry.find("attempted")->as_int()),
              static_cast<long long>(entry.find("failed")->as_int()));
  for (const obs::Json& failure : entry.find("failures")->as_array())
    std::printf("  FAIL %s\n", failure.as_string().c_str());
  print_section("end-to-end", entry.find("metrics"));
  print_section("per-layer", entry.find("layers"));
  print_section("info", entry.find("info"));
}

/// The --out document: run settings plus one entry per workload.
obs::Json run_document(const RunConfig& config, obs::Json workloads) {
  obs::Json doc = obs::Json::object();
  doc.set("schema", "chortle-suite/1");
  doc.set("seed", static_cast<std::int64_t>(config.seed));
  doc.set("seconds", config.seconds);
  doc.set("traced", config.traced);
  doc.set("workloads", std::move(workloads));
  return doc;
}

bool write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  return static_cast<bool>(out);
}

int single_main(const RunConfig& config, const std::string& out_path) {
  Outcome out;
  try {
    if (!config.traced) {
      std::vector<double> setups;
      for (int i = 0; i < kSetupProbes; ++i)
        setups.push_back(probe_setup(config.workload));
      set_metric(out.metrics, "setup_s", median(setups), "s");
    }
    Outcome run = run_workload(config);
    for (const auto& [name, metric] : run.metrics.as_object())
      out.metrics.set(name, metric);
    out.layers = std::move(run.layers);
    out.info = std::move(run.info);
    out.attempted = run.attempted;
    out.failed = run.failed;
    out.failures = std::move(run.failures);
  } catch (const std::exception& error) {
    out.fail(std::string("run aborted: ") + error.what());
  }
  set_metric(out.metrics, "peak_rss_mb", peak_rss_mb(), "MB");
  std::vector<std::string> missing;
  if (config.traced) {
    out.layers = complete(out.layers, per_layer_metrics(), &missing);
  } else {
    out.metrics = complete(out.metrics, end_to_end_metrics(), &missing);
    for (const std::string& name : missing)
      out.fail("no value for end-to-end metric " + name);
  }
  if (!config.trace_path.empty() &&
      !obs::write_chrome_trace_file(config.trace_path))
    out.fail("cannot write trace " + config.trace_path);

  obs::Json entry = workload_json(out);
  print_workload(config.workload, entry);
  if (!out_path.empty()) {
    obs::Json workloads = obs::Json::object();
    workloads.set(config.workload, entry);
    if (!write_text(out_path,
                    run_document(config, std::move(workloads)).dump(2) +
                        "\n")) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
  }
  obs::Json result = obs::Json::object();
  result.set("correct", out.correct());
  result.set("attempted", out.attempted);
  result.set("failed", out.failed);
  result.set("metrics", config.traced ? out.layers : out.metrics);
  std::printf("%s\n", result.dump().c_str());
  return out.correct() ? 0 : 1;
}

std::string trace_path_for(const std::string& path,
                           const std::string& workload) {
  const std::string suffix = ".json";
  if (path.size() > suffix.size() &&
      path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0)
    return path.substr(0, path.size() - suffix.size()) + "." + workload +
           suffix;
  return path + "." + workload + ".json";
}

/// Runs one workload in a fresh child and returns its workload entry.
obs::Json run_child_workload(const RunConfig& config,
                             const std::string& trace_arg) {
  const std::string exe = self_exe();
  const std::string out_path = exe + "." + std::to_string(::getpid()) + "." +
                               config.workload + ".json";
  char seconds[32];
  std::snprintf(seconds, sizeof seconds, "%g", config.seconds);
  const Child child =
      run_self({"--workload", config.workload, "--seed",
                std::to_string(config.seed), "--seconds", seconds, "--trace",
                trace_arg, "--out", out_path},
               false);
  obs::Json doc = read_json(out_path);
  std::remove(out_path.c_str());
  obs::Json entry = *doc.find("workloads")->find(config.workload);
  if (child.exit_code != 0 && entry.find("correct")->as_bool())
    throw std::runtime_error(config.workload + " exited " +
                             std::to_string(child.exit_code));
  return entry;
}

int all_main(const RunConfig& config, const std::string& out_path) {
  obs::Json workloads = obs::Json::object();
  bool correct = true;
  std::printf("chortle_suite --all: seed %llu, %g s per workload\n",
              static_cast<unsigned long long>(config.seed), config.seconds);
  for (const std::string& workload : workload_names()) {
    RunConfig run = config;
    run.workload = workload;
    try {
      obs::Json entry = run_child_workload(run, "0");
      if (config.traced) {
        const obs::Json traced = run_child_workload(
            run, trace_path_for(config.trace_path, workload));
        entry.set("layers", *traced.find("layers"));
        const auto throughput = [](const obs::Json& e) {
          return e.find("metrics")->find("throughput_per_s")->find("value")
              ->as_number();
        };
        obs::Json info = *entry.find("info");
        set_metric(info, "trace_overhead_ratio",
                   throughput(entry) / throughput(traced), "x");
        entry.set("info", std::move(info));
        if (!traced.find("correct")->as_bool()) {
          entry.set("correct", false);
          obs::Json failures = *traced.find("failures");
          for (const obs::Json& f : entry.find("failures")->as_array())
            failures.push_back(f);
          entry.set("failures", failures);
        }
      }
      correct = correct && entry.find("correct")->as_bool();
      workloads.set(workload, std::move(entry));
    } catch (const std::exception& error) {
      std::fprintf(stderr, "%s: %s\n", workload.c_str(), error.what());
      correct = false;
    }
  }
  std::printf("\n==== chortle_suite summary (seed %llu)\n",
              static_cast<unsigned long long>(config.seed));
  for (const auto& [name, entry] : workloads.as_object())
    print_workload(name, entry);
  const obs::Json doc = run_document(config, std::move(workloads));
  if (!out_path.empty() && !write_text(out_path, doc.dump(2) + "\n")) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("%s\n", doc.dump().c_str());
  return correct ? 0 : 1;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: chortle_suite --workload W --seed S [--seconds T] "
      "[--trace 0|1|PATH] [--out PATH] [--inject-flip]\n"
      "       chortle_suite --all --seed S [--seconds T] [--trace PATH] "
      "[--out PATH]\n"
      "       chortle_suite compare A.json... -- B.json...\n"
      "       chortle_suite selftest A.json...\n"
      "workloads: table2_flow map_sweep serve_warm serve_fresh\n");
  return 2;
}

bool parse_number(const char* text, double* value) {
  char* end = nullptr;
  *value = std::strtod(text, &end);
  return end != text && *end == '\0';
}

int main_impl(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (!args.empty() && args[0] == "compare")
    return compare_main({args.begin() + 1, args.end()});
  if (!args.empty() && args[0] == "selftest")
    return selftest_main({args.begin() + 1, args.end()});
  if (args.size() == 2 && args[0] == "--setup-probe")
    return setup_probe_main(args[1]);

  RunConfig config;
  bool all = false;
  bool have_seed = false;
  std::string out_path;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const bool has_value = i + 1 < args.size();
    double number = 0.0;
    if (arg == "--all") {
      all = true;
    } else if (arg == "--inject-flip") {
      config.inject_flip = true;
    } else if (arg == "--workload" && has_value) {
      config.workload = args[++i];
    } else if (arg == "--seed" && has_value) {
      const std::string& text = args[++i];
      char* end = nullptr;
      errno = 0;
      config.seed = std::strtoull(text.c_str(), &end, 10);
      if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])) ||
          *end != '\0' || errno == ERANGE)
        return usage();
      have_seed = true;
    } else if (arg == "--seconds" && has_value) {
      if (!parse_number(args[++i].c_str(), &number) || number <= 0.0 ||
          number > 600.0)
        return usage();
      config.seconds = number;
    } else if (arg == "--trace" && has_value) {
      const std::string value = args[++i];
      config.traced = value != "0";
      if (value != "0" && value != "1") config.trace_path = value;
    } else if (arg == "--out" && has_value) {
      out_path = args[++i];
    } else {
      return usage();
    }
  }
  if (!have_seed) return usage();
  if (all) {
    if (!config.workload.empty() || config.inject_flip ||
        (config.traced && config.trace_path.empty()))
      return usage();
    return all_main(config, out_path);
  }
  bool known = false;
  for (const std::string& name : workload_names())
    known = known || name == config.workload;
  if (!known || (config.inject_flip && !is_offline(config.workload)))
    return usage();
  return single_main(config, out_path);
}

}  // namespace
}  // namespace chortle::suite

int main(int argc, char** argv) {
  return chortle::suite::main_impl(argc, argv);
}
