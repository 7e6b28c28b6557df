// `compare` and `selftest`: the gate every performance claim goes
// through. The rule is the choosing-metrics one: a gain needs at least
// ten alternating pairs, nine tenths of them won, and medians further
// apart than the parent's quartile spread; a regression is a median
// worse than the parent's by more than BENCHMARK.json's bound, unless
// the parent's own spread is wider than the bound (then: unresolved).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>

#include "suite.hpp"

namespace chortle::suite {
namespace {

struct Rule {
  bool lower_is_better = true;
  double bound = 0.0;
};

/// (workload, metric) -> values in run order.
using Series = std::map<std::pair<std::string, std::string>,
                        std::vector<double>>;

std::map<std::string, Rule> load_rules() {
  const obs::Json doc =
      read_json(std::string(CHORTLE_REPO_ROOT) + "/BENCHMARK.json");
  std::map<std::string, Rule> rules;
  for (const obs::Json& metric : doc.find("end_to_end")->as_array()) {
    Rule rule;
    rule.lower_is_better = metric.find("better")->as_string() == "lower";
    rule.bound = metric.find("bound")->as_number();
    rules[metric.find("name")->as_string()] = rule;
  }
  return rules;
}

/// Reads chortle-suite/1 documents; false when any run was incorrect.
bool load_series(const std::vector<std::string>& paths, Series* series) {
  bool all_correct = true;
  for (const std::string& path : paths) {
    const obs::Json doc = read_json(path);
    for (const auto& [workload, entry] : doc.find("workloads")->as_object()) {
      if (!entry.find("correct")->as_bool()) {
        std::printf("incorrect run: %s in %s\n", workload.c_str(),
                    path.c_str());
        all_correct = false;
      }
      for (const auto& [metric, value] : entry.find("metrics")->as_object())
        (*series)[{workload, metric}].push_back(
            value.find("value")->as_number());
    }
  }
  return all_correct;
}

struct Verdict {
  std::string workload;
  std::string metric;
  std::string verdict;  // improved | unchanged | regressed | unresolved
  double parent_median = 0.0;
  double change_median = 0.0;
  double parent_spread = 0.0;  // (q3 - q1) / median
  double worse_by = 0.0;       // share of the parent median, + = worse
  std::size_t pairs = 0;
  std::size_t wins = 0;
};

Verdict judge(const std::vector<double>& parent,
              const std::vector<double>& change, const Rule& rule) {
  Verdict v;
  v.parent_median = median(parent);
  v.change_median = median(change);
  const double scale = std::max(std::abs(v.parent_median), 1e-300);
  double iqr = 0.0;
  if (parent.size() >= 2) {
    const auto [q1, q3] = quartiles(parent);
    iqr = q3 - q1;
  }
  v.parent_spread = iqr / scale;
  const double sign = rule.lower_is_better ? 1.0 : -1.0;
  v.worse_by = sign * (v.change_median - v.parent_median) / scale;
  const auto better = [&](double a, double b) { return sign * (a - b) < 0.0; };
  v.pairs = std::min(parent.size(), change.size());
  for (std::size_t i = 0; i < v.pairs; ++i)
    if (better(change[i], parent[i])) ++v.wins;
  const bool every_run_better =
      better(rule.lower_is_better
                 ? *std::max_element(change.begin(), change.end())
                 : *std::min_element(change.begin(), change.end()),
             rule.lower_is_better
                 ? *std::min_element(parent.begin(), parent.end())
                 : *std::max_element(parent.begin(), parent.end()));
  if (v.pairs >= 10 && v.wins * 10 >= v.pairs * 9 && v.worse_by < 0.0 &&
      std::abs(v.change_median - v.parent_median) > iqr)
    v.verdict = "improved";
  else if (v.parent_spread > rule.bound)
    v.verdict = every_run_better ? "unchanged" : "unresolved";
  else if (v.worse_by > rule.bound)
    v.verdict = "regressed";
  else
    v.verdict = "unchanged";
  return v;
}

std::vector<Verdict> compare_series(const Series& parent,
                                    const Series& change,
                                    const std::map<std::string, Rule>& rules) {
  std::vector<Verdict> verdicts;
  for (const auto& [key, values] : parent) {
    const auto rule = rules.find(key.second);
    if (rule == rules.end()) continue;
    const auto other = change.find(key);
    Verdict v;
    if (other == change.end() || other->second.empty() || values.empty()) {
      v.verdict = "unresolved";  // measured on one side only
    } else {
      v = judge(values, other->second, rule->second);
    }
    v.workload = key.first;
    v.metric = key.second;
    verdicts.push_back(v);
  }
  return verdicts;
}

void print_verdicts(const std::vector<Verdict>& verdicts,
                    const std::map<std::string, Rule>& rules) {
  std::printf("%-12s %-18s %-11s %14s %14s %9s %9s %9s %6s\n", "workload",
              "metric", "verdict", "parent_med", "change_med", "worse%",
              "spread%", "bound%", "wins");
  for (const Verdict& v : verdicts)
    std::printf("%-12s %-18s %-11s %14.6g %14.6g %9.3f %9.3f %9.3f %3zu/%zu\n",
                v.workload.c_str(), v.metric.c_str(), v.verdict.c_str(),
                v.parent_median, v.change_median, 100.0 * v.worse_by,
                100.0 * v.parent_spread, 100.0 * rules.at(v.metric).bound,
                v.wins, v.pairs);
}

}  // namespace

int compare_main(const std::vector<std::string>& args) {
  const auto split = std::find(args.begin(), args.end(), "--");
  if (split == args.end() || split == args.begin() || split + 1 == args.end()) {
    std::fprintf(stderr,
                 "usage: chortle_suite compare A.json... -- B.json...\n");
    return 2;
  }
  try {
    const std::map<std::string, Rule> rules = load_rules();
    Series parent, change;
    const bool correct = load_series({args.begin(), split}, &parent) &
                         load_series({split + 1, args.end()}, &change);
    const std::vector<Verdict> verdicts =
        compare_series(parent, change, rules);
    print_verdicts(verdicts, rules);
    bool regressed = false;
    for (const Verdict& v : verdicts) regressed |= v.verdict == "regressed";
    return correct && !regressed ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "compare: %s\n", error.what());
    return 1;
  }
}

int selftest_main(const std::vector<std::string>& args) {
  if (args.empty()) {
    std::fprintf(stderr, "usage: chortle_suite selftest A.json...\n");
    return 2;
  }
  bool ok = true;
  try {
    // BENCHMARK.json and the binary must name the same workloads and
    // metrics, with the same units, in the same order.
    const obs::Json bench =
        read_json(std::string(CHORTLE_REPO_ROOT) + "/BENCHMARK.json");
    const auto same = [&](const char* key, std::vector<std::string> expected) {
      std::vector<std::string> listed;
      for (const obs::Json& item : bench.find(key)->as_array()) {
        const obs::Json* unit = item.find("unit");
        listed.push_back(item.find("name")->as_string() +
                         (unit != nullptr ? " " + unit->as_string() : ""));
      }
      if (listed != expected) {
        std::printf("FAIL BENCHMARK.json %s disagrees with the binary\n", key);
        ok = false;
      }
    };
    const auto named = [](const std::vector<MetricSpec>& specs) {
      std::vector<std::string> names;
      for (const MetricSpec& spec : specs)
        names.push_back(std::string(spec.name) + " " + spec.unit);
      return names;
    };
    same("workloads", workload_names());
    same("end_to_end", named(end_to_end_metrics()));
    same("per_layer", named(per_layer_metrics()));

    const std::map<std::string, Rule> rules = load_rules();
    Series parent;
    if (!load_series(args, &parent)) return 1;

    // A set compared with itself has nothing to report.
    for (const Verdict& v : compare_series(parent, parent, rules))
      if (v.verdict == "regressed" || v.verdict == "improved") {
        std::printf("FAIL self-comparison: %s %s is %s\n", v.workload.c_str(),
                    v.metric.c_str(), v.verdict.c_str());
        ok = false;
      }

    // One metric per workload doctored to be worse by twice its bound
    // must be flagged, and nothing else.
    for (const std::string& workload : workload_names()) {
      const std::pair<std::string, std::string> key{workload, "p50_ms"};
      if (!parent.count(key)) continue;
      Series doctored = parent;
      for (double& value : doctored[key])
        value *= 1.0 + 2.0 * rules.at("p50_ms").bound;
      for (const Verdict& v : compare_series(parent, doctored, rules)) {
        const bool target = v.workload == key.first && v.metric == key.second;
        if ((v.verdict == "regressed") != target) {
          std::printf("FAIL doctored %s p50_ms: %s %s is %s\n",
                      workload.c_str(), v.workload.c_str(), v.metric.c_str(),
                      v.verdict.c_str());
          ok = false;
        } else if (target) {
          std::printf("ok   doctored %s p50_ms (+%.0f%%) flagged regressed\n",
                      workload.c_str(), 200.0 * rules.at("p50_ms").bound);
        }
      }
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "selftest: %s\n", error.what());
    return 1;
  }

  // The injected LUT-bit flip must fail the run it is injected into,
  // and the same run without it must pass.
  for (const bool inject : {false, true}) {
    std::vector<std::string> run = {"--workload", "map_sweep", "--seed", "1",
                                    "--seconds",  "1",         "--trace", "0"};
    if (inject) run.push_back("--inject-flip");
    const Child child = run_self(run, true);
    const std::size_t last = child.out.find_last_of('\n', child.out.size() - 2);
    const std::string result =
        child.out.substr(last == std::string::npos ? 0 : last + 1);
    bool reported_correct = false;
    try {
      reported_correct = obs::Json::parse(result).find("correct")->as_bool();
    } catch (const std::exception&) {
    }
    const bool passed = child.exit_code == 0 && reported_correct;
    const char* label = inject ? "with --inject-flip" : "clean";
    if (passed == inject) {
      std::printf("FAIL map_sweep %s: exit %d, correct=%s\n", label,
                  child.exit_code, reported_correct ? "true" : "false");
      ok = false;
    } else {
      std::printf("ok   map_sweep %s: exit %d, correct=%s\n", label,
                  child.exit_code, reported_correct ? "true" : "false");
    }
  }
  std::printf("selftest %s\n", ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace chortle::suite
