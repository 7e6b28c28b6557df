// Shared harness for the bench binaries.
//
// run_table drives the paper's Tables 1-4: for one value of K, run
// every MCNC-substitute benchmark through the optimization script, map
// it with the MIS-II-style baseline and with Chortle, verify both
// mappings, and print the table in the paper's layout (circuit, #tables
// for each mapper, % difference, runtimes).
//
// Table observability flags (also see DESIGN.md §8):
//   --stats-out PATH   write a chortle-run-report/1 JSON document
//   --trace-out PATH   enable tracing, write Chrome trace-event JSON
//   --jobs N           worker threads for the parallel tree-solving
//                      phase (0 = auto: CHORTLE_JOBS, else 1); results
//                      are byte-identical for every N
// Setting CHORTLE_TRACE=PATH in the environment is equivalent to
// --trace-out PATH (the flag wins when both are present).
//
// The rest is the plumbing of the baseline-gated benches (run_tables,
// ext_cutmap, ext_portfolio): one strict flag parser, one JSON writer
// and one baseline gate.
#pragma once

#include <initializer_list>
#include <string>
#include <variant>

#include "obs/json.hpp"

namespace chortle::bench {

/// Runs and prints one results table. Returns 0 on success, 1 if any
/// mapping failed verification, 2 on a bad command line.
int run_table(int k, const char* table_name, int argc = 0,
              char** argv = nullptr);

/// One `--name VALUE` flag and where its value goes. An int flag takes
/// a whole decimal number only: "15%" or "2x" is a usage error.
struct Flag {
  const char* name;
  std::variant<std::string*, int*> value;
};

/// Parses argv[1..] against `flags`. On an unknown flag, a missing
/// value or a malformed number it prints `usage` and returns false; the
/// caller then exits 2.
bool parse_flags(int argc, char** argv, std::initializer_list<Flag> flags,
                 const char* usage);

/// Writes `doc` to `path` as indented JSON. On failure it prints a
/// message prefixed with `tool` and returns false.
bool write_json(const obs::Json& doc, const std::string& path,
                const char* tool);

/// The baseline gate. Rows of `current` and `baseline` (each document's
/// "benchmarks" array) are matched on (name, k). Every baseline field
/// whose name does not start with "seconds" must match exactly. Each
/// seconds* column is summed over the matched rows and may exceed its
/// baseline total by at most kTimeTolerance, but only when that total
/// is at least kMinTimedSeconds: smaller totals are timer noise.
/// Returns 0 on a pass, 1 on an exact mismatch, 3 on a timing
/// regression, and 2 when the baseline is unusable or shares no rows.
/// Messages go to stderr, prefixed with `tool`.
inline constexpr double kTimeTolerance = 0.15;
inline constexpr double kMinTimedSeconds = 0.005;
int compare_to_baseline(const obs::Json& current, const obs::Json& baseline,
                        const char* tool);

/// compare_to_baseline against the JSON file at `baseline_path`; 2 when
/// it cannot be read or parsed.
int check_against_baseline(const obs::Json& current,
                           const std::string& baseline_path,
                           const char* tool);

}  // namespace chortle::bench
