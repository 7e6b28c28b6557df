// The differential oracle: runs one fuzz case through the full pipeline
// (optimization script, then every requested mapping backend) and
// cross-checks each stage against the source network with the shared
// checker (verify::check: simulation for the optimized network,
// simulation plus BDD equivalence for every mapped circuit), plus the
// invariants only the case knows (fanout-free forest trees, circuit K
// equal to the requested K, reported LUT count matching the circuit,
// the never-worse contracts of duplication and the portfolio). Any
// violation becomes a
// Failure; the shrinker and the corpus replay test both drive cases
// through this single entry point.
#pragma once

#include <string>
#include <vector>

#include "fuzz/fuzz_case.hpp"

namespace chortle::fuzz {

struct OracleOptions {
  /// Fault injected into the Chortle backend's circuit (see fuzz_case.hpp).
  Injection injection;
};

/// One detected violation. `stage` names the pipeline stage that
/// produced it ("optimize", "forest", "chortle", "flowmap", "libmap");
/// `kind` is a stable category: a verify::Verdict kind name
/// ("sim-mismatch", "bdd-different", "structure"), "lut-count" or
/// "exception"; `detail` is human-readable.
struct Failure {
  std::string stage;
  std::string kind;
  std::string detail;
};

struct Verdict {
  std::vector<Failure> failures;
  int backends_run = 0;

  bool ok() const { return failures.empty(); }
  /// "stage/kind: detail; ..." for logs and reproducer headers.
  std::string summary() const;
};

/// Runs the oracle on one case. Never throws on a detected miscompile —
/// everything, including exceptions escaping a backend, is reported as
/// a Failure so the fuzz loop and shrinker can keep going.
Verdict check_case(const FuzzCase& fuzz_case,
                   const OracleOptions& options = {});

}  // namespace chortle::fuzz
