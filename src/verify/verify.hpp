// The repo's one mapping-equivalence checker. Every path that returns a
// cover — the fuzz oracle, the portfolio's candidate filter, the
// server's verify flag, the benches and the examples — asks
// verify::check whether the cover computes its source's function, at
// one of three cumulative levels:
//
//   kSimulate   structure checks (circuit invariants, matching
//               interfaces), then bit-parallel simulation at the
//               sim::EquivalenceOptions defaults: exhaustive up to 14
//               inputs, 4096 random patterns above.
//   kFormal     adds BDD equivalence at bdd's default node budget. A
//               budget overrun is reported (formal = kInconclusive) but
//               is not a failure: simulation has already sampled the
//               pair by then.
//   kRoundTrip  adds a BLIF write, a re-read, and simulation of the
//               re-read netlist: the emitted text must mean what the
//               mapper computed.
//
// The checks stop at the first failure. check() never throws on a bad
// cover: a malformed circuit or mismatched interface comes back as a
// kStructure verdict carrying the error text.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "network/lut_circuit.hpp"
#include "network/network.hpp"
#include "sop/sop_network.hpp"

namespace chortle::verify {

enum class Level { kSimulate, kFormal, kRoundTrip };

struct Verdict {
  enum class Kind {
    kOk,
    kStructure,          // broken invariant or mismatched interface
    kSimMismatch,        // simulation found a differing pattern
    kFormalMismatch,     // the BDDs differ
    kRoundTripMismatch,  // the re-read BLIF differs from the source
  };
  enum class Formal { kNotRun, kEquivalent, kDifferent, kInconclusive };

  Kind kind = Kind::kOk;
  Formal formal = Formal::kNotRun;
  // For a mismatch: the differing output and an input assignment that
  // shows it, aligned with the source's input order.
  std::string output_name;
  std::vector<bool> witness;
  // Why the check failed, or why the formal check was inconclusive.
  std::string detail;

  bool ok() const { return kind == Kind::kOk; }
};

/// Stable name of a kind: "ok", "structure", "sim-mismatch",
/// "bdd-different", "roundtrip-mismatch".
const char* to_string(Verdict::Kind kind);

Verdict check(const sop::SopNetwork& source, const net::LutCircuit& result,
              Level level);
Verdict check(const net::Network& source, const net::LutCircuit& result,
              Level level);
/// A gate network has no BLIF writer, so kRoundTrip checks it as
/// kFormal does.
Verdict check(const sop::SopNetwork& source, const net::Network& result,
              Level level);

namespace detail {
/// check() with an explicit BDD node budget in place of bdd's default,
/// so a test can force an inconclusive formal result on a small design.
Verdict check(const sop::SopNetwork& source, const net::LutCircuit& result,
              Level level, std::size_t bdd_max_nodes);
}  // namespace detail

}  // namespace chortle::verify
