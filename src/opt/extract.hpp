// Greedy algebraic divisor extraction (the "gkx/gcx"-style core of the
// MIS II optimization script this project substitutes for the paper's
// front end). Candidate divisors are kernels and common cubes of the
// node covers; each round the divisor with the largest network-wide
// literal saving becomes a new node and is substituted everywhere it
// divides. The candidate lists and savings persist across rounds and
// are updated only where a round rewrote the network (DESIGN.md §11,
// "Incremental divisor extraction").
#pragma once

#include <cstdint>

#include "sop/sop_network.hpp"

namespace chortle::base {
class CancelToken;
}

namespace chortle::opt {

struct ExtractOptions {
  int max_rounds = 10000;        // safety bound on extraction rounds
  int max_kernel_cubes = 6;      // ignore huge kernels as candidates
  // Bounds each round's candidate scan. Nodes are visited in id order
  // and the count is checked only after a node's candidates are all
  // added, so a round stops after the node at which the count reaches
  // this bound and may scan more candidates than the bound.
  int max_candidates = 5000;
  int min_saving = 1;            // required net literal saving
  // Polled once per round; a fired token unwinds with base::Cancelled.
  // Must outlive the call. nullptr: never cancelled.
  const base::CancelToken* cancel = nullptr;
};

struct ExtractStats {
  int divisors_extracted = 0;
  int literals_before = 0;
  int literals_after = 0;
  int rounds = 0;                      // candidate scans run
  std::int64_t candidates_valued = 0;  // savings computed in full
  std::int64_t trial_divisions = 0;    // node-by-divisor cost evaluations
};

/// Extracts divisors in place until no candidate saves literals.
/// New nodes are named ext0, ext1, ...
ExtractStats extract_divisors(sop::SopNetwork& network,
                              const ExtractOptions& options = {});

}  // namespace chortle::opt
