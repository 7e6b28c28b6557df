// Future-work extension bench (paper §5): "optimizations that may
// result from the duplication of logic at fanout nodes". Maps every
// benchmark with and without cost-driven fanout duplication and
// reports the savings. The paper notes MIS II's greedy duplication did
// not pay off; driving each decision with the exact per-tree DP makes
// it a (modest) net win.
#include <cstdio>
#include <string>

#include "chortle/mapper.hpp"
#include "mcnc/generators.hpp"
#include "opt/script.hpp"
#include "verify/verify.hpp"

using namespace chortle;

int main() {
  std::printf("Extension: cost-driven logic duplication at fanout nodes\n");
  std::printf("%-8s", "circuit");
  for (int k = 3; k <= 5; ++k)
    std::printf("   K=%d base  K=%d dup  inlined  gain", k, k);
  std::printf("\n");

  long base_total[6] = {0};
  long dup_total[6] = {0};
  int failures = 0;
  for (const std::string& name : mcnc::benchmark_names()) {
    const sop::SopNetwork source = mcnc::generate(name);
    const opt::OptimizedDesign design = opt::optimize(source);
    std::printf("%-8s", name.c_str());
    for (int k = 3; k <= 5; ++k) {
      core::Options base;
      base.k = k;
      core::Options dup = base;
      dup.duplicate_fanout_logic = true;
      const core::MapResult without = core::map_network(design.network, base);
      const core::MapResult with = core::map_network(design.network, dup);
      if (!verify::check(source, with.circuit, verify::Level::kSimulate).ok())
        ++failures;
      base_total[k] += without.stats.num_luts;
      dup_total[k] += with.stats.num_luts;
      std::printf("  %8d  %7d  %7d %4.1f%%", without.stats.num_luts,
                  with.stats.num_luts, with.stats.duplicated_roots,
                  100.0 * (without.stats.num_luts - with.stats.num_luts) /
                      static_cast<double>(without.stats.num_luts));
    }
    std::printf("\n");
  }
  std::printf("%-8s", "total");
  for (int k = 3; k <= 5; ++k)
    std::printf("  %8ld  %7ld  %7s %4.1f%%", base_total[k], dup_total[k], "",
                100.0 * (base_total[k] - dup_total[k]) /
                    static_cast<double>(base_total[k]));
  std::printf("\n\nExpected shape: a few percent fewer LUTs, never more "
              "(each duplication is accepted only when the exact tree DP "
              "proves it profitable).\n");
  return failures == 0 ? 0 : 1;
}
