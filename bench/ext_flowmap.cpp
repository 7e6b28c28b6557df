// Future-work extension bench (paper §5): the paper closes by asking
// for mapping that handles reconvergent fanout beyond fanout-free
// trees. FlowMap (Cong & Ding 1994, built in src/flowmap) does exactly
// that with provably depth-optimal results. Compare area and depth of
// Chortle (area-optimal per tree) against FlowMap (depth-optimal on the
// 2-input subject graph) on every benchmark at K=5.
#include <cstdio>
#include <string>

#include "chortle/mapper.hpp"
#include "flowmap/flowmap.hpp"
#include "libmap/subject.hpp"
#include "mcnc/generators.hpp"
#include "opt/script.hpp"
#include "verify/verify.hpp"

using namespace chortle;

int main() {
  const int k = 5;
  std::printf("Extension: FlowMap (depth) vs Chortle (area), K=%d\n", k);
  std::printf("%-8s %12s %12s %12s %12s\n", "circuit", "Chor LUTs",
              "Chor depth", "Flow LUTs", "Flow depth");
  long cl = 0, cd = 0, fl = 0, fd = 0;
  int failures = 0;
  for (const std::string& name : mcnc::benchmark_names()) {
    const sop::SopNetwork source = mcnc::generate(name);
    const opt::OptimizedDesign design = opt::optimize(source);
    core::Options options;
    options.k = k;
    const core::MapResult chortle =
        core::map_network(design.network, options);
    const net::Network subject =
        libmap::build_subject_graph(design.network);
    const flowmap::FlowMapResult fm = flowmap::flowmap(subject, k);
    if (!verify::check(source, fm.circuit, verify::Level::kSimulate).ok())
      ++failures;
    std::printf("%-8s %12d %12d %12d %12d\n", name.c_str(),
                chortle.stats.num_luts, chortle.stats.depth,
                fm.stats.num_luts, fm.stats.depth);
    cl += chortle.stats.num_luts;
    cd += chortle.stats.depth;
    fl += fm.stats.num_luts;
    fd += fm.stats.depth;
  }
  std::printf("%-8s %12ld %12ld %12ld %12ld\n", "total", cl, cd, fl, fd);
  std::printf("\nExpected shape: FlowMap wins depth on every circuit "
              "(often by 2x) and pays area for it.\n");
  return failures == 0 ? 0 : 1;
}
