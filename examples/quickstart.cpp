// Quickstart: the smallest complete tour of the library.
//
//   1. describe combinational logic in BLIF (the MCNC format),
//   2. optimize it (sweep + algebraic extraction, the MIS-II-script
//      substitute),
//   3. map it into K-input lookup tables with Chortle,
//   4. verify the mapping and write the LUT netlist back out as BLIF.
//
// Build: cmake --build build --target quickstart
// Run:   ./build/examples/quickstart
#include <cstdio>

#include "blif/blif.hpp"
#include "chortle/mapper.hpp"
#include "opt/script.hpp"
#include "verify/verify.hpp"

int main() {
  using namespace chortle;

  // A full adder plus a small control function.
  const char* source_blif = R"(
.model quickstart
.inputs a b cin sel
.outputs sum cout pick
.names a b axb
10 1
01 1
.names axb cin sum
10 1
01 1
.names a b cin cout
11- 1
1-1 1
-11 1
.names sel a b pick
01- 1
1-1 1
.end
)";

  // 1. Parse.
  const blif::BlifModel model = blif::read_blif_string(source_blif);
  std::printf("parsed '%s': %zu inputs, %zu outputs, %d literals\n",
              model.name.c_str(), model.network.inputs().size(),
              model.network.outputs().size(),
              model.network.total_literals());

  // 2. Optimize (both mappers in this project consume this form).
  const opt::OptimizedDesign design = opt::optimize(model.network);
  std::printf("optimized: %d AND/OR gates, depth %d, %d literals\n",
              design.network.num_gates(), design.network.depth(),
              design.stats.literals);

  // 3. Map into 4-input LUTs.
  core::Options options;
  options.k = 4;
  const core::MapResult mapped = core::map_network(design.network, options);
  std::printf("Chortle, K=%d: %d LUTs in %d trees, depth %d\n", options.k,
              mapped.stats.num_luts, mapped.stats.num_trees,
              mapped.stats.depth);

  // 4. Verify against the original and print the LUT netlist.
  const bool ok =
      verify::check(model.network, mapped.circuit, verify::Level::kSimulate)
          .ok();
  std::printf("verification: %s\n\n", ok ? "equivalent" : "MISMATCH");
  std::printf("%s", blif::write_blif_string(mapped.circuit,
                                            "quickstart_luts").c_str());
  return ok ? 0 : 1;
}
