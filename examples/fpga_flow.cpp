// fpga_flow: the complete front-to-back flow this repository supports,
// combining the paper's algorithm with every §5 future-work extension
// built here:
//
//   BLIF in -> optimize (sweep/simplify/extract) -> Chortle mapping
//   with cost-driven fanout duplication -> simulation plus formal
//   (BDD) equivalence proof -> XC3000-style CLB packing -> structural
//   Verilog out.
#include <cstdio>

#include "arch/clb.hpp"
#include "blif/blif.hpp"
#include "blif/verilog.hpp"
#include "chortle/mapper.hpp"
#include "mcnc/generators.hpp"
#include "opt/script.hpp"
#include "verify/verify.hpp"

int main() {
  using namespace chortle;

  // Source design: the frg1 benchmark substitute, via BLIF text to
  // exercise the real entry point.
  const std::string source_blif =
      blif::write_blif_string(mcnc::generate("frg1"), "frg1");
  const blif::BlifModel model = blif::read_blif_string(source_blif);
  std::printf("frg1: %zu inputs, %zu outputs, %d literals\n",
              model.network.inputs().size(), model.network.outputs().size(),
              model.network.total_literals());

  // Technology-independent optimization.
  const opt::OptimizedDesign design = opt::optimize(model.network);
  std::printf("optimized: %d literals, %d AND/OR gates (%.3fs)\n",
              design.stats.literals, design.network.num_gates(),
              design.stats.seconds);

  // Chortle with the duplication extension.
  core::Options options;
  options.k = 4;
  options.duplicate_fanout_logic = true;
  const core::MapResult mapped = core::map_network(design.network, options);
  std::printf("mapped: %d 4-input LUTs, depth %d, %d cones duplicated\n",
              mapped.stats.num_luts, mapped.stats.depth,
              mapped.stats.duplicated_roots);

  // Formal proof of equivalence (not just simulation).
  const verify::Verdict proof =
      verify::check(model.network, mapped.circuit, verify::Level::kFormal);
  if (!proof.ok()) {
    std::printf("formal check: FAILED (%s)\n", proof.detail.c_str());
    return 1;
  }
  if (proof.formal == verify::Verdict::Formal::kInconclusive)
    std::printf("formal check: inconclusive (%s)\n", proof.detail.c_str());
  else
    std::printf("formal check: EQUIVALENT (proved by BDD)\n");

  // Commercial-architecture packing.
  const arch::ClbPacking packing = arch::pack_clbs(mapped.circuit);
  std::printf("packed: %d LUTs into %d XC3000-style CLBs (%d paired)\n",
              packing.num_luts, packing.num_clbs, packing.paired);

  // Verilog netlist (first lines shown).
  const std::string verilog =
      blif::write_verilog_string(mapped.circuit, "frg1_luts");
  std::printf("\n--- frg1_luts.v (%zu bytes, first lines) ---\n",
              verilog.size());
  std::size_t pos = 0;
  for (int line = 0; line < 8 && pos != std::string::npos; ++line) {
    const std::size_t next = verilog.find('\n', pos);
    std::printf("%s\n", verilog.substr(pos, next - pos).c_str());
    pos = next == std::string::npos ? next : next + 1;
  }
  std::printf("...\n");
  return 0;
}
