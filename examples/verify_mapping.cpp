// verify_mapping: using the equivalence checker as a safety net.
//
// Demonstrates the verification workflow the test suite and the bench
// harness rely on: map a benchmark, check it against the source,
// then deliberately corrupt one LUT and show that the checker catches
// the bug and produces a concrete counterexample assignment.
#include <cstdio>

#include "chortle/mapper.hpp"
#include "mcnc/generators.hpp"
#include "opt/script.hpp"
#include "verify/verify.hpp"

int main() {
  using namespace chortle;
  const sop::SopNetwork source = mcnc::generate("apex7");
  const opt::OptimizedDesign design = opt::optimize(source);
  core::Options options;
  options.k = 4;
  core::MapResult mapped = core::map_network(design.network, options);
  std::printf("mapped apex7 substitute: %d LUTs\n", mapped.stats.num_luts);

  // A healthy mapping verifies clean.
  const verify::Verdict healthy =
      verify::check(source, mapped.circuit, verify::Level::kSimulate);
  std::printf("healthy circuit: %s\n",
              healthy.ok() ? "equivalent" : "MISMATCH (bug!)");

  // Corrupt one LUT: rebuild the circuit with a single truth-table bit
  // flipped and let the checker hunt the difference down. A flipped
  // minterm can be unobservable (masked by downstream logic), so try
  // victims until the checker reports a difference.
  verify::Verdict mismatch;
  int victims_tried = 0;
  for (int victim = 0; victim < mapped.circuit.num_luts() && mismatch.ok();
       ++victim) {
    net::LutCircuit corrupted(mapped.circuit.k());
    for (const std::string& name : mapped.circuit.input_names())
      corrupted.add_input(name);
    for (int i = 0; i < mapped.circuit.num_luts(); ++i) {
      net::Lut lut = mapped.circuit.luts()[static_cast<std::size_t>(i)];
      if (i == victim) lut.function.set_bit(0, !lut.function.bit(0));
      corrupted.add_lut(std::move(lut));
    }
    for (const net::LutOutput& o : mapped.circuit.outputs()) {
      if (o.is_const)
        corrupted.add_const_output(o.name, o.const_value);
      else
        corrupted.add_output(o.name, o.signal, o.negated);
    }
    ++victims_tried;
    mismatch = verify::check(source, corrupted, verify::Level::kSimulate);
  }
  if (mismatch.ok()) {
    std::printf("corrupted circuit: every injected fault was masked\n");
    return 1;
  }
  std::printf("injected a single-bit fault (victim LUT #%d)\n",
              victims_tried - 1);
  std::printf("corrupted circuit: output '%s' differs; witness:",
              mismatch.output_name.c_str());
  int shown = 0;
  for (std::size_t i = 0; i < mismatch.witness.size() && shown < 8; ++i) {
    if (mismatch.witness[i]) {
      std::printf(" %s=1", source.node(source.inputs()[i]).name.c_str());
      ++shown;
    }
  }
  std::printf(" (all other inputs 0-or-shown)\n");
  std::printf("verification demo complete\n");
  return 0;
}
