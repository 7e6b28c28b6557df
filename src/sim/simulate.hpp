// Bit-parallel (64 patterns per word) simulation of each network form in
// the pipeline, plus equivalence checking between any two of them.
// Every mapped circuit in tests and benches is verified against the
// network it was mapped from: random patterns always, and exhaustively
// when the input count permits.
//
// design_of compiles a network once into a flat program (see
// simulate.cpp) that the Design owns; the network may be changed or
// destroyed afterwards. find_mismatch sweeps both programs over a block
// of words at a time.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "network/lut_circuit.hpp"
#include "network/network.hpp"
#include "sop/sop_network.hpp"

namespace chortle::sim {

using Word = std::uint64_t;

/// A design compiled for simulation; its layout is private to the
/// simulator.
struct Program;

/// A uniform view of a simulatable design: named inputs and outputs and
/// a word-parallel evaluation function (one word of 64 patterns per
/// input, returning one word per output, in interface order).
struct Design {
  std::vector<std::string> input_names;
  std::vector<std::string> output_names;
  std::shared_ptr<const Program> program;

  std::vector<Word> eval(const std::vector<Word>& input_words) const;
};

/// Throws InvalidInput when the network has a combinational cycle.
Design design_of(const sop::SopNetwork& network);
Design design_of(const net::Network& network);
Design design_of(const net::LutCircuit& circuit);

/// A concrete input assignment on which two designs disagree.
struct Mismatch {
  std::string output_name;
  std::vector<bool> input_values;  // aligned with design a's input order
};

struct EquivalenceOptions {
  int random_words = 64;     // 64*64 = 4096 random patterns by default
  std::uint64_t seed = 1;
  int exhaustive_limit = 14; // exhaustive when #inputs <= this
};

/// Checks functional equivalence of two designs with identical interface
/// name sets (order may differ). Returns nullopt when no mismatch was
/// found; otherwise a witness: the first differing word in pattern
/// order, then the first differing output in a's output order, then the
/// lowest differing pattern in that word. Exhaustive words run in
/// ascending pattern order; random words are drawn round by round, one
/// per input in a's input order. Throws InvalidInput if the interfaces
/// do not match by name.
std::optional<Mismatch> find_mismatch(const Design& a, const Design& b,
                                      const EquivalenceOptions& options = {});

/// Convenience: true when no mismatch was found.
bool equivalent(const Design& a, const Design& b,
                const EquivalenceOptions& options = {});

}  // namespace chortle::sim
