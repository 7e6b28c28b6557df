// The answer of one tree's DP (tree_mapper.hpp): the LUTs of its best
// mapping, read off the DP tables once when the solve finishes
// (TreeMapper::reduce) and kept instead of the tables.
//
// A cover is a list of LUT records in emission order, the root last.
// Each record is a pin list and a 64-bit truth table (K <= 6, so one
// word holds every table). A pin names either a tree leaf, by the
// WorkChild::leaf_signal the tree was built with, or an earlier LUT of
// the same cover. Nothing in it points anywhere: a cover is plain
// data, a few hundred bytes for a typical tree, where the DP tables it
// came from run to kilobytes.
//
// A constructed cover is immutable and may emit into any number of
// circuits, so the cross-request DP cache (dp_cache.hpp) shares one
// instance between concurrent requests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "network/lut_circuit.hpp"

namespace chortle::core {

class TreeCover {
 public:
  /// A LUT input. Non-negative: a tree leaf, by its leaf_signal index.
  /// Negative: the output of LUT ~pin of this cover, always an earlier
  /// one.
  using Pin = std::int32_t;
  static Pin lut_pin(int lut) { return ~lut; }

  struct Lut {
    /// Bit m is the LUT's value when pin i carries bit i of m.
    std::uint64_t table = 0;
    /// Number of pins; the LUT's pins follow those of the LUT before.
    std::uint8_t arity = 0;
  };

  /// `pins` holds every LUT's pins back to back, in `luts` order.
  TreeCover(std::vector<Lut> luts, std::vector<Pin> pins);

  /// Cost (number of LUTs) of the mapping: TreeMapper::best_cost().
  int best_cost() const { return static_cast<int>(luts_.size()); }

  /// Heap footprint of the cover: the object and its two arrays.
  std::size_t memory_bytes() const;

  /// Adds the cover's LUTs to `circuit`. `signal_of[leaf]` must give the
  /// circuit signal of every leaf pin. If `complement_root` is set the
  /// root LUT implements the complement of the tree root; it is named
  /// `root_name`, the others get the circuit's default names. Returns
  /// the root LUT's output signal. Emission into one circuit must be
  /// serialized by the caller (LutCircuit is not thread-safe).
  net::SignalId emit(net::LutCircuit& circuit,
                     const std::vector<net::SignalId>& signal_of,
                     bool complement_root, const std::string& root_name) const;

 private:
  std::vector<Lut> luts_;
  std::vector<Pin> pins_;
};

}  // namespace chortle::core
