// Bit-parallel truth tables with fixed inline storage — the kernel type
// of the mapper's hot path. A PackedTable holds a complete truth table
// of up to kMaxVars inputs in a std::array of 64-bit words, so every
// operation (AND/OR/XOR/NOT, cofactors, projections) is a short
// word-parallel loop with no heap allocation anywhere: constructing,
// copying, and combining tables are all O(words) over inline memory.
//
// TruthTable (truth_table.hpp) remains the general type (arity to 16,
// heap-backed words, the richer op set); PackedTable mirrors its bit
// layout exactly — bit m of word m/64 is f(m) — so conversions are
// straight word copies and the two implementations can be cross-checked
// bit for bit. The fuzz harness's kernel-equivalence mode
// (fuzz/kernel_check.hpp) does exactly that on randomized tables.
#pragma once

#include <array>
#include <cstdint>

#include "base/check.hpp"
#include "truth/truth_table.hpp"

namespace chortle::truth {

class PackedTable {
 public:
  /// 2^10 minterms = 16 words = 128 bytes of inline storage. Large
  /// enough for every LUT cone (arity <= K <= 6 needs one word) and for
  /// the randomized kernel-equivalence sweep; small enough to live on
  /// the stack of the emission walk.
  static constexpr int kMaxVars = 10;
  static constexpr int kMaxWords = 1 << (kMaxVars - 6);

  /// Constant-zero function of `num_vars` inputs.
  explicit PackedTable(int num_vars = 0) : num_vars_(num_vars) {
    CHORTLE_REQUIRE(num_vars >= 0 && num_vars <= kMaxVars,
                    "packed table arity out of range");
    words_.fill(0);
  }

  static PackedTable zeros(int num_vars) { return PackedTable(num_vars); }
  static PackedTable ones(int num_vars);
  /// Projection f = x_var over `num_vars` inputs.
  static PackedTable var(int var, int num_vars);
  /// Widening copy of a TruthTable (num_vars() <= kMaxVars).
  static PackedTable from_truth(const TruthTable& table);

  /// Identical bits as a heap-backed TruthTable.
  TruthTable to_truth() const;

  int num_vars() const { return num_vars_; }
  std::uint64_t num_minterms() const { return std::uint64_t{1} << num_vars_; }
  /// Words carrying minterms: 1 for num_vars <= 6, else 2^(num_vars-6).
  int num_words() const { return num_vars_ <= 6 ? 1 : 1 << (num_vars_ - 6); }

  bool bit(std::uint64_t minterm) const {
    CHORTLE_CHECK(minterm < num_minterms());
    return (words_[static_cast<std::size_t>(minterm >> 6)] >>
            (minterm & 63)) & 1;
  }
  void set_bit(std::uint64_t minterm, bool value);

  bool is_zero() const;
  std::uint64_t count_ones() const;

  /// True when the function's value changes with input `var` (i.e. the
  /// Shannon cofactors differ). Word-parallel; no temporaries.
  bool depends_on(int var) const;

  /// The same function over a wider input set: variable i of this table
  /// becomes variable position[i] of the result (positions strictly
  /// increasing, < num_out_vars). The result has num_out_vars inputs and
  /// does not depend on the unmentioned positions. This is the cut-merge
  /// primitive: child cut functions are expanded onto the union leaf set
  /// before being combined.
  PackedTable expanded(const int* position, int num_out_vars) const;

  /// The inverse of expanded(): the function over only the `num_keep`
  /// listed variables (strictly increasing positions into this table),
  /// which must cover the support — dropped variables are required to be
  /// non-support (checked).
  PackedTable compressed(const int* keep, int num_keep) const;

  /// Shannon cofactors with respect to input `var` (same num_vars, the
  /// result no longer depends on `var`). Word-parallel: in-word
  /// shift/mask for var < 6, whole-word swaps above.
  PackedTable cofactor0(int var) const;
  PackedTable cofactor1(int var) const;

  PackedTable operator~() const;
  PackedTable& operator&=(const PackedTable& other);
  PackedTable& operator|=(const PackedTable& other);
  PackedTable& operator^=(const PackedTable& other);
  PackedTable operator&(const PackedTable& other) const {
    PackedTable t(*this);
    return t &= other;
  }
  PackedTable operator|(const PackedTable& other) const {
    PackedTable t(*this);
    return t |= other;
  }
  PackedTable operator^(const PackedTable& other) const {
    PackedTable t(*this);
    return t ^= other;
  }

  bool operator==(const PackedTable& other) const;
  bool operator!=(const PackedTable& other) const {
    return !(*this == other);
  }

  /// Raw words; unused high bits of the last meaningful word (and every
  /// word past num_words()) are always zero.
  const std::array<std::uint64_t, kMaxWords>& words() const { return words_; }

 private:
  void mask_tail();
  void check_same_arity(const PackedTable& other) const {
    CHORTLE_REQUIRE(num_vars_ == other.num_vars_,
                    "packed table arity mismatch in binary operation");
  }

  int num_vars_ = 0;
  std::array<std::uint64_t, kMaxWords> words_;
};

}  // namespace chortle::truth
