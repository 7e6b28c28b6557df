// The dynamic-programming tree mapper (paper §3.1) run on one WorkTree.
//
// The sub-problem is minmap(n, U): the minimum-cost circuit of K-input
// LUTs implementing the subtree rooted at n whose root LUT uses exactly
// U inputs (Definitions 1-3). The paper finds it by exhaustively
// searching utilization divisions (§3.1.1) and all two-level — and,
// recursively, multi-level — decompositions of every node (§3.1.3).
//
// This implementation performs the identical search as a subset DP.
// For a node with children c_0..c_{f-1} define
//
//   h(S, U) = minimum total cost of feeding the child subset S into the
//             node's root LUT using exactly U of its inputs
//
// where each child is either taken directly with u_i inputs (u_i = 1
// charges its best complete mapping; u_i >= 2 merges the root LUT of
// minmap(c_i, u_i) into the constructed root LUT, charging
// cost(minmap(c_i, u_i)) - 1, per §3.1.2) or grouped with other children
// into an intermediate node that feeds exactly one input (§3.1.3, "we
// add the requirement that u_i = 1 if the group d_i specifies an
// intermediate node"). Choosing the group containing the lowest-indexed
// child of S first enumerates every set partition exactly once, so the
// DP visits precisely the configurations of the paper's exhaustive
// search (tests/chortle_reference_test.cpp checks this equivalence
// against a literal enumeration of the pseudo code).
//
// Then  minmap(n, U) = 1 + h(full child set, U)  and the best complete
// mapping of the tree is min over U of minmap(root, U) (the paper takes
// minmap(root, K); the two agree whenever utilization K is feasible —
// a property-tested invariant).
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "base/small_vector.hpp"
#include "chortle/tree_cover.hpp"
#include "chortle/work_tree.hpp"

namespace chortle::core {

/// Sentinel for infeasible sub-problems (e.g. utilization larger than
/// the number of leaves in the subtree).
constexpr std::int32_t kInfCost = std::numeric_limits<std::int32_t>::max() / 4;

class TreeMapper {
 public:
  /// Runs the DP over the whole tree on construction. The tree is
  /// copied so that callers may pass temporaries. Construction is the
  /// only mutating operation: a fully constructed TreeMapper is
  /// immutable, so distinct instances may be constructed and queried
  /// concurrently from pool workers (the parallel solve phase relies
  /// on this; observability counters flush through the thread-safe
  /// registry).
  TreeMapper(WorkTree tree, const Options& options);

  /// Cost (number of K-input LUTs) of the best mapping of the tree.
  int best_cost() const;

  /// cost(minmap(node, utilization)); kInfCost when infeasible.
  /// Node indices refer to WorkTree nodes; utilization in [2, K].
  int minmap_cost(int node, int utilization) const;

  /// min over U of cost(minmap(node, U)).
  int best_cost_of(int node) const;

  /// The reduce step: reads the best mapping off the DP tables into a
  /// TreeCover, evaluating each LUT's cone into its table. The cover
  /// is all a caller needs once the DP is done; the mapper (and its
  /// tables) can be freed as soon as it has been reduced.
  TreeCover reduce() const;

 private:
  /// Trivial (no default initializers) so the choice arena can be
  /// allocated uninitialized: the solve kernel writes every cell the
  /// reconstruction can reach before any read.
  struct Choice {
    std::uint32_t group_mask;  // kind B: the intermediate group
    std::uint8_t direct_u;     // kind A: inputs given to the child
    std::uint8_t kind;         // 'A' = direct, 'B' = group
  };

  /// Per-node views into the DP arenas. All nodes' tables live in four
  /// instance-wide arrays sized once up front (one allocation each for
  /// the whole tree instead of four per node); a NodeTables is just the
  /// fanin plus the node's base offsets.
  struct NodeTables {
    int fanin = 0;
    // h / choice rows at arena_h_/arena_choice_[h_off + subset*(K+1)+U].
    std::size_t h_off = 0;
    // node_cost at arena_h_[h_words_ + cost_off + subset] (the cost rows
    // live after every h row in the same arena); node_cost_u at
    // arena_cost_u_[cost_off + subset].
    std::size_t cost_off = 0;
  };

  // --- DP ---
  void solve_node(int node);
  /// The solve kernel, instantiated per K in [2, 6] so the utilization
  /// sweeps are compile-time-bounded loops the compiler fully unrolls.
  template <int K>
  void solve_node_impl(int node);
  std::int32_t direct_contribution(const WorkChild& child, int u) const;

  const std::int32_t* h_of(const NodeTables& t) const {
    return arena_h_.get() + t.h_off;
  }
  const Choice* choice_of(const NodeTables& t) const {
    return arena_choice_.get() + t.h_off;
  }
  const std::int32_t* cost_of(const NodeTables& t) const {
    return arena_h_.get() + h_words_ + t.cost_off;
  }
  const std::uint8_t* cost_u_of(const NodeTables& t) const {
    return arena_cost_u_.get() + t.cost_off;
  }

  /// Search-effort tallies. Every counter is accumulated the same way:
  /// into a per-node-visit local inside solve_node, merged into the
  /// instance totals at the end of the visit, and flushed to the
  /// observability registry exactly once after the whole tree is solved
  /// (the inner loops are far too hot for per-event registry updates).
  /// The registry merge is commutative, so serial and parallel runs
  /// produce identical counter snapshots.
  struct DpCounters {
    std::uint64_t dp_cells = 0;          // h(S, U) cells computed
    std::uint64_t util_divisions = 0;    // direct u_e assignments tried
    std::uint64_t decomp_candidates = 0; // intermediate groups evaluated
    // Group evaluations saved by hoisting the decomposition scan out of
    // the utilization sweep: each group is evaluated once and serves all
    // K - 1 utilizations, where the pre-memoization loop re-derived it
    // per utilization (k - 2 avoided evaluations per group).
    std::uint64_t decomp_memo_hits = 0;

    void merge(const DpCounters& other) {
      dp_cells += other.dp_cells;
      util_divisions += other.util_divisions;
      decomp_candidates += other.decomp_candidates;
      decomp_memo_hits += other.decomp_memo_hits;
    }
  };

  // --- reduce ---
  /// One token of a cone program: the operand structure of a LUT cone
  /// flattened into a postfix stream (leaves and Open/Close brackets
  /// around merged child tables) instead of a pointer-linked expression
  /// tree. A cone is at most a handful of tokens, so the whole program
  /// lives in a SmallVector and reconstruction allocates nothing per
  /// cone.
  struct ConeTok {
    enum Kind : std::uint8_t { kLeaf, kOpen, kClose };
    std::uint8_t kind = kLeaf;
    bool negated = false;               // edge polarity into the parent op
    net::GateOp op = net::GateOp::kAnd; // kOpen: the nested combining op
    TreeCover::Pin pin = 0;             // kLeaf: the LUT input
  };
  using ConeProgram = base::SmallVector<ConeTok, 48>;

  /// The cover under construction, passed by parameter through the
  /// reconstruction.
  struct CoverBuilder {
    std::vector<TreeCover::Lut> luts;
    base::SmallVector<TreeCover::Pin, 64> pins;
    // Word-parallel truth-table operations performed while building LUT
    // tables; flushed once per reduce() call.
    std::uint64_t kernel_ops = 0;
  };

  /// Appends the operands of node `node`'s root LUT restricted to child
  /// subset `mask` at utilization `u` onto `prog` (in the cone's
  /// left-to-right operand order).
  void walk_cone(CoverBuilder& cover, int node, std::uint32_t mask, int u,
                 ConeProgram& prog) const;
  /// Adds the LUT of `node` mapped at utilization `u`; returns its pin.
  TreeCover::Pin add_node_lut(CoverBuilder& cover, int node, int u) const;
  /// Adds the LUT of the intermediate node of `node` over child subset
  /// `mask`; returns its pin.
  TreeCover::Pin add_group_lut(CoverBuilder& cover, int node,
                               std::uint32_t mask) const;
  /// Evaluates a cone program (top-level tokens combined under
  /// `root_op`) into a LUT table and adds the LUT to the cover.
  TreeCover::Pin add_cone(CoverBuilder& cover, const ConeProgram& prog,
                          net::GateOp root_op) const;

  WorkTree tree_;
  Options options_;
  int k_;
  std::vector<NodeTables> tables_;

  // DP arenas: the h and node_cost tables (both int32) share one
  // allocation — h rows first, then all cost rows — so a whole tree
  // costs three allocations of tables total. Sized exactly in the
  // constructor from the per-node fanins and never resized afterwards,
  // so the h_of/... pointers stay valid for the mapper's lifetime.
  // Allocated *uninitialized*
  // (make_unique_for_overwrite): the solve kernel writes every cell of
  // each nonempty subset's rows unconditionally when that subset is
  // visited, and no reader touches an empty-subset row (beyond the
  // h(empty, 0) anchor), so the constructor never pays a fill pass over
  // the tables.
  std::unique_ptr<std::int32_t[]> arena_h_;  // [h rows][node_cost rows]
  std::size_t h_words_ = 0;     // where the node_cost section starts
  std::size_t cost_words_ = 0;  // node_cost / node_cost_u cell count
  std::unique_ptr<Choice[]> arena_choice_;
  std::unique_ptr<std::uint8_t[]> arena_cost_u_;

  // Construction-only scratch: contrib[e * (K+1) + u] caches
  // direct_contribution(child e, u) for the node being solved, so the
  // subset loop reads a flat array instead of chasing child tables.
  // Inline (fanin <= 20, K <= 6) so solving allocates nothing per node.
  std::int32_t scratch_contrib_[20 * 7];

  DpCounters counters_;
};

}  // namespace chortle::core
