// Structural canonicalization of a WorkTree, the key of the
// cross-request tree-DP cache (dp_cache.hpp).
//
// Two trees from different networks (or different requests) get the
// same signature iff the tree DP and the emission walk are guaranteed
// to behave identically on both: same node ops, same child shapes and
// polarities, and the same *coincidence pattern* among leaf signals
// (emission deduplicates repeated leaf signals onto one LUT pin, so
// which leaves carry the same signal is part of the structure even
// though the signal identities are not). The mapping options that
// shape the tree or the DP — K, the split threshold, and the
// decomposition-search ablation — are folded into the key as well.
//
// canonicalize_tree therefore renumbers leaf signals by first
// occurrence in node-index order, records the original network node of
// each canonical leaf (so a cached mapping can be re-emitted against
// any request's signals), and serializes the whole structure into a
// full-fidelity key string: cache lookups compare entire keys, so a
// hash collision can never alias two different trees.
//
// The key deliberately excludes anything about the kernel
// implementation, so cached entries survive kernel changes that
// preserve the emitted BLIF.
#pragma once

#include <string>
#include <vector>

#include "chortle/options.hpp"
#include "chortle/work_tree.hpp"

namespace chortle::core {

struct CanonicalTree {
  /// The input tree with every leaf_signal replaced by its canonical
  /// leaf index (0, 1, 2, ... in first-occurrence order). The DP over
  /// this tree is identical to the DP over the original.
  WorkTree tree;
  /// canonical leaf index -> original network node carrying that leaf.
  std::vector<net::NodeId> leaf_ids;
  /// Complete structural encoding of `tree` plus the DP-relevant
  /// options. Equal keys imply byte-identical emission behaviour.
  std::string key;
};

/// Canonicalizes `tree` under `options`. O(size of the tree).
CanonicalTree canonicalize_tree(const WorkTree& tree, const Options& options);

}  // namespace chortle::core
