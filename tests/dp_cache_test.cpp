// The cross-request tree-DP cache (chortle/dp_cache.hpp), its key
// (chortle/tree_signature.hpp) and its values, the reduced covers of
// chortle/tree_cover.hpp. The load-bearing property throughout: a cache
// hit must be indistinguishable from a fresh solve — same LUT count and
// byte-identical emitted BLIF — because the signature captures
// everything the DP and the reduce step depend on.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "base/cancel.hpp"
#include "blif/blif.hpp"
#include "chortle/dp_cache.hpp"
#include "chortle/forest.hpp"
#include "chortle/mapper.hpp"
#include "chortle/tree_cover.hpp"
#include "chortle/tree_mapper.hpp"
#include "chortle/tree_signature.hpp"
#include "chortle/work_tree.hpp"
#include "helpers.hpp"
#include "mcnc/generators.hpp"
#include "mcnc/random_logic.hpp"
#include "opt/decompose.hpp"
#include "opt/script.hpp"

namespace chortle::core {
namespace {

WorkTree first_tree(const net::Network& network, const Options& options) {
  const Forest forest = build_forest(network);
  return build_work_tree(network, forest, forest.trees.front(), options);
}

/// Solves `canon` and reduces it to the cover the cache stores.
std::shared_ptr<const TreeCover> solve(const CanonicalTree& canon,
                                       const Options& options) {
  return std::make_shared<const TreeCover>(
      TreeMapper(canon.tree, options).reduce());
}

/// The canonical first tree of random_tree(6, 5, 4, seed).
CanonicalTree tree_of_seed(std::uint64_t seed, const Options& options) {
  return canonicalize_tree(
      first_tree(testing::random_tree(6, 5, 4, seed), options), options);
}

/// AND(a, b) with chosen polarities, as a one-gate network.
net::Network tiny_gate(net::GateOp op, bool neg_a, bool neg_b) {
  net::Network network;
  const net::NodeId a = network.add_input("a");
  const net::NodeId b = network.add_input("b");
  const net::NodeId gate = network.add_gate(
      op, {net::Fanin{a, neg_a}, net::Fanin{b, neg_b}});
  network.add_output("out", gate, false);
  network.check();
  return network;
}

/// AND(AND(a, b), AND(x, d)) where x is a (shared leaf) or c (all
/// leaves distinct) — same shape, different leaf-coincidence pattern.
net::Network coincidence_tree(bool share) {
  net::Network network;
  const net::NodeId a = network.add_input("a");
  const net::NodeId b = network.add_input("b");
  const net::NodeId c = network.add_input("c");
  const net::NodeId d = network.add_input("d");
  const net::NodeId left =
      network.add_gate(net::GateOp::kAnd, {net::Fanin{a, false}, net::Fanin{b, false}});
  const net::NodeId right = network.add_gate(
      net::GateOp::kAnd, {net::Fanin{share ? a : c, false}, net::Fanin{d, false}});
  const net::NodeId root = network.add_gate(
      net::GateOp::kAnd, {net::Fanin{left, false}, net::Fanin{right, false}});
  network.add_output("out", root, false);
  network.check();
  return network;
}

TEST(TreeSignature, StructurallyIdenticalTreesShareAKey) {
  const Options options;
  // Same structure built twice over unrelated networks (node ids and
  // signal names differ; structure does not).
  const net::Network first = testing::random_tree(6, 5, 4, /*seed=*/7);
  const net::Network second = testing::random_tree(6, 5, 4, /*seed=*/7);
  const CanonicalTree lhs = canonicalize_tree(first_tree(first, options), options);
  const CanonicalTree rhs =
      canonicalize_tree(first_tree(second, options), options);
  EXPECT_EQ(lhs.key, rhs.key);
  EXPECT_EQ(lhs.leaf_ids.size(), rhs.leaf_ids.size());
}

TEST(TreeSignature, KeySeparatesOpPolarityAndLeafCoincidence) {
  const Options options;
  const auto key = [&](const net::Network& network) {
    return canonicalize_tree(first_tree(network, options), options).key;
  };
  const std::string base = key(tiny_gate(net::GateOp::kAnd, false, false));
  EXPECT_NE(base, key(tiny_gate(net::GateOp::kOr, false, false))) << "op";
  EXPECT_NE(base, key(tiny_gate(net::GateOp::kAnd, true, false)))
      << "polarity";
  // Which polarity leg carries the negation is symmetric only in name,
  // not structure: child order is part of the key.
  EXPECT_NE(key(tiny_gate(net::GateOp::kAnd, true, false)),
            key(tiny_gate(net::GateOp::kAnd, false, true)));
  // A leaf shared between two gates deduplicates onto one LUT pin at
  // emission, so the coincidence pattern must split the key even though
  // the tree shape is identical.
  EXPECT_NE(key(coincidence_tree(/*share=*/true)),
            key(coincidence_tree(/*share=*/false)))
      << "coincidence";
}

TEST(TreeSignature, KeyFoldsInTheDpShapingOptions) {
  const net::Network network = testing::random_tree(6, 5, 4, /*seed=*/11);
  Options base;
  const std::string key_k4 =
      canonicalize_tree(first_tree(network, base), base).key;

  Options k5 = base;
  k5.k = 5;
  EXPECT_NE(key_k4, canonicalize_tree(first_tree(network, k5), k5).key);

  Options no_search = base;
  no_search.search_decompositions = false;
  EXPECT_NE(key_k4,
            canonicalize_tree(first_tree(network, no_search), no_search).key);

  Options split = base;
  split.split_threshold = 8;
  // The threshold shapes the tree before the DP; even when this tree is
  // unchanged the key must not collide across thresholds.
  EXPECT_NE(key_k4, canonicalize_tree(first_tree(network, split), split).key);
}

TEST(TreeSignature, CanonicalTreeSolvesToTheSameCost) {
  const Options options;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const net::Network network = testing::random_tree(8, 9, 5, seed);
    const WorkTree tree = first_tree(network, options);
    const CanonicalTree canon = canonicalize_tree(tree, options);
    const TreeMapper original(tree, options);
    const TreeMapper renumbered(canon.tree, options);
    EXPECT_EQ(original.best_cost(), renumbered.best_cost()) << "seed " << seed;
  }
}

TEST(DpCache, FindMissThenInsertThenHit) {
  const Options options;
  DpCache cache;
  const CanonicalTree canon = tree_of_seed(3, options);

  EXPECT_EQ(cache.find(canon.key), nullptr);
  const auto cover = solve(canon, options);
  EXPECT_EQ(cache.insert(canon.key, cover), cover);
  EXPECT_EQ(cache.find(canon.key), cover);

  const DpCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  // Accounted bytes cover the cover's arrays, the key and the entry's
  // fixed overhead.
  EXPECT_EQ(stats.bytes, DpCache::entry_bytes(canon.key, *cover));
  EXPECT_GT(stats.bytes, cover->memory_bytes() + canon.key.size());
}

TEST(DpCache, InsertRaceKeepsTheResidentEntry) {
  const Options options;
  DpCache cache;
  const CanonicalTree canon = tree_of_seed(4, options);
  const auto winner = solve(canon, options);
  const auto loser = solve(canon, options);
  ASSERT_EQ(cache.insert(canon.key, winner), winner);
  // A second thread that solved the same tree concurrently publishes
  // late: it must be handed the resident cover, not displace it.
  EXPECT_EQ(cache.insert(canon.key, loser), winner);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(DpCache, EvictsLeastRecentlyUsedUnderAByteBudget) {
  const Options options;
  // Three distinct trees and what each entry is charged.
  std::vector<CanonicalTree> trees;
  for (std::uint64_t seed = 1; trees.size() < 3; ++seed) {
    ASSERT_LE(seed, 50u);
    CanonicalTree canon = tree_of_seed(seed, options);
    bool seen = false;
    for (const CanonicalTree& t : trees) seen = seen || t.key == canon.key;
    if (!seen) trees.push_back(std::move(canon));
  }
  std::vector<std::shared_ptr<const TreeCover>> covers;
  std::vector<std::size_t> bytes;
  for (const CanonicalTree& canon : trees) {
    covers.push_back(solve(canon, options));
    bytes.push_back(DpCache::entry_bytes(canon.key, *covers.back()));
  }

  // One shard so the LRU order is global and the budget is exact: one
  // byte short of all three entries.
  DpCache cache(bytes[0] + bytes[1] + bytes[2] - 1, /*num_shards=*/1);
  cache.insert(trees[0].key, covers[0]);
  cache.insert(trees[1].key, covers[1]);
  EXPECT_EQ(cache.stats().bytes, bytes[0] + bytes[1]);
  ASSERT_NE(cache.find(trees[0].key), nullptr);  // now 1 is the LRU entry
  cache.insert(trees[2].key, covers[2]);

  const DpCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.bytes, bytes[0] + bytes[2]);
  EXPECT_EQ(cache.find(trees[1].key), nullptr) << "least recently used";
  EXPECT_EQ(cache.find(trees[0].key), covers[0]);
  EXPECT_EQ(cache.find(trees[2].key), covers[2]);

  // A budget below one entry still admits it alone, evicting the rest.
  DpCache tiny(/*max_bytes=*/1, /*num_shards=*/1);
  for (std::size_t i = 0; i < trees.size(); ++i)
    tiny.insert(trees[i].key, covers[i]);
  EXPECT_EQ(tiny.stats().entries, 1u);
  EXPECT_EQ(tiny.stats().evictions, 2u);
  EXPECT_EQ(tiny.stats().bytes, bytes[2]);
}

TEST(DpCache, ClearEmptiesEveryShard) {
  const Options options;
  DpCache cache;
  const CanonicalTree canon = tree_of_seed(9, options);
  cache.insert(canon.key, solve(canon, options));
  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
  EXPECT_EQ(cache.find(canon.key), nullptr);
}

// ------------------------------------------------------ single-flight

TEST(DpCacheSingleFlight, ConcurrentMissesShareOneSolve) {
  const Options options;
  DpCache cache;
  const CanonicalTree canon = tree_of_seed(21, options);

  constexpr int kFollowers = 4;
  std::atomic<int> solve_calls{0};
  std::atomic<bool> solve_entered{false};
  const auto slow_solve = [&]() -> std::shared_ptr<const TreeCover> {
    ++solve_calls;
    solve_entered.store(true);
    // Hold the flight open until every follower has joined it: a
    // follower counts itself as coalesced under the shard lock before
    // it parks, so none can miss the flight or see a published entry.
    while (cache.stats().coalesced < kFollowers)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return solve(canon, options);
  };

  DpCache::Outcome leader_outcome{};
  std::shared_ptr<const TreeCover> leader_result;
  std::thread leader([&] {
    leader_result =
        cache.find_or_solve(canon.key, slow_solve, nullptr, &leader_outcome);
  });
  while (!solve_entered.load())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  std::vector<std::shared_ptr<const TreeCover>> results(kFollowers);
  std::vector<DpCache::Outcome> outcomes(kFollowers);
  std::vector<std::thread> followers;
  for (int t = 0; t < kFollowers; ++t)
    followers.emplace_back([&, t] {
      results[static_cast<std::size_t>(t)] = cache.find_or_solve(
          canon.key, slow_solve, nullptr,
          &outcomes[static_cast<std::size_t>(t)]);
    });
  leader.join();
  for (std::thread& thread : followers) thread.join();

  EXPECT_EQ(solve_calls.load(), 1) << "stampede must cost one DP solve";
  EXPECT_EQ(leader_outcome, DpCache::Outcome::kSolved);
  for (int t = 0; t < kFollowers; ++t) {
    // Followers literally share the leader's instance, not a copy.
    EXPECT_EQ(results[static_cast<std::size_t>(t)], leader_result);
    EXPECT_EQ(outcomes[static_cast<std::size_t>(t)],
              DpCache::Outcome::kCoalesced);
  }
  const DpCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.coalesced, static_cast<std::uint64_t>(kFollowers));
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.insertions, 1u);
}

TEST(DpCacheSingleFlight, FailedLeaderHandsTheFlightToTheNextCaller) {
  const Options options;
  DpCache cache;
  const CanonicalTree canon = tree_of_seed(22, options);

  std::atomic<bool> leader_in_solve{false};
  std::atomic<bool> release_failure{false};
  std::thread leader([&] {
    EXPECT_THROW(
        cache.find_or_solve(canon.key,
                            [&]() -> std::shared_ptr<const TreeCover> {
                              leader_in_solve.store(true);
                              while (!release_failure.load())
                                std::this_thread::sleep_for(
                                    std::chrono::milliseconds(1));
                              throw std::runtime_error("deadline mid-solve");
                            }),
        std::runtime_error);
  });
  while (!leader_in_solve.load())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  std::atomic<int> follower_solves{0};
  DpCache::Outcome outcome{};
  std::shared_ptr<const TreeCover> result;
  std::thread follower([&] {
    result = cache.find_or_solve(
        canon.key,
        [&] {
          ++follower_solves;
          return solve(canon, options);
        },
        nullptr, &outcome);
  });
  // Let the follower park on the flight, then fail the leader under it.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  release_failure.store(true);
  leader.join();
  follower.join();

  // The failure must not propagate: the follower retried the lookup,
  // became the new leader, and solved — one cancelled request cannot
  // poison an identical healthy one.
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(follower_solves.load(), 1);
  EXPECT_EQ(outcome, DpCache::Outcome::kSolved);
  EXPECT_EQ(cache.find(canon.key), result);
}

TEST(DpCacheSingleFlight, WaiterDeadlineFiresWhileTheLeaderIsSolving) {
  const Options options;
  DpCache cache;
  const CanonicalTree canon = tree_of_seed(23, options);

  std::atomic<bool> leader_in_solve{false};
  std::atomic<bool> release{false};
  std::thread leader([&] {
    cache.find_or_solve(canon.key,
                        [&]() -> std::shared_ptr<const TreeCover> {
                          leader_in_solve.store(true);
                          while (!release.load())
                            std::this_thread::sleep_for(
                                std::chrono::milliseconds(1));
                          return solve(canon, options);
                        });
  });
  while (!leader_in_solve.load())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  // A waiter whose own deadline is already gone unwinds promptly (the
  // wait polls the waiter's token) without disturbing the leader.
  base::CancelToken token;
  token.cancel();
  EXPECT_THROW(cache.find_or_solve(
                   canon.key,
                   [&]() -> std::shared_ptr<const TreeCover> {
                     ADD_FAILURE() << "an expired waiter must never solve";
                     return nullptr;
                   },
                   &token),
               base::Cancelled);

  release.store(true);
  leader.join();
  EXPECT_NE(cache.find(canon.key), nullptr) << "leader still published";
}

// ------------------------------------------------- end-to-end mapping

TEST(DpCacheMapping, CachedMappingIsByteIdenticalToUncached) {
  for (const std::string& name : {std::string("count"), std::string("alu2")}) {
    const opt::OptimizedDesign design = opt::optimize(mcnc::generate(name));
    Options options;
    options.k = 4;

    const MapResult plain = map_network(design.network, options);
    DpCache cache;
    const MapResult cold = map_network(design.network, options, &cache);
    const MapResult warm = map_network(design.network, options, &cache);

    EXPECT_EQ(plain.stats.cache_hits, 0);
    EXPECT_EQ(plain.stats.cache_misses, 0);
    EXPECT_GT(warm.stats.cache_hits, 0) << name;
    EXPECT_EQ(warm.stats.cache_misses, 0) << name;
    EXPECT_EQ(cold.stats.cache_hits + cold.stats.cache_misses +
                  cold.stats.cache_coalesced,
              cold.stats.num_trees);

    const std::string reference = blif::write_blif_string(plain.circuit, name);
    EXPECT_EQ(blif::write_blif_string(cold.circuit, name), reference) << name;
    EXPECT_EQ(blif::write_blif_string(warm.circuit, name), reference) << name;
  }
}

/// A decomposed random_logic network, shaped like the service's fresh
/// designs (bench/suite random_blif) when `gates` is in 150..600 and
/// `buffers` is 0. Buffer and inverter nodes make negated outputs.
net::Network random_design(int gates, std::uint64_t seed,
                           double buffers = 0.0) {
  mcnc::RandomLogicParams params;
  params.buffer_node_probability = buffers;
  params.num_gates = gates;
  params.num_inputs = 16 + gates / 20;
  params.num_outputs = 8 + gates / 40;
  params.seed = seed;
  return opt::decompose_to_and_or(mcnc::random_logic(params));
}

TEST(DpCacheCover, CachedMappingsMatchUncachedOnRandomLogic) {
  // Shapes the cover must get right, counted over the whole set so the
  // test proves it met them: a tree whose leaves repeat a signal (pins
  // deduplicate) and a root whose output inversion folds into its LUT.
  int repeated_leaf_trees = 0;
  int folded_roots = 0;
  int networks = 0;
  for (int k = 2; k <= 6; ++k) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      const net::Network network =
          random_design(40 + static_cast<int>(seed) * 8, seed * 31 + 7,
                        seed % 2 == 0 ? 0.2 : 0.0);
      Options options;
      options.k = k;
      ++networks;

      const Forest forest = build_forest(network);
      int cover_luts = 0;
      for (const Tree& tree : forest.trees) {
        const WorkTree work = build_work_tree(network, forest, tree, options);
        int leaves = 0;
        for (const WorkNode& node : work.nodes)
          for (const WorkChild& child : node.children) leaves += child.is_leaf;
        const CanonicalTree canon = canonicalize_tree(work, options);
        if (static_cast<int>(canon.leaf_ids.size()) < leaves)
          ++repeated_leaf_trees;
        const TreeMapper mapper(canon.tree, options);
        const TreeCover cover = mapper.reduce();
        EXPECT_EQ(cover.best_cost(), mapper.best_cost());
        cover_luts += cover.best_cost();
      }
      const std::vector<int> readers = network.reference_counts();
      for (const net::Output& o : network.outputs())
        if (!o.is_const && o.negated && !network.is_input(o.node) &&
            readers[static_cast<std::size_t>(o.node)] == 1)
          ++folded_roots;

      const std::string label =
          "k=" + std::to_string(k) + " seed=" + std::to_string(seed);
      const MapResult plain = map_network(network, options);
      EXPECT_EQ(plain.stats.num_luts, cover_luts) << label;
      DpCache cache;
      const MapResult cold = map_network(network, options, &cache);
      const MapResult warm = map_network(network, options, &cache);
      EXPECT_EQ(warm.stats.cache_misses, 0) << label;
      const std::string reference =
          blif::write_blif_string(plain.circuit, "random");
      EXPECT_EQ(blif::write_blif_string(cold.circuit, "random"), reference)
          << label;
      EXPECT_EQ(blif::write_blif_string(warm.circuit, "random"), reference)
          << label;
    }
  }
  RecordProperty("repeated_leaf_trees", repeated_leaf_trees);
  RecordProperty("folded_roots", folded_roots);
  EXPECT_GE(networks, 50);
  EXPECT_GT(repeated_leaf_trees, 0);
  EXPECT_GT(folded_roots, 0);
}

// Mean bytes per cache entry when the cache held each tree's whole DP
// (h rows, choices, per-subset costs and the tree, plus the key) instead
// of its cover, measured on the seeded designs of the test below: 586
// distinct trees. Over the 99,959 distinct trees of 4312 service-style
// fresh designs the same mean was about 10.3 KB.
constexpr double kDpTableBytesPerEntry = 5766.4;

TEST(DpCacheCover, EntriesAreTenfoldSmallerThanTheDpTables) {
  Options options;
  options.k = 4;
  DpCache cache;
  std::uint64_t rng = 0x5eed;
  for (int design = 0; design < 12; ++design) {
    rng = rng * 6364136223846793005u + 1442695040888963407u;
    const int gates = 150 + static_cast<int>((rng >> 33) % 451);
    map_network(random_design(gates, rng), options, &cache);
  }
  const DpCache::Stats stats = cache.stats();
  ASSERT_EQ(stats.entries, 586u) << "the set the constant was measured on";
  const double per_entry =
      static_cast<double>(stats.bytes) / static_cast<double>(stats.entries);
  RecordProperty("entries", static_cast<int>(stats.entries));
  RecordProperty("bytes_per_entry", static_cast<int>(per_entry));
  EXPECT_LE(per_entry * 10.0, kDpTableBytesPerEntry)
      << per_entry << " accounted bytes per entry";
}

TEST(DpCacheMapping, SharedCacheIsSafeAndExactAcrossThreads) {
  const opt::OptimizedDesign design = opt::optimize(mcnc::generate("count"));
  Options options;
  options.k = 3;
  const std::string reference =
      blif::write_blif_string(map_network(design.network, options).circuit,
                              "count");

  DpCache cache;
  constexpr int kThreads = 4;
  std::vector<std::string> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const MapResult result = map_network(design.network, options, &cache);
      results[static_cast<std::size_t>(t)] =
          blif::write_blif_string(result.circuit, "count");
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::string& result : results) EXPECT_EQ(result, reference);
  EXPECT_GT(cache.stats().hits, 0u);
}

TEST(DpCacheMapping, PreCancelledTokenAbortsBeforeAnyWork) {
  const opt::OptimizedDesign design = opt::optimize(mcnc::generate("count"));
  base::CancelToken token;
  token.cancel();
  Options options;
  options.cancel = &token;
  EXPECT_THROW(map_network(design.network, options), base::Cancelled);
}

TEST(DpCacheMapping, ExpiredDeadlineTokenAbortsMidSolve) {
  const opt::OptimizedDesign design = opt::optimize(mcnc::generate("alu2"));
  const base::CancelToken token =
      base::CancelToken::after(std::chrono::milliseconds(0));
  Options options;
  options.cancel = &token;
  EXPECT_THROW(map_network(design.network, options), base::Cancelled);
}

}  // namespace
}  // namespace chortle::core
