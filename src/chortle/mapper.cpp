#include "chortle/mapper.hpp"

#include <algorithm>
#include <memory>
#include <numeric>

#include "base/cancel.hpp"
#include "base/thread_pool.hpp"
#include "base/timer.hpp"
#include "chortle/dp_cache.hpp"
#include "chortle/duplicate.hpp"
#include "chortle/forest.hpp"
#include "chortle/tree_mapper.hpp"
#include "chortle/tree_signature.hpp"
#include "chortle/work_tree.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace chortle::core {

MapResult map_network(const net::Network& network, const Options& options) {
  return map_network(network, options, nullptr);
}

MapResult map_network(const net::Network& network, const Options& options,
                      DpCache* cache) {
  OBS_SPAN_ARG("chortle.map_network", network.num_nodes());
  options.validate();
  network.check();
  WallTimer timer;

  const int jobs = base::resolve_jobs(options.jobs);
  OBS_GAUGE_SET("chortle.map.jobs", jobs);
  std::unique_ptr<base::ThreadPool> pool;
  if (jobs > 1) pool = std::make_unique<base::ThreadPool>(jobs);

  Forest forest = build_forest(network);
  DuplicationStats duplication;
  if (options.duplicate_fanout_logic)
    forest = duplicate_fanout_logic(network, std::move(forest), options,
                                    &duplication, pool.get());

  MapResult result{net::LutCircuit(options.k), MapStats{}};
  net::LutCircuit& circuit = result.circuit;

  std::vector<net::SignalId> signal_of(
      static_cast<std::size_t>(network.num_nodes()), -1);
  for (net::NodeId pi : network.inputs())
    signal_of[static_cast<std::size_t>(pi)] =
        circuit.add_input(network.node(pi).name);

  // A tree root whose only reader is a single complemented primary
  // output gets its inversion folded into the root LUT for free.
  std::vector<int> readers(static_cast<std::size_t>(network.num_nodes()), 0);
  std::vector<int> negated_output_readers(
      static_cast<std::size_t>(network.num_nodes()), 0);
  for (net::NodeId id = 0; id < network.num_nodes(); ++id)
    for (const net::Fanin& f : network.node(id).fanins)
      ++readers[static_cast<std::size_t>(f.node)];
  for (const net::Output& o : network.outputs()) {
    if (o.is_const) continue;
    ++readers[static_cast<std::size_t>(o.node)];
    if (o.negated) ++negated_output_readers[static_cast<std::size_t>(o.node)];
  }
  std::vector<bool> emitted_complemented(
      static_cast<std::size_t>(network.num_nodes()), false);

  // Phase 1 — solve (parallel): every tree's DP is independent of every
  // other tree's, so the WorkTree builds and TreeMapper constructions
  // fan out across the pool. Trees are dispatched largest-first so a
  // giant tree starts immediately instead of serializing the tail of
  // the schedule. Each mapper is reduced to its TreeCover and freed at
  // once, so only covers wait for phase 2. Results land in per-tree
  // slots; nothing here touches the circuit, signal ids, or any other
  // shared mutable state.
  // With a DP cache each tree is first canonicalized and looked up by
  // structural signature; only misses run the DP, and fresh covers are
  // published for later requests. Per-tree results land in disjoint
  // slots, so the phase stays data-race free.
  const std::size_t num_trees = forest.trees.size();
  struct SolvedTree {
    std::shared_ptr<const TreeCover> cover;
    std::vector<net::NodeId> leaf_ids;  // cache path: canonical leaf -> node
    DpCache::Outcome outcome = DpCache::Outcome::kSolved;
  };
  std::vector<SolvedTree> solved(num_trees);
  {
    OBS_SPAN_ARG("chortle.solve_trees", static_cast<std::int64_t>(num_trees));
    std::vector<std::uint64_t> cost(num_trees);
    for (std::size_t t = 0; t < num_trees; ++t)
      cost[t] = estimated_solve_cost(network, forest.trees[t], options);
    std::vector<std::size_t> order(num_trees);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return cost[a] > cost[b];
                     });
    base::parallel_for(pool.get(), num_trees, [&](std::size_t i) {
      const std::size_t t = order[i];
      if (options.cancel != nullptr) options.cancel->check("map_network");
      WorkTree work = build_work_tree(network, forest, forest.trees[t],
                                      options);
      if (cache == nullptr) {
        solved[t].cover = std::make_shared<const TreeCover>(
            TreeMapper(std::move(work), options).reduce());
        return;
      }
      // Lookup-outcome latency split (cached path only, so the uncached
      // benchmark tables pay nothing): a hit costs canonicalize+find, a
      // miss additionally pays the fresh DP solve, a coalesced lookup
      // waits out another thread's identical solve. The histograms
      // surface in the serve-stats "stages" section as cache_hit /
      // cache_miss / cache_coalesced.
      WallTimer lookup_timer;
      CanonicalTree canon = canonicalize_tree(work, options);
      solved[t].leaf_ids = std::move(canon.leaf_ids);
      solved[t].cover = cache->find_or_solve(
          canon.key,
          [&] {
            return std::make_shared<const TreeCover>(
                TreeMapper(std::move(canon.tree), options).reduce());
          },
          options.cancel, &solved[t].outcome);
      switch (solved[t].outcome) {
        case DpCache::Outcome::kHit:
          OBS_HDR_OBSERVE("map.cache_hit.seconds", lookup_timer.seconds());
          break;
        case DpCache::Outcome::kSolved:
          OBS_HDR_OBSERVE("map.cache_miss.seconds", lookup_timer.seconds());
          break;
        case DpCache::Outcome::kCoalesced:
          OBS_HDR_OBSERVE("map.cache_coalesced.seconds",
                          lookup_timer.seconds());
          break;
      }
    });
  }
  for (const SolvedTree& s : solved) {
    if (cache == nullptr) break;
    switch (s.outcome) {
      case DpCache::Outcome::kHit: ++result.stats.cache_hits; break;
      case DpCache::Outcome::kSolved: ++result.stats.cache_misses; break;
      case DpCache::Outcome::kCoalesced:
        ++result.stats.cache_coalesced;
        break;
    }
  }

  // Phase 2 — emit (sequential, original forest order): later trees read
  // earlier trees' root signals through signal_of, and LUT/Signal ids
  // must come out byte-identical to the single-threaded mapping, so the
  // commit order is fixed regardless of the solve schedule.
  for (std::size_t t = 0; t < num_trees; ++t) {
    const Tree& tree = forest.trees[t];
    const TreeCover& cover = *solved[t].cover;
    const std::size_t root = static_cast<std::size_t>(tree.root);
    const bool fold_inversion =
        readers[root] == 1 && negated_output_readers[root] == 1;
    if (cache == nullptr) {
      signal_of[root] = cover.emit(circuit, signal_of, fold_inversion,
                                   network.node(tree.root).name);
    } else {
      // Cached covers index leaves canonically; translate to this
      // network's signals (canonical order is first-occurrence order,
      // so the emitted pin order matches the uncached mapping exactly).
      const std::vector<net::NodeId>& leaf_ids = solved[t].leaf_ids;
      std::vector<net::SignalId> leaf_signals(leaf_ids.size());
      for (std::size_t i = 0; i < leaf_ids.size(); ++i)
        leaf_signals[i] = signal_of[static_cast<std::size_t>(leaf_ids[i])];
      signal_of[root] = cover.emit(circuit, leaf_signals, fold_inversion,
                                   network.node(tree.root).name);
    }
    emitted_complemented[root] = fold_inversion;
    result.stats.largest_tree = std::max(
        result.stats.largest_tree, static_cast<int>(tree.gates.size()));
    // Drop this call's reference once emitted (a cached cover stays
    // alive in the cache, an uncached one dies).
    solved[t].cover.reset();
  }

  for (const net::Output& o : network.outputs()) {
    if (o.is_const) {
      circuit.add_const_output(o.name, o.const_value);
      continue;
    }
    const std::size_t node = static_cast<std::size_t>(o.node);
    CHORTLE_CHECK(signal_of[node] >= 0);
    const bool negated = o.negated != emitted_complemented[node];
    circuit.add_output(o.name, signal_of[node], negated);
  }

  circuit.check();
  result.stats.num_luts = circuit.num_luts();
  result.stats.num_trees = static_cast<int>(forest.trees.size());
  result.stats.depth = circuit.depth();
  result.stats.duplicated_roots = duplication.accepted;
  result.stats.seconds = timer.seconds();
  OBS_COUNT("chortle.map.networks", 1);
  OBS_COUNT("chortle.map.luts", result.stats.num_luts);
  return result;
}

}  // namespace chortle::core
