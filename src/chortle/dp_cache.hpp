// Cross-request cache of solved trees, the heart of the mapping service
// (src/serve): repeated traffic over similar netlists re-uses the
// exponential decomposition search instead of re-running it.
//
// Keyed by the canonical structural signature of a fanout-free tree
// plus (K, split_threshold, search_decompositions) — see
// tree_signature.hpp. Values are shared_ptr<const TreeCover>: the
// answer of the tree's DP, reduced to its LUT records (tree_cover.hpp)
// once the solve finishes, not the DP tables themselves. A cover is
// immutable and may emit into any number of circuits, so concurrent
// requests share one instance freely.
//
// Concurrency: the key space is sharded by hash; each shard is an
// independent mutex + LRU list, so requests mapping different trees
// rarely contend. Lookups compare full keys (the signature is a
// complete encoding, not a digest), so a hash collision can never
// alias two different trees. Memory is bounded per shard by what each
// entry holds resident: its key (stored once, in the LRU entry; the
// index refers to it), its cover's arrays, and a fixed per-entry
// overhead for the list and index nodes, the shared_ptr control block
// and the allocator headers. Eviction is least-recently-used.
//
// Single-flight: find_or_solve() coalesces concurrent misses on one
// key — one caller runs the DP, the rest wait and share the result —
// so a stampede of identical requests (many clients mapping the same
// netlist at once) costs one solve, not one per request. The serving
// layer leans on this for request coalescing (DESIGN.md §10).
//
// Kernel independence: keys describe the tree, not the truth-table
// kernel that builds its LUTs, so cached entries survive kernel changes
// that keep the emitted BLIF byte-identical (DESIGN.md §11).
//
// Observability: hit/miss/insert/evict counters both in the instance
// (stats(), for per-server reporting) and in the global metrics
// registry under chortle.dp_cache.* (DESIGN.md §8).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "base/cancel.hpp"
#include "chortle/tree_cover.hpp"

namespace chortle::core {

class DpCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    /// Callers that waited on another thread's in-flight solve of the
    /// same key instead of running the DP themselves (find_or_solve).
    std::uint64_t coalesced = 0;
    std::size_t entries = 0;
    /// Resident bytes of every entry: key, cover arrays and the fixed
    /// per-entry overhead (see entry_bytes).
    std::size_t bytes = 0;
  };

  /// How find_or_solve satisfied a lookup.
  enum class Outcome {
    kHit,        // already resident
    kSolved,     // this caller ran `solve` and published the result
    kCoalesced,  // waited for a concurrent solve of the same key
  };

  /// `max_bytes` bounds the total resident bytes of the entries (split
  /// evenly across shards); `num_shards` is rounded up to at least 1.
  /// A single entry larger than a whole shard is still admitted alone —
  /// the bound is then exceeded transiently until it is evicted.
  explicit DpCache(std::size_t max_bytes = std::size_t{256} << 20,
                   std::size_t num_shards = 16);

  DpCache(const DpCache&) = delete;
  DpCache& operator=(const DpCache&) = delete;

  /// Returns the cached cover for `key` (marking it most recently
  /// used), or nullptr on a miss.
  std::shared_ptr<const TreeCover> find(const std::string& key);

  /// Inserts `cover` under `key` and returns the resident entry: the
  /// given cover, or — when another thread raced the same key in —
  /// the one already cached (the two are interchangeable by the key's
  /// guarantee). May evict least-recently-used entries.
  std::shared_ptr<const TreeCover> insert(
      const std::string& key, std::shared_ptr<const TreeCover> cover);

  /// Single-flight lookup: a hit returns the resident cover; on a
  /// miss exactly ONE concurrent caller per key runs `solve` and
  /// publishes the result, while the others block until it lands and
  /// then share it — so a stampede of identical requests costs one DP
  /// solve instead of one per request (the solutions are
  /// interchangeable by the key's guarantee, so waiting loses nothing
  /// but the leader's latency).
  ///
  /// `cancel` (may be null) is the *waiter's* token: a follower whose
  /// own deadline fires while waiting unwinds with base::Cancelled
  /// without disturbing the leader. If the leader's solve throws, its
  /// waiters retry — the next caller through becomes the new leader —
  /// so one cancelled request can never poison an identical healthy
  /// one. `outcome` (may be null) reports how the call was satisfied.
  std::shared_ptr<const TreeCover> find_or_solve(
      const std::string& key,
      const std::function<std::shared_ptr<const TreeCover>()>& solve,
      const base::CancelToken* cancel = nullptr, Outcome* outcome = nullptr);

  Stats stats() const;
  void clear();

  /// What one entry holds resident, as charged against the budget:
  /// the key's heap buffer, the cover and its arrays, and the fixed
  /// per-entry overhead.
  static std::size_t entry_bytes(const std::string& key,
                                 const TreeCover& cover);

 private:
  /// One in-flight solve; waiters block on `cv` until `done`.
  struct InFlight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    bool failed = false;
    std::shared_ptr<const TreeCover> result;
  };

  struct Entry {
    std::string key;
    std::shared_ptr<const TreeCover> cover;
    std::size_t bytes = 0;
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  // front = most recently used
    /// Views of the entries' own keys: each key is stored once.
    std::unordered_map<std::string_view, std::list<Entry>::iterator> index;
    /// Keys currently being solved by some find_or_solve leader.
    std::unordered_map<std::string, std::shared_ptr<InFlight>> in_flight;
    std::size_t bytes = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t coalesced = 0;
  };

  Shard& shard_of(const std::string& key);

  std::size_t max_bytes_per_shard_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace chortle::core
