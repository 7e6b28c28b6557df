#include "chortle/dp_cache.hpp"

#include <algorithm>
#include <chrono>
#include <functional>

#include "base/check.hpp"
#include "obs/metrics.hpp"

namespace chortle::core {

DpCache::DpCache(std::size_t max_bytes, std::size_t num_shards) {
  const std::size_t shards = std::max<std::size_t>(num_shards, 1);
  max_bytes_per_shard_ = std::max<std::size_t>(max_bytes / shards, 1);
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i)
    shards_.push_back(std::make_unique<Shard>());
}

DpCache::Shard& DpCache::shard_of(const std::string& key) {
  return *shards_[std::hash<std::string>{}(key) % shards_.size()];
}

std::size_t DpCache::entry_bytes(const std::string& key,
                                 const TreeCover& cover) {
  // One allocator header per heap block of an entry: the list node, the
  // index node, the key buffer, the control block make_shared puts the
  // cover in, and the cover's two arrays.
  constexpr std::size_t kHeapBlocks = 6;
  constexpr std::size_t kAllocatorHeader = 16;
  constexpr std::size_t kOverhead =
      sizeof(Entry) + 2 * sizeof(void*) +  // list node: entry + links
      sizeof(std::string_view) + sizeof(std::list<Entry>::iterator) +
      sizeof(void*) + sizeof(std::size_t) +  // index node: + link, hash
      sizeof(void*) +                        // its bucket slot
      2 * sizeof(void*) +  // control block: vtable, use and weak counts
      kHeapBlocks * kAllocatorHeader;
  // Keys outgrow the small-string buffer, so the entry's copy of the
  // key has a heap buffer of size + 1 bytes.
  return kOverhead + key.size() + 1 + cover.memory_bytes();
}

std::shared_ptr<const TreeCover> DpCache::find(const std::string& key) {
  Shard& shard = shard_of(key);
  const std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    ++shard.misses;
    OBS_COUNT("chortle.dp_cache.misses", 1);
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  ++shard.hits;
  OBS_COUNT("chortle.dp_cache.hits", 1);
  return it->second->cover;
}

std::shared_ptr<const TreeCover> DpCache::insert(
    const std::string& key, std::shared_ptr<const TreeCover> cover) {
  CHORTLE_CHECK(cover != nullptr);
  Shard& shard = shard_of(key);
  std::uint64_t evicted = 0;
  std::shared_ptr<const TreeCover> resident;
  {
    const std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      // Lost a race: another request solved the same tree first. The
      // resident entry is interchangeable with ours; keep it (it may
      // already be shared) and drop the newcomer.
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return it->second->cover;
    }
    shard.lru.push_front(Entry{key, std::move(cover), 0});
    Entry& entry = shard.lru.front();
    entry.bytes = entry_bytes(entry.key, *entry.cover);
    shard.index.emplace(entry.key, shard.lru.begin());
    shard.bytes += entry.bytes;
    ++shard.insertions;
    resident = entry.cover;
    // Evict from the cold end, but never the entry just inserted.
    while (shard.bytes > max_bytes_per_shard_ && shard.lru.size() > 1) {
      const Entry& victim = shard.lru.back();
      shard.bytes -= victim.bytes;
      shard.index.erase(victim.key);
      shard.lru.pop_back();
      ++shard.evictions;
      ++evicted;
    }
  }
  OBS_COUNT("chortle.dp_cache.insertions", 1);
  if (evicted > 0) OBS_COUNT("chortle.dp_cache.evictions", evicted);
  return resident;
}

std::shared_ptr<const TreeCover> DpCache::find_or_solve(
    const std::string& key,
    const std::function<std::shared_ptr<const TreeCover>()>& solve,
    const base::CancelToken* cancel, Outcome* outcome) {
  Shard& shard = shard_of(key);
  while (true) {
    std::shared_ptr<InFlight> flight;
    bool leader = false;
    {
      const std::lock_guard<std::mutex> lock(shard.mu);
      const auto it = shard.index.find(key);
      if (it != shard.index.end()) {
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        ++shard.hits;
        OBS_COUNT("chortle.dp_cache.hits", 1);
        if (outcome != nullptr) *outcome = Outcome::kHit;
        return it->second->cover;
      }
      const auto in_flight = shard.in_flight.find(key);
      if (in_flight == shard.in_flight.end()) {
        flight = std::make_shared<InFlight>();
        shard.in_flight.emplace(key, flight);
        leader = true;
        ++shard.misses;
        OBS_COUNT("chortle.dp_cache.misses", 1);
      } else {
        flight = in_flight->second;
        ++shard.coalesced;
        OBS_COUNT("chortle.dp_cache.coalesced", 1);
      }
    }
    if (leader) {
      std::shared_ptr<const TreeCover> resident;
      try {
        resident = insert(key, solve());
      } catch (...) {
        // Unregister first, then wake the waiters: each retries the
        // whole lookup and the first one through becomes the new
        // leader (a deadline that cancelled THIS solve must not
        // propagate to requests with healthier budgets).
        {
          const std::lock_guard<std::mutex> lock(shard.mu);
          shard.in_flight.erase(key);
        }
        {
          const std::lock_guard<std::mutex> lock(flight->mu);
          flight->done = true;
          flight->failed = true;
        }
        flight->cv.notify_all();
        throw;
      }
      {
        const std::lock_guard<std::mutex> lock(shard.mu);
        shard.in_flight.erase(key);
      }
      {
        const std::lock_guard<std::mutex> lock(flight->mu);
        flight->done = true;
        flight->result = resident;
      }
      flight->cv.notify_all();
      if (outcome != nullptr) *outcome = Outcome::kSolved;
      return resident;
    }
    // Follower: wait out the in-flight solve, polling our own token so
    // a waiter's deadline still fires promptly mid-wait.
    {
      std::unique_lock<std::mutex> lock(flight->mu);
      while (!flight->done) {
        if (cancel != nullptr && cancel->expired()) {
          lock.unlock();
          cancel->check("dp_cache.find_or_solve");  // throws Cancelled
        }
        flight->cv.wait_for(lock, std::chrono::milliseconds(2));
      }
      if (!flight->failed) {
        if (outcome != nullptr) *outcome = Outcome::kCoalesced;
        return flight->result;
      }
    }
    // Leader failed; retry from scratch (and possibly lead this time).
  }
}

DpCache::Stats DpCache::stats() const {
  Stats total;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mu);
    total.hits += shard->hits;
    total.misses += shard->misses;
    total.insertions += shard->insertions;
    total.evictions += shard->evictions;
    total.coalesced += shard->coalesced;
    total.entries += shard->lru.size();
    total.bytes += shard->bytes;
  }
  return total;
}

void DpCache::clear() {
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mu);
    shard->index.clear();  // before the entries its keys view
    shard->lru.clear();
    shard->bytes = 0;
  }
}

}  // namespace chortle::core
