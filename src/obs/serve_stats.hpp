// Schema of the live service introspection snapshot
// ("chortle-serve-stats/1"): what a STATS frame returns, what
// chortle_client --stats prints and what chortle_serve --stats-log-s
// summarizes. The validator lives next to the other
// observability-artifact checks so tools/obs_check and the adversarial
// test suite share one implementation with the producers.
//
// Document shape (all latencies in seconds):
//
//   {
//     "schema": "chortle-serve-stats/1",
//     "uptime_seconds": 12.3,
//     "in_flight": 2, "open_connections": 37,
//     "queue_depth": 0, "queue_high_water": 3,
//     "config": {"workers":4,"queue_capacity":16,"max_connections":1024,
//                "idle_timeout_ms":60000,"map_jobs":1,
//                "cache_bytes":268435456},
//     "requests": {"accepted":N,"served":N,"ok":N,"rejected_busy":N,
//                  "deadline_errors":N,"invalid_requests":N,
//                  "internal_errors":N,"stats_requests":N,
//                  "idle_closed":N},
//     "dp_cache": {"hits":N,"misses":N,"insertions":N,"evictions":N,
//                  "coalesced":N,"entries":N,"bytes":N,"hit_rate":0.93},
//     "stages": {"<stage>": {"count":N,"sum":s,"min":s,"max":s,
//                            "p50":s,"p90":s,"p99":s,"p999":s,
//                            "buckets":[{"lo":s,"count":N},...]}, ...}
//   }
//
// "in_flight" counts requests being mapped by workers;
// "open_connections" counts sockets owned by the event loop (idle
// keep-alive peers included) — under connection multiplexing the two
// are independent.
//
// Stage keys the server emits: queue_wait, parse, solve, emit, write,
// request, cache_hit, cache_miss, cache_coalesced (the last three are
// per-tree DP-cache lookup outcomes, not per-request stages).
#pragma once

#include <string>
#include <vector>

#include "obs/json.hpp"

namespace chortle::obs {

inline constexpr const char* kServeStatsSchema = "chortle-serve-stats/1";

/// Validates one parsed document. Returns every problem found (empty =
/// valid). Never throws on malformed structure — it reports instead —
/// so it can sit behind a fuzzer.
std::vector<std::string> validate_serve_stats(const Json& doc);

}  // namespace chortle::obs
