// The serve workloads: an in-process serve::Server (2 workers, one
// map job each) on an ephemeral localhost TCP port, driven by four
// client threads with one connection each.
//
//   serve_warm   closed loop over a fixed pool of designs: callers that
//                re-map the same netlists and wait for every reply
//   serve_fresh  open loop at frozen offered rates, every request a
//                never-seen design: independent users submitting work
#include <algorithm>
#include <cmath>
#include <iterator>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "base/fnv.hpp"
#include "base/rng.hpp"
#include "blif/blif.hpp"
#include "chortle/mapper.hpp"
#include "mcnc/generators.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "opt/decompose.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "sim/simulate.hpp"
#include "suite.hpp"

namespace chortle::suite {
namespace {

constexpr int kConnections = 4;

/// The server both serve workloads use: the default configuration
/// (256 MB DP cache, which holds serve_warm's whole pool and which
/// serve_fresh fills and then evicts from) with two workers.
serve::ServerConfig server_config() {
  serve::ServerConfig config;
  config.tcp_port = 0;  // ephemeral, 127.0.0.1
  config.workers = 2;
  config.map_jobs = 1;
  return config;
}

/// serve_fresh's open-loop steps, frozen after calibration (README.md):
/// offered requests/s and each step's share of the measured window. The
/// capacity measured on the calibration machine was ~450 responses/s,
/// so the steps sit at ~25%, ~40% (the reference step, which carries the
/// p50 and tail metrics), ~60% and ~135% (saturated: its completion rate
/// is the capacity).
struct Step {
  double rate;
  double share;
};
constexpr Step kFreshSteps[] = {
    {110.0, 0.1}, {180.0, 0.6}, {280.0, 0.1}, {600.0, 0.2}};
constexpr std::size_t kReferenceStep = 1;
constexpr std::size_t kReferenceSlices = 8;
constexpr std::size_t kCapacityStep = 3;
constexpr double kCapacitySliceS = 0.5;
/// A step counts toward serve.max_rate_rps when its p90 stays within
/// this and it completes at >= 95% of the offered rate.
constexpr double kTailLimitMs = 25.0;
constexpr int kFreshK = 4;

/// A design the program receives: BLIF text plus what checking needs.
struct Design {
  std::string name;
  std::string blif;
  bool table2 = false;  // fixed input: compared byte-for-byte offline
};

struct Job {
  std::size_t design = 0;
  int k = 4;
};

/// One request as the client saw it.
struct Sample {
  std::size_t job = 0;
  bool ok = false;
  std::string error;  // status or transport failure when !ok
  double latency_s = 0.0;  // from `issued` to `done`
  double late_s = 0.0;     // open loop: send time - scheduled time
  double server_s = 0.0;
  serve::StageSeconds stages;
  std::uint64_t hash = 0;
  int luts = 0;
  int depth = 0;
  std::size_t request_bytes = 0;
  std::size_t response_bytes = 0;
  Clock::time_point issued;  // scheduled (open loop) or actual send
  Clock::time_point done;
};

/// A client connection that reconnects after a transport error, so one
/// failure is counted once rather than poisoning the rest of the run.
class Connection {
 public:
  explicit Connection(int port) : port_(port) {}

  void connect() {
    if (!client_)
      client_.emplace(serve::Client::connect_tcp("127.0.0.1", port_));
  }

  serve::MapResponse map(const serve::MapRequest& request) {
    connect();
    try {
      return client_->map(request);
    } catch (...) {
      client_.reset();
      throw;
    }
  }

 private:
  int port_;
  std::optional<serve::Client> client_;
};

/// Sends one request. In an open loop it waits until `due` and is timed
/// from then, so a stall also counts against the requests queued behind
/// it; otherwise it is timed from the send. `payload`, when given,
/// receives the response BLIF.
Sample call(Connection& connection, const std::vector<Design>& designs,
            const std::vector<Job>& jobs, std::size_t job,
            std::optional<Clock::time_point> due, std::string* payload) {
  Sample sample;
  sample.job = job;
  serve::MapRequest request;
  request.k = jobs[job].k;
  request.blif = designs[jobs[job].design].blif;
  sample.request_bytes = request.blif.size();
  if (due) std::this_thread::sleep_until(*due);
  const Clock::time_point sent = Clock::now();
  sample.issued = due.value_or(sent);
  sample.late_s = std::max(0.0, seconds_between(sample.issued, sent));
  try {
    obs::TraceSpan span("suite.serve.request");
    const serve::MapResponse response = connection.map(request);
    sample.done = Clock::now();
    sample.ok = response.ok();
    sample.error = response.ok() ? "" : response.status + ": " + response.error;
    sample.server_s = response.seconds;
    sample.stages = response.stages;
    sample.hash = base::fnv1a64(response.blif);
    sample.luts = response.luts;
    sample.depth = response.depth;
    sample.response_bytes = response.blif.size();
    if (payload != nullptr) *payload = response.blif;
  } catch (const std::exception& error) {
    sample.done = Clock::now();
    sample.error = std::string("transport: ") + error.what();
  }
  sample.latency_s = seconds_between(sample.issued, sample.done);
  return sample;
}

/// The offline mapping of a fixed design, named the way the server names
/// its response model: what the served bytes must equal.
std::string offline_reference(const std::string& blif_text, int k) {
  const blif::BlifModel model = blif::read_blif_string(blif_text);
  core::Options options;
  options.k = k;
  options.jobs = 1;
  const core::MapResult mapped =
      core::map_network(opt::decompose_to_and_or(model.network), options);
  return blif::write_blif_string(mapped.circuit, model.name + "_luts");
}

/// Post-window checks: response BLIF parsed back and simulated against
/// the design it came from; fixed designs also compared byte-for-byte
/// with the offline mapping.
class Checker {
 public:
  explicit Checker(Outcome& out) : out_(out) {}

  void check(const Design& design, int k, const std::string& payload) {
    ++out_.attempted;
    const std::string label = design.name + " K=" + std::to_string(k);
    try {
      const blif::BlifModel source = blif::read_blif_string(design.blif);
      const blif::BlifModel mapped = blif::read_blif_string(payload);
      patterns_ += static_cast<double>(equivalence_patterns(
          static_cast<int>(source.network.inputs().size())));
      ++checks_;
      if (!sim::equivalent(sim::design_of(source.network),
                           sim::design_of(mapped.network))) {
        out_.fail(label + ": served mapping differs from its source");
        return;
      }
      if (design.table2 && payload != offline_reference(design.blif, k))
        out_.fail(label + ": served bytes differ from the offline mapping");
    } catch (const std::exception& error) {
      out_.fail(label + ": " + error.what());
    }
  }

  double patterns_per_check() const {
    return checks_ == 0 ? 0.0 : patterns_ / checks_;
  }

 private:
  Outcome& out_;
  double patterns_ = 0.0;
  double checks_ = 0.0;
};

std::vector<Design> table2_designs() {
  std::vector<Design> designs;
  for (const std::string& name : mcnc::benchmark_names())
    designs.push_back({name, table2_blif(name), true});
  return designs;
}

/// Where the requests' time went, as shares of the summed client
/// latency: the server's stages, its unstaged remainder, and the client
/// gap (latency - queue_wait - server seconds: framing, sockets, the
/// event loop and the write).
void report_stages(const std::vector<Sample>& samples, Outcome& out) {
  double latency = 0.0, queue = 0.0, parse = 0.0, solve = 0.0, emit = 0.0,
         server = 0.0;
  std::vector<double> gap_ms, parse_ms, solve_ms, emit_ms, queue_ms;
  for (const Sample& s : samples) {
    if (!s.ok) continue;
    latency += s.latency_s - s.late_s;
    queue += s.stages.queue_wait;
    parse += s.stages.parse;
    solve += s.stages.solve;
    emit += s.stages.emit;
    server += s.server_s;
    gap_ms.push_back(
        (s.latency_s - s.late_s - s.stages.queue_wait - s.server_s) * 1e3);
    parse_ms.push_back(s.stages.parse * 1e3);
    solve_ms.push_back(s.stages.solve * 1e3);
    emit_ms.push_back(s.stages.emit * 1e3);
    queue_ms.push_back(s.stages.queue_wait * 1e3);
  }
  if (latency <= 0.0) return;
  const auto share = [&](const char* name, double seconds) {
    set_metric(out.layers, name, 100.0 * seconds / latency, "%");
  };
  share("serve.queue_wait.share", queue);
  share("serve.parse.share", parse);
  share("serve.solve.share", solve);
  share("serve.emit.share", emit);
  share("serve.client_gap.share", latency - queue - server);
  share("unattributed.share", server - parse - solve - emit);
  const auto pcts = [&](const std::string& name, std::vector<double> ms) {
    set_metric(out.info, name + "_ms.p50", percentile(ms, 50.0), "ms");
    set_metric(out.info, name + "_ms.p99", percentile(ms, 99.0), "ms");
  };
  pcts("serve.queue_wait", queue_ms);
  pcts("serve.parse", parse_ms);
  pcts("serve.solve", solve_ms);
  pcts("serve.emit", emit_ms);
  pcts("serve.client_gap", gap_ms);
}

constexpr const char* kPerOpCounters[] = {
    "chortle.trees_mapped", "chortle.tree.dp_cells",
    "chortle.tree.decomp_candidates", "chortle.tree.decomp_memo_hits",
    "chortle.emit.kernel_ops"};

/// Per-layer counts over the measured window, per request.
void report_counts(const std::vector<Sample>& samples,
                   const obs::MetricsSnapshot& delta,
                   const serve::Server& server, const Checker& checker,
                   Outcome& out) {
  const double n =
      static_cast<double>(std::max<std::size_t>(samples.size(), 1));
  double read_bytes = 0.0, write_bytes = 0.0;
  for (const Sample& s : samples) {
    read_bytes += static_cast<double>(s.request_bytes);
    write_bytes += static_cast<double>(s.response_bytes);
  }
  set_metric(out.layers, "blif.read_bytes", read_bytes / n, "bytes/op");
  set_metric(out.layers, "blif.write_bytes", write_bytes / n, "bytes/op");
  for (const char* name : kPerOpCounters)
    set_metric(out.layers, name, static_cast<double>(delta.counter(name)) / n,
               "count/op");
  set_metric(out.layers, "sim.patterns", checker.patterns_per_check(),
             "count/check");
  const double hits =
      static_cast<double>(delta.counter("chortle.dp_cache.hits"));
  const double misses =
      static_cast<double>(delta.counter("chortle.dp_cache.misses"));
  set_metric(out.layers, "chortle.dp_cache.hit_ratio",
             hits + misses > 0.0 ? 100.0 * hits / (hits + misses) : 0.0, "%");
  for (const char* name :
       {"chortle.dp_cache.coalesced", "chortle.dp_cache.evictions"})
    set_metric(out.layers, name, static_cast<double>(delta.counter(name)) / n,
               "count/op");
  set_metric(out.layers, "chortle.dp_cache.bytes",
             static_cast<double>(server.cache_stats().bytes), "bytes");
  const obs::Json stats = server.stats_json();
  const obs::Json* high_water = stats.find("queue_high_water");
  set_metric(out.layers, "serve.queue_high_water",
             high_water != nullptr ? high_water->as_number() : 0.0, "count");
  set_metric(out.layers, "serve.rejected_busy",
             static_cast<double>(delta.counter("serve.rejected_busy")),
             "count");
  const auto write = delta.hdr.find("serve.stage.write");
  if (write != delta.hdr.end() && write->second.count > 0) {
    set_metric(out.info, "serve.write_ms.p50", write->second.p50() * 1e3, "ms");
    set_metric(out.info, "serve.write_ms.p99", write->second.p99() * 1e3, "ms");
  }
}

std::vector<double> ok_latencies_ms(const std::vector<Sample>& samples) {
  std::vector<double> ms;
  for (const Sample& s : samples)
    if (s.ok) ms.push_back(s.latency_s * 1e3);
  return ms;
}

/// Rate and latency over the faster half of equal time slices: latency
/// percentiles over the requests of the half of the slices with the
/// lowest median latency, and the completion rate over the half with
/// the highest rate. The serve workloads share the machine's cores with
/// their own clients, and the machine slows down in spells of a few
/// seconds; on the calibration machine the median over one-second
/// slices spread 16-21% across runs, the single best slice 5-11%, the
/// pooled faster half ~5%.
struct FastHalf {
  double rate = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
};

FastHalf fast_half(const std::vector<Sample>& samples,
                   Clock::time_point start, double slice_s,
                   std::size_t slices, bool by_issue) {
  struct Slice {
    std::vector<double> ms;
    std::vector<double> done;  // completion times, s since start
    double p50 = 0.0;
    double rate = 0.0;
  };
  std::vector<Slice> all(slices);
  for (const Sample& s : samples) {
    const double t = seconds_between(start, by_issue ? s.issued : s.done);
    if (!s.ok || t < 0.0) continue;
    const auto i = static_cast<std::size_t>(t / slice_s);
    if (i >= slices) continue;
    all[i].ms.push_back(s.latency_s * 1e3);
    all[i].done.push_back(seconds_between(start, s.done));
  }
  std::vector<Slice*> used;
  for (Slice& slice : all) {
    if (slice.done.size() < 2) continue;
    // Completions per second between the slice's first and last one, so
    // the rate is not quantized to 1/slice_s.
    const auto [first, last] =
        std::minmax_element(slice.done.begin(), slice.done.end());
    if (*last <= *first) continue;
    slice.rate = static_cast<double>(slice.done.size() - 1) / (*last - *first);
    slice.p50 = percentile(slice.ms, 50.0);
    used.push_back(&slice);
  }
  FastHalf out;
  if (used.empty()) return out;
  const std::size_t half = (used.size() + 1) / 2;
  std::sort(used.begin(), used.end(),
            [](const Slice* a, const Slice* b) { return a->p50 < b->p50; });
  std::vector<double> pooled;
  for (std::size_t i = 0; i < half; ++i)
    pooled.insert(pooled.end(), used[i]->ms.begin(), used[i]->ms.end());
  out.p50_ms = percentile(pooled, 50.0);
  out.p90_ms = percentile(pooled, 90.0);
  std::sort(used.begin(), used.end(),
            [](const Slice* a, const Slice* b) { return a->rate > b->rate; });
  double completions = 0.0, span = 0.0;
  for (std::size_t i = 0; i < half; ++i) {
    completions += static_cast<double>(used[i]->done.size() - 1);
    span += (used[i]->done.size() - 1) / used[i]->rate;
  }
  out.rate = completions / span;
  return out;
}

void count_failures(const std::vector<Sample>& samples,
                    const std::vector<Design>& designs,
                    const std::vector<Job>& jobs, Outcome& out) {
  for (const Sample& s : samples) {
    ++out.attempted;
    if (!s.ok)
      out.fail(designs[jobs[s.job].design].name + " K=" +
               std::to_string(jobs[s.job].k) + ": " + s.error);
  }
}

/// (job, response hash) -> the response: one entry per distinct answer.
using Distinct =
    std::map<std::pair<std::size_t, std::uint64_t>, std::string>;

/// Closed loop: `kConnections` callers each send their next request as
/// soon as the previous reply arrives, until `deadline`.
std::vector<Sample> closed_loop(int port, const std::vector<Design>& designs,
                                const std::vector<Job>& jobs,
                                Clock::time_point deadline,
                                Distinct& distinct) {
  std::vector<std::vector<Sample>> per_thread(kConnections);
  std::mutex distinct_mu;
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      Connection connection(port);
      std::size_t next =
          static_cast<std::size_t>(c) * jobs.size() / kConnections;
      std::string payload;
      while (Clock::now() < deadline) {
        const std::size_t job = next++ % jobs.size();
        Sample sample =
            call(connection, designs, jobs, job, std::nullopt, &payload);
        if (sample.ok) {
          const std::lock_guard<std::mutex> lock(distinct_mu);
          distinct.try_emplace({job, sample.hash}, payload);
        }
        per_thread[static_cast<std::size_t>(c)].push_back(std::move(sample));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::vector<Sample> samples;
  for (auto& part : per_thread)
    for (Sample& s : part) samples.push_back(std::move(s));
  return samples;
}

}  // namespace

Outcome run_serve_warm(const RunConfig& config) {
  Outcome out;
  const Clock::time_point gen_start = Clock::now();
  std::vector<Design> designs = table2_designs();
  for (int i = 0; i < 8; ++i) {
    const std::string name = "rand" + std::to_string(i);
    designs.push_back(
        {name,
         random_blif(150 + 60 * i, stream_seed(config.seed, 40 + i), name),
         false});
  }
  std::vector<Job> jobs;
  for (std::size_t d = 0; d < designs.size(); ++d)
    for (const int k : {4, 6}) jobs.push_back({d, k});
  set_metric(out.info, "gen_s", seconds_between(gen_start, Clock::now()), "s");

  serve::Server server(server_config());
  server.start();
  const int port = server.tcp_port();
  {
    // Unmeasured warm-up: every pool entry once, so cold DP solves land
    // here rather than in the window.
    const Clock::time_point warm_start = Clock::now();
    Connection connection(port);
    std::vector<Sample> warm;
    for (std::size_t j = 0; j < jobs.size(); ++j)
      warm.push_back(call(connection, designs, jobs, j, std::nullopt, nullptr));
    count_failures(warm, designs, jobs, out);
    set_metric(out.info, "serve.warmup_s",
               seconds_between(warm_start, Clock::now()), "s");
  }

  if (config.traced) obs::set_trace_enabled(true);
  const obs::MetricsSnapshot before = obs::Registry::global().snapshot();
  Distinct distinct;
  const Clock::time_point window_start = Clock::now();
  const std::vector<Sample> samples = closed_loop(
      port, designs, jobs,
      window_start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(config.seconds)),
      distinct);
  const obs::MetricsSnapshot delta =
      obs::Registry::global().snapshot().since(before);
  obs::set_trace_enabled(false);
  count_failures(samples, designs, jobs, out);

  // Every distinct response is checked; a pool entry answered with two
  // different netlists is itself a failure (the cache must not change
  // the bytes).
  Checker checker(out);
  std::map<std::size_t, int> variants;
  std::int64_t luts_total = 0, depth_total = 0;
  for (const auto& [key, payload] : distinct) {
    const Job& job = jobs[key.first];
    checker.check(designs[job.design], job.k, payload);
    if (++variants[key.first] == 2)
      out.fail(designs[job.design].name + " K=" + std::to_string(job.k) +
               ": different responses to the same request");
  }
  std::vector<bool> counted(jobs.size(), false);
  for (const Sample& s : samples) {
    if (!s.ok || counted[s.job] || !designs[jobs[s.job].design].table2)
      continue;
    counted[s.job] = true;
    luts_total += s.luts;
    depth_total += s.depth;
  }
  for (std::size_t j = 0; j < jobs.size(); ++j)
    if (designs[jobs[j].design].table2 && !counted[j])
      out.fail(designs[jobs[j].design].name + ": no ok response in the window");

  // One-second slices by completion time.
  const FastHalf fast = fast_half(
      samples, window_start, 1.0,
      std::max<std::size_t>(1, static_cast<std::size_t>(config.seconds)),
      /*by_issue=*/false);
  set_metric(out.metrics, "throughput_per_s", fast.rate, "1/s");
  set_metric(out.metrics, "p50_ms", fast.p50_ms, "ms");
  set_metric(out.metrics, "tail_ms", fast.p90_ms, "ms");
  set_metric(out.metrics, "luts_total", static_cast<double>(luts_total),
             "luts");
  set_metric(out.metrics, "depth_total", static_cast<double>(depth_total),
             "levels");
  set_metric(out.info, "requests", static_cast<double>(samples.size()),
             "count");
  set_metric(out.info, "window_p99_ms",
             percentile(ok_latencies_ms(samples), 99.0), "ms");
  if (config.traced) {
    report_stages(samples, out);
    report_counts(samples, delta, server, checker, out);
  }
  server.shutdown();
  return out;
}

Outcome run_serve_fresh(const RunConfig& config) {
  Outcome out;
  constexpr std::size_t kSteps = std::size(kFreshSteps);
  const Clock::time_point gen_start = Clock::now();
  std::vector<Design> designs = table2_designs();
  std::vector<Job> probe_jobs;
  for (std::size_t d = 0; d < designs.size(); ++d)
    probe_jobs.push_back({d, kFreshK});
  // Never-seen designs of 150..600 gates: warm-up, then each step's
  // batch, sized to rate x duration.
  Rng rng(stream_seed(config.seed, 60));
  const auto fresh = [&](std::size_t count) {
    std::vector<Job> batch;
    for (std::size_t i = 0; i < count; ++i) {
      const std::string name = "fresh" + std::to_string(designs.size());
      const int gates = 150 + static_cast<int>(rng.next_below(451));
      batch.push_back({designs.size(), kFreshK});
      designs.push_back(
          {name, random_blif(gates, rng.next_u64(), name), false});
    }
    return batch;
  };
  const std::vector<Job> warm_jobs = fresh(40);
  std::vector<std::vector<Job>> step_jobs;
  for (const Step& step : kFreshSteps)
    step_jobs.push_back(fresh(static_cast<std::size_t>(
        std::max(1.0, std::round(step.rate * step.share * config.seconds)))));
  // A seeded 5% of the window's responses is kept for checking.
  Rng sample_rng(stream_seed(config.seed, 61));
  std::vector<bool> keep(designs.size(), false);
  for (std::size_t d = 0; d < designs.size(); ++d)
    keep[d] = sample_rng.next_double() < 0.05;
  set_metric(out.info, "gen_s", seconds_between(gen_start, Clock::now()), "s");

  serve::Server server(server_config());
  server.start();
  const int port = server.tcp_port();
  {
    Connection connection(port);
    std::vector<Sample> warm;
    for (std::size_t j = 0; j < warm_jobs.size(); ++j)
      warm.push_back(
          call(connection, designs, warm_jobs, j, std::nullopt, nullptr));
    count_failures(warm, designs, warm_jobs, out);
  }

  if (config.traced) obs::set_trace_enabled(true);
  const obs::MetricsSnapshot before = obs::Registry::global().snapshot();
  std::vector<Connection> connections;
  for (int c = 0; c < kConnections; ++c) {
    connections.emplace_back(port);
    connections.back().connect();
  }
  std::vector<Sample> all;
  std::vector<std::pair<std::size_t, std::string>> kept;
  std::mutex kept_mu;
  double max_rate = 0.0;
  FastHalf reference;
  double capacity = 0.0;
  for (std::size_t s = 0; s < kSteps; ++s) {
    const Step& step = kFreshSteps[s];
    const double duration = step.share * config.seconds;
    const std::vector<Job>& jobs = step_jobs[s];
    // Open loop: request j is due at start + (j + 0.5) / rate whatever
    // happened before it; connection c sends every 4th, so each is
    // paced at rate/4 on an absolute schedule.
    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(20);
    std::vector<std::vector<Sample>> per_thread(kConnections);
    std::vector<std::thread> threads;
    for (int c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        std::string payload;
        for (std::size_t j = static_cast<std::size_t>(c); j < jobs.size();
             j += kConnections) {
          const Clock::time_point due =
              start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(
                              (static_cast<double>(j) + 0.5) / step.rate));
          const bool sampled = keep[jobs[j].design];
          Sample sample =
              call(connections[static_cast<std::size_t>(c)], designs, jobs, j,
                   due, sampled ? &payload : nullptr);
          if (sampled && sample.ok) {
            const std::lock_guard<std::mutex> lock(kept_mu);
            kept.emplace_back(jobs[j].design, payload);
          }
          per_thread[static_cast<std::size_t>(c)].push_back(std::move(sample));
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    std::vector<Sample> samples;
    Clock::time_point last_done = start;
    for (auto& part : per_thread)
      for (Sample& sample : part) {
        last_done = std::max(last_done, sample.done);
        samples.push_back(std::move(sample));
      }
    count_failures(samples, designs, jobs, out);
    const std::vector<double> ms = ok_latencies_ms(samples);
    std::vector<double> late_ms;
    for (const Sample& sample : samples) late_ms.push_back(sample.late_s * 1e3);
    const double achieved =
        static_cast<double>(ms.size()) / seconds_between(start, last_done);
    const double p90 = percentile(ms, 90.0);
    if (p90 <= kTailLimitMs && achieved >= 0.95 * step.rate)
      max_rate = std::max(max_rate, step.rate);
    if (s == kReferenceStep)
      reference = fast_half(samples, start, duration / kReferenceSlices,
                            kReferenceSlices, /*by_issue=*/true);
    if (s == kCapacityStep) {
      const auto slices = static_cast<std::size_t>(
          seconds_between(start, last_done) / kCapacitySliceS);
      capacity = fast_half(samples, start, kCapacitySliceS,
                           std::max<std::size_t>(slices, 1),
                           /*by_issue=*/false)
                     .rate;
    }
    const std::string prefix = "step" + std::to_string(s) + ".";
    set_metric(out.info, prefix + "offered_rps", step.rate, "1/s");
    set_metric(out.info, prefix + "achieved_rps", achieved, "1/s");
    set_metric(out.info, prefix + "requests",
               static_cast<double>(samples.size()), "count");
    set_metric(out.info, prefix + "p50_ms", percentile(ms, 50.0), "ms");
    set_metric(out.info, prefix + "p90_ms", p90, "ms");
    set_metric(out.info, prefix + "p99_ms", percentile(ms, 99.0), "ms");
    set_metric(out.info, prefix + "gen.late_ms.p99", percentile(late_ms, 99.0),
               "ms");
    for (Sample& sample : samples) all.push_back(std::move(sample));
  }
  const obs::MetricsSnapshot delta =
      obs::Registry::global().snapshot().since(before);
  obs::set_trace_enabled(false);
  connections.clear();

  // After the window: the fixed Table-2 designs through the same
  // (now insert-heavy) cache must still match the offline mapping.
  Checker checker(out);
  std::int64_t luts_total = 0, depth_total = 0;
  {
    Connection connection(port);
    std::string payload;
    for (std::size_t j = 0; j < probe_jobs.size(); ++j) {
      const Sample sample = call(connection, designs, probe_jobs, j,
                                 std::nullopt, &payload);
      ++out.attempted;
      if (!sample.ok) {
        out.fail(designs[j].name + ": " + sample.error);
        continue;
      }
      luts_total += sample.luts;
      depth_total += sample.depth;
      checker.check(designs[j], kFreshK, payload);
    }
  }
  for (const auto& [design, payload] : kept)
    checker.check(designs[design], kFreshK, payload);
  set_metric(out.info, "checked_sample", static_cast<double>(kept.size()),
             "count");

  set_metric(out.metrics, "throughput_per_s", capacity, "1/s");
  set_metric(out.metrics, "p50_ms", reference.p50_ms, "ms");
  set_metric(out.metrics, "tail_ms", reference.p90_ms, "ms");
  set_metric(out.metrics, "luts_total", static_cast<double>(luts_total),
             "luts");
  set_metric(out.metrics, "depth_total", static_cast<double>(depth_total),
             "levels");
  if (config.traced) {
    report_stages(all, out);
    report_counts(all, delta, server, checker, out);
    set_metric(out.layers, "serve.max_rate_rps", max_rate, "1/s");
  }
  server.shutdown();
  return out;
}

void setup_serve_once(const std::function<void()>& ready) {
  serve::Server server(server_config());
  server.start();
  const int port = server.tcp_port();
  serve::Client client = serve::Client::connect_tcp("127.0.0.1", port);
  serve::MapRequest request;
  request.k = 4;
  request.blif = table2_blif("count");
  const serve::MapResponse response = client.map(request);
  if (!response.ok())
    throw std::runtime_error("set-up request failed: " + response.error);
  ready();
  server.shutdown();
}

}  // namespace chortle::suite
