// Shared helpers for the test suite.
#pragma once

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "base/clock.hpp"
#include "base/rng.hpp"
#include "mcnc/random_logic.hpp"
#include "network/network.hpp"
#include "opt/decompose.hpp"
#include "sim/simulate.hpp"
#include "sop/sop_network.hpp"

namespace chortle::testing {

/// A clock that moves 1 ms forward every time it is read, so a token
/// with an N ms budget fires at the Nth poll after it is made, however
/// fast or slow the work between polls is.
class TickingClock final : public base::Clock {
 public:
  TimePoint now() const override {
    fake_.advance(std::chrono::milliseconds(1));
    return fake_.now();
  }
  void wait_until(std::condition_variable& cv,
                  std::unique_lock<std::mutex>& lock,
                  TimePoint deadline) const override {
    fake_.wait_until(cv, lock, deadline);
  }

 private:
  mutable base::FakeClock fake_;
};

/// A random fanout-free tree network: one output, every gate read once.
/// Gate fanins span [2, max_fanin]; leaves are drawn from the primary
/// inputs (a PI may appear as a leaf of several gates, as in real
/// trees, but only once per gate).
inline net::Network random_tree(int num_inputs, int num_gates, int max_fanin,
                                std::uint64_t seed) {
  Rng rng(seed);
  net::Network network;
  std::vector<net::NodeId> pis;
  for (int i = 0; i < num_inputs; ++i) pis.push_back(network.add_input(""));

  std::vector<net::NodeId> open;  // gates not yet consumed
  for (int g = 0; g < num_gates; ++g) {
    const int want = static_cast<int>(rng.next_in(2, max_fanin));
    std::vector<net::NodeId> picks;
    for (int i = 0; i < want; ++i) {
      const bool is_last_gate = g == num_gates - 1;
      if (!open.empty() && (is_last_gate || rng.next_bool(0.4))) {
        const std::size_t idx = rng.next_below(open.size());
        picks.push_back(open[idx]);
        open.erase(open.begin() + static_cast<long>(idx));
      } else {
        picks.push_back(pis[rng.next_below(pis.size())]);
      }
    }
    std::sort(picks.begin(), picks.end());
    picks.erase(std::unique(picks.begin(), picks.end()), picks.end());
    for (net::NodeId pi : pis) {
      if (picks.size() >= 2) break;
      if (std::find(picks.begin(), picks.end(), pi) == picks.end())
        picks.push_back(pi);
    }
    std::vector<net::Fanin> fanins;
    for (net::NodeId id : picks)
      fanins.push_back(net::Fanin{id, rng.next_bool(0.3)});
    const net::GateOp op =
        rng.next_bool() ? net::GateOp::kAnd : net::GateOp::kOr;
    open.push_back(network.add_gate(op, std::move(fanins)));
  }
  net::NodeId root;
  if (open.size() == 1) {
    root = open.front();
  } else {
    std::vector<net::Fanin> fanins;
    for (net::NodeId id : open) fanins.push_back(net::Fanin{id, false});
    root = network.add_gate(net::GateOp::kOr, std::move(fanins));
  }
  network.add_output("out", root, false);
  network.check();
  return network;
}

/// A random general (possibly reconvergent) AND/OR DAG.
inline net::Network random_dag(int num_inputs, int num_outputs,
                               int num_gates, std::uint64_t seed) {
  mcnc::RandomLogicParams params;
  params.num_inputs = num_inputs;
  params.num_outputs = num_outputs;
  params.num_gates = num_gates;
  params.seed = seed;
  return opt::decompose_to_and_or(mcnc::random_logic(params));
}

}  // namespace chortle::testing
