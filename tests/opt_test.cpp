#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <string>
#include <vector>

#include "base/cancel.hpp"
#include "blif/blif.hpp"
#include "helpers.hpp"
#include "mcnc/generators.hpp"
#include "mcnc/random_logic.hpp"
#include "opt/decompose.hpp"
#include "opt/extract.hpp"
#include "opt/script.hpp"
#include "opt/simplify.hpp"
#include "opt/sweep.hpp"
#include "sim/simulate.hpp"
#include "sop/kernels.hpp"

namespace chortle::opt {
namespace {

sop::SopNetwork from_blif(const std::string& text) {
  return blif::read_blif_string(text).network;
}

TEST(Sweep, PropagatesConstantsThroughTheNetwork) {
  // t = a & !a = 0; y = t | b  ->  y = b (wire), t dead.
  sop::SopNetwork net = from_blif(
      ".model m\n.inputs a b\n.outputs y\n"
      ".names a t\n# t = const 0 via empty cover\n"
      ".names t b y\n1- 1\n-1 1\n.end\n");
  const SweepStats stats = sweep(net);
  EXPECT_GE(stats.constants_propagated, 1);
  EXPECT_EQ(net.find("t"), sop::SopNetwork::kInvalidNode);  // pruned
  // y reduced to the single literal b.
  const auto& y = net.node(net.find("y")).cover;
  EXPECT_EQ(y.num_cubes(), 1);
  EXPECT_EQ(y.cube(0).size(), 1);
}

TEST(Sweep, CollapsesWireChains) {
  // w1 = a; w2 = !w1; y = w2 & b  ->  y = !a & b.
  sop::SopNetwork net = from_blif(
      ".model m\n.inputs a b\n.outputs y\n"
      ".names a w1\n1 1\n.names w1 w2\n0 1\n"
      ".names w2 b y\n11 1\n.end\n");
  const sop::SopNetwork original = net;
  const SweepStats stats = sweep(net);
  EXPECT_GE(stats.wires_collapsed, 2);
  EXPECT_EQ(stats.nodes_pruned, 2);
  const auto y = net.find("y");
  EXPECT_EQ(net.fanins(y), (std::vector<sop::SopNetwork::NodeId>{
                               net.find("a"), net.find("b")}));
  EXPECT_TRUE(sim::equivalent(sim::design_of(original),
                              sim::design_of(net)));
}

TEST(Sweep, KeepsOutputWires) {
  // An inverter that drives a primary output must survive.
  sop::SopNetwork net = from_blif(
      ".model m\n.inputs a\n.outputs y\n.names a y\n0 1\n.end\n");
  sweep(net);
  ASSERT_NE(net.find("y"), sop::SopNetwork::kInvalidNode);
  EXPECT_TRUE(sim::equivalent(
      sim::design_of(from_blif(
          ".model m\n.inputs a\n.outputs y\n.names a y\n0 1\n.end\n")),
      sim::design_of(net)));
}

TEST(Sweep, PreservesFunctionOnRandomNetworks) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    mcnc::RandomLogicParams params;
    params.num_inputs = 10;
    params.num_outputs = 6;
    params.num_gates = 60;
    params.seed = seed;
    sop::SopNetwork net = mcnc::random_logic(params);
    const sop::SopNetwork original = net;
    const SweepStats stats = sweep(net);
    EXPECT_LE(stats.literals_after, stats.literals_before);
    EXPECT_TRUE(sim::equivalent(sim::design_of(original),
                                sim::design_of(net)))
        << "seed " << seed;
  }
}

TEST(Extract, TextbookDivisor) {
  // f = ab + ac, g = db + dc share divisor (b + c).
  sop::SopNetwork net = from_blif(
      ".model m\n.inputs a b c d\n.outputs f g\n"
      ".names a b c f\n11- 1\n1-1 1\n"
      ".names d b c g\n11- 1\n1-1 1\n.end\n");
  const sop::SopNetwork original = net;
  const int before = net.total_literals();
  const ExtractStats stats = extract_divisors(net);
  EXPECT_GE(stats.divisors_extracted, 1);
  EXPECT_LT(net.total_literals(), before);
  EXPECT_TRUE(sim::equivalent(sim::design_of(original),
                              sim::design_of(net)));
  // f and g now reference the shared divisor node.
  EXPECT_NE(net.find("ext0"), sop::SopNetwork::kInvalidNode);
}

TEST(Extract, StopsWhenNothingSaves) {
  sop::SopNetwork net = from_blif(
      ".model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n");
  const ExtractStats stats = extract_divisors(net);
  EXPECT_EQ(stats.divisors_extracted, 0);
  EXPECT_EQ(stats.literals_before, stats.literals_after);
}

TEST(Extract, PreservesFunctionOnRandomNetworks) {
  for (std::uint64_t seed = 21; seed <= 25; ++seed) {
    mcnc::RandomLogicParams params;
    params.num_inputs = 10;
    params.num_outputs = 5;
    params.num_gates = 40;
    params.seed = seed;
    sop::SopNetwork net = mcnc::random_logic(params);
    sweep(net);
    const sop::SopNetwork swept = net;
    extract_divisors(net);
    EXPECT_TRUE(sim::equivalent(sim::design_of(swept), sim::design_of(net)))
        << "seed " << seed;
  }
}

// ---------------------------------------------------------------------
// The extraction loop as it was before it kept state across rounds:
// every round regenerates every node's kernels and common cubes, values
// every candidate by trial division, and extracts the single best one.
// It is the reference the incremental extractor must match choice for
// choice. `chosen` receives each round's divisor.

namespace oracle {

using sop::Cover;
using sop::Cube;
using sop::SopNetwork;

int cost_after_division(const Cover& cover, const Cover& divisor) {
  auto [quotient, remainder] = cover.divide(divisor);
  if (quotient.is_zero()) return cover.literal_count();
  return remainder.literal_count() + quotient.literal_count() +
         quotient.num_cubes();
}

std::vector<std::vector<SopNetwork::NodeId>> build_users_index(
    const SopNetwork& network) {
  std::vector<std::vector<SopNetwork::NodeId>> users(
      static_cast<std::size_t>(network.num_nodes()));
  for (SopNetwork::NodeId id = 0; id < network.num_nodes(); ++id) {
    if (network.is_input(id)) continue;
    for (int var : network.node(id).cover.support())
      users[static_cast<std::size_t>(var)].push_back(id);
  }
  return users;
}

int divisor_value(const SopNetwork& network,
                  const std::vector<std::vector<SopNetwork::NodeId>>& users,
                  const Cover& divisor) {
  const std::vector<int> divisor_support = divisor.support();
  const std::vector<SopNetwork::NodeId>* shortest = nullptr;
  for (int var : divisor_support) {
    const auto& list = users[static_cast<std::size_t>(var)];
    if (shortest == nullptr || list.size() < shortest->size())
      shortest = &list;
  }
  int saving = -divisor.literal_count();
  for (SopNetwork::NodeId id : *shortest) {
    const Cover& cover = network.node(id).cover;
    const std::vector<int> support = cover.support();
    if (!std::includes(support.begin(), support.end(),
                       divisor_support.begin(), divisor_support.end()))
      continue;
    saving += cover.literal_count() - cost_after_division(cover, divisor);
  }
  return saving;
}

std::vector<Cube> key_of(const Cover& divisor) {
  return divisor.scc_minimized().cubes();
}

void extract_divisors(SopNetwork& network, const ExtractOptions& options,
                      std::vector<Cover>& chosen) {
  int next_name = 0;
  for (int round = 0; round < options.max_rounds; ++round) {
    std::set<std::vector<Cube>> seen;
    std::vector<Cover> candidates;
    for (SopNetwork::NodeId id = 0; id < network.num_nodes(); ++id) {
      if (network.is_input(id)) continue;
      const Cover& cover = network.node(id).cover;
      if (cover.num_cubes() >= 2) {
        for (const sop::KernelEntry& entry : sop::find_kernels(cover)) {
          if (entry.kernel.num_cubes() > options.max_kernel_cubes) continue;
          if (seen.insert(key_of(entry.kernel)).second)
            candidates.push_back(entry.kernel);
        }
        const auto& cubes = cover.cubes();
        for (std::size_t i = 0; i < cubes.size(); ++i)
          for (std::size_t j = i + 1; j < cubes.size(); ++j) {
            const Cube common = cubes[i].common_with(cubes[j]);
            if (common.size() < 2) continue;
            const Cover single{std::vector<Cube>{common}};
            if (seen.insert(key_of(single)).second)
              candidates.push_back(single);
          }
      }
      if (static_cast<int>(candidates.size()) >= options.max_candidates)
        break;
    }

    const auto users = build_users_index(network);
    int best_value = options.min_saving - 1;
    const Cover* best = nullptr;
    for (const Cover& candidate : candidates) {
      const int value = divisor_value(network, users, candidate);
      if (value > best_value) {
        best_value = value;
        best = &candidate;
      }
    }
    if (best == nullptr) break;
    chosen.push_back(*best);

    const std::vector<int> best_support = best->support();
    const SopNetwork::NodeId divisor_node =
        network.add_node("ext" + std::to_string(next_name++), *best);
    for (SopNetwork::NodeId id = 0; id < network.num_nodes(); ++id) {
      if (network.is_input(id) || id == divisor_node) continue;
      const Cover& cover = network.node(id).cover;
      const std::vector<int> support = cover.support();
      if (!std::includes(support.begin(), support.end(), best_support.begin(),
                         best_support.end()))
        continue;
      const Cover rewritten =
          cover.with_divisor_replaced(*best, divisor_node).scc_minimized();
      if (rewritten != cover) network.set_cover(id, rewritten);
    }
  }
}

}  // namespace oracle

/// The network as optimize() hands it to extraction.
sop::SopNetwork prepared(sop::SopNetwork net) {
  sweep(net);
  simplify_covers(net);
  return net;
}

/// Runs the oracle and the extractor on copies of `net` and requires the
/// same divisor in every round and the same final network, node by node
/// and cube by cube. With `every_round`, round r's choice is read back
/// as ext<r> from a run cut at max_rounds = r + 1. Returns the number of
/// divisors extracted.
int expect_same_extraction(const sop::SopNetwork& net,
                           const ExtractOptions& options,
                           const std::string& label, bool every_round) {
  sop::SopNetwork expected = net;
  std::vector<sop::Cover> chosen;
  oracle::extract_divisors(expected, options, chosen);

  sop::SopNetwork actual = net;
  const ExtractStats stats = extract_divisors(actual, options);
  EXPECT_EQ(stats.divisors_extracted, static_cast<int>(chosen.size()))
      << label;
  EXPECT_EQ(stats.literals_after, expected.total_literals()) << label;
  EXPECT_EQ(actual.num_nodes(), expected.num_nodes()) << label;
  const int nodes = std::min(actual.num_nodes(), expected.num_nodes());
  for (sop::SopNetwork::NodeId id = 0; id < nodes; ++id) {
    EXPECT_EQ(actual.node(id).name, expected.node(id).name) << label;
    EXPECT_TRUE(actual.node(id).cover == expected.node(id).cover)
        << label << " node " << expected.node(id).name;
  }
  for (std::size_t r = 0; every_round && r < chosen.size(); ++r) {
    sop::SopNetwork cut = net;
    ExtractOptions cut_options = options;
    cut_options.max_rounds = static_cast<int>(r) + 1;
    extract_divisors(cut, cut_options);
    const auto ext = cut.find("ext" + std::to_string(r));
    EXPECT_TRUE(ext != sop::SopNetwork::kInvalidNode &&
                cut.node(ext).cover == chosen[r])
        << label << " round " << r;
  }
  return stats.divisors_extracted;
}

TEST(ExtractEquivalence, MatchesOracleOnSeededPlas) {
  // 8..16 inputs and outputs; every fourth PLA is also checked round by
  // round.
  for (int i = 0; i < 40; ++i) {
    const int io = 8 + i % 9;
    const sop::SopNetwork net =
        prepared(mcnc::make_k2(io, io, 2 * io, 0x5EED00 + i));
    expect_same_extraction(net, {}, "pla " + std::to_string(i),
                           /*every_round=*/i % 4 == 0);
  }
}

TEST(ExtractEquivalence, MatchesOracleOnTable2Circuits) {
  for (const char* name : {"9symml", "alu2"})
    expect_same_extraction(prepared(mcnc::generate(name)), {}, name,
                           /*every_round=*/true);
  // kpla0 of the repository benchmark: a 20-in/out, 40-cube PLA.
  expect_same_extraction(prepared(mcnc::make_k2(20, 20, 40, 0xC20)), {},
                         "kpla0", /*every_round=*/false);
}

TEST(ExtractEquivalence, MatchesOracleWhenTheScanIsTruncated) {
  // 20 candidates are reached within the first node or two, so every
  // round's scan stops early, after the node that crosses the bound.
  ExtractOptions options;
  options.max_candidates = 20;
  expect_same_extraction(prepared(mcnc::generate("alu2")), options,
                         "alu2 max_candidates=20", /*every_round=*/true);
  expect_same_extraction(prepared(mcnc::make_k2(16, 16, 32, 0xC21)), options,
                         "pla max_candidates=20", /*every_round=*/true);
}

TEST(ExtractEquivalence, MatchesOracleUnderOtherBounds) {
  ExtractOptions options;
  options.max_kernel_cubes = 3;
  options.min_saving = 3;
  expect_same_extraction(prepared(mcnc::generate("alu2")), options,
                         "alu2 kernels<=3 saving>=3", /*every_round=*/false);
  // Duplicate cubes and a non-canonical cube order reach the extractor
  // unless simplify removed them; division must count them as before.
  const sop::SopNetwork raw = from_blif(
      ".model m\n.inputs a b c d e\n.outputs f g h\n"
      ".names a b c d f\n11-- 1\n1-1- 1\n11-- 1\n-11- 1\n1--1 1\n"
      ".names d b c e g\n11-- 1\n1-1- 1\n-1-1 1\n1-1- 1\n"
      ".names a b c e h\n1-1- 1\n11-- 1\n--11 1\n.end\n");
  ASSERT_EQ(raw.node(raw.find("f")).cover.num_cubes(), 5);  // ab twice
  EXPECT_GE(expect_same_extraction(raw, {}, "duplicate cubes",
                                   /*every_round=*/true),
            1);
}

TEST(Extract, DeadlineStopsExtractionBetweenRounds) {
  // alu4 extracts 87 divisors. The token is read once when made and
  // once per round, so a 4 ms budget lets rounds 0-2 run and fires at
  // the start of round 3.
  const sop::SopNetwork net = prepared(mcnc::generate("alu4"));
  const testing::TickingClock clock;
  const base::CancelToken token =
      base::CancelToken::after(std::chrono::milliseconds(4), &clock);
  ExtractOptions options;
  options.cancel = &token;
  sop::SopNetwork cut = net;
  try {
    extract_divisors(cut, options);
    FAIL() << "extraction outran its deadline";
  } catch (const base::Cancelled& error) {
    EXPECT_NE(std::string(error.what()).find("opt.extract"),
              std::string::npos);
  }
  EXPECT_NE(cut.find("ext2"), sop::SopNetwork::kInvalidNode);
  EXPECT_EQ(cut.find("ext3"), sop::SopNetwork::kInvalidNode);
}

TEST(Decompose, BuildsAndOrGatesWithPolarities) {
  // y = a!b + c  ->  OR(AND(a, !b), c).
  const sop::SopNetwork net = from_blif(
      ".model m\n.inputs a b c\n.outputs y\n"
      ".names a b c y\n10- 1\n--1 1\n.end\n");
  const net::Network out = decompose_to_and_or(net);
  EXPECT_EQ(out.num_gates(), 2);
  EXPECT_TRUE(sim::equivalent(sim::design_of(net), sim::design_of(out)));
}

TEST(Decompose, HandlesWiresConstantsAndNegatedOutputs) {
  // y = !a (wire), z = a + !a (const 1), w = a & !a (const 0).
  sop::SopNetwork net = from_blif(
      ".model m\n.inputs a b\n.outputs y z w\n"
      ".names a y\n0 1\n"
      ".names a z\n0 1\n1 1\n"
      ".names a aw\n1 1\n.names aw w0\n0 1\n.names a w0 w\n11 1\n.end\n");
  const net::Network out = decompose_to_and_or(net);
  EXPECT_TRUE(sim::equivalent(sim::design_of(net), sim::design_of(out)));
  // y is a negated PI reference: no gate needed.
  bool found_y = false;
  for (const net::Output& o : out.outputs()) {
    if (o.name == "y") {
      found_y = true;
      EXPECT_FALSE(o.is_const);
      EXPECT_TRUE(o.negated);
    }
    if (o.name == "z") EXPECT_TRUE(o.is_const && o.const_value);
    if (o.name == "w") EXPECT_TRUE(o.is_const && !o.const_value);
  }
  EXPECT_TRUE(found_y);
}

TEST(Decompose, SharesStructurallyIdenticalGates) {
  // Two nodes with the same cube over the same fanins share one AND.
  const sop::SopNetwork net = from_blif(
      ".model m\n.inputs a b c\n.outputs y z\n"
      ".names a b c y\n11- 1\n--1 1\n"
      ".names a b c z\n11- 1\n--0 1\n.end\n");
  const net::Network out = decompose_to_and_or(net);
  // AND(a,b) appears once, plus two OR roots.
  EXPECT_EQ(out.num_gates(), 3);
}

TEST(Script, OptimizesBenchmarksAndPreservesFunction) {
  for (const char* name : {"count", "alu2", "frg1"}) {
    const sop::SopNetwork source = mcnc::generate(name);
    const OptimizedDesign design = optimize(source);
    EXPECT_TRUE(sim::equivalent(sim::design_of(source),
                                sim::design_of(design.sop)))
        << name;
    EXPECT_TRUE(sim::equivalent(sim::design_of(source),
                                sim::design_of(design.network)))
        << name;
    EXPECT_LE(design.stats.literals, source.total_literals()) << name;
    EXPECT_GE(design.network.num_gates(), 1) << name;
  }
}

}  // namespace
}  // namespace chortle::opt
