#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <functional>
#include <unordered_map>

#include "base/rng.hpp"
#include "blif/blif.hpp"
#include "chortle/mapper.hpp"
#include "mcnc/random_logic.hpp"
#include "opt/decompose.hpp"
#include "sim/simulate.hpp"
#include "verify/verify.hpp"

namespace chortle::sim {
namespace {

// The per-word evaluators and the equivalence loop that the compiled
// program replaced, kept as the oracle it must match word for word and
// witness for witness. Each design refers to its network, which must
// outlive it.
namespace oracle {

std::vector<Word> eval_sop(const sop::SopNetwork& network,
                           const std::vector<Word>& input_words) {
  CHORTLE_REQUIRE(input_words.size() == network.inputs().size(),
                  "input word count mismatch");
  std::vector<Word> value(static_cast<std::size_t>(network.num_nodes()), 0);
  for (std::size_t i = 0; i < network.inputs().size(); ++i)
    value[static_cast<std::size_t>(network.inputs()[i])] = input_words[i];
  for (sop::SopNetwork::NodeId id : network.topological_order()) {
    Word acc = 0;
    for (const sop::Cube& cube : network.node(id).cover.cubes()) {
      Word term = ~Word{0};
      for (sop::Literal lit : cube.literals()) {
        const Word v = value[static_cast<std::size_t>(sop::literal_var(lit))];
        term &= sop::literal_negated(lit) ? ~v : v;
      }
      acc |= term;
    }
    value[static_cast<std::size_t>(id)] = acc;
  }
  std::vector<Word> out;
  out.reserve(network.outputs().size());
  for (sop::SopNetwork::NodeId id : network.outputs())
    out.push_back(value[static_cast<std::size_t>(id)]);
  return out;
}

std::vector<Word> eval_network(const net::Network& network,
                               const std::vector<Word>& input_words) {
  CHORTLE_REQUIRE(static_cast<int>(input_words.size()) ==
                      network.num_inputs(),
                  "input word count mismatch");
  std::vector<Word> value(static_cast<std::size_t>(network.num_nodes()), 0);
  for (int i = 0; i < network.num_inputs(); ++i)
    value[static_cast<std::size_t>(network.inputs()[i])] =
        input_words[static_cast<std::size_t>(i)];
  for (net::NodeId id : network.gates_in_topo_order()) {
    const auto& node = network.node(id);
    const bool is_and = node.op == net::GateOp::kAnd;
    Word acc = is_and ? ~Word{0} : Word{0};
    for (const net::Fanin& f : node.fanins) {
      Word v = value[static_cast<std::size_t>(f.node)];
      if (f.negated) v = ~v;
      acc = is_and ? (acc & v) : (acc | v);
    }
    value[static_cast<std::size_t>(id)] = acc;
  }
  std::vector<Word> out;
  out.reserve(network.outputs().size());
  for (const net::Output& o : network.outputs()) {
    if (o.is_const) {
      out.push_back(o.const_value ? ~Word{0} : Word{0});
    } else {
      const Word v = value[static_cast<std::size_t>(o.node)];
      out.push_back(o.negated ? ~v : v);
    }
  }
  return out;
}

std::vector<Word> eval_luts(const net::LutCircuit& circuit,
                            const std::vector<Word>& input_words) {
  CHORTLE_REQUIRE(static_cast<int>(input_words.size()) ==
                      circuit.num_inputs(),
                  "input word count mismatch");
  std::vector<Word> value(static_cast<std::size_t>(circuit.num_signals()), 0);
  std::copy(input_words.begin(), input_words.end(), value.begin());
  for (int i = 0; i < circuit.num_luts(); ++i) {
    const net::Lut& lut = circuit.luts()[static_cast<std::size_t>(i)];
    Word acc = 0;
    const std::uint64_t minterms = lut.function.num_minterms();
    for (std::uint64_t m = 0; m < minterms; ++m) {
      if (!lut.function.bit(m)) continue;
      Word term = ~Word{0};
      for (std::size_t j = 0; j < lut.inputs.size(); ++j) {
        const Word v = value[static_cast<std::size_t>(lut.inputs[j])];
        term &= ((m >> j) & 1) ? v : ~v;
      }
      acc |= term;
    }
    value[static_cast<std::size_t>(circuit.num_inputs() + i)] = acc;
  }
  std::vector<Word> out;
  out.reserve(circuit.outputs().size());
  for (const net::LutOutput& o : circuit.outputs()) {
    if (o.is_const) {
      out.push_back(o.const_value ? ~Word{0} : Word{0});
    } else {
      const Word v = value[static_cast<std::size_t>(o.signal)];
      out.push_back(o.negated ? ~v : v);
    }
  }
  return out;
}

struct Design {
  std::vector<std::string> input_names;
  std::vector<std::string> output_names;
  std::function<std::vector<Word>(const std::vector<Word>&)> eval;
};

Design design_of(const sop::SopNetwork& network) {
  Design d;
  for (sop::SopNetwork::NodeId id : network.inputs())
    d.input_names.push_back(network.node(id).name);
  for (sop::SopNetwork::NodeId id : network.outputs())
    d.output_names.push_back(network.node(id).name);
  d.eval = [&network](const std::vector<Word>& in) {
    return eval_sop(network, in);
  };
  return d;
}

Design design_of(const net::LutCircuit& circuit) {
  Design d;
  d.input_names = circuit.input_names();
  for (const net::LutOutput& o : circuit.outputs())
    d.output_names.push_back(o.name);
  d.eval = [&circuit](const std::vector<Word>& in) {
    return eval_luts(circuit, in);
  };
  return d;
}

std::vector<std::size_t> align(const std::vector<std::string>& from,
                               const std::vector<std::string>& to) {
  std::unordered_map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < to.size(); ++i) index.emplace(to[i], i);
  std::vector<std::size_t> result(from.size());
  for (std::size_t i = 0; i < from.size(); ++i) result[i] = index.at(from[i]);
  return result;
}

std::optional<Mismatch> compare_words(const Design& a,
                                      const std::vector<Word>& inputs_a,
                                      const std::vector<Word>& out_a,
                                      const std::vector<Word>& out_b,
                                      const std::vector<std::size_t>& out_map,
                                      int valid_lanes) {
  const Word lane_mask = valid_lanes >= 64
                             ? ~Word{0}
                             : ((Word{1} << valid_lanes) - 1);
  for (std::size_t i = 0; i < out_a.size(); ++i) {
    const Word diff = (out_a[i] ^ out_b[out_map[i]]) & lane_mask;
    if (diff == 0) continue;
    const int lane = std::countr_zero(diff);
    Mismatch m;
    m.output_name = a.output_names[i];
    for (const Word w : inputs_a) m.input_values.push_back((w >> lane) & 1);
    return m;
  }
  return std::nullopt;
}

std::optional<Mismatch> find_mismatch(const Design& a, const Design& b,
                                      const EquivalenceOptions& options = {}) {
  const auto in_map = align(a.input_names, b.input_names);
  const auto out_map = align(a.output_names, b.output_names);
  const std::size_t num_in = a.input_names.size();

  const auto run = [&](const std::vector<Word>& in_a,
                       int valid_lanes) -> std::optional<Mismatch> {
    std::vector<Word> in_b(num_in);
    for (std::size_t i = 0; i < num_in; ++i) in_b[in_map[i]] = in_a[i];
    return compare_words(a, in_a, a.eval(in_a), b.eval(in_b), out_map,
                         valid_lanes);
  };

  if (static_cast<int>(num_in) <= options.exhaustive_limit) {
    const std::uint64_t total = std::uint64_t{1} << num_in;
    for (std::uint64_t base = 0; base < total; base += 64) {
      const int lanes = static_cast<int>(std::min<std::uint64_t>(64, total - base));
      std::vector<Word> in(num_in, 0);
      for (int lane = 0; lane < lanes; ++lane) {
        const std::uint64_t pattern = base + static_cast<std::uint64_t>(lane);
        for (std::size_t i = 0; i < num_in; ++i)
          if ((pattern >> i) & 1) in[i] |= Word{1} << lane;
      }
      if (auto m = run(in, lanes)) return m;
    }
    return std::nullopt;
  }

  Rng rng(options.seed);
  for (int round = 0; round < options.random_words; ++round) {
    std::vector<Word> in(num_in);
    for (auto& w : in) w = rng.next_u64();
    if (auto m = run(in, 64)) return m;
  }
  return std::nullopt;
}

}  // namespace oracle

sop::SopNetwork xor_network() {
  return blif::read_blif_string(
             ".model x\n.inputs a b\n.outputs y\n"
             ".names a b y\n10 1\n01 1\n.end\n")
      .network;
}

TEST(Simulate, SopDesignEvaluates) {
  const sop::SopNetwork net = xor_network();
  const Design d = design_of(net);
  EXPECT_EQ(d.input_names, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(d.output_names, (std::vector<std::string>{"y"}));
  const auto out = d.eval({0b1100, 0b1010});
  EXPECT_EQ(out[0] & 0xF, 0b0110u);
}

TEST(Simulate, NetworkDesignEvaluates) {
  net::Network n;
  const auto a = n.add_input("a");
  const auto b = n.add_input("b");
  const auto g = n.add_gate(net::GateOp::kAnd, {{a, false}, {b, true}});
  n.add_output("y", g, true);  // y = !(a & !b)
  const auto out = design_of(n).eval({0b1100, 0b1010});
  EXPECT_EQ(out[0] & 0xF, 0b1011u);
}

TEST(Simulate, LutDesignEvaluatesWithNegatedOutputs) {
  net::LutCircuit c(2);
  const auto a = c.add_input("a");
  const auto b = c.add_input("b");
  const auto s = c.add_lut(
      net::Lut{{a, b}, truth::TruthTable::from_binary("0110"), "x"});
  c.add_output("y", s);
  c.add_output("yn", s, true);
  c.add_const_output("one", true);
  const auto out = design_of(c).eval({0b1100, 0b1010});
  EXPECT_EQ(out[0] & 0xF, 0b0110u);
  EXPECT_EQ(out[1] & 0xF, 0b1001u);
  EXPECT_EQ(out[2], ~Word{0});
}

TEST(Equivalence, IdenticalNetworksMatch) {
  const sop::SopNetwork net = xor_network();
  EXPECT_TRUE(equivalent(design_of(net), design_of(net)));
}

TEST(Equivalence, DetectsMismatchExhaustively) {
  const sop::SopNetwork a = xor_network();
  const sop::SopNetwork b =
      blif::read_blif_string(".model x\n.inputs a b\n.outputs y\n"
                             ".names a b y\n10 1\n01 1\n11 1\n.end\n")
          .network;  // OR, not XOR
  const auto mismatch = find_mismatch(design_of(a), design_of(b));
  ASSERT_TRUE(mismatch.has_value());
  EXPECT_EQ(mismatch->output_name, "y");
  // The witness must actually distinguish the designs: a=b=1.
  EXPECT_EQ(mismatch->input_values, (std::vector<bool>{true, true}));
}

TEST(Equivalence, InputOrderIsAlignedByName) {
  const sop::SopNetwork a = xor_network();
  // Same function with inputs declared in the other order.
  const sop::SopNetwork b =
      blif::read_blif_string(".model x\n.inputs b a\n.outputs y\n"
                             ".names a b y\n10 1\n01 1\n.end\n")
          .network;
  EXPECT_TRUE(equivalent(design_of(a), design_of(b)));
}

TEST(Equivalence, InterfaceMismatchThrows) {
  const sop::SopNetwork a = xor_network();
  const sop::SopNetwork c =
      blif::read_blif_string(".model x\n.inputs a c\n.outputs y\n"
                             ".names a c y\n10 1\n01 1\n.end\n")
          .network;
  EXPECT_THROW(equivalent(design_of(a), design_of(c)), InvalidInput);
}

TEST(Equivalence, RandomPathCatchesSinglePatternDifference) {
  // 20 inputs forces the random path (exhaustive limit is 14); designs
  // differ on many patterns, so random vectors must find one.
  sop::SopNetwork a;
  std::vector<sop::SopNetwork::NodeId> pis;
  for (int i = 0; i < 20; ++i)
    pis.push_back(a.add_input("i" + std::to_string(i)));
  sop::Cover and_cover;
  {
    std::vector<sop::Literal> lits;
    for (auto id : pis) lits.push_back(sop::make_literal(id, false));
    and_cover.add_cube(sop::Cube(lits));
  }
  sop::SopNetwork b = a;
  a.mark_output(a.add_node("y", and_cover));
  // b: y = OR of all inputs.
  sop::Cover or_cover;
  for (auto id : pis)
    or_cover.add_cube(sop::Cube(std::vector<sop::Literal>{
        sop::make_literal(id, false)}));
  b.mark_output(b.add_node("y", or_cover));
  EXPECT_FALSE(equivalent(design_of(a), design_of(b)));
}

// --- The compiled program against the per-word oracle -----------------

mcnc::RandomLogicParams random_params(int num_inputs, int num_gates,
                                      std::uint64_t seed) {
  mcnc::RandomLogicParams params;
  params.num_inputs = num_inputs;
  params.num_outputs = std::max(1, std::min(6, num_gates / 4));
  params.num_gates = num_gates;
  params.seed = seed;
  // Every third circuit carries constant and buffer covers too.
  if (seed % 3 == 0) {
    params.constant_node_probability = 0.05;
    params.buffer_node_probability = 0.1;
  }
  return params;
}

std::vector<Word> random_words(std::size_t count, Rng& rng) {
  std::vector<Word> words(count);
  for (auto& w : words) w = rng.next_u64();
  return words;
}

core::MapResult map_at(const net::Network& network, int k) {
  core::Options options;
  options.k = k;
  options.jobs = 1;
  return core::map_network(network, options);
}

TEST(SimDifferential, SopAndGateNetworksMatchPerWordOracle) {
  Rng rng(11);
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const sop::SopNetwork source = mcnc::random_logic(
        random_params(3 + static_cast<int>(seed % 9) * 4,
                      10 + static_cast<int>(seed) * 7, seed));
    const net::Network gates = opt::decompose_to_and_or(source);
    const Design sop_design = design_of(source);
    const Design gate_design = design_of(gates);
    for (int round = 0; round < 6; ++round) {
      const auto in = random_words(source.inputs().size(), rng);
      EXPECT_EQ(sop_design.eval(in), oracle::eval_sop(source, in))
          << "seed " << seed;
      EXPECT_EQ(gate_design.eval(in), oracle::eval_network(gates, in))
          << "seed " << seed;
    }
  }
}

TEST(SimDifferential, ChortleMappingsMatchPerWordOracle) {
  Rng rng(12);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const net::Network gates = opt::decompose_to_and_or(mcnc::random_logic(
        random_params(6 + static_cast<int>(seed) * 3, 40, seed)));
    for (int k = 2; k <= 6; ++k) {
      const net::LutCircuit circuit = map_at(gates, k).circuit;
      const Design design = design_of(circuit);
      for (int round = 0; round < 4; ++round) {
        const auto in = random_words(gates.inputs().size(), rng);
        EXPECT_EQ(design.eval(in), oracle::eval_luts(circuit, in))
            << "seed " << seed << " K=" << k;
      }
    }
  }
}

truth::TruthTable random_table(int num_vars, Rng& rng) {
  std::vector<std::uint64_t> words(
      num_vars <= 6 ? 1 : std::size_t{1} << (num_vars - 6));
  for (auto& w : words) w = rng.next_u64();
  if (num_vars < 6) words[0] &= (std::uint64_t{1} << (1u << num_vars)) - 1;
  return truth::TruthTable::from_words(words.data(), words.size(), num_vars);
}

TEST(SimDifferential, LutsOfArityZeroOneSevenEightAndSixteenMatchOracle) {
  Rng rng(13);
  for (int trial = 0; trial < 8; ++trial) {
    net::LutCircuit c(16);
    std::vector<net::SignalId> in;
    for (int i = 0; i < 16; ++i) in.push_back(c.add_input(std::to_string(i)));
    const auto zero = c.add_lut(net::Lut{{}, truth::TruthTable(0), ""});
    const auto one = c.add_lut(net::Lut{{}, truth::TruthTable::ones(0), ""});
    const auto inv = c.add_lut(net::Lut{{in[3]}, random_table(1, rng), ""});
    const auto seven = c.add_lut(net::Lut{
        {in[0], inv, in[5], in[9], in[1], in[12], in[7]},
        random_table(7, rng), ""});
    const auto eight = c.add_lut(net::Lut{
        {seven, in[2], in[4], in[6], in[8], in[10], one, in[11]},
        random_table(8, rng), ""});
    std::vector<net::SignalId> wide(in.begin(), in.end());
    wide[2] = eight;
    wide[13] = zero;
    const auto sixteen = c.add_lut(net::Lut{wide, random_table(16, rng), ""});
    c.add_output("zero", zero);
    c.add_output("one", one, true);
    c.add_output("inv", inv);
    c.add_output("seven", seven, true);
    c.add_output("eight", eight);
    c.add_output("sixteen", sixteen);
    c.add_const_output("k1", true);
    const Design design = design_of(c);
    for (int round = 0; round < 4; ++round) {
      const auto words = random_words(16, rng);
      EXPECT_EQ(design.eval(words), oracle::eval_luts(c, words))
          << "trial " << trial;
    }
  }
}

net::LutCircuit with_bit_flipped(const net::LutCircuit& circuit, int lut,
                                 std::uint64_t minterm) {
  net::LutCircuit flipped(circuit.k());
  for (const std::string& name : circuit.input_names()) flipped.add_input(name);
  for (int i = 0; i < circuit.num_luts(); ++i) {
    net::Lut copy = circuit.luts()[static_cast<std::size_t>(i)];
    if (i == lut) copy.function.set_bit(minterm, !copy.function.bit(minterm));
    flipped.add_lut(std::move(copy));
  }
  for (const net::LutOutput& o : circuit.outputs()) {
    if (o.is_const)
      flipped.add_const_output(o.name, o.const_value);
    else
      flipped.add_output(o.name, o.signal, o.negated);
  }
  return flipped;
}

void expect_same_witness(const std::optional<Mismatch>& got,
                         const std::optional<Mismatch>& want,
                         const std::string& where) {
  ASSERT_EQ(got.has_value(), want.has_value()) << where;
  if (!got) return;
  EXPECT_EQ(got->output_name, want->output_name) << where;
  EXPECT_EQ(got->input_values, want->input_values) << where;
}

// Below 64 patterns (3), one exhaustive word (6), the exhaustive limit
// (14) and the random path (15, 40): every LUT bit flipped in turn must
// give the oracle's witness, in both comparison directions.
TEST(SimDifferential, FlippedLutBitsGiveTheOraclesWitness) {
  for (const int inputs : {3, 6, 14, 15, 40}) {
    const sop::SopNetwork source = mcnc::random_logic(
        random_params(inputs, std::max(8, inputs), 100 + inputs));
    const net::LutCircuit mapped =
        map_at(opt::decompose_to_and_or(source), 4).circuit;
    const Design source_design = design_of(source);
    const oracle::Design oracle_source = oracle::design_of(source);
    int caught = 0;
    for (int lut = 0; lut < mapped.num_luts(); ++lut) {
      const auto& function =
          mapped.luts()[static_cast<std::size_t>(lut)].function;
      for (std::uint64_t m = 0; m < function.num_minterms(); ++m) {
        const net::LutCircuit flipped = with_bit_flipped(mapped, lut, m);
        const Design design = design_of(flipped);
        const oracle::Design oracle_design = oracle::design_of(flipped);
        const std::string where = std::to_string(inputs) + " inputs, lut " +
                                  std::to_string(lut) + ", minterm " +
                                  std::to_string(m);
        const auto got = find_mismatch(source_design, design);
        expect_same_witness(
            got, oracle::find_mismatch(oracle_source, oracle_design), where);
        expect_same_witness(find_mismatch(design, source_design),
                            oracle::find_mismatch(oracle_design, oracle_source),
                            where + ", reversed");
        caught += got.has_value();
      }
    }
    EXPECT_GT(caught, 0) << inputs << " inputs";
  }
}

TEST(SimDifferential, WitnessFollowsOutputOrderThenLowestLane) {
  // b differs from a on both outputs within one word: q from pattern 2
  // (y=1) on, p only at pattern 3 (x=y=1). The witness takes a's first
  // differing output in that word, p, and then p's lowest pattern.
  const sop::SopNetwork a = blif::read_blif_string(
      ".model m\n.inputs x y z\n.outputs p q\n"
      ".names x y p\n11 1\n.names y z q\n11 1\n.end\n").network;
  const sop::SopNetwork b = blif::read_blif_string(
      ".model m\n.inputs z y x\n.outputs q p\n"
      ".names x y z p\n111 1\n.names y z q\n1- 1\n.end\n").network;
  const auto got = find_mismatch(design_of(a), design_of(b));
  expect_same_witness(got,
                      oracle::find_mismatch(oracle::design_of(a),
                                            oracle::design_of(b)),
                      "hand-built");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->output_name, "p");
  EXPECT_EQ(got->input_values, (std::vector<bool>{true, true, false}));
}

// --- Robustness --------------------------------------------------------

sop::SopNetwork cyclic_network() {
  sop::SopNetwork net;
  const auto a = net.add_input("a");
  const auto n1 = net.add_node(
      "n1", sop::Cover({sop::Cube({sop::make_literal(a, false)})}));
  const auto n2 = net.add_node(
      "n2", sop::Cover({sop::Cube({sop::make_literal(n1, true)})}));
  net.set_cover(n1, sop::Cover({sop::Cube({sop::make_literal(a, false),
                                           sop::make_literal(n2, false)})}));
  net.mark_output(n2);
  return net;
}

TEST(SimRobustness, CombinationalCycleThrowsAtCompileTime) {
  EXPECT_THROW(design_of(cyclic_network()), InvalidInput);
}

TEST(SimRobustness, VerifyReportsACyclicSourceAsStructure) {
  net::LutCircuit cover(2);
  const auto a = cover.add_input("a");
  cover.add_output("n2", a, true);
  const verify::Verdict verdict =
      verify::check(cyclic_network(), cover, verify::Level::kSimulate);
  EXPECT_EQ(verdict.kind, verify::Verdict::Kind::kStructure);
  EXPECT_NE(verdict.detail.find("cycle"), std::string::npos) << verdict.detail;
}

// The networks below are locals of the helpers: the designs must own
// everything they evaluate.
Design compiled_sop() { return design_of(xor_network()); }

Design compiled_gates() {
  net::Network n;
  const auto a = n.add_input("a");
  const auto b = n.add_input("b");
  n.add_output("y", n.add_gate(net::GateOp::kOr, {{a, true}, {b, false}}),
               false);
  return design_of(n);
}

Design compiled_luts() {
  net::LutCircuit c(2);
  const auto a = c.add_input("a");
  const auto b = c.add_input("b");
  c.add_output("y", c.add_lut(net::Lut{
                        {a, b}, truth::TruthTable::from_binary("1000"), ""}));
  return design_of(c);
}

TEST(SimRobustness, DesignOutlivesItsNetwork) {
  EXPECT_EQ(compiled_sop().eval({0b1100, 0b1010})[0] & 0xF, 0b0110u);
  EXPECT_EQ(compiled_gates().eval({0b1100, 0b1010})[0] & 0xF, 0b1011u);
  EXPECT_EQ(compiled_luts().eval({0b1100, 0b1010})[0] & 0xF, 0b1000u);
  EXPECT_TRUE(equivalent(compiled_sop(), compiled_sop()));
}

TEST(SimRobustness, DesignKeepsTheFunctionItWasCompiledFrom) {
  sop::SopNetwork net = xor_network();
  const Design before = design_of(net);
  net.set_cover(net.find("y"), sop::Cover());  // now constant 0
  EXPECT_EQ(before.eval({0b1100, 0b1010})[0] & 0xF, 0b0110u);
  EXPECT_EQ(design_of(net).eval({0b1100, 0b1010})[0], 0u);
}

TEST(SimRobustness, UncompiledDesignIsRejected) {
  const Design empty;
  EXPECT_THROW(empty.eval({}), InvalidInput);
  EXPECT_THROW(find_mismatch(empty, compiled_sop()), InvalidInput);
}

}  // namespace
}  // namespace chortle::sim
