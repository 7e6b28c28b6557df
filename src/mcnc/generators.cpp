#include <bit>
#include "mcnc/generators.hpp"

#include <algorithm>
#include <numeric>

#include "base/check.hpp"
#include "base/rng.hpp"
#include "mcnc/random_logic.hpp"
#include "sop/isop.hpp"

namespace chortle::mcnc {
namespace {

using sop::Cover;
using sop::Cube;
using sop::Literal;
using sop::SopNetwork;
using NodeId = SopNetwork::NodeId;

Literal pos(NodeId id) { return sop::make_literal(id, false); }
Literal neg(NodeId id) { return sop::make_literal(id, true); }

/// Single-cube node (AND of literals).
NodeId n_and(SopNetwork& net, const std::string& name,
             std::vector<Literal> literals) {
  Cover cover;
  cover.add_cube(Cube(std::move(literals)));
  return net.add_node(name, std::move(cover));
}

/// One-literal-per-cube node (OR of literals).
NodeId n_or(SopNetwork& net, const std::string& name,
            const std::vector<Literal>& literals) {
  Cover cover;
  for (Literal lit : literals)
    cover.add_cube(Cube(std::vector<Literal>{lit}));
  return net.add_node(name, std::move(cover));
}

/// Two-input XOR node: a b' + a' b.
NodeId n_xor(SopNetwork& net, const std::string& name, NodeId a, NodeId b) {
  Cover cover;
  cover.add_cube(Cube({pos(a), neg(b)}));
  cover.add_cube(Cube({neg(a), pos(b)}));
  return net.add_node(name, std::move(cover));
}

/// 2:1 mux: sel' a + sel b.
NodeId n_mux(SopNetwork& net, const std::string& name, NodeId sel, NodeId a,
             NodeId b) {
  Cover cover;
  cover.add_cube(Cube({neg(sel), pos(a)}));
  cover.add_cube(Cube({pos(sel), pos(b)}));
  return net.add_node(name, std::move(cover));
}

/// Majority (carry function): ab + ac + bc.
NodeId n_maj(SopNetwork& net, const std::string& name, NodeId a, NodeId b,
             NodeId c) {
  Cover cover;
  cover.add_cube(Cube({pos(a), pos(b)}));
  cover.add_cube(Cube({pos(a), pos(c)}));
  cover.add_cube(Cube({pos(b), pos(c)}));
  return net.add_node(name, std::move(cover));
}

/// Converts a local-variable cover (vars = indices into `map`) to one
/// over network node ids.
Cover remap_cover(const Cover& local, const std::vector<NodeId>& map) {
  Cover result;
  for (const Cube& cube : local.cubes()) {
    std::vector<Literal> lits;
    for (Literal lit : cube.literals())
      lits.push_back(sop::make_literal(
          map[static_cast<std::size_t>(sop::literal_var(lit))],
          sop::literal_negated(lit)));
    result.add_cube(Cube(std::move(lits)));
  }
  return result;
}

}  // namespace

sop::SopNetwork make_9symml() {
  SopNetwork net;
  std::vector<NodeId> inputs;
  for (int i = 0; i < 9; ++i)
    inputs.push_back(net.add_input("x" + std::to_string(i)));
  truth::TruthTable fn(9);
  for (std::uint64_t m = 0; m < fn.num_minterms(); ++m) {
    const int weight = std::popcount(m);
    if (weight >= 3 && weight <= 6) fn.set_bit(m, true);
  }
  const NodeId out =
      net.add_node("out", remap_cover(sop::isop(fn), inputs));
  net.mark_output(out);
  net.check();
  return net;
}

sop::SopNetwork make_alu(int bits, const std::string& prefix) {
  CHORTLE_REQUIRE(bits >= 1 && bits <= 16, "ALU width out of range");
  SopNetwork net;
  std::vector<NodeId> a, b;
  for (int i = 0; i < bits; ++i)
    a.push_back(net.add_input(prefix + "a" + std::to_string(i)));
  for (int i = 0; i < bits; ++i)
    b.push_back(net.add_input(prefix + "b" + std::to_string(i)));
  const NodeId cin = net.add_input(prefix + "cin");
  const NodeId s0 = net.add_input(prefix + "s0");  // subtract (invert b)
  const NodeId s1 = net.add_input(prefix + "s1");  // logic op select
  const NodeId m = net.add_input(prefix + "m");    // arithmetic/logic mode

  std::vector<NodeId> out(static_cast<std::size_t>(bits));
  NodeId carry = cin;
  NodeId prev_carry = cin;
  for (int i = 0; i < bits; ++i) {
    const std::string si = std::to_string(i);
    const NodeId bi = n_xor(net, "bx" + si, b[static_cast<std::size_t>(i)],
                            s0);
    const NodeId ai = a[static_cast<std::size_t>(i)];
    const NodeId axb = n_xor(net, "axb" + si, ai, bi);
    const NodeId sum = n_xor(net, "sum" + si, axb, carry);
    const NodeId next_carry = n_maj(net, "c" + std::to_string(i + 1), ai, bi,
                                    carry);
    // Logic unit: s1 ? (a | b) : (a & b).
    const NodeId land = n_and(net, "and" + si, {pos(ai),
                              pos(b[static_cast<std::size_t>(i)])});
    const NodeId lor = n_or(net, "or" + si, {pos(ai),
                            pos(b[static_cast<std::size_t>(i)])});
    const NodeId logic = n_mux(net, "log" + si, s1, land, lor);
    out[static_cast<std::size_t>(i)] = n_mux(net, "out" + si, m, sum, logic);
    prev_carry = carry;
    carry = next_carry;
  }
  for (int i = 0; i < bits; ++i)
    net.mark_output(out[static_cast<std::size_t>(i)]);
  net.mark_output(carry);
  const NodeId overflow = n_xor(net, "ovf", carry, prev_carry);
  net.mark_output(overflow);
  // Zero flag: AND of complemented outputs.
  std::vector<Literal> zero_lits;
  for (NodeId o : out) zero_lits.push_back(neg(o));
  net.mark_output(n_and(net, "zero", std::move(zero_lits)));
  net.check();
  return net;
}

sop::SopNetwork make_count(int bits) {
  CHORTLE_REQUIRE(bits >= 2 && bits <= 32, "counter width out of range");
  SopNetwork net;
  std::vector<NodeId> x;
  for (int i = 0; i < bits; ++i)
    x.push_back(net.add_input("x" + std::to_string(i)));
  const NodeId en = net.add_input("en");
  NodeId carry = en;
  for (int i = 0; i < bits; ++i) {
    const std::string si = std::to_string(i);
    net.mark_output(n_xor(net, "q" + si, x[static_cast<std::size_t>(i)],
                          carry));
    carry = n_and(net, "c" + std::to_string(i + 1),
                  {pos(x[static_cast<std::size_t>(i)]), pos(carry)});
  }
  net.mark_output(carry);
  net.check();
  return net;
}

sop::SopNetwork make_rot(int bits, int stages) {
  CHORTLE_REQUIRE(bits >= 2 && stages >= 1 && (1 << stages) <= 2 * bits,
                  "rotator parameters out of range");
  SopNetwork net;
  std::vector<NodeId> data;
  for (int i = 0; i < bits; ++i)
    data.push_back(net.add_input("d" + std::to_string(i)));
  std::vector<NodeId> amount;
  for (int j = 0; j < stages; ++j)
    amount.push_back(net.add_input("s" + std::to_string(j)));
  std::vector<NodeId> current = data;
  for (int j = 0; j < stages; ++j) {
    const int shift = 1 << j;
    std::vector<NodeId> next(static_cast<std::size_t>(bits));
    for (int i = 0; i < bits; ++i) {
      next[static_cast<std::size_t>(i)] = n_mux(
          net, "m" + std::to_string(j) + "_" + std::to_string(i),
          amount[static_cast<std::size_t>(j)],
          current[static_cast<std::size_t>(i)],
          current[static_cast<std::size_t>((i + shift) % bits)]);
    }
    current = std::move(next);
  }
  for (int i = 0; i < bits; ++i)
    net.mark_output(current[static_cast<std::size_t>(i)]);
  net.check();
  return net;
}

sop::SopNetwork make_pair(int bits) {
  CHORTLE_REQUIRE(bits >= 2 && bits <= 32, "pair width out of range");
  SopNetwork net;
  auto add_bus = [&](const std::string& name) {
    std::vector<NodeId> bus;
    for (int i = 0; i < bits; ++i)
      bus.push_back(net.add_input(name + std::to_string(i)));
    return bus;
  };
  const std::vector<NodeId> a = add_bus("a");
  const std::vector<NodeId> b = add_bus("b");
  const std::vector<NodeId> c = add_bus("c");
  const std::vector<NodeId> d = add_bus("d");
  const NodeId sel = net.add_input("sel");

  auto ripple_adder = [&](const std::vector<NodeId>& x,
                          const std::vector<NodeId>& y,
                          const std::string& prefix) {
    std::vector<NodeId> sum(static_cast<std::size_t>(bits));
    NodeId carry = SopNetwork::kInvalidNode;
    for (int i = 0; i < bits; ++i) {
      const std::string si = std::to_string(i);
      const NodeId axb = n_xor(net, prefix + "x" + si,
                               x[static_cast<std::size_t>(i)],
                               y[static_cast<std::size_t>(i)]);
      if (i == 0) {
        sum[0] = axb;
        carry = n_and(net, prefix + "c1",
                      {pos(x[0]), pos(y[0])});
        continue;
      }
      sum[static_cast<std::size_t>(i)] =
          n_xor(net, prefix + "s" + si, axb, carry);
      carry = n_maj(net, prefix + "c" + std::to_string(i + 1),
                    x[static_cast<std::size_t>(i)],
                    y[static_cast<std::size_t>(i)], carry);
    }
    return std::make_pair(sum, carry);
  };
  const auto [sum1, carry1] = ripple_adder(a, b, "p");
  const auto [sum2, carry2] = ripple_adder(c, d, "q");

  // Selected result bus.
  for (int i = 0; i < bits; ++i)
    net.mark_output(n_mux(net, "r" + std::to_string(i), sel,
                          sum1[static_cast<std::size_t>(i)],
                          sum2[static_cast<std::size_t>(i)]));
  for (int i = 0; i < bits; ++i) {
    net.mark_output(sum1[static_cast<std::size_t>(i)]);
    net.mark_output(sum2[static_cast<std::size_t>(i)]);
  }
  net.mark_output(carry1);
  net.mark_output(carry2);
  // Equality of the two sums.
  std::vector<Literal> eq_lits;
  for (int i = 0; i < bits; ++i)
    eq_lits.push_back(
        neg(n_xor(net, "ne" + std::to_string(i),
                  sum1[static_cast<std::size_t>(i)],
                  sum2[static_cast<std::size_t>(i)])));
  net.mark_output(n_and(net, "eq", std::move(eq_lits)));
  net.check();
  return net;
}

sop::SopNetwork make_des_round() {
  SopNetwork net;
  std::vector<NodeId> left, right, key;
  for (int i = 0; i < 32; ++i)
    left.push_back(net.add_input("l" + std::to_string(i)));
  for (int i = 0; i < 32; ++i)
    right.push_back(net.add_input("r" + std::to_string(i)));
  for (int i = 0; i < 48; ++i)
    key.push_back(net.add_input("k" + std::to_string(i)));

  // Expansion E: group g reads right[(4g-1 .. 4g+4) mod 32] (the real
  // DES expansion wiring), XORed with the round key.
  std::vector<NodeId> xored(48);
  for (int g = 0; g < 8; ++g)
    for (int j = 0; j < 6; ++j) {
      const int bit = ((4 * g - 1 + j) % 32 + 32) % 32;
      const int idx = 6 * g + j;
      xored[static_cast<std::size_t>(idx)] =
          n_xor(net, "e" + std::to_string(idx),
                right[static_cast<std::size_t>(bit)],
                key[static_cast<std::size_t>(idx)]);
    }

  // S-boxes: the published tables are substituted by seeded random
  // 6->4 functions (dense random logic with the same shape).
  std::vector<NodeId> sbox_out;
  for (int g = 0; g < 8; ++g) {
    std::vector<NodeId> ins(xored.begin() + 6 * g, xored.begin() + 6 * g + 6);
    for (int o = 0; o < 4; ++o) {
      Rng rng(0xDE5'00000ull + static_cast<std::uint64_t>(16 * g + o));
      truth::TruthTable fn = truth::TruthTable::from_bits(rng.next_u64(), 6);
      sbox_out.push_back(net.add_node(
          "s" + std::to_string(g) + "_" + std::to_string(o),
          remap_cover(sop::isop(fn), ins)));
    }
  }

  // P permutation (seeded) then XOR with the left half.
  std::vector<int> perm(32);
  std::iota(perm.begin(), perm.end(), 0);
  Rng perm_rng(0xDE5'BEEFull);
  perm_rng.shuffle(perm);
  for (int i = 0; i < 32; ++i) {
    const NodeId f = sbox_out[static_cast<std::size_t>(perm[
        static_cast<std::size_t>(i)])];
    net.mark_output(n_xor(net, "nr" + std::to_string(i),
                          left[static_cast<std::size_t>(i)], f));
  }
  // New left half is the old right half.
  for (int i = 0; i < 32; ++i) net.mark_output(right[
      static_cast<std::size_t>(i)]);
  net.check();
  return net;
}

sop::SopNetwork make_k2(int inputs, int outputs, int cubes,
                        std::uint64_t seed) {
  CHORTLE_REQUIRE(inputs >= 8 && outputs >= 1 && cubes >= 4,
                  "k2 parameters out of range");
  Rng rng(seed);
  SopNetwork net;
  std::vector<NodeId> pis;
  for (int i = 0; i < inputs; ++i)
    pis.push_back(net.add_input("x" + std::to_string(i)));

  // Shared product-term pool, PLA style.
  std::vector<Cube> pool;
  for (int c = 0; c < cubes; ++c) {
    // At most `inputs` distinct variables fit in a cube; the clamp only
    // binds for inputs = 8 and leaves every wider PLA's stream as is.
    const int width =
        std::min(inputs, static_cast<int>(rng.next_in(5, 9)));
    std::vector<Literal> lits;
    std::vector<int> chosen;
    while (static_cast<int>(chosen.size()) < width) {
      const int v = static_cast<int>(rng.next_below(
          static_cast<std::uint64_t>(inputs)));
      if (std::find(chosen.begin(), chosen.end(), v) == chosen.end()) {
        chosen.push_back(v);
        lits.push_back(sop::make_literal(pis[static_cast<std::size_t>(v)],
                                         rng.next_bool(0.5)));
      }
    }
    pool.push_back(Cube(std::move(lits)));
  }
  for (int o = 0; o < outputs; ++o) {
    Cover cover;
    const int terms = static_cast<int>(rng.next_in(8, 16));
    for (int tumbler = 0; tumbler < terms; ++tumbler)
      cover.add_cube(pool[rng.next_below(pool.size())]);
    net.mark_output(
        net.add_node("o" + std::to_string(o), cover.scc_minimized()));
  }
  net.check();
  return net;
}

sop::SopNetwork flatten_to_pla(const sop::SopNetwork& network) {
  const int n = static_cast<int>(network.inputs().size());
  CHORTLE_REQUIRE(n <= truth::TruthTable::kMaxVars,
                  "too many inputs to flatten");
  // Global function of every node over the primary inputs.
  std::vector<truth::TruthTable> value(
      static_cast<std::size_t>(network.num_nodes()), truth::TruthTable(n));
  for (int i = 0; i < n; ++i)
    value[static_cast<std::size_t>(network.inputs()[
        static_cast<std::size_t>(i)])] = truth::TruthTable::var(i, n);
  for (NodeId id : network.topological_order()) {
    truth::TruthTable acc(n);
    for (const Cube& cube : network.node(id).cover.cubes()) {
      truth::TruthTable term = truth::TruthTable::ones(n);
      for (Literal lit : cube.literals()) {
        const truth::TruthTable& v =
            value[static_cast<std::size_t>(sop::literal_var(lit))];
        term &= sop::literal_negated(lit) ? ~v : v;
      }
      acc |= term;
    }
    value[static_cast<std::size_t>(id)] = std::move(acc);
  }

  SopNetwork pla;
  std::vector<NodeId> pis;
  for (NodeId id : network.inputs())
    pis.push_back(pla.add_input(network.node(id).name));
  for (NodeId id : network.outputs()) {
    const std::string name = network.node(id).name +
                             (network.is_input(id) ? "_out" : "");
    pla.mark_output(pla.add_node(
        name, remap_cover(sop::isop(value[static_cast<std::size_t>(id)]),
                          pis)));
  }
  pla.check();
  return pla;
}

const std::vector<std::string>& benchmark_names() {
  static const std::vector<std::string> names = {
      "9symml", "alu2", "alu4", "apex6", "apex7", "count",
      "des",    "frg1", "frg2", "k2",    "pair",  "rot"};
  return names;
}

sop::SopNetwork generate(const std::string& name) {
  if (name == "9symml") return make_9symml();
  // The real alu2/alu4 are two-level espresso PLAs; flatten the
  // structural ALUs into the same form before optimization.
  if (name == "alu2") return flatten_to_pla(make_alu(3, ""));
  if (name == "alu4") return flatten_to_pla(make_alu(5, ""));
  if (name == "count") return make_count(16);
  if (name == "rot") return make_rot(32, 5);
  if (name == "pair") return make_pair(16);
  if (name == "des") return make_des_round();
  if (name == "k2") return make_k2(45, 45, 90, 0xC2);
  if (name == "apex6")
    return random_logic({135, 99, 700, 5, 25, 0.3, 0xA6});
  if (name == "apex7")
    return random_logic({49, 37, 250, 5, 25, 0.3, 0xA7});
  if (name == "frg1")
    return random_logic({28, 3, 140, 5, 20, 0.3, 0xF1});
  if (name == "frg2")
    return random_logic({143, 139, 800, 5, 25, 0.3, 0xF2});
  CHORTLE_REQUIRE(false, "unknown benchmark: " + name);
  return {};  // unreachable
}

}  // namespace chortle::mcnc
