#include "sim/simulate.hpp"

#include <algorithm>
#include <bit>
#include <unordered_map>

#include "base/rng.hpp"
#include "obs/metrics.hpp"

namespace chortle::sim {

// A design compiled once: one instruction list in topological order.
// Signals 0..num_inputs-1 are the primary inputs, in interface order;
// op i defines signal num_inputs + i. An op is one of
//   sum of products  OR over `cubes`, each an AND over `literals`
//                    (2*signal + negated); no cubes is constant 0 and
//                    an empty cube is constant 1. An SOP node is its
//                    cover; an AND gate is one cube; an OR gate is one
//                    single-literal cube per fanin.
//   table            a lookup table over `fanins` (fanin j is minterm
//                    bit j), its truth table at `tables[first_word]`.
struct Program {
  struct Range {
    int begin = 0;
    int end = 0;
  };
  struct Op {
    bool table = false;
    Range range;         // sum of products: into cubes; table: into fanins
    int first_word = 0;  // table: its truth table's first word
  };
  struct Output {
    int signal = -1;  // -1 for a constant output
    Word invert = 0;  // ~0 for a negated output or the constant 1
  };

  int num_inputs = 0;
  std::vector<Op> ops;
  std::vector<Range> cubes;
  std::vector<int> literals;
  std::vector<int> fanins;
  std::vector<Word> tables;
  std::vector<Output> outputs;

  int num_signals() const {
    return num_inputs + static_cast<int>(ops.size());
  }

  /// Starts a cube; literals added next belong to it.
  void open_cube() {
    const int at = static_cast<int>(literals.size());
    cubes.push_back({at, at});
  }
  void add_literal(int signal, bool negated) {
    literals.push_back(2 * signal + (negated ? 1 : 0));
    cubes.back().end = static_cast<int>(literals.size());
  }
  /// Appends a sum-of-products op over the cubes opened since
  /// `first_cube`.
  void add_sop(int first_cube) {
    Op op;
    op.range = {first_cube, static_cast<int>(cubes.size())};
    ops.push_back(op);
  }
};

namespace {

// Patterns per evaluation block: find_mismatch sweeps a program over
// this many 64-pattern words at a time.
constexpr int kBlockWords = 16;
// Scratch words per block word: one mux-tree level per LUT input.
constexpr int kScratchRows = truth::TruthTable::kMaxVars;

// Bit m of kVarMask[i] is bit i of m: exhaustive input i < 6 in every
// word.
constexpr Word kVarMask[6] = {
    0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
    0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};

Program::Output output_ref(int signal, bool negated) {
  return {signal, negated ? ~Word{0} : Word{0}};
}

Program::Output const_output(bool value) {
  return {-1, value ? ~Word{0} : Word{0}};
}

void eval_sop(const Program& p, const Program::Op& op, const Word* values,
              int n, Word* term, Word* dest) {
  std::fill(dest, dest + n, Word{0});
  for (int c = op.range.begin; c < op.range.end; ++c) {
    const Program::Range cube = p.cubes[static_cast<std::size_t>(c)];
    if (cube.begin == cube.end) {
      std::fill(dest, dest + n, ~Word{0});
      return;
    }
    const int* lit = p.literals.data() + cube.begin;
    const int* const end = p.literals.data() + cube.end;
    const Word* v = values + (*lit >> 1) * n;
    Word mask = -static_cast<Word>(*lit & 1);
    if (end - lit == 1) {
      for (int w = 0; w < n; ++w) dest[w] |= v[w] ^ mask;
      continue;
    }
    for (int w = 0; w < n; ++w) term[w] = v[w] ^ mask;
    for (++lit; lit != end; ++lit) {
      v = values + (*lit >> 1) * n;
      mask = -static_cast<Word>(*lit & 1);
      for (int w = 0; w < n; ++w) term[w] &= v[w] ^ mask;
    }
    for (int w = 0; w < n; ++w) dest[w] |= term[w];
  }
}

// A Shannon mux tree over the table, built bottom-up like a binary
// counter. Leaf j is the function of fanin 0 that table bits 2j and
// 2j+1 give: 0, 1, x0 or !x0. Leaf j has t trailing one bits, so it
// closes t subtrees: it is muxed with the pending lower halves in
// levels 0..t-1 (by fanins 1..t) and then waits in level t. The last
// leaf closes the whole tree straight into `dest`. That is at most
// 2^k - 1 muxes, and a table wider than one word is the same walk, a
// word (32 leaves, fanins 0..5) at a time, then muxed by the high
// fanins.
void eval_table(const Program& p, const Program::Op& op, const Word* values,
                int n, Word* levels, Word* dest) {
  const int k = op.range.end - op.range.begin;
  const int* fanin = p.fanins.data() + op.range.begin;
  const Word* table = p.tables.data() + op.first_word;
  if (k == 0) {
    std::fill(dest, dest + n, (table[0] & 1) ? ~Word{0} : Word{0});
    return;
  }
  const Word* x0 = values + fanin[0] * n;
  const std::uint32_t leaves = std::uint32_t{1} << (k - 1);
  for (std::uint32_t j = 0; j < leaves; ++j) {
    const Word pair = table[j >> 5] >> ((2 * j) & 63);
    const Word lo = -(pair & 1);
    const Word hi = -((pair >> 1) & 1);
    const int closes = std::countr_one(j);
    Word* cur = closes == k - 1 ? dest : levels + closes * n;
    for (int w = 0; w < n; ++w) cur[w] = lo ^ (x0[w] & (lo ^ hi));
    for (int level = 0; level < closes; ++level) {
      const Word* x = values + fanin[level + 1] * n;
      const Word* low = levels + level * n;
      for (int w = 0; w < n; ++w) cur[w] = low[w] ^ (x[w] & (low[w] ^ cur[w]));
    }
  }
}

/// Evaluates every op of `p` over `n` words per signal. Row s of
/// `values` (n words at values + s*n) holds signal s; the caller fills
/// the input rows. `scratch` holds kScratchRows * n words.
void run(const Program& p, Word* values, int n, Word* scratch) {
  Word* dest = values + static_cast<std::size_t>(p.num_inputs) * n;
  for (const Program::Op& op : p.ops) {
    if (op.table)
      eval_table(p, op, values, n, scratch, dest);
    else
      eval_sop(p, op, values, n, scratch, dest);
    dest += n;
  }
}

Word output_word(const Program::Output& o, const Word* values, int n,
                 int w) {
  if (o.signal < 0) return o.invert;
  return values[static_cast<std::size_t>(o.signal) * n + w] ^ o.invert;
}

}  // namespace

std::vector<Word> Design::eval(const std::vector<Word>& input_words) const {
  CHORTLE_REQUIRE(program != nullptr, "design was not compiled");
  const Program& p = *program;
  CHORTLE_REQUIRE(static_cast<int>(input_words.size()) == p.num_inputs,
                  "input word count mismatch");
  std::vector<Word> values(static_cast<std::size_t>(p.num_signals()));
  std::vector<Word> scratch(kScratchRows);
  std::copy(input_words.begin(), input_words.end(), values.begin());
  run(p, values.data(), 1, scratch.data());
  std::vector<Word> out;
  out.reserve(p.outputs.size());
  for (const Program::Output& o : p.outputs)
    out.push_back(output_word(o, values.data(), 1, 0));
  return out;
}

Design design_of(const sop::SopNetwork& network) {
  Design d;
  auto p = std::make_shared<Program>();
  std::vector<int> signal(static_cast<std::size_t>(network.num_nodes()), -1);
  for (sop::SopNetwork::NodeId id : network.inputs()) {
    signal[static_cast<std::size_t>(id)] = p->num_inputs++;
    d.input_names.push_back(network.node(id).name);
  }
  for (sop::SopNetwork::NodeId id : network.topological_order()) {
    signal[static_cast<std::size_t>(id)] = p->num_signals();
    const int first_cube = static_cast<int>(p->cubes.size());
    for (const sop::Cube& cube : network.node(id).cover.cubes()) {
      p->open_cube();
      for (sop::Literal lit : cube.literals()) {
        const auto var = static_cast<std::size_t>(sop::literal_var(lit));
        p->add_literal(signal[var], sop::literal_negated(lit));
      }
    }
    p->add_sop(first_cube);
  }
  for (sop::SopNetwork::NodeId id : network.outputs()) {
    d.output_names.push_back(network.node(id).name);
    p->outputs.push_back(
        output_ref(signal[static_cast<std::size_t>(id)], false));
  }
  d.program = std::move(p);
  return d;
}

Design design_of(const net::Network& network) {
  Design d;
  auto p = std::make_shared<Program>();
  std::vector<int> signal(static_cast<std::size_t>(network.num_nodes()), -1);
  for (net::NodeId id : network.inputs()) {
    signal[static_cast<std::size_t>(id)] = p->num_inputs++;
    d.input_names.push_back(network.node(id).name);
  }
  for (net::NodeId id : network.gates_in_topo_order()) {
    const auto& node = network.node(id);
    signal[static_cast<std::size_t>(id)] = p->num_signals();
    const int first_cube = static_cast<int>(p->cubes.size());
    for (std::size_t j = 0; j < node.fanins.size(); ++j) {
      // An AND gate is one cube; an OR gate is one cube per fanin.
      if (j == 0 || node.op == net::GateOp::kOr) p->open_cube();
      const net::Fanin& f = node.fanins[j];
      p->add_literal(signal[static_cast<std::size_t>(f.node)], f.negated);
    }
    p->add_sop(first_cube);
  }
  for (const net::Output& o : network.outputs()) {
    d.output_names.push_back(o.name);
    p->outputs.push_back(
        o.is_const
            ? const_output(o.const_value)
            : output_ref(signal[static_cast<std::size_t>(o.node)], o.negated));
  }
  d.program = std::move(p);
  return d;
}

Design design_of(const net::LutCircuit& circuit) {
  Design d;
  auto p = std::make_shared<Program>();
  d.input_names = circuit.input_names();
  p->num_inputs = circuit.num_inputs();
  // Circuit signal ids already are program signals: LUT i defines
  // signal num_inputs + i.
  for (const net::Lut& lut : circuit.luts()) {
    Program::Op op;
    op.table = true;
    op.range.begin = static_cast<int>(p->fanins.size());
    p->fanins.insert(p->fanins.end(), lut.inputs.begin(), lut.inputs.end());
    op.range.end = static_cast<int>(p->fanins.size());
    op.first_word = static_cast<int>(p->tables.size());
    const auto& words = lut.function.words();
    p->tables.insert(p->tables.end(), words.begin(), words.end());
    p->ops.push_back(op);
  }
  for (const net::LutOutput& o : circuit.outputs()) {
    d.output_names.push_back(o.name);
    p->outputs.push_back(o.is_const ? const_output(o.const_value)
                                    : output_ref(o.signal, o.negated));
  }
  d.program = std::move(p);
  return d;
}

namespace {

/// Maps each name in `from` to its position in `to`; throws if the name
/// sets differ.
std::vector<std::size_t> align(const std::vector<std::string>& from,
                               const std::vector<std::string>& to,
                               const char* what) {
  CHORTLE_REQUIRE(from.size() == to.size(),
                  std::string(what) + " count mismatch between designs");
  std::unordered_map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < to.size(); ++i) index.emplace(to[i], i);
  std::vector<std::size_t> result(from.size());
  for (std::size_t i = 0; i < from.size(); ++i) {
    auto it = index.find(from[i]);
    CHORTLE_REQUIRE(it != index.end(),
                    std::string(what) + " '" + from[i] +
                        "' missing from second design");
    result[i] = it->second;
  }
  return result;
}

}  // namespace

std::optional<Mismatch> find_mismatch(const Design& a, const Design& b,
                                      const EquivalenceOptions& options) {
  CHORTLE_REQUIRE(a.program != nullptr && b.program != nullptr,
                  "design was not compiled");
  const auto in_map = align(a.input_names, b.input_names, "input");
  const auto out_map = align(a.output_names, b.output_names, "output");
  const Program& pa = *a.program;
  const Program& pb = *b.program;
  const std::size_t num_in = a.input_names.size();

  // Exhaustive word w holds patterns 64w..64w+63: input i < 6 is a
  // constant mask, input i >= 6 is bit i-6 of w. Fewer than six inputs
  // leave one partial word.
  const bool exhaustive = static_cast<int>(num_in) <= options.exhaustive_limit;
  const std::uint64_t total_words =
      !exhaustive   ? static_cast<std::uint64_t>(
                        std::max(0, options.random_words))
      : num_in >= 6 ? std::uint64_t{1} << (num_in - 6)
                    : 1;
  const Word lane_mask = exhaustive && num_in < 6
                             ? (Word{1} << (std::size_t{1} << num_in)) - 1
                             : ~Word{0};

  std::vector<Word> va(static_cast<std::size_t>(pa.num_signals()) *
                       kBlockWords);
  std::vector<Word> vb(static_cast<std::size_t>(pb.num_signals()) *
                       kBlockWords);
  std::vector<Word> scratch(kScratchRows * kBlockWords);
  Rng rng(options.seed);
  std::uint64_t words = 0;
  std::optional<Mismatch> found;
  for (std::uint64_t first = 0; first < total_words && !found;
       first += kBlockWords) {
    const int n = static_cast<int>(
        std::min<std::uint64_t>(kBlockWords, total_words - first));
    if (exhaustive) {
      for (std::size_t i = 0; i < num_in; ++i)
        for (int w = 0; w < n; ++w)
          va[i * n + w] = i < 6 ? kVarMask[i]
                          : ((first + w) >> (i - 6)) & 1 ? ~Word{0}
                                                         : Word{0};
    } else {
      for (int w = 0; w < n; ++w)
        for (std::size_t i = 0; i < num_in; ++i) va[i * n + w] = rng.next_u64();
    }
    for (std::size_t i = 0; i < num_in; ++i)
      std::copy_n(va.begin() + static_cast<std::ptrdiff_t>(i * n), n,
                  vb.begin() + static_cast<std::ptrdiff_t>(in_map[i] * n));
    run(pa, va.data(), n, scratch.data());
    run(pb, vb.data(), n, scratch.data());
    words += static_cast<std::uint64_t>(n);

    for (int w = 0; w < n && !found; ++w) {
      for (std::size_t o = 0; o < pa.outputs.size(); ++o) {
        const Word out_a = output_word(pa.outputs[o], va.data(), n, w);
        const Word out_b = output_word(pb.outputs[out_map[o]], vb.data(), n, w);
        const Word diff = (out_a ^ out_b) & lane_mask;
        if (diff == 0) continue;
        const int lane = std::countr_zero(diff);
        Mismatch m;
        m.output_name = a.output_names[o];
        for (std::size_t i = 0; i < num_in; ++i)
          m.input_values.push_back((va[i * n + w] >> lane) & 1);
        found = std::move(m);
        break;
      }
    }
  }
  OBS_COUNT("sim.checks", 1);
  OBS_COUNT("sim.words", words);
  return found;
}

bool equivalent(const Design& a, const Design& b,
                const EquivalenceOptions& options) {
  return !find_mismatch(a, b, options).has_value();
}

}  // namespace chortle::sim
