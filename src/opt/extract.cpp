#include "opt/extract.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "base/cancel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sop/kernels.hpp"

namespace chortle::opt {
namespace {

using sop::Cover;
using sop::Cube;
using sop::Literal;
using sop::SopNetwork;
using NodeId = SopNetwork::NodeId;

/// A read-only run of sorted ints: a cube's literals or a support.
using IntSpan = std::span<const int>;

int length(IntSpan values) { return static_cast<int>(values.size()); }

bool includes(IntSpan big, IntSpan small) {
  return std::includes(big.begin(), big.end(), small.begin(), small.end());
}

/// What valuation needs of one node's cover, built once per cover: its
/// support, its cube sizes and, per literal of the support, the bitset
/// of cubes containing that literal, so the cubes containing a set of
/// literals are a few word ANDs away.
struct NodeView {
  std::vector<int> support;         // ascending variable ids
  std::vector<int> sizes;           // literals per cube
  std::vector<std::uint64_t> rows;  // 2·|support| rows of `words` words
  int words = 0;

  /// Row of `lit` in `rows`, or -1 when its variable is not in the
  /// support.
  std::ptrdiff_t row_index(Literal lit) const {
    const auto it = std::lower_bound(support.begin(), support.end(),
                                     sop::literal_var(lit));
    if (it == support.end() || *it != sop::literal_var(lit)) return -1;
    return 2 * (it - support.begin()) + (sop::literal_negated(lit) ? 1 : 0);
  }

  /// mask &= the cubes containing every literal of `lits`.
  void restrict_to(IntSpan lits, std::uint64_t* mask) const {
    for (Literal lit : lits) {
      const std::ptrdiff_t r = row_index(lit);
      if (r < 0) {
        std::fill(mask, mask + words, 0);
        return;
      }
      const std::uint64_t* row = rows.data() + r * words;
      for (int w = 0; w < words; ++w) mask[w] &= row[w];
    }
  }

  /// mask = every cube.
  void fill(std::uint64_t* mask) const {
    const int cubes = static_cast<int>(sizes.size());
    for (int w = 0; w < words; ++w) {
      const int in_word = cubes - 64 * w;
      mask[w] = in_word >= 64 ? ~std::uint64_t{0}
                              : (std::uint64_t{1} << in_word) - 1;
    }
  }

  /// Clears the cubes of `mask` whose size is not `size`.
  void keep_size(int size, std::uint64_t* mask) const {
    for (int w = 0; w < words; ++w)
      for (std::uint64_t bits = mask[w]; bits != 0; bits &= bits - 1) {
        const int cube = 64 * w + std::countr_zero(bits);
        if (sizes[static_cast<std::size_t>(cube)] != size)
          mask[w] &= ~(std::uint64_t{1} << (cube - 64 * w));
      }
  }

  int count(const std::uint64_t* mask) const {
    int total = 0;
    for (int w = 0; w < words; ++w) total += std::popcount(mask[w]);
    return total;
  }
};

NodeView view_of(const Cover& cover) {
  NodeView view;
  view.support = cover.support();
  view.words = (cover.num_cubes() + 63) / 64;
  view.rows.assign(
      2 * view.support.size() * static_cast<std::size_t>(view.words), 0);
  for (int c = 0; c < cover.num_cubes(); ++c) {
    view.sizes.push_back(cover.cube(c).size());
    for (Literal lit : cover.cube(c).literals()) {
      const std::ptrdiff_t word = view.row_index(lit) * view.words + c / 64;
      view.rows[static_cast<std::size_t>(word)] |= std::uint64_t{1} << (c % 64);
    }
  }
  return view;
}

/// True when two ascending literal runs share a literal.
bool intersects(IntSpan a, IntSpan b) {
  auto x = a.begin();
  auto y = b.begin();
  while (x != a.end() && y != b.end()) {
    if (*x == *y) return true;
    if (*x < *y)
      ++x;
    else
      ++y;
  }
  return false;
}

/// Interned candidate divisors. Each live divisor is stored once, as a
/// flat record in one int arena,
///   [num_cubes, num_support, support vars..., (size, literals...)...],
/// keyed by its canonical cubes and named by a small integer id. Freed
/// ids are recycled, and the arena is compacted once it is mostly holes.
class DivisorTable {
 public:
  struct Interned {
    int id;
    bool fresh;  // a new divisor, not one already in the table
  };

  Interned intern_cube(IntSpan literals) {
    const std::size_t start = arena_.size();
    arena_.push_back(1);
    arena_.push_back(length(literals));
    for (Literal lit : literals) arena_.push_back(sop::literal_var(lit));
    arena_.push_back(length(literals));
    arena_.insert(arena_.end(), literals.begin(), literals.end());
    return finish(start);
  }

  Interned intern_cover(const Cover& cover) {
    vars_.clear();
    for (const Cube& cube : cover.cubes())
      for (Literal lit : cube.literals())
        vars_.push_back(sop::literal_var(lit));
    std::sort(vars_.begin(), vars_.end());
    vars_.erase(std::unique(vars_.begin(), vars_.end()), vars_.end());
    const std::size_t start = arena_.size();
    arena_.push_back(cover.num_cubes());
    arena_.push_back(static_cast<int>(vars_.size()));
    arena_.insert(arena_.end(), vars_.begin(), vars_.end());
    for (const Cube& cube : cover.cubes()) {
      arena_.push_back(cube.size());
      arena_.insert(arena_.end(), cube.literals().begin(),
                    cube.literals().end());
    }
    return finish(start);
  }

  /// Ids are below this bound.
  int id_bound() const { return static_cast<int>(offset_.size()); }
  bool alive(int id) const { return length_[index(id)] > 0; }

  IntSpan support(int id) const {
    const int* record = arena_.data() + offset_[index(id)];
    return {record + 2, static_cast<std::size_t>(record[1])};
  }

  int literals(int id) const {
    const int* record = arena_.data() + offset_[index(id)];
    return static_cast<int>(length_[index(id)]) - 2 - record[1] - record[0];
  }

  /// Appends the divisor's cubes to `out`, in canonical order.
  void cubes(int id, std::vector<IntSpan>& out) const {
    const int* record = arena_.data() + offset_[index(id)];
    const int* cursor = record + 2 + record[1];
    for (int c = 0; c < record[0]; ++c) {
      out.emplace_back(cursor + 1, static_cast<std::size_t>(cursor[0]));
      cursor += 1 + cursor[0];
    }
  }

  Cover cover(int id) const {
    std::vector<IntSpan> spans;
    cubes(id, spans);
    std::vector<Cube> result;
    result.reserve(spans.size());
    for (IntSpan s : spans)
      result.emplace_back(std::vector<Literal>(s.begin(), s.end()));
    return Cover(std::move(result));
  }

  void release(int id) {
    erase_slot(slot_of(id));
    dead_ += length_[index(id)];
    length_[index(id)] = 0;
    free_ids_.push_back(id);
    --live_;
  }

  /// Rewrites the arena without holes once they outweigh live records.
  void compact_if_sparse() {
    if (dead_ * 2 <= arena_.size()) return;
    std::vector<int> packed;
    packed.reserve(arena_.size() - dead_);
    for (std::size_t id = 0; id < offset_.size(); ++id) {
      if (length_[id] == 0) continue;
      const auto begin = arena_.begin() + offset_[id];
      offset_[id] = static_cast<std::uint32_t>(packed.size());
      packed.insert(packed.end(), begin, begin + length_[id]);
    }
    arena_ = std::move(packed);
    dead_ = 0;
  }

 private:
  static std::size_t index(int id) { return static_cast<std::size_t>(id); }

  std::uint64_t hash_range(std::size_t start, std::size_t end) const {
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (std::size_t i = start; i < end; ++i) {
      h ^= static_cast<std::uint32_t>(arena_[i]);
      h *= 0x100000001B3ull;
    }
    h ^= h >> 31;
    h *= 0x9E3779B97F4A7C15ull;
    return h ^ (h >> 29);
  }

  bool same(int id, std::size_t start, std::size_t length) const {
    if (length_[index(id)] != length) return false;
    const auto begin = arena_.begin() + offset_[index(id)];
    return std::equal(begin, begin + static_cast<std::ptrdiff_t>(length),
                      arena_.begin() + static_cast<std::ptrdiff_t>(start));
  }

  /// Looks the record at arena_[start..] up; drops it again if present.
  Interned finish(std::size_t start) {
    const std::size_t length = arena_.size() - start;
    const std::uint64_t h = hash_range(start, arena_.size());
    if (slots_.empty()) slots_.assign(16, -1);
    const std::size_t mask = slots_.size() - 1;
    std::size_t slot = h & mask;
    for (; slots_[slot] >= 0; slot = (slot + 1) & mask) {
      const int id = slots_[slot];
      if (hash_[index(id)] == h && same(id, start, length)) {
        arena_.resize(start);
        return {id, false};
      }
    }
    int id;
    if (!free_ids_.empty()) {
      id = free_ids_.back();
      free_ids_.pop_back();
    } else {
      id = static_cast<int>(offset_.size());
      offset_.push_back(0);
      length_.push_back(0);
      hash_.push_back(0);
    }
    offset_[index(id)] = static_cast<std::uint32_t>(start);
    length_[index(id)] = static_cast<std::uint32_t>(length);
    hash_[index(id)] = h;
    slots_[slot] = id;
    if (++live_ * 2 > static_cast<int>(slots_.size())) rehash();
    return {id, true};
  }

  void rehash() {
    std::vector<int> old = std::move(slots_);
    slots_.assign(old.size() * 2, -1);
    const std::size_t mask = slots_.size() - 1;
    for (int id : old) {
      if (id < 0) continue;
      std::size_t slot = hash_[index(id)] & mask;
      while (slots_[slot] >= 0) slot = (slot + 1) & mask;
      slots_[slot] = id;
    }
  }

  std::size_t slot_of(int id) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t slot = hash_[index(id)] & mask;
    while (slots_[slot] != id) slot = (slot + 1) & mask;
    return slot;
  }

  /// Linear-probing deletion by backward shift (no tombstones).
  void erase_slot(std::size_t hole) {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t next = (hole + 1) & mask; slots_[next] >= 0;
         next = (next + 1) & mask) {
      const std::size_t home = hash_[index(slots_[next])] & mask;
      const bool stays = hole <= next ? (hole < home && home <= next)
                                      : (hole < home || home <= next);
      if (stays) continue;
      slots_[hole] = slots_[next];
      hole = next;
    }
    slots_[hole] = -1;
  }

  std::vector<int> arena_;
  std::size_t dead_ = 0;  // arena ints held by freed records
  std::vector<std::uint32_t> offset_;
  std::vector<std::uint32_t> length_;  // 0: a free id
  std::vector<std::uint64_t> hash_;
  std::vector<int> free_ids_;
  std::vector<int> slots_;  // open addressing over ids, -1 empty
  int live_ = 0;
  std::vector<int> vars_;  // reused by intern_cover
};

/// The extraction loop with its state kept across rounds. Invariants
/// between rounds (DESIGN.md §11):
///  * a node's list holds the candidates of its cover in generation
///    order, or is stale and still holds those of an earlier cover;
///  * a divisor's refs count the lists naming it; unnamed divisors are
///    freed;
///  * a valid divisor's value is its saving on the current network;
///  * users_[v] holds the internal nodes whose support contains v, and
///    index_[v] the divisors whose smallest support variable is v.
class Extractor {
 public:
  Extractor(SopNetwork& network, const ExtractOptions& options,
            ExtractStats& stats)
      : network_(network), options_(options), stats_(stats) {
    grow_nodes();
    for (NodeId id = 0; id < network_.num_nodes(); ++id)
      if (!network_.is_input(id)) add_view(id);
  }

  /// Runs one round: false when no candidate saves enough literals.
  bool round() {
    if (options_.cancel != nullptr) options_.cancel->check("opt.extract");
    ++epoch_;
    ++stats_.rounds;
    const std::int64_t valued_before = stats_.candidates_valued;
    const std::int64_t divisions_before = stats_.trial_divisions;

    // Candidate order: every node's list in node-id order, first
    // occurrence kept, stopping after the node that reaches the bound.
    order_.clear();
    for (NodeId id = 0; id < network_.num_nodes(); ++id) {
      if (network_.is_input(id)) continue;
      if (node(id).stale) relist(id);
      for (int d : node(id).list) {
        if (divisor(d).scanned == epoch_) continue;
        divisor(d).scanned = epoch_;
        order_.push_back(d);
      }
      if (static_cast<int>(order_.size()) >= options_.max_candidates) break;
    }

    // The first strictly greater saving wins.
    int best = -1;
    int best_value = options_.min_saving - 1;
    for (int d : order_) {
      DivisorState& state = divisor(d);
      if (!state.valid) {
        state.value = value_of(d);
        state.valid = true;
        ++stats_.candidates_valued;
      }
      if (state.value > best_value) {
        best_value = state.value;
        best = d;
      }
    }
    if (best >= 0) substitute(best);
    release_unreferenced();

    OBS_COUNT("opt.extract.rounds", 1);
    OBS_COUNT("opt.extract.candidates_valued",
              stats_.candidates_valued - valued_before);
    OBS_COUNT("opt.extract.trial_divisions",
              stats_.trial_divisions - divisions_before);
    return best >= 0;
  }

 private:
  struct DivisorState {
    int value = 0;
    int refs = 0;
    std::uint32_t scanned = 0;  // epoch of the last scan naming it
    std::uint32_t listed = 0;   // de-duplicates one node's list
    bool valid = false;
  };
  struct NodeState {
    std::vector<int> list;  // candidate divisor ids
    bool stale = true;      // the list predates the current cover
    NodeView view;          // of the current cover
  };

  static std::size_t index(int id) { return static_cast<std::size_t>(id); }
  DivisorState& divisor(int d) { return divisors_[index(d)]; }
  NodeState& node(NodeId id) { return nodes_[index(id)]; }

  void grow_nodes() {
    const std::size_t n = static_cast<std::size_t>(network_.num_nodes());
    nodes_.resize(n);
    users_.resize(n);
    index_.resize(n);
  }

  void add_view(NodeId id) {
    node(id).view = view_of(network_.node(id).cover);
    for (int var : node(id).view.support)
      users_[index(var)].push_back(id);
  }

  int intern(DivisorTable::Interned interned) {
    const int d = interned.id;
    if (!interned.fresh) return d;
    if (index(d) >= divisors_.size())
      divisors_.resize(static_cast<std::size_t>(table_.id_bound()));
    divisor(d) = DivisorState{};
    index_[index(table_.support(d).front())].push_back(d);
    return d;
  }

  /// Regenerates node `id`'s list from its cover: kernels (within the
  /// cube bound), then common cubes of cube pairs i<j with >= 2
  /// literals, each divisor listed once.
  void relist(NodeId id) {
    ++list_epoch_;
    std::vector<int> fresh;
    const auto add = [&](int d) {
      if (divisor(d).listed == list_epoch_) return;
      divisor(d).listed = list_epoch_;
      fresh.push_back(d);
      ++divisor(d).refs;
    };
    const Cover& cover = network_.node(id).cover;
    if (cover.num_cubes() >= 2) {
      for (const sop::KernelEntry& entry :
           sop::find_kernels(cover, options_.max_kernel_cubes))
        add(intern(table_.intern_cover(entry.kernel)));
      const auto& cubes = cover.cubes();
      for (std::size_t i = 0; i < cubes.size(); ++i)
        for (std::size_t j = i + 1; j < cubes.size(); ++j) {
          common_.clear();
          std::set_intersection(
              cubes[i].literals().begin(), cubes[i].literals().end(),
              cubes[j].literals().begin(), cubes[j].literals().end(),
              std::back_inserter(common_));
          if (common_.size() < 2) continue;
          add(intern(table_.intern_cube(common_)));
        }
    }
    for (int d : node(id).list)
      if (--divisor(d).refs == 0) unreferenced_.push_back(d);
    node(id).list = std::move(fresh);
    node(id).stale = false;
  }

  /// The users of the support variable with the fewest users.
  const std::vector<NodeId>& rarest_users(IntSpan support) const {
    const std::vector<NodeId>* shortest = &users_[index(support.front())];
    for (int var : support)
      if (users_[index(var)].size() < shortest->size())
        shortest = &users_[index(var)];
    return *shortest;
  }

  /// Network-wide saving of extracting `d`, new node cost included.
  /// Only nodes whose support covers the divisor's can divide, so the
  /// scan is restricted to the users of its rarest variable.
  int value_of(int d) {
    const IntSpan support = table_.support(d);
    int value = -table_.literals(d);
    for (NodeId n : rarest_users(support)) {
      const NodeView& view = node(n).view;
      if (!includes(view.support, support)) continue;
      value += saving(network_.node(n).cover, view, d);
    }
    return value;
  }

  /// lits(F) − cost of F after replacing quotient occurrences of `d`
  /// with one fresh variable, where the cost is lits(R) + lits(Q) + |Q|
  /// of the weak division F = Q·d + R. Equal to the Cover::divide
  /// result, duplicate cubes included, without building Q or R.
  int saving(const Cover& cover, const NodeView& view, int d) {
    ++stats_.trial_divisions;
    spans_.clear();
    table_.cubes(d, spans_);
    const int words = view.words;
    masks_.resize((3 + spans_.size()) * index(words));
    std::uint64_t* candidates = masks_.data();
    std::uint64_t* quotient = candidates + words;
    std::uint64_t* removed = quotient + words;
    std::uint64_t* generated = removed + words;  // one row per d_i
    view.fill(candidates);
    view.restrict_to(spans_[0], candidates);
    if (spans_.size() == 1) {
      // Single cube: every cube containing it loses |d| literals and
      // gains the new variable.
      return view.count(candidates) * (length(spans_[0]) - 1);
    }

    // Q = ∩_i {c / d_i : c ⊇ d_i} as multisets: each distinct c ⊇ d_1
    // proposes q = c / d_1, whose multiplicity in Q is the fewest
    // copies of any q·d_i in F. R drops every copy of every q·d_i.
    std::fill(removed, removed + words, 0);
    int quotient_literals = 0;
    int quotient_cubes = 0;
    for (int w = 0; w < words; ++w)
      while (candidates[w] != 0) {
        const int c = 64 * w + std::countr_zero(candidates[w]);
        const IntSpan cube = cover.cube(c).literals();
        // The copies of c are q·d_1's multiplicity.
        view.fill(generated);
        view.restrict_to(cube, generated);
        view.keep_size(length(cube), generated);
        for (int v = 0; v < words; ++v) candidates[v] &= ~generated[v];
        quotient_.clear();
        std::set_difference(cube.begin(), cube.end(), spans_[0].begin(),
                            spans_[0].end(), std::back_inserter(quotient_));
        const IntSpan q = quotient_;
        view.fill(quotient);
        view.restrict_to(q, quotient);
        int copies = view.count(generated);
        for (std::size_t i = 1; i < spans_.size() && copies > 0; ++i) {
          // q sharing a literal with d_i is not a quotient of d_i.
          if (intersects(q, spans_[i])) {
            copies = 0;
            break;
          }
          std::uint64_t* row = generated + i * index(words);
          std::copy(quotient, quotient + words, row);
          view.restrict_to(spans_[i], row);
          view.keep_size(length(q) + length(spans_[i]), row);
          copies = std::min(copies, view.count(row));
        }
        if (copies == 0) continue;
        quotient_literals += copies * length(q);
        quotient_cubes += copies;
        for (std::size_t i = 0; i < spans_.size(); ++i)
          for (int v = 0; v < words; ++v)
            removed[v] |= generated[i * index(words) + index(v)];
      }
    int removed_literals = 0;
    for (int w = 0; w < words; ++w)
      for (std::uint64_t bits = removed[w]; bits != 0; bits &= bits - 1)
        removed_literals += view.sizes[index(64 * w + std::countr_zero(bits))];
    return removed_literals - quotient_literals - quotient_cubes;
  }

  /// A node's cover changes from `old_cover` (nullptr for a new node) to
  /// `new_cover`: moves the saving of every valid divisor the node can
  /// divide, before or after, by the change in the node's contribution.
  /// Divisors outside this round's scan are invalidated instead, and
  /// re-valued if a later scan reaches them.
  void update_savings(const Cover* old_cover, const NodeView* old_view,
                      const Cover& new_cover, const NodeView& new_view) {
    vars_.clear();
    if (old_view != nullptr)
      std::set_union(old_view->support.begin(), old_view->support.end(),
                     new_view.support.begin(), new_view.support.end(),
                     std::back_inserter(vars_));
    else
      vars_ = new_view.support;
    for (int var : vars_)
      for (int d : index_[index(var)]) {
        DivisorState& state = divisor(d);
        if (!state.valid) continue;
        const IntSpan support = table_.support(d);
        const bool was_user = old_view != nullptr &&
                              includes(old_view->support, support);
        const bool is_user = includes(new_view.support, support);
        if (!was_user && !is_user) continue;
        if (state.scanned != epoch_) {
          state.valid = false;
          continue;
        }
        if (is_user) state.value += saving(new_cover, new_view, d);
        if (was_user) state.value -= saving(*old_cover, *old_view, d);
      }
  }

  /// Adds `best` as node extN and substitutes it into every node whose
  /// support covers its own.
  void substitute(int best) {
    const Cover divisor = table_.cover(best);
    const IntSpan best_support = table_.support(best);
    std::vector<std::pair<NodeId, Cover>> rewrites;
    const NodeId divisor_node = network_.add_node(
        "ext" + std::to_string(stats_.divisors_extracted), divisor);
    for (NodeId id : rarest_users(best_support)) {
      if (!includes(node(id).view.support, best_support))
        continue;
      const Cover& cover = network_.node(id).cover;
      Cover rewritten =
          cover.with_divisor_replaced(divisor, divisor_node).scc_minimized();
      if (rewritten != cover) rewrites.emplace_back(id, std::move(rewritten));
    }
    grow_nodes();

    for (auto& [id, rewritten] : rewrites) {
      NodeView view = view_of(rewritten);
      NodeView& old = node(id).view;
      update_savings(&network_.node(id).cover, &old, rewritten, view);
      for (int var : old.support)
        if (!std::binary_search(view.support.begin(), view.support.end(),
                                var)) {
          auto& list = users_[index(var)];
          list.erase(std::find(list.begin(), list.end(), id));
        }
      for (int var : view.support)
        if (!std::binary_search(old.support.begin(), old.support.end(), var))
          users_[index(var)].push_back(id);
      network_.set_cover(id, std::move(rewritten));
      old = std::move(view);
      node(id).stale = true;
    }
    add_view(divisor_node);
    update_savings(nullptr, nullptr, network_.node(divisor_node).cover,
                   node(divisor_node).view);
    ++stats_.divisors_extracted;
  }

  /// Frees divisors that no list names any more (between rounds only,
  /// so ids in this round's order stay valid while it runs).
  void release_unreferenced() {
    vars_.clear();
    for (int d : unreferenced_) {
      if (!table_.alive(d) || divisor(d).refs != 0) continue;
      vars_.push_back(table_.support(d).front());
      divisor(d).valid = false;
      table_.release(d);
    }
    unreferenced_.clear();
    std::sort(vars_.begin(), vars_.end());
    vars_.erase(std::unique(vars_.begin(), vars_.end()), vars_.end());
    for (int var : vars_)
      std::erase_if(index_[index(var)],
                    [&](int d) { return !table_.alive(d); });
    table_.compact_if_sparse();
  }

  SopNetwork& network_;
  const ExtractOptions& options_;
  ExtractStats& stats_;
  DivisorTable table_;

  std::vector<DivisorState> divisors_;  // by divisor id

  std::vector<NodeState> nodes_;  // by node id
  std::vector<std::vector<NodeId>> users_;  // by variable id
  std::vector<std::vector<int>> index_;     // by variable id

  std::uint32_t epoch_ = 0;
  std::uint32_t list_epoch_ = 0;
  std::vector<int> order_;
  std::vector<int> unreferenced_;

  // Buffers reused across calls.
  std::vector<int> common_;
  std::vector<int> vars_;
  std::vector<IntSpan> spans_;
  std::vector<int> quotient_;
  std::vector<std::uint64_t> masks_;
};

}  // namespace

ExtractStats extract_divisors(sop::SopNetwork& network,
                              const ExtractOptions& options) {
  OBS_SPAN("opt.extract");
  ExtractStats stats;
  stats.literals_before = network.total_literals();
  Extractor extractor(network, options, stats);
  for (int round = 0; round < options.max_rounds; ++round)
    if (!extractor.round()) break;
  stats.literals_after = network.total_literals();
  return stats;
}

}  // namespace chortle::opt
