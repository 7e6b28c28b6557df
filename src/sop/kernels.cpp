#include "sop/kernels.hpp"

#include <algorithm>
#include <set>

namespace chortle::sop {
namespace {

/// All literals occurring in at least `min_count` cubes, ascending.
std::vector<Literal> frequent_literals(const Cover& cover, int min_count) {
  std::set<Literal> all;
  for (const Cube& c : cover.cubes())
    for (Literal lit : c.literals()) all.insert(lit);
  std::vector<Literal> result;
  for (Literal lit : all)
    if (cover.literal_occurrences(lit) >= min_count) result.push_back(lit);
  return result;
}

class KernelFinder {
 public:
  explicit KernelFinder(int max_cubes) : max_cubes_(max_cubes) {}

  std::vector<KernelEntry> run(const Cover& raw) {
    const Cover cover = raw.scc_minimized();
    const Cube common = cover.common_cube();
    const Cover cube_free = cover.made_cube_free();
    if (cube_free.num_cubes() >= 2) add(cube_free, common);
    recurse(cube_free, common, /*min_literal=*/-1);
    return std::move(entries_);
  }

 private:
  void recurse(const Cover& cover, const Cube& co_kernel, Literal min_literal) {
    for (Literal lit : frequent_literals(cover, 2)) {
      if (lit <= min_literal) continue;
      const Cover quotient = cover.cofactor(lit).scc_minimized();
      const Cube extra = quotient.common_cube();
      // Pruning rule: if the common cube of the quotient contains a
      // literal smaller than `lit`, this kernel was (or will be) found
      // through that literal already.
      const bool already_seen = std::any_of(
          extra.literals().begin(), extra.literals().end(),
          [&](Literal other) { return other < lit; });
      if (already_seen) continue;
      const Cover kernel = quotient.made_cube_free();
      auto full_co = co_kernel.conjunction(
          Cube(std::vector<Literal>{lit}));
      CHORTLE_CHECK(full_co.has_value());
      auto deeper_co = full_co->conjunction(extra);
      CHORTLE_CHECK(deeper_co.has_value());
      if (kernel.num_cubes() >= 2) add(kernel, *deeper_co);
      recurse(kernel, *deeper_co, lit);
    }
  }

  void add(const Cover& kernel, const Cube& co_kernel) {
    const Cover canonical = kernel.scc_minimized();
    if (canonical.num_cubes() > max_cubes_) return;
    if (!seen_.insert(canonical.cubes()).second) return;
    entries_.push_back({canonical, co_kernel});
  }

  int max_cubes_;
  std::set<std::vector<Cube>> seen_;
  std::vector<KernelEntry> entries_;
};

}  // namespace

std::vector<KernelEntry> find_kernels(const Cover& cover, int max_cubes) {
  return KernelFinder(max_cubes).run(cover);
}

bool is_level0_kernel(const Cover& kernel) {
  for (const Cube& c : kernel.cubes())
    for (Literal lit : c.literals())
      if (kernel.literal_occurrences(lit) >= 2) return false;
  return true;
}

std::vector<KernelEntry> find_level0_kernels(const Cover& cover) {
  std::vector<KernelEntry> all = find_kernels(cover);
  std::vector<KernelEntry> level0;
  for (auto& entry : all)
    if (is_level0_kernel(entry.kernel)) level0.push_back(std::move(entry));
  return level0;
}

}  // namespace chortle::sop
