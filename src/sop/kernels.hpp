// Kernel extraction in the algebraic model (Brayton & McMullen).
// A kernel of a cover F is a cube-free quotient F / c for some cube c
// (the co-kernel). Level-0 kernels have no kernels but themselves.
//
// Used twice in this project:
//  * the MIS-substitute optimizer extracts kernel divisors to reduce
//    literal count, and
//  * the baseline mapper's incomplete K=4/5 libraries are built from
//    "all level-0 kernels with K or fewer literals and their duals"
//    exactly as described in §4.1 of the paper.
#pragma once

#include <limits>
#include <vector>

#include "sop/cover.hpp"

namespace chortle::sop {

struct KernelEntry {
  Cover kernel;    // cube-free
  Cube co_kernel;  // F / co_kernel == kernel (one witness; not unique)
};

/// All kernels of `cover`, including the cover itself when cube-free.
/// Duplicate kernels (same cover reached via different co-kernels) are
/// reported once. Kernels of more than `max_cubes` cubes are not kept,
/// which leaves the order of the others unchanged.
std::vector<KernelEntry> find_kernels(
    const Cover& cover, int max_cubes = std::numeric_limits<int>::max());

/// True iff `kernel` is level-0: no literal appears in two or more cubes.
bool is_level0_kernel(const Cover& kernel);

/// Only the level-0 kernels of `cover`.
std::vector<KernelEntry> find_level0_kernels(const Cover& cover);

}  // namespace chortle::sop
