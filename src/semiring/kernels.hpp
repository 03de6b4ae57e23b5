// Min-plus kernels: the paper's Sec. 3.3 primitives.
//
// Every kernel returns the number of scalar ⊗ (addition) operations it
// evaluated, so callers can reproduce the op-count claims (e.g. SuperFW's
// O(n/|S|) computation reduction) without instrumenting hot loops twice.
//
// These are the only min-plus kernels: the distributed solver reaches them
// through SemiringKernels::of<MinPlusSemiring>().  Their loops are compiled
// once per ISA (AVX-512F, AVX2, baseline) and the best one the CPU
// supports is bound at load time.
#pragma once

#include <cstdint>

#include "semiring/block.hpp"

namespace capsp {

/// ClassicalFW: in-place Floyd–Warshall on a square block; after the call
/// a(i,j) is the shortest i→j distance using intermediates inside the block.
std::int64_t classical_fw(DistBlock& a);

/// C ← C ⊕ A ⊗ B (min-plus multiply-accumulate), i-k-j order with the
/// row loop vectorized; rows with a(i,k) = ∞ and an all-∞ B are skipped.
/// C may alias A or B (the R² panel updates); the result is then the
/// in-place i-k-j sweep's.
/// Shapes: C is (A.rows × B.cols), A.cols == B.rows.
std::int64_t minplus_accumulate(DistBlock& c, const DistBlock& a,
                                const DistBlock& b);

/// BlockedFW (Sec. 3.3): Floyd–Warshall over an n×n block with internal
/// tile size `tile`: diagonal update, panel updates, min-plus outer product.
std::int64_t blocked_fw(DistBlock& a, std::int64_t tile);

/// c ← c ⊕ other, elementwise (the reduce combiner).
void elementwise_min(DistBlock& c, const DistBlock& other);

}  // namespace capsp
