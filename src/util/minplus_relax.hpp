// The min-plus relaxation row, c[j] ← min(c[j], aik + b[j]): the inner
// loop of every min-plus kernel (semiring/kernels.cpp) and of the
// profiler's compute-roof probe (util/prof.cpp).  It lives in util so the
// probe times exactly the loop the kernels run without util depending on
// semiring.
//
// Include it only from translation units compiled with -fopenmp-simd: GCC
// at -O2 leaves this loop scalar without the `omp simd` pragma.  The flag
// enables the pragma only; it links no OpenMP runtime.
#pragma once

#include <cstdint>

/// Runtime ISA dispatch for the functions that inline relax_row: GCC
/// compiles one clone per target plus an ifunc resolver that binds the
/// best clone the CPU supports at load time.  `default` keeps the build
/// portable.
#define CAPSP_MINPLUS_CLONES \
  __attribute__((target_clones("avx512f", "avx2", "default")))

namespace capsp {

/// c[j] ← min(c[j], aik + b[j]) for j in [0, n).  The select is exactly
/// vminpd(cand, c[j]), so ties, ±0, ∞ and NaN resolve as the scalar
/// `if (cand < c[j]) c[j] = cand` does.  `c == b` (a row relaxed through
/// itself) is allowed: lane j reads and writes index j only.
inline void relax_row(double* c, const double* b, double aik,
                      std::int64_t n) {
#pragma omp simd
  for (std::int64_t j = 0; j < n; ++j) {
    const double cand = aik + b[j];
    c[j] = cand < c[j] ? cand : c[j];
  }
}

}  // namespace capsp
