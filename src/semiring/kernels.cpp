#include "semiring/kernels.hpp"

#include <algorithm>
#include <type_traits>

#include "util/metrics.hpp"
#include "util/minplus_relax.hpp"
#include "util/prof.hpp"

namespace capsp {

static_assert(std::is_same_v<Dist, double>,
              "relax_row is the double-precision min-plus row");

namespace {

// The kernel bodies below are compiled once per CAPSP_MINPLUS_CLONES target
// and dispatched at load time; only the j loop (relax_row) is vectorized.
// The i/k order is part of the result: with C aliasing A (R² column
// panels) a(i,k) is read after earlier k have updated row i, so both the
// distances and the skip count depend on it.

CAPSP_MINPLUS_CLONES
std::int64_t fw_body(DistBlock& a) {
  const std::int64_t n = a.rows();
  std::int64_t ops = 0;
  for (std::int64_t k = 0; k < n; ++k) {
    const Dist* rk = a.row(k);
    for (std::int64_t i = 0; i < n; ++i) {
      const Dist aik = a.at(i, k);
      if (is_inf(aik)) continue;  // row i cannot improve through k
      relax_row(a.row(i), rk, aik, n);
      ops += n;
    }
  }
  return ops;
}

CAPSP_MINPLUS_CLONES
std::int64_t accumulate_body(DistBlock& c, const DistBlock& a,
                             const DistBlock& b) {
  const std::int64_t m = a.rows(), kk = a.cols(), nn = b.cols();
  std::int64_t ops = 0;
  // i-k-j loop order: B and C rows stream contiguously; skip infinite a(i,k)
  // so "empty" sub-structure costs nothing (the sparsity the paper exploits).
  for (std::int64_t i = 0; i < m; ++i) {
    Dist* ci = c.row(i);
    const Dist* ai = a.row(i);
    for (std::int64_t k = 0; k < kk; ++k) {
      const Dist aik = ai[k];
      if (is_inf(aik)) continue;
      relax_row(ci, b.row(k), aik, nn);
      ops += nn;
    }
  }
  return ops;
}

CAPSP_MINPLUS_CLONES
void min_body(Dist* c, const Dist* other, std::size_t n) {
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) c[i] = tropical_min(c[i], other[i]);
}

}  // namespace

std::int64_t classical_fw(DistBlock& a) {
  CAPSP_CHECK(a.rows() == a.cols());
  ProfScope prof("semiring.classical_fw");
  const std::int64_t n = a.rows();
  const std::int64_t ops = fw_body(a);
  metrics().counter_add("semiring.kernels.fw_ops", ops);
  metrics().observe("semiring.kernels.block_dim", static_cast<double>(n));
  prof.add_ops(ops);
  prof.add_bytes(n * n * static_cast<std::int64_t>(sizeof(Dist)));
  return ops;
}

std::int64_t minplus_accumulate(DistBlock& c, const DistBlock& a,
                                const DistBlock& b) {
  CAPSP_CHECK_MSG(a.cols() == b.rows(),
                  "inner dims " << a.cols() << " vs " << b.rows());
  CAPSP_CHECK(c.rows() == a.rows() && c.cols() == b.cols());
  ProfScope prof("semiring.minplus");
  const std::int64_t m = a.rows(), kk = a.cols(), nn = b.cols();
  // An all-infinite operand contributes nothing: the product is empty and
  // the whole multiply is skipped (the sparsity saving of Sec. 4.1).  The
  // O(k·n) scan is negligible against the O(m·k·n) multiply it can avoid.
  if (m == 0 || nn == 0) return 0;
  if (b.all_infinite()) {
    metrics().counter_add("semiring.kernels.empty_skips");
    return 0;
  }
  const std::int64_t ops = accumulate_body(c, a, b);
  metrics().counter_add("semiring.kernels.minplus_ops", ops);
  prof.add_ops(ops);
  prof.add_bytes((m * kk + kk * nn + m * nn) *
                 static_cast<std::int64_t>(sizeof(Dist)));
  return ops;
}

namespace {

/// View stitching for blocked_fw: copy tile (bi, bj) out of / into `a`.
DistBlock load_tile(const DistBlock& a, std::int64_t tile, std::int64_t bi,
                    std::int64_t bj) {
  const std::int64_t n = a.rows();
  const std::int64_t r0 = bi * tile, c0 = bj * tile;
  return a.sub_block(r0, c0, std::min(tile, n - r0), std::min(tile, n - c0));
}

void store_tile(DistBlock& a, std::int64_t tile, std::int64_t bi,
                std::int64_t bj, const DistBlock& t) {
  a.set_sub_block(bi * tile, bj * tile, t);
}

}  // namespace

std::int64_t blocked_fw(DistBlock& a, std::int64_t tile) {
  CAPSP_CHECK(a.rows() == a.cols());
  CAPSP_CHECK(tile >= 1);
  ProfScope prof("semiring.blocked_fw");
  const std::int64_t n = a.rows();
  const std::int64_t nb = (n + tile - 1) / tile;
  std::int64_t ops = 0;
  for (std::int64_t k = 0; k < nb; ++k) {
    // Diagonal update.
    DistBlock akk = load_tile(a, tile, k, k);
    ops += classical_fw(akk);
    store_tile(a, tile, k, k, akk);
    // Panel updates.
    for (std::int64_t i = 0; i < nb; ++i) {
      if (i == k) continue;
      DistBlock aik = load_tile(a, tile, i, k);
      ops += minplus_accumulate(aik, aik, akk);
      store_tile(a, tile, i, k, aik);
      DistBlock aki = load_tile(a, tile, k, i);
      ops += minplus_accumulate(aki, akk, aki);
      store_tile(a, tile, k, i, aki);
    }
    // Min-plus outer product.
    for (std::int64_t i = 0; i < nb; ++i) {
      if (i == k) continue;
      const DistBlock aik = load_tile(a, tile, i, k);
      if (aik.all_infinite()) {
        metrics().counter_add("semiring.kernels.empty_skips");
        continue;  // empty block: skip the whole row
      }
      for (std::int64_t j = 0; j < nb; ++j) {
        if (j == k) continue;
        DistBlock aij = load_tile(a, tile, i, j);
        const DistBlock akj = load_tile(a, tile, k, j);
        ops += minplus_accumulate(aij, aik, akj);
        store_tile(a, tile, i, j, aij);
      }
    }
  }
  return ops;
}

void elementwise_min(DistBlock& c, const DistBlock& other) {
  CAPSP_CHECK(c.rows() == other.rows() && c.cols() == other.cols());
  ProfScope prof("semiring.elementwise_min");
  auto cd = c.data();
  auto od = other.data();
  min_body(cd.data(), od.data(), cd.size());
  prof.add_ops(static_cast<std::int64_t>(cd.size()));
  prof.add_bytes(static_cast<std::int64_t>(cd.size()) * 3 *
                 static_cast<std::int64_t>(sizeof(Dist)));
}

}  // namespace capsp
