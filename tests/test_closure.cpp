// Tests for the closed-semiring generalization: semiring laws, the
// generic kernels against naive references, the vectorized min-plus
// kernels against the generic reference, bottleneck paths against a
// maximizing-Dijkstra oracle, transitive closure against BFS, and the
// key structural claim — the supernodal elimination schedule is
// semiring-generic (Carré), verified by running it over MaxMin.
#include <gtest/gtest.h>

#include <cstring>
#include <iterator>

#include "core/closure.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "semiring/kernels.hpp"
#include "semiring/semirings.hpp"

namespace capsp {
namespace {

template <typename S>
void check_semiring_laws(const std::vector<Dist>& values) {
  for (Dist a : values) {
    // Identities.
    EXPECT_EQ(S::plus(a, S::zero()), a);
    EXPECT_EQ(S::plus(S::zero(), a), a);
    EXPECT_EQ(S::times(a, S::one()), a);
    EXPECT_EQ(S::times(S::one(), a), a);
    // 0̄ annihilates ⊗.
    EXPECT_EQ(S::times(a, S::zero()), S::zero());
    EXPECT_EQ(S::times(S::zero(), a), S::zero());
    EXPECT_TRUE(S::is_zero(S::zero()));
    for (Dist b : values) {
      EXPECT_EQ(S::plus(a, b), S::plus(b, a));
      EXPECT_EQ(S::times(a, b), S::times(b, a));  // all three commute
      // improves() is consistent with ⊕.
      if (S::improves(a, b)) {
        EXPECT_EQ(S::plus(a, b), a);
      }
      for (Dist c : values) {
        EXPECT_EQ(S::plus(S::plus(a, b), c), S::plus(a, S::plus(b, c)));
        EXPECT_EQ(S::times(S::times(a, b), c), S::times(a, S::times(b, c)));
        // Distributivity.
        EXPECT_EQ(S::times(a, S::plus(b, c)),
                  S::plus(S::times(a, b), S::times(a, c)));
      }
    }
  }
}

TEST(Semirings, MinPlusLaws) {
  check_semiring_laws<MinPlusSemiring>({0, 1, 2.5, 7, kInf});
}

TEST(Semirings, MaxMinLaws) {
  check_semiring_laws<MaxMinSemiring>({0, 1, 2.5, 7, kInf});
}

TEST(Semirings, BoolLaws) { check_semiring_laws<BoolSemiring>({0, 1}); }

TEST(Semirings, GenericFwInstantiatesMinPlusIdentically) {
  Rng rng(1);
  const Graph graph = make_erdos_renyi(25, 3.0, rng);
  DistBlock generic(graph.num_vertices(), graph.num_vertices(), kInf);
  for (Vertex v = 0; v < graph.num_vertices(); ++v) {
    generic.at(v, v) = 0;
    for (const auto& nb : graph.neighbors(v))
      generic.at(v, nb.to) = nb.weight;
  }
  DistBlock specialized = generic;
  const std::int64_t generic_ops = semiring_fw<MinPlusSemiring>(generic);
  const std::int64_t special_ops = classical_fw(specialized);
  EXPECT_EQ(generic, specialized);
  EXPECT_EQ(generic_ops, special_ops);
}

// ---- The vectorized min-plus kernels vs the generic reference ----
//
// semiring/kernels.cpp is the only min-plus kernel set the solver runs;
// the semiring_*<MinPlusSemiring> templates are the scalar reference.
// Every comparison is bit for bit (memcmp, so -0 vs +0 counts) with equal
// op counts.  The ISA clone is the one the load-time dispatcher picks for
// this host (the clones are internal symbols); widths 1-17, 63 and 65 run
// the vector tails of every clone width (2, 4 and 8 lanes).

constexpr std::int64_t kWidths[] = {1,  2,  3,  4,  5,  6,  7,  8,  9, 10,
                                    11, 12, 13, 14, 15, 16, 17, 63, 65};

/// kWidths plus the empty extent.
std::vector<std::int64_t> extents_with_zero() {
  std::vector<std::int64_t> extents{0};
  extents.insert(extents.end(), std::begin(kWidths), std::end(kWidths));
  return extents;
}

/// ∞ (a quarter of entries), +0 and -0, small negative weights (directed
/// graphs) and fractional positive weights.
Dist adversarial_value(Rng& rng) {
  switch (rng.uniform(8)) {
    case 0:
    case 1:
      return kInf;
    case 2:
      return 0.0;
    case 3:
      return -0.0;
    case 4:
      return -static_cast<Dist>(1 + rng.uniform(4));
    default:
      return static_cast<Dist>(rng.uniform(1000)) / 8;
  }
}

/// Random adversarial block with one all-∞ row and one all-∞ column
/// where the shape has room for them.
DistBlock adversarial_block(std::int64_t rows, std::int64_t cols, Rng& rng) {
  DistBlock block(rows, cols);
  for (Dist& d : block.data()) d = adversarial_value(rng);
  if (rows > 2)
    for (std::int64_t c = 0; c < cols; ++c) block.at(rows / 2, c) = kInf;
  if (cols > 2)
    for (std::int64_t r = 0; r < rows; ++r) block.at(r, cols / 2) = kInf;
  return block;
}

void expect_bit_identical(const DistBlock& got, const DistBlock& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  if (got.empty()) return;
  EXPECT_EQ(std::memcmp(got.data().data(), want.data().data(),
                        got.data().size_bytes()),
            0);
}

/// C ← C ⊕ A ⊗ B through both kernels, from the same inputs.
void check_accumulate(DistBlock c, const DistBlock& a, const DistBlock& b) {
  DistBlock want = c;
  const std::int64_t want_ops =
      semiring_accumulate<MinPlusSemiring>(want, a, b);
  EXPECT_EQ(minplus_accumulate(c, a, b), want_ops);
  expect_bit_identical(c, want);
}

TEST(MinPlusKernels, SolverBindsTheVectorizedSet) {
  const SemiringKernels kernels = SemiringKernels::of<MinPlusSemiring>();
  EXPECT_TRUE(kernels.fw == &classical_fw);
  EXPECT_TRUE(kernels.accumulate == &minplus_accumulate);
  EXPECT_TRUE(kernels.combine == &elementwise_min);
  EXPECT_EQ(kernels.zero, kInf);
  EXPECT_EQ(kernels.one, 0);
}

TEST(MinPlusKernels, FwMatchesGenericBitForBit) {
  Rng rng(41);
  for (std::int64_t n : extents_with_zero()) {
    SCOPED_TRACE(n);
    DistBlock got = adversarial_block(n, n, rng);
    DistBlock want = got;
    const std::int64_t want_ops = semiring_fw<MinPlusSemiring>(want);
    EXPECT_EQ(classical_fw(got), want_ops);
    expect_bit_identical(got, want);
  }
}

TEST(MinPlusKernels, AccumulateMatchesGenericOnEveryShape) {
  Rng rng(42);
  // 0×N, 1×N and N×1 operands, an empty inner dimension, and full blocks.
  for (std::int64_t m : {0, 1, 5})
    for (std::int64_t kk : {0, 1, 7})
      for (std::int64_t nn : extents_with_zero()) {
        SCOPED_TRACE(testing::Message() << m << "x" << kk << "x" << nn);
        check_accumulate(adversarial_block(m, nn, rng),
                         adversarial_block(m, kk, rng),
                         adversarial_block(kk, nn, rng));
        check_accumulate(adversarial_block(nn, m, rng),
                         adversarial_block(nn, kk, rng),
                         adversarial_block(kk, m, rng));
      }
}

TEST(MinPlusKernels, AllInfiniteOperandsMatchGeneric) {
  Rng rng(43);
  for (std::int64_t n : kWidths) {
    SCOPED_TRACE(n);
    // An all-∞ B is the empty skip: no ops, C untouched.
    const DistBlock c = adversarial_block(n, n, rng);
    DistBlock got = c;
    EXPECT_EQ(minplus_accumulate(got, adversarial_block(n, n, rng),
                                 DistBlock(n, n)),
              0);
    expect_bit_identical(got, c);
    check_accumulate(c, adversarial_block(n, n, rng), DistBlock(n, n));
    // An all-∞ A skips every (i,k) pair one by one.
    check_accumulate(c, DistBlock(n, n), adversarial_block(n, n, rng));
  }
}

TEST(MinPlusKernels, AliasedPanelUpdatesMatchGeneric) {
  // R² runs accumulate(local, local, akk) (C is A) and
  // accumulate(local, akk, local) (C is B); both read rows the same call
  // has already updated, so the result depends on the i-k-j order.
  Rng rng(44);
  for (std::int64_t n : kWidths)
    for (std::int64_t m : {std::int64_t{1}, std::int64_t{5}, n}) {
      SCOPED_TRACE(testing::Message() << m << "x" << n);
      const DistBlock panel = adversarial_block(m, n, rng);

      DistBlock got = panel, want = panel;
      const DistBlock akk_right = adversarial_block(n, n, rng);
      const std::int64_t want_a =
          semiring_accumulate<MinPlusSemiring>(want, want, akk_right);
      EXPECT_EQ(minplus_accumulate(got, got, akk_right), want_a);
      expect_bit_identical(got, want);

      got = panel;
      want = panel;
      const DistBlock akk_left = adversarial_block(m, m, rng);
      const std::int64_t want_b =
          semiring_accumulate<MinPlusSemiring>(want, akk_left, want);
      EXPECT_EQ(minplus_accumulate(got, akk_left, got), want_b);
      expect_bit_identical(got, want);
    }
}

TEST(MinPlusKernels, ElementwiseMinMatchesGeneric) {
  Rng rng(45);
  for (std::int64_t n : extents_with_zero()) {
    SCOPED_TRACE(n);
    const DistBlock other = adversarial_block(3, n, rng);
    DistBlock got = adversarial_block(3, n, rng);
    DistBlock want = got;
    semiring_elementwise_plus<MinPlusSemiring>(want, other);
    elementwise_min(got, other);
    expect_bit_identical(got, want);
  }
}

TEST(Semirings, GenericAccumulateSkipsZeroOperands) {
  DistBlock a(4, 4, MaxMinSemiring::zero());  // all 0̄ = no capacity
  DistBlock b(4, 4, 5.0);
  DistBlock c(4, 4, MaxMinSemiring::zero());
  EXPECT_EQ((semiring_accumulate<MaxMinSemiring>(c, a, b)), 0);
  EXPECT_EQ((semiring_accumulate<MaxMinSemiring>(c, b, a)), 0);
}

TEST(Bottleneck, TinyExample) {
  // 0 -2- 1 -5- 2 and 0 -3- 2: widest 0→2 is min(3)=3 direct vs
  // min(2,5)=2 via 1 → 3.
  GraphBuilder builder(3);
  builder.add_edge(0, 1, 2);
  builder.add_edge(1, 2, 5);
  builder.add_edge(0, 2, 3);
  const Graph graph = std::move(builder).build();
  const DistBlock width = bottleneck_apsp(graph);
  EXPECT_EQ(width.at(0, 2), 3);   // direct 3 beats min(2,5) = 2 via 1
  EXPECT_EQ(width.at(0, 1), 3);   // detour 0-2-1 (min(3,5) = 3) beats 2
  EXPECT_EQ(width.at(1, 2), 5);
}

TEST(Bottleneck, PrefersHighCapacityDetour) {
  // Direct low-capacity edge vs a wide detour.
  GraphBuilder builder(3);
  builder.add_edge(0, 2, 1);   // narrow direct pipe
  builder.add_edge(0, 1, 10);
  builder.add_edge(1, 2, 10);  // wide detour
  const Graph graph = std::move(builder).build();
  const DistBlock width = bottleneck_apsp(graph);
  EXPECT_EQ(width.at(0, 2), 10);
}

class BottleneckFamilies : public ::testing::TestWithParam<int> {};

TEST_P(BottleneckFamilies, MatchesWidestDijkstra) {
  Rng rng(300 + static_cast<std::uint64_t>(GetParam()));
  WeightOptions opts;
  opts.min_weight = 1;
  opts.max_weight = 20;
  Graph graph;
  switch (GetParam()) {
    case 0: graph = make_grid2d(6, 6, rng, opts); break;
    case 1: graph = make_erdos_renyi(40, 4.0, rng, opts); break;
    case 2: graph = make_random_tree(40, rng, opts); break;
    default: graph = make_random_geometric(36, 0.3, rng, opts); break;
  }
  const DistBlock width = bottleneck_apsp(graph);
  for (Vertex s = 0; s < graph.num_vertices(); ++s) {
    const auto oracle = widest_path_sssp(graph, s);
    for (Vertex t = 0; t < graph.num_vertices(); ++t) {
      if (s == t) {
        EXPECT_TRUE(is_inf(width.at(s, t)));
      } else {
        EXPECT_EQ(width.at(s, t), oracle[static_cast<std::size_t>(t)])
            << s << "->" << t;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Families, BottleneckFamilies,
                         ::testing::Range(0, 4));

TEST(Bottleneck, SupernodalScheduleIsSemiringGeneric) {
  // Carré's claim, machine-checked: the identical elimination schedule
  // computes bottleneck paths when run over MaxMin.
  for (int height : {2, 3, 4}) {
    Rng rng(17);
    WeightOptions opts;
    opts.min_weight = 1;
    opts.max_weight = 9;
    const Graph graph = make_grid2d(9, 9, rng, opts);
    Rng nd_rng(18);
    const Dissection nd = nested_dissection(graph, height, nd_rng);
    const DistBlock direct = bottleneck_apsp(graph);
    const DistBlock supernodal = bottleneck_apsp_supernodal(graph, nd);
    EXPECT_EQ(supernodal, direct) << "height " << height;
  }
}

TEST(TransitiveClosure, MatchesComponents) {
  Rng rng(19);
  GraphBuilder builder(30);
  for (Vertex i = 0; i < 9; ++i) {
    builder.add_edge(i, i + 1, 1);
    builder.add_edge(10 + i, 11 + i, 1);
  }
  builder.add_edge(25, 26, 1);
  const Graph graph = std::move(builder).build();
  const DistBlock closure = transitive_closure(graph);
  const auto label = connected_components(graph);
  for (Vertex u = 0; u < 30; ++u)
    for (Vertex v = 0; v < 30; ++v)
      EXPECT_EQ(closure.at(u, v) == 1,
                label[static_cast<std::size_t>(u)] ==
                    label[static_cast<std::size_t>(v)])
          << u << "," << v;
}

TEST(TransitiveClosure, ValuesAreBoolean) {
  Rng rng(20);
  const Graph graph = make_erdos_renyi(40, 2.0, rng);
  const DistBlock closure = transitive_closure(graph);
  for (Dist v : closure.data()) EXPECT_TRUE(v == 0 || v == 1);
}

TEST(Bottleneck, RejectsNonPositiveCapacities) {
  GraphBuilder builder(2);
  builder.add_edge(0, 1, 0.0);
  const Graph graph = std::move(builder).build();
  EXPECT_THROW(bottleneck_apsp(graph), check_error);
}

}  // namespace
}  // namespace capsp
