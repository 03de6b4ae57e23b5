#include "core/sparse_apsp.hpp"

#include <algorithm>
#include <map>
#include <span>
#include <string>

#include "core/cost_oracle.hpp"
#include "core/superfw.hpp"
#include "machine/collectives.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/prof.hpp"
#include "semiring/graph_matrix.hpp"
#include "semiring/kernels.hpp"
#include "semiring/semirings.hpp"

namespace capsp {
namespace {

/// Operands a rank keeps within one region (A, then B), keyed by the
/// level of their non-pivot supernode (see BlockUse).
using Operands = std::map<int, DistBlock>[2];

/// Runs one step of the schedule on a member rank; returns the scalar ⊗
/// operations it performed.
std::int64_t run_step(Comm& comm, const ApspSchedule& schedule,
                      const ScheduleStep& step, BlockUse use,
                      DistBlock& local, Operands& kept,
                      const SemiringKernels& kernels) {
  const ApspLayout& layout = schedule.layout();
  const EliminationTree& tree = layout.tree();
  const bool root = comm.rank() == step.root;
  const auto [rows, cols] = layout.block_shape(step.block.i, step.block.j);
  const auto kept_operand = [&](std::map<int, DistBlock>& side, Snode s)
      -> const DistBlock& {
    const auto found = side.find(tree.level_of(s));
    CAPSP_CHECK_MSG(found != side.end(),
                    "worker " << comm.rank() << " missing unit for block ("
                              << step.block.i << "," << step.block.j
                              << ") at level " << step.level);
    return found->second;
  };
  DistBlock block;
  switch (step.kind) {
    case StepKind::kFw:
      return kernels.fw(local);
    case StepKind::kReduce: {
      DistBlock contribution =
          root ? local : DistBlock(rows, cols, kernels.zero);
      std::int64_t ops = 0;
      if (use == BlockUse::kUnit)
        ops = kernels.accumulate(contribution,
                                 kept_operand(kept[0], step.block.i),
                                 kept_operand(kept[1], step.block.j));
      group_reduce(comm, step.group, step.root, contribution, step.tag,
                   kernels.combine, schedule.collectives());
      if (root) local = std::move(contribution);
      return ops;
    }
    case StepKind::kSend:
      if (root) {
        comm.send_block(step.group[1], step.tag, local);
        return 0;
      }
      block = comm.recv_block(step.root, step.tag, rows, cols);
      break;
    case StepKind::kBroadcast:
      block = root ? local : DistBlock(rows, cols);
      group_broadcast(comm, step.group, step.root, block, step.tag,
                      schedule.collectives());
      break;
  }
  switch (use) {
    case BlockUse::kLeft:
      return kernels.accumulate(local, block, local);
    case BlockUse::kRight:
      return kernels.accumulate(local, local, block);
    case BlockUse::kKeepA:
      kept[0][tree.level_of(step.block.i)] = std::move(block);
      return 0;
    case BlockUse::kKeepB:
      kept[1][tree.level_of(step.block.j)] = std::move(block);
      return 0;
    case BlockUse::kApplyB:
      return kernels.accumulate(
          local, kept_operand(kept[0], layout.block_of(comm.rank()).first),
          block);
    case BlockUse::kMirror:
      local = block.transposed();
      return 0;
    default:  // kRelay; kUnit only occurs on kReduce steps
      return 0;
  }
}

}  // namespace

void sparse_apsp_rank(Comm& comm, const ApspSchedule& schedule,
                      DistBlock& local, std::int64_t* ops_out,
                      std::vector<CostClock>* level_clocks_out,
                      const SemiringKernels& kernels) {
  const std::span<const RankStep> mine = schedule.steps_of(comm.rank());
  std::size_t next = 0;
  std::int64_t ops = 0;

  // Each region runs under its own phase label; when tracing, the scalar
  // ⊗ operations it performed are stamped on the timeline as a compute
  // record (zero cost — the model meters communication only).
  static constexpr std::pair<const char*, const char*> kRegions[] = {
      {"R1", "core.sparse.r1"},
      {"R2", "core.sparse.r2"},
      {"R3", "core.sparse.r3"},
      {"R4", "core.sparse.r4"}};
  for (int l = 1; l <= schedule.layout().tree().height(); ++l) {
    for (std::size_t r = 0; r < std::size(kRegions); ++r) {
      const auto [label, scope] = kRegions[r];
      comm.set_phase("L" + std::to_string(l) + "/" + label);
      ProfScope prof(scope);
      const std::int64_t ops_before = ops;
      Operands kept;
      for (; next < mine.size(); ++next) {
        const ScheduleStep& step = schedule.steps()[mine[next].step];
        if (step.level != l || static_cast<std::size_t>(step.region) != r)
          break;
        ops += run_step(comm, schedule, step, mine[next].use, local, kept,
                        kernels);
      }
      prof.add_ops(ops - ops_before);
      comm.record_compute(ops - ops_before, label);
      metrics().counter_add(std::string("core.sparse.ops_") + label,
                            ops - ops_before);
      // Region completion marker for the flight recorder: a crashed or
      // deadlocked run's dump shows how far each rank got (the phase
      // label itself is stamped by set_phase via the log context).
      CAPSP_LOG(kDebug, "core.sparse.region", {"region", label},
                {"ops", ops - ops_before});
    }
    if (level_clocks_out != nullptr) level_clocks_out->push_back(comm.clock());
  }
  if (ops_out != nullptr) *ops_out = ops;
}

SparseApspResult run_sparse_apsp(const Graph& graph,
                                 const SparseApspOptions& options) {
  Rng rng(options.seed);
  const Dissection nd =
      nested_dissection(graph, options.height, rng, options.bisect);
  return run_sparse_apsp(graph, nd, options);
}

SparseApspResult run_sparse_apsp(const Graph& graph, const Dissection& nd,
                                 const SparseApspOptions& options) {
  return run_sparse_apsp_semiring(
      graph, nd, SemiringKernels::of<MinPlusSemiring>(), options);
}

SparseApspResult run_sparse_apsp_semiring(const Graph& graph,
                                          const Dissection& nd,
                                          const SemiringKernels& kernels,
                                          const SparseApspOptions& options) {
  const ApspLayout layout(nd);
  const ApspSchedule schedule(layout, options.r4_strategy,
                              options.collectives);
  const Graph reordered = apply_dissection(graph, nd);
  const int p = layout.num_ranks();

  SparseApspResult result;
  result.height = nd.tree.height();
  result.num_ranks = p;
  result.separator_size = nd.top_separator_size();

  Machine machine(p);
  machine.enable_tracing(options.trace);
  machine.enable_comm_ledger(options.comm_ledger);
  if (options.fault_plan) machine.set_fault_plan(*options.fault_plan);
  machine.enable_reliable_transport(options.reliable);
  if (options.recv_timeout > 0) machine.set_recv_timeout(options.recv_timeout);
  std::vector<std::vector<CostClock>> level_clocks(
      static_cast<std::size_t>(p));
  result.ops_per_rank.assign(static_cast<std::size_t>(p), 0);
  DistBlock permuted(options.collect_distances ? graph.num_vertices() : 0,
                     options.collect_distances ? graph.num_vertices() : 0);

  machine.run([&](Comm& comm) {
    const auto [i, j] = layout.block_of(comm.rank());
    const VertexRange ri = layout.range_of(i);
    const VertexRange rj = layout.range_of(j);
    comm.set_phase("setup");
    DistBlock local =
        semiring_adjacency_block(reordered, ri.begin, ri.end, rj.begin,
                                 rj.end, kernels.zero, kernels.one);
    comm.reset_clock();

    sparse_apsp_rank(comm, schedule, local,
                     &result.ops_per_rank[static_cast<std::size_t>(
                         comm.rank())],
                     &level_clocks[static_cast<std::size_t>(comm.rank())],
                     kernels);

    comm.stop_clock();
    comm.set_phase("collect");
    if (!options.collect_distances) return;
    const Tag collect_tag = Tag{1} << 41;
    if (comm.rank() != 0) {
      if (!local.empty())
        comm.send_block(0, collect_tag + comm.rank(), local);
    } else {
      for (RankId r = 0; r < p; ++r) {
        const auto [ii, jj] = layout.block_of(r);
        const VertexRange rri = layout.range_of(ii);
        const VertexRange rrj = layout.range_of(jj);
        if (rri.size() == 0 || rrj.size() == 0) continue;
        const DistBlock piece =
            (r == 0) ? local
                     : comm.recv_block(r, collect_tag + r, rri.size(),
                                       rrj.size());
        permuted.set_sub_block(rri.begin, rrj.begin, piece);
      }
    }
  });

  result.costs = machine.report();
  Vertex widest = 0;
  for (Snode s = 1; s <= layout.grid_side(); ++s)
    widest = std::max(widest, layout.size_of(s));
  result.max_block_words = std::int64_t{widest} * widest;
  attach_oracle(result.costs,
                predict_sparse_apsp(static_cast<double>(graph.num_vertices()),
                                    static_cast<double>(result.separator_size),
                                    static_cast<double>(p)));
  metrics().gauge_set("core.sparse.height", result.height);
  metrics().observe("core.sparse.separator_size",
                    static_cast<double>(result.separator_size));
  if (options.trace) result.trace = machine.trace();
  if (options.comm_ledger) {
    result.comm = machine.comm_ledger();
    result.comm_audit = audit_sparse_apsp_comm(
        result.comm, static_cast<double>(graph.num_vertices()),
        static_cast<double>(result.separator_size), static_cast<double>(p),
        result.height);
  }
  result.clock_after_level.assign(static_cast<std::size_t>(nd.tree.height()),
                                  CostClock{});
  for (const auto& per_rank : level_clocks) {
    for (std::size_t l = 0; l < per_rank.size(); ++l)
      result.clock_after_level[l].merge(per_rank[l]);
  }

  if (options.collect_distances)
    result.distances = to_original_order(permuted, nd);
  return result;
}

int recommend_height(const Graph& graph, int max_ranks) {
  CAPSP_CHECK(max_ranks >= 1);
  const auto n = static_cast<std::int64_t>(graph.num_vertices());
  // The simulator supports at most 4096 ranks; never recommend beyond it.
  const std::int64_t budget = std::min<std::int64_t>(max_ranks, 4096);
  int best = 1;
  for (int h = 2; h < 16; ++h) {
    const std::int64_t side = (std::int64_t{1} << h) - 1;
    if (side * side > budget) break;
    // 2^(h-1) leaves; require a few vertices per leaf on average after
    // the separators take their share (≈ half on small-|S| graphs).
    if ((std::int64_t{1} << (h - 1)) * 8 > n) break;
    best = h;
  }
  return best;
}

SparseApspResult run_sparse_bottleneck(const Graph& graph,
                                       const SparseApspOptions& options) {
  CAPSP_CHECK_MSG(graph.min_edge_weight() > 0 || graph.num_edges() == 0,
                  "bottleneck capacities must be positive");
  Rng rng(options.seed);
  const Dissection nd =
      nested_dissection(graph, options.height, rng, options.bisect);
  return run_sparse_apsp_semiring(
      graph, nd, SemiringKernels::of<MaxMinSemiring>(), options);
}

SparseApspResult run_sparse_closure(const Graph& graph,
                                    const SparseApspOptions& options) {
  // Reachability: run the Boolean semiring over a unit-capacity copy of
  // the graph (edge weights are ignored by ∧ on {0,1} once set to 1).
  GraphBuilder builder(graph.num_vertices());
  for (Vertex v = 0; v < graph.num_vertices(); ++v)
    for (const auto& nb : graph.neighbors(v))
      if (v < nb.to) builder.add_edge(v, nb.to, 1.0);
  const Graph unit = std::move(builder).build();
  Rng rng(options.seed);
  const Dissection nd =
      nested_dissection(unit, options.height, rng, options.bisect);
  return run_sparse_apsp_semiring(
      unit, nd, SemiringKernels::of<BoolSemiring>(), options);
}

}  // namespace capsp
