// Graph-level solvers over general closed semirings: bottleneck (widest)
// paths and transitive closure, both solved by the same elimination
// machinery as the shortest-path code — demonstrating Carré's point
// (the paper's reference [8]) that the whole pipeline is semiring-generic.
#pragma once

#include "graph/graph.hpp"
#include "partition/nested_dissection.hpp"
#include "semiring/block.hpp"

namespace capsp {

/// Widest-path (bottleneck) matrix: entry (u,v) is the maximum over
/// u→v paths of the minimum edge weight on the path; +inf on the
/// diagonal, 0 when unreachable.  Edge weights act as capacities and
/// must be positive.
DistBlock bottleneck_apsp(const Graph& graph);

/// Reachability matrix: entry (u,v) is 1 when a path exists, 0
/// otherwise (diagonal 1).
DistBlock transitive_closure(const Graph& graph);

/// Bottleneck matrix computed by SuperFW over the MaxMin semiring (the
/// level-by-level elimination of Algorithm 1, different algebra) — must
/// equal bottleneck_apsp, which
/// the tests assert.  Exists to machine-check that the paper's schedule
/// is semiring-generic, not min-plus-specific.
DistBlock bottleneck_apsp_supernodal(const Graph& graph,
                                     const Dissection& nd);

/// Reference oracle: widest path via a maximizing Dijkstra variant.
std::vector<Dist> widest_path_sssp(const Graph& graph, Vertex source);

}  // namespace capsp
