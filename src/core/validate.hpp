// Certificate checking for APSP results (a "certifying algorithm"
// companion in the LEDA tradition): verify that a distance matrix is
// *exactly* the all-pairs shortest distances of a graph in O(n·m + n²)
// — asymptotically cheaper than recomputing (O(n·m·log n) Dijkstra or
// O(n³) FW) and independent of every solver in this repository, so it
// can arbitrate between them.
//
// The certificate (for non-negative undirected weights):
//   (1) shape n×n, D(v,v) = 0, D symmetric;
//   (2) relaxation consistency: for every edge {x,y} and every source u,
//       D(u,y) <= D(u,x) + w(x,y)       — no edge can improve anything,
//       so D is an upper-bound-stable labeling ⇒ D(u,v) <= dist(u,v)
//       can't happen below... combined with (3):
//   (3) attainability: for every u != v with D(u,v) finite, some neighbor
//       x of v has D(u,v) = D(u,x) + w(x,v) — every finite value is the
//       length of an actual walk ⇒ D(u,v) >= dist(u,v);
//   (4) reachability: D(u,v) finite exactly when u, v share a component.
// (2)+(3)+(4) together imply D(u,v) = dist(u,v) for all pairs.
#pragma once

#include <string>

#include "graph/graph.hpp"
#include "semiring/block.hpp"

namespace capsp {

struct ValidationReport {
  bool ok = true;
  std::string problem;  ///< empty when ok; first violation otherwise

  explicit operator bool() const { return ok; }
};

/// Distances equal up to `tolerance`, relative to max(1, |a|, |b|); two
/// infinities are equal.
bool dist_close(Dist a, Dist b, double tolerance = 1e-9);

/// Check the full certificate.  Tolerance handles accumulated floating-
/// point error for real-valued weights (exact for integer weights).
ValidationReport validate_apsp(const Graph& graph, const DistBlock& dist,
                               double tolerance = 1e-9);

}  // namespace capsp
