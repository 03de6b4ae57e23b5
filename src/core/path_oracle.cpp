#include "core/path_oracle.hpp"

#include <algorithm>

#include "core/validate.hpp"

namespace capsp {

Vertex next_hop_via(const Graph& graph, Vertex u, Vertex v,
                    const DistFn& dist) {
  const Vertex n = graph.num_vertices();
  CAPSP_CHECK(u >= 0 && u < n && v >= 0 && v < n);
  if (u == v) return v;
  const Dist target = dist(u, v);
  if (is_inf(target)) return -1;
  Vertex best = -1;
  Dist best_through = kInf;
  for (const auto& nb : graph.neighbors(u)) {
    const Dist through = nb.weight + dist(nb.to, v);
    if (through < best_through) {
      best_through = through;
      best = nb.to;
    }
  }
  CAPSP_CHECK_MSG(best >= 0 && dist_close(best_through, target),
                  "inconsistent distance matrix at (" << u << "," << v
                                                      << "): best through "
                                                      << best_through
                                                      << " vs " << target);
  return best;
}

std::vector<Vertex> shortest_path_via(const Graph& graph, Vertex u, Vertex v,
                                      const DistFn& dist) {
  if (is_inf(dist(u, v))) return {};
  std::vector<Vertex> path{u};
  Vertex cursor = u;
  // A shortest path visits each vertex at most once; anything longer means
  // the matrix is inconsistent with the graph.
  for (Vertex steps = 0; cursor != v; ++steps) {
    CAPSP_CHECK_MSG(steps < graph.num_vertices(),
                    "path reconstruction looped; inconsistent inputs");
    cursor = next_hop_via(graph, cursor, v, dist);
    path.push_back(cursor);
  }
  return path;
}

PathOracle::PathOracle(Graph graph, DistBlock distances)
    : graph_(std::move(graph)), distances_(std::move(distances)) {
  const Vertex n = graph_.num_vertices();
  CAPSP_CHECK_MSG(distances_.rows() == n && distances_.cols() == n,
                  "distance matrix is " << distances_.rows() << "x"
                                        << distances_.cols() << ", graph has "
                                        << n << " vertices");
  for (Vertex v = 0; v < n; ++v)
    CAPSP_CHECK_MSG(distances_.at(v, v) == 0,
                    "nonzero diagonal at vertex " << v);
}

Vertex PathOracle::next_hop(Vertex u, Vertex v) const {
  return next_hop_via(graph_, u, v,
                      [this](Vertex a, Vertex b) {
                        return distances_.at(a, b);
                      });
}

std::vector<Vertex> PathOracle::shortest_path(Vertex u, Vertex v) const {
  return shortest_path_via(graph_, u, v,
                           [this](Vertex a, Vertex b) {
                             return distances_.at(a, b);
                           });
}

Dist PathOracle::path_weight(std::span<const Vertex> path) const {
  CAPSP_CHECK(!path.empty());
  Dist total = 0;
  for (std::size_t i = 0; i + 1 < path.size(); ++i)
    total += graph_.edge_weight(path[i], path[i + 1]);
  return total;
}

std::vector<std::pair<Dist, Vertex>> PathOracle::k_nearest(Vertex u,
                                                           int k) const {
  CAPSP_CHECK(u >= 0 && u < num_vertices());
  CAPSP_CHECK_MSG(k >= 0, "k_nearest wants k >= 0, got " << k);
  // Max-heap of the best k candidates; the pair's lexicographic order is
  // the (distance, vertex id) tie-break, so equal distances keep the
  // smaller id — deterministically, matching the serving layer.
  std::vector<std::pair<Dist, Vertex>> heap;
  const auto cmp = std::less<std::pair<Dist, Vertex>>();
  for (Vertex v = 0; v < num_vertices(); ++v) {
    if (v == u) continue;
    const Dist d = distances_.at(u, v);
    if (is_inf(d)) continue;
    const std::pair<Dist, Vertex> candidate(d, v);
    if (static_cast<int>(heap.size()) < k) {
      heap.push_back(candidate);
      std::push_heap(heap.begin(), heap.end(), cmp);
    } else if (k > 0 && candidate < heap.front()) {
      std::pop_heap(heap.begin(), heap.end(), cmp);
      heap.back() = candidate;
      std::push_heap(heap.begin(), heap.end(), cmp);
    }
  }
  std::sort_heap(heap.begin(), heap.end(), cmp);
  return heap;
}

Dist PathOracle::eccentricity(Vertex u) const {
  CAPSP_CHECK(u >= 0 && u < num_vertices());
  Dist ecc = 0;
  for (Vertex v = 0; v < num_vertices(); ++v) {
    const Dist d = distances_.at(u, v);
    if (!is_inf(d)) ecc = std::max(ecc, d);
  }
  return ecc;
}

Dist PathOracle::diameter() const {
  Dist diameter = 0;
  for (Vertex u = 0; u < num_vertices(); ++u)
    diameter = std::max(diameter, eccentricity(u));
  return diameter;
}

Dist PathOracle::radius() const {
  if (num_vertices() == 0) return 0;
  Dist radius = kInf;
  for (Vertex u = 0; u < num_vertices(); ++u)
    radius = std::min(radius, eccentricity(u));
  return radius;
}

double PathOracle::mean_distance() const {
  double sum = 0;
  std::int64_t pairs = 0;
  for (Vertex u = 0; u < num_vertices(); ++u)
    for (Vertex v = 0; v < num_vertices(); ++v) {
      if (u == v) continue;
      const Dist d = distances_.at(u, v);
      if (is_inf(d)) continue;
      sum += d;
      ++pairs;
    }
  return pairs == 0 ? 0.0 : sum / static_cast<double>(pairs);
}

std::vector<double> PathOracle::closeness_centrality() const {
  std::vector<double> out(static_cast<std::size_t>(num_vertices()), 0.0);
  for (Vertex u = 0; u < num_vertices(); ++u) {
    double sum = 0;
    std::int64_t reach = 0;
    for (Vertex v = 0; v < num_vertices(); ++v) {
      if (u == v) continue;
      const Dist d = distances_.at(u, v);
      if (is_inf(d)) continue;
      sum += d;
      ++reach;
    }
    if (reach > 0 && sum > 0)
      out[static_cast<std::size_t>(u)] = static_cast<double>(reach) / sum;
  }
  return out;
}

}  // namespace capsp
