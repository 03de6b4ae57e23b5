#include "core/validate.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "graph/algorithms.hpp"

namespace capsp {
namespace {

std::string describe(const char* what, Vertex u, Vertex v, Dist got,
                     Dist want) {
  std::ostringstream os;
  os << what << " at (" << u << "," << v << "): " << got
     << " vs expected " << want;
  return os.str();
}

}  // namespace

bool dist_close(Dist a, Dist b, double tolerance) {
  if (is_inf(a) || is_inf(b)) return is_inf(a) == is_inf(b);
  return std::abs(a - b) <=
         tolerance * std::max({1.0, std::abs(a), std::abs(b)});
}

ValidationReport validate_apsp(const Graph& graph, const DistBlock& dist,
                               double tolerance) {
  const Vertex n = graph.num_vertices();
  ValidationReport report;
  auto fail = [&](std::string why) {
    report.ok = false;
    report.problem = std::move(why);
    return report;
  };

  // (1) shape, diagonal, symmetry.
  if (dist.rows() != n || dist.cols() != n)
    return fail("matrix shape does not match the graph");
  for (Vertex v = 0; v < n; ++v)
    if (dist.at(v, v) != 0)
      return fail(describe("nonzero diagonal", v, v, dist.at(v, v), 0));
  for (Vertex u = 0; u < n; ++u)
    for (Vertex v = u + 1; v < n; ++v)
      if (!dist_close(dist.at(u, v), dist.at(v, u), tolerance))
        return fail(describe("asymmetry", u, v, dist.at(u, v),
                             dist.at(v, u)));

  // (4) reachability pattern must match the graph's components.
  const auto component = connected_components(graph);
  for (Vertex u = 0; u < n; ++u)
    for (Vertex v = 0; v < n; ++v) {
      const bool connected = component[static_cast<std::size_t>(u)] ==
                             component[static_cast<std::size_t>(v)];
      if (connected == is_inf(dist.at(u, v)))
        return fail(describe(connected ? "infinite within a component"
                                       : "finite across components",
                             u, v, dist.at(u, v), connected ? 0 : kInf));
    }

  // (2) relaxation consistency: no edge may improve any entry.
  for (Vertex x = 0; x < n; ++x) {
    for (const auto& nb : graph.neighbors(x)) {
      if (nb.weight < 0)
        return fail("negative edge weight: certificate requires "
                    "non-negative weights");
      for (Vertex u = 0; u < n; ++u) {
        const Dist through = dist.at(u, x) + nb.weight;
        if (dist.at(u, nb.to) > through &&
            !dist_close(dist.at(u, nb.to), through, tolerance))
          return fail(describe("relaxable entry (too large)", u, nb.to,
                               dist.at(u, nb.to), through));
      }
    }
  }

  // (3) attainability: every finite off-diagonal value is realized
  // through some final edge.
  for (Vertex v = 0; v < n; ++v) {
    for (Vertex u = 0; u < n; ++u) {
      if (u == v || is_inf(dist.at(u, v))) continue;
      bool attained = false;
      for (const auto& nb : graph.neighbors(v)) {
        if (dist_close(dist.at(u, v), dist.at(u, nb.to) + nb.weight,
                  tolerance)) {
          attained = true;
          break;
        }
      }
      if (!attained)
        return fail(describe("unattained entry (too small)", u, v,
                             dist.at(u, v), kInf));
    }
  }
  return report;
}

}  // namespace capsp
