// Minimum spanning trees: Prim for dense/complete geometric inputs,
// Kruskal for explicit weighted edge lists.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "geometry/point.h"
#include "util/assert.h"

namespace mcharge::graph {

struct WeightedEdge {
  std::uint32_t u = 0;
  std::uint32_t v = 0;
  double weight = 0.0;
};

/// MST of the complete graph over n vertices with weights from
/// `weight(u, v)`, via Prim in O(n^2). Returns n-1 edges (empty for
/// n <= 1) in the order their endpoints join the tree, starting from
/// vertex 0. Each step relaxes the vertices outside the tree against the
/// newest tree vertex and picks the next one in the same pass: the first
/// (lowest-index) vertex of strictly smallest key.
template <typename WeightFn>
std::vector<WeightedEdge> prim_mst(std::size_t n, WeightFn&& weight) {
  std::vector<WeightedEdge> tree;
  if (n <= 1) return tree;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  tree.reserve(n - 1);
  std::vector<double> best(n, kInf);
  std::vector<std::uint32_t> parent(n, 0);
  std::vector<char> in_tree(n, 0);
  in_tree[0] = 1;
  std::uint32_t added = 0;
  for (std::size_t iter = 1; iter < n; ++iter) {
    std::uint32_t next = 0;
    double next_cost = kInf;
    for (std::uint32_t v = 0; v < n; ++v) {
      if (in_tree[v]) continue;
      const double w = weight(added, v);
      if (w < best[v]) {
        best[v] = w;
        parent[v] = added;
      }
      if (best[v] < next_cost) {
        next_cost = best[v];
        next = v;
      }
    }
    MCHARGE_ASSERT(next_cost < kInf, "prim: graph must be complete");
    in_tree[next] = 1;
    tree.push_back({parent[next], next, best[next]});
    added = next;
  }
  return tree;
}

/// MST of the complete Euclidean graph over `points`.
std::vector<WeightedEdge> euclidean_mst(const std::vector<geom::Point>& points);

/// Kruskal over an explicit edge list. If the graph is disconnected the
/// result is a minimum spanning forest.
std::vector<WeightedEdge> kruskal_mst(std::size_t n,
                                      std::vector<WeightedEdge> edges);

/// Total weight of an edge set.
double total_weight(const std::vector<WeightedEdge>& edges);

}  // namespace mcharge::graph
