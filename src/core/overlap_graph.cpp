#include "core/overlap_graph.h"

#include <algorithm>
#include <utility>

namespace mcharge::core {

graph::Graph charging_graph(const model::ChargingProblem& problem) {
  // N_c+(u) is exactly the set of sensors v with distance_sq <= gamma^2
  // (the unit-disk test), sorted and including u itself; the graph is
  // those lists without self. Lists are symmetric because distance_sq is.
  graph::Graph g(problem.size());
  for (std::uint32_t u = 0; u < problem.size(); ++u) {
    for (std::uint32_t v : problem.coverage(u)) {
      if (v > u) g.add_edge(u, v);
    }
  }
  return g;
}

graph::Graph overlap_graph(const model::ChargingProblem& problem,
                           const std::vector<std::uint32_t>& subset) {
  graph::Graph h(subset.size());
  // (w, i) for every sensor w covered by subset[i]; after sorting, each
  // run of equal w lists the members that share w. Two members overlap
  // iff they share some w, so pairs within one run are exactly the
  // overlapping() pairs.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> covered;
  for (std::uint32_t i = 0; i < subset.size(); ++i) {
    for (std::uint32_t w : problem.coverage(subset[i])) {
      covered.emplace_back(w, i);
    }
  }
  std::sort(covered.begin(), covered.end());
  const double reach = 2.0 * problem.gamma();
  const double reach_sq = reach * reach;
  for (std::size_t lo = 0; lo < covered.size();) {
    std::size_t hi = lo + 1;
    while (hi < covered.size() && covered[hi].first == covered[lo].first) {
      ++hi;
    }
    for (std::size_t a = lo; a < hi; ++a) {
      for (std::size_t b = a + 1; b < hi; ++b) {
        const std::uint32_t i = covered[a].second;
        const std::uint32_t j = covered[b].second;
        // Overlapping members lie within 2*gamma of each other; the
        // explicit disk test keeps that true under rounding as well.
        if (geom::distance_sq(problem.position(subset[j]),
                              problem.position(subset[i])) <= reach_sq) {
          h.add_edge(i, j);
        }
      }
    }
    lo = hi;
  }
  return h;
}

}  // namespace mcharge::core
