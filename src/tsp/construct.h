// Closed-tour construction heuristics over a TourProblem.
//
// All constructors return a complete tour (a permutation of all sites); the
// depot is implicit at both ends. The TSP is solved over sites + depot; the
// returned order is the cycle cut at the depot.
#pragma once

#include "tsp/tour_problem.h"

namespace mcharge::tsp {

enum class TourBuilder {
  kNearestNeighbor,  ///< start at depot, repeatedly visit nearest unvisited
  kGreedyEdge,       ///< cheapest-edge cycle construction
  kDoubleTree,       ///< MST doubling + Euler shortcut (2-approx on travel)
  kChristofides,     ///< MST + odd-vertex matching + Euler (1.5-approx)
};

Tour nearest_neighbor_tour(const TourProblem& problem);
Tour greedy_edge_tour(const TourProblem& problem);
Tour double_tree_tour(const TourProblem& problem);
/// Christofides: MST + minimum-weight matching on the odd-degree
/// vertices + Euler shortcut. The matching runs on the odd vertices'
/// coordinates through matching::min_weight_euclidean_matching, which is
/// exact at every size, so the 1.5-approximation holds throughout.
Tour christofides_tour(const TourProblem& problem);

/// Dispatch on TourBuilder.
Tour build_tour(const TourProblem& problem, TourBuilder builder);

}  // namespace mcharge::tsp
