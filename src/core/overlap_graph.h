// Construction of the paper's two auxiliary graphs.
//
//  * G_c — the charging graph: vertices are the to-be-charged sensors, an
//    edge joins two sensors within charging radius gamma (Section IV).
//  * H — the overlap graph on a subset S of sensors: an edge joins u, v in
//    S whenever N_c+(u) and N_c+(v) intersect, i.e. two MCVs parked at u
//    and v could energize a common sensor (gamma < d(u,v) < 2*gamma when S
//    is independent in G_c).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "model/charging_problem.h"

namespace mcharge::core {

/// G_c over all sensors of the problem, read off the coverage lists
/// N_c+(v) the problem already holds (no spatial index is built).
graph::Graph charging_graph(const model::ChargingProblem& problem);

/// H over `subset` (sensor ids of the problem). Vertex i of the result
/// corresponds to subset[i]. Two members are joined iff their coverage
/// lists share a sensor (ChargingProblem::overlapping) and they lie within
/// 2*gamma of each other; pairs are enumerated per shared sensor, so the
/// cost is the total coverage size of the subset, not a grid build.
graph::Graph overlap_graph(const model::ChargingProblem& problem,
                           const std::vector<std::uint32_t>& subset);

}  // namespace mcharge::core
