// Minimum-weight perfect matching on complete graphs with an even number of
// vertices (the matching step of Christofides' TSP construction).
//
// Engines:
//  * exact DP: bitmask dynamic program, O(2^n * n); used for
//    n <= kDpDispatchLimit and, up to kExactLimit, as the reference
//    oracle in tests.
//  * dense blossom (matching/blossom.h): exact O(n^3) primal-dual solver
//    on a materialized (n+1)^2 weight matrix.
//  * sparse blossom (matching/blossom.h): exact price-and-repair solver
//    on a k-NN candidate graph, certified optimal against the complete
//    graph by a SIMD pricing pass over the final duals — same answers as
//    dense, a small fraction of the cost at large n.
//
// min_weight_euclidean_matching routes on size alone, and every engine it
// reaches is exact, so Christofides keeps its 1.5-approximation at every
// size.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "geometry/point.h"
#include "util/assert.h"

namespace mcharge::matching {

using WeightFn = std::function<double(std::uint32_t, std::uint32_t)>;

/// Pairs in a perfect matching; each vertex appears exactly once.
using Matching = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

/// Largest n the exact bitmask DP accepts (its own hard assert: 2^n
/// states are materialized). The tests use it as an oracle up to here.
inline constexpr std::size_t kExactLimit = 16;

/// Largest n the geometric dispatch routes to the DP. Above it the
/// jump-started dense blossom is several times cheaper per call (4 vs
/// 20 us at n = 12, 9 vs 225 us at n = 16 on uniform fields; see
/// EXPERIMENTS.md), so the DP keeps only the smallest sets.
inline constexpr std::size_t kDpDispatchLimit = 10;
static_assert(kDpDispatchLimit <= kExactLimit);

/// Below this size the dispatch prefers the dense engine over the sparse
/// one: the sparse engine's candidate-build + multi-round pricing
/// overhead only amortizes once the (n+1)^2 dense solve is expensive
/// enough. On the reproduction workloads' own odd sets sparse wins above
/// 128 and dense below it (see EXPERIMENTS.md). Both engines return the
/// identical matching, so this is purely a latency choice.
inline constexpr std::size_t kSparseCrossover = 128;

/// Exact minimum-weight perfect matching by bitmask DP. Requires even n,
/// n <= kExactLimit (asserted; 2^n states are materialized). A template
/// on the weight callable, so the geometric dispatch's lambda is inlined
/// into the inner loop; a WeightFn works too, for generic weights.
template <typename Weight>
Matching exact_min_weight_matching(std::size_t n, Weight&& weight) {
  MCHARGE_ASSERT(n % 2 == 0, "perfect matching requires even n");
  MCHARGE_ASSERT(n <= kExactLimit,
                 "exact matching limited to n <= kExactLimit");
  if (n == 0) return {};

  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::uint32_t full = (1u << n) - 1u;
  std::vector<double> best(static_cast<std::size_t>(full) + 1, kInf);
  // For each reached state, the pair (a, b) added last, packed as a*32 + b.
  std::vector<std::int32_t> choice(static_cast<std::size_t>(full) + 1, -1);
  best[0] = 0.0;
  for (std::uint32_t mask = 0; mask < full; ++mask) {
    if (best[mask] == kInf) continue;
    // Pair the lowest unmatched vertex with every other unmatched vertex.
    const std::uint32_t rem = full & ~mask;
    const int a = __builtin_ctz(rem);
    std::uint32_t rest = rem & ~(1u << a);
    while (rest) {
      const int b = __builtin_ctz(rest);
      rest &= rest - 1;
      const std::uint32_t next = mask | (1u << a) | (1u << b);
      const double cost = best[mask] + weight(static_cast<std::uint32_t>(a),
                                              static_cast<std::uint32_t>(b));
      if (cost < best[next]) {
        best[next] = cost;
        choice[next] = a * 32 + b;
      }
    }
  }

  Matching result;
  std::uint32_t mask = full;
  while (mask) {
    const std::int32_t packed = choice[mask];
    MCHARGE_ASSERT(packed >= 0, "exact matching reconstruction failed");
    const auto a = static_cast<std::uint32_t>(packed / 32);
    const auto b = static_cast<std::uint32_t>(packed % 32);
    result.emplace_back(a, b);
    mask &= ~((1u << a) | (1u << b));
  }
  std::reverse(result.begin(), result.end());
  return result;
}

/// Geometric dispatch: minimum-weight perfect matching on `pts` (even
/// count) under Euclidean distance. n <= kDpDispatchLimit runs the DP,
/// n < kSparseCrossover the dense blossom, and every larger n the sparse
/// blossom. Both blossom engines share one quantized objective with
/// deterministic tie-breaking, so they return identical matchings — the
/// crossover is purely a latency choice.
Matching min_weight_euclidean_matching(const std::vector<geom::Point>& pts);

/// Sum of edge weights in a matching.
double matching_weight(const Matching& m, const WeightFn& weight);

/// True iff m is a perfect matching over n vertices.
bool is_perfect_matching(std::size_t n, const Matching& m);

}  // namespace mcharge::matching
