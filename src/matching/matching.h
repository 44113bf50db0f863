// Minimum-weight perfect matching on complete graphs with an even number of
// vertices (the matching step of Christofides' TSP construction).
//
// Engines:
//  * exact DP: bitmask dynamic program, O(2^n * n); used for
//    n <= kExactLimit and as the reference oracle in tests.
//  * dense blossom (matching/blossom.h): exact O(n^3) primal-dual solver
//    on a materialized (n+1)^2 weight matrix.
//  * sparse blossom (matching/blossom.h): exact price-and-repair solver
//    on a k-NN candidate graph, certified optimal against the complete
//    graph by a SIMD pricing pass over the final duals. The default
//    geometric engine — same answers as dense, small fraction of the
//    cost at large n.
//  * local search: greedy nearest-pair construction followed by repeated
//    2-exchange improvement to a local optimum; the fallback beyond
//    kBlossomLimit and a comparison point in the micro benches (within
//    ~2% of optimal on Euclidean inputs).
//
// Geometric callers (Christofides odd-vertex matching) should use
// min_weight_euclidean_matching, which keeps Christofides' real
// 1.5-approx guarantee intact up to kBlossomLimit = 4096 vertices — the
// sparse engine covers every paper-scale instance exactly; only beyond
// that does the heuristic local search take over. The generic WeightFn
// dispatch (min_weight_perfect_matching) cannot use the sparse engine
// (no geometry to prune with) and caps the dense engine at
// kDenseBlossomLimit to bound its O(n^2) weight matrix.
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

/// Largest n routed to the exact bitmask DP (and the DP's own hard
/// assert: 2^n states are materialized).
inline constexpr std::size_t kExactLimit = 16;

/// Largest n routed to an exact blossom engine on geometric instances;
/// above this the 2-exchange local search takes over. 4096 covers every
/// odd-vertex set the paper-scale Christofides runs produce, so the
/// 1.5-approximation guarantee holds throughout the evaluated range.
inline constexpr std::size_t kBlossomLimit = 4096;

/// Largest n routed to the DENSE blossom engine from the generic
/// (non-geometric) dispatch: the dense engine materializes an (n+1)^2
/// int64 weight matrix, so it is kept to instances where that footprint
/// is trivial. Geometric callers are not affected (the sparse engine
/// handles them up to kBlossomLimit).
inline constexpr std::size_t kDenseBlossomLimit = 256;

/// Below this size kAuto prefers the dense engine over the sparse one:
/// the sparse engine's candidate-build + multi-round pricing overhead
/// only amortizes once the (n+1)^2 dense solve is expensive enough
/// (measured crossover ~128-256 on uniform fields; see EXPERIMENTS.md).
/// Both engines return the identical matching, so this is purely a
/// latency knob.
inline constexpr std::size_t kSparseCrossover = 128;

/// Which matching engine to run on geometric instances.
enum class MatchingEngine : std::uint8_t {
  kAuto = 0,       ///< size-based: DP, sparse blossom, local search
  kExactDp,        ///< bitmask DP (n <= kExactLimit enforced by the DP)
  kDenseBlossom,   ///< dense O(n^3) blossom, exact
  kSparseBlossom,  ///< sparse price-and-repair blossom, exact
  kLocalSearch,    ///< greedy + 2-exchange heuristic
};

struct MatchingOptions {
  MatchingEngine engine = MatchingEngine::kAuto;
  /// Candidate-graph neighbor count for the sparse engine (>= 1).
  int knn = 8;
};

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

/// Greedy + 2-exchange local-search matching. Requires even n.
Matching local_search_matching(std::size_t n, const WeightFn& weight);

/// Generic dispatch by size: exact DP (n <= kExactLimit), dense blossom
/// (n <= kDenseBlossomLimit), local search beyond. Prefer
/// min_weight_euclidean_matching when coordinates are available.
Matching min_weight_perfect_matching(std::size_t n, const WeightFn& weight);

/// Geometric dispatch: minimum-weight perfect matching on `pts` (even
/// count) under Euclidean distance, engine per `opts`. kAuto routes
/// n <= kExactLimit to the DP, n < kSparseCrossover to the dense
/// blossom, n <= kBlossomLimit to the sparse blossom, local search
/// beyond. Both blossom engines share one quantized objective with
/// deterministic tie-breaking, so forcing kDenseBlossom vs
/// kSparseBlossom yields identical matchings — the crossover is purely
/// a latency choice.
Matching min_weight_euclidean_matching(const std::vector<geom::Point>& pts,
                                       const MatchingOptions& opts = {});

/// Sum of edge weights in a matching.
double matching_weight(const Matching& m, const WeightFn& weight);

/// True iff m is a perfect matching over n vertices.
bool is_perfect_matching(std::size_t n, const Matching& m);

}  // namespace mcharge::matching
