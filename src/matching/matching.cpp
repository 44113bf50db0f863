#include "matching/matching.h"

#include "matching/blossom.h"
#include "obs/obs.h"

namespace mcharge::matching {

Matching min_weight_euclidean_matching(const std::vector<geom::Point>& pts) {
  const std::size_t n = pts.size();
  const auto euclid = [&pts](std::uint32_t a, std::uint32_t b) {
    return geom::distance(pts[a], pts[b]);
  };
  if (n <= kDpDispatchLimit) {
    OBS_COUNT("matching.dp", 1);
    return exact_min_weight_matching(n, euclid);
  }
  if (n < kSparseCrossover) {
    OBS_COUNT("matching.dense", 1);
    return dense_blossom_euclidean_matching(pts);
  }
  OBS_COUNT("matching.sparse", 1);
  return sparse_blossom_euclidean_matching(pts);
}

double matching_weight(const Matching& m, const WeightFn& weight) {
  double total = 0.0;
  for (const auto& [a, b] : m) total += weight(a, b);
  return total;
}

bool is_perfect_matching(std::size_t n, const Matching& m) {
  if (m.size() * 2 != n) return false;
  std::vector<char> seen(n, 0);
  for (const auto& [a, b] : m) {
    if (a >= n || b >= n || a == b) return false;
    if (seen[a] || seen[b]) return false;
    seen[a] = seen[b] = 1;
  }
  return true;
}

}  // namespace mcharge::matching
