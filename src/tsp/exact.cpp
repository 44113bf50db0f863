#include "tsp/exact.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "util/assert.h"

namespace mcharge::tsp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Held-Karp table: best[mask][last] = cheapest travel time starting at the
/// depot, visiting exactly the sites in `mask`, ending at site `last`.
struct HeldKarp {
  std::size_t m;
  std::vector<double> best;        // (mask, last) flattened
  std::vector<std::int32_t> prev;  // predecessor site for reconstruction

  double& at(std::uint32_t mask, std::size_t last) {
    return best[static_cast<std::size_t>(mask) * m + last];
  }
  std::int32_t& from(std::uint32_t mask, std::size_t last) {
    return prev[static_cast<std::size_t>(mask) * m + last];
  }
};

HeldKarp solve(const TourProblem& p) {
  const std::size_t m = p.size();
  MCHARGE_ASSERT(m <= kHeldKarpLimit, "Held-Karp limited to 20 sites");
  // The DP re-reads every pair O(2^m) times: tabulate the m x m travel
  // times once.
  std::vector<double> travel(m * m);
  for (std::size_t a = 0; a < m; ++a) {
    for (std::size_t b = 0; b < m; ++b) {
      travel[a * m + b] =
          p.travel(static_cast<SiteId>(a), static_cast<SiteId>(b));
    }
  }
  HeldKarp hk;
  hk.m = m;
  const std::size_t states = (std::size_t{1} << m) * m;
  hk.best.assign(states, kInf);
  hk.prev.assign(states, -1);
  for (std::size_t v = 0; v < m; ++v) {
    hk.at(1u << v, v) = p.travel_depot(static_cast<SiteId>(v));
  }
  const std::uint32_t full = (1u << m) - 1u;
  for (std::uint32_t mask = 1; mask <= full; ++mask) {
    for (std::size_t last = 0; last < m; ++last) {
      if (!(mask & (1u << last))) continue;
      const double cost = hk.at(mask, last);
      if (cost == kInf) continue;
      for (std::size_t next = 0; next < m; ++next) {
        if (mask & (1u << next)) continue;
        const std::uint32_t nmask = mask | (1u << next);
        const double ncost = cost + travel[last * m + next];
        if (ncost < hk.at(nmask, next)) {
          hk.at(nmask, next) = ncost;
          hk.from(nmask, next) = static_cast<std::int32_t>(last);
        }
      }
    }
  }
  return hk;
}

}  // namespace

double held_karp_travel_time(const TourProblem& problem) {
  const std::size_t m = problem.size();
  if (m == 0) return 0.0;
  HeldKarp hk = solve(problem);
  const std::uint32_t full = (1u << m) - 1u;
  double best = kInf;
  for (std::size_t last = 0; last < m; ++last) {
    best = std::min(best, hk.at(full, last) +
                              problem.travel_depot(static_cast<SiteId>(last)));
  }
  return best;
}

Tour held_karp_tour(const TourProblem& problem) {
  const std::size_t m = problem.size();
  if (m == 0) return {};
  HeldKarp hk = solve(problem);
  const std::uint32_t full = (1u << m) - 1u;
  double best = kInf;
  std::size_t last = 0;
  for (std::size_t v = 0; v < m; ++v) {
    const double cost =
        hk.at(full, v) + problem.travel_depot(static_cast<SiteId>(v));
    if (cost < best) {
      best = cost;
      last = v;
    }
  }
  Tour tour;
  std::uint32_t mask = full;
  std::int32_t at = static_cast<std::int32_t>(last);
  while (at >= 0) {
    tour.push_back(static_cast<SiteId>(at));
    const std::int32_t prev = hk.from(mask, static_cast<std::size_t>(at));
    mask &= ~(1u << at);
    at = prev;
  }
  std::reverse(tour.begin(), tour.end());
  MCHARGE_ASSERT(is_complete_tour(problem, tour),
                 "Held-Karp reconstruction failed");
  return tour;
}

}  // namespace mcharge::tsp
