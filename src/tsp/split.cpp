#include "tsp/split.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "util/assert.h"
#include "util/simd.h"

namespace mcharge::tsp {

namespace {

/// Greedily cuts `tour` into segments of delay <= budget, writing the
/// tour index at which each segment starts into `starts` (a buffer the
/// caller reuses across probes, so a probe allocates nothing once it has
/// grown). Returns true iff every site fits the budget on its own and the
/// cut uses at most `k` segments; stops at the first site that settles
/// the answer as false.
bool greedy_cut(const TourProblem& p, const Tour& tour, double budget,
                const SegmentEnergyCap& cap, std::size_t k,
                std::vector<std::size_t>& starts) {
  starts.clear();
  double internal = 0.0;  // travel within segment + service
  // Energy bookkeeping (cap only): internal travel / service seconds,
  // tracked separately so joules can be priced per component. The delay
  // accumulator above is left bit-for-bit untouched — with a disabled cap
  // the cut decisions are exactly the delay-only ones.
  double etravel = 0.0;
  double eservice = 0.0;
  for (std::size_t i = 0; i < tour.size(); ++i) {
    const SiteId v = tour[i];
    const double solo = 2.0 * p.travel_depot(v) + p.service[v];
    if (solo > budget) return false;  // infeasible budget
    if (i == 0) {
      starts.push_back(0);
      internal = p.service[v];
      etravel = 0.0;
      eservice = p.service[v];
      continue;
    }
    // Segments are contiguous runs of the tour: the open one starts at
    // tour[starts.back()] and ends at tour[i - 1].
    const SiteId front = tour[starts.back()];
    const SiteId back = tour[i - 1];
    const double extended = p.travel_depot(front) + internal +
                            p.travel(back, v) + p.service[v] +
                            p.travel_depot(v);
    bool fits = extended <= budget;
    if (fits && cap.enabled()) {
      // A single site over the cap is still admitted as its own segment
      // (the executor's budget machinery handles the overdraw); only
      // *extending* past the cap forces a cut.
      const double joules =
          (p.travel_depot(front) + etravel + p.travel(back, v) +
           p.travel_depot(v)) *
              cap.travel_power_w +
          (eservice + p.service[v]) * cap.service_power_w;
      fits = joules <= cap.budget_j;
    }
    if (fits) {
      internal += p.travel(back, v) + p.service[v];
      etravel += p.travel(back, v);
      eservice += p.service[v];
    } else {
      if (starts.size() == k) return false;  // would need k + 1 segments
      starts.push_back(i);
      internal = p.service[v];
      etravel = 0.0;
      eservice = p.service[v];
    }
  }
  return true;
}

double max_segment_delay(const TourProblem& p, const std::vector<Tour>& segs) {
  double worst = 0.0;
  for (const auto& s : segs) worst = std::max(worst, tour_delay(p, s));
  return worst;
}

}  // namespace

SplitResult split_min_max(const TourProblem& problem, const Tour& tour,
                          std::size_t k, const SegmentEnergyCap& cap) {
  MCHARGE_ASSERT(k >= 1, "split requires k >= 1");
  MCHARGE_ASSERT(is_complete_tour(problem, tour),
                 "split requires a complete tour");
  problem.ensure_distance_cache();
  SplitResult result;
  if (tour.empty()) {
    result.tours.assign(k, Tour{});
    return result;
  }

  // Lower bound: the hardest single site. Upper bound: whole tour as one.
  // The upper bound gets a relative nudge so that accumulation-order
  // floating-point noise cannot make the whole-tour budget "infeasible".
  // Solo delays go through the simd max reduction — max is exact (no
  // rounding), so any reduction order gives the scalar loop's bits.
  std::vector<double> solo(tour.size());
  for (std::size_t idx = 0; idx < tour.size(); ++idx) {
    const SiteId v = tour[idx];
    solo[idx] = 2.0 * problem.travel_depot(v) + problem.service[v];
  }
  const double lo0 = simd::max_reduce(solo.data(), solo.size());
  double lo = std::max(0.0, lo0);
  double hi = std::max(lo, tour_delay(problem, tour));
  hi += 1e-9 * std::max(1.0, hi);

  SegmentEnergyCap use = cap;
  std::vector<std::size_t> best;   // segment starts of the winning cut
  std::vector<std::size_t> probe;  // scratch for the budget probes
  bool feasible = greedy_cut(problem, tour, hi, use, k, best);
  if (use.enabled() && !feasible) {
    // The energy cap and the fleet size cannot both hold even at the
    // loosest delay budget: drop the cap (best effort — the executor's
    // budget machinery turns any residual overdraw into a recoverable,
    // cause-tagged abort) and redo the feasibility anchor.
    use = SegmentEnergyCap{};
    feasible = greedy_cut(problem, tour, hi, use, k, best);
  }
  MCHARGE_ASSERT(feasible, "whole-tour budget must be feasible");

  // Binary search the smallest budget whose greedy cut uses <= k segments.
  for (int iter = 0; iter < 64 && hi - lo > 1e-9 * std::max(1.0, hi); ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (greedy_cut(problem, tour, mid, use, k, probe)) {
      std::swap(best, probe);
      hi = mid;
    } else {
      lo = mid;
    }
  }

  result.tours.resize(k);  // trailing tours stay empty
  for (std::size_t s = 0; s < best.size(); ++s) {
    const std::size_t end = s + 1 < best.size() ? best[s + 1] : tour.size();
    result.tours[s].assign(tour.begin() + static_cast<std::ptrdiff_t>(best[s]),
                           tour.begin() + static_cast<std::ptrdiff_t>(end));
  }
  result.max_delay = max_segment_delay(problem, result.tours);
  return result;
}

SplitResult min_max_k_tours(const TourProblem& problem, std::size_t k,
                            const MinMaxTourOptions& options) {
  problem.check();
  if (problem.size() == 0) {
    SplitResult r;
    r.tours.assign(k, Tour{});
    return r;
  }
  // One O(m^2) distance build serves construction, improvement, and
  // splitting below; every travel() call after this is a table read.
  problem.ensure_distance_cache();
  Tour tour = build_tour(problem, options.builder);
  improve_tour(problem, tour, options.improve);
  SplitResult result = split_min_max(problem, tour, k, options.energy);
  if (options.improve_segments) {
    for (Tour& segment : result.tours) {
      two_opt(problem, segment, options.improve);
    }
    result.max_delay = max_segment_delay(problem, result.tours);
  }
  return result;
}

}  // namespace mcharge::tsp
