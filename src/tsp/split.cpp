#include "tsp/split.h"

#include <algorithm>
#include <vector>

#include "util/assert.h"

namespace mcharge::tsp {

namespace detail {

bool greedy_cut(const TourProblem& p, const Tour& tour,
                const std::vector<Legs>& legs, double budget,
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
    const double service = p.service[tour[i]];
    const double solo = 2.0 * legs[i].depot + service;
    if (solo > budget) return false;  // infeasible budget
    if (i == 0) {
      starts.push_back(0);
      internal = service;
      etravel = 0.0;
      eservice = service;
      continue;
    }
    // Segments are contiguous runs of the tour: the open one starts at
    // tour[starts.back()] and ends at tour[i - 1].
    const double front = legs[starts.back()].depot;
    const double extended =
        front + internal + legs[i].prev + service + legs[i].depot;
    bool fits = extended <= budget;
    if (fits && cap.enabled()) {
      // A single site over the cap is still admitted as its own segment
      // (the executor's budget machinery handles the overdraw); only
      // *extending* past the cap forces a cut.
      const double joules =
          (front + etravel + legs[i].prev + legs[i].depot) *
              cap.travel_power_w +
          (eservice + service) * cap.service_power_w;
      fits = joules <= cap.budget_j;
    }
    if (fits) {
      internal += legs[i].prev + service;
      etravel += legs[i].prev;
      eservice += service;
    } else {
      if (starts.size() == k) return false;  // would need k + 1 segments
      starts.push_back(i);
      internal = service;
      etravel = 0.0;
      eservice = service;
    }
  }
  return true;
}

}  // namespace detail

namespace {

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
  SplitResult result;
  if (tour.empty()) {
    result.tours.assign(k, Tour{});
    return result;
  }

  std::vector<detail::Legs> legs(tour.size());
  for (std::size_t i = 0; i < tour.size(); ++i) {
    legs[i].depot = problem.travel_depot(tour[i]);
    legs[i].prev = i == 0 ? 0.0 : problem.travel(tour[i - 1], tour[i]);
  }

  // Lower bound: the hardest single site. Upper bound: whole tour as one.
  // The upper bound gets a relative nudge so that accumulation-order
  // floating-point noise cannot make the whole-tour budget "infeasible".
  double lo = 0.0;
  for (std::size_t i = 0; i < tour.size(); ++i) {
    lo = std::max(lo, 2.0 * legs[i].depot + problem.service[tour[i]]);
  }
  double hi = std::max(lo, tour_delay(problem, tour));
  hi += 1e-9 * std::max(1.0, hi);

  SegmentEnergyCap use = cap;
  std::vector<std::size_t> best;   // segment starts of the winning cut
  std::vector<std::size_t> probe;  // scratch for the budget probes
  bool feasible = detail::greedy_cut(problem, tour, legs, hi, use, k, best);
  if (use.enabled() && !feasible) {
    // The energy cap and the fleet size cannot both hold even at the
    // loosest delay budget: drop the cap (best effort — the executor's
    // budget machinery turns any residual overdraw into a recoverable,
    // cause-tagged abort) and redo the feasibility anchor.
    use = SegmentEnergyCap{};
    feasible = detail::greedy_cut(problem, tour, legs, hi, use, k, best);
  }
  MCHARGE_ASSERT(feasible, "whole-tour budget must be feasible");

  // Binary search the smallest budget whose greedy cut uses <= k segments.
  for (int iter = 0; iter < 64 && hi - lo > 1e-9 * std::max(1.0, hi); ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (detail::greedy_cut(problem, tour, legs, mid, use, k, probe)) {
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
