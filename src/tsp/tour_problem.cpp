#include "tsp/tour_problem.h"

#include <algorithm>

#include "util/assert.h"

namespace mcharge::tsp {

void TourProblem::check() const {
  MCHARGE_ASSERT(service.size() == sites.size(),
                 "one service time per site required");
  MCHARGE_ASSERT(speed > 0.0, "vehicle speed must be positive");
  for (double s : service) {
    MCHARGE_ASSERT(s >= 0.0, "service times must be non-negative");
  }
}

double tour_travel_time(const TourProblem& problem, const Tour& tour) {
  if (tour.empty()) return 0.0;
  double total = problem.travel_depot(tour.front());
  for (std::size_t i = 0; i + 1 < tour.size(); ++i) {
    total += problem.travel(tour[i], tour[i + 1]);
  }
  total += problem.travel_depot(tour.back());
  return total;
}

double tour_service_time(const TourProblem& problem, const Tour& tour) {
  double total = 0.0;
  for (SiteId v : tour) total += problem.service[v];
  return total;
}

double tour_delay(const TourProblem& problem, const Tour& tour) {
  return tour_travel_time(problem, tour) + tour_service_time(problem, tour);
}

bool is_complete_tour(const TourProblem& problem, const Tour& tour) {
  if (tour.size() != problem.size()) return false;
  std::vector<char> seen(problem.size(), 0);
  for (SiteId v : tour) {
    if (v >= problem.size() || seen[v]) return false;
    seen[v] = 1;
  }
  return true;
}

}  // namespace mcharge::tsp
