// The node-weighted, depot-rooted closed-tour problem underlying both the
// K-optimal closed tour substrate (Liang et al. [14]) and the K-minMax
// baseline.
//
// A TourProblem has m "sites" (sojourn locations), each with a service time
// (the charging duration tau(v)), plus a depot. A tour is an ordering of a
// subset of site indices; its delay is depot->first travel, inter-site
// travel, service at every site, and last->depot travel, all divided by the
// vehicle speed where applicable (Eq. (5) of the paper).
#pragma once

#include <cstdint>
#include <vector>

#include "geometry/point.h"

namespace mcharge::tsp {

using SiteId = std::uint32_t;
using Tour = std::vector<SiteId>;  // visiting order; depot implicit at ends

struct TourProblem {
  std::vector<geom::Point> sites;   ///< sojourn locations (depot excluded)
  std::vector<double> service;      ///< service (charging) seconds per site
  geom::Point depot{0.0, 0.0};
  double speed = 1.0;               ///< vehicle speed, m/s

  std::size_t size() const { return sites.size(); }

  /// Euclidean distance between two sites.
  double distance(SiteId a, SiteId b) const {
    return geom::distance(sites[a], sites[b]);
  }
  /// Euclidean distance between the depot and a site.
  double distance_depot(SiteId a) const {
    return geom::distance(depot, sites[a]);
  }

  /// Travel time between two sites.
  double travel(SiteId a, SiteId b) const { return distance(a, b) / speed; }
  /// Travel time between the depot and a site.
  double travel_depot(SiteId a) const { return distance_depot(a) / speed; }

  /// Validates invariants (matching vector sizes, positive speed,
  /// non-negative service). Aborts on violation.
  void check() const;
};

/// Total delay of a closed tour: travel (incl. both depot legs) + service.
/// An empty tour has zero delay.
double tour_delay(const TourProblem& problem, const Tour& tour);

/// Travel-only component of the closed-tour delay.
double tour_travel_time(const TourProblem& problem, const Tour& tour);

/// Service-only component.
double tour_service_time(const TourProblem& problem, const Tour& tour);

/// True iff `tour` is a permutation of {0..m-1}.
bool is_complete_tour(const TourProblem& problem, const Tour& tour);

}  // namespace mcharge::tsp
