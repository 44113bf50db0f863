// Scan state shared by 2-opt and Or-opt (src/tsp/improve.cpp), in its own
// header so the tests can drive the pruned scans directly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tsp/tour_problem.h"

namespace mcharge::tsp {

namespace detail {

/// Position-ordered SoA mirror of a tour that the 2-opt / Or-opt scans
/// run over, with a bounding summary per block of kBlock scan positions.
/// two_opt / or_opt are its only production users.
///
/// px[p], py[p] are the coordinates of tour[p], with the depot appended
/// as a sentinel at index m so a scan may read P[k + 1] for k == m - 1;
/// tc[k] is the travel time of leg (P[k], P[k+1]). Block b summarizes
/// scan indices k in [b*kBlock, min(b*kBlock + kBlock, m)): the bounding
/// box of every point such a k reads (P[k] and P[k+1], so positions up
/// to and including the next block's first one, or the sentinel) and the
/// largest tc[k]. The scans below skip a block when a lower bound built
/// from the box and that maximum proves no index in it improves; the
/// bound is evaluated with the kernels' own operation sequence, so every
/// returned index is bit-for-bit the plain kernel's (see DESIGN.md).
struct TourMirror {
  static constexpr std::size_t kBlock = 32;

  std::vector<double> px, py;  ///< m + 1 entries (depot sentinel at m)
  std::vector<double> tc;      ///< m leg travel times
  double speed = 1.0;
  /// Running totals of blocks whose bound was evaluated / proved clean.
  std::uint64_t blocks_scanned = 0;
  std::uint64_t blocks_pruned = 0;

  /// Mirrors `tour` and rebuilds every block summary.
  void assign(const TourProblem& problem, const Tour& tour);
  /// Reverses positions [i, j] (as a 2-opt move does) and updates the leg
  /// times and block summaries that read them.
  void reverse(std::size_t i, std::size_t j);

  /// Travel time between positions a and b, either of which may be -1 or
  /// m (the depot) — the bits TourProblem::travel / travel_depot return.
  double travel(std::ptrdiff_t a, std::ptrdiff_t b) const;

  /// simd::two_opt_scan over this mirror (same contract and result).
  std::size_t two_opt_scan(std::size_t j_begin, std::size_t j_end, double ax,
                           double ay, double bx, double by, double base,
                           double min_gain);
  /// simd::or_opt_scan over this mirror (same contract and result).
  std::size_t or_opt_scan(std::size_t k_begin, std::size_t k_end, double ix,
                          double iy, double ex, double ey, double threshold);

 private:
  void summarize(std::size_t b);
  template <typename Clean, typename Kernel>
  std::size_t scan_blocks(std::size_t begin, std::size_t end,
                          const Clean& clean, const Kernel& kernel);

  std::vector<double> lox_, hix_, loy_, hiy_, tmax_;  ///< one per block
};

}  // namespace detail

}  // namespace mcharge::tsp
