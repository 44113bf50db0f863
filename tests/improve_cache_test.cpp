// Differential tests for the cached local search of src/tsp/improve.cpp.
//
// reference::two_opt / or_opt / improve_tour are the pre-cache restart
// loops, copied verbatim from the original src/tsp/improve.cpp and frozen
// here. The claim under test is BITWISE identity, the repo-wide
// determinism contract: the exact-replay local-search caches, the
// block-pruned scans (tsp/tour_mirror.h), and every SIMD backend must
// reproduce the reference tours bit for bit — same tours, same gains —
// across problem sizes and seeds (no epsilon anywhere).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/obs.h"
#include "simd_backends.h"
#include "tsp/construct.h"
#include "tsp/improve.h"
#include "tsp/tour_mirror.h"
#include "tsp/tour_problem.h"
#include "util/rng.h"
#include "util/simd.h"

namespace mcharge {
namespace {

// ---------------------------------------------------------------------------
// Reference local search: the original restart loops of src/tsp/improve.cpp
// (no exact-replay caches, no convergence skips), frozen here so the cached
// production code has an in-tree witness of the semantics it must replay.

namespace reference {

double leg(const tsp::TourProblem& p, const tsp::Tour& t, std::ptrdiff_t i,
           std::ptrdiff_t j) {
  const bool i_depot = i < 0 || i >= static_cast<std::ptrdiff_t>(t.size());
  const bool j_depot = j < 0 || j >= static_cast<std::ptrdiff_t>(t.size());
  if (i_depot && j_depot) return 0.0;
  if (i_depot) return p.travel_depot(t[static_cast<std::size_t>(j)]);
  if (j_depot) return p.travel_depot(t[static_cast<std::size_t>(i)]);
  return p.travel(t[static_cast<std::size_t>(i)],
                  t[static_cast<std::size_t>(j)]);
}

void mirror_tour(const tsp::TourProblem& problem, const tsp::Tour& tour,
                 std::vector<double>& px, std::vector<double>& py) {
  const std::size_t m = tour.size();
  px.resize(m + 1);
  py.resize(m + 1);
  for (std::size_t p = 0; p < m; ++p) {
    px[p] = problem.sites[tour[p]].x;
    py[p] = problem.sites[tour[p]].y;
  }
  px[m] = problem.depot.x;
  py[m] = problem.depot.y;
}

double leg_time(const std::vector<double>& px, const std::vector<double>& py,
                double speed, std::size_t k) {
  const double dx = px[k] - px[k + 1];
  const double dy = py[k] - py[k + 1];
  return std::sqrt(dx * dx + dy * dy) / speed;
}

void fill_leg_times(const std::vector<double>& px,
                    const std::vector<double>& py, double speed,
                    std::vector<double>& tc) {
  const std::size_t m = px.size() - 1;
  tc.resize(m);
  for (std::size_t k = 0; k < m; ++k) tc[k] = leg_time(px, py, speed, k);
}

double two_opt(const tsp::TourProblem& problem, tsp::Tour& tour,
               const tsp::ImproveOptions& options) {
  const std::size_t m = tour.size();
  if (m < 2) return 0.0;
  std::vector<double> px, py, tc;
  mirror_tour(problem, tour, px, py);
  fill_leg_times(px, py, problem.speed, tc);

  double saved = 0.0;
  for (std::size_t pass = 0; pass < options.max_passes; ++pass) {
    bool improved = false;
    for (std::size_t i = 0; i + 1 < m; ++i) {
      const auto ip = static_cast<std::ptrdiff_t>(i);
      const double ax = i == 0 ? problem.depot.x : px[i - 1];
      const double ay = i == 0 ? problem.depot.y : py[i - 1];
      double bx = px[i];
      double by = py[i];
      double base = leg(problem, tour, ip - 1, ip);
      const std::size_t j_end = i == 0 ? m - 1 : m;
      std::size_t j = i + 1;
      while (j < j_end) {
        const std::size_t hit = simd::two_opt_scan(
            px.data(), py.data(), tc.data(), j, j_end, ax, ay, bx, by,
            problem.speed, base, options.min_gain);
        if (hit == simd::kNpos) break;
        const auto jp = static_cast<std::ptrdiff_t>(hit);
        const double before =
            leg(problem, tour, ip - 1, ip) + leg(problem, tour, jp, jp + 1);
        const double after =
            leg(problem, tour, ip - 1, jp) + leg(problem, tour, ip, jp + 1);
        std::reverse(tour.begin() + ip, tour.begin() + jp + 1);
        std::reverse(px.begin() + ip, px.begin() + jp + 1);
        std::reverse(py.begin() + ip, py.begin() + jp + 1);
        std::reverse(tc.begin() + ip, tc.begin() + jp);
        tc[hit] = leg_time(px, py, problem.speed, hit);
        if (i > 0) tc[i - 1] = leg_time(px, py, problem.speed, i - 1);
        saved += before - after;
        improved = true;
        bx = px[i];
        by = py[i];
        base = leg(problem, tour, ip - 1, ip);
        j = hit + 1;
      }
    }
    if (!improved) break;
  }
  return saved;
}

double or_opt(const tsp::TourProblem& problem, tsp::Tour& tour,
              const tsp::ImproveOptions& options) {
  const auto m = static_cast<std::ptrdiff_t>(tour.size());
  if (m < 3) return 0.0;
  std::vector<double> px, py, tc;
  double saved = 0.0;
  for (std::size_t pass = 0; pass < options.max_passes; ++pass) {
    bool improved = false;
    mirror_tour(problem, tour, px, py);
    fill_leg_times(px, py, problem.speed, tc);
    for (std::ptrdiff_t len = 1; len <= 3 && len < m; ++len) {
      for (std::ptrdiff_t i = 0; i + len <= m && !improved; ++i) {
        const double removal_gain = leg(problem, tour, i - 1, i) +
                                    leg(problem, tour, i + len - 1, i + len) -
                                    leg(problem, tour, i - 1, i + len);
        if (removal_gain <= options.min_gain) continue;
        const double threshold = removal_gain - options.min_gain;
        const double ix = px[static_cast<std::size_t>(i)];
        const double iy = py[static_cast<std::size_t>(i)];
        const double ex = px[static_cast<std::size_t>(i + len - 1)];
        const double ey = py[static_cast<std::size_t>(i + len - 1)];
        std::ptrdiff_t k = -2;  // -2: no improving position found
        if (i > 0) {
          const double depot_cost = leg(problem, tour, -1, i) +
                                    leg(problem, tour, i + len - 1, 0) -
                                    leg(problem, tour, -1, 0);
          if (depot_cost < threshold) k = -1;
        }
        if (k == -2 && i >= 2) {
          const std::size_t hit = simd::or_opt_scan(
              px.data(), py.data(), tc.data(), 0,
              static_cast<std::size_t>(i - 1), ix, iy, ex, ey, problem.speed,
              threshold);
          if (hit != simd::kNpos) k = static_cast<std::ptrdiff_t>(hit);
        }
        if (k == -2) {
          const std::size_t hit = simd::or_opt_scan(
              px.data(), py.data(), tc.data(),
              static_cast<std::size_t>(i + len), static_cast<std::size_t>(m),
              ix, iy, ex, ey, problem.speed, threshold);
          if (hit != simd::kNpos) k = static_cast<std::ptrdiff_t>(hit);
        }
        if (k == -2) continue;
        const double insert_cost = leg(problem, tour, k, i) +
                                   leg(problem, tour, i + len - 1, k + 1) -
                                   leg(problem, tour, k, k + 1);
        tsp::Tour segment(tour.begin() + i, tour.begin() + i + len);
        tour.erase(tour.begin() + i, tour.begin() + i + len);
        const std::ptrdiff_t dest = k < i ? k + 1 : k + 1 - len;
        tour.insert(tour.begin() + dest, segment.begin(), segment.end());
        saved += removal_gain - insert_cost;
        improved = true;
      }
      if (improved) break;
    }
    if (!improved) break;
  }
  return saved;
}

double improve_tour(const tsp::TourProblem& problem, tsp::Tour& tour,
                    const tsp::ImproveOptions& options) {
  double saved = 0.0;
  for (std::size_t round = 0; round < options.max_passes; ++round) {
    double round_gain = 0.0;
    // Qualified: the unqualified names would also find tsp:: via ADL.
    if (options.use_two_opt) {
      round_gain += reference::two_opt(problem, tour, options);
    }
    if (options.use_or_opt) {
      round_gain += reference::or_opt(problem, tour, options);
    }
    saved += round_gain;
    if (round_gain <= options.min_gain) break;
  }
  return saved;
}

}  // namespace reference

tsp::TourProblem random_tour_problem(std::size_t m, std::uint64_t seed) {
  Rng rng(seed);
  tsp::TourProblem problem;
  for (std::size_t i = 0; i < m; ++i) {
    problem.sites.push_back({rng.uniform(0.0, 100.0),
                             rng.uniform(0.0, 100.0)});
    problem.service.push_back(rng.uniform(100.0, 4000.0));
  }
  problem.depot = {50.0, 50.0};
  problem.speed = 1.0;
  return problem;
}

tsp::Tour identity_tour(std::size_t m) {
  tsp::Tour tour(m);
  for (std::size_t i = 0; i < m; ++i) tour[i] = static_cast<tsp::SiteId>(i);
  return tour;
}

const std::vector<std::size_t> kTourSizes = {0, 1, 2, 3, 4, 5, 8,
                                             13, 30, 75, 150, 350};

// ---------------------------------------------------------------------------

TEST(ImproveCache, TwoOptMatchesReferenceRestartLoop) {
  for (std::size_t m : kTourSizes) {
    const tsp::TourProblem problem = random_tour_problem(m, 1000 + m);
    for (simd::Backend b : supported_backends()) {
      BackendGuard guard(b);
      tsp::Tour expected = identity_tour(m);
      const double ref_gain = reference::two_opt(problem, expected, {});
      tsp::Tour actual = identity_tour(m);
      const double gain = tsp::two_opt(problem, actual, {});
      EXPECT_EQ(expected, actual) << "m=" << m
                                  << " backend=" << static_cast<int>(b);
      EXPECT_EQ(ref_gain, gain) << "m=" << m;
    }
  }
}

TEST(ImproveCache, OrOptMatchesReferenceRestartLoop) {
  for (std::size_t m : kTourSizes) {
    const tsp::TourProblem problem = random_tour_problem(m, 2000 + m);
    for (simd::Backend b : supported_backends()) {
      BackendGuard guard(b);
      tsp::Tour expected = identity_tour(m);
      const double ref_gain = reference::or_opt(problem, expected, {});
      tsp::Tour actual = identity_tour(m);
      const double gain = tsp::or_opt(problem, actual, {});
      EXPECT_EQ(expected, actual) << "m=" << m
                                  << " backend=" << static_cast<int>(b);
      EXPECT_EQ(ref_gain, gain) << "m=" << m;
    }
  }
}

TEST(ImproveCache, ImproveTourMatchesReferenceAlternation) {
  for (std::size_t m : kTourSizes) {
    const tsp::TourProblem problem = random_tour_problem(m, 3000 + m);
    for (simd::Backend b : supported_backends()) {
      BackendGuard guard(b);
      tsp::Tour expected = identity_tour(m);
      const double ref_gain = reference::improve_tour(problem, expected, {});
      tsp::Tour actual = identity_tour(m);
      const double gain = tsp::improve_tour(problem, actual, {});
      EXPECT_EQ(expected, actual) << "m=" << m
                                  << " backend=" << static_cast<int>(b);
      EXPECT_EQ(ref_gain, gain) << "m=" << m;
    }
  }
}

// The move/pass budget is part of the observable semantics: the cached
// or_opt counts applied moves where the reference counts restart passes
// (one move each), and the cached two_opt counts full sweeps — both must
// truncate at exactly the same tour.
TEST(ImproveCache, TruncatedBudgetsMatchReference) {
  for (std::size_t max_passes : {std::size_t{1}, std::size_t{2},
                                 std::size_t{3}, std::size_t{7}}) {
    tsp::ImproveOptions options;
    options.max_passes = max_passes;
    for (std::size_t m : {std::size_t{30}, std::size_t{150}}) {
      const tsp::TourProblem problem = random_tour_problem(m, 4000 + m);
      {
        tsp::Tour expected = identity_tour(m);
        const double ref_gain = reference::two_opt(problem, expected, options);
        tsp::Tour actual = identity_tour(m);
        const double gain = tsp::two_opt(problem, actual, options);
        EXPECT_EQ(expected, actual) << "two_opt m=" << m
                                    << " passes=" << max_passes;
        EXPECT_EQ(ref_gain, gain);
      }
      {
        tsp::Tour expected = identity_tour(m);
        const double ref_gain = reference::or_opt(problem, expected, options);
        tsp::Tour actual = identity_tour(m);
        const double gain = tsp::or_opt(problem, actual, options);
        EXPECT_EQ(expected, actual) << "or_opt m=" << m
                                    << " passes=" << max_passes;
        EXPECT_EQ(ref_gain, gain);
      }
    }
  }
}

// Partially-disabled operators exercise the improve_tour skip logic's
// edge cases (or_clean must never suppress a two_opt-only round).
TEST(ImproveCache, ImproveTourOperatorSubsetsMatchReference) {
  for (bool use_two : {true, false}) {
    for (bool use_or : {true, false}) {
      tsp::ImproveOptions options;
      options.use_two_opt = use_two;
      options.use_or_opt = use_or;
      for (std::size_t m : {std::size_t{75}, std::size_t{150}}) {
        const tsp::TourProblem problem = random_tour_problem(m, 5000 + m);
        tsp::Tour expected = identity_tour(m);
        const double ref_gain =
            reference::improve_tour(problem, expected, options);
        tsp::Tour actual = identity_tour(m);
        const double gain = tsp::improve_tour(problem, actual, options);
        EXPECT_EQ(expected, actual)
            << "m=" << m << " two=" << use_two << " or=" << use_or;
        EXPECT_EQ(ref_gain, gain);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Christofides-built corpora. Random-order starts have long edges, so the
// scan blocks' bounding boxes span the field and block pruning rarely
// fires; the planner improves Christofides tours, whose local edges keep
// the boxes tight. These corpora make the pruned scans skip blocks under
// the geometries where an inexact bound would show: clusters, degenerate
// boxes (collinear and duplicate points), the depot inside the field, a
// non-unit speed, and coordinates near 1e6 where every subtraction rounds.

enum class Geometry {
  kClustered,
  kCollinear,
  kDuplicates,
  kDepotInside,
  kSpeed,
  kFarCoordinates,
};

const std::vector<Geometry> kGeometries = {
    Geometry::kClustered,   Geometry::kCollinear, Geometry::kDuplicates,
    Geometry::kDepotInside, Geometry::kSpeed,     Geometry::kFarCoordinates};

tsp::TourProblem corpus_problem(Geometry g, std::size_t m, std::uint64_t seed) {
  Rng rng(seed);
  tsp::TourProblem problem;
  problem.depot = {-20.0, -20.0};  // outside the field unless noted
  for (std::size_t i = 0; i < m; ++i) {
    double x = rng.uniform(0.0, 1000.0);
    double y = rng.uniform(0.0, 1000.0);
    switch (g) {
      case Geometry::kClustered: {
        const double c = static_cast<double>(i % 12);
        x = 80.0 * c + rng.uniform(0.0, 15.0);
        y = 500.0 + 300.0 * std::sin(c) + rng.uniform(0.0, 15.0);
        break;
      }
      case Geometry::kCollinear:
        y = 0.5 * x + 3.0;
        break;
      case Geometry::kDuplicates:
        if (i % 4 != 0) {  // every point appears four times
          x = problem.sites[i - i % 4].x;
          y = problem.sites[i - i % 4].y;
        }
        break;
      case Geometry::kDepotInside:
        problem.depot = {500.0, 500.0};
        break;
      case Geometry::kSpeed:
        problem.speed = 2.7;
        break;
      case Geometry::kFarCoordinates:
        x = 1e6 + 0.1 * x;
        y = 1e6 - 0.1 * y;
        problem.depot = {1e6 - 3.0, 1e6 + 3.0};
        break;
    }
    problem.sites.push_back({x, y});
    problem.service.push_back(rng.uniform(100.0, 4000.0));
  }
  return problem;
}

struct ScanCounts {
  std::int64_t blocks = 0;
  std::int64_t pruned = 0;
};

/// Runs `fn` with tracing on and returns the scan-block counters it
/// added (zeros when the build compiles tracing out).
template <typename Fn>
ScanCounts traced_scan_counts(const Fn& fn) {
  obs::reset();
  {
    const obs::EnabledScope scope(true);
    fn();
  }
  ScanCounts counts;
  for (const obs::MetricSnapshot& metric : obs::capture().metrics) {
    if (metric.name == "tsp.scan_blocks") counts.blocks = metric.value;
    if (metric.name == "tsp.scan_blocks_pruned") counts.pruned = metric.value;
  }
  return counts;
}

// Every corpus against the frozen restart loops: each operator alone at
// m = 500, and the full alternation (which runs both) at both sizes. The
// reference result does not depend on the backend (the kernels are
// bit-identical), so it is computed once per corpus and every backend's
// pruned run must reproduce it.
void expect_corpora_match_reference(std::size_t m, bool each_operator) {
  for (Geometry g : kGeometries) {
    const tsp::TourProblem problem =
        corpus_problem(g, m, 6000 + m + static_cast<std::uint64_t>(g));
    const tsp::Tour start = tsp::christofides_tour(problem);
    tsp::Tour want_two = start, want_or = start, want_all = start;
    double two_gain = 0.0, or_gain = 0.0;
    if (each_operator) {
      two_gain = reference::two_opt(problem, want_two, {});
      or_gain = reference::or_opt(problem, want_or, {});
    }
    const double all_gain = reference::improve_tour(problem, want_all, {});
    // A Christofides tour of collinear points is already optimal.
    if (g != Geometry::kCollinear) {
      EXPECT_GT(all_gain, 0.0) << "m=" << m
                               << " geometry=" << static_cast<int>(g);
    }
    for (simd::Backend b : supported_backends()) {
      BackendGuard guard(b);
      const auto where = [&] {
        return ::testing::Message() << "m=" << m << " geometry="
                                    << static_cast<int>(g)
                                    << " backend=" << static_cast<int>(b);
      };
      tsp::Tour tour = start;
      if (each_operator) {
        EXPECT_EQ(two_gain, tsp::two_opt(problem, tour, {})) << where();
        EXPECT_EQ(want_two, tour) << where();
        tour = start;
        EXPECT_EQ(or_gain, tsp::or_opt(problem, tour, {})) << where();
        EXPECT_EQ(want_or, tour) << where();
        tour = start;
      }
      [[maybe_unused]] const ScanCounts counts = traced_scan_counts([&] {
        EXPECT_EQ(all_gain, tsp::improve_tour(problem, tour, {})) << where();
      });
      EXPECT_EQ(want_all, tour) << where();
#ifndef MCHARGE_NO_OBS
      // Not vacuous: the bounds did skip blocks on this corpus.
      EXPECT_GT(counts.pruned, 0) << where();
      EXPECT_LT(counts.pruned, counts.blocks) << where();
#endif
    }
  }
}

TEST(ImproveCache, ChristofidesCorpora500MatchReference) {
  expect_corpora_match_reference(500, true);
}

TEST(ImproveCache, ChristofidesCorpora2000MatchReference) {
  expect_corpora_match_reference(2000, false);
}

// The pruned scans against the plain kernels on every (begin, end) window
// of a Christofides tour, for queries shaped like the operators' own: the
// 2-opt left edge (i-1, i) with its base leg, and the Or-opt segment
// [i, i+len) with its removal threshold. Windows start and end at every
// offset inside a block, so partial first and last blocks are covered, and
// the last window reads the depot sentinel at m.
TEST(ImproveCache, PrunedScansMatchKernelsOnEveryWindow) {
  for (Geometry g : {Geometry::kClustered, Geometry::kDuplicates,
                     Geometry::kFarCoordinates}) {
    const tsp::TourProblem problem =
        corpus_problem(g, 150, 7000 + static_cast<std::uint64_t>(g));
    const tsp::Tour tour = tsp::christofides_tour(problem);
    tsp::detail::TourMirror mirror;
    mirror.assign(problem, tour);
    const std::size_t m = tour.size();
    const double* px = mirror.px.data();
    const double* py = mirror.py.data();
    const double* tc = mirror.tc.data();
    const double min_gain = tsp::ImproveOptions{}.min_gain;
    std::size_t hits = 0;
    for (simd::Backend b : supported_backends()) {
      BackendGuard guard(b);
      for (std::size_t i = 1; i + 3 < m; i += 13) {
        const auto ip = static_cast<std::ptrdiff_t>(i);
        const double base = mirror.travel(ip - 1, ip);
        const std::size_t len = 1 + i % 3;
        const auto lp = static_cast<std::ptrdiff_t>(len);
        // Loosened by a few legs so that some windows do hit.
        const double threshold = mirror.travel(ip - 1, ip) +
                                 mirror.travel(ip + lp - 1, ip + lp) -
                                 mirror.travel(ip - 1, ip + lp) + tc[i];
        for (std::size_t begin = 0; begin < m; ++begin) {
          for (std::size_t end = begin + 1; end <= m; ++end) {
            const std::size_t want_two = simd::two_opt_scan(
                px, py, tc, begin, end, px[i - 1], py[i - 1], px[i], py[i],
                mirror.speed, base, min_gain);
            ASSERT_EQ(want_two,
                      mirror.two_opt_scan(begin, end, px[i - 1], py[i - 1],
                                          px[i], py[i], base, min_gain))
                << "2-opt i=" << i << " [" << begin << ", " << end << ")";
            const std::size_t want_or =
                simd::or_opt_scan(px, py, tc, begin, end, px[i], py[i],
                                  px[i + len - 1], py[i + len - 1],
                                  mirror.speed, threshold);
            ASSERT_EQ(want_or,
                      mirror.or_opt_scan(begin, end, px[i], py[i],
                                         px[i + len - 1], py[i + len - 1],
                                         threshold))
                << "or-opt i=" << i << " [" << begin << ", " << end << ")";
            hits += (want_two != simd::kNpos) + (want_or != simd::kNpos);
          }
        }
      }
    }
    EXPECT_GT(hits, 0u) << "geometry=" << static_cast<int>(g);
    EXPECT_GT(mirror.blocks_pruned, 0u) << "geometry=" << static_cast<int>(g);
    EXPECT_LT(mirror.blocks_pruned, mirror.blocks_scanned);
  }
}

// A 2-opt reversal must leave the block summaries as a fresh assign()
// builds them: the pruned scans then agree with a rebuilt mirror.
TEST(ImproveCache, ReversalKeepsBlockSummariesCurrent) {
  const tsp::TourProblem problem =
      corpus_problem(Geometry::kSpeed, 300, 7100);
  tsp::Tour tour = tsp::christofides_tour(problem);
  tsp::detail::TourMirror mirror;
  mirror.assign(problem, tour);
  Rng rng(7101);
  const std::size_t m = tour.size();
  constexpr std::size_t kB = tsp::detail::TourMirror::kBlock;
  for (int step = 0; step < 300; ++step) {
    std::size_t i = static_cast<std::size_t>(rng.below(m));
    std::size_t j = static_cast<std::size_t>(rng.below(m));
    if (i > j) std::swap(i, j);
    // Every other reversal starts on a block boundary, where leg i-1 and
    // the moved point i belong to the block on the left.
    if (step % 2 == 0) i -= i % kB;
    std::reverse(tour.begin() + static_cast<std::ptrdiff_t>(i),
                 tour.begin() + static_cast<std::ptrdiff_t>(j) + 1);
    mirror.reverse(i, j);
    tsp::detail::TourMirror fresh;
    fresh.assign(problem, tour);
    ASSERT_EQ(fresh.px, mirror.px);
    ASSERT_EQ(fresh.py, mirror.py);
    ASSERT_EQ(fresh.tc, mirror.tc);
    // Identical summaries make identical prune decisions: compare the
    // pruned-block counts as well as the hits, over Or-opt-shaped queries.
    for (std::size_t q = 1; q + 1 < m; q += 3) {
      const auto qp = static_cast<std::ptrdiff_t>(q);
      const double threshold = mirror.travel(qp - 1, qp) +
                               mirror.travel(qp, qp + 1) -
                               mirror.travel(qp - 1, qp + 1);
      const std::uint64_t fresh_before = fresh.blocks_pruned;
      const std::uint64_t kept_before = mirror.blocks_pruned;
      ASSERT_EQ(fresh.or_opt_scan(0, m, mirror.px[q], mirror.py[q],
                                  mirror.px[q], mirror.py[q], threshold),
                mirror.or_opt_scan(0, m, mirror.px[q], mirror.py[q],
                                   mirror.px[q], mirror.py[q], threshold))
          << "step=" << step << " q=" << q;
      ASSERT_EQ(fresh.blocks_pruned - fresh_before,
                mirror.blocks_pruned - kept_before)
          << "step=" << step << " q=" << q;
    }
  }
}

// A block whose points all coincide makes the bound equal to the kernel's
// own value, so the tightest threshold that still hits is one ulp away
// from it: an exact bound keeps the block, any margin error prunes it.
// Two more blocks put their only hit at the block's last index, through
// the next block's first point and through the depot sentinel at m,
// which the box must include.
TEST(ImproveCache, BoundsAreExactOnDegenerateBlocks) {
  using Mirror = tsp::detail::TourMirror;
  constexpr std::size_t kB = Mirror::kBlock;
  for (double speed : {1.0, 2.7}) {
    for (double offset : {0.0, 1e6}) {
      const geom::Point s1{offset + 10.0, offset + 10.3};
      const geom::Point s2{offset + 400.0, offset + 400.3};
      const geom::Point s3{offset + 700.0, offset + 20.0};
      tsp::TourProblem problem;
      problem.speed = speed;
      problem.depot = {offset + 900.0, offset + 900.0};
      Rng rng(7200);
      for (std::size_t p = 0; p < 4 * kB; ++p) {
        geom::Point site{offset + rng.uniform(0.0, 800.0),
                         offset + rng.uniform(0.0, 800.0)};
        if (p <= kB) site = s1;  // block 0 and its next point
        if (p >= 2 * kB) site = p < 3 * kB ? s2 : s3;
        problem.sites.push_back(site);
        problem.service.push_back(1.0);
      }
      Mirror mirror;
      mirror.assign(problem, identity_tour(problem.size()));
      const std::size_t m = problem.size();
      const double* px = mirror.px.data();
      const double* py = mirror.py.data();
      const double* tc = mirror.tc.data();
      const double min_gain = tsp::ImproveOptions{}.min_gain;
      for (std::size_t k : {std::size_t{0}, 3 * kB - 1, 4 * kB - 1}) {
        const std::size_t begin = k - k % kB;
        const auto where = [&] {
          return ::testing::Message() << "k=" << k << " speed=" << speed
                                      << " offset=" << offset;
        };
        // Both queries end next to P[k + 1], so k holds the block's
        // smallest kernel value.
        const double qx = offset + 3.0, qy = offset + 5.0;
        const double ex = px[k + 1] + 0.25, ey = py[k + 1] - 0.5;
        const double dax = px[k] - qx, day = py[k] - qy;
        const double dbx = ex - px[k + 1], dby = ey - py[k + 1];
        const double cost = std::sqrt(dax * dax + day * day) / speed +
                            std::sqrt(dbx * dbx + dby * dby) / speed - tc[k];
        for (double threshold : {cost, std::nextafter(cost, 1e300)}) {
          const std::size_t want = simd::or_opt_scan(
              px, py, tc, begin, m, qx, qy, ex, ey, speed, threshold);
          EXPECT_EQ(want == k, threshold != cost) << where();
          EXPECT_EQ(want, mirror.or_opt_scan(begin, m, qx, qy, ex, ey,
                                             threshold))
              << "or-opt " << where();
        }
        // 2-opt: bisect `base` down to the ulp where the kernel starts to
        // hit inside the block, and check both sides of that boundary.
        const auto hits = [&](double base) {
          return simd::two_opt_scan(px, py, tc, begin, begin + kB, qx, qy,
                                    ex, ey, speed, base,
                                    min_gain) != simd::kNpos;
        };
        double lo = -1e7, hi = 1e7;
        ASSERT_TRUE(!hits(lo) && hits(hi)) << where();
        while (std::nextafter(lo, hi) < hi) {
          const double mid = lo + (hi - lo) / 2.0;
          (hits(mid) ? hi : lo) = mid;
        }
        for (double base : {lo, hi}) {
          const std::size_t want = simd::two_opt_scan(
              px, py, tc, begin, m, qx, qy, ex, ey, speed, base, min_gain);
          EXPECT_EQ(want == k, base == hi) << where();
          EXPECT_EQ(want, mirror.two_opt_scan(begin, m, qx, qy, ex, ey, base,
                                              min_gain))
              << "2-opt " << where();
        }
      }
    }
  }
}

}  // namespace
}  // namespace mcharge
