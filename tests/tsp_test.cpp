// Tests for TSP construction, improvement, and min-max K splitting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>

#include "geometry/field.h"
#include "simd_backends.h"
#include "tsp/construct.h"
#include "tsp/exact.h"
#include "tsp/improve.h"
#include "tsp/split.h"
#include "tsp/tour_problem.h"
#include "util/rng.h"

namespace mcharge::tsp {
namespace {

TourProblem random_problem(std::size_t m, Rng& rng, double max_service = 100.0) {
  TourProblem p;
  p.sites = geom::uniform_field(m, 100.0, 100.0, rng);
  p.service.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    p.service.push_back(rng.uniform(0.0, max_service));
  }
  p.depot = {50.0, 50.0};
  p.speed = 1.0;
  return p;
}

/// Held-Karp exact TSP over sites + depot for tiny instances; returns the
/// optimal closed-tour travel time.
double exact_travel(const TourProblem& p) {
  const std::size_t m = p.size();
  std::vector<SiteId> perm(m);
  std::iota(perm.begin(), perm.end(), SiteId{0});
  double best = std::numeric_limits<double>::infinity();
  do {
    Tour t(perm.begin(), perm.end());
    best = std::min(best, tour_travel_time(p, t));
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

// ---------- delay accounting ----------

TEST(TourProblem, DelayComponents) {
  TourProblem p;
  p.sites = {{53.0, 50.0}, {53.0, 54.0}};
  p.service = {10.0, 20.0};
  p.depot = {50.0, 50.0};
  p.speed = 1.0;
  const Tour tour{0, 1};
  EXPECT_DOUBLE_EQ(tour_service_time(p, tour), 30.0);
  EXPECT_DOUBLE_EQ(tour_travel_time(p, tour), 3.0 + 4.0 + 5.0);
  EXPECT_DOUBLE_EQ(tour_delay(p, tour), 42.0);
}

TEST(TourProblem, EmptyTourZeroDelay) {
  TourProblem p;
  p.depot = {0, 0};
  EXPECT_DOUBLE_EQ(tour_delay(p, {}), 0.0);
}

TEST(TourProblem, SpeedScalesTravelOnly) {
  TourProblem p;
  p.sites = {{10.0, 0.0}};
  p.service = {7.0};
  p.depot = {0.0, 0.0};
  p.speed = 2.0;
  EXPECT_DOUBLE_EQ(tour_delay(p, {0}), 10.0 + 7.0);
}

TEST(TourProblem, IsCompleteTour) {
  TourProblem p;
  p.sites = {{0, 0}, {1, 1}, {2, 2}};
  p.service = {0, 0, 0};
  EXPECT_TRUE(is_complete_tour(p, {2, 0, 1}));
  EXPECT_FALSE(is_complete_tour(p, {0, 1}));
  EXPECT_FALSE(is_complete_tour(p, {0, 1, 1}));
  EXPECT_FALSE(is_complete_tour(p, {0, 1, 5}));
}

TEST(TourProblem, DistanceSymmetricAndZeroDiagonal) {
  Rng rng(52);
  const TourProblem p = random_problem(30, rng);
  for (SiteId a = 0; a < p.size(); ++a) {
    EXPECT_EQ(p.distance(a, a), 0.0);
    for (SiteId b = a + 1; b < p.size(); ++b) {
      EXPECT_EQ(p.distance(a, b), p.distance(b, a));
    }
  }
}

// ---------- constructors ----------

class BuilderProperty
    : public ::testing::TestWithParam<std::tuple<int, TourBuilder>> {};

TEST_P(BuilderProperty, ProducesCompleteTour) {
  const auto [seed, builder] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 1009 + 5);
  const std::size_t m = 1 + rng.below(60);
  const TourProblem p = random_problem(m, rng);
  const Tour tour = build_tour(p, builder);
  EXPECT_TRUE(is_complete_tour(p, tour));
}

INSTANTIATE_TEST_SUITE_P(
    AllBuilders, BuilderProperty,
    ::testing::Combine(::testing::Range(0, 6),
                       ::testing::Values(TourBuilder::kNearestNeighbor,
                                         TourBuilder::kGreedyEdge,
                                         TourBuilder::kDoubleTree,
                                         TourBuilder::kChristofides)));

TEST(Builders, EmptyAndSingleSite) {
  TourProblem p;
  p.depot = {0, 0};
  for (auto b : {TourBuilder::kNearestNeighbor, TourBuilder::kGreedyEdge,
                 TourBuilder::kDoubleTree, TourBuilder::kChristofides}) {
    EXPECT_TRUE(build_tour(p, b).empty());
  }
  p.sites = {{3, 4}};
  p.service = {1.0};
  for (auto b : {TourBuilder::kNearestNeighbor, TourBuilder::kGreedyEdge,
                 TourBuilder::kDoubleTree, TourBuilder::kChristofides}) {
    const Tour t = build_tour(p, b);
    ASSERT_EQ(t.size(), 1u);
    EXPECT_EQ(t[0], 0u);
  }
}

// Frozen nearest-neighbour construction: a strict-< scan over
// geom::distance rows (the depot row for the first hop, then the row of
// the site just visited), lowest index on ties.
Tour frozen_nearest_neighbor(const TourProblem& p) {
  const std::size_t m = p.size();
  Tour tour;
  std::vector<char> visited(m, 0);
  geom::Point at = p.depot;
  for (std::size_t step = 0; step < m; ++step) {
    SiteId best_v = 0;
    double best = std::numeric_limits<double>::infinity();
    for (SiteId v = 0; v < m; ++v) {
      if (visited[v]) continue;
      const double d = geom::distance(at, p.sites[v]);
      if (d < best) {
        best = d;
        best_v = v;
      }
    }
    visited[best_v] = 1;
    tour.push_back(best_v);
    at = p.sites[best_v];
  }
  return tour;
}

TEST(NearestNeighbor, MatchesFrozenMatrixScanOnAllBackends) {
  for (std::size_t m : {0u, 1u, 2u, 3u, 7u, 8u, 9u, 17u, 33u, 100u}) {
    Rng rng(900 + m);
    TourProblem p = random_problem(m, rng);
    // Exact duplicate sites tie in every row, including at distance 0
    // once one copy is visited.
    for (std::size_t i = 1; i + 1 < m; i += 3) p.sites[i + 1] = p.sites[i];
    const Tour want = frozen_nearest_neighbor(p);
    ASSERT_EQ(want.size(), m);
    for (simd::Backend b : supported_backends()) {
      BackendGuard guard(b);
      EXPECT_EQ(want, nearest_neighbor_tour(p))
          << "m=" << m << " backend=" << simd::backend_name(b);
    }
  }
}

class ChristofidesQuality : public ::testing::TestWithParam<int> {};

TEST_P(ChristofidesQuality, Within1point5OfExactOnTinyInstances) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 37 + 11);
  const std::size_t m = 3 + rng.below(5);  // 3..7 sites
  const TourProblem p = random_problem(m, rng);
  const Tour tour = christofides_tour(p);
  const double opt = exact_travel(p);
  EXPECT_LE(tour_travel_time(p, tour), 1.5 * opt + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChristofidesQuality, ::testing::Range(0, 10));

class DoubleTreeQuality : public ::testing::TestWithParam<int> {};

TEST_P(DoubleTreeQuality, Within2OfExactOnTinyInstances) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 53 + 29);
  const std::size_t m = 3 + rng.below(5);
  const TourProblem p = random_problem(m, rng);
  const Tour tour = double_tree_tour(p);
  EXPECT_LE(tour_travel_time(p, tour), 2.0 * exact_travel(p) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DoubleTreeQuality, ::testing::Range(0, 10));

// ---------- exact (Held-Karp) ----------

class HeldKarpVsEnumeration : public ::testing::TestWithParam<int> {};

TEST_P(HeldKarpVsEnumeration, MatchesPermutationOptimum) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 911 + 7);
  const std::size_t m = 1 + rng.below(7);  // 1..7 (enumeration stays cheap)
  const TourProblem p = random_problem(m, rng);
  EXPECT_NEAR(held_karp_travel_time(p), exact_travel(p), 1e-9);
  const Tour tour = held_karp_tour(p);
  EXPECT_TRUE(is_complete_tour(p, tour));
  EXPECT_NEAR(tour_travel_time(p, tour), exact_travel(p), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeldKarpVsEnumeration, ::testing::Range(0, 10));

TEST(HeldKarp, EmptyProblem) {
  TourProblem p;
  p.depot = {0, 0};
  EXPECT_DOUBLE_EQ(held_karp_travel_time(p), 0.0);
  EXPECT_TRUE(held_karp_tour(p).empty());
}

TEST(HeldKarp, MediumInstanceLowerBoundsHeuristics) {
  Rng rng(55);
  const TourProblem p = random_problem(14, rng);
  const double opt = held_karp_travel_time(p);
  for (auto b : {TourBuilder::kNearestNeighbor, TourBuilder::kGreedyEdge,
                 TourBuilder::kDoubleTree, TourBuilder::kChristofides}) {
    const Tour tour = build_tour(p, b);
    EXPECT_GE(tour_travel_time(p, tour), opt - 1e-9)
        << "builder " << static_cast<int>(b);
  }
}

TEST(HeldKarp, TwoOptNeverBeatsExact) {
  for (int seed = 0; seed < 5; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 13 + 3);
    const TourProblem p = random_problem(10, rng);
    Tour tour = nearest_neighbor_tour(p);
    improve_tour(p, tour);
    EXPECT_GE(tour_travel_time(p, tour),
              held_karp_travel_time(p) - 1e-9);
  }
}

// ---------- improvement ----------

TEST(TwoOpt, UncrossesSquare) {
  TourProblem p;
  p.sites = {{0, 0}, {10, 10}, {10, 0}, {0, 10}};
  p.service = {0, 0, 0, 0};
  p.depot = {0, -5};
  // Crossing order: 0 -> 1 -> 2 -> 3.
  Tour tour{0, 1, 2, 3};
  const double before = tour_travel_time(p, tour);
  const double saved = two_opt(p, tour);
  EXPECT_GT(saved, 0.0);
  EXPECT_NEAR(tour_travel_time(p, tour), before - saved, 1e-9);
  EXPECT_TRUE(is_complete_tour(p, tour));
}

class ImproveProperty : public ::testing::TestWithParam<int> {};

TEST_P(ImproveProperty, NeverIncreasesTravelAndStaysComplete) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 401 + 3);
  const std::size_t m = 2 + rng.below(50);
  const TourProblem p = random_problem(m, rng);
  Tour tour = nearest_neighbor_tour(p);
  const double before = tour_travel_time(p, tour);
  const double saved = improve_tour(p, tour);
  EXPECT_GE(saved, 0.0);
  EXPECT_NEAR(tour_travel_time(p, tour), before - saved, 1e-6);
  EXPECT_TRUE(is_complete_tour(p, tour));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ImproveProperty, ::testing::Range(0, 8));

TEST(OrOpt, RelocatesObviousOutlier) {
  // Line of sites visited out of order (20 before 10); relocating the
  // single site x=10 to the front saves 20 m.
  TourProblem p;
  p.sites = {{10, 0}, {20, 0}, {30, 0}, {40, 0}};
  p.service = {0, 0, 0, 0};
  p.depot = {0, 0};
  Tour tour{1, 0, 2, 3};  // 0 -> 20 -> 10 -> 30 -> 40 -> 0 = 100 m
  const double saved = or_opt(p, tour);
  EXPECT_NEAR(saved, 20.0, 1e-9);
  EXPECT_EQ(tour, (Tour{0, 1, 2, 3}));
}

// ---------- splitting ----------

TEST(Split, SingleChargerKeepsWholeTour) {
  Rng rng(1);
  const TourProblem p = random_problem(20, rng);
  Tour tour = nearest_neighbor_tour(p);
  const auto result = split_min_max(p, tour, 1);
  ASSERT_EQ(result.tours.size(), 1u);
  EXPECT_TRUE(is_complete_tour(p, result.tours[0]));
  EXPECT_NEAR(result.max_delay, tour_delay(p, tour), 1e-9);
}

TEST(Split, EmptyProblem) {
  TourProblem p;
  p.depot = {0, 0};
  const auto result = split_min_max(p, {}, 3);
  ASSERT_EQ(result.tours.size(), 3u);
  for (const auto& t : result.tours) EXPECT_TRUE(t.empty());
  EXPECT_DOUBLE_EQ(result.max_delay, 0.0);
}

class SplitProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SplitProperty, PartitionPreservedAndDelayConsistent) {
  const auto [seed, k] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 61 + 13);
  const std::size_t m = 1 + rng.below(80);
  const TourProblem p = random_problem(m, rng, 500.0);
  Tour tour = nearest_neighbor_tour(p);
  two_opt(p, tour);
  const auto result = split_min_max(p, tour, static_cast<std::size_t>(k));
  ASSERT_EQ(result.tours.size(), static_cast<std::size_t>(k));

  // Union of segments is exactly the site set, in tour order.
  Tour combined;
  for (const auto& seg : result.tours) {
    combined.insert(combined.end(), seg.begin(), seg.end());
  }
  EXPECT_EQ(combined, tour);

  // Reported max delay matches recomputation and never exceeds the whole
  // tour's delay.
  double recomputed = 0.0;
  for (const auto& seg : result.tours) {
    recomputed = std::max(recomputed, tour_delay(p, seg));
  }
  EXPECT_NEAR(result.max_delay, recomputed, 1e-9);
  EXPECT_LE(result.max_delay, tour_delay(p, tour) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SplitProperty,
                         ::testing::Combine(::testing::Range(0, 6),
                                            ::testing::Values(1, 2, 3, 5)));

/// Brute force: best max-delay over all ways to cut `tour` into <= k
/// consecutive segments (exponential; tiny inputs only).
double brute_force_split(const TourProblem& p, const Tour& tour,
                         std::size_t k) {
  const std::size_t m = tour.size();
  double best = std::numeric_limits<double>::infinity();
  // Each of the m-1 gaps is cut or not; <= k segments means <= k-1 cuts.
  const std::uint32_t gaps = m > 0 ? static_cast<std::uint32_t>(m - 1) : 0;
  for (std::uint32_t mask = 0; mask < (1u << gaps); ++mask) {
    if (static_cast<std::size_t>(__builtin_popcount(mask)) > k - 1) continue;
    double worst = 0.0;
    Tour segment;
    for (std::size_t i = 0; i < m; ++i) {
      segment.push_back(tour[i]);
      const bool cut = i < gaps && (mask & (1u << i));
      if (cut || i + 1 == m) {
        worst = std::max(worst, tour_delay(p, segment));
        segment.clear();
      }
    }
    best = std::min(best, worst);
  }
  return best;
}

class SplitOptimality : public ::testing::TestWithParam<std::tuple<int, int>> {
};

TEST_P(SplitOptimality, BinarySearchMatchesBruteForceCut) {
  const auto [seed, k] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 131 + 71);
  const std::size_t m = 2 + rng.below(11);  // 2..12 sites
  const TourProblem p = random_problem(m, rng, 400.0);
  const Tour tour = nearest_neighbor_tour(p);
  const auto split = split_min_max(p, tour, static_cast<std::size_t>(k));
  const double brute = brute_force_split(p, tour, static_cast<std::size_t>(k));
  EXPECT_NEAR(split.max_delay, brute, 1e-6 * std::max(1.0, brute));
}

INSTANTIATE_TEST_SUITE_P(Sweep, SplitOptimality,
                         ::testing::Combine(::testing::Range(0, 8),
                                            ::testing::Values(1, 2, 3, 4)));

TEST(Split, MoreChargersNeverWorse) {
  Rng rng(17);
  const TourProblem p = random_problem(60, rng, 300.0);
  Tour tour = nearest_neighbor_tour(p);
  double prev = std::numeric_limits<double>::infinity();
  for (std::size_t k = 1; k <= 5; ++k) {
    const auto result = split_min_max(p, tour, k);
    EXPECT_LE(result.max_delay, prev + 1e-9);
    prev = result.max_delay;
  }
}

TEST(Split, LowerBoundRespected) {
  // Max delay can never be below the hardest single site.
  Rng rng(23);
  const TourProblem p = random_problem(40, rng, 1000.0);
  Tour tour = nearest_neighbor_tour(p);
  double hardest = 0.0;
  for (SiteId v = 0; v < p.size(); ++v) {
    hardest = std::max(hardest, 2.0 * p.travel_depot(v) + p.service[v]);
  }
  const auto result = split_min_max(p, tour, 4);
  EXPECT_GE(result.max_delay, hardest - 1e-9);
}

// Energy of a depot-rooted segment under a SegmentEnergyCap's cost model.
double segment_energy(const TourProblem& p, const Tour& s,
                      const SegmentEnergyCap& cap) {
  if (s.empty()) return 0.0;
  double travel = p.travel_depot(s.front()) + p.travel_depot(s.back());
  double service = 0.0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (i + 1 < s.size()) travel += p.travel(s[i], s[i + 1]);
    service += p.service[s[i]];
  }
  return travel * cap.travel_power_w + service * cap.service_power_w;
}

TEST(Split, DisabledEnergyCapIsByteIdentical) {
  Rng rng(29);
  const TourProblem p = random_problem(50, rng, 400.0);
  Tour tour = nearest_neighbor_tour(p);
  const auto plain = split_min_max(p, tour, 3);
  SegmentEnergyCap cap;  // budget 0 = disabled; cost fields must be inert
  cap.travel_power_w = 135.0;
  cap.service_power_w = 2.0;
  const auto capped = split_min_max(p, tour, 3, cap);
  ASSERT_EQ(plain.tours.size(), capped.tours.size());
  for (std::size_t i = 0; i < plain.tours.size(); ++i) {
    EXPECT_EQ(plain.tours[i], capped.tours[i]);
  }
  EXPECT_EQ(plain.max_delay, capped.max_delay);
}

TEST(Split, EnergyCapBoundsEverySegmentWhenRoomAllows) {
  Rng rng(31);
  const TourProblem p = random_problem(40, rng, 400.0);
  Tour tour = nearest_neighbor_tour(p);
  SegmentEnergyCap cap;
  cap.travel_power_w = 135.0;
  cap.service_power_w = 2.0;
  // A third of the whole tour's energy: binding (an uncapped 2-way split
  // must overdraw it) yet feasible with room for extra segments.
  cap.budget_j = segment_energy(p, tour, cap) / 3.0;
  const auto uncapped = split_min_max(p, tour, 2);
  bool overdraw = false;
  for (const auto& s : uncapped.tours) {
    overdraw = overdraw || segment_energy(p, s, cap) > cap.budget_j;
  }
  ASSERT_TRUE(overdraw) << "cap not binding; test instance too easy";

  const auto capped = split_min_max(p, tour, 20, cap);
  Tour combined;
  for (const auto& s : capped.tours) {
    EXPECT_LE(segment_energy(p, s, cap),
              cap.budget_j * (1.0 + 1e-12) + 1e-9);
    combined.insert(combined.end(), s.begin(), s.end());
  }
  EXPECT_EQ(combined, tour);  // still a partition in tour order
}

TEST(Split, InfeasibleEnergyCapFallsBackToUncapped) {
  Rng rng(37);
  const TourProblem p = random_problem(30, rng, 400.0);
  Tour tour = nearest_neighbor_tour(p);
  SegmentEnergyCap cap;
  cap.travel_power_w = 135.0;
  cap.service_power_w = 2.0;
  cap.budget_j = 1e-3;  // nothing multi-site fits; k = 1 cannot satisfy it
  const auto fallback = split_min_max(p, tour, 1, cap);
  const auto plain = split_min_max(p, tour, 1);
  ASSERT_EQ(fallback.tours.size(), 1u);
  EXPECT_EQ(fallback.tours[0], plain.tours[0]);
  EXPECT_TRUE(is_complete_tour(p, fallback.tours[0]));
}

// Frozen copy of split_min_max as it was before the probes stopped
// building segment vectors: every greedy probe materializes its cut.
struct FrozenCut {
  bool ok = false;
  std::vector<Tour> segments;
};

FrozenCut frozen_greedy_cut(const TourProblem& p, const Tour& tour,
                            double budget, const SegmentEnergyCap& cap) {
  FrozenCut result;
  Tour current;
  double internal = 0.0;
  double etravel = 0.0;
  double eservice = 0.0;
  for (std::size_t i = 0; i < tour.size(); ++i) {
    const SiteId v = tour[i];
    const double solo = 2.0 * p.travel_depot(v) + p.service[v];
    if (solo > budget) return result;
    if (current.empty()) {
      current.push_back(v);
      internal = p.service[v];
      etravel = 0.0;
      eservice = p.service[v];
      continue;
    }
    const double extended = p.travel_depot(current.front()) + internal +
                            p.travel(current.back(), v) + p.service[v] +
                            p.travel_depot(v);
    bool fits = extended <= budget;
    if (fits && cap.enabled()) {
      const double joules =
          (p.travel_depot(current.front()) + etravel +
           p.travel(current.back(), v) + p.travel_depot(v)) *
              cap.travel_power_w +
          (eservice + p.service[v]) * cap.service_power_w;
      fits = joules <= cap.budget_j;
    }
    if (fits) {
      internal += p.travel(current.back(), v) + p.service[v];
      etravel += p.travel(current.back(), v);
      eservice += p.service[v];
      current.push_back(v);
    } else {
      result.segments.push_back(std::move(current));
      current = {v};
      internal = p.service[v];
      etravel = 0.0;
      eservice = p.service[v];
    }
  }
  if (!current.empty()) result.segments.push_back(std::move(current));
  result.ok = true;
  return result;
}

SplitResult frozen_split_min_max(const TourProblem& problem, const Tour& tour,
                                 std::size_t k, const SegmentEnergyCap& cap) {
  SplitResult result;
  double lo0 = -std::numeric_limits<double>::infinity();
  for (SiteId v : tour) {
    lo0 = std::max(lo0, 2.0 * problem.travel_depot(v) + problem.service[v]);
  }
  double lo = std::max(0.0, lo0);
  double hi = std::max(lo, tour_delay(problem, tour));
  hi += 1e-9 * std::max(1.0, hi);
  SegmentEnergyCap use = cap;
  FrozenCut best = frozen_greedy_cut(problem, tour, hi, use);
  if (use.enabled() && best.ok && best.segments.size() > k) {
    use = SegmentEnergyCap{};
    best = frozen_greedy_cut(problem, tour, hi, use);
  }
  for (int iter = 0; iter < 64 && hi - lo > 1e-9 * std::max(1.0, hi); ++iter) {
    const double mid = 0.5 * (lo + hi);
    FrozenCut cut = frozen_greedy_cut(problem, tour, mid, use);
    if (cut.ok && cut.segments.size() <= k) {
      best = std::move(cut);
      hi = mid;
    } else {
      lo = mid;
    }
  }
  result.tours = std::move(best.segments);
  result.tours.resize(k);
  for (const auto& s : result.tours) {
    result.max_delay = std::max(result.max_delay, tour_delay(problem, s));
  }
  return result;
}

TEST(Split, ProbeBufferMatchesFrozenVectorSplitBitwise) {
  std::size_t capped_runs = 0;
  std::size_t fallback_runs = 0;
  for (std::size_t m = 1; m <= 40; ++m) {
    Rng rng(500 + m);
    const TourProblem p = random_problem(m, rng, 400.0);
    Tour tour = nearest_neighbor_tour(p);
    if (m % 2 == 0) rng.shuffle(tour);  // a poor tour: more, uneven cuts
    SegmentEnergyCap room;
    room.travel_power_w = 135.0;
    room.service_power_w = 2.0;
    room.budget_j = segment_energy(p, tour, room) / 3.0;
    SegmentEnergyCap starved = room;
    starved.budget_j = 1e-3;  // no multi-site segment fits
    for (std::size_t k = 1; k <= 5; ++k) {
      for (const SegmentEnergyCap& cap :
           {SegmentEnergyCap{}, room, starved}) {
        const SplitResult want = frozen_split_min_max(p, tour, k, cap);
        const SplitResult got = split_min_max(p, tour, k, cap);
        SCOPED_TRACE("m=" + std::to_string(m) + " k=" + std::to_string(k) +
                     " cap=" + std::to_string(cap.budget_j));
        ASSERT_EQ(want.tours, got.tours);
        EXPECT_EQ(0, std::memcmp(&want.max_delay, &got.max_delay,
                                 sizeof(double)));
        if (cap.enabled()) {
          ++capped_runs;
          // The starved cap must take the cap-drop path once there are
          // more sites than chargers.
          if (cap.budget_j == starved.budget_j && m > k) {
            const SplitResult plain = split_min_max(p, tour, k);
            EXPECT_EQ(plain.tours, got.tours);
            ++fallback_runs;
          }
        }
      }
    }
  }
  EXPECT_GT(capped_runs, 0u);
  EXPECT_GT(fallback_runs, 0u);
}

/// The cut of `frozen_greedy_cut` as segment start positions.
std::vector<std::size_t> frozen_starts(const FrozenCut& cut) {
  std::vector<std::size_t> starts;
  std::size_t at = 0;
  for (const Tour& segment : cut.segments) {
    starts.push_back(at);
    at += segment.size();
  }
  return starts;
}

TEST(Split, GreedyCutPinsOperationOrderAtBoundaryBudgets) {
  // Probes at budgets exactly equal to the frozen-order cost of extending
  // the first segment by site i, and one ulp below it, decide on the last
  // bit of that sum. Any reassociation that rounds differently (counted
  // below for two plausible ones) flips a decision and changes the cut.
  constexpr double kInfBudget = std::numeric_limits<double>::infinity();
  std::size_t swapped_differs = 0, regrouped_differs = 0;
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    Rng rng(9100 + seed);
    const std::size_t m = 3 + rng.below(10);
    const TourProblem p = random_problem(m, rng, 400.0);
    Tour tour(m);
    std::iota(tour.begin(), tour.end(), SiteId{0});
    rng.shuffle(tour);
    std::vector<detail::Legs> legs(m);
    for (std::size_t i = 0; i < m; ++i) {
      legs[i].depot = p.travel_depot(tour[i]);
      legs[i].prev = i == 0 ? 0.0 : p.travel(tour[i - 1], tour[i]);
    }
    SegmentEnergyCap cap;
    cap.travel_power_w = 135.0;
    cap.service_power_w = 2.0;
    const double front = legs[0].depot;
    double internal = p.service[tour[0]];
    double regrouped_internal = internal;
    double etravel = 0.0;
    double eservice = internal;
    std::vector<std::size_t> got;
    for (std::size_t i = 1; i < m; ++i) {
      const double prev = legs[i].prev;
      const double service = p.service[tour[i]];
      const double depot = legs[i].depot;
      const double extended = front + internal + prev + service + depot;
      const double joules =
          (front + etravel + prev + depot) * cap.travel_power_w +
          (eservice + service) * cap.service_power_w;
      swapped_differs += extended != front + internal + prev + depot + service;
      regrouped_differs +=
          extended != front + regrouped_internal + prev + service + depot;
      for (const double at : {extended, std::nextafter(extended, 0.0)}) {
        const FrozenCut want = frozen_greedy_cut(p, tour, at, {});
        const bool ok = detail::greedy_cut(p, tour, legs, at, {}, m, got);
        ASSERT_EQ(want.ok, ok) << "seed=" << seed << " i=" << i;
        if (ok) {
          EXPECT_EQ(frozen_starts(want), got) << "seed=" << seed;
        }
      }
      for (const double at : {joules, std::nextafter(joules, 0.0)}) {
        cap.budget_j = at;
        const FrozenCut want = frozen_greedy_cut(p, tour, kInfBudget, cap);
        ASSERT_TRUE(detail::greedy_cut(p, tour, legs, kInfBudget, cap, m, got));
        EXPECT_EQ(frozen_starts(want), got) << "seed=" << seed << " i=" << i;
      }
      internal += prev + service;
      regrouped_internal = regrouped_internal + prev + service;
      etravel += prev;
      eservice += service;
    }
  }
  EXPECT_GT(swapped_differs, 0u);
  EXPECT_GT(regrouped_differs, 0u);
}

TEST(MinMaxKTours, EndToEndCoversAllSites) {
  Rng rng(31);
  const TourProblem p = random_problem(100, rng, 200.0);
  const auto result = min_max_k_tours(p, 3);
  std::vector<char> seen(p.size(), 0);
  for (const auto& tour : result.tours) {
    for (SiteId v : tour) {
      EXPECT_FALSE(seen[v]);
      seen[v] = 1;
    }
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](char c) { return c; }));
  EXPECT_GT(result.max_delay, 0.0);
}

TEST(MinMaxKTours, SegmentImproveNeverHurts) {
  Rng rng(41);
  const TourProblem p = random_problem(80, rng, 200.0);
  MinMaxTourOptions with, without;
  with.improve_segments = true;
  without.improve_segments = false;
  const auto a = min_max_k_tours(p, 3, with);
  const auto b = min_max_k_tours(p, 3, without);
  EXPECT_LE(a.max_delay, b.max_delay + 1e-9);
}

}  // namespace
}  // namespace mcharge::tsp
