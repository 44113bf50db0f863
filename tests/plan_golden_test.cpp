// Cross-commit pin of the planners: Appro plans with their ApproStats,
// K-minMax tours and the Euclidean matching dispatch, checked in as
// hexfloat + FNV-1a digests (golden_digest.h).
//
// The corpora are the rounds the planner's differential tests have always
// used: uniform fields of 50, 200 and 1200 sensors under both step-6
// insertion rules, a 600-sensor clustered field whose insertion phase has
// a large pending set, K-tour substrates up to 1200 sites, and matchings
// on both sides of every size threshold of the dispatch (n = 16, 18, 126,
// 128, 130) plus the real odd-vertex set of a 1200-site Christofides run.
// Every digest must come out the same on every SIMD backend.
//
// Re-baseline only on purpose: a change meant to alter plans updates the
// table and explains the diff.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "baselines/kminmax.h"
#include "core/appro.h"
#include "geometry/field.h"
#include "golden_digest.h"
#include "graph/mst.h"
#include "matching/matching.h"
#include "model/charging_problem.h"
#include "simd_backends.h"
#include "tsp/split.h"
#include "util/rng.h"

namespace mcharge {
namespace {

using golden::Digest;

/// One charging round in the bench generator's shape (uniform field,
/// deficits within the paper's battery range).
model::ChargingProblem random_round(std::size_t n, std::size_t k,
                                    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<geom::Point> pts;
  std::vector<double> deficits;
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)});
    deficits.push_back(rng.uniform(3456.0, 5400.0));
  }
  return model::ChargingProblem(std::move(pts), std::move(deficits),
                                {50.0, 50.0}, 2.7, 1.0, k);
}

/// 20 tight clusters of 30 sensors: a dense charging graph, large
/// H-degrees and a pending set of well over 20 nodes in step 6.
model::ChargingProblem clustered_round() {
  Rng rng(77);
  std::vector<geom::Point> pts;
  std::vector<double> deficits;
  for (std::size_t i = 0; i < 600; ++i) {
    const double cx = 5.0 + 90.0 * static_cast<double>(i % 20) / 19.0;
    const double cy = rng.uniform(10.0, 90.0);
    pts.push_back({cx + rng.uniform(-2.0, 2.0), cy + rng.uniform(-2.0, 2.0)});
    deficits.push_back(3456.0);
  }
  return model::ChargingProblem(std::move(pts), std::move(deficits),
                                {50.0, 50.0}, 2.7, 1.0, 2);
}

void add_tours(Digest& d, const std::vector<std::vector<std::uint32_t>>& ts) {
  d.add(ts.size());
  for (const auto& tour : ts) {
    d.add(tour.size());
    for (std::uint32_t v : tour) d.add(static_cast<std::size_t>(v));
  }
}

std::string plan_digest(const sched::ChargingPlan& plan) {
  Digest d;
  d.add(static_cast<std::size_t>(plan.mode));
  add_tours(d, plan.tours);
  d.add(plan.starts.size());
  for (const geom::Point& p : plan.starts) {
    d.add(p.x);
    d.add(p.y);
  }
  std::size_t stops = 0;
  for (const auto& tour : plan.tours) stops += tour.size();
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%zu %016llx", stops,
                static_cast<unsigned long long>(d.value()));
  return buf;
}

std::string appro_digest(const sched::ChargingPlan& plan,
                         const core::ApproStats& s) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%zu %zu %zu %zu %zu %zu %zu %s", s.v_s,
                s.s_i, s.v_h, s.h_max_degree, s.inserted_case_one,
                s.inserted_case_two, s.dropped_covered,
                plan_digest(plan).c_str());
  return buf;
}

std::string matching_digest(const std::vector<geom::Point>& pts,
                            const matching::Matching& m) {
  Digest d;
  double weight = 0.0;
  for (const auto& [a, b] : m) {
    d.add(static_cast<std::size_t>(a));
    d.add(static_cast<std::size_t>(b));
    weight += geom::distance(pts[a], pts[b]);
  }
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%zu %s %016llx", m.size(),
                Digest::hexfloat(weight).c_str(),
                static_cast<unsigned long long>(d.value()));
  return buf;
}

/// Odd-degree MST vertices of a uniform field with the depot as vertex 0:
/// the population the Christofides call site hands the matching.
std::vector<geom::Point> christofides_odd_set(std::size_t sites,
                                              std::uint64_t seed) {
  Rng rng(seed);
  auto pts = geom::uniform_field(sites, 100.0, 100.0, rng);
  pts.insert(pts.begin(), geom::Point{50.0, 50.0});
  const auto mst =
      graph::prim_mst(pts.size(), [&](std::uint32_t a, std::uint32_t b) {
        return geom::distance(pts[a], pts[b]);
      });
  std::vector<std::size_t> degree(pts.size(), 0);
  for (const auto& e : mst) {
    ++degree[e.u];
    ++degree[e.v];
  }
  std::vector<geom::Point> odd;
  for (std::size_t v = 0; v < pts.size(); ++v) {
    if (degree[v] % 2 == 1) odd.push_back(pts[v]);
  }
  return odd;
}

struct RoundCase {
  std::size_t n;
  std::uint64_t seed;
};

// The corpus of the old legacy-vs-incremental acceptance matrix.
const RoundCase kRounds[] = {{50, 1},  {50, 2},  {50, 3},  {50, 4},
                             {200, 1}, {200, 2}, {1200, 9}};

struct ApproCase {
  std::size_t n;  ///< 0 = the clustered large-pending round
  std::uint64_t seed;
  core::InsertionRule rule;
  const char* digest;
};

constexpr auto kMaxFinish = core::InsertionRule::kAfterMaxFinishNeighbor;
constexpr auto kDetour = core::InsertionRule::kCheapestNeighborDetour;

const ApproCase kAppro[] = {
    {50, 1, kMaxFinish, "50 48 48 0 0 0 0 48 6e805789b5966517"},
    {50, 1, kDetour, "50 48 48 0 0 0 0 48 6e805789b5966517"},
    {50, 2, kMaxFinish, "50 50 50 0 0 0 0 50 edb2997143475b93"},
    {50, 2, kDetour, "50 50 50 0 0 0 0 50 edb2997143475b93"},
    {50, 3, kMaxFinish, "50 48 48 0 0 0 0 48 3f88117be106aa9a"},
    {50, 3, kDetour, "50 48 48 0 0 0 0 48 3f88117be106aa9a"},
    {50, 4, kMaxFinish, "50 46 46 0 0 0 0 46 23efeeda12dd72c4"},
    {50, 4, kDetour, "50 46 46 0 0 0 0 46 23efeeda12dd72c4"},
    {200, 1, kMaxFinish, "200 170 168 1 2 0 0 170 16ff0ad29e48f91b"},
    {200, 1, kDetour, "200 170 168 1 2 0 0 170 16ff0ad29e48f91b"},
    {200, 2, kMaxFinish, "200 165 163 1 2 0 0 165 5d1f0ce7c24dfd90"},
    {200, 2, kDetour, "200 165 163 1 2 0 0 165 5d1f0ce7c24dfd90"},
    {1200, 9, kMaxFinish, "1200 500 348 4 148 4 0 500 65d358822908ed4b"},
    {1200, 9, kDetour, "1200 500 348 4 148 4 0 500 4017c71fc0aedfed"},
    {0, 77, kMaxFinish, "600 313 252 4 61 0 0 313 7ccaa42a5ce40e44"},
    {0, 77, kDetour, "600 313 252 4 61 0 0 313 3f260b806f24c98a"},
};

TEST(PlanGolden, ApproPlansAndStatsMatchRecordedBitsOnAllBackends) {
  for (const ApproCase& c : kAppro) {
    const model::ChargingProblem problem =
        c.n == 0 ? clustered_round() : random_round(c.n, 2, c.seed);
    core::ApproOptions options;
    options.insertion = c.rule;
    for (simd::Backend b : supported_backends()) {
      BackendGuard guard(b);
      core::ApproStats stats;
      const auto plan =
          core::ApproScheduler(options).plan_with_stats(problem, &stats);
      EXPECT_EQ(std::string(c.digest), appro_digest(plan, stats))
          << "n=" << c.n << " seed=" << c.seed
          << " rule=" << static_cast<int>(c.rule) << " backend "
          << simd::backend_name(b);
      if (c.n == 0) {
        // The clustered round really runs a long insertion phase.
        EXPECT_GT(stats.inserted_case_one + stats.inserted_case_two, 20u);
      }
    }
  }
}

// K-minMax plans on kRounds, in order.
const char* const kKMinMax[] = {
    "50 b9166811f80184f4",  "50 9ed812b9ee7f0c8e",  "50 3a34605593714b7c",
    "50 e618d1e0dca27f3e",  "200 ca202b9ce3e8c3a9", "200 0468aa306d2f503f",
    "1200 144cc9be729d8959",
};

TEST(PlanGolden, KMinMaxPlansMatchRecordedBitsOnAllBackends) {
  for (std::size_t i = 0; i < std::size(kRounds); ++i) {
    const model::ChargingProblem problem =
        random_round(kRounds[i].n, 2, kRounds[i].seed);
    for (simd::Backend b : supported_backends()) {
      BackendGuard guard(b);
      EXPECT_EQ(std::string(kKMinMax[i]),
                plan_digest(baselines::KMinMaxScheduler().plan(problem)))
          << "n=" << kRounds[i].n << " seed=" << kRounds[i].seed
          << " backend " << simd::backend_name(b);
    }
  }
}

struct TourCase {
  std::size_t sites;
  std::size_t k;
  const char* digest;
};

const TourCase kTours[] = {
    {40, 1, "0x1.d9341174f3f99p+15 b816d19cc5ebc942"},
    {40, 3, "0x1.3e41212093022p+14 108710845fcf9b77"},
    {300, 3, "0x1.257269a97faf5p+17 c8c327e762386f75"},
    {1200, 1, "0x1.b685c6596dd06p+20 604267bbd54b2dd1"},
    {1200, 3, "0x1.247ee98c60349p+19 cd6be8ab8240761e"},
};

TEST(PlanGolden, MinMaxKToursMatchRecordedBitsOnAllBackends) {
  for (const TourCase& c : kTours) {
    Rng rng(c.sites * 31 + 5);
    tsp::TourProblem problem;
    problem.depot = {50.0, 50.0};
    problem.speed = 2.7;
    problem.sites = geom::uniform_field(c.sites, 100.0, 100.0, rng);
    for (std::size_t s = 0; s < c.sites; ++s) {
      problem.service.push_back(rng.uniform(1000.0, 2000.0));
    }
    for (simd::Backend b : supported_backends()) {
      BackendGuard guard(b);
      const tsp::SplitResult split = tsp::min_max_k_tours(problem, c.k);
      Digest d;
      add_tours(d, split.tours);
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%s %016llx",
                    Digest::hexfloat(split.max_delay).c_str(),
                    static_cast<unsigned long long>(d.value()));
      EXPECT_EQ(std::string(c.digest), std::string(buf))
          << "sites=" << c.sites << " k=" << c.k << " backend "
          << simd::backend_name(b);
    }
  }
}

struct MatchingCase {
  std::size_t n;  ///< 0 = the odd set of a 1200-site Christofides run
  const char* digest;
};

const MatchingCase kMatchings[] = {
    {16, "8 0x1.cfc57fd23aad7p+6 e68c73cc6ce43e05"},
    {18, "9 0x1.c16dcd8133f02p+6 84d2cc21b092b02e"},
    {126, "63 0x1.64696dc390e92p+8 8de84bf61e0ddb94"},
    {128, "64 0x1.77ae09ae0d982p+8 fe9d3789d0afc51d"},
    {130, "65 0x1.77d0cd26c5f95p+8 641b2b1ba93462dc"},
    {0, "260 0x1.86fa3476e6c09p+9 49bd840443f824cd"},
};

TEST(PlanGolden, EuclideanMatchingsMatchRecordedBitsOnAllBackends) {
  for (const MatchingCase& c : kMatchings) {
    std::vector<geom::Point> pts;
    if (c.n == 0) {
      pts = christofides_odd_set(1200, 1200 * 13 + 1);
      ASSERT_GT(pts.size(), matching::kSparseCrossover);
    } else {
      Rng rng(c.n * 101 + 7);
      pts = geom::uniform_field(c.n, 100.0, 100.0, rng);
    }
    for (simd::Backend b : supported_backends()) {
      BackendGuard guard(b);
      const auto m = matching::min_weight_euclidean_matching(pts);
      ASSERT_TRUE(matching::is_perfect_matching(pts.size(), m));
      EXPECT_EQ(std::string(c.digest), matching_digest(pts, m))
          << "n=" << pts.size() << " backend " << simd::backend_name(b);
    }
  }
}

}  // namespace
}  // namespace mcharge
