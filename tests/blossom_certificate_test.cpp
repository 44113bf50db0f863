// Optimality certificate of the blossom core, checked from its exported
// duals alone, so it holds whatever path the solver took to them.
//
// For a maximum-weight perfect matching M of a store, with doubled vertex
// labels lab2 and doubled blossom duals z2 >= 0 read from dual2() and
// export_blossom_chains(), three facts together prove M optimal (LP
// duality for Edmonds' perfect-matching polytope):
//   * feasibility: every store edge has
//       lab2_u + lab2_v + sum of z2 over blossoms holding both >= w2;
//   * every matched pair meets that bound with equality;
//   * the dual objective sum(lab2) + sum(z2_B * (|B| - 1) / 2) equals
//     the matched doubled weight.
// The cores are driven directly: the dense store on complete graphs and
// the sparse store on starved candidate graphs (k = 1..2 nearest
// neighbours plus the (2i, 2i+1) backbone), over uniform, clustered,
// collinear, duplicate and all-identical point sets.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "geometry/field.h"
#include "geometry/point.h"
#include "matching/blossom_core.h"
#include "matching/quantize.h"
#include "util/rng.h"

namespace mcharge::matching::detail {
namespace {

using Chains = std::vector<std::vector<std::pair<std::int32_t, std::int64_t>>>;

enum class Layout { kUniform, kClustered, kCollinear, kDuplicate, kIdentical };

std::vector<geom::Point> make_points(Layout layout, std::size_t n, Rng& rng) {
  std::vector<geom::Point> pts;
  switch (layout) {
    case Layout::kUniform:
      return geom::uniform_field(n, 100.0, 100.0, rng);
    case Layout::kClustered: {
      std::vector<geom::Point> centers(3 + rng.below(4));
      for (geom::Point& c : centers) {
        c = {rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)};
      }
      for (std::size_t i = 0; i < n; ++i) {
        const geom::Point& c = centers[rng.below(centers.size())];
        pts.push_back({c.x + rng.uniform(-0.8, 0.8),
                       c.y + rng.uniform(-0.8, 0.8)});
      }
      return pts;
    }
    case Layout::kCollinear:
      for (std::size_t i = 0; i < n; ++i) {
        pts.push_back({rng.uniform(0.0, 100.0), 25.0});
      }
      return pts;
    case Layout::kDuplicate:
      while (pts.size() < n) {
        const geom::Point p{rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)};
        for (int copy = 0; copy < 4 && pts.size() < n; ++copy) {
          pts.push_back(p);
        }
      }
      return pts;
    case Layout::kIdentical:
      return std::vector<geom::Point>(n, geom::Point{4.0, 4.0});
  }
  return pts;
}

std::int64_t profit2(const BlossomQuantizer& qz,
                     const std::vector<geom::Point>& pts, std::uint32_t u,
                     std::uint32_t v) {
  return 2 * qz.profit(geom::distance(pts[u], pts[v]), u, v);
}

/// Starved candidate graph: each vertex's k nearest (d^2, id) neighbours
/// plus the (2i, 2i+1) backbone, 1-based, u < v, sorted and unique.
std::vector<std::pair<int, int>> starved_edges(
    const std::vector<geom::Point>& pts, int knn) {
  const int n = static_cast<int>(pts.size());
  std::vector<std::pair<int, int>> edges;
  std::vector<std::pair<double, int>> near;
  for (int i = 0; i < n; ++i) {
    near.clear();
    for (int j = 0; j < n; ++j) {
      if (j != i) near.emplace_back(geom::distance_sq(pts[i], pts[j]), j);
    }
    std::sort(near.begin(), near.end());
    for (int k = 0; k < knn; ++k) {
      const int j = near[k].second;
      edges.emplace_back(std::min(i, j) + 1, std::max(i, j) + 1);
    }
  }
  for (int i = 0; i + 1 < n; i += 2) edges.emplace_back(i + 1, i + 2);
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

/// Checks the certificate of a solved core over every edge of `store`.
template <class Store>
void expect_certified(int n, const Store& store, const BlossomCore<Store>& core,
                      const std::string& what) {
  SCOPED_TRACE(what);
  for (int v = 1; v <= n; ++v) {
    const int m = core.partner(v);
    ASSERT_TRUE(m >= 1 && m <= n && m != v) << "v=" << v << " mate=" << m;
    ASSERT_EQ(core.partner(m), v) << "mate is not involutive at v=" << v;
  }

  Chains chains(n);
  core.export_blossom_chains(chains);
  std::map<std::int32_t, std::pair<std::int64_t, __int128>> blossoms;
  for (const auto& chain : chains) {
    for (const auto& [id, z2] : chain) {
      ASSERT_GE(z2, 0) << "blossom " << id << " has a negative dual";
      blossoms[id].first = z2;
      ++blossoms[id].second;  // real vertices inside
    }
  }
  const auto shared_z2 = [&chains](int u, int v) {
    const auto& cu = chains[u - 1];
    const auto& cv = chains[v - 1];
    std::int64_t z2 = 0;
    for (std::size_t i = 0;
         i < std::min(cu.size(), cv.size()) && cu[i].first == cv[i].first;
         ++i) {
      z2 += cu[i].second;
    }
    return z2;
  };

  __int128 matched_w2 = 0;
  int matched_edges = 0;
  for (int u = 1; u <= n; ++u) {
    store.for_neighbors(u, [&](int v, std::int64_t w2) {
      if (v < u) return true;
      const __int128 slack = static_cast<__int128>(core.dual2(u)) +
                             core.dual2(v) + shared_z2(u, v) - w2;
      EXPECT_GE(slack, 0) << "infeasible edge (" << u << ", " << v << ")";
      if (core.partner(u) == v) {
        EXPECT_EQ(slack, 0) << "matched edge (" << u << ", " << v
                            << ") is not tight";
        matched_w2 += w2;
        ++matched_edges;
      }
      return true;
    });
  }
  ASSERT_EQ(matched_edges, n / 2) << "a matched pair is not a store edge";

  __int128 dual = 0;
  for (int v = 1; v <= n; ++v) dual += core.dual2(v);
  for (const auto& [id, zs] : blossoms) {
    ASSERT_EQ(zs.second % 2, 1) << "blossom " << id << " is not odd";
    dual += zs.first * ((zs.second - 1) / 2);
  }
  EXPECT_TRUE(dual == matched_w2)
      << "dual objective differs from the matched weight by "
      << static_cast<double>(dual - matched_w2);
}

void certify_dense(const std::vector<geom::Point>& pts,
                   const std::string& what) {
  const int n = static_cast<int>(pts.size());
  const BlossomQuantizer qz = make_point_quantizer(pts);
  BlossomArena& arena = thread_arena();
  DenseStore store(n, arena);
  for (std::uint32_t u = 0; u < pts.size(); ++u) {
    for (std::uint32_t v = u + 1; v < pts.size(); ++v) {
      store.set2(static_cast<int>(u) + 1, static_cast<int>(v) + 1,
                 profit2(qz, pts, u, v));
    }
  }
  BlossomCore<DenseStore> core(n, store, arena);
  core.solve();
  expect_certified(n, store, core, "dense " + what);
}

void certify_sparse(const std::vector<geom::Point>& pts, int knn,
                    const std::string& what) {
  const int n = static_cast<int>(pts.size());
  const BlossomQuantizer qz = make_point_quantizer(pts);
  const auto edges = starved_edges(pts, knn);
  std::vector<std::int64_t> w2;
  for (const auto& [u, v] : edges) {
    w2.push_back(profit2(qz, pts, static_cast<std::uint32_t>(u - 1),
                         static_cast<std::uint32_t>(v - 1)));
  }
  const SparseStore store(n, edges, w2);
  BlossomCore<SparseStore> core(n, store, thread_arena());
  core.solve();
  expect_certified(n, store, core,
                   "sparse knn=" + std::to_string(knn) + " " + what);
}

class BlossomCertificate : public ::testing::TestWithParam<Layout> {};

TEST_P(BlossomCertificate, DenseAndStarvedSparseCoresAreCertified) {
  const Layout layout = GetParam();
  for (const std::size_t n : {18, 40, 96, 170, 300}) {
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
      Rng rng(seed * 7001 + n * 13 + static_cast<std::uint64_t>(layout));
      const auto pts = make_points(layout, n, rng);
      const std::string what =
          "n=" + std::to_string(n) + " seed=" + std::to_string(seed);
      certify_dense(pts, what);
      for (const int knn : {1, 2}) certify_sparse(pts, knn, what);
    }
  }
}

std::string layout_name(const ::testing::TestParamInfo<Layout>& info) {
  constexpr const char* kNames[] = {"Uniform", "Clustered", "Collinear",
                                    "Duplicate", "Identical"};
  return kNames[static_cast<int>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(Layouts, BlossomCertificate,
                         ::testing::Values(Layout::kUniform, Layout::kClustered,
                                           Layout::kCollinear,
                                           Layout::kDuplicate,
                                           Layout::kIdentical),
                         layout_name);

TEST(SparseStore, RowsAscendAndMirror) {
  // The CSR fill lists each row's neighbours in ascending order (the
  // blossom scans rely on it for their tie-breaking) and stores every
  // edge in both rows with the same weight.
  Rng rng(404);
  const auto pts = geom::uniform_field(60, 100.0, 100.0, rng);
  const auto edges = starved_edges(pts, 3);
  std::vector<std::int64_t> w2;
  for (std::size_t k = 0; k < edges.size(); ++k) {
    w2.push_back(static_cast<std::int64_t>(2 * (k + 1)));
  }
  const SparseStore store(60, edges, w2);
  std::size_t seen = 0;
  for (int u = 1; u <= 60; ++u) {
    int last = 0;
    store.for_neighbors(u, [&](int v, std::int64_t w) {
      EXPECT_GT(v, last) << "row " << u;
      last = v;
      EXPECT_EQ(w, store.weight(v, u));
      const auto it = std::lower_bound(edges.begin(), edges.end(),
                                       std::make_pair(std::min(u, v),
                                                      std::max(u, v)));
      EXPECT_TRUE(it != edges.end() && w == w2[it - edges.begin()]);
      ++seen;
      return true;
    });
  }
  EXPECT_EQ(seen, 2 * edges.size());
}

}  // namespace
}  // namespace mcharge::matching::detail
