#include "tsp/improve.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "obs/obs.h"
#include "tsp/tour_mirror.h"
#include "util/assert.h"
#include "util/simd.h"

namespace mcharge::tsp {

namespace {

// Lower bound on the kernels' distance from (qx, qy) to any point of the
// box, computed with their own operation sequence. Per axis, the gap
// fl(lo - q) (or fl(q - hi)) is at most |fl(p - q)| for every p in
// [lo, hi] because round-to-nearest is monotone; squaring, adding and
// sqrt are monotone on non-negative inputs, so the result never exceeds
// the kernel's sqrt(dx * dx + dy * dy) for a point inside the box.
inline double box_distance(double qx, double qy, double lox, double hix,
                           double loy, double hiy) {
  const double gx = std::max(0.0, std::max(lox - qx, qx - hix));
  const double gy = std::max(0.0, std::max(loy - qy, qy - hiy));
  return std::sqrt(gx * gx + gy * gy);
}

}  // namespace

namespace detail {

// Recomputing a distance from the mirrored coordinates yields exactly the
// bits geom::distance would — the precondition for routing the scans
// through util/simd.h, and why travel() can price every leg the operators
// need from the mirror alone.
// tc[k] hoists the (k, k+1) leg out of the scans, removing a sqrt and a
// divide per scanned element; every compared value keeps identical bits.
void TourMirror::assign(const TourProblem& problem, const Tour& tour) {
  const std::size_t m = tour.size();
  speed = problem.speed;
  px.resize(m + 1);
  py.resize(m + 1);
  for (std::size_t p = 0; p < m; ++p) {
    px[p] = problem.sites[tour[p]].x;
    py[p] = problem.sites[tour[p]].y;
  }
  px[m] = problem.depot.x;
  py[m] = problem.depot.y;
  tc.resize(m);
  for (std::size_t k = 0; k < m; ++k) {
    const auto kp = static_cast<std::ptrdiff_t>(k);
    tc[k] = travel(kp, kp + 1);
  }
  const std::size_t blocks = (m + kBlock - 1) / kBlock;
  lox_.resize(blocks);
  hix_.resize(blocks);
  loy_.resize(blocks);
  hiy_.resize(blocks);
  tmax_.resize(blocks);
  for (std::size_t b = 0; b < blocks; ++b) summarize(b);
}

void TourMirror::summarize(std::size_t b) {
  const std::size_t k0 = b * kBlock;
  const std::size_t k1 = std::min(k0 + kBlock, tc.size());
  double lx = px[k0], hx = px[k0], ly = py[k0], hy = py[k0];
  for (std::size_t p = k0 + 1; p <= k1; ++p) {  // P[k1] is read as P[k + 1]
    lx = std::min(lx, px[p]);
    hx = std::max(hx, px[p]);
    ly = std::min(ly, py[p]);
    hy = std::max(hy, py[p]);
  }
  double t = tc[k0];
  for (std::size_t k = k0 + 1; k < k1; ++k) t = std::max(t, tc[k]);
  lox_[b] = lx;
  hix_[b] = hx;
  loy_[b] = ly;
  hiy_[b] = hy;
  tmax_[b] = t;
}

double TourMirror::travel(std::ptrdiff_t a, std::ptrdiff_t b) const {
  const auto m = static_cast<std::ptrdiff_t>(tc.size());
  const auto pa = static_cast<std::size_t>(a < 0 || a > m ? m : a);
  const auto pb = static_cast<std::size_t>(b < 0 || b > m ? m : b);
  // A pair TourProblem::travel reads in the other order differs here only
  // in the sign of dx and dy, which the squares erase exactly.
  const double dx = px[pa] - px[pb];
  const double dy = py[pa] - py[pb];
  return std::sqrt(dx * dx + dy * dy) / speed;
}

void TourMirror::reverse(std::size_t i, std::size_t j) {
  const auto ip = static_cast<std::ptrdiff_t>(i);
  const auto jp = static_cast<std::ptrdiff_t>(j);
  std::reverse(px.begin() + ip, px.begin() + jp + 1);
  std::reverse(py.begin() + ip, py.begin() + jp + 1);
  // Internal legs keep their lengths with reversed orientation (the
  // squares make direction exact); only the boundary legs change.
  std::reverse(tc.begin() + ip, tc.begin() + jp);
  tc[j] = travel(jp, jp + 1);
  if (i > 0) tc[i - 1] = travel(ip - 1, ip);
  // Scan indices i-1 .. j read a moved point or a changed leg.
  for (std::size_t b = (i > 0 ? i - 1 : 0) / kBlock; b <= j / kBlock; ++b) {
    summarize(b);
  }
}

// Runs `kernel` over [begin, end) block by block, skipping the blocks
// `clean` proves hit-free, and returns the first hit or kNpos.
template <typename Clean, typename Kernel>
std::size_t TourMirror::scan_blocks(std::size_t begin, std::size_t end,
                                    const Clean& clean, const Kernel& kernel) {
  for (std::size_t k = begin; k < end;) {
    const std::size_t b = k / kBlock;
    const std::size_t stop = std::min(end, (b + 1) * kBlock);
    ++blocks_scanned;
    if (clean(b)) {
      ++blocks_pruned;
    } else {
      const std::size_t hit = kernel(k, stop);
      if (hit != simd::kNpos) return hit;
    }
    k = stop;
  }
  return simd::kNpos;
}

// Both scans walk block by block. For k in block b the kernel compares
// sums of two distances to points inside the block's box, divided by
// speed, against a value that is monotone in tc[k] <= tmax: the block
// bound is the same expression with box distances and tmax, so when it
// already fails the comparison every k in the block fails it too, and the
// first improving index (or kNpos) is exactly the plain kernel's.
std::size_t TourMirror::two_opt_scan(std::size_t j_begin, std::size_t j_end,
                                     double ax, double ay, double bx,
                                     double by, double base,
                                     double min_gain) {
  const auto clean = [&](std::size_t b) {
    const double la = box_distance(ax, ay, lox_[b], hix_[b], loy_[b], hiy_[b]);
    const double lb = box_distance(bx, by, lox_[b], hix_[b], loy_[b], hiy_[b]);
    return la / speed + lb / speed >= (base + tmax_[b]) - min_gain;
  };
  return scan_blocks(j_begin, j_end, clean, [&](std::size_t a, std::size_t b) {
    return simd::two_opt_scan(px.data(), py.data(), tc.data(), a, b, ax, ay,
                              bx, by, speed, base, min_gain);
  });
}

std::size_t TourMirror::or_opt_scan(std::size_t k_begin, std::size_t k_end,
                                    double ix, double iy, double ex,
                                    double ey, double threshold) {
  const auto clean = [&](std::size_t b) {
    const double la = box_distance(ix, iy, lox_[b], hix_[b], loy_[b], hiy_[b]);
    const double lb = box_distance(ex, ey, lox_[b], hix_[b], loy_[b], hiy_[b]);
    return la / speed + lb / speed - tmax_[b] >= threshold;
  };
  return scan_blocks(k_begin, k_end, clean, [&](std::size_t a, std::size_t b) {
    return simd::or_opt_scan(px.data(), py.data(), tc.data(), a, b, ix, iy,
                             ex, ey, speed, threshold);
  });
}

}  // namespace detail

namespace {

// Reports an operator call's block counts once, not once per block.
void flush_scan_counts([[maybe_unused]] const detail::TourMirror& mirror) {
  OBS_COUNT("tsp.scan_blocks",
            static_cast<std::int64_t>(mirror.blocks_scanned));
  OBS_COUNT("tsp.scan_blocks_pruned",
            static_cast<std::int64_t>(mirror.blocks_pruned));
}

// Shared implementations with an optional convergence report. `converged`
// (when non-null) is set to true iff the operator's final full scan over
// the move set was clean — i.e. re-running the operator on the returned
// tour would provably apply no move and return exactly 0.0 — and to false
// when the pass/move budget ran out while moves were still being applied.
// improve_tour uses this to skip rounds that are guaranteed no-ops.

double two_opt_impl(const TourProblem& problem, Tour& tour,
                    const ImproveOptions& options, bool* converged) {
  if (converged) *converged = true;
  const std::size_t m = tour.size();
  // With m == 2 the only move is the full reversal, which changes nothing
  // and is skipped below; return before building the mirror.
  if (m < 3) return 0.0;
  detail::TourMirror mirror;
  mirror.assign(problem, tour);
  const std::vector<double>& px = mirror.px;
  const std::vector<double>& py = mirror.py;

  // Exact-replay cache over left edges: clean[i] == 1 records that edge
  // i's whole j scan completed with zero hits against the current tour.
  // That scan reads only positions >= i - 1 (ax/bx/base from i-1 and i,
  // P[j], P[j+1] and tc[j] for j > i), and a reversal of [i*, j*] changes
  // positions [i*, j*] and the legs beside them only — so facts for
  // i >= j* + 2 survive every reversal and the later passes of the
  // restart loop, which would re-scan those edges and find nothing, skip
  // them with identical bits. An edge whose scan hit at least once is
  // never marked: the scalar loop resumes after the reversed window
  // without rescanning it, so "no further hit" says nothing about the
  // positions behind the resume point.
  std::vector<unsigned char> clean(m, 0);

  double saved = 0.0;
  bool improved = true;
  for (std::size_t pass = 0; pass < options.max_passes; ++pass) {
    improved = false;
    // Reverse tour[i..j]; affected legs: (i-1, i) and (j, j+1) become
    // (i-1, j) and (i, j+1). Depot legs included via sentinel positions.
    // For each left edge the j loop is a first-improvement scan with a
    // fixed (ax, ay), (bx, by) and base leg — exactly the shape of
    // simd::two_opt_scan, which returns the first improving j (or kNpos)
    // with the scalar comparison sequence; the mirror's block-pruned scan
    // returns the same j. After a reversal the scan resumes at j + 1 on
    // the updated tour, as the scalar loop did.
    for (std::size_t i = 0; i + 1 < m; ++i) {
      if (clean[i]) continue;
      const auto ip = static_cast<std::ptrdiff_t>(i);
      const double ax = i == 0 ? problem.depot.x : px[i - 1];
      const double ay = i == 0 ? problem.depot.y : py[i - 1];
      double bx = px[i];
      double by = py[i];
      double base = mirror.travel(ip - 1, ip);
      // i == 0 with j == m - 1 is the full reversal (no change): the
      // scalar loop skipped it, so the scan simply ends one j earlier.
      const std::size_t j_end = i == 0 ? m - 1 : m;
      std::size_t j = i + 1;
      bool any_hit = false;
      while (j < j_end) {
        const std::size_t hit = mirror.two_opt_scan(
            j, j_end, ax, ay, bx, by, base, options.min_gain);
        if (hit == simd::kNpos) break;
        const auto jp = static_cast<std::ptrdiff_t>(hit);
        const double before =
            mirror.travel(ip - 1, ip) + mirror.travel(jp, jp + 1);
        const double after =
            mirror.travel(ip - 1, jp) + mirror.travel(ip, jp + 1);
        std::reverse(tour.begin() + ip, tour.begin() + jp + 1);
        mirror.reverse(i, hit);
        saved += before - after;
        improved = true;
        any_hit = true;
        // The reversal moved positions [i, hit]: every left-edge fact that
        // reads any of them (i' <= hit + 1) is stale.
        std::fill(clean.begin(),
                  clean.begin() + static_cast<std::ptrdiff_t>(
                                      std::min(hit + 2, m)),
                  0);
        // Position i now holds a different point; position i-1 did not move.
        bx = px[i];
        by = py[i];
        base = mirror.travel(ip - 1, ip);
        j = hit + 1;
      }
      if (!any_hit) clean[i] = 1;
    }
    if (!improved) break;
  }
  flush_scan_counts(mirror);
  if (converged) *converged = !improved;
  return saved;
}

// Or-opt with exact-replay candidate caching.
//
// The scalar reference is a restart loop: after every applied move the
// walk over candidates (segment length 1..3, start position i ascending,
// insertion slots k = depot, then [0, i-1), then [i+len, m)) starts over
// from the beginning, so every candidate before the next improving one is
// re-evaluated against an unchanged tour and reaches the same conclusion
// it reached last time, bit for bit. This implementation records those
// conclusions instead of recomputing them. A recorded fact describes the
// *current* tour:
//   kRemovalFail — removal_gain <= min_gain, so no insertion slot was
//                  even scanned; only the removal legs matter.
//   kScanClean   — removal_gain > min_gain but no insertion slot beats
//                  the threshold (cached in `thr`).
// A move relocates segment [i, i+len) to slot k. Positions outside the
// contiguous window W = [k+1, i+len) (move left, k < i) or W = [i, k+1)
// (move right, k >= i+len) keep their points, so after each move:
//   * facts whose removal legs touch W (start position in
//     [W.lo - len', W.hi]) are discarded;
//   * surviving kRemovalFail facts need nothing else;
//   * surviving kScanClean facts re-check only the insertion slots whose
//     inputs changed (k in [W.lo - 1, W.hi), plus the depot slot when
//     W.lo == 0); an improving re-check demotes the fact to kUnknown and
//     the main walk re-evaluates that candidate in order.
// Each conclusion the walk skips is exactly the conclusion the restart
// loop would recompute, so the sequence of applied moves — and the final
// tour and total gain — keep identical bits while the per-move cost drops
// from a full O(m^2) rescan to O(m + m * |W|).
double or_opt_impl(const TourProblem& problem, Tour& tour,
                   const ImproveOptions& options, bool* converged) {
  if (converged) *converged = true;
  const auto m = static_cast<std::ptrdiff_t>(tour.size());
  if (m < 3) return 0.0;
  detail::TourMirror mirror;
  mirror.assign(problem, tour);
  const std::vector<double>& px = mirror.px;
  const std::vector<double>& py = mirror.py;
  const std::vector<double>& tc = mirror.tc;

  enum : unsigned char { kUnknown = 0, kRemovalFail = 1, kScanClean = 2 };
  const auto mu = static_cast<std::size_t>(m);
  std::vector<unsigned char> fact(3 * mu, kUnknown);
  std::vector<double> thr(3 * mu, 0.0);  // threshold, valid under kScanClean
  const auto slot = [mu](std::ptrdiff_t len, std::ptrdiff_t i) {
    return static_cast<std::size_t>(len - 1) * mu + static_cast<std::size_t>(i);
  };

  // "Does any slot in [a, b) beat the threshold?" — the kernels promise
  // the scalar comparison sequence bit for bit, so short windows may skip
  // the dispatch and run the same sequence inline; the length cutoff can
  // steer only where the identical verdict is computed, never what it is.
  const auto any_improving = [&](std::size_t a, std::size_t b, double ix,
                                 double iy, double ex, double ey,
                                 double threshold) {
    if (b - a < 24) {
      for (std::size_t kk = a; kk < b; ++kk) {
        const double dax = px[kk] - ix;
        const double day = py[kk] - iy;
        const double da = std::sqrt(dax * dax + day * day);
        const double dbx = ex - px[kk + 1];
        const double dby = ey - py[kk + 1];
        const double db = std::sqrt(dbx * dbx + dby * dby);
        if (da / problem.speed + db / problem.speed - tc[kk] < threshold) {
          return true;
        }
      }
      return false;
    }
    return mirror.or_opt_scan(a, b, ix, iy, ex, ey, threshold) !=
           simd::kNpos;
  };

  // Repairs recorded facts after a move changed positions [lo, hi).
  const auto refresh_facts = [&](std::ptrdiff_t lo, std::ptrdiff_t hi) {
    const auto ka =
        static_cast<std::size_t>(std::max<std::ptrdiff_t>(0, lo - 1));
    const auto kb = static_cast<std::size_t>(hi);  // changed slots: [ka, kb)
    for (std::ptrdiff_t len = 1; len <= 3 && len < m; ++len) {
      for (std::ptrdiff_t i = 0; i + len <= m; ++i) {
        unsigned char& f = fact[slot(len, i)];
        if (f == kUnknown) continue;
        if (i >= lo - len && i <= hi) {  // removal legs touch W
          f = kUnknown;
          continue;
        }
        if (f == kRemovalFail) continue;
        // kScanClean: the removal legs are untouched, so the cached
        // threshold keeps its bits; re-check the changed slots only.
        const double threshold = thr[slot(len, i)];
        const double ix = px[static_cast<std::size_t>(i)];
        const double iy = py[static_cast<std::size_t>(i)];
        const double ex = px[static_cast<std::size_t>(i + len - 1)];
        const double ey = py[static_cast<std::size_t>(i + len - 1)];
        bool improving = false;
        if (lo == 0 && i > 0) {  // depot slot reads position 0
          const double depot_cost = mirror.travel(-1, i) +
                                    mirror.travel(i + len - 1, 0) -
                                    mirror.travel(-1, 0);
          if (depot_cost < threshold) improving = true;
        }
        if (!improving && i >= 2) {
          const std::size_t b =
              std::min<std::size_t>(kb, static_cast<std::size_t>(i - 1));
          if (ka < b && any_improving(ka, b, ix, iy, ex, ey, threshold)) {
            improving = true;
          }
        }
        if (!improving) {
          const std::size_t a =
              std::max<std::size_t>(ka, static_cast<std::size_t>(i + len));
          const std::size_t b = std::min<std::size_t>(kb, mu);
          if (a < b && any_improving(a, b, ix, iy, ex, ey, threshold)) {
            improving = true;
          }
        }
        if (improving) f = kUnknown;
      }
    }
  };

  double saved = 0.0;
  bool applied = true;
  for (std::size_t moves = 0; applied && moves < options.max_passes;) {
    applied = false;
    for (std::ptrdiff_t len = 1; len <= 3 && len < m; ++len) {
      for (std::ptrdiff_t i = 0; i + len <= m && !applied; ++i) {
        if (fact[slot(len, i)] != kUnknown) continue;
        // Segment [i, i+len); try inserting after position k (k outside the
        // segment), i.e. between k and k+1.
        const double removal_gain = mirror.travel(i - 1, i) +
                                    mirror.travel(i + len - 1, i + len) -
                                    mirror.travel(i - 1, i + len);
        if (removal_gain <= options.min_gain) {
          fact[slot(len, i)] = kRemovalFail;
          continue;
        }
        const double threshold = removal_gain - options.min_gain;
        const double ix = px[static_cast<std::size_t>(i)];
        const double iy = py[static_cast<std::size_t>(i)];
        const double ex = px[static_cast<std::size_t>(i + len - 1)];
        const double ey = py[static_cast<std::size_t>(i + len - 1)];
        // The scalar k loop ran -1, 0, .., m-1 skipping the no-op window
        // [i-1, i+len). Same order here: the depot slot k = -1 (checked
        // scalar-style; the window swallows it when i == 0), then the
        // kernel scans [0, i-1) and [i+len, m).
        std::ptrdiff_t k = -2;  // -2: no improving position found
        if (i > 0) {
          const double depot_cost = mirror.travel(-1, i) +
                                    mirror.travel(i + len - 1, 0) -
                                    mirror.travel(-1, 0);
          if (depot_cost < threshold) k = -1;
        }
        if (k == -2 && i >= 2) {
          const std::size_t hit = mirror.or_opt_scan(
              0, static_cast<std::size_t>(i - 1), ix, iy, ex, ey, threshold);
          if (hit != simd::kNpos) k = static_cast<std::ptrdiff_t>(hit);
        }
        if (k == -2) {
          const std::size_t hit = mirror.or_opt_scan(
              static_cast<std::size_t>(i + len), static_cast<std::size_t>(m),
              ix, iy, ex, ey, threshold);
          if (hit != simd::kNpos) k = static_cast<std::ptrdiff_t>(hit);
        }
        if (k == -2) {
          fact[slot(len, i)] = kScanClean;
          thr[slot(len, i)] = threshold;
          continue;
        }
        const double insert_cost = mirror.travel(k, i) +
                                   mirror.travel(i + len - 1, k + 1) -
                                   mirror.travel(k, k + 1);
        // Perform the move on a copy of the segment.
        Tour segment(tour.begin() + i, tour.begin() + i + len);
        tour.erase(tour.begin() + i, tour.begin() + i + len);
        const std::ptrdiff_t dest = k < i ? k + 1 : k + 1 - len;
        tour.insert(tour.begin() + dest, segment.begin(), segment.end());
        saved += removal_gain - insert_cost;
        ++moves;
        applied = true;  // positions shifted; restart the walk
        // Re-mirror (pure function of the tour — identical bits to the
        // per-pass rebuild of the restart loop), then repair the facts.
        mirror.assign(problem, tour);
        refresh_facts(k < i ? k + 1 : i, k < i ? i + len : k + 1);
      }
      if (applied) break;
    }
  }
  flush_scan_counts(mirror);
  if (converged) *converged = !applied;
  return saved;
}

}  // namespace

double two_opt(const TourProblem& problem, Tour& tour,
               const ImproveOptions& options) {
  return two_opt_impl(problem, tour, options, nullptr);
}

double or_opt(const TourProblem& problem, Tour& tour,
              const ImproveOptions& options) {
  return or_opt_impl(problem, tour, options, nullptr);
}

double improve_tour(const TourProblem& problem, Tour& tour,
                    const ImproveOptions& options) {
  double saved = 0.0;
  // "The current tour was verified move-free by a full or_opt walk" — set
  // by a converged or_opt and preserved while nothing touches the tour.
  // Every applied move gains strictly more than min_gain > 0, so an
  // operator returns exactly 0.0 iff it applied no move and left the tour
  // untouched; that makes both skips below provably bit-neutral: the
  // skipped work would have contributed 0.0 and changed nothing.
  bool or_clean = false;
  for (std::size_t round = 0; round < options.max_passes; ++round) {
    double two_gain = 0.0;
    double or_gain = 0.0;
    bool two_converged = true;
    bool or_converged = true;
    if (options.use_two_opt) {
      two_gain = two_opt_impl(problem, tour, options, &two_converged);
      if (two_gain != 0.0) or_clean = false;  // tour changed under the fact
    }
    if (options.use_or_opt && !or_clean) {
      or_gain = or_opt_impl(problem, tour, options, &or_converged);
      or_clean = or_converged;
    }
    const double round_gain = two_gain + or_gain;
    saved += round_gain;
    if (round_gain <= options.min_gain) break;
    // A follow-up round is provably a no-op when two_opt's last full scan
    // was clean with nothing running after it (or_gain == 0.0) and the
    // or-opt move set is verified clean as well.
    const bool two_settled =
        !options.use_two_opt || (two_converged && or_gain == 0.0);
    const bool or_settled = !options.use_or_opt || or_clean;
    if (two_settled && or_settled) break;
  }
  return saved;
}

}  // namespace mcharge::tsp
