// AVX-512F (8 x double) backend. Compiled with -mavx512f
// -ffp-contract=off; see simd_kernels.h for the header-hygiene rule and
// simd_avx2.cpp for the lane-for-lane bitwise-identity reasoning, which
// applies unchanged at 8 lanes.
#include "util/simd_kernels.h"

#if MCHARGE_SIMD_X86

#include <immintrin.h>

#include <cmath>
#include <cstring>
#include <limits>

namespace mcharge::simd::detail {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

inline __m512d dist8(__m512d xs, __m512d ys, __m512d px, __m512d py) {
  const __m512d dx = _mm512_sub_pd(px, xs);
  const __m512d dy = _mm512_sub_pd(py, ys);
  return _mm512_sqrt_pd(
      _mm512_add_pd(_mm512_mul_pd(dx, dx), _mm512_mul_pd(dy, dy)));
}

/// Mask bit set where the skip byte is zero (lane live).
inline __mmask8 live_mask8(const unsigned char* skip, std::size_t i) {
  std::uint64_t packed;
  std::memcpy(&packed, skip + i, sizeof(packed));
  const __m512i bytes = _mm512_cvtepu8_epi64(
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(&packed)));
  return _mm512_cmpeq_epi64_mask(bytes, _mm512_setzero_si512());
}

inline void reduce_argmin8(__m512d bestv, __m512i besti, ArgMin& best) {
  alignas(64) double vals[8];
  alignas(64) std::int64_t idx[8];
  _mm512_store_pd(vals, bestv);
  _mm512_store_si512(idx, besti);
  for (int l = 0; l < 8; ++l) {
    // Skip lanes that never saw a live element, and +inf lanes: the
    // scalar strict-< scan can never select an infinite value either.
    if (idx[l] < 0 || vals[l] == kInf) continue;
    const auto index = static_cast<std::size_t>(idx[l]);
    if (vals[l] < best.value ||
        (vals[l] == best.value && index < best.index)) {
      best.value = vals[l];
      best.index = index;
    }
  }
}

ArgMin avx512_argmin_distance_masked(const double* xs, const double* ys,
                                     std::size_t n, double px, double py,
                                     const unsigned char* skip) {
  ArgMin best{kNpos, kInf};
  std::size_t i = 0;
  if (n >= 8) {
    const __m512d inf = _mm512_set1_pd(kInf);
    const __m512d vpx = _mm512_set1_pd(px);
    const __m512d vpy = _mm512_set1_pd(py);
    __m512d bestv = inf;
    __m512i besti = _mm512_set1_epi64(-1);
    __m512i idx = _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7);
    const __m512i step = _mm512_set1_epi64(8);
    for (; i + 8 <= n; i += 8) {
      __m512d val = dist8(_mm512_loadu_pd(xs + i), _mm512_loadu_pd(ys + i),
                          vpx, vpy);
      if (skip != nullptr) {
        val = _mm512_mask_blend_pd(live_mask8(skip, i), inf, val);
      }
      const __mmask8 lt = _mm512_cmp_pd_mask(val, bestv, _CMP_LT_OQ);
      bestv = _mm512_mask_blend_pd(lt, bestv, val);
      besti = _mm512_mask_blend_epi64(lt, besti, idx);
      idx = _mm512_add_epi64(idx, step);
    }
    reduce_argmin8(bestv, besti, best);
  }
  for (; i < n; ++i) {
    if (skip != nullptr && skip[i]) continue;
    const double dx = px - xs[i];
    const double dy = py - ys[i];
    const double d = std::sqrt(dx * dx + dy * dy);
    if (d < best.value) {
      best.value = d;
      best.index = i;
    }
  }
  return best;
}

void avx512_distance_row(const double* xs, const double* ys, std::size_t n,
                         double px, double py, double* out) {
  const __m512d vpx = _mm512_set1_pd(px);
  const __m512d vpy = _mm512_set1_pd(py);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(out + i, dist8(_mm512_loadu_pd(xs + i),
                                    _mm512_loadu_pd(ys + i), vpx, vpy));
  }
  for (; i < n; ++i) {
    const double dx = px - xs[i];
    const double dy = py - ys[i];
    out[i] = std::sqrt(dx * dx + dy * dy);
  }
}

std::size_t avx512_two_opt_scan(const double* px, const double* py,
                                const double* tc, std::size_t j_begin,
                                std::size_t j_end, double ax, double ay,
                                double bx, double by, double speed,
                                double base, double min_gain) {
  const __m512d vax = _mm512_set1_pd(ax), vay = _mm512_set1_pd(ay);
  const __m512d vbx = _mm512_set1_pd(bx), vby = _mm512_set1_pd(by);
  const __m512d vspeed = _mm512_set1_pd(speed);
  const __m512d vbase = _mm512_set1_pd(base);
  const __m512d vgain = _mm512_set1_pd(min_gain);
  std::size_t j = j_begin;
  for (; j + 8 <= j_end; j += 8) {
    const __m512d jx = _mm512_loadu_pd(px + j);
    const __m512d jy = _mm512_loadu_pd(py + j);
    const __m512d j1x = _mm512_loadu_pd(px + j + 1);
    const __m512d j1y = _mm512_loadu_pd(py + j + 1);
    const __m512d da = dist8(jx, jy, vax, vay);
    const __m512d db = dist8(j1x, j1y, vbx, vby);
    const __m512d after =
        _mm512_add_pd(_mm512_div_pd(da, vspeed), _mm512_div_pd(db, vspeed));
    const __m512d before = _mm512_add_pd(vbase, _mm512_loadu_pd(tc + j));
    const __m512d rhs = _mm512_sub_pd(before, vgain);
    const __mmask8 mask = _mm512_cmp_pd_mask(after, rhs, _CMP_LT_OQ);
    if (mask != 0) {
      return j + static_cast<std::size_t>(
                     __builtin_ctz(static_cast<unsigned>(mask)));
    }
  }
  for (; j < j_end; ++j) {
    const double dax = ax - px[j];
    const double day = ay - py[j];
    const double da = std::sqrt(dax * dax + day * day);
    const double dbx = bx - px[j + 1];
    const double dby = by - py[j + 1];
    const double db = std::sqrt(dbx * dbx + dby * dby);
    const double after = da / speed + db / speed;
    const double before = base + tc[j];
    if (after < before - min_gain) return j;
  }
  return kNpos;
}

std::size_t avx512_or_opt_scan(const double* px, const double* py,
                               const double* tc, std::size_t k_begin,
                               std::size_t k_end, double ix, double iy,
                               double ex, double ey, double speed,
                               double threshold) {
  const __m512d vix = _mm512_set1_pd(ix), viy = _mm512_set1_pd(iy);
  const __m512d vex = _mm512_set1_pd(ex), vey = _mm512_set1_pd(ey);
  const __m512d vspeed = _mm512_set1_pd(speed);
  const __m512d vthresh = _mm512_set1_pd(threshold);
  std::size_t k = k_begin;
  for (; k + 8 <= k_end; k += 8) {
    const __m512d kx = _mm512_loadu_pd(px + k);
    const __m512d ky = _mm512_loadu_pd(py + k);
    const __m512d k1x = _mm512_loadu_pd(px + k + 1);
    const __m512d k1y = _mm512_loadu_pd(py + k + 1);
    const __m512d dax = _mm512_sub_pd(kx, vix);
    const __m512d day = _mm512_sub_pd(ky, viy);
    const __m512d da = _mm512_sqrt_pd(
        _mm512_add_pd(_mm512_mul_pd(dax, dax), _mm512_mul_pd(day, day)));
    const __m512d db = dist8(k1x, k1y, vex, vey);
    const __m512d cost = _mm512_sub_pd(
        _mm512_add_pd(_mm512_div_pd(da, vspeed), _mm512_div_pd(db, vspeed)),
        _mm512_loadu_pd(tc + k));
    const __mmask8 mask = _mm512_cmp_pd_mask(cost, vthresh, _CMP_LT_OQ);
    if (mask != 0) {
      return k + static_cast<std::size_t>(
                     __builtin_ctz(static_cast<unsigned>(mask)));
    }
  }
  for (; k < k_end; ++k) {
    const double dax = px[k] - ix;
    const double day = py[k] - iy;
    const double da = std::sqrt(dax * dax + day * day);
    const double dbx = ex - px[k + 1];
    const double dby = ey - py[k + 1];
    const double db = std::sqrt(dbx * dbx + dby * dby);
    const double cost = da / speed + db / speed - tc[k];
    if (cost < threshold) return k;
  }
  return kNpos;
}

std::size_t avx512_select_within(const double* xs, const double* ys,
                                 std::size_t n, double cx, double cy,
                                 double r2, const std::uint32_t* ids,
                                 std::uint32_t* out) {
  const __m512d vcx = _mm512_set1_pd(cx);
  const __m512d vcy = _mm512_set1_pd(cy);
  const __m512d vr2 = _mm512_set1_pd(r2);
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d dx = _mm512_sub_pd(_mm512_loadu_pd(xs + i), vcx);
    const __m512d dy = _mm512_sub_pd(_mm512_loadu_pd(ys + i), vcy);
    const __m512d d2 =
        _mm512_add_pd(_mm512_mul_pd(dx, dx), _mm512_mul_pd(dy, dy));
    unsigned mask = _mm512_cmp_pd_mask(d2, vr2, _CMP_LE_OQ);
    while (mask != 0) {
      const int lane = __builtin_ctz(mask);
      out[count++] = ids[i + static_cast<std::size_t>(lane)];
      mask &= mask - 1;
    }
  }
  for (; i < n; ++i) {
    const double dx = xs[i] - cx;
    const double dy = ys[i] - cy;
    if (dx * dx + dy * dy <= r2) out[count++] = ids[i];
  }
  return count;
}

BelowSelection avx512_advance_select_below(double* level, double* as_of,
                                           double* dead_since,
                                           const double* draw, std::size_t n,
                                           double t, double threshold,
                                           double eps,
                                           const std::uint32_t* ids,
                                           std::uint32_t* out) {
  BelowSelection r;
  std::size_t i = 0;
  if (n >= 8) {
    const __m512d inf = _mm512_set1_pd(kInf);
    const __m512d zero = _mm512_setzero_pd();
    const __m512d vt = _mm512_set1_pd(t);
    const __m512d vthr = _mm512_set1_pd(threshold);
    const __m512d veps = _mm512_set1_pd(eps);
    __m512d acc = inf;
    for (; i + 8 <= n; i += 8) {
      const __m512d lvl = _mm512_loadu_pd(level + i);
      const __m512d at = _mm512_loadu_pd(as_of + i);
      const __m512d drw = _mm512_loadu_pd(draw + i);
      const __mmask8 adv = _mm512_cmp_pd_mask(vt, at, _CMP_GT_OQ);
      const __m512d drained = _mm512_mul_pd(drw, _mm512_sub_pd(vt, at));
      const __mmask8 positive = _mm512_cmp_pd_mask(drw, zero, _CMP_GT_OQ);
      // Death: the drain empties the battery on an advancing lane with a
      // positive draw.
      const __mmask8 dead =
          _mm512_cmp_pd_mask(drained, lvl, _CMP_GE_OQ) & positive & adv;
      if (dead != 0) {
        // Rare: divide only when some lane dies.
        const __m512d dsi = _mm512_loadu_pd(dead_since + i);
        const __mmask8 newly =
            dead & _mm512_cmp_pd_mask(dsi, inf, _CMP_EQ_OQ);
        const __m512d death_t = _mm512_add_pd(at, _mm512_div_pd(lvl, drw));
        _mm512_mask_storeu_pd(dead_since + i, newly, death_t);
      }
      __m512d new_lvl =
          _mm512_mask_blend_pd(dead, _mm512_sub_pd(lvl, drained), zero);
      new_lvl = _mm512_mask_blend_pd(adv, lvl, new_lvl);
      const __m512d new_at = _mm512_mask_blend_pd(adv, at, vt);
      _mm512_storeu_pd(level + i, new_lvl);
      _mm512_storeu_pd(as_of + i, new_at);
      const __mmask8 below = _mm512_cmp_pd_mask(new_lvl, vthr, _CMP_LT_OQ);
      // Next crossing of the lanes left above the threshold (scalar
      // operation order, no FMA); selected and zero-draw lanes are
      // blended to +inf before the min.
      const __m512d c = _mm512_add_pd(
          _mm512_add_pd(new_at,
                        _mm512_div_pd(_mm512_sub_pd(new_lvl, vthr), drw)),
          veps);
      const __mmask8 live = static_cast<__mmask8>(~below & positive);
      acc = _mm512_min_pd(_mm512_mask_blend_pd(live, inf, c), acc);
      unsigned mask = below;
      while (mask != 0) {
        const int lane = __builtin_ctz(mask);
        out[r.count++] = ids[i + static_cast<std::size_t>(lane)];
        mask &= mask - 1;
      }
    }
    r.next_crossing = _mm512_reduce_min_pd(acc);
  }
  for (; i < n; ++i) {
    if (t > as_of[i]) {
      const double drained = draw[i] * (t - as_of[i]);
      if (drained >= level[i] && draw[i] > 0.0) {
        if (dead_since[i] == kInf) {
          dead_since[i] = as_of[i] + level[i] / draw[i];
        }
        level[i] = 0.0;
      } else {
        level[i] -= drained;
      }
      as_of[i] = t;
    }
    if (level[i] < threshold) {
      out[r.count++] = ids[i];
    } else if (draw[i] > 0.0) {
      const double c = as_of[i] + (level[i] - threshold) / draw[i] + eps;
      if (c < r.next_crossing) r.next_crossing = c;
    }
  }
  return r;
}

// --- Blossom dual-adjustment kernels (all-integer, trivially bitwise) ----

constexpr std::int64_t kI64MaxLocal = INT64_MAX;

/// Widens 8 x int32 at p + i to 8 x int64 lanes.
inline __m512i load_i32x8(const std::int32_t* p, std::size_t i) {
  return _mm512_cvtepi32_epi64(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i)));
}

void avx512_i64_dual_apply(std::int64_t* lab, const std::int32_t* state,
                           std::size_t lo, std::size_t hi, std::int64_t d) {
  const __m512i zero = _mm512_setzero_si512();
  const __m512i one = _mm512_set1_epi64(1);
  const __m512i vd = _mm512_set1_epi64(d);
  std::size_t i = lo;
  for (; i + 8 <= hi; i += 8) {
    const __m512i st8 = load_i32x8(state, i);
    const __mmask8 m0 = _mm512_cmpeq_epi64_mask(st8, zero);
    const __mmask8 m1 = _mm512_cmpeq_epi64_mask(st8, one);
    __m512i val = _mm512_loadu_si512(reinterpret_cast<void*>(lab + i));
    val = _mm512_mask_sub_epi64(val, m0, val, vd);
    val = _mm512_mask_add_epi64(val, m1, val, vd);
    _mm512_storeu_si512(reinterpret_cast<void*>(lab + i), val);
  }
  for (; i < hi; ++i) {
    if (state[i] == 0) {
      lab[i] -= d;
    } else if (state[i] == 1) {
      lab[i] += d;
    }
  }
}

std::int64_t avx512_i64_slack_bound(const std::int64_t* val,
                                    const std::int32_t* slack,
                                    const std::int32_t* st,
                                    const std::int32_t* s, std::size_t lo,
                                    std::size_t hi) {
  std::int64_t best = kI64MaxLocal;
  std::size_t i = lo;
  if (i + 8 <= hi) {
    const __m512i zero = _mm512_setzero_si512();
    const __m512i minus1 = _mm512_set1_epi64(-1);
    const __m512i step = _mm512_set1_epi64(8);
    __m512i idx = _mm512_add_epi64(
        _mm512_set1_epi64(static_cast<std::int64_t>(i)),
        _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7));
    __m512i acc = _mm512_set1_epi64(kI64MaxLocal);
    for (; i + 8 <= hi; i += 8, idx = _mm512_add_epi64(idx, step)) {
      const __mmask8 live =
          _mm512_cmpeq_epi64_mask(load_i32x8(st, i), idx) &
          _mm512_cmpneq_epi64_mask(load_i32x8(slack, i), zero);
      const __m512i sv = load_i32x8(s, i);
      const __mmask8 free_m = live & _mm512_cmpeq_epi64_mask(sv, minus1);
      const __mmask8 outer_m = live & _mm512_cmpeq_epi64_mask(sv, zero);
      const __m512i v =
          _mm512_loadu_si512(reinterpret_cast<const void*>(val + i));
      // Contributing lanes are non-negative, so the logical shift is the
      // arithmetic halving of the scalar reference.
      acc = _mm512_mask_min_epi64(acc, free_m, acc, v);
      acc = _mm512_mask_min_epi64(acc, outer_m, acc, _mm512_srli_epi64(v, 1));
    }
    best = _mm512_reduce_min_epi64(acc);
  }
  for (; i < hi; ++i) {
    if (st[i] != static_cast<std::int32_t>(i) || slack[i] == 0) continue;
    std::int64_t c;
    if (s[i] == -1) {
      c = val[i];
    } else if (s[i] == 0) {
      c = val[i] >> 1;
    } else {
      continue;
    }
    if (c < best) best = c;
  }
  return best;
}

void avx512_i64_slack_shift(std::int64_t* val, const std::int32_t* slack,
                            const std::int32_t* st, const std::int32_t* s,
                            std::size_t lo, std::size_t hi, std::int64_t d) {
  const __m512i zero = _mm512_setzero_si512();
  const __m512i minus1 = _mm512_set1_epi64(-1);
  const __m512i vd = _mm512_set1_epi64(d);
  const __m512i vd2 = _mm512_set1_epi64(2 * d);
  const __m512i step = _mm512_set1_epi64(8);
  std::size_t i = lo;
  __m512i idx = _mm512_add_epi64(
      _mm512_set1_epi64(static_cast<std::int64_t>(i)),
      _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7));
  for (; i + 8 <= hi; i += 8, idx = _mm512_add_epi64(idx, step)) {
    const __mmask8 live =
        _mm512_cmpeq_epi64_mask(load_i32x8(st, i), idx) &
        _mm512_cmpneq_epi64_mask(load_i32x8(slack, i), zero);
    const __m512i sv = load_i32x8(s, i);
    const __mmask8 free_m = live & _mm512_cmpeq_epi64_mask(sv, minus1);
    const __mmask8 outer_m = live & _mm512_cmpeq_epi64_mask(sv, zero);
    __m512i v = _mm512_loadu_si512(reinterpret_cast<void*>(val + i));
    v = _mm512_mask_sub_epi64(v, free_m, v, vd);
    v = _mm512_mask_sub_epi64(v, outer_m, v, vd2);
    _mm512_storeu_si512(reinterpret_cast<void*>(val + i), v);
  }
  for (; i < hi; ++i) {
    if (st[i] != static_cast<std::int32_t>(i) || slack[i] == 0) continue;
    if (s[i] == -1) {
      val[i] -= d;
    } else if (s[i] == 0) {
      val[i] -= 2 * d;
    }
  }
}

std::size_t avx512_price_scan(const double* xs, const double* ys,
                              std::size_t n, double px, double py,
                              double bound, const double* adj,
                              const std::uint32_t* ids, std::uint32_t* out) {
  const __m512d vpx = _mm512_set1_pd(px);
  const __m512d vpy = _mm512_set1_pd(py);
  const __m512d vbound = _mm512_set1_pd(bound);
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d d = dist8(_mm512_loadu_pd(xs + i), _mm512_loadu_pd(ys + i),
                            vpx, vpy);
    const __m512d rhs = _mm512_sub_pd(vbound, _mm512_loadu_pd(adj + i));
    unsigned mask = _mm512_cmp_pd_mask(d, rhs, _CMP_LT_OQ);
    while (mask != 0) {
      const int lane = __builtin_ctz(mask);
      out[count++] = ids[i + static_cast<std::size_t>(lane)];
      mask &= mask - 1;
    }
  }
  for (; i < n; ++i) {
    const double dx = px - xs[i];
    const double dy = py - ys[i];
    const double d = std::sqrt(dx * dx + dy * dy);
    if (d < bound - adj[i]) out[count++] = ids[i];
  }
  return count;
}

}  // namespace

const KernelTable kAvx512Kernels = {
    avx512_distance_row,  avx512_argmin_distance_masked, avx512_two_opt_scan,
    avx512_or_opt_scan,   avx512_select_within, avx512_advance_select_below,
    avx512_i64_dual_apply, avx512_i64_slack_bound, avx512_i64_slack_shift,
    avx512_price_scan,
};

}  // namespace mcharge::simd::detail

#endif  // MCHARGE_SIMD_X86
