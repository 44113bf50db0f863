// Shared helpers for running a test under every SIMD backend the build
// and CPU support (scalar always; AVX2 / AVX-512 when available).
#pragma once

#include <vector>

#include "util/simd.h"

namespace mcharge {

/// Pins a backend for a scope; restores the previous one on exit.
class BackendGuard {
 public:
  explicit BackendGuard(simd::Backend b) : prev_(simd::active_backend()) {
    active_ = simd::set_backend(b);
  }
  ~BackendGuard() { simd::set_backend(prev_); }
  simd::Backend active() const { return active_; }

 private:
  simd::Backend prev_;
  simd::Backend active_;
};

/// All backends this build + CPU can actually run.
inline std::vector<simd::Backend> supported_backends() {
  std::vector<simd::Backend> out{simd::Backend::kScalar};
  for (simd::Backend b : {simd::Backend::kAvx2, simd::Backend::kAvx512}) {
    BackendGuard guard(b);
    if (guard.active() == b) out.push_back(b);
  }
  return out;
}

}  // namespace mcharge
