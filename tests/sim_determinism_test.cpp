// Bitwise determinism of sim::simulate across SIMD backends.
//
// The contract under test: for a fixed instance and config, the full
// SimResult — every scalar, every per-sensor vector, every RunningStats
// moment, every RoundLog entry — is bit-identical no matter which SIMD
// backend serves the per-sensor scan kernels, and across repeated runs.
#include <gtest/gtest.h>

#include <vector>

#include "core/appro.h"
#include "sim/simulation.h"
#include "sim_compare.h"
#include "util/rng.h"
#include "util/simd.h"

namespace mcharge::sim {
namespace {

struct Variant {
  double dispatch_epoch_s;
  double charge_target_fraction;
  const char* tag;
};

TEST(SimDeterminism, ByteIdenticalAcrossBackends) {
  Rng rng(77);
  auto instance = model::make_instance(model::NetworkConfig{}, 300, rng);
  // Load the fleet so the run has dead sensors, censored rounds, and big
  // batches — every accounting path, not just the easy ones.
  for (auto& w : instance.consumption_w) w *= 3.0;
  core::ApproScheduler appro;

  const Variant variants[] = {
      {0.0, 1.0, "on-demand/full"},
      {86400.0, 1.0, "epoch/full"},
      {0.0, 0.6, "on-demand/partial"},
  };
  for (const Variant& variant : variants) {
    SimConfig config;
    config.monitoring_period_s = 60.0 * 86400.0;
    config.record_rounds = true;
    config.dispatch_epoch_s = variant.dispatch_epoch_s;
    config.charge_target_fraction = variant.charge_target_fraction;

    // Reference: scalar kernels.
    SimResult reference;
    {
      BackendGuard guard(simd::Backend::kScalar);
      reference = simulate(instance, appro, config);
    }
    ASSERT_GT(reference.rounds, 0u) << variant.tag;

    for (simd::Backend b : supported_backends()) {
      BackendGuard guard(b);
      const SimResult got = simulate(instance, appro, config);
      SCOPED_TRACE(std::string(variant.tag) + " backend=" +
                   simd::backend_name(b));
      expect_results_identical(reference, got);
    }
  }
}

}  // namespace
}  // namespace mcharge::sim
