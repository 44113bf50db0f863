// Cross-commit pin of sim::simulate: SimResult digests checked in as
// hexfloat text.
//
// The determinism suites compare runs inside one build; this one compares
// a run with the bits an earlier commit produced, so a refactor or
// speed-up that claims identical output has to keep every digest below.
// Each digest is the round count, the charge count, the total dead time
// and the longest-delay sum as hexfloats, plus a 64-bit FNV-1a hash over
// the hexfloat text of every SimResult field (per-sensor vectors and the
// round log included). The cases cover Appro, AA (which leaves some batch
// members uncharged) and K-minMax, each fault-free, with sensor deaths at
// two rates, under a fault mix with graft recovery, and with 3-day
// dispatch epochs.
//
// Re-baseline only on purpose: a change meant to alter results updates
// the table and explains the diff.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "baselines/aa.h"
#include "baselines/kminmax.h"
#include "core/appro.h"
#include "golden_digest.h"
#include "sim/simulation.h"
#include "sim_compare.h"
#include "util/rng.h"

namespace mcharge::sim {
namespace {

using golden::Digest;

std::string digest(const SimResult& r) {
  Digest d;
  d.add(r.rounds);
  d.add(r.sensors_charged);
  d.add(r.total_dead_seconds);
  d.add(r.mean_dead_minutes_per_sensor);
  d.add(r.round_longest_delay_s);
  d.add(r.round_batch_size);
  d.add(r.request_latency_s);
  d.add(r.total_conflict_wait_s);
  d.add(r.verify_violations);
  d.add(r.busy_fraction);
  d.add(static_cast<std::size_t>(r.truncated));
  d.add(static_cast<std::size_t>(r.truncated_reason));
  d.add(r.mcv_breakdowns);
  d.add(r.sensors_failed);
  d.add(r.recovered_sensors);
  d.add(r.deferred_sensors);
  d.add(r.extra_recovery_delay_s);
  d.add(r.mcv_energy_exhausted);
  d.add(r.mcv_energy_spent_j);
  d.add(r.mcv_energy_max_tour_j);
  for (double x : r.dead_seconds_per_sensor) d.add(x);
  for (std::size_t x : r.charges_per_sensor) d.add(x);
  for (double x : r.dead_seconds_by_month) d.add(x);
  for (const RoundLog& l : r.rounds_log) {
    d.add(l.dispatch_time);
    d.add(l.batch);
    d.add(l.charged);
    d.add(l.longest_delay_s);
    d.add(l.wait_s);
    d.add(l.breakdowns);
    d.add(l.recovered);
    d.add(l.deferred);
    d.add(l.extra_delay_s);
    d.add(l.energy_aborts);
    d.add(l.energy_spent_j);
    d.add(l.energy_max_tour_j);
  }
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%zu %zu %a %a %016llx", r.rounds,
                r.sensors_charged, r.total_dead_seconds,
                r.round_longest_delay_s.sum(),
                static_cast<unsigned long long>(d.value()));
  return buf;
}

model::WrsnInstance golden_instance() {
  Rng rng(2019);
  auto instance = model::make_instance(model::NetworkConfig{}, 300, rng);
  // Hot draws give big batches and dead sensors within one month.
  for (auto& w : instance.consumption_w) w *= 3.0;
  return instance;
}

SimConfig golden_config(const std::string& variant) {
  SimConfig c;
  c.monitoring_period_s = 30.0 * 86400.0;
  c.record_rounds = true;
  if (variant == "deaths") {
    c.faults.seed = 5;
    c.faults.sensor_death_prob = 0.001;
  } else if (variant == "deaths-often") {
    // Often enough that a death hits the sensor holding the carried
    // next crossing, which only the simulator's full rescan gets right.
    c.faults.seed = 6;
    c.faults.sensor_death_prob = 0.003;
  } else if (variant == "faults-graft") {
    c.faults.seed = 9;
    c.faults.mcv_breakdown_prob = 0.25;
    c.faults.travel_jitter = 0.1;
    c.faults.charge_jitter = 0.05;
    c.faults.dispatch_delay_prob = 0.1;
    c.faults.dispatch_delay_max_s = 1800.0;
    c.recovery = core::RecoveryPolicy::kGraft;
  } else if (variant == "epoch-3d") {
    c.dispatch_epoch_s = 3.0 * 86400.0;
  }
  return c;
}

std::unique_ptr<sched::Scheduler> golden_scheduler(const std::string& name) {
  if (name == "appro") return std::make_unique<core::ApproScheduler>();
  if (name == "aa") {
    // A dear move cost makes AA's profit test skip far sensors.
    baselines::AaScheduler::Options options;
    options.move_cost_j_per_m = 200.0;
    return std::make_unique<baselines::AaScheduler>(options);
  }
  return std::make_unique<baselines::KMinMaxScheduler>();
}

struct GoldenCase {
  const char* scheduler;
  const char* variant;
  const char* digest;
};

const GoldenCase kGolden[] = {
    {"appro", "fault-free",
     "174 909 0x1.2f1e2046a0b8p+18 0x1.11501b56a2473p+21 857fb12adaaa27ed"},
    {"appro", "deaths",
     "257 821 0x1.d8bc6b04af214p+17 0x1.07a7744ba0bafp+21 c194bc3028155502"},
    {"appro", "deaths-often",
     "338 622 0x0p+0 0x1.d61ad7d8ba63p+20 03057b0a71019ffb"},
    {"appro", "faults-graft",
     "77 782 0x1.055013b2a53d9p+24 0x1.22316e48276ep+21 4de87fdb0b08cd21"},
    {"appro", "epoch-3d",
     "9 631 0x1.84294226c99fbp+25 0x1.7012f9ba72333p+20 171be3ed6ca97808"},
    {"aa", "fault-free",
     "226 798 0x1.707585c9b3f8p+22 0x1.14ef6752685dap+21 0672f80098c2f0ed"},
    {"aa", "deaths",
     "439 674 0x1.59b5c961feb94p+22 0x1.09b7ce786ee44p+21 f6301cf89e087323"},
    {"aa", "deaths-often",
     "1722 207 0x1.d3b769143e955p+19 0x1.876a62b3152ep+19 8a80176749bdef5d"},
    {"aa", "faults-graft",
     "153 706 0x1.de87a28cdd31dp+24 0x1.2581005b5a4dap+21 47bc871891705972"},
    {"aa", "epoch-3d",
     "9 567 0x1.3005abfa6de5ap+26 0x1.7c1e78d409775p+20 0b1281843526ab0a"},
    {"kminmax", "fault-free",
     "155 906 0x1.eed22393e7174p+18 0x1.11e39b1f41b1ap+21 6392864f3757dc09"},
    {"kminmax", "deaths",
     "239 821 0x1.218be9ddacb5ep+18 0x1.095ab816f00d2p+21 52379125db38589b"},
    {"kminmax", "deaths-often",
     "332 626 0x0p+0 0x1.da773596e05e7p+20 b280c0a82752dc14"},
    {"kminmax", "faults-graft",
     "76 772 0x1.3e0f63a6028cp+24 0x1.17fefc3bee648p+21 4e05a27d14d76003"},
    {"kminmax", "epoch-3d",
     "9 624 0x1.8872aca757bbcp+25 0x1.7fae996ed76p+20 2437551d7143bd19"},
};

TEST(SimGolden, DigestsMatchRecordedBitsOnAllBackends) {
  const auto instance = golden_instance();
  for (const GoldenCase& g : kGolden) {
    const auto scheduler = golden_scheduler(g.scheduler);
    const SimConfig config = golden_config(g.variant);
    for (simd::Backend b : supported_backends()) {
      BackendGuard guard(b);
      const SimResult r = simulate(instance, *scheduler, config);
      EXPECT_EQ(0u, r.verify_violations);
      // The cases must reach the paths they are here for: deaths force
      // the simulator's full crossing recompute, and AA leaves batch
      // members uncharged.
      if (std::string(g.variant).rfind("deaths", 0) == 0) {
        EXPECT_GT(r.sensors_failed, 0u);
      }
      if (std::string(g.scheduler) == "aa" &&
          std::string(g.variant) == "fault-free") {
        // Only the last round can be cut by the horizon.
        std::size_t partial = 0;
        for (std::size_t i = 0; i + 1 < r.rounds_log.size(); ++i) {
          partial += r.rounds_log[i].charged < r.rounds_log[i].batch;
        }
        EXPECT_GT(partial, 0u);
      }
      EXPECT_EQ(std::string(g.digest), digest(r))
          << g.scheduler << " " << g.variant << " backend "
          << simd::backend_name(b);
    }
  }
}

}  // namespace
}  // namespace mcharge::sim
