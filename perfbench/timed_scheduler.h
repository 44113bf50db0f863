// Timing decorator and round replay for the benchmark's traced run.
//
// TimedScheduler wraps one sched::Scheduler: every plan call is timed
// from outside the planner and its batch size recorded, and (optionally)
// the round's problem and plan are kept so that replay_rounds() can run
// the round's execution, verification and recovery again through the
// library's public calls, each timed on its own. The library itself gains
// no span: this is the per-layer split measured from the benchmark side.
//
// Not thread-safe: the traced run is serial by design.
#pragma once

#include <chrono>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "core/replan.h"
#include "model/charging_problem.h"
#include "schedule/execute.h"
#include "schedule/plan.h"
#include "schedule/scheduler.h"
#include "schedule/verify.h"
#include "sim/faults.h"
#include "sim/simulation.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One timed plan call.
struct PlanCall {
  double seconds = 0.0;
  std::size_t batch = 0;
};

/// One captured charging round, in simulator round order.
struct CapturedRound {
  mcharge::model::ChargingProblem problem;
  mcharge::sched::ChargingPlan plan;
};

class TimedScheduler final : public mcharge::sched::Scheduler {
 public:
  explicit TimedScheduler(const mcharge::sched::Scheduler& inner)
      : inner_(inner) {}

  std::string name() const override { return inner_.name(); }

  mcharge::sched::ChargingPlan plan(
      const mcharge::model::ChargingProblem& problem) const override {
    return plan_with_jobs(problem, 0);
  }

  mcharge::sched::ChargingPlan plan_with_jobs(
      const mcharge::model::ChargingProblem& problem,
      std::size_t jobs) const override {
    const auto t0 = Clock::now();
    mcharge::sched::ChargingPlan plan = inner_.plan_with_jobs(problem, jobs);
    calls_.push_back({seconds_since(t0), problem.size()});
    const auto c0 = Clock::now();
    rounds_.push_back({problem, plan});
    capture_s_ += seconds_since(c0);
    return plan;
  }

  /// Every plan call since construction.
  const std::vector<PlanCall>& calls() const { return calls_; }
  /// Seconds spent copying rounds; not simulator time.
  double capture_seconds() const { return capture_s_; }
  /// Hands over the rounds captured since the last call.
  std::vector<CapturedRound> take_rounds() {
    return std::exchange(rounds_, {});
  }

 private:
  const mcharge::sched::Scheduler& inner_;
  mutable std::vector<PlanCall> calls_;
  mutable std::vector<CapturedRound> rounds_;
  mutable double capture_s_ = 0.0;
};

/// What replaying one simulation's rounds measured and counted.
struct ReplayTotals {
  std::size_t plain_rounds = 0;   ///< executed by execute_plan
  std::size_t faulty_rounds = 0;  ///< executed by recover_round
  double execute_s = 0.0;
  double recover_s = 0.0;
  double verify_s = 0.0;
  std::size_t violations = 0;
  std::size_t breakdowns = 0;

  void merge(const ReplayTotals& o) {
    plain_rounds += o.plain_rounds;
    faulty_rounds += o.faulty_rounds;
    execute_s += o.execute_s;
    recover_s += o.recover_s;
    verify_s += o.verify_s;
    violations += o.violations;
    breakdowns += o.breakdowns;
  }
};

/// Re-runs the execution side of each captured round exactly as the
/// simulator does: round r draws its faults from FaultModel::round_faults(r)
/// and carries the config's MCV budget; a round whose bundle can change
/// anything goes through recover_round, any other through execute_plan,
/// and the result is verified with the simulator's options. The violation
/// and breakdown counts must equal the simulation's own.
inline ReplayTotals replay_rounds(const std::vector<CapturedRound>& rounds,
                                  const mcharge::sim::SimConfig& config) {
  namespace sched = mcharge::sched;
  const mcharge::sim::FaultModel fault_model(config.faults);
  ReplayTotals totals;
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    const CapturedRound& round = rounds[r];
    sched::ExecutionFaults faults;
    if (fault_model.enabled()) faults = fault_model.round_faults(r, round.plan);
    if (config.mcv_budget.enabled()) faults.budget = config.mcv_budget;

    sched::VerifyOptions options;
    options.require_full_coverage = false;
    if (faults.any()) {
      auto t0 = Clock::now();
      const mcharge::core::RecoveryOutcome outcome = mcharge::core::recover_round(
          round.problem, round.plan, faults, config.recovery);
      totals.recover_s += seconds_since(t0);
      ++totals.faulty_rounds;
      totals.breakdowns += outcome.stats.breakdowns;
      options.allow_partial = true;
      options.faults = &faults;
      t0 = Clock::now();
      totals.violations +=
          sched::verify_schedule(round.problem, outcome.primary, options).size();
      if (outcome.has_recovery) {
        totals.violations += sched::verify_schedule(outcome.replan.subproblem,
                                                    outcome.recovery)
                                 .size();
      }
      totals.verify_s += seconds_since(t0);
    } else {
      auto t0 = Clock::now();
      const sched::ChargingSchedule schedule =
          sched::execute_plan(round.problem, round.plan);
      totals.execute_s += seconds_since(t0);
      ++totals.plain_rounds;
      t0 = Clock::now();
      totals.violations +=
          sched::verify_schedule(round.problem, schedule, options).size();
      totals.verify_s += seconds_since(t0);
    }
  }
  return totals;
}

}  // namespace perfbench
