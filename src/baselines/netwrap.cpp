#include "baselines/netwrap.h"

#include <algorithm>
#include <limits>
#include <queue>

#include "util/assert.h"

namespace mcharge::baselines {

NetwrapScheduler::NetwrapScheduler(double travel_weight)
    : travel_weight_(travel_weight) {
  MCHARGE_ASSERT(travel_weight >= 0.0 && travel_weight <= 1.0,
                 "travel weight must be in [0, 1]");
}

sched::ChargingPlan NetwrapScheduler::plan(
    const model::ChargingProblem& problem) const {
  const std::size_t n = problem.size();
  const std::size_t k = problem.num_chargers();
  sched::ChargingPlan plan;
  plan.mode = sched::ChargeMode::kOneToOne;
  plan.tours.assign(k, {});
  if (n == 0) return plan;

  struct McvState {
    double time;
    geom::Point at;
    std::uint32_t id;
    bool operator>(const McvState& other) const {
      if (time != other.time) return time > other.time;
      return id > other.id;
    }
  };
  std::priority_queue<McvState, std::vector<McvState>, std::greater<McvState>>
      idle;
  for (std::uint32_t j = 0; j < k; ++j) idle.push({0.0, problem.depot(), j});

  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Deadlines are fixed for the whole plan; unassigned sensors are kept in
  // ascending index order so the lowest-index tie rule below is unchanged.
  std::vector<double> life(n);
  std::vector<std::uint32_t> left(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    life[v] = problem.residual_lifetime(v);
    left[v] = v;
  }
  std::vector<double> travel(n);  // distance from the MCV, per slot of left
  while (!left.empty()) {
    McvState mcv = idle.top();
    idle.pop();

    // Normalization constants over the remaining candidates.
    double max_travel = 0.0;
    double max_life = 0.0;
    for (std::size_t s = 0; s < left.size(); ++s) {
      const std::uint32_t v = left[s];
      travel[s] = geom::distance(mcv.at, problem.position(v));
      max_travel = std::max(max_travel, travel[s]);
      if (life[v] != kInf) max_life = std::max(max_life, life[v]);
    }

    double best_score = kInf;
    std::size_t best_slot = 0;
    for (std::size_t s = 0; s < left.size(); ++s) {
      const double norm_travel =
          max_travel > 0.0 ? travel[s] / max_travel : 0.0;
      const double v_life = life[left[s]];
      double norm_life = 0.0;
      if (max_life > 0.0 && v_life != kInf) {
        norm_life = v_life / max_life;
      } else if (v_life == kInf) {
        norm_life = 1.0;
      }
      const double score =
          travel_weight_ * norm_travel + (1.0 - travel_weight_) * norm_life;
      if (score < best_score) {
        best_score = score;
        best_slot = s;
      }
    }

    const std::uint32_t best = left[best_slot];
    const double travel_time = travel[best_slot] / problem.speed();
    left.erase(left.begin() + static_cast<std::ptrdiff_t>(best_slot));
    plan.tours[mcv.id].push_back(best);
    mcv.time += travel_time + problem.charge_seconds(best);
    mcv.at = problem.position(best);
    idle.push(mcv);
  }
  return plan;
}

}  // namespace mcharge::baselines
