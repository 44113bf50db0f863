// Shared harness for the figure-reproduction benches.
//
// Each paper figure plots, for the five algorithms, (a) the average longest
// tour duration (hours) and (b) the average dead duration per sensor
// (minutes) over a monitoring period, as one experiment knob sweeps. The
// harness runs `instances` random WRSN instances per sweep point, feeds
// each through the year-long (configurable) simulator under every
// algorithm, and prints both series as tables + CSV.
//
// Common flags (all benches):
//   --instances=N   instances per point           (default 10; paper: 100)
//   --months=M      monitoring period in months   (default 12, as the paper)
//   --seed=S        base RNG seed                 (default 1)
//   --jobs=N        worker threads over the (instance, algorithm) work
//                   items; 0 = all hardware threads (default), 1 = serial.
//                   Output is byte-identical for every N.
//   --mcv-budget=J  usable MCV battery capacity in joules (default 0 =
//                   unlimited). Enabling it routes every round through the
//                   budgeted executor: tours that would overdraw abort at
//                   the exhaustion point and the orphaned stops are pushed
//                   to the next round (RecoveryPolicy::kDefer).
//   --csv=PREFIX    also write PREFIX_a.csv / PREFIX_b.csv
//   --layout=L      uniform (default, as the paper) / clustered / grid
//   --trace-out=P   write a trace report to P (trace_common.h)
// An unknown flag or a malformed value exits with code 2.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/aa.h"
#include "baselines/kedf.h"
#include "baselines/kminmax.h"
#include "baselines/netwrap.h"
#include "core/appro.h"
#include "sim/simulation.h"
#include "util/assert.h"
#include "util/cli.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace mcharge::bench {

inline std::vector<sched::SchedulerPtr> paper_algorithms() {
  std::vector<sched::SchedulerPtr> out;
  out.push_back(std::make_unique<core::ApproScheduler>());
  out.push_back(std::make_unique<baselines::KEdfScheduler>());
  out.push_back(std::make_unique<baselines::NetwrapScheduler>());
  out.push_back(std::make_unique<baselines::AaScheduler>());
  out.push_back(std::make_unique<baselines::KMinMaxScheduler>());
  return out;
}

struct SweepSettings {
  std::size_t instances = 10;
  double months = 12.0;
  std::uint64_t seed = 1;
  /// Worker threads for the (instance, algorithm) work items; 0 = all
  /// hardware threads, 1 = serial. Never affects the numbers, only speed.
  /// This sweep-level pool is the only parallelism in the repository.
  std::size_t jobs = 0;
  /// MCV battery capacity in joules; 0 (default) = unlimited, taking the
  /// unbudgeted simulator path byte for byte (SimConfig::mcv_budget).
  double mcv_budget_j = 0.0;
  std::string csv_prefix;  ///< empty = no CSV files
  /// Sensor placement. The paper uses uniform; --layout=clustered/grid
  /// checks that the conclusions survive other deployment shapes.
  model::FieldLayout layout = model::FieldLayout::kUniform;

  /// Validates the flags against the common ones above plus the bench's
  /// own `extra` flags (exit code 2 on an unknown flag or a malformed
  /// value), then reads the common ones.
  static SweepSettings from_flags(const CliFlags& flags,
                                  std::initializer_list<FlagSpec> extra) {
    std::vector<FlagSpec> accepted{{"instances", FlagKind::kCount},
                                   {"months", FlagKind::kNumber},
                                   {"seed", FlagKind::kCount},
                                   {"jobs", FlagKind::kCount},
                                   {"mcv-budget", FlagKind::kNumber},
                                   {"csv", FlagKind::kText},
                                   {"layout", FlagKind::kText},
                                   {"trace-out", FlagKind::kText}};
    accepted.insert(accepted.end(), extra);
    flags.require_valid(accepted);
    SweepSettings s;
    s.instances = static_cast<std::size_t>(flags.get_int("instances", 10));
    s.months = flags.get_double("months", 12.0);
    s.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    s.jobs = static_cast<std::size_t>(flags.get_int("jobs", 0));
    s.mcv_budget_j = flags.get_double("mcv-budget", 0.0);
    s.csv_prefix = flags.get("csv", "");
    const std::string layout = flags.get("layout", "uniform");
    if (layout == "clustered") {
      s.layout = model::FieldLayout::kClustered;
    } else if (layout == "grid") {
      s.layout = model::FieldLayout::kGrid;
    } else if (layout != "uniform") {
      std::fprintf(stderr,
                   "flag --layout=%s: expected uniform, clustered or grid\n",
                   layout.c_str());
      std::exit(2);
    }
    return s;
  }
};

/// One sweep point: a label value (e.g. n) and a configured instance
/// factory. The harness owns averaging across instances and algorithms.
struct PointResult {
  std::vector<double> longest_tour_hours;   ///< per algorithm (mean)
  std::vector<double> dead_minutes;         ///< per algorithm (mean)
  std::vector<double> tour_stddev;          ///< across instances
  std::vector<double> dead_stddev;          ///< across instances
  std::size_t violations = 0;
};

/// Raw simulator output of one (instance, algorithm) work item.
struct ItemSample {
  double tour = 0.0;
  double dead = 0.0;
  std::size_t violations = 0;
};

/// Runs one sweep point and reduces it.
///
/// One work item per (instance, algorithm) pair: the item regenerates
/// its instance from a seed derived only from the instance index (all
/// algorithms see the same instance, and no state crosses items), runs
/// the year-long simulation, and records into its own slot. The slots
/// are then reduced on the calling thread in instance order, so the
/// mapping of items to threads cannot influence any number.
template <typename MakeInstance>
PointResult run_point(const SweepSettings& settings,
                      const std::vector<sched::SchedulerPtr>& algorithms,
                      MakeInstance&& make_instance) {
  sim::SimConfig sim_config;
  sim_config.monitoring_period_s = settings.months * 30.0 * 86400.0;
  sim_config.mcv_budget.capacity_j = settings.mcv_budget_j;

  const std::size_t num_algos = algorithms.size();
  std::vector<ItemSample> items(settings.instances * num_algos);
  parallel_for(
      items.size(),
      [&](std::size_t idx) {
        const std::size_t inst = idx / num_algos;
        const std::size_t a = idx % num_algos;
        Rng rng(derive_seed(settings.seed, inst));
        const model::WrsnInstance instance = make_instance(rng);
        const auto r = sim::simulate(instance, *algorithms[a], sim_config);
        // A run cut off by the max_rounds safety cap is a partial
        // measurement — averaging it into the figure would silently skew
        // the series. (kHorizonMidRound is fine: the last round of a
        // loaded run routinely straddles the end of the period.)
        MCHARGE_ASSERT(
            r.truncated_reason != sim::TruncationReason::kMaxRounds,
            "figure point hit SimConfig::max_rounds — results are partial");
        items[idx].tour = r.mean_longest_delay_hours();
        items[idx].dead = r.mean_dead_minutes_per_sensor;
        items[idx].violations = r.verify_violations;
      },
      settings.jobs);

  // Each item folds in as a merged one-sample RunningStats (not add()):
  // the two round differently, and the printed figures are pinned to
  // this order of operations.
  std::vector<RunningStats> tour(num_algos);
  std::vector<RunningStats> dead(num_algos);
  PointResult result;
  for (std::size_t inst = 0; inst < settings.instances; ++inst) {
    for (std::size_t a = 0; a < num_algos; ++a) {
      const ItemSample& item = items[inst * num_algos + a];
      RunningStats item_tour, item_dead;
      item_tour.add(item.tour);
      item_dead.add(item.dead);
      tour[a].merge(item_tour);
      dead[a].merge(item_dead);
      result.violations += item.violations;
    }
  }
  for (std::size_t a = 0; a < num_algos; ++a) {
    result.longest_tour_hours.push_back(tour[a].mean());
    result.dead_minutes.push_back(dead[a].mean());
    result.tour_stddev.push_back(tour[a].stddev());
    result.dead_stddev.push_back(dead[a].stddev());
  }
  return result;
}

/// Prints the two series ((a) tour duration, (b) dead duration) and
/// optionally writes CSVs.
inline void emit_figure(const std::string& figure, const std::string& knob,
                        const std::vector<std::string>& knob_values,
                        const std::vector<sched::SchedulerPtr>& algorithms,
                        const std::vector<PointResult>& points,
                        const SweepSettings& settings) {
  std::vector<std::string> headers{knob};
  for (const auto& a : algorithms) headers.push_back(a->name());
  // Both outputs also carry per-algorithm stddev columns (across the
  // replicated instances) so plots can show error bars.
  std::vector<std::string> csv_headers = headers;
  for (const auto& a : algorithms) csv_headers.push_back(a->name() + "_sd");

  Table tour(csv_headers);
  Table dead(csv_headers);
  std::size_t violations = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    tour.start_row();
    tour.add(knob_values[i]);
    for (double v : points[i].longest_tour_hours) tour.add(v, 2);
    for (double v : points[i].tour_stddev) tour.add(v, 2);
    dead.start_row();
    dead.add(knob_values[i]);
    for (double v : points[i].dead_minutes) dead.add(v, 1);
    for (double v : points[i].dead_stddev) dead.add(v, 1);
    violations += points[i].violations;
  }

  std::printf("\n%s(a): average longest tour duration (hours)\n",
              figure.c_str());
  tour.print(std::cout);
  std::printf("\n%s(b): average dead duration per sensor (minutes)\n",
              figure.c_str());
  dead.print(std::cout);
  std::printf("\nschedule verifier violations across all runs: %zu\n",
              violations);
  std::printf("settings: %zu instance(s)/point, %.1f-month horizon "
              "(paper: 100 instances, 12 months)\n",
              settings.instances, settings.months);
  if (!settings.csv_prefix.empty()) {
    tour.write_csv(settings.csv_prefix + "_a.csv");
    dead.write_csv(settings.csv_prefix + "_b.csv");
    std::printf("CSV written to %s_a.csv / %s_b.csv\n",
                settings.csv_prefix.c_str(), settings.csv_prefix.c_str());
  }
}

/// Drives a whole figure sweep: the bench main adds one point per knob
/// value, then finish() prints the figure.
class FigureSweep {
 public:
  FigureSweep(std::string figure, std::string knob, SweepSettings settings)
      : figure_(std::move(figure)),
        knob_(std::move(knob)),
        settings_(std::move(settings)),
        algorithms_(paper_algorithms()) {}

  template <typename MakeInstance>
  void add_point(std::string label, MakeInstance&& make_instance) {
    points_.push_back(run_point(settings_, algorithms_, make_instance));
    labels_.push_back(std::move(label));
  }

  /// Emits the figure. Returns the process exit code.
  int finish() const {
    emit_figure(figure_, knob_, labels_, algorithms_, points_, settings_);
    return 0;
  }

 private:
  std::string figure_;
  std::string knob_;
  SweepSettings settings_;
  std::vector<sched::SchedulerPtr> algorithms_;
  std::vector<std::string> labels_;
  std::vector<PointResult> points_;
};

}  // namespace mcharge::bench
