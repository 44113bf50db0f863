// End-to-end reproduction benchmark (workloads and metrics: NOTES.md).
//
//   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1 [--smoke=1]
//
// One process runs one workload. Set-up (instance generation and scheduler
// construction) is repeated and timed; one warm-up sweep fixes the
// reference digest and the simulated metrics; then serial and parallel
// sweeps alternate until S seconds have passed, each checked against the
// reference digest. --trace=0 reports the end-to-end metrics; --trace=1
// runs one extra serial pass with every scheduler wrapped in a
// TimedScheduler and the library's obs layer on, replays the captured
// rounds, and reports the per-layer split instead. --smoke=1 shrinks every
// workload for the self-test. The last stdout line is the JSON result.
#include <malloc.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/aa.h"
#include "baselines/kedf.h"
#include "baselines/kminmax.h"
#include "baselines/netwrap.h"
#include "core/appro.h"
#include "model/network.h"
#include "obs/obs.h"
#include "sim/simulation.h"
#include "timed_scheduler.h"
#include "util/cli.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace mcharge;

constexpr double kMonthS = 30.0 * 86400.0;
constexpr double kHourS = 3600.0;

/// Short metric keys of the five paper schedulers, in paper_schedulers()
/// order; index 0 is Appro.
const char* const kSchedulerKeys[] = {"appro", "kedf", "netwrap", "aa",
                                      "kminmax"};
constexpr std::size_t kNumSchedulers = std::size(kSchedulerKeys);

std::vector<sched::SchedulerPtr> paper_schedulers() {
  std::vector<sched::SchedulerPtr> out;
  out.push_back(std::make_unique<core::ApproScheduler>());
  out.push_back(std::make_unique<baselines::KEdfScheduler>());
  out.push_back(std::make_unique<baselines::NetwrapScheduler>());
  out.push_back(std::make_unique<baselines::AaScheduler>());
  out.push_back(std::make_unique<baselines::KMinMaxScheduler>());
  return out;
}

// ---------------------------------------------------------------------------
// Workloads

/// One simulator configuration applied to every instance of a workload
/// (the fault seed is filled in per instance; zero fault rates ignore it).
struct Leg {
  std::string name;
  sim::SimConfig config;
};

struct WorkloadSpec {
  std::string name;
  std::size_t n = 0;
  std::vector<std::size_t> chargers;  ///< K values; one instance set each
  std::size_t instances = 0;          ///< instances per K value
  double months = 0.0;
  std::vector<Leg> legs;
};

/// fault_ablation's fault mix at the given breakdown rate.
sim::FaultConfig fault_mix(double p_break) {
  sim::FaultConfig f;
  f.mcv_breakdown_prob = p_break;
  f.travel_jitter = 0.1;
  f.charge_jitter = 0.05;
  f.dispatch_delay_prob = 0.1;
  f.dispatch_delay_max_s = 1800.0;
  return f;
}

/// MCV battery capacity for the faulty_recovery budget leg, in joules.
/// Fixed once, not calibrated per run: at n = 1000, K = 3 and 3 months
/// under graft recovery it aborts 14-18% of Appro tours on seeds 1-5
/// (metered per-tour draws put it near their 0.85 quantile).
constexpr double kBudgetLegCapacityJ = 22000.0;

bool make_workload(const std::string& name, bool smoke, WorkloadSpec* out) {
  WorkloadSpec w;
  w.name = name;
  if (name == "repro_fig5") {
    // Paper Fig. 5: n = 1000, K = 1..5, uniform field, on-demand dispatch.
    w.n = 1000;
    w.chargers = {1, 2, 3, 4, 5};
    w.instances = 4;
    w.months = 6.0;
    w.legs.push_back({"on-demand", {}});
  } else if (name == "epoch_bulk") {
    // ablation_policy's longest dispatch epoch at twice its field size.
    w.n = 2000;
    w.chargers = {2};
    w.instances = 2;
    w.months = 6.0;
    sim::SimConfig c;
    c.dispatch_epoch_s = 3.0 * 86400.0;
    w.legs.push_back({"epoch=3d", c});
  } else if (name == "faulty_recovery") {
    // fault_ablation's fault mix at p_break = 0.25 under each recovery
    // policy, plus a leg where every abort is a battery exhaustion.
    w.n = 1000;
    w.chargers = {3};
    w.instances = 4;
    w.months = 3.0;
    const std::pair<const char*, core::RecoveryPolicy> policies[] = {
        {"defer", core::RecoveryPolicy::kDefer},
        {"graft", core::RecoveryPolicy::kGraft},
        {"replan", core::RecoveryPolicy::kReplan}};
    for (const auto& [leg_name, policy] : policies) {
      sim::SimConfig c;
      c.faults = fault_mix(0.25);
      c.recovery = policy;
      w.legs.push_back({leg_name, c});
    }
    sim::SimConfig c;
    c.faults = fault_mix(0.0);
    c.recovery = core::RecoveryPolicy::kGraft;
    c.mcv_budget.capacity_j = kBudgetLegCapacityJ;
    w.legs.push_back({"budget", c});
  } else {
    return false;
  }
  if (smoke) {
    // Three months keep the faulty_recovery failures visible.
    w.instances = 1;
    w.months = std::min(w.months, 3.0);
  }
  for (Leg& leg : w.legs) leg.config.monitoring_period_s = w.months * kMonthS;
  *out = std::move(w);
  return true;
}

/// One simulation of a sweep.
struct Item {
  const model::WrsnInstance* instance = nullptr;
  std::size_t scheduler = 0;  ///< index into paper_schedulers()
  sim::SimConfig config;
  std::string label;
};

/// Everything set-up produces: the instances and the ordered work items.
struct Setup {
  std::vector<model::WrsnInstance> instances;
  std::vector<sched::SchedulerPtr> schedulers;
  std::vector<Item> items;
  double make_instance_s = 0.0;
};

/// Generates the instances from `seed` and lays out the items K-major,
/// then leg, instance and scheduler, like the figure sweeps.
Setup make_setup(const WorkloadSpec& w, std::uint64_t seed) {
  Setup s;
  const auto t0 = Clock::now();
  s.instances.reserve(w.chargers.size() * w.instances);
  for (std::size_t k : w.chargers) {
    model::NetworkConfig config;
    config.num_chargers = k;
    for (std::size_t i = 0; i < w.instances; ++i) {
      Rng rng(derive_seed(seed, i));
      s.instances.push_back(model::make_instance(config, w.n, rng));
    }
  }
  s.make_instance_s = seconds_since(t0);
  s.schedulers = paper_schedulers();
  for (std::size_t ki = 0; ki < w.chargers.size(); ++ki) {
    for (const Leg& leg : w.legs) {
      for (std::size_t i = 0; i < w.instances; ++i) {
        for (std::size_t a = 0; a < kNumSchedulers; ++a) {
          Item item;
          item.instance = &s.instances[ki * w.instances + i];
          item.scheduler = a;
          item.config = leg.config;
          item.config.faults.seed = derive_seed(seed ^ 0xfa017ULL, i);
          item.label = "K=" + std::to_string(w.chargers[ki]) + " " +
                       leg.name + " inst=" + std::to_string(i) + " " +
                       kSchedulerKeys[a];
          s.items.push_back(std::move(item));
        }
      }
    }
  }
  return s;
}

// ---------------------------------------------------------------------------
// Sweep outcomes and their digest

/// The SimResult aggregates the benchmark keeps per item.
struct Outcome {
  std::size_t rounds = 0;
  std::size_t sensors_charged = 0;
  double total_dead_s = 0.0;
  double mean_dead_min = 0.0;
  double delay_sum_s = 0.0;
  std::size_t delay_count = 0;
  double delay_max_s = 0.0;
  double batch_sum = 0.0;
  double latency_mean_s = 0.0;
  std::size_t latency_count = 0;
  double conflict_wait_s = 0.0;
  std::size_t violations = 0;
  double busy_fraction = 0.0;
  std::size_t breakdowns = 0;
  std::size_t recovered = 0;
  std::size_t deferred = 0;
  double extra_delay_s = 0.0;
  std::size_t energy_aborts = 0;
  double energy_spent_j = 0.0;
  bool capped = false;  ///< stopped at SimConfig::max_rounds

  static Outcome of(const sim::SimResult& r) {
    Outcome o;
    o.rounds = r.rounds;
    o.sensors_charged = r.sensors_charged;
    o.total_dead_s = r.total_dead_seconds;
    o.mean_dead_min = r.mean_dead_minutes_per_sensor;
    o.delay_sum_s = r.round_longest_delay_s.sum();
    o.delay_count = r.round_longest_delay_s.count();
    o.delay_max_s = r.round_longest_delay_s.max();
    o.batch_sum = r.round_batch_size.sum();
    o.latency_mean_s = r.request_latency_s.mean();
    o.latency_count = r.request_latency_s.count();
    o.conflict_wait_s = r.total_conflict_wait_s;
    o.violations = r.verify_violations;
    o.busy_fraction = r.busy_fraction;
    o.breakdowns = r.mcv_breakdowns;
    o.recovered = r.recovered_sensors;
    o.deferred = r.deferred_sensors;
    o.extra_delay_s = r.extra_recovery_delay_s;
    o.energy_aborts = r.mcv_energy_exhausted;
    o.energy_spent_j = r.mcv_energy_spent_j;
    o.capped = r.truncated_reason == sim::TruncationReason::kMaxRounds;
    return o;
  }

  /// Every aggregate, doubles in hexfloat so that equal lines mean equal
  /// bits.
  std::string digest() const {
    char buf[640];
    std::snprintf(
        buf, sizeof buf,
        "rounds=%zu charged=%zu dead_s=%a dead_min=%a delay_sum=%a "
        "delay_n=%zu delay_max=%a batch_sum=%a latency=%a latency_n=%zu "
        "wait=%a viol=%zu busy=%a breakdowns=%zu recovered=%zu deferred=%zu "
        "extra=%a aborts=%zu energy=%a capped=%d",
        rounds, sensors_charged, total_dead_s, mean_dead_min, delay_sum_s,
        delay_count, delay_max_s, batch_sum, latency_mean_s, latency_count,
        conflict_wait_s, violations, busy_fraction, breakdowns, recovered,
        deferred, extra_delay_s, energy_aborts, energy_spent_j,
        capped ? 1 : 0);
    return buf;
  }
};

std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t sweep_digest(const std::vector<Outcome>& outcomes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const Outcome& o : outcomes) h = fnv1a(h, o.digest() + "\n");
  return h;
}

/// Runs every item through sim::simulate with `jobs` threads (1 = inline
/// serial loop), each into its own slot. `item_s`, if given, receives
/// each item's wall time.
std::vector<Outcome> run_sweep(const Setup& s, std::size_t jobs,
                               std::vector<double>* item_s = nullptr) {
  std::vector<Outcome> out(s.items.size());
  if (item_s != nullptr) item_s->assign(s.items.size(), 0.0);
  parallel_for(
      s.items.size(),
      [&](std::size_t i) {
        const Item& item = s.items[i];
        const auto t0 = Clock::now();
        out[i] = Outcome::of(sim::simulate(
            *item.instance, *s.schedulers[item.scheduler], item.config));
        if (item_s != nullptr) (*item_s)[i] = seconds_since(t0);
      },
      jobs);
  return out;
}

// ---------------------------------------------------------------------------
// Statistics

double quantile_sorted(const std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return quantile_sorted(v, 0.5);
}

/// Median plus the highest percentile of {50, 90, 99, 99.9, 99.99, 99.999}
/// that has at least ten samples beyond it (the median when none has).
struct Distribution {
  std::size_t samples = 0;
  double p50 = 0.0;
  double tail_pct = 50.0;
  double tail = 0.0;
};

Distribution distribution(std::vector<double> v) {
  Distribution d;
  std::sort(v.begin(), v.end());
  d.samples = v.size();
  d.p50 = quantile_sorted(v, 0.5);
  d.tail = d.p50;
  for (double pct : {99.999, 99.99, 99.9, 99.0, 90.0}) {
    if (static_cast<double>(v.size()) * (1.0 - pct / 100.0) >= 10.0) {
      d.tail_pct = pct;
      d.tail = quantile_sorted(v, pct / 100.0);
      break;
    }
  }
  return d;
}

void print_distribution(const char* name, const char* unit,
                        std::vector<double> v) {
  const Distribution d = distribution(std::move(v));
  std::printf("%-14s median %.6g %s, p%g %.6g %s, %zu samples\n", name, d.p50,
              unit, d.tail_pct, d.tail, unit, d.samples);
}

/// Returns free heap memory to the kernel, then resets the kernel's
/// peak-resident-memory mark of this process (Linux clear_refs "5"), so
/// that the next peak is one item's own; false when the kernel refuses.
bool reset_peak_rss() {
  malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool wrote = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && wrote;
}

/// Peak resident memory since the last reset (VmHWM), in MiB; -1 if the
/// kernel does not report it.
double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1.0;
  char line[256];
  double kib = -1.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib < 0.0 ? -1.0 : kib / 1024.0;
}

// ---------------------------------------------------------------------------
// Result line

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

// ---------------------------------------------------------------------------
// The run

struct Options {
  WorkloadSpec workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t threads = 1;
};

/// Failures of one sweep: verifier violations plus runs cut at max_rounds.
std::size_t count_failures(const std::vector<Outcome>& outcomes) {
  std::size_t failed = 0;
  for (const Outcome& o : outcomes) failed += o.violations + (o.capped ? 1 : 0);
  return failed;
}

std::size_t count_rounds(const std::vector<Outcome>& outcomes) {
  std::size_t rounds = 0;
  for (const Outcome& o : outcomes) rounds += o.rounds;
  return rounds;
}

/// Per-layer split from one serial pass with every scheduler wrapped in a
/// TimedScheduler and the obs layer on, plus the rounds replayed.
struct TracedPass {
  std::vector<Outcome> outcomes;
  double sim_wall_s = 0.0;  ///< simulate() time minus round capture
  std::vector<std::vector<PlanCall>> calls;  ///< per scheduler
  ReplayTotals replay;
  bool replay_matches = true;
  std::map<std::string, obs::MetricSnapshot> obs;
};

TracedPass traced_pass(const Setup& s) {
  TracedPass p;
  std::vector<std::unique_ptr<TimedScheduler>> timed;
  for (const auto& sch : s.schedulers) {
    timed.push_back(std::make_unique<TimedScheduler>(*sch));
  }
  obs::reset();
  for (const Item& item : s.items) {
    TimedScheduler& scheduler = *timed[item.scheduler];
    const double capture0 = scheduler.capture_seconds();
    obs::set_enabled(true);
    const auto t0 = Clock::now();
    const sim::SimResult r =
        sim::simulate(*item.instance, scheduler, item.config);
    const double wall = seconds_since(t0);
    obs::set_enabled(false);
    p.sim_wall_s += wall - (scheduler.capture_seconds() - capture0);
    p.outcomes.push_back(Outcome::of(r));
    const ReplayTotals replay =
        replay_rounds(scheduler.take_rounds(), item.config);
    if (replay.violations != r.verify_violations ||
        replay.breakdowns != r.mcv_breakdowns) {
      std::printf("replay mismatch on %s: violations %zu vs %zu, "
                  "breakdowns %zu vs %zu\n",
                  item.label.c_str(), replay.violations, r.verify_violations,
                  replay.breakdowns, r.mcv_breakdowns);
      p.replay_matches = false;
    }
    p.replay.merge(replay);
  }
  for (const auto& t : timed) p.calls.push_back(t->calls());
  for (auto& m : obs::capture().metrics) p.obs[m.name] = m;
  return p;
}

/// The simulated quality of one sweep, pooled over its items.
struct Quality {
  double appro_delay_h = 0.0;      ///< mean longest delay of Appro rounds
  double appro_latency_min = 0.0;  ///< mean request-to-charge, Appro
  double appro_dead_min = 0.0;     ///< mean dead minutes per sensor, Appro
  /// Share of Appro's sensor-time with a live battery: 1 - dead time over
  /// sensors x horizon. Dead time itself is legitimately 0 where the fleet
  /// keeps up; this form of it never is.
  double appro_alive_share = 0.0;
  double baselines_delay_h = 0.0;  ///< mean longest delay, other four
};

Quality quality(const Setup& s, const std::vector<Outcome>& outcomes) {
  double appro_delay = 0.0, base_delay = 0.0, latency = 0.0, dead = 0.0;
  double dead_share = 0.0;
  std::size_t appro_rounds = 0, base_rounds = 0, charges = 0, items = 0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& o = outcomes[i];
    if (s.items[i].scheduler != 0) {
      base_delay += o.delay_sum_s;
      base_rounds += o.delay_count;
      continue;
    }
    appro_delay += o.delay_sum_s;
    appro_rounds += o.delay_count;
    latency += o.latency_mean_s * static_cast<double>(o.latency_count);
    charges += o.latency_count;
    dead += o.mean_dead_min;
    dead_share += o.mean_dead_min * 60.0 /
                  s.items[i].config.monitoring_period_s;
    ++items;
  }
  const auto ratio = [](double num, std::size_t den) {
    return den ? num / static_cast<double>(den) : 0.0;
  };
  Quality q;
  q.appro_delay_h = ratio(appro_delay, appro_rounds) / kHourS;
  q.appro_latency_min = ratio(latency, charges) / 60.0;
  q.appro_dead_min = ratio(dead, items);
  q.appro_alive_share = 1.0 - ratio(dead_share, items);
  q.baselines_delay_h = ratio(base_delay, base_rounds) / kHourS;
  return q;
}

/// Compares a sweep with the reference digest; reports a mismatch.
bool same_digest(std::uint64_t ref, const std::vector<Outcome>& got,
                 const char* what) {
  const std::uint64_t d = sweep_digest(got);
  if (d == ref) return true;
  std::printf("DIGEST MISMATCH: %s sweep gave %016" PRIx64 "\n", what, d);
  return false;
}

/// The --trace=1 run: one traced pass for the per-layer split, then
/// untraced serial, obs-on serial and parallel sweeps alternating until
/// the time is up, for the tracing overhead and the pool efficiency.
std::vector<Metric> per_layer_metrics(const Options& opt, const Setup& setup,
                                      std::uint64_t ref_digest,
                                      const Quality& q, std::size_t failed,
                                      std::size_t attempted,
                                      double make_instance_s, bool& correct) {
  const TracedPass p = traced_pass(setup);
  correct &= same_digest(ref_digest, p.outcomes, "traced");
  correct &= p.replay_matches;

  std::vector<double> off_s, on_s, par_s;
  const auto start = Clock::now();
  while (off_s.size() < 2 || seconds_since(start) < opt.seconds) {
    auto t0 = Clock::now();
    correct &= same_digest(ref_digest, run_sweep(setup, 1), "serial");
    off_s.push_back(seconds_since(t0));
    obs::set_enabled(true);
    t0 = Clock::now();
    correct &= same_digest(ref_digest, run_sweep(setup, 1), "obs-on serial");
    on_s.push_back(seconds_since(t0));
    obs::set_enabled(false);
    t0 = Clock::now();
    correct &=
        same_digest(ref_digest, run_sweep(setup, opt.threads), "parallel");
    par_s.push_back(seconds_since(t0));
  }
  print_distribution("untraced_s", "s", off_s);
  print_distribution("obs_on_s", "s", on_s);
  print_distribution("sweep_par_s", "s", par_s);

  const auto find = [&](const char* name) -> const obs::MetricSnapshot* {
    const auto it = p.obs.find(name);
    return it == p.obs.end() ? nullptr : &it->second;
  };
  const auto span_s = [&](const char* name) {
    const auto* m = find(name);
    return m ? m->total_s : 0.0;
  };
  const auto span_count = [&](const char* name) {
    const auto* m = find(name);
    return m ? static_cast<double>(m->count) : 0.0;
  };
  const auto counter = [&](const char* name) {
    const auto* m = find(name);
    return m ? static_cast<double>(m->value) : 0.0;
  };
  const auto count = [](std::size_t n) { return static_cast<double>(n); };
  const auto per_us = [](double s, std::size_t n) {
    return n ? s / static_cast<double>(n) * 1e6 : 0.0;
  };

  std::vector<Metric> metrics;
  double plan_busy = 0.0;
  std::vector<double> batches;
  for (std::size_t a = 0; a < kNumSchedulers; ++a) {
    const std::string key = std::string("plan.") + kSchedulerKeys[a];
    std::vector<double> us;
    double busy = 0.0;
    for (const PlanCall& c : p.calls[a]) {
      us.push_back(c.seconds * 1e6);
      busy += c.seconds;
      batches.push_back(static_cast<double>(c.batch));
    }
    plan_busy += busy;
    const Distribution d = distribution(std::move(us));
    metrics.push_back({key + ".calls", count(p.calls[a].size()), "count"});
    metrics.push_back({key + ".busy_s", busy, "s"});
    metrics.push_back({key + ".us_p50", d.p50, "us"});
    metrics.push_back({key + ".us_tail", d.tail, "us"});
    metrics.push_back({key + ".tail_pct", d.tail_pct, "%"});
    metrics.push_back({key + ".samples", count(d.samples), "count"});
  }
  const auto share_le = [&](double limit) {
    const auto k = std::count_if(batches.begin(), batches.end(),
                                 [&](double b) { return b <= limit; });
    return static_cast<double>(k) / static_cast<double>(batches.size());
  };
  double batch_sum = 0.0;
  for (double b : batches) batch_sum += b;

  const std::size_t rounds = count_rounds(p.outcomes);
  const double sim_self = p.sim_wall_s - plan_busy;
  const double crossing = span_s("sim.crossing_scan");
  const double select = span_s("sim.select_scan");
  const ReplayTotals& rp = p.replay;
  std::size_t breakdowns = 0, recovered = 0, deferred = 0, aborts = 0;
  for (const Outcome& o : p.outcomes) {
    breakdowns += o.breakdowns;
    recovered += o.recovered;
    deferred += o.deferred;
    aborts += o.energy_aborts;
  }
  const double off = median(off_s);
  std::printf("traced pass: simulate %.4f s = plan %.4f s + sim self %.4f s; "
              "%zu rounds replayed\n",
              p.sim_wall_s, plan_busy, sim_self,
              rp.plain_rounds + rp.faulty_rounds);

  const std::vector<Metric> layer = {
      {"sim.wall_s", p.sim_wall_s, "s"},
      {"plan.busy_s", plan_busy, "s"},
      {"sim.self_s", sim_self, "s"},
      {"sim.self_us_per_round", per_us(sim_self, rounds), "us"},
      {"sim.crossing_scan_s", crossing, "s"},
      {"sim.select_scan_s", select, "s"},
      {"sim.rest_s",
       sim_self - crossing - select - rp.execute_s - rp.recover_s -
           rp.verify_s,
       "s"},
      {"plan.batch_calls", count(batches.size()), "count"},
      {"plan.batch_mean", batch_sum / count(batches.size()), "sensors"},
      {"plan.batch_le1_share", share_le(1), "ratio"},
      {"plan.batch_le4_share", share_le(4), "ratio"},
      {"plan.batch_le16_share", share_le(16), "ratio"},
      {"plan.batch_le256_share", share_le(256), "ratio"},
      {"plan.batch_gt256_share", 1.0 - share_le(256), "ratio"},
      {"appro.k_tours_s", span_s("appro.k_tours"), "s"},
      {"appro.charging_graph_mis_s", span_s("appro.charging_graph_mis"), "s"},
      {"appro.overlap_graph_s", span_s("appro.overlap_graph"), "s"},
      {"appro.insertion_s", span_s("appro.insertion"), "s"},
      {"appro.h_mis_s", span_s("appro.h_mis"), "s"},
      {"appro.travel_cache_s", span_s("appro.travel_cache"), "s"},
      {"appro.dead_min", q.appro_dead_min, "min/sensor"},
      {"appro.latency_min", q.appro_latency_min, "min"},
      {"blossom.calls", span_count("blossom.solve"), "count"},
      {"blossom.solve_s", span_s("blossom.solve"), "s"},
      {"blossom.price_scan_s", span_s("blossom.price_scan"), "s"},
      {"blossom.rounds", counter("blossom.rounds"), "count"},
      {"blossom.edges_added", counter("blossom.edges_added"), "count"},
      {"schedule.execute_s", rp.execute_s, "s"},
      {"schedule.execute_us_mean", per_us(rp.execute_s, rp.plain_rounds),
       "us"},
      {"schedule.verify_s", rp.verify_s, "s"},
      {"schedule.verify_us_mean", per_us(rp.verify_s, rounds), "us"},
      {"exec.multinode_s", span_s("exec.multinode"), "s"},
      {"exec.one_to_one_s", span_s("exec.one_to_one"), "s"},
      {"core.recover_s", rp.recover_s, "s"},
      {"core.recover_us_mean", per_us(rp.recover_s, rp.faulty_rounds), "us"},
      {"core.faulty_rounds", count(rp.faulty_rounds), "count"},
      {"core.breakdowns", count(breakdowns), "count"},
      {"core.recovered", count(recovered), "count"},
      {"core.deferred", count(deferred), "count"},
      {"core.energy_aborts", count(aborts), "count"},
      {"failed_rounds", count(failed), "count"},
      {"failed_round_share", count(failed) / count(attempted), "ratio"},
      {"model.make_instance_s", make_instance_s, "s"},
      {"pool.efficiency",
       off / (static_cast<double>(opt.threads) * median(par_s)), "ratio"},
      {"obs.overhead_pct", (median(on_s) / off - 1.0) * 100.0, "%"},
  };
  metrics.insert(metrics.begin(), layer.begin(), layer.end());
  return metrics;
}

int run(const Options& opt) {
  const WorkloadSpec& w = opt.workload;
  bool correct = true;

  // Set-up is timed 7 times here and once more after every timed sweep
  // pair below, so that its median spans the same stretch of time as the
  // sweeps' medians. The first one is kept for the sweeps.
  std::vector<double> setup_s, make_instance_s;
  const auto time_setup = [&] {
    const auto t0 = Clock::now();
    Setup s = make_setup(w, opt.seed);
    setup_s.push_back(seconds_since(t0));
    make_instance_s.push_back(s.make_instance_s);
    return s;
  };
  const Setup setup = time_setup();
  while (setup_s.size() < 7) time_setup();
  std::printf("workload %s: n=%zu, K in {", w.name.c_str(), w.n);
  for (std::size_t i = 0; i < w.chargers.size(); ++i) {
    std::printf("%s%zu", i ? "," : "", w.chargers[i]);
  }
  std::printf("}, %zu instance(s) per K, %g months, %zu legs, %zu items, "
              "seed %" PRIu64 ", %zu threads\n",
              w.instances, w.months, w.legs.size(), setup.items.size(),
              opt.seed, opt.threads);

  // Warm-up sweep, serial: the reference digest and the simulated metrics.
  // Peak memory is taken per item (the mark is reset before each) and
  // reported as the median over items: the footprint of one simulation,
  // which the largest batch of a single item does not swing.
  std::vector<Outcome> ref;
  std::vector<double> item_peak_mib;
  for (const Item& item : setup.items) {
    if (!reset_peak_rss()) {
      std::fprintf(stderr, "cannot reset the peak RSS mark\n");
      return 2;
    }
    ref.push_back(Outcome::of(sim::simulate(
        *item.instance, *setup.schedulers[item.scheduler], item.config)));
    item_peak_mib.push_back(peak_rss_mib());
  }
  print_distribution("item_peak_mb", "MiB", item_peak_mib);
  const double peak_rss_mb = median(item_peak_mib);
  const std::uint64_t ref_digest = sweep_digest(ref);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    std::printf("item %3zu %-32s %s\n", i, setup.items[i].label.c_str(),
                ref[i].digest().c_str());
  }
  std::printf("sweep digest %016" PRIx64 "\n", ref_digest);
  const std::size_t attempted = count_rounds(ref);
  const std::size_t failed = std::min(attempted, count_failures(ref));
  std::size_t capped = 0;
  for (const Outcome& o : ref) capped += o.capped ? 1 : 0;
  std::printf("rounds attempted %zu, failed %zu (verifier violations %zu, "
              "runs cut at max_rounds %zu)\n",
              attempted, failed, failed - capped, capped);
  const Quality q = quality(setup, ref);

  std::vector<Metric> metrics;
  if (!opt.trace) {
    // Alternating serial / parallel sweeps until the time is up.
    std::vector<double> serial_s, par_s, item_s;
    const auto start = Clock::now();
    while (serial_s.size() < 3 || seconds_since(start) < opt.seconds) {
      std::vector<double> items;
      auto t0 = Clock::now();
      correct &= same_digest(ref_digest, run_sweep(setup, 1, &items), "serial");
      serial_s.push_back(seconds_since(t0));
      item_s.insert(item_s.end(), items.begin(), items.end());
      t0 = Clock::now();
      correct &=
          same_digest(ref_digest, run_sweep(setup, opt.threads), "parallel");
      par_s.push_back(seconds_since(t0));
      time_setup();
    }
    print_distribution("sweep_s", "s", serial_s);
    print_distribution("sweep_par_s", "s", par_s);
    print_distribution("item_s", "s", item_s);
    print_distribution("setup_s", "s", setup_s);

    const double sweep = median(serial_s);
    metrics = {
        {"sweep_s", sweep, "s"},
        {"rounds_per_s", static_cast<double>(attempted) / sweep, "1/s"},
        {"sweep_par_s", median(par_s), "s"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb, "MiB"},
        {"appro_delay_h", q.appro_delay_h, "h"},
        {"appro_alive_share", q.appro_alive_share, "ratio"},
        {"baselines_delay_h", q.baselines_delay_h, "h"},
        {"verified_round_share",
         1.0 - static_cast<double>(failed) / static_cast<double>(attempted),
         "ratio"},
    };
    for (const Metric& m : metrics) {
      if (!(std::isfinite(m.value) && m.value > 0.0)) {
        std::printf("metric %s is %g, expected a positive number\n",
                    m.name.c_str(), m.value);
        correct = false;
      }
    }
  } else {
    metrics = per_layer_metrics(opt, setup, ref_digest, q, failed, attempted,
                                median(make_instance_s), correct);
  }

  print_result(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const mcharge::CliFlags flags(argc, argv);
  Options opt;
  const std::string workload = flags.get("workload", "");
  if (!make_workload(workload, flags.get_int("smoke", 0) != 0,
                     &opt.workload)) {
    std::fprintf(stderr, "unknown --workload=%s\n", workload.c_str());
    return 2;
  }
  opt.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  opt.seconds = flags.get_double("seconds", 10.0);
  opt.trace = flags.get_int("trace", 0) != 0;
  opt.threads = std::min<std::size_t>(4, mcharge::default_jobs());
  return run(opt);
}
