// Reproduces Fig. 3 of the paper: the five algorithms as the network size
// n sweeps 200..1200 with K = 2 mobile chargers.
//   (a) average longest tour duration;  (b) average dead duration/sensor.
//
// Extra flags: --nmin=200 --nmax=1200 --nstep=200 --chargers=2
#include "figure_common.h"
#include "trace_common.h"

int main(int argc, char** argv) {
  using namespace mcharge;
  const CliFlags flags(argc, argv);
  const auto settings = bench::SweepSettings::from_flags(
      flags, {{"nmin", FlagKind::kCount},
              {"nmax", FlagKind::kCount},
              {"nstep", FlagKind::kCount},
              {"chargers", FlagKind::kCount}});
  const bench::TraceOutput trace(flags);
  const auto n_min = static_cast<std::size_t>(flags.get_int("nmin", 200));
  const auto n_max = static_cast<std::size_t>(flags.get_int("nmax", 1200));
  const auto n_step = static_cast<std::size_t>(flags.get_int("nstep", 200));
  const auto k = static_cast<std::size_t>(flags.get_int("chargers", 2));

  bench::FigureSweep sweep("Fig. 3", "n", settings);
  for (std::size_t n = n_min; n <= n_max; n += n_step) {
    std::fprintf(stderr, "fig3: n = %zu ...\n", n);
    model::NetworkConfig config;
    config.num_chargers = k;
    sweep.add_point(std::to_string(n), [&](Rng& rng) {
      return model::make_instance(config, n, rng, settings.layout);
    });
  }
  return sweep.finish();
}
