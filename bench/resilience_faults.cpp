// Resilience study: how the paper's application benchmarks degrade under
// injected faults.  Sweeps the fault-plane knobs (link bandwidth
// degradation, transient link outages, node stragglers, OS noise) over
// the POP and S3D proxies and reports the slowdown relative to the
// zero-fault run — the recovery overhead the retry/backoff machinery and
// the applications' own slack absorb.
//
// Every schedule is seeded (--seed N, default 42): identical invocations
// produce identical output, and the harness re-runs one faulted
// configuration to prove it.

#include <cstdlib>
#include <iostream>

#include "apps/pop.hpp"
#include "apps/s3d.hpp"
#include "arch/machines.hpp"
#include "bench/bench_common.hpp"

using bgp::apps::PopConfig;
using bgp::apps::S3dConfig;
using bgp::sim::FaultConfig;

namespace {

// One day of tenth-degree POP on a modest partition.
double popSecondsPerDay(const FaultConfig& faults, int nranks) {
  PopConfig c{bgp::arch::machineByName("BG/P"), nranks};
  c.faults = faults;
  return bgp::apps::runPop(c).secondsPerDay;
}

// A few steps of event-level S3D ghost exchange.
double s3dSecondsPerStep(const FaultConfig& faults, int nranks) {
  S3dConfig c{bgp::arch::machineByName("BG/P"), nranks};
  c.steps = 3;
  c.faults = faults;
  return bgp::apps::runS3d(c).secondsPerStep;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bgp;
  const auto opts = bench::BenchOptions::parse(argc, argv);
  const Cli cli(argc, argv);
  const auto seed = static_cast<std::uint64_t>(cli.getInt("seed", 42));
  const int popRanks = opts.full ? 2000 : 256;
  const int s3dRanks = opts.full ? 512 : 64;

  FaultConfig base;
  base.seed = seed;

  const double popClean = popSecondsPerDay(base, popRanks);
  const double s3dClean = s3dSecondsPerStep(base, s3dRanks);
  bench::note("zero-fault baselines: POP " + std::to_string(popClean) +
              " s/day (" + std::to_string(popRanks) + " ranks), S3D " +
              std::to_string(s3dClean) + " s/step (" +
              std::to_string(s3dRanks) + " ranks)");

  // Where the fault-induced slowdown goes, via the observability plane's
  // per-rank breakdown (compute / p2p blocked / collective blocked summed
  // over ranks) instead of hand-rolled per-app timers.  Profiling hooks
  // observe without scheduling, so the s/step numbers are unchanged.
  {
    const auto breakdown = [&](const FaultConfig& fc) {
      smpi::ObserverScope scope(smpi::ObserverScope::Attach::Profile);
      s3dSecondsPerStep(fc, s3dRanks);
      for (const auto& prof : scope.profilers())
        if (prof->finalized()) return prof->profile();
      return obs::RunProfile{};
    };
    FaultConfig faulted = base;
    faulted.stragglerFraction = 0.05;
    const obs::RunProfile clean = breakdown(base);
    const obs::RunProfile slow = breakdown(faulted);
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "S3D rank-time breakdown, clean: compute %.3f s, p2p "
                  "blocked %.3f s, coll blocked %.3f s",
                  clean.computeTotal, clean.p2pBlockedTotal,
                  clean.collBlockedTotal);
    bench::note(buf);
    std::snprintf(buf, sizeof buf,
                  "S3D rank-time breakdown, 5%% stragglers: compute %.3f s, "
                  "p2p blocked %.3f s, coll blocked %.3f s",
                  slow.computeTotal, slow.p2pBlockedTotal,
                  slow.collBlockedTotal);
    bench::note(buf);
  }

  const std::vector<double> fractions =
      opts.full ? std::vector<double>{0.01, 0.02, 0.05, 0.1, 0.2}
                : std::vector<double>{0.02, 0.1};
  {
    core::Figure fig(
        "Resilience: link bandwidth degradation (faulty links at 50% BW)",
        "fraction of links degraded", "slowdown vs zero-fault");
    core::sweep(fig.addSeries("POP"), fractions, [&](double f) {
      FaultConfig fc = base;
      fc.linkDegradeFraction = f;
      return popSecondsPerDay(fc, popRanks) / popClean;
    });
    core::sweep(fig.addSeries("S3D"), fractions, [&](double f) {
      FaultConfig fc = base;
      fc.linkDegradeFraction = f;
      return s3dSecondsPerStep(fc, s3dRanks) / s3dClean;
    });
    bench::emit(fig, opts, "%.4f");
  }

  const std::vector<double> outageRates =
      opts.full ? std::vector<double>{0.01, 0.1, 1.0, 10.0}
                : std::vector<double>{0.1, 1.0};
  {
    core::Figure fig(
        "Resilience: transient link outages (1 ms mean, retry w/ backoff)",
        "outages per link-second", "slowdown vs zero-fault");
    core::sweep(fig.addSeries("POP"), outageRates, [&](double r) {
      FaultConfig fc = base;
      fc.linkOutagesPerSecond = r;
      return popSecondsPerDay(fc, popRanks) / popClean;
    });
    core::sweep(fig.addSeries("S3D"), outageRates, [&](double r) {
      FaultConfig fc = base;
      fc.linkOutagesPerSecond = r;
      return s3dSecondsPerStep(fc, s3dRanks) / s3dClean;
    });
    bench::emit(fig, opts, "%.4f");
  }

  {
    core::Figure fig("Resilience: node stragglers (1.5x slower compute)",
                     "fraction of straggler nodes",
                     "slowdown vs zero-fault");
    core::sweep(fig.addSeries("POP"), fractions, [&](double f) {
      FaultConfig fc = base;
      fc.stragglerFraction = f;
      return popSecondsPerDay(fc, popRanks) / popClean;
    });
    core::sweep(fig.addSeries("S3D"), fractions, [&](double f) {
      FaultConfig fc = base;
      fc.stragglerFraction = f;
      return s3dSecondsPerStep(fc, s3dRanks) / s3dClean;
    });
    bench::emit(fig, opts, "%.4f");
  }

  const std::vector<double> noise =
      opts.full ? std::vector<double>{0.001, 0.005, 0.01, 0.05}
                : std::vector<double>{0.005, 0.05};
  {
    core::Figure fig(
        "Resilience: injected OS noise (vs the paper's noiseless CNK)",
        "noise fraction", "slowdown vs zero-fault");
    core::sweep(fig.addSeries("POP"), noise, [&](double f) {
      FaultConfig fc = base;
      fc.osNoiseFraction = f;
      return popSecondsPerDay(fc, popRanks) / popClean;
    });
    core::sweep(fig.addSeries("S3D"), noise, [&](double f) {
      FaultConfig fc = base;
      fc.osNoiseFraction = f;
      return s3dSecondsPerStep(fc, s3dRanks) / s3dClean;
    });
    bench::emit(fig, opts, "%.4f");
  }

  // Determinism self-check: the same seed must reproduce the same faulted
  // timing bit-for-bit.
  {
    FaultConfig fc = base;
    fc.linkDegradeFraction = 0.1;
    fc.linkOutagesPerSecond = 1.0;
    fc.stragglerFraction = 0.05;
    const double a = s3dSecondsPerStep(fc, s3dRanks);
    const double b = s3dSecondsPerStep(fc, s3dRanks);
    if (a != b) {
      std::cerr << "FAULT SCHEDULE NOT REPRODUCIBLE: " << a << " vs " << b
                << " (seed " << seed << ")\n";
      return EXIT_FAILURE;
    }
    bench::note("reproducibility: identical faulted reruns with seed " +
                std::to_string(seed));
  }
  return EXIT_SUCCESS;
}
