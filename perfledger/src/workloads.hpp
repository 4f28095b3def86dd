#pragma once
// The four benchmark workloads and the measurement of one invocation.

#include <cstdint>
#include <string>
#include <vector>

#include "worlds.hpp"

namespace perfledger {

/// The Simulation's own default seed: the pinned digests were recorded
/// with it.
inline constexpr std::uint64_t kDefaultSeed = 0x5eed;

/// halo_131k, collectives_131k, halo_profiled_32k, scenario_sweep.
const std::vector<std::string>& workloadNames();

/// The worlds a workload runs, in canonical order (scenario_sweep's order
/// is permuted by the seed before it is submitted to the pool).
std::vector<WorldSpec> worldsOf(const std::string& workload);

/// scenario_sweep's submission order: a permutation of [0, n) drawn
/// from the seed.
std::vector<std::size_t> sweepOrder(std::size_t n, std::uint64_t seed);

/// The pinned digest of `world` (expected_digests.hpp), or null.
const char* pinnedDigest(const std::string& world);

/// Empty if `digest` equals the pinned digest of `world`, else a message.
std::string checkDigest(const std::string& world, const Digest& digest);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  std::string note;
};

struct Report {
  std::string workload;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few, for the log
  std::vector<Metric> metrics;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced invocation writes its spans ("" = nowhere).
  std::string spansPath;
};

/// Untraced: the end-to-end metrics (setup_s, run_s, mpi_ops_per_s,
/// peak_rss_mib).  Traced: the per-layer metrics.  Both check every run.
/// peak_rss_mib is the process's high-water mark, so it is the workload's
/// own only when the workload is the first run in the process: the
/// library's thread arenas keep their chunks for the thread's lifetime.
Report runWorkload(const RunOptions& options);

}  // namespace perfledger
