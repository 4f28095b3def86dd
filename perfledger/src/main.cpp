// perf_ledger: host-time benchmark of the simulator.
//
//   perf_ledger --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//               [--spans PATH]
//   perf_ledger --print-digests
//
// Prints a table per workload, then, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics": {name: {"value",
// "unit"}}}.  --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer metrics.  --workload all runs the four workloads in this one
// process and prefixes each metric with its workload (there peak_rss_mib is
// the process high-water mark so far).  Exit status: 0 when
// the measurement completed (correctness is the "correct" field), 2 on a
// usage error, 1 if the benchmark itself failed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace {

using namespace perfledger;

int usage(const std::string& why) {
  std::fprintf(stderr,
               "perf_ledger: %s\n"
               "usage: perf_ledger --workload <halo_131k|collectives_131k|"
               "halo_profiled_32k|scenario_sweep|all> [--seed N] "
               "[--seconds S] [--trace 0|1] [--spans PATH]\n"
               "       perf_ledger --print-digests\n",
               why.c_str());
  return 2;
}

void printReport(const Report& rep, const RunOptions& o) {
  std::printf("== perfledger %s  seed=%llu  seconds=%g  trace=%d\n",
              rep.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0);
  std::printf("  %-28s %-22s %-6s %-9s %s\n", "metric", "value", "unit", "n",
              "note");
  for (const Metric& m : rep.metrics)
    std::printf("  %-28s %-22.10g %-6s %-9zu %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples, m.note.c_str());
  std::printf("  runs: %llu attempted, %llu failed (error_rate %g)\n",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed),
              rep.attempted ? static_cast<double>(rep.failed) /
                                  static_cast<double>(rep.attempted)
                            : 0.0);
  for (const std::string& f : rep.failures)
    std::printf("  FAILED %s\n", f.c_str());
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void printJson(const std::vector<Report>& reports, bool prefix) {
  std::uint64_t attempted = 0, failed = 0;
  std::string metrics;
  for (const Report& rep : reports) {
    attempted += rep.attempted;
    failed += rep.failed;
    for (const Metric& m : rep.metrics) {
      char value[64];
      std::snprintf(value, sizeof value, "%.17g",
                    std::isfinite(m.value) ? m.value : 0.0);
      if (!metrics.empty()) metrics += ", ";
      metrics += jsonString(prefix ? rep.workload + "." + m.name : m.name) +
                 ": {\"value\": " + value +
                 ", \"unit\": " + jsonString(m.unit) + "}";
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              failed == 0 && attempted > 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
}

/// Runs every world once with the default seed and prints the digest
/// table expected_digests.hpp holds.
int printDigests() {
  for (const std::string& workload : workloadNames())
    for (const WorldSpec& spec : worldsOf(workload)) {
      const WorldRun w = runWorld(spec, kDefaultSeed, false);
      for (const std::string& f : w.failures)
        std::fprintf(stderr, "%s: %s\n", spec.name.c_str(), f.c_str());
      std::printf("    {\"%s\",\n     \"%s\"},\n", spec.name.c_str(),
                  formatDigest(w.digest).c_str());
    }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions o;
  bool spansGiven = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--print-digests") return printDigests();
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
        if (!(o.seconds > 0.0 && o.seconds <= 600.0))
          return usage("--seconds must be in (0, 600]");
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace is 0 or 1");
        o.trace = value == "1";
      } else if (flag == "--spans") {
        o.spansPath = value;
        spansGiven = true;
      } else {
        return usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + flag + ": " + value);
    }
  }
  if (o.workload.empty()) return usage("--workload is required");

  std::vector<std::string> names = {o.workload};
  if (o.workload == "all") {
    names = workloadNames();
  } else {
    bool known = false;
    for (const std::string& n : workloadNames()) known |= n == o.workload;
    if (!known) return usage("unknown workload " + o.workload);
  }

  // scenario_sweep runs on at most nproc threads: nproc - 1 pool workers
  // plus the calling thread, which joins in (unless BGP_THREADS is set).
  if (!std::getenv("BGP_THREADS")) {
    const unsigned hw = std::thread::hardware_concurrency();
    setenv("BGP_THREADS", std::to_string(hw > 1 ? hw - 1 : 1).c_str(), 0);
  }

  try {
    std::vector<Report> reports;
    for (const std::string& name : names) {
      RunOptions w = o;
      w.workload = name;
      if (o.trace && !spansGiven)
        w.spansPath = ".bench_build/perfledger/spans-" + name + ".bin";
      else if (spansGiven && names.size() > 1)
        w.spansPath = o.spansPath + "." + name;
      reports.push_back(runWorkload(w));
      printReport(reports.back(), w);
      std::fflush(stdout);
    }
    printJson(reports, names.size() > 1);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_ledger: %s\n", e.what());
    return 1;
  }
  return 0;
}
