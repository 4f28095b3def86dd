#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <stdexcept>

#include "core/evaluation.hpp"
#include "expected_digests.hpp"
#include "replay.hpp"
#include "stats.hpp"
#include "support/arena.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace perfledger {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;
/// setup_s is the median of at least this many constructions.
constexpr std::size_t kMinSetups = 25;
/// scenario_sweep submits its 22 worlds this many times per pooled run,
/// so one run lasts about a second and the pool's tail (the last long
/// world finishing alone) is a small part of it.
constexpr std::size_t kSweepCopies = 8;

double secondsSince(std::int64_t t0) {
  return static_cast<double>(nowNs() - t0) * 1e-9;
}

/// Calls `fn` at least `minReps` times, then again while another call
/// (as long as the slowest so far) still ends within `seconds`.
void repeatFor(double seconds, int minReps, const std::function<void()>& fn) {
  const std::int64_t t0 = nowNs();
  double slowest = 0.0;
  for (int reps = 0;; ++reps) {
    const double elapsed = secondsSince(t0);
    if (reps >= minReps && elapsed + slowest > seconds) break;
    const std::int64_t c0 = nowNs();
    fn();
    slowest = std::max(slowest, secondsSince(c0));
  }
}

WorldSpec haloWorld(std::string name, int nranks, int rows, int words,
                    int reps, std::string mapping) {
  WorldSpec s;
  s.name = std::move(name);
  s.program = Program::Halo;
  s.nranks = nranks;
  s.mapping = std::move(mapping);
  s.halo = HaloParams{rows, nranks / rows, words, reps};
  return s;
}

/// scale_ranks' near-square grid: 2^(floor(log2 n) / 2) rows.
int squareRows(int nranks) {
  return 1 << (static_cast<int>(std::log2(nranks)) / 2);
}

std::vector<WorldSpec> sweepWorlds() {
  std::vector<WorldSpec> v;
  for (const char* mapping : {"TXYZ", "XYZT"})
    for (int nranks : {512, 1024, 2048})
      for (int words : {16, 512, 2048})
        v.push_back(haloWorld("halo-" + std::to_string(nranks) + "-w" +
                                  std::to_string(words) + "-" + mapping,
                              nranks, nranks == 512 ? 16 : 32, words, 4,
                              mapping));
  for (int gridP : {4, 8}) {
    WorldSpec s;
    s.name = "hpl-" + std::to_string(gridP) + "x8-n3840";
    s.program = Program::Hpl;
    s.nranks = gridP * 8;
    s.hpl = HplParams{3840, 96, gridP, 8, 0.0};
    v.push_back(s);
  }
  for (auto [nranks, bytes] : {std::pair{256, 512.0}, std::pair{512, 128.0}}) {
    WorldSpec s;
    s.name = "storm-" + std::to_string(nranks) + "-b" +
             std::to_string(static_cast<int>(bytes));
    s.program = Program::Storm;
    s.nranks = nranks;
    s.iters = 2;
    s.bytesPerPair = bytes;
    v.push_back(s);
  }
  return v;
}

/// Counts a run and records why it failed, if it did.
void account(Report& rep, const std::string& world, const WorldRun& w,
             std::uint64_t seed) {
  ++rep.attempted;
  std::vector<std::string> why = w.failures;
  // On BG/P the OS-noise fraction is zero, so the seed cannot move a
  // simulated time and the pinned digest holds for every seed.
  if (w.failures.empty() &&
      (seed == kDefaultSeed || bgpMachine().osNoiseFraction == 0.0)) {
    std::string d = checkDigest(world, w.digest);
    if (!d.empty()) why.push_back(std::move(d));
  }
  if (why.empty()) return;
  ++rep.failed;
  if (rep.failures.size() < 8)
    rep.failures.push_back(world + ": " + why.front());
}

/// Counts one world's layer replays as a run of their own.
void accountReplay(Report& rep, const std::string& world,
                   const std::vector<std::string>& why) {
  ++rep.attempted;
  if (why.empty()) return;
  ++rep.failed;
  if (rep.failures.size() < 8)
    rep.failures.push_back(world + " replay: " + why.front());
}

void add(Report& rep, std::string name, double value, std::string unit,
         std::size_t samples, std::string note = {}) {
  rep.metrics.push_back(Metric{std::move(name), value, std::move(unit),
                               samples, std::move(note)});
}

/// "median of n=7; max 2.41 s" — the tail is the highest percentile with
/// ten samples above it, or the maximum when there is none.
std::string timingNote(const std::vector<double>& v, const char* unit) {
  const double q = supportedPercentile(v.size());
  char buf[128];
  if (q >= 100.0 || q <= 50.0)  // p50 is the median itself: show the max
    std::snprintf(buf, sizeof buf, "median of n=%zu; max %.6g %s", v.size(),
                  percentile(v, 100.0), unit);
  else
    std::snprintf(buf, sizeof buf, "median of n=%zu; p%g %.6g %s", v.size(),
                  q, percentile(v, q), unit);
  return buf;
}

/// The end-to-end metrics shared by every workload.
void endToEnd(Report& rep, const std::vector<double>& setups,
              const std::vector<double>& runs, std::uint64_t opsPerRun) {
  const double runMedian = median(runs);
  add(rep, "setup_s", median(setups), "s", setups.size(),
      timingNote(setups, "s"));
  add(rep, "run_s", runMedian, "s", runs.size(), timingNote(runs, "s"));
  add(rep, "mpi_ops_per_s", static_cast<double>(opsPerRun) / runMedian,
      "1/s", runs.size(),
      std::to_string(opsPerRun) + " ops per run / median run_s");
}

// ---- traced-run aggregation -----------------------------------------------

/// Per-layer figures gathered from the traced worlds of one invocation.
struct Layers {
  SpanTotals totals;
  std::vector<std::int64_t> isendNs, irecvNs, joinNs;
  std::uint64_t events = 0, peakPending = 0, ops = 0;
  std::uint64_t routeHits = 0, routeMisses = 0, linkClaims = 0;
  double linkQueuedSimS = 0.0;
  double matchNsTotal = 0.0, transferNsTotal = 0.0;
  std::uint64_t matchMsgs = 0, transferMsgs = 0;

  /// Folds in one traced world and, if `replay`, replays its stream
  /// through the match table and the torus; returns the span-tree and
  /// replay outcome-check failures.
  std::vector<std::string> add(const WorldSpec& spec, const WorldRun& w,
                               std::uint64_t seed, bool replay = true) {
    std::vector<std::string> why;
    try {
      totals.add(spanTotals(w.spans));
    } catch (const std::exception& e) {
      why.push_back(std::string("span tree: ") + e.what());
    }
    appendDurations(w.spans, SpanKind::Isend, isendNs);
    appendDurations(w.spans, SpanKind::Irecv, irecvNs);
    appendDurations(w.spans, SpanKind::Join, joinNs);
    events += w.digest.events;
    peakPending = std::max(peakPending, w.peakPending);
    ops += w.ops();
    routeHits += w.routeHits;
    routeMisses += w.routeMisses;
    linkClaims += w.linkClaims;
    linkQueuedSimS += w.linkQueuedSimSeconds;
    if (!replay) return why;
    const ReplayResult m = replayMatching(w.stream, seed, w.bytesSent);
    const ReplayResult t = replayTransfers(w.stream, spec, w.bytesSent);
    matchNsTotal += m.nsPerMessage * static_cast<double>(m.messages);
    matchMsgs += m.messages;
    transferNsTotal += t.nsPerMessage * static_cast<double>(t.messages);
    transferMsgs += t.messages;
    why.insert(why.end(), m.failures.begin(), m.failures.end());
    why.insert(why.end(), t.failures.begin(), t.failures.end());
    return why;
  }
};

void spanMetric(Report& rep, const std::string& name,
                const std::vector<std::int64_t>& ns) {
  add(rep, name, median(ns), "ns", ns.size(), "median span");
  add(rep, name + ".p99", percentile(ns, 99.0), "ns", ns.size());
  add(rep, name + ".n", static_cast<double>(ns.size()), "count", ns.size());
}

/// Every per-layer metric; those a workload does not exercise read 0.
struct LayerExtras {
  double untracedRunS = 0.0;
  double tracedRunS = 0.0;
  double overheadX = 0.0;     // profiled workload only
  double exportS = 0.0;       // profiled workload only
  double poolSpeedup = 0.0;   // sweep only
  std::size_t untracedN = 0, tracedN = 0, obsN = 0, poolN = 0;
};

void perLayer(Report& rep, const Layers& l, const LayerExtras& x) {
  const double ns = 1e-9;
  add(rep, "sim.events", static_cast<double>(l.events), "count", 1);
  add(rep, "sim.peak_pending", static_cast<double>(l.peakPending), "count",
      1);
  add(rep, "sim.events_per_s", static_cast<double>(l.events) / x.untracedRunS,
      "1/s", x.untracedN, "events / untraced median run_s");
  add(rep, "sim.dispatch_self_s",
      static_cast<double>(l.totals.self(SpanKind::Run)) * ns, "s",
      l.totals.n(SpanKind::Run), "run span minus slices (and export)");
  spanMetric(rep, "smpi.isend_ns", l.isendNs);
  spanMetric(rep, "smpi.irecv_ns", l.irecvNs);
  spanMetric(rep, "smpi.coll_join_ns", l.joinNs);
  add(rep, "smpi.program_self_s",
      static_cast<double>(l.totals.self(SpanKind::Slice)) * ns, "s",
      l.totals.n(SpanKind::Slice), "slices minus isend, irecv and join spans");
  add(rep, "smpi.match_ns",
      l.matchMsgs ? l.matchNsTotal / static_cast<double>(l.matchMsgs) : 0.0,
      "ns", l.matchMsgs, "MatchTable replay, per message");
  add(rep, "smpi.ops", static_cast<double>(l.ops), "count", 1);
  add(rep, "net.route_hits", static_cast<double>(l.routeHits), "count", 1);
  add(rep, "net.route_misses", static_cast<double>(l.routeMisses), "count",
      1);
  const std::uint64_t lookups = l.routeHits + l.routeMisses;
  add(rep, "net.route_hit_rate",
      lookups ? static_cast<double>(l.routeHits) /
                    static_cast<double>(lookups)
              : 0.0,
      "ratio", lookups);
  add(rep, "net.transfer_ns",
      l.transferMsgs ? l.transferNsTotal / static_cast<double>(l.transferMsgs)
                     : 0.0,
      "ns", l.transferMsgs, "TorusNetwork::transfer replay, per message");
  add(rep, "net.link_claims", static_cast<double>(l.linkClaims), "count", 1);
  add(rep, "net.link_queued_sim_s", l.linkQueuedSimS, "s", l.linkClaims,
      "simulated seconds of contention");
  add(rep, "obs.overhead_x", x.overheadX, "ratio", x.obsN,
      x.obsN ? "profiled / unprofiled median run_s" : "not profiled");
  add(rep, "obs.export_s", x.exportS, "s", x.obsN,
      x.obsN ? "median obs::writeJson" : "not profiled");
  add(rep, "support.arena_reserved_mib",
      static_cast<double>(bgp::support::threadArena().reservedBytes()) / kMiB,
      "MiB", 1, "calling thread's arena");
  add(rep, "support.pool_speedup", x.poolSpeedup, "ratio", x.poolN,
      x.poolN ? "serial / pooled median sweep wall" : "no pool");
  add(rep, "trace.overhead_s", x.tracedRunS - x.untracedRunS, "s", x.tracedN,
      "traced minus untraced median run_s");
  add(rep, "error_rate",
      rep.attempted ? static_cast<double>(rep.failed) /
                          static_cast<double>(rep.attempted)
                    : 0.0,
      "ratio", rep.attempted, "failed / attempted runs");
}

void writeSpanFile(const std::string& path, const std::string& workload,
                   const std::vector<std::pair<std::string,
                                               const std::vector<Span>*>>&
                       worlds) {
  if (path.empty()) return;
  const std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  std::ofstream os(p, std::ios::binary);
  os << "perfledger-spans/1 " << workload << ' ' << worlds.size() << '\n';
  for (const auto& [name, spans] : worlds) writeSpans(os, name, *spans);
  if (!os) throw std::runtime_error("cannot write spans to " + path);
}

// ---- single-world workloads -----------------------------------------------

Report runSingle(const RunOptions& o, const std::vector<WorldSpec>& worlds) {
  Report rep;
  rep.workload = o.workload;
  const WorldSpec& spec = worlds.front();
  std::vector<double> setups, runs;
  std::vector<double> exports;

  if (!o.trace) {
    while (setups.size() < kMinSetups)
      setups.push_back(setupOnly(spec, o.seed));
    std::uint64_t ops = 0;
    repeatFor(o.seconds, 1, [&] {
      const WorldRun w = runWorld(spec, o.seed, false);
      account(rep, spec.name, w, o.seed);
      runs.push_back(w.runSeconds);
      ops = w.ops();
    });
    endToEnd(rep, setups, runs, ops);
    return rep;
  }

  // Traced invocation: untraced baseline, then traced worlds, then (for
  // the profiled workload) the same world unprofiled.
  const double share = o.seconds / (spec.profile ? 3.0 : 2.0);
  repeatFor(share, 1, [&] {
    const WorldRun w = runWorld(spec, o.seed, false);
    account(rep, spec.name, w, o.seed);
    runs.push_back(w.runSeconds);
    exports.push_back(w.exportSeconds);
  });
  std::vector<double> traced;
  WorldRun last;
  repeatFor(share, 1, [&] {
    WorldRun w = runWorld(spec, o.seed, true);
    account(rep, spec.name, w, o.seed);
    traced.push_back(w.runSeconds);
    last = std::move(w);
  });
  Layers layers;
  accountReplay(rep, spec.name, layers.add(spec, last, o.seed));

  LayerExtras x;
  x.untracedRunS = median(runs);
  x.untracedN = runs.size();
  x.tracedRunS = median(traced);
  x.tracedN = traced.size();
  if (spec.profile) {
    WorldSpec plain = spec;
    plain.profile = false;
    plain.name = worlds.at(1).name;
    std::vector<double> plainRuns;
    repeatFor(share, 3, [&] {
      const WorldRun w = runWorld(plain, o.seed, false);
      account(rep, plain.name, w, o.seed);
      plainRuns.push_back(w.runSeconds);
    });
    x.overheadX = x.untracedRunS / median(plainRuns);
    x.exportS = median(exports);
    x.obsN = runs.size();
  }
  perLayer(rep, layers, x);
  writeSpanFile(o.spansPath, o.workload, {{spec.name, &last.spans}});
  return rep;
}

// ---- scenario_sweep -------------------------------------------------------

Report runSweep(const RunOptions& o, const std::vector<WorldSpec>& canonical) {
  Report rep;
  rep.workload = o.workload;
  const std::vector<std::size_t> order = sweepOrder(canonical.size(), o.seed);
  std::vector<WorldSpec> worlds;
  for (std::size_t copy = 0; copy < kSweepCopies; ++copy)
    for (std::size_t i : order) worlds.push_back(canonical[i]);
  const std::size_t distinct = canonical.size();

  // One pass over the permuted list, repeated; pooled through
  // core::parallelMap or serially on the calling thread.  Returns the
  // pass's wall seconds.
  auto pass = [&](bool pooled, bool traced, std::vector<WorldRun>& out) {
    const std::int64_t t0 = nowNs();
    if (pooled) {
      out = bgp::core::parallelMap<WorldRun>(worlds.size(), [&](std::size_t i) {
        return runWorld(worlds[i], o.seed, traced);
      });
    } else {
      out.clear();
      for (const WorldSpec& w : worlds)
        out.push_back(runWorld(w, o.seed, traced));
    }
    const double wall = secondsSince(t0);
    for (std::size_t i = 0; i < worlds.size(); ++i)
      account(rep, worlds[i].name, out[i], o.seed);
    return wall;
  };
  auto setupPass = [&] {  // one copy of the list, serially
    double s = 0.0;
    for (std::size_t i = 0; i < distinct; ++i)
      s += setupOnly(worlds[i], o.seed);
    return s;
  };

  std::vector<double> setups, runs;
  std::vector<WorldRun> out;
  if (!o.trace) {
    while (setups.size() < kMinSetups) setups.push_back(setupPass());
    std::uint64_t ops = 0;
    repeatFor(o.seconds, 1, [&] {
      runs.push_back(pass(true, false, out));
      ops = 0;
      for (const WorldRun& w : out) ops += w.ops();
    });
    endToEnd(rep, setups, runs, ops);
    return rep;
  }

  // Traced invocation: one warm-up pass (starts the pool, grows the
  // arenas), serial and pooled untraced passes alternating so neither side
  // gets the remaining warm-up, then traced pooled passes.
  pass(true, false, out);
  std::vector<double> serial;
  repeatFor(o.seconds / 2.0, 2, [&] {
    serial.push_back(pass(false, false, out));
    runs.push_back(pass(true, false, out));
  });
  std::vector<double> traced;
  repeatFor(o.seconds / 2.0, 1,
            [&] { traced.push_back(pass(true, true, out)); });
  // Counters and spans from every world of the last traced pass; the
  // replays and the span file from its first copy of the list.
  Layers layers;
  std::vector<std::pair<std::string, const std::vector<Span>*>> spanWorlds;
  for (std::size_t i = 0; i < worlds.size(); ++i) {
    const bool first = i < distinct;
    std::vector<std::string> why = layers.add(worlds[i], out[i], o.seed, first);
    if (first) {
      accountReplay(rep, worlds[i].name, why);
      spanWorlds.emplace_back(worlds[i].name, &out[i].spans);
    } else if (!why.empty()) {
      ++rep.failed;  // its broken span tree fails a run already counted
      rep.failures.push_back(worlds[i].name + ": " + why.front());
    }
  }
  LayerExtras x;
  x.untracedRunS = median(runs);
  x.untracedN = runs.size();
  x.tracedRunS = median(traced);
  x.tracedN = traced.size();
  x.poolSpeedup = median(serial) / x.untracedRunS;
  x.poolN = serial.size();
  perLayer(rep, layers, x);
  writeSpanFile(o.spansPath, o.workload, spanWorlds);
  return rep;
}

}  // namespace

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names = {
      "halo_131k", "collectives_131k", "halo_profiled_32k", "scenario_sweep"};
  return names;
}

std::vector<WorldSpec> worldsOf(const std::string& workload) {
  if (workload == "halo_131k")
    return {haloWorld("halo-131072", 131072, squareRows(131072), 512, 2,
                      "TXYZ")};
  if (workload == "collectives_131k") {
    WorldSpec s;
    s.name = "coll-131072";
    s.program = Program::Collectives;
    s.nranks = 131072;
    s.iters = 8;
    return {s};
  }
  if (workload == "halo_profiled_32k") {
    // The profiled world, then the same world unprofiled (for
    // obs.overhead_x); both are pinned to the same simulated digest.
    WorldSpec s = haloWorld("halo-32768-profiled", 32768, squareRows(32768),
                            512, 2, "TXYZ");
    s.profile = true;
    return {s, haloWorld("halo-32768", 32768, squareRows(32768), 512, 2,
                         "TXYZ")};
  }
  if (workload == "scenario_sweep") return sweepWorlds();
  throw std::invalid_argument("unknown workload: " + workload);
}

std::vector<std::size_t> sweepOrder(std::size_t n, std::uint64_t seed) {
  // Fisher-Yates over the canonical list.
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::uint64_t sm = seed;
  for (std::size_t i = n; i > 1; --i)
    std::swap(order[i - 1], order[bgp::splitmix64(sm) % i]);
  return order;
}

const char* pinnedDigest(const std::string& world) {
  for (const ExpectedDigest& e : kExpectedDigests)
    if (world == e.world) return e.digest;
  return nullptr;
}

std::string checkDigest(const std::string& world, const Digest& digest) {
  const char* pinned = pinnedDigest(world);
  if (!pinned) return "no pinned digest for world " + world;
  const std::string got = formatDigest(digest);
  return got == pinned ? std::string()
                       : "digest " + got + " != pinned " + pinned;
}

Report runWorkload(const RunOptions& options) {
  const std::vector<WorldSpec> worlds = worldsOf(options.workload);
  Report rep = options.workload == "scenario_sweep"
                   ? runSweep(options, worlds)
                   : runSingle(options, worlds);
  if (!options.trace) {
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    add(rep, "peak_rss_mib", static_cast<double>(ru.ru_maxrss) / 1024.0,
        "MiB", 1, "process peak resident set (getrusage)");
  }
  return rep;
}

}  // namespace perfledger
