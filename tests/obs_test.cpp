// Tests for the observability plane (src/obs): per-rank breakdowns,
// critical-path attribution, what-if estimates, deterministic exporters,
// and the Chrome-trace escaping fix.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "arch/machines.hpp"
#include "obs/breakdown.hpp"
#include "obs/profiler.hpp"
#include "obs/report.hpp"
#include "smpi/simulation.hpp"
#include "smpi/trace.hpp"

namespace bgp::obs {
namespace {

using arch::machineByName;
using smpi::Rank;
using smpi::ObserverScope;
using smpi::Simulation;

// The 3-rank oracle workload: a chain with a known compute-only
// critical path.  r0: 1.0 s compute then a small (eager) send to r1;
// r1: 0.5 s compute, the matching recv, then 2.0 s compute; r2: 0.2 s
// of unrelated compute.  The compute-only (zero-network) makespan is
// exactly max(1.0, max(0.5, 1.0) + 2.0, 0.2) = 3.0.
sim::Task oracleProgram(Rank& self) {
  if (self.id() == 0) {
    co_await self.compute(1.0);
    co_await self.send(1, 256.0);
  } else if (self.id() == 1) {
    co_await self.compute(0.5);
    co_await self.recv(0);
    co_await self.compute(2.0);
  } else {
    co_await self.compute(0.2);
  }
}

// A small halo-plus-allreduce workload touching p2p (nonblocking, so
// overlap accounting runs), collectives, and call-site labels.
sim::Task haloProgram(Rank& self) {
  const int n = self.size();
  const int left = (self.id() + n - 1) % n;
  const int right = (self.id() + 1) % n;
  for (int iter = 0; iter < 4; ++iter) {
    std::vector<smpi::Request> ops;
    {
      SiteLabel site(self, "halo-exchange");
      ops.push_back(self.irecv(left));
      ops.push_back(self.irecv(right));
      ops.push_back(self.isend(left, 4096.0));
      ops.push_back(self.isend(right, 4096.0));
    }
    co_await self.compute(1e-5 * (1 + self.id() % 3));
    {
      SiteLabel site(self, "halo-wait");
      co_await self.waitAll(ops);
    }
    {
      SiteLabel site(self, "residual");
      co_await self.allreduce(8.0);
    }
  }
}

// Rank 0 collects one ANY_SOURCE message from every other rank with
// waitAny, in whatever order they land; odd senders go eager, even ones
// rendezvous.  Then every rank pairs a receive and a send in one waitAny,
// waits for an eager and a rendezvous exchange with both neighbours in
// one waitAll, and finishes with an allreduce.
sim::Task waitAnyProgram(Rank& self) {
  const int n = self.size();
  if (self.id() == 0) {
    std::vector<smpi::Request> rs;
    for (int k = 1; k < n; ++k) rs.push_back(self.irecv(smpi::kAnySource, 7));
    while (!rs.empty()) {
      const std::size_t i = co_await self.waitAny(rs);
      rs.erase(rs.begin() + static_cast<std::ptrdiff_t>(i));
      co_await self.compute(2e-6);
    }
  } else {
    co_await self.compute(1e-6 * ((self.id() * 5) % 7));
    co_await self.send(0, self.id() % 2 ? 512.0 : 65536.0, 7);
  }
  const int right = (self.id() + 1) % n;
  const int left = (self.id() + n - 1) % n;
  std::vector<smpi::Request> rs{self.irecv(left, 3),
                                self.isend(right, 4096.0, 3)};
  co_await self.compute(1e-6 * (1 + self.id() % 3));
  const std::size_t first = co_await self.waitAny(rs);
  co_await self.wait(rs[1 - first]);
  std::vector<smpi::Request> all{
      self.irecv(left, 5), self.irecv(right, 5), self.isend(right, 512.0, 5),
      self.isend(left, 65536.0, 5)};
  co_await self.compute(1e-6 * (1 + (self.id() * 3) % 4));
  co_await self.waitAll(all);
  co_await self.allreduce(8.0);
}

TEST(Obs, TracerEscapesHostileNames) {
  smpi::Tracer tracer;  // engine-less: explicit timestamps
  tracer.record(0, "a\"b\\c\nd\te\x01" "f", 0.0, 2e-6);
  tracer.counter(1, "link\"bytes", 1e-6, 42.5);
  std::ostringstream os;
  tracer.writeChromeJson(os);
  const std::string json = os.str();

  // Quotes, backslashes, newlines, tabs, and raw control bytes must all
  // come out escaped (the pre-fix exporter emitted them verbatim).
  EXPECT_NE(json.find("a\\\"b\\\\c\\nd\\te\\u0001f"), std::string::npos)
      << json;
  for (char c : json) EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"value\":42.5"), std::string::npos) << json;
}

TEST(Obs, ProfilingDoesNotPerturbTheRun) {
  smpi::RunResult plain, profiled;
  {
    Simulation sim(machineByName("BG/P"), 8);
    plain = sim.run(haloProgram);
  }
  {
    Simulation sim(machineByName("BG/P"), 8);
    sim.enableProfile();
    profiled = sim.run(haloProgram);
  }
  // Bitwise: the hooks observe, they never schedule.
  EXPECT_EQ(plain.makespan, profiled.makespan);
  EXPECT_EQ(plain.events, profiled.events);
  ASSERT_EQ(plain.finishTimes.size(), profiled.finishTimes.size());
  for (std::size_t r = 0; r < plain.finishTimes.size(); ++r)
    EXPECT_EQ(plain.finishTimes[r], profiled.finishTimes[r]);
}

TEST(Obs, GoldenDeterminism) {
  auto runOnce = []() {
    Simulation sim(machineByName("BG/P"), 8);
    sim.enableProfile();
    sim.run(haloProgram);
    std::ostringstream os;
    writeJson(os, sim.profiler()->profile(), "halo");
    return os.str();
  };
  const std::string a = runOnce();
  const std::string b = runOnce();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"schema\":\"bgp.obs.profile/1\""), std::string::npos);
}

TEST(Obs, OracleCriticalPathAndWhatIfs) {
  Simulation sim(machineByName("BG/P"), 3);
  sim.enableProfile();
  const auto result = sim.run(oracleProgram);
  const RunProfile& p = sim.profiler()->profile();

  ASSERT_TRUE(sim.profiler()->finalized());
  EXPECT_FALSE(p.truncated);
  EXPECT_EQ(p.nranks, 3);
  EXPECT_EQ(p.makespan, result.makespan);

  // Rank 1 drives the makespan: 0.5 + wait-for-message + 2.0.
  EXPECT_GT(result.makespan, 3.0);
  EXPECT_NEAR(p.ranks[0].compute, 1.0, 1e-12);
  EXPECT_NEAR(p.ranks[1].compute, 2.5, 1e-12);
  EXPECT_NEAR(p.ranks[2].compute, 0.2, 1e-12);

  // A complete path's length equals the measured makespan EXACTLY (it
  // is a single difference, not a float sum of segments).
  ASSERT_TRUE(p.critical.complete);
  EXPECT_EQ(p.critical.length, result.makespan);
  // The path runs through r1's trailing compute and r0's leading
  // compute: 3.0 s of the path is compute, the rest is the message.
  EXPECT_NEAR(p.critical.compute, 3.0, 1e-12);

  // Zero-network what-if == the independently known compute-only
  // makespan; zero-compute == the message's measured flight time.
  ASSERT_TRUE(p.whatIf.valid);
  EXPECT_EQ(p.whatIf.measured, result.makespan);
  EXPECT_DOUBLE_EQ(p.whatIf.zeroNetwork, 3.0);
  EXPECT_NEAR(p.whatIf.zeroCompute, result.makespan - 3.0, 1e-12);

  EXPECT_TRUE(selfCheck(p).empty());
}

// The critical path and what-ifs of a waitAny / waitAll / ANY_SOURCE /
// eager plus rendezvous program, pinned bit for bit.
TEST(Obs, WaitAnyAndWaitAllPathAndWhatIfsArePinned) {
  Simulation sim(machineByName("BG/P"), 9);
  sim.enableProfile();
  const auto result = sim.run(waitAnyProgram);
  const RunProfile& p = sim.profiler()->profile();
  ASSERT_FALSE(p.truncated);
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };

  ASSERT_TRUE(p.critical.complete);
  EXPECT_EQ(bits(p.critical.length), bits(result.makespan));
  EXPECT_EQ(bits(p.critical.compute), bits(0x1.0c6f7a0b5ed8ap-17));
  EXPECT_EQ(bits(p.critical.serialization), bits(0x1.792ffa0bc045cp-12));
  EXPECT_EQ(bits(p.critical.latency), bits(0x1.f44759dfb4716p-16));
  EXPECT_EQ(bits(p.critical.queueing), bits(0x1.671860a740e4p-13));
  EXPECT_EQ(bits(p.critical.unattributed), bits(0.0));
  EXPECT_EQ(p.critical.segments.size(), 11u);

  ASSERT_TRUE(p.whatIf.valid);
  EXPECT_EQ(bits(p.whatIf.zeroNetwork), bits(0x1.6052502eec7c1p-16));
  EXPECT_EQ(bits(p.whatIf.zeroCompute), bits(0x1.26004ffeadff7p-11));
  EXPECT_EQ(bits(result.makespan), bits(0x1.2a320de6db7adp-11));
  EXPECT_TRUE(selfCheck(p).empty());
}

// A budget far below the run: the profile says so, keeps its exact
// breakdown, drops the path and what-ifs, and the run is unchanged.
TEST(Obs, TruncatedProfileKeepsBreakdownAndDropsPath) {
  smpi::RunResult plain;
  {
    Simulation sim(machineByName("BG/P"), 16);
    plain = sim.run(haloProgram);
  }
  Simulation sim(machineByName("BG/P"), 16);
  ProfileOptions options;
  options.maxOps = 40;
  sim.enableProfile(options);
  const auto result = sim.run(haloProgram);
  const RunProfile& p = sim.profiler()->profile();

  EXPECT_TRUE(p.truncated);
  ASSERT_EQ(p.ranks.size(), 16u);
  for (const RankBreakdown& r : p.ranks)
    EXPECT_NEAR(r.compute + r.p2pBlocked + r.collBlocked + r.idle,
                result.makespan, 1e-12 * result.makespan);
  EXPECT_FALSE(p.critical.complete);
  EXPECT_TRUE(p.critical.segments.empty());
  EXPECT_FALSE(p.whatIf.valid);
  EXPECT_TRUE(selfCheck(p).empty());

  EXPECT_EQ(std::bit_cast<std::uint64_t>(result.makespan),
            std::bit_cast<std::uint64_t>(plain.makespan));
  EXPECT_EQ(result.events, plain.events);
  ASSERT_EQ(result.finishTimes.size(), plain.finishTimes.size());
  for (std::size_t r = 0; r < plain.finishTimes.size(); ++r)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(result.finishTimes[r]),
              std::bit_cast<std::uint64_t>(plain.finishTimes[r]));
}

// Profiles that agree on size, makespan, time totals and event count but
// not on link counters: the aggregate must not depend on input order.
TEST(Obs, AggregateJsonIgnoresInputOrder) {
  RunProfile a;
  a.nranks = 4;
  a.makespan = 1.5;
  a.engine.events = 100;
  RunProfile b = a;
  a.net.linkClaims = 7;
  b.net.linkClaims = 9;
  std::ostringstream ab, ba;
  writeAggregateJson(ab, {&a, &b});
  writeAggregateJson(ba, {&b, &a});
  EXPECT_EQ(ab.str(), ba.str());
}

TEST(Obs, BreakdownSumsToMakespanTimesRanks) {
  Simulation sim(machineByName("BG/P"), 16);
  sim.enableProfile();
  const auto result = sim.run(haloProgram);
  const RunProfile& p = sim.profiler()->profile();

  ASSERT_EQ(p.nranks, 16);
  double sum = 0.0;
  for (const RankBreakdown& r : p.ranks)
    sum += r.compute + r.p2pBlocked + r.collBlocked + r.idle;
  const double expected = result.makespan * 16;
  EXPECT_NEAR(sum, expected, 1e-3 * expected);  // acceptance: 0.1%
  EXPECT_NEAR(p.computeTotal + p.p2pBlockedTotal + p.collBlockedTotal +
                  p.idleTotal,
              expected, 1e-3 * expected);

  // The labeled sites made it into the mpiP-style aggregation.
  bool sawWait = false, sawResidual = false;
  for (const SiteStats& s : p.sites) {
    if (s.site == "halo-wait") sawWait = true;
    if (s.site == "residual" && s.op == "allreduce") sawResidual = true;
  }
  EXPECT_TRUE(sawWait);
  EXPECT_TRUE(sawResidual);

  // Network counters saw the halo traffic.
  EXPECT_GT(p.net.bytesOnLinks + p.net.shmBytes, 0.0);
  EXPECT_FALSE(p.colls.empty());
  EXPECT_TRUE(selfCheck(p).empty());
}

TEST(Obs, SummarizeStatsMatchesSimulationProfile) {
  Simulation sim(machineByName("BG/P"), 8);
  sim.run(haloProgram);
  const StatsSummary p = sim.profile();
  std::vector<smpi::RankStats> stats;
  for (int r = 0; r < 8; ++r) stats.push_back(sim.rankStats(r));
  const StatsSummary s = summarizeStats(stats.data(), stats.size());
  EXPECT_EQ(s.sends, p.sends);
  EXPECT_EQ(s.recvs, p.recvs);
  EXPECT_EQ(s.collectives, p.collectives);
  EXPECT_EQ(s.bytesSent, p.bytesSent);
  EXPECT_EQ(s.computeSeconds, p.computeSeconds);
  EXPECT_EQ(s.p2pWaitSeconds, p.p2pWaitSeconds);
  EXPECT_EQ(s.collWaitSeconds, p.collWaitSeconds);
  EXPECT_EQ(s.maxComputeSeconds, p.maxComputeSeconds);
  EXPECT_EQ(s.computeImbalance, p.computeImbalance);
  EXPECT_EQ(s.commFraction, p.commFraction);
}

TEST(Obs, ProfileScopeCapturesConstructedSimulations) {
  ObserverScope scope(ObserverScope::Attach::Profile);
  {
    Simulation sim(machineByName("BG/P"), 4);
    sim.run(haloProgram);
  }
  ASSERT_EQ(scope.profilers().size(), 1u);
  ASSERT_TRUE(scope.profilers()[0]->finalized());
  const RunProfile& p = scope.profilers()[0]->profile();
  EXPECT_EQ(p.nranks, 4);
  EXPECT_TRUE(selfCheck(p).empty());
}

}  // namespace
}  // namespace bgp::obs
