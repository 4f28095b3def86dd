// Tests of the benchmark itself: the digest gate, the span arithmetic the
// self-time metrics rest on, and the layer replays.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "hpcc/hpl_sim.hpp"
#include "replay.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfledger {
namespace {

WorldSpec sweepWorld(const std::string& name) {
  for (const WorldSpec& w : worldsOf("scenario_sweep"))
    if (w.name == name) return w;
  throw std::runtime_error("no sweep world " + name);
}

TEST(Digest, PinnedDigestAcceptsTheRunAndRejectsAPerturbedMakespan) {
  const WorldRun w = runWorld(sweepWorld("storm-256-b512"), kDefaultSeed,
                              false);
  ASSERT_TRUE(w.failures.empty()) << w.failures.front();
  EXPECT_EQ(checkDigest("storm-256-b512", w.digest), "");

  Digest moved = w.digest;
  moved.makespan = std::nextafter(moved.makespan, 1.0);
  EXPECT_NE(checkDigest("storm-256-b512", moved), "");
  Digest fewer = w.digest;
  --fewer.events;
  EXPECT_NE(checkDigest("storm-256-b512", fewer), "");
  EXPECT_NE(checkDigest("no-such-world", w.digest), "");
}

TEST(Digest, TracingAndSeedDoNotMoveSimulatedOutputs) {
  const WorldSpec spec = sweepWorld("halo-512-w512-XYZT");
  const WorldRun plain = runWorld(spec, kDefaultSeed, false);
  const WorldRun traced = runWorld(spec, kDefaultSeed, true);
  const WorldRun reseeded = runWorld(spec, 12345, false);
  EXPECT_EQ(formatDigest(traced.digest), formatDigest(plain.digest));
  EXPECT_EQ(formatDigest(reseeded.digest), formatDigest(plain.digest));
  EXPECT_TRUE(traced.failures.empty());
}

TEST(Programs, HplPanelMatchesRunHplSimulation) {
  const WorldSpec spec = sweepWorld("hpl-4x8-n3840");
  const WorldRun w = runWorld(spec, kDefaultSeed, false);
  ASSERT_TRUE(w.failures.empty()) << w.failures.front();
  bgp::hpcc::HplSimConfig cfg{bgpMachine(), spec.hpl.n, spec.hpl.nb,
                              spec.hpl.gridP, spec.hpl.gridQ};
  EXPECT_EQ(w.digest.events, bgp::hpcc::runHplSimulation(cfg).events);
}

TEST(Programs, Halo131kIsPinnedToTheScaleSweepDigest) {
  // scale_ranks --ranks=131072 prints this makespan and event count.
  const char* pinned = pinnedDigest("halo-131072");
  ASSERT_NE(pinned, nullptr);
  EXPECT_TRUE(std::string(pinned).starts_with(
      "makespan=0.0016474091978609599 events=4194305 "));
}

TEST(Spans, SelfTimesAreNonNegativeAndSlicesPlusDispatchEqualTheRun) {
  for (const char* name : {"halo-1024-w16-TXYZ", "storm-512-b128",
                           "hpl-8x8-n3840"}) {
    const WorldRun w = runWorld(sweepWorld(name), kDefaultSeed, true);
    ASSERT_TRUE(w.failures.empty()) << name << ": " << w.failures.front();
    const std::vector<Span>& spans = w.spans;
    std::vector<std::int64_t> childNs(spans.size(), 0);
    for (const Span& s : spans)
      if (s.parent != kNoParent) childNs[s.parent] += s.endNs - s.startNs;
    for (std::size_t i = 0; i < spans.size(); ++i)
      ASSERT_GE(spans[i].endNs - spans[i].startNs - childNs[i], 0)
          << name << " span " << i << " (" << spanName(spans[i].kind) << ")";

    const SpanTotals t = spanTotals(spans);
    ASSERT_EQ(t.n(SpanKind::Run), 1u);
    EXPECT_EQ(t.total(SpanKind::Slice) + t.self(SpanKind::Run),
              t.total(SpanKind::Run))
        << name;
    EXPECT_EQ(t.self(SpanKind::Slice) + t.total(SpanKind::Isend) +
                  t.total(SpanKind::Irecv) + t.total(SpanKind::Join),
              t.total(SpanKind::Slice))
        << name;

    // One thread runs every rank program, so slices never overlap.
    std::vector<std::pair<std::int64_t, std::int64_t>> slices;
    for (const Span& s : spans)
      if (s.kind == SpanKind::Slice) slices.emplace_back(s.startNs, s.endNs);
    std::sort(slices.begin(), slices.end());
    for (std::size_t i = 1; i < slices.size(); ++i)
      ASSERT_LE(slices[i - 1].second, slices[i].first) << name;
  }
}

TEST(Spans, MalformedTreesAreRejected) {
  std::vector<Span> open = {Span{10, 5, kNoParent, SpanKind::Run}};
  EXPECT_THROW(spanTotals(open), std::runtime_error);
  std::vector<Span> outside = {Span{10, 20, kNoParent, SpanKind::Run},
                               Span{15, 25, 0, SpanKind::Slice}};
  EXPECT_THROW(spanTotals(outside), std::runtime_error);
  std::vector<Span> ok = {Span{10, 20, kNoParent, SpanKind::Run},
                          Span{12, 15, 0, SpanKind::Slice}};
  EXPECT_EQ(spanTotals(ok).self(SpanKind::Run), 7);
}

TEST(Replay, BothReplaysPassTheirOutcomeChecks) {
  for (const char* name : {"halo-512-w2048-TXYZ", "storm-256-b512",
                           "hpl-4x8-n3840"}) {
    const WorldSpec spec = sweepWorld(name);
    const WorldRun w = runWorld(spec, kDefaultSeed, true);
    ASSERT_TRUE(w.failures.empty()) << name;
    for (std::uint64_t seed : {1u, 2u}) {
      const ReplayResult m = replayMatching(w.stream, seed, w.bytesSent, 1);
      EXPECT_TRUE(m.failures.empty()) << name << ": " << m.failures.front();
      EXPECT_EQ(m.messages, w.digest.sends) << name;
      EXPECT_EQ(m.bytes, w.bytesSent) << name;
      EXPECT_GT(m.nsPerMessage, 0.0);
    }
    const ReplayResult t = replayTransfers(w.stream, spec, w.bytesSent, 1);
    EXPECT_TRUE(t.failures.empty()) << name << ": " << t.failures.front();
    EXPECT_EQ(t.messages, w.digest.sends) << name;
    EXPECT_EQ(t.bytes, w.bytesSent) << name;
  }
}

TEST(Replay, ALostMessageFailsTheMatchCheck) {
  const WorldSpec spec = sweepWorld("storm-256-b512");
  WorldRun w = runWorld(spec, kDefaultSeed, true);
  auto& recs = w.stream.records;
  const auto firstSend = std::find_if(
      recs.begin(), recs.end(), [](const MsgRecord& m) { return m.isSend; });
  ASSERT_NE(firstSend, recs.end());
  const double lost = firstSend->bytes;
  recs.erase(firstSend);
  EXPECT_FALSE(replayMatching(w.stream, 1, w.bytesSent - lost, 1)
                   .failures.empty());
  EXPECT_FALSE(replayTransfers(w.stream, spec, w.bytesSent, 1)
                   .failures.empty());
}

TEST(Workloads, SweepOrderIsASeededPermutation) {
  const std::size_t n = worldsOf("scenario_sweep").size();
  EXPECT_EQ(n, 22u);
  const auto a = sweepOrder(n, 1);
  EXPECT_EQ(a, sweepOrder(n, 1));
  EXPECT_NE(a, sweepOrder(n, 2));
  EXPECT_EQ(std::set<std::size_t>(a.begin(), a.end()).size(), n);
  EXPECT_EQ(*std::max_element(a.begin(), a.end()), n - 1);
}

TEST(Stats, PercentilesAndSupportedTail) {
  EXPECT_EQ(median(std::vector<double>{3, 1, 2}), 2.0);
  EXPECT_EQ(median(std::vector<double>{4, 1, 2, 3}), 2.5);
  EXPECT_EQ(percentile(std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 90),
            9.0);
  EXPECT_EQ(supportedPercentile(7), 100.0);
  EXPECT_EQ(supportedPercentile(20), 50.0);
  EXPECT_EQ(supportedPercentile(1000), 99.0);
}

}  // namespace
}  // namespace perfledger
