#include "worlds.hpp"

#include <bit>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <sstream>

#include "arch/machines.hpp"
#include "net/torus_network.hpp"
#include "obs/breakdown.hpp"
#include "obs/report.hpp"
#include "smpi/simulation.hpp"

namespace perfledger {

namespace {

using bgp::smpi::Simulation;

/// A constructed, not yet run world.
struct Built {
  std::unique_ptr<Simulation> sim;
  std::vector<bgp::smpi::Comm*> rowComms;  // Program::Hpl
  std::vector<bgp::smpi::Comm*> colComms;
};

Built build(const WorldSpec& spec, std::uint64_t seed) {
  Built b;
  b.sim = std::make_unique<Simulation>(bgpMachine(), spec.nranks,
                                       systemOptions(spec), seed);
  if (spec.profile) b.sim->enableProfile();
  if (spec.program == Program::Hpl) {
    // Row and column communicators of the process grid (rank = row*Q+col).
    std::vector<int> rowColor(static_cast<std::size_t>(spec.nranks));
    std::vector<int> colColor(static_cast<std::size_t>(spec.nranks));
    for (int r = 0; r < spec.nranks; ++r) {
      rowColor[static_cast<std::size_t>(r)] = r / spec.hpl.gridQ;
      colColor[static_cast<std::size_t>(r)] = r % spec.hpl.gridQ;
    }
    b.rowComms = b.sim->splitWorld(rowColor);
    b.colComms = b.sim->splitWorld(colColor);
  }
  return b;
}

template <typename Tr>
bgp::smpi::RunResult runProgram(Built& b, const WorldSpec& spec, Tr& tr) {
  Simulation& sim = *b.sim;
  switch (spec.program) {
    case Program::Halo:
      return sim.run(
          [&](Rank& self) { return haloProgram(self, spec.halo, tr); });
    case Program::Collectives:
      return sim.run([&](Rank& self) {
        return collectivesProgram(self, spec.iters, tr);
      });
    case Program::Storm:
      return sim.run([&](Rank& self) {
        return stormProgram(self, spec.bytesPerPair, spec.iters, tr);
      });
    case Program::Hpl: {
      HplParams hpl = spec.hpl;
      hpl.dgemmEfficiency = bgpMachine().dgemmEfficiency;
      return sim.run([&](Rank& self) {
        return hplProgram(self, hpl, b.rowComms, b.colComms, tr);
      });
    }
  }
  throw std::logic_error("unknown program");
}

/// Counts committed link claims; forwards to the observer it displaced
/// (the profiler, on a profiled world) so attaching it changes nothing.
class LinkTap final : public bgp::net::TorusNetwork::LinkObserver {
 public:
  explicit LinkTap(LinkObserver* next) : next_(next) {}
  void onLinkClaim(bgp::topo::LinkId link, bgp::sim::SimTime claim,
                   double serSeconds, double bytes,
                   double queuedSeconds) override {
    ++claims;
    queuedSeconds_ += queuedSeconds;
    if (next_) next_->onLinkClaim(link, claim, serSeconds, bytes,
                                  queuedSeconds);
  }
  void onShmTransfer(double bytes, bgp::sim::SimTime start) override {
    if (next_) next_->onShmTransfer(bytes, start);
  }
  std::uint64_t claims = 0;
  double queued() const { return queuedSeconds_; }

 private:
  LinkObserver* next_;
  double queuedSeconds_ = 0.0;
};

/// Span-log capacity for one world, so the traced run never reallocates.
std::size_t expectedSpans(const WorldSpec& spec) {
  const auto n = static_cast<std::size_t>(spec.nranks);
  switch (spec.program) {
    case Program::Halo:
      return n * (4 + 11 * static_cast<std::size_t>(spec.halo.reps));
    case Program::Collectives:
      return n * (2 + 6 * static_cast<std::size_t>(spec.iters));
    case Program::Storm:
      return n * (2 + 5 * static_cast<std::size_t>(spec.iters));
    case Program::Hpl:
      return 0;
  }
  return 0;
}

void checkInvariants(const Simulation& sim,
                     const bgp::smpi::RunResult& result,
                     const bgp::obs::StatsSummary& sum, WorldRun& out) {
  const auto n = static_cast<std::size_t>(sim.nranks());
  if (result.finishTimes.size() != n) {
    out.failures.push_back("not every rank finished");
    return;
  }
  double idle = 0.0;
  double latest = 0.0;
  for (double f : result.finishTimes) {
    if (!(f >= 0.0 && f <= result.makespan))
      out.failures.push_back("rank finish time outside [0, makespan]");
    idle += result.makespan - f;
    latest = std::max(latest, f);
  }
  if (latest != result.makespan)
    out.failures.push_back("makespan is not the latest finish time");
  if (sum.sends != sum.recvs)
    out.failures.push_back("world sends " + std::to_string(sum.sends) +
                           " != world recvs " + std::to_string(sum.recvs));
  // compute + p2p wait + collective wait + idle tail == makespan, per rank,
  // so the world total is makespan * ranks up to summation rounding.
  const double total = sum.computeSeconds + sum.p2pWaitSeconds +
                       sum.collWaitSeconds + idle;
  const double expect = result.makespan * static_cast<double>(n);
  if (std::abs(total - expect) > 1e-9 * expect) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "breakdown sums to %.17g, makespan x ranks is %.17g", total,
                  expect);
    out.failures.push_back(buf);
  }
}

void checkProfile(const bgp::obs::RunProfile& p,
                  const bgp::smpi::RunResult& result, WorldRun& out) {
  if (p.truncated) out.failures.push_back("profile truncated");
  if (!p.critical.complete)
    out.failures.push_back("critical path incomplete");
  if (std::bit_cast<std::uint64_t>(p.critical.length) !=
      std::bit_cast<std::uint64_t>(result.makespan))
    out.failures.push_back("critical path length is not the makespan");
  for (const std::string& v : bgp::obs::selfCheck(p))
    out.failures.push_back("obs selfCheck: " + v);
}

/// Runs the program and, on a profiled world, exports the profile JSON.
template <typename Tr>
bgp::smpi::RunResult runAndExport(Built& b, const WorldSpec& spec, Tr& tr,
                                  SpanLog* log, std::uint32_t runSpan,
                                  WorldRun& out) {
  auto r = runProgram(b, spec, tr);
  if (spec.profile) {
    const std::int64_t e0 = nowNs();
    const std::uint32_t span =
        log ? log->open(SpanKind::Export, runSpan) : kNoParent;
    std::ostringstream json;
    bgp::obs::writeJson(json, b.sim->profiler()->profile(), spec.name);
    if (log) log->close(span);
    out.exportSeconds = static_cast<double>(nowNs() - e0) * 1e-9;
    if (json.tellp() <= 0) out.failures.push_back("empty profile JSON");
  }
  return r;
}

/// Fills the digest and checks the run (outside the timed region).
void digestAndCheck(const Built& b, const WorldSpec& spec,
                    const bgp::smpi::RunResult& r, WorldRun& out) {
  const Simulation& sim = *b.sim;
  const auto sum = bgp::obs::summarizeStats(
      &sim.rankStats(0), static_cast<std::size_t>(sim.nranks()));
  out.digest = Digest{r.makespan,      r.events,          sum.sends,
                      sum.recvs,       sum.collectives,   sum.p2pWaitSeconds,
                      sum.collWaitSeconds};
  out.bytesSent = sum.bytesSent;
  checkInvariants(sim, r, sum, out);
  if (spec.profile) checkProfile(b.sim->profiler()->profile(), r, out);
}

}  // namespace

const bgp::arch::MachineConfig& bgpMachine() {
  static const bgp::arch::MachineConfig m = bgp::arch::machineByName("BG/P");
  return m;
}

bgp::net::SystemOptions systemOptions(const WorldSpec& spec) {
  bgp::net::SystemOptions opts;
  opts.mode = bgp::arch::ExecMode::VN;
  opts.mappingOrder = spec.mapping;
  return opts;
}

std::string formatDigest(const Digest& d) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "makespan=%.17g events=%llu sends=%llu recvs=%llu colls=%llu "
                "p2p_wait=%.17g coll_wait=%.17g",
                d.makespan, static_cast<unsigned long long>(d.events),
                static_cast<unsigned long long>(d.sends),
                static_cast<unsigned long long>(d.recvs),
                static_cast<unsigned long long>(d.collectives),
                d.p2pWaitSeconds, d.collWaitSeconds);
  return buf;
}

WorldRun runWorld(const WorldSpec& spec, std::uint64_t seed, bool traced) {
  WorldRun out;
  try {
    if (!traced) {
      Built b = build(spec, seed);
      const std::int64_t t1 = nowNs();
      NoTrace tr;
      const auto r = runAndExport(b, spec, tr, nullptr, kNoParent, out);
      const std::int64_t t2 = nowNs();
      out.runSeconds = static_cast<double>(t2 - t1) * 1e-9;
      digestAndCheck(b, spec, r, out);
      return out;
    }
    SpanLog log;
    log.reserve(expectedSpans(spec) + 4);
    out.stream.records.reserve(
        spec.program == Program::Halo
            ? static_cast<std::size_t>(spec.nranks) * 8 *
                  static_cast<std::size_t>(spec.halo.reps)
            : 0);
    const std::uint32_t setup = log.open(SpanKind::Setup, kNoParent);
    Built b = build(spec, seed);
    log.close(setup);
    auto& net = b.sim->system().torusNetwork();
    LinkTap tap(net.observer());
    net.attachObserver(&tap);
    out.stream.commSizes.assign(
        static_cast<std::size_t>(1 + b.rowComms.size() + b.colComms.size()),
        0);
    out.stream.commSizes[static_cast<std::size_t>(b.sim->world().id())] =
        b.sim->world().size();
    for (const auto* comms : {&b.rowComms, &b.colComms})
      for (const bgp::smpi::Comm* c : *comms)
        out.stream.commSizes.at(static_cast<std::size_t>(c->id())) =
            c->size();
    const std::uint32_t run = log.open(SpanKind::Run, kNoParent);
    SpanTrace tr(log, run, out.stream);
    const auto r = runAndExport(b, spec, tr, &log, run, out);
    log.close(run);
    digestAndCheck(b, spec, r, out);
    if (net.observer() == &tap) net.attachObserver(nullptr);
    const Span& rs = log.spans()[run];
    out.runSeconds = static_cast<double>(rs.endNs - rs.startNs) * 1e-9;
    out.peakPending = b.sim->engine().peakPending();
    out.routeHits = net.routeCacheHits();
    out.routeMisses = net.routeCacheMisses();
    out.linkClaims = tap.claims;
    out.linkQueuedSimSeconds = tap.queued();
    out.spans = std::move(log.spans());
  } catch (const std::exception& e) {
    out.failures.push_back(std::string("run threw: ") + e.what());
  }
  return out;
}

double setupOnly(const WorldSpec& spec, std::uint64_t seed) {
  const std::int64_t t0 = nowNs();
  Built b = build(spec, seed);
  const std::int64_t t1 = nowNs();
  return static_cast<double>(t1 - t0) * 1e-9;
}

}  // namespace perfledger
