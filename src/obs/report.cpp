#include "obs/report.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>

#include "smpi/trace.hpp"
#include "support/json.hpp"
#include "support/units.hpp"

namespace bgp::obs {

namespace {

constexpr std::size_t kMaxRankRows = 256;
constexpr std::size_t kMaxSegmentRows = 1024;

using support::jsonEscape;
using support::jsonNumber;

void key(std::ostream& os, const char* k, bool first = false) {
  if (!first) os << ',';
  os << '"' << k << "\":";
}

void num(std::ostream& os, const char* k, double v, bool first = false) {
  key(os, k, first);
  jsonNumber(os, v);
}

void integer(std::ostream& os, const char* k, std::uint64_t v,
             bool first = false) {
  key(os, k, first);
  os << v;
}

void boolean(std::ostream& os, const char* k, bool v, bool first = false) {
  key(os, k, first);
  os << (v ? "true" : "false");
}

void str(std::ostream& os, const char* k, const std::string& v,
         bool first = false) {
  key(os, k, first);
  os << '"';
  jsonEscape(os, v);
  os << '"';
}

void writeProfileObject(std::ostream& os, const RunProfile& p,
                        const std::string& name) {
  os << '{';
  str(os, "schema", "bgp.obs.profile/1", /*first=*/true);
  str(os, "name", name);
  integer(os, "nranks", static_cast<std::uint64_t>(p.nranks));
  num(os, "makespan", p.makespan);
  boolean(os, "truncated", p.truncated);

  key(os, "engine");
  os << '{';
  integer(os, "events", p.engine.events, /*first=*/true);
  integer(os, "peakPending", p.engine.peakPending);
  os << '}';

  key(os, "totals");
  os << '{';
  num(os, "compute", p.computeTotal, /*first=*/true);
  num(os, "p2pBlocked", p.p2pBlockedTotal);
  num(os, "collBlocked", p.collBlockedTotal);
  num(os, "idle", p.idleTotal);
  num(os, "overlap", p.overlapTotal);
  num(os, "computeImbalance", p.computeImbalance);
  num(os, "commFraction", p.commFraction);
  integer(os, "sends", p.sends);
  integer(os, "recvs", p.recvs);
  integer(os, "collectives", p.collectives);
  num(os, "bytesSent", p.bytesSent);
  os << '}';

  key(os, "ranks");
  os << '[';
  const std::size_t nRanks = std::min(p.ranks.size(), kMaxRankRows);
  for (std::size_t r = 0; r < nRanks; ++r) {
    if (r) os << ',';
    const RankBreakdown& b = p.ranks[r];
    os << '{';
    integer(os, "rank", static_cast<std::uint64_t>(r), /*first=*/true);
    num(os, "compute", b.compute);
    num(os, "p2pBlocked", b.p2pBlocked);
    num(os, "collBlocked", b.collBlocked);
    num(os, "idle", b.idle);
    num(os, "overlap", b.overlap);
    num(os, "finish", b.finish);
    os << '}';
  }
  os << ']';
  boolean(os, "ranksElided", p.ranks.size() > kMaxRankRows);

  key(os, "sites");
  os << '[';
  for (std::size_t i = 0; i < p.sites.size(); ++i) {
    if (i) os << ',';
    const SiteStats& s = p.sites[i];
    os << '{';
    str(os, "site", s.site, /*first=*/true);
    str(os, "op", s.op);
    integer(os, "count", s.count);
    num(os, "bytes", s.bytes);
    num(os, "blockedSeconds", s.blockedSeconds);
    os << '}';
  }
  os << ']';

  key(os, "collectives");
  os << '[';
  for (std::size_t i = 0; i < p.colls.size(); ++i) {
    if (i) os << ',';
    const CollStats& c = p.colls[i];
    os << '{';
    str(os, "kind", c.kind, /*first=*/true);
    integer(os, "gates", c.gates);
    num(os, "bytes", c.bytes);
    num(os, "costSeconds", c.costSeconds);
    integer(os, "treeGates", c.treeGates);
    integer(os, "barrierGates", c.barrierGates);
    integer(os, "torusGates", c.torusGates);
    os << '}';
  }
  os << ']';

  key(os, "network");
  os << '{';
  num(os, "bytesOnLinks", p.net.bytesOnLinks, /*first=*/true);
  num(os, "shmBytes", p.net.shmBytes);
  integer(os, "linkClaims", p.net.linkClaims);
  integer(os, "shmTransfers", p.net.shmTransfers);
  integer(os, "linksUsed", static_cast<std::uint64_t>(p.net.linksUsed));
  integer(os, "linkCount", static_cast<std::uint64_t>(p.net.linkCount));
  num(os, "peakUtilization", p.net.peakUtilization);
  num(os, "meanUtilization", p.net.meanUtilization);
  key(os, "hotLinks");
  os << '[';
  for (std::size_t i = 0; i < p.net.hotLinks.size(); ++i) {
    if (i) os << ',';
    const LinkStats& l = p.net.hotLinks[i];
    os << '{';
    integer(os, "link", static_cast<std::uint64_t>(l.link), /*first=*/true);
    integer(os, "x", static_cast<std::uint64_t>(l.x));
    integer(os, "y", static_cast<std::uint64_t>(l.y));
    integer(os, "z", static_cast<std::uint64_t>(l.z));
    str(os, "dir", l.dir);
    integer(os, "claims", l.claims);
    num(os, "bytes", l.bytes);
    num(os, "busySeconds", l.busySeconds);
    num(os, "queueSeconds", l.queueSeconds);
    num(os, "utilization", l.utilization);
    os << '}';
  }
  os << ']';
  key(os, "histogram");
  os << '{';
  num(os, "binSeconds", p.net.histBinSeconds, /*first=*/true);
  key(os, "bytes");
  os << '[';
  for (std::size_t i = 0; i < p.net.histBytes.size(); ++i) {
    if (i) os << ',';
    jsonNumber(os, p.net.histBytes[i]);
  }
  os << "]}}";

  key(os, "criticalPath");
  os << '{';
  boolean(os, "complete", p.critical.complete, /*first=*/true);
  num(os, "length", p.critical.length);
  num(os, "compute", p.critical.compute);
  num(os, "serialization", p.critical.serialization);
  num(os, "latency", p.critical.latency);
  num(os, "queueing", p.critical.queueing);
  num(os, "unattributed", p.critical.unattributed);
  key(os, "segments");
  os << '[';
  const std::size_t nSegs =
      std::min(p.critical.segments.size(), kMaxSegmentRows);
  for (std::size_t i = 0; i < nSegs; ++i) {
    if (i) os << ',';
    const PathSegment& s = p.critical.segments[i];
    os << '{';
    integer(os, "rank", static_cast<std::uint64_t>(s.rank), /*first=*/true);
    num(os, "begin", s.begin);
    num(os, "end", s.end);
    str(os, "kind", toString(s.kind));
    str(os, "what", s.what);
    os << '}';
  }
  os << ']';
  boolean(os, "segmentsElided", p.critical.segments.size() > kMaxSegmentRows);
  os << '}';

  key(os, "whatIf");
  os << '{';
  boolean(os, "valid", p.whatIf.valid, /*first=*/true);
  num(os, "measured", p.whatIf.measured);
  num(os, "zeroNetwork", p.whatIf.zeroNetwork);
  num(os, "zeroCompute", p.whatIf.zeroCompute);
  os << "}}";
}

}  // namespace

void writeJson(std::ostream& os, const RunProfile& p,
               const std::string& name) {
  writeProfileObject(os, p, name);
  os << '\n';
}

void writeText(std::ostream& os, const RunProfile& p,
               const std::string& name) {
  using units::formatTime;
  os << "== profile";
  if (!name.empty()) os << ": " << name;
  os << " ==\n";
  os << "ranks " << p.nranks << "  makespan " << formatTime(p.makespan)
     << "  events " << p.engine.events << "  peak-pending "
     << p.engine.peakPending << (p.truncated ? "  [TRUNCATED]" : "") << "\n";

  const double total = p.makespan * static_cast<double>(p.nranks);
  const auto pct = [&](double v) {
    return total > 0 ? 100.0 * v / total : 0.0;
  };
  os << "time breakdown (rank-seconds, % of makespan x ranks):\n";
  os << "  compute      " << formatTime(p.computeTotal) << "  ("
     << pct(p.computeTotal) << "%)\n";
  os << "  p2p blocked  " << formatTime(p.p2pBlockedTotal) << "  ("
     << pct(p.p2pBlockedTotal) << "%)\n";
  os << "  coll blocked " << formatTime(p.collBlockedTotal) << "  ("
     << pct(p.collBlockedTotal) << "%)\n";
  os << "  idle         " << formatTime(p.idleTotal) << "  ("
     << pct(p.idleTotal) << "%)\n";
  os << "  overlap      " << formatTime(p.overlapTotal)
     << "  (informational)\n";
  os << "  comm fraction " << p.commFraction << "  compute imbalance "
     << p.computeImbalance << "\n";

  if (!p.sites.empty()) {
    os << "hot sites (by blocked time):\n";
    const std::size_t n = std::min<std::size_t>(p.sites.size(), 10);
    for (std::size_t i = 0; i < n; ++i) {
      const SiteStats& s = p.sites[i];
      os << "  " << (s.site.empty() ? "(unlabeled)" : s.site.c_str()) << " / "
         << s.op << ": count " << s.count << ", bytes " << s.bytes
         << ", blocked " << formatTime(s.blockedSeconds) << "\n";
    }
  }

  if (!p.colls.empty()) {
    os << "collectives:\n";
    for (const CollStats& c : p.colls) {
      os << "  " << c.kind << ": gates " << c.gates << " (tree "
         << c.treeGates << ", barrier " << c.barrierGates << ", torus "
         << c.torusGates << "), cost " << formatTime(c.costSeconds) << "\n";
    }
  }

  os << "network: " << p.net.linksUsed << "/" << p.net.linkCount
     << " links used, " << p.net.bytesOnLinks << " link-bytes, "
     << p.net.linkClaims << " claims, shm " << p.net.shmBytes << " bytes ("
     << p.net.shmTransfers << " transfers), peak util "
     << p.net.peakUtilization << ", mean util " << p.net.meanUtilization
     << "\n";
  for (const LinkStats& l : p.net.hotLinks) {
    os << "  link " << l.link << " (" << l.x << "," << l.y << "," << l.z
       << ")" << l.dir << ": busy " << formatTime(l.busySeconds) << " (util "
       << l.utilization << "), queued " << formatTime(l.queueSeconds)
       << ", bytes " << l.bytes << ", claims " << l.claims << "\n";
  }

  const CriticalPath& cp = p.critical;
  os << "critical path: "
     << (cp.complete ? "complete" : "incomplete/unavailable") << ", length "
     << formatTime(cp.length) << "\n";
  if (cp.length > 0) {
    const auto cpPct = [&](double v) { return 100.0 * v / cp.length; };
    os << "  compute       " << formatTime(cp.compute) << "  ("
       << cpPct(cp.compute) << "%)\n";
    os << "  serialization " << formatTime(cp.serialization) << "  ("
       << cpPct(cp.serialization) << "%)\n";
    os << "  latency       " << formatTime(cp.latency) << "  ("
       << cpPct(cp.latency) << "%)\n";
    os << "  queueing      " << formatTime(cp.queueing) << "  ("
       << cpPct(cp.queueing) << "%)\n";
    os << "  unattributed  " << formatTime(cp.unattributed) << "  ("
       << cpPct(cp.unattributed) << "%)\n";
  }

  if (p.whatIf.valid) {
    os << "what-if: measured " << formatTime(p.whatIf.measured)
       << ", zero-network " << formatTime(p.whatIf.zeroNetwork)
       << ", zero-compute " << formatTime(p.whatIf.zeroCompute) << "\n";
  } else {
    os << "what-if: unavailable\n";
  }
}

void emitCounters(smpi::Tracer& tracer, const RunProfile& p) {
  // Traffic histogram as a counter track (tid 0).
  for (std::size_t i = 0; i < p.net.histBytes.size(); ++i)
    tracer.counter(0, "link-bytes",
                   static_cast<double>(i) * p.net.histBinSeconds,
                   p.net.histBytes[i]);
  // Critical-path segments as spans on the owning rank's track.
  for (const PathSegment& s : p.critical.segments)
    tracer.record(s.rank,
                  std::string("critpath:") + toString(s.kind) +
                      (s.what.empty() ? "" : " " + s.what),
                  s.begin, s.end);
}

std::vector<std::string> selfCheck(const RunProfile& p) {
  std::vector<std::string> bad;
  const auto complain = [&](const std::string& msg) { bad.push_back(msg); };
  const double scale = std::max(1.0, std::abs(p.makespan));

  // Per-rank breakdowns sum to the makespan (identity by construction,
  // so the tolerance only absorbs float summation noise).
  for (std::size_t r = 0; r < p.ranks.size(); ++r) {
    const RankBreakdown& b = p.ranks[r];
    const double sum = b.compute + b.p2pBlocked + b.collBlocked + b.idle;
    if (std::abs(sum - p.makespan) > 1e-9 * scale) {
      std::ostringstream os;
      os << "rank " << r << " breakdown sums to " << sum << ", makespan is "
         << p.makespan;
      complain(os.str());
    }
  }
  const double totalSum = p.computeTotal + p.p2pBlockedTotal +
                          p.collBlockedTotal + p.idleTotal;
  const double expect = p.makespan * static_cast<double>(p.nranks);
  if (expect > 0 && std::abs(totalSum - expect) > 1e-3 * expect)
    complain("breakdown totals drift from makespan x ranks by > 0.1%");

  if (p.net.peakUtilization < 0 || p.net.peakUtilization > 1.0 + 1e-9)
    complain("peak link utilization outside [0, 1]");
  if (p.net.meanUtilization < 0 ||
      p.net.meanUtilization > p.net.peakUtilization + 1e-9)
    complain("mean link utilization outside [0, peak]");
  for (const LinkStats& l : p.net.hotLinks)
    if (l.utilization < 0 || l.utilization > 1.0 + 1e-9)
      complain("hot-link utilization outside [0, 1]");

  if (!p.truncated) {
    const CriticalPath& cp = p.critical;
    if (cp.complete && cp.length != p.makespan)
      complain("complete critical path length != makespan");
    const double kinds = cp.compute + cp.serialization + cp.latency +
                         cp.queueing + cp.unattributed;
    if (std::abs(kinds - cp.length) > 1e-9 * scale)
      complain("critical-path kind totals do not sum to its length");
    if (p.whatIf.valid) {
      if (p.whatIf.zeroNetwork < 0 ||
          p.whatIf.zeroNetwork > p.whatIf.measured + 1e-9 * scale)
        complain("zero-network what-if above measured makespan");
      if (p.whatIf.zeroCompute < 0 ||
          p.whatIf.zeroCompute > p.whatIf.measured + 1e-9 * scale)
        complain("zero-compute what-if above measured makespan");
    }
  }
  return bad;
}

void writeAggregateJson(std::ostream& os,
                        const std::vector<const RunProfile*>& profiles) {
  // Thread-pool completion order must not leak into the bytes: order the
  // profiles by their own serialized bytes.
  std::vector<std::string> objects;
  objects.reserve(profiles.size());
  for (const RunProfile* p : profiles) {
    if (!p) continue;
    std::ostringstream one;
    writeProfileObject(one, *p, std::string());
    objects.push_back(std::move(one).str());
  }
  std::sort(objects.begin(), objects.end());
  os << "{\"schema\":\"bgp.obs.profile-set/1\",\"profiles\":[";
  for (std::size_t i = 0; i < objects.size(); ++i) {
    if (i) os << ',';
    os << objects[i];
  }
  os << "]}\n";
}

}  // namespace bgp::obs
