#include "obs/profiler.hpp"

#include <algorithm>
#include <utility>

#include "obs/breakdown.hpp"
#include "smpi/comm.hpp"
#include "smpi/rank.hpp"
#include "smpi/simulation.hpp"
#include "support/expect.hpp"

namespace bgp::obs {

namespace {
// Traffic histogram bin count; the bin width doubles (folding pairs)
// whenever the run outgrows it.
constexpr std::size_t kHistBins = 512;
}  // namespace

const char* toString(PathKind kind) {
  switch (kind) {
    case PathKind::Compute: return "compute";
    case PathKind::Serialization: return "serialization";
    case PathKind::Latency: return "latency";
    case PathKind::Queueing: return "queueing";
    case PathKind::Unattributed: return "unattributed";
  }
  return "?";
}

const char* Profiler::collName(net::CollKind kind) {
  switch (kind) {
    case net::CollKind::Barrier: return "barrier";
    case net::CollKind::Bcast: return "bcast";
    case net::CollKind::Reduce: return "reduce";
    case net::CollKind::Allreduce: return "allreduce";
    case net::CollKind::Allgather: return "allgather";
    case net::CollKind::Gather: return "gather";
    case net::CollKind::Scatter: return "scatter";
    case net::CollKind::Alltoall: return "alltoall";
    case net::CollKind::Alltoallv: return "alltoallv";
  }
  return "collective";
}

Profiler::Profiler(smpi::Simulation& sim, ProfileOptions options)
    : Observer(Stage::Profile),
      sim_(&sim),
      cap_(&sim.enableCapture()),
      options_(options) {
  cap_->setMaxOps(options_.maxOps);
  const auto n = static_cast<std::size_t>(sim.nranks());
  items_.resize(n);
  waitRecs_.resize(n);
  open_.assign(n, OpenBlock{});
  overlap_.assign(n, 0.0);
  sites_.assign(n, std::string());
  hist_.assign(kHistBins, 0.0);
  histBinSeconds_ = 1e-6;
  sim.system().torusNetwork().attachObserver(this);
}

Profiler::~Profiler() = default;

std::int32_t Profiler::recordOf(std::int32_t id) const {
  if (id < 0) return -1;
  const smpi::analysis::OpGraph& g = cap_->graph();
  if (g.node(id).kind != smpi::OpKind::Coll) return id;
  return g.gateOf(id)->arrivals.front();
}

sim::SimTime Profiler::completionOf(std::int32_t rec) const {
  const smpi::analysis::OpGraph& g = cap_->graph();
  if (g.node(rec).kind == smpi::OpKind::Coll) return g.gateOf(rec)->done;
  return g.node(rec).completion;
}

Profiler::SiteAgg& Profiler::siteAgg(int rank, const char* op) {
  return siteAggs_[{siteOf(rank), std::string(op)}];
}

bool Profiler::detailed() const {
  return !truncated_ && !cap_->graph().truncated();
}

void Profiler::checkBudget() {
  if (itemCount_ >= cap_->maxOps() * 4) truncated_ = true;
}

void Profiler::histAdd(sim::SimTime t, double bytes) {
  if (t < 0) t = 0;
  // Bit-pattern safety: a pathological timestamp would demand an absurd
  // fold count; drop it rather than loop.
  if (t / histBinSeconds_ > 1e15) return;
  auto idx = static_cast<std::size_t>(t / histBinSeconds_);
  while (idx >= hist_.size()) {
    // Outgrew the bins: double the width by folding adjacent pairs.
    const std::size_t half = hist_.size() / 2;
    for (std::size_t i = 0; i < half; ++i)
      hist_[i] = hist_[2 * i] + hist_[2 * i + 1];
    std::fill(hist_.begin() + static_cast<std::ptrdiff_t>(half), hist_.end(),
              0.0);
    histBinSeconds_ *= 2.0;
    idx = static_cast<std::size_t>(t / histBinSeconds_);
  }
  hist_[idx] += bytes;
}

// ---- runtime hooks ----------------------------------------------------------

std::int32_t Profiler::addIssue(int rank, sim::SimTime now) {
  // The capture saw this event first and appended the op's node.
  const auto id = static_cast<std::int32_t>(cap_->graph().nodes().size() - 1);
  items_[static_cast<std::size_t>(rank)].push_back(
      Item{Item::Kind::Issue, now, now, id, 0, 0, false});
  ++itemCount_;
  checkBudget();
  return id;
}

void Profiler::onIssue(const smpi::Comm&, const smpi::Request& op,
                       sim::SimTime now) {
  const int rank = op->ownerWorld;
  SiteAgg& agg = siteAgg(rank, smpi::toString(op->kind));
  ++agg.count;
  agg.bytes += op->bytes;
  if (!detailed()) return;
  const std::int32_t id = addIssue(rank, now);
  // Completion stamp: registered at issue, so it takes the OpState's
  // inline continuation slot (a profile-on-only cost; the awaiter's
  // continuation spills to the vector).
  op->onComplete([this, id] {
    smpi::analysis::OpNode& n = cap_->graph().node(id);
    if (n.completion < 0) n.completion = sim_->engine().now();
  });
}

void Profiler::onGateArrive(const smpi::Comm& comm, const smpi::CollGate&,
                            int commRank, const smpi::CollSig& sig,
                            sim::SimTime now) {
  const int rank = comm.worldRank(commRank);
  SiteAgg& agg = siteAgg(rank, collName(sig.kind));
  ++agg.count;
  agg.bytes += sig.bytes;
  if (detailed()) addIssue(rank, now);
}

void Profiler::onGateComplete(const smpi::Comm& comm,
                              const smpi::CollGate& gate, double duration,
                              sim::SimTime) {
  const net::CollKind kind = gate.sig.kind;
  CollAgg& agg = collAggs_[kind];
  ++agg.gates;
  agg.bytes += gate.bytes;
  agg.costSeconds += duration;
  const net::CollectiveModel& model = sim_->system().collectives();
  const bool full = comm.id() == 0;
  if (model.usesTreeNetwork(kind, full)) {
    ++agg.treeGates;
  } else if (model.usesBarrierNetwork(kind, full)) {
    ++agg.barrierGates;
  } else {
    ++agg.torusGates;
  }
}

void Profiler::onCompute(int rank, sim::SimTime now, double seconds) {
  if (!detailed()) return;
  items_[static_cast<std::size_t>(rank)].push_back(
      Item{Item::Kind::Compute, now, now + seconds, -1, 0, 0, false});
  ++itemCount_;
  checkBudget();
}

void Profiler::onBlockBegin(int rank, sim::SimTime now) {
  open_[static_cast<std::size_t>(rank)] = OpenBlock{now, true};
}

void Profiler::onWaitReturn(int rank, const std::vector<smpi::Request>& ops,
                            std::size_t fired, sim::SimTime now) {
  OpenBlock& ob = open_[static_cast<std::size_t>(rank)];
  const sim::SimTime begin = ob.open ? ob.begin : now;  // ready-at-await: 0-wide
  ob.open = false;

  std::vector<std::int32_t>& recs = scratch_;
  recs.clear();
  for (const auto& op : ops) recs.push_back(recordOf(cap_->idOf(rank, *op)));

  // The releasing op: the one a waitAny fired, or for wait/waitAll the
  // one that completed last (ties: the later list position — the engine
  // resumed us off its continuation last).
  const bool any = fired != kAllOps;
  std::int32_t release = any ? recs[fired] : -1;
  if (!any) {
    sim::SimTime best = -1.0;
    for (const std::int32_t rec : recs) {
      if (rec < 0) continue;
      const sim::SimTime c = completionOf(rec);
      if (c >= 0 && c >= best) {
        best = c;
        release = rec;
      }
    }
  }

  // Overlap actually achieved: for each waited op, the stretch between
  // its issue and the earlier of (block start, its completion) is time
  // the op progressed while the rank did other work.  Counted once per
  // op even across waitAny revisits.
  for (const std::int32_t rec : recs) {
    if (rec < 0) continue;
    smpi::analysis::OpNode& n = cap_->graph().node(rec);
    const sim::SimTime completion = completionOf(rec);
    if (completion < 0 || n.overlapCounted) continue;
    n.overlapCounted = true;
    const double ov = std::min(begin, completion) - n.time;
    if (ov > 0) overlap_[static_cast<std::size_t>(rank)] += ov;
  }

  const double dur = now - begin;
  if (dur > 0) {
    const smpi::analysis::OpNode* rel =
        release >= 0 ? &cap_->graph().node(release) : nullptr;
    const char* name =
        rel ? (rel->kind == smpi::OpKind::Coll ? collName(rel->coll.kind)
                                               : smpi::toString(rel->kind))
            : smpi::toString(ops[any ? fired : 0]->kind);
    siteAgg(rank, name).blockedSeconds += dur;
  }

  if (!detailed()) return;
  auto& wl = waitRecs_[static_cast<std::size_t>(rank)];
  Item item;
  item.kind = Item::Kind::Block;
  item.begin = begin;
  item.end = now;
  item.rec = release;
  item.firstWait = static_cast<std::uint32_t>(wl.size());
  item.waitCount = static_cast<std::uint32_t>(recs.size());
  item.any = any;
  wl.insert(wl.end(), recs.begin(), recs.end());
  items_[static_cast<std::size_t>(rank)].push_back(item);
  itemCount_ += 1 + recs.size();
  checkBudget();
}

void Profiler::onRunFinished(smpi::Simulation&,
                             const smpi::RunResult& result) {
  if (!finalized_) finalize(result);
}

// ---- net::TorusNetwork::LinkObserver ----------------------------------------

void Profiler::onLinkClaim(topo::LinkId link, sim::SimTime claim,
                           double serSeconds, double bytes,
                           double queuedSeconds) {
  const auto li = static_cast<std::size_t>(link);
  if (li >= linkBusy_.size()) {
    const auto n = static_cast<std::size_t>(
        sim_->system().torusNetwork().torus().linkCount());
    linkBytes_.resize(n, 0.0);
    linkBusy_.resize(n, 0.0);
    linkQueue_.resize(n, 0.0);
    linkClaims_.resize(n, 0);
  }
  linkBytes_[li] += bytes;
  linkBusy_[li] += serSeconds;
  if (queuedSeconds > 0) linkQueue_[li] += queuedSeconds;
  ++linkClaims_[li];
  histAdd(claim, bytes);
}

void Profiler::onShmTransfer(double bytes, sim::SimTime start) {
  (void)start;
  shmBytes_ += bytes;
  ++shmTransfers_;
}

// ---- labels -----------------------------------------------------------------

std::string Profiler::setSite(int rank, std::string label) {
  std::string& cur = sites_[static_cast<std::size_t>(rank)];
  std::swap(cur, label);
  return label;
}

// ---- finalize ---------------------------------------------------------------

void Profiler::finalize(const smpi::RunResult& result) {
  BGP_REQUIRE_MSG(!finalized_, "Profiler::finalize called twice");
  RunProfile& p = profile_;
  const int n = sim_->nranks();
  p.nranks = n;
  p.makespan = result.makespan;
  p.truncated = !detailed();
  p.engine.events = result.events;
  p.engine.peakPending = sim_->engine().peakPending();

  // Per-rank breakdown.  compute/blocked come from the runtime's own
  // RankStats counters (exact even if detailed recording truncated);
  // idle absorbs the remainder so each rank's row sums to the makespan.
  p.ranks.assign(static_cast<std::size_t>(n), RankBreakdown{});
  for (int r = 0; r < n; ++r) {
    const smpi::RankStats& s = sim_->rankStats(r);
    RankBreakdown& b = p.ranks[static_cast<std::size_t>(r)];
    b.compute = s.computeSeconds;
    b.p2pBlocked = s.p2pWaitSeconds;
    b.collBlocked = s.collWaitSeconds;
    b.idle = std::max(
        0.0, p.makespan - (b.compute + b.p2pBlocked + b.collBlocked));
    b.overlap = overlap_[static_cast<std::size_t>(r)];
    b.finish = result.finishTimes[static_cast<std::size_t>(r)];
    p.computeTotal += b.compute;
    p.p2pBlockedTotal += b.p2pBlocked;
    p.collBlockedTotal += b.collBlocked;
    p.idleTotal += b.idle;
    p.overlapTotal += b.overlap;
  }
  const StatsSummary sum =
      summarizeStats(&sim_->rankStats(0), static_cast<std::size_t>(n));
  p.sends = sum.sends;
  p.recvs = sum.recvs;
  p.collectives = sum.collectives;
  p.bytesSent = sum.bytesSent;
  p.computeImbalance = sum.computeImbalance;
  p.commFraction = sum.commFraction;

  // Sites, hottest first (deterministic tie-break on the key).
  p.sites.reserve(siteAggs_.size());
  for (const auto& [key, agg] : siteAggs_)
    p.sites.push_back(
        SiteStats{key.first, key.second, agg.count, agg.bytes,
                  agg.blockedSeconds});
  std::sort(p.sites.begin(), p.sites.end(),
            [](const SiteStats& a, const SiteStats& b) {
              if (a.blockedSeconds != b.blockedSeconds)
                return a.blockedSeconds > b.blockedSeconds;
              if (a.site != b.site) return a.site < b.site;
              return a.op < b.op;
            });

  // Collectives, sorted by kind name.
  for (const auto& [kind, agg] : collAggs_)
    p.colls.push_back(CollStats{collName(kind), agg.gates, agg.bytes,
                                agg.costSeconds, agg.treeGates,
                                agg.barrierGates, agg.torusGates});
  std::sort(p.colls.begin(), p.colls.end(),
            [](const CollStats& a, const CollStats& b) {
              return a.kind < b.kind;
            });

  // Network counters.
  const net::TorusNetwork& torus = sim_->system().torusNetwork();
  NetStats& net = p.net;
  net.linkCount = torus.torus().linkCount();
  net.shmBytes = shmBytes_;
  net.shmTransfers = shmTransfers_;
  std::vector<std::int32_t> used;
  for (std::size_t i = 0; i < linkClaims_.size(); ++i) {
    if (linkClaims_[i] == 0) continue;
    used.push_back(static_cast<std::int32_t>(i));
    net.bytesOnLinks += linkBytes_[i];
    net.linkClaims += linkClaims_[i];
  }
  net.linksUsed = static_cast<std::int64_t>(used.size());
  if (!used.empty() && p.makespan > 0) {
    double sumUtil = 0.0;
    for (const std::int32_t li : used) {
      const double u = linkBusy_[static_cast<std::size_t>(li)] / p.makespan;
      sumUtil += u;
      net.peakUtilization = std::max(net.peakUtilization, u);
    }
    net.meanUtilization = sumUtil / static_cast<double>(used.size());
  }
  std::sort(used.begin(), used.end(), [this](std::int32_t a, std::int32_t b) {
    const double ba = linkBusy_[static_cast<std::size_t>(a)];
    const double bb = linkBusy_[static_cast<std::size_t>(b)];
    if (ba != bb) return ba > bb;
    return a < b;
  });
  static constexpr const char* kDirNames[topo::kNumDirs] = {"x+", "x-", "y+",
                                                            "y-", "z+", "z-"};
  const int topK = std::max(0, options_.topK);
  for (std::size_t i = 0; i < used.size() && i < static_cast<std::size_t>(topK);
       ++i) {
    const std::int32_t li = used[i];
    const auto node = static_cast<topo::NodeId>(li / topo::kNumDirs);
    const topo::Coord3 c = torus.torus().coordOf(node);
    LinkStats ls;
    ls.link = li;
    ls.x = c.x;
    ls.y = c.y;
    ls.z = c.z;
    ls.dir = kDirNames[li % topo::kNumDirs];
    ls.claims = linkClaims_[static_cast<std::size_t>(li)];
    ls.bytes = linkBytes_[static_cast<std::size_t>(li)];
    ls.busySeconds = linkBusy_[static_cast<std::size_t>(li)];
    ls.queueSeconds = linkQueue_[static_cast<std::size_t>(li)];
    ls.utilization = p.makespan > 0 ? ls.busySeconds / p.makespan : 0.0;
    net.hotLinks.push_back(std::move(ls));
  }
  net.histBinSeconds = histBinSeconds_;
  std::size_t lastBin = hist_.size();
  while (lastBin > 0 && hist_[lastBin - 1] == 0.0) --lastBin;
  net.histBytes.assign(hist_.begin(),
                       hist_.begin() + static_cast<std::ptrdiff_t>(lastBin));

  // Critical path + what-ifs need the full op record and the capture's
  // happens-before edges; both are unavailable once truncated.
  if (!p.truncated) {
    computeCriticalPath(result);
    computeWhatIf(result);
  }

  // Release the detailed state; only the assembled RunProfile survives.
  sim_->system().torusNetwork().attachObserver(nullptr);
  items_.clear();
  waitRecs_.clear();
  scratch_.clear();
  open_.clear();
  overlap_.clear();
  sites_.clear();
  siteAggs_.clear();
  collAggs_.clear();
  linkBytes_.clear();
  linkBusy_.clear();
  linkQueue_.clear();
  linkClaims_.clear();
  hist_.clear();
  finalized_ = true;
  sim_ = nullptr;
  cap_ = nullptr;
}

// ---- SiteLabel --------------------------------------------------------------

SiteLabel::SiteLabel(smpi::Rank& rank, std::string label) {
  Profiler* prof = rank.sim().profiler();
  if (!prof) return;
  prof_ = prof;
  rank_ = rank.id();
  prev_ = prof->setSite(rank_, std::move(label));
}

SiteLabel::~SiteLabel() {
  if (prof_) prof_->setSite(rank_, std::move(prev_));
}

}  // namespace bgp::obs
