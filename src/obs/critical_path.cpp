// Critical-path extraction and logical-zeroing what-if replays — the
// finalize-time stages of obs::Profiler that reason over the recorded
// per-rank timelines plus the happens-before edges (message matches,
// gate arrivals) the analysis capture recorded.
//
// The path walk runs BACKWARD from the makespan: at (rank, t) it finds
// the recorded item covering t.  Compute spans are attributed directly;
// a blocking wait hops to the rank/time that released it — the matched
// sender's issue for receives (plus the receiver's post for rendezvous),
// the last gate arrival for collectives — and the blocked span is split
// into latency / serialization / queueing using the network model's own
// closed forms.  Spans the walk cannot explain are reported as
// "unattributed", never silently dropped, so the per-kind totals always
// sum to the path length and the length equals the makespan exactly
// (it is a single difference, not a float sum).
//
// The what-if replays keep the recorded dependency structure and
// per-rank program order but zero one cost class: zeroNetwork keeps
// compute and zeroes every transfer/collective span (the "infinitely
// fast network" bound); zeroCompute keeps each network span at its
// MEASURED duration — contention frozen as executed — and zeroes
// compute.  Both are lower-bound estimates, not re-simulations.

#include <algorithm>
#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/profiler.hpp"
#include "smpi/simulation.hpp"

namespace bgp::obs {

namespace {
// Safety cap on critical-path segments; a walk that exceeds it stops and
// reports the path incomplete.
constexpr std::size_t kMaxPathSegments = 1u << 16;
}  // namespace

void Profiler::computeCriticalPath(const smpi::RunResult& result) {
  namespace an = bgp::smpi::analysis;
  CriticalPath& cp = profile_.critical;
  const an::OpGraph& graph = cap_->graph();
  net::System& sys = sim_->system();
  const net::TorusNetwork& torus = sys.torusNetwork();
  const net::TorusParams& tp = torus.params();
  const double eagerThresh = sys.eagerThreshold();

  // Start on the rank that finished last.
  int rank = 0;
  for (int r = 1; r < profile_.nranks; ++r)
    if (result.finishTimes[static_cast<std::size_t>(r)] >
        result.finishTimes[static_cast<std::size_t>(rank)])
      rank = r;
  double t = result.finishTimes[static_cast<std::size_t>(rank)];
  const double start = t;

  std::vector<PathSegment> segs;  // built backward, reversed at the end
  const auto emit = [&](int rk, double b, double e, PathKind k,
                        std::string what) {
    if (!(e - b > 0)) return;
    segs.push_back(PathSegment{rk, b, e, k, std::move(what)});
  };

  bool complete = true;
  while (t > 0.0) {
    if (segs.size() >= kMaxPathSegments) {
      complete = false;
      break;
    }
    // Last item on `rank` beginning before t, skipping zero-width
    // entries (issues, ready-at-await waits): they consume no time and
    // hopping through one would teleport to a dependency that did not
    // constrain this instant.
    const auto& list = items_[static_cast<std::size_t>(rank)];
    const auto firstAfter = std::lower_bound(
        list.begin(), list.end(), t,
        [](const Item& it, double tt) { return it.begin < tt; });
    const Item* item = nullptr;
    for (auto it = firstAfter; it != list.begin();) {
      --it;
      if (it->kind != Item::Kind::Issue && it->end > it->begin) {
        item = &*it;
        break;
      }
    }
    if (!item) {
      emit(rank, 0.0, t, PathKind::Unattributed, "before first recorded op");
      t = 0.0;
      break;
    }
    if (item->end < t) {
      // Gap between the item and t (host-side zero-cost code, or the
      // finishing rank's tail).
      emit(rank, item->end, t, PathKind::Unattributed, "gap");
      t = item->end;
      continue;
    }

    if (item->kind == Item::Kind::Compute) {
      emit(rank, item->begin, t, PathKind::Compute, "compute");
      t = item->begin;
      continue;
    }

    // Blocking wait.  Resolve the releasing op.
    if (item->rec < 0) {
      emit(rank, item->begin, t, PathKind::Unattributed, "unknown release");
      t = item->begin;
      continue;
    }
    const an::OpNode& self = graph.node(item->rec);

    if (self.kind == smpi::OpKind::Coll) {
      const an::GateRecord* g = graph.gateOf(item->rec);
      if (g->done < 0 || g->lastArrival >= t) {
        emit(rank, item->begin, t, PathKind::Unattributed, "collective");
        t = item->begin;
        continue;
      }
      const char* name = collName(self.coll.kind);
      // The gate's span from its last arrival splits into the model's
      // zero-byte latency floor and the payload-dependent remainder.
      double lat = sys.collectives().cost(self.coll.kind,
                                          graph.comm(self.commId)->size, 0.0,
                                          g->dt, self.commId == 0);
      const double span = t - g->lastArrival;
      lat = std::min(std::max(lat, 0.0), span);
      emit(rank, g->lastArrival + lat, t, PathKind::Serialization, name);
      emit(rank, g->lastArrival, g->lastArrival + lat, PathKind::Latency,
           name);
      const std::int32_t lastNode =
          graph.lastGateArrival(self.commId, self.collSeq);
      if (lastNode >= 0) rank = graph.node(lastNode).world;
      t = g->lastArrival;
      continue;
    }

    // Point-to-point.  Find the causing issue through the matched
    // partner, if any.
    const bool relIsSend = self.kind == smpi::OpKind::Send;
    double sendIssue = 0.0, recvPost = 0.0;
    int sendWorld = -1, recvWorld = -1;
    double bytes = 0.0;
    bool matched = self.matched >= 0;
    if (matched) {
      const an::OpNode& partner = graph.node(self.matched);
      const an::OpNode& snd = relIsSend ? self : partner;
      const an::OpNode& rcv = relIsSend ? partner : self;
      sendIssue = snd.time;
      sendWorld = snd.world;
      recvPost = rcv.time;
      recvWorld = rcv.world;
      bytes = snd.bytes;
    } else if (relIsSend) {
      // Eager send completed at injection without a receiver yet.
      sendIssue = self.time;
      sendWorld = self.world;
      bytes = self.bytes;
      const an::CommInfo* ci = graph.comm(self.commId);
      recvWorld = (ci && self.peer >= 0 &&
                   self.peer < static_cast<int>(ci->worldOfCommRank.size()))
                      ? ci->worldOfCommRank[static_cast<std::size_t>(
                            self.peer)]
                      : self.world;
      recvPost = sendIssue;
    } else {
      emit(rank, item->begin, t, PathKind::Unattributed, "recv (unmatched)");
      t = item->begin;
      continue;
    }

    const bool eager = bytes <= eagerThresh;
    double cause;
    int causeRank;
    if (eager || !matched || sendIssue >= recvPost) {
      cause = sendIssue;
      causeRank = sendWorld;
    } else {
      cause = recvPost;  // rendezvous gated on the late receiver
      causeRank = recvWorld;
    }
    if (cause >= t || cause < 0) {
      emit(rank, item->begin, t, PathKind::Unattributed,
           relIsSend ? "send" : "recv");
      t = item->begin;
      continue;
    }

    const std::string what =
        (relIsSend ? std::string("send dst=") + std::to_string(recvWorld)
                   : std::string("recv src=") + std::to_string(sendWorld));
    const double span = t - cause;
    const topo::NodeId sn = sys.nodeOf(sendWorld);
    const topo::NodeId dn = sys.nodeOf(recvWorld);
    double ser, lat;
    if (sn == dn) {
      ser = bytes / tp.shmBandwidth;
      lat = tp.shmLatency;
    } else {
      ser = bytes / tp.linkBandwidth;
      if (relIsSend && eager) {
        // An eager send completes at injection: one software overhead,
        // no hop traversal on its own clock.
        lat = tp.swLatency;
      } else {
        lat = 2.0 * tp.swLatency +
              static_cast<double>(torus.torus().hopDistance(sn, dn)) *
                  tp.hopLatency;
      }
      if (!eager && matched) {
        // Rendezvous control round-trip (RTS + CTS at 64 bytes each).
        lat += torus.latencyEstimate(sn, dn, 64.0) +
               torus.latencyEstimate(dn, sn, 64.0);
      }
    }
    double queue = span - ser - lat;
    if (queue < 0) {
      // The model's floor exceeds the observed span (partner was already
      // underway when the block began): scale both down proportionally.
      const double floor = ser + lat;
      const double scale = floor > 0 ? span / floor : 0.0;
      ser *= scale;
      lat *= scale;
      queue = 0.0;
    }
    emit(rank, cause + lat + queue, t, PathKind::Serialization, what);
    emit(rank, cause + lat, cause + lat + queue, PathKind::Queueing, what);
    emit(rank, cause, cause + lat, PathKind::Latency, what);
    rank = causeRank;
    t = cause;
  }

  cp.complete = complete && t <= 0.0;
  cp.length = start - std::max(0.0, t);
  std::reverse(segs.begin(), segs.end());
  for (const PathSegment& s : segs) {
    const double d = s.end - s.begin;
    switch (s.kind) {
      case PathKind::Compute: cp.compute += d; break;
      case PathKind::Serialization: cp.serialization += d; break;
      case PathKind::Latency: cp.latency += d; break;
      case PathKind::Queueing: cp.queueing += d; break;
      case PathKind::Unattributed: cp.unattributed += d; break;
    }
  }
  cp.segments = std::move(segs);
}

double Profiler::replay(bool zeroNetwork, bool zeroCompute) const {
  namespace an = bgp::smpi::analysis;
  const an::OpGraph& graph = cap_->graph();
  const auto& nodes = graph.nodes();
  const double eagerThresh = sim_->system().eagerThreshold();
  const int n = profile_.nranks;

  // Per-p2p-record replay spec, indexed by node id: the graph nodes
  // whose (replayed) issue times gate it, and the measured
  // cause->completion span.
  struct P2pSpec {
    std::int32_t sendNode = -1;  // < 0: not replayable
    std::int32_t recvNode = -1;  // < 0: unmatched (eager fire-and-forget)
    bool eager = true;
    double span = 0.0;
  };
  std::vector<P2pSpec> p2p(nodes.size());
  for (std::size_t id = 0; id < nodes.size(); ++id) {
    const an::OpNode& self = nodes[id];
    if (self.kind != smpi::OpKind::Send && self.kind != smpi::OpKind::Recv)
      continue;
    if (self.completion < 0) continue;  // never completed: never waited
    P2pSpec& s = p2p[id];
    if (self.kind == smpi::OpKind::Send) {
      s.sendNode = static_cast<std::int32_t>(id);
      s.recvNode = self.matched;
    } else {
      s.recvNode = static_cast<std::int32_t>(id);
      s.sendNode = self.matched;
    }
    if (s.sendNode < 0) continue;  // unmatched recv: cannot replay
    const double bytes = graph.node(s.sendNode).bytes;
    s.eager = bytes <= eagerThresh || s.recvNode < 0;
    const double cause =
        s.eager ? graph.node(s.sendNode).time
                : std::max(graph.node(s.sendNode).time,
                           graph.node(s.recvNode).time);
    s.span = std::max(0.0, self.completion - cause);
  }

  // Completed gates, keyed by their record (first arrival node).
  struct GateReplay {
    int expected = 0;
    double duration = 0.0;
    int arrived = 0;
    double maxArrival = 0.0;
    double done = -1.0;
  };
  std::unordered_map<std::int32_t, GateReplay> gatesR;
  for (const auto& [key, g] : graph.gates()) {
    if (g.duration < 0) continue;
    gatesR.emplace(g.arrivals.front(),
                   GateReplay{graph.comm(key.first)->size, g.duration, 0, 0.0,
                              -1.0});
  }

  // Replayed issue time per graph node (p2p issues only), -1 = not yet.
  std::vector<double> newIssue(graph.nodes().size(), -1.0);

  const auto replayedCompletion = [&](std::int32_t rec, double& out) {
    if (rec < 0) return false;
    if (graph.node(rec).kind == smpi::OpKind::Coll) {
      const auto git = gatesR.find(rec);
      if (git == gatesR.end() || git->second.done < 0) return false;
      out = git->second.done;
      return true;
    }
    const P2pSpec& s = p2p[static_cast<std::size_t>(rec)];
    if (s.sendNode < 0) return false;
    double cause;
    if (s.eager) {
      if (newIssue[static_cast<std::size_t>(s.sendNode)] < 0) return false;
      cause = newIssue[static_cast<std::size_t>(s.sendNode)];
    } else {
      const double si = newIssue[static_cast<std::size_t>(s.sendNode)];
      const double ri = newIssue[static_cast<std::size_t>(s.recvNode)];
      if (si < 0 || ri < 0) return false;
      cause = std::max(si, ri);
    }
    out = cause + (zeroNetwork ? 0.0 : s.span);
    return true;
  };

  // Sweep the per-rank item streams; a rank parks at a Block whose ops
  // are not yet resolvable and is revisited next sweep.
  std::vector<std::size_t> idx(static_cast<std::size_t>(n), 0);
  std::vector<double> clock(static_cast<std::size_t>(n), 0.0);
  bool progress = true;
  while (progress) {
    progress = false;
    for (int r = 0; r < n; ++r) {
      const auto ri = static_cast<std::size_t>(r);
      const auto& list = items_[ri];
      while (idx[ri] < list.size()) {
        const Item& it = list[idx[ri]];
        if (it.kind == Item::Kind::Compute) {
          clock[ri] += zeroCompute ? 0.0 : (it.end - it.begin);
        } else if (it.kind == Item::Kind::Issue) {
          if (graph.node(it.rec).kind != smpi::OpKind::Coll) {
            newIssue[static_cast<std::size_t>(it.rec)] = clock[ri];
          } else if (const auto git = gatesR.find(recordOf(it.rec));
                     git != gatesR.end()) {
            GateReplay& g = git->second;
            ++g.arrived;
            g.maxArrival = std::max(g.maxArrival, clock[ri]);
            if (g.arrived >= g.expected)
              g.done = g.maxArrival + (zeroNetwork ? 0.0 : g.duration);
          }
        } else {  // Block
          double until = clock[ri];
          bool ok = true;
          if (it.any) {
            // Approximation: the replay resolves a waitAny against the
            // op that actually fired in the executed schedule.
            double c;
            ok = replayedCompletion(it.rec, c);
            if (ok) until = std::max(until, c);
          } else {
            const auto& wl = waitRecs_[ri];
            for (std::uint32_t k = 0; ok && k < it.waitCount; ++k) {
              double c;
              if (!replayedCompletion(wl[it.firstWait + k], c)) {
                ok = false;
              } else {
                until = std::max(until, c);
              }
            }
          }
          if (!ok) break;  // park; retry next sweep
          clock[ri] = until;
        }
        ++idx[ri];
        progress = true;
      }
    }
  }

  double makespan = 0.0;
  for (int r = 0; r < n; ++r) {
    if (idx[static_cast<std::size_t>(r)] !=
        items_[static_cast<std::size_t>(r)].size())
      return -1.0;  // a dependency never resolved
    makespan = std::max(makespan, clock[static_cast<std::size_t>(r)]);
  }
  return makespan;
}

void Profiler::computeWhatIf(const smpi::RunResult& result) {
  WhatIf& w = profile_.whatIf;
  w.measured = result.makespan;
  const double zn = replay(/*zeroNetwork=*/true, /*zeroCompute=*/false);
  const double zc = replay(/*zeroNetwork=*/false, /*zeroCompute=*/true);
  if (zn >= 0 && zc >= 0) {
    w.valid = true;
    w.zeroNetwork = zn;
    w.zeroCompute = zc;
  }
}

}  // namespace bgp::obs
