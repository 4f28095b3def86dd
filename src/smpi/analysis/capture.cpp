#include "smpi/analysis/capture.hpp"

#include "smpi/comm.hpp"
#include "support/expect.hpp"

namespace bgp::smpi::analysis {

Capture::Capture(int nranks)
    : Observer(Stage::Record),
      graph_(nranks),
      rankSeq_(static_cast<std::size_t>(nranks), 0),
      lastArrival_(static_cast<std::size_t>(nranks), -1) {
  BGP_REQUIRE(nranks > 0);
}

bool Capture::full() {
  if (graph_.nodes().size() < maxOps_) return false;
  graph_.markTruncated();
  return true;
}

void Capture::noteComm(const Comm& comm) {
  if (graph_.comm(comm.id()) != nullptr) return;
  CommInfo info;
  info.size = comm.size();
  info.worldOfCommRank.reserve(static_cast<std::size_t>(comm.size()));
  for (int r = 0; r < comm.size(); ++r)
    info.worldOfCommRank.push_back(comm.worldRank(r));
  graph_.noteComm(comm.id(), std::move(info));
}

std::int32_t Capture::add(OpNode n) {
  n.rankSeq = rankSeq_[static_cast<std::size_t>(n.world)]++;
  return graph_.add(std::move(n));
}

std::int32_t Capture::idOf(int world, const OpState& op) const {
  if (op.kind != OpKind::Coll) {
    const auto it = byOp_.find(&op);
    return it == byOp_.end() ? -1 : it->second;
  }
  // The shared gate op has no byOp_ entry; find this rank's arrival.
  const std::int32_t last = lastArrival_[static_cast<std::size_t>(world)];
  if (last >= 0) {
    const OpNode& a = graph_.node(last);
    if (a.commId == op.commId && a.collSeq == op.collSeq) return last;
  }
  // The rank joined another gate since this one: scan its arrivals.
  if (const GateRecord* g = graph_.gate(op.commId, op.collSeq))
    for (const std::int32_t a : g->arrivals)
      if (graph_.node(a).world == world) return a;
  return -1;
}

void Capture::onIssue(const Comm& comm, const Request& op, sim::SimTime now) {
  if (full()) return;
  noteComm(comm);
  OpNode n;
  n.kind = op->kind;
  n.world = op->ownerWorld;
  n.commId = comm.id();
  n.commRank = comm.commRankOf(n.world);
  n.peer = op->peer;  // Recv: may be kAnySource
  n.tag = op->tag;    // Recv: may be kAnyTag
  n.bytes = op->bytes;
  n.expectedBytes = op->expectedBytes;
  n.time = now;
  byOp_.emplace(op.get(), add(std::move(n)));
  pinned_.push_back(op);
}

void Capture::onGateArrive(const Comm& comm, const CollGate& gate,
                           int commRank, const CollSig& sig,
                           sim::SimTime now) {
  if (full()) return;
  noteComm(comm);
  OpNode n;
  n.kind = OpKind::Coll;
  n.world = comm.worldRank(commRank);
  n.commId = comm.id();
  n.commRank = commRank;
  n.coll = sig;
  n.collSeq = gate.op->collSeq;
  n.time = now;
  const int world = n.world;
  const auto id = add(std::move(n));
  graph_.addGateArrival(comm.id(), gate.op->collSeq, id);
  lastArrival_[static_cast<std::size_t>(world)] = id;
}

void Capture::onGateComplete(const Comm& comm, const CollGate& gate,
                             double duration, sim::SimTime done) {
  GateRecord* g = graph_.gate(comm.id(), gate.op->collSeq);
  if (!g) return;  // opened after the budget hit
  g->dt = gate.sig.dt;
  g->bytes = gate.bytes;
  g->lastArrival = gate.lastArrival;
  g->duration = duration;
  g->done = done;
}

void Capture::onMatch(const Comm&, const Request& sendOp,
                      const Request& recvOp) {
  const std::int32_t s = idOf(sendOp->ownerWorld, *sendOp);
  const std::int32_t r = idOf(recvOp->ownerWorld, *recvOp);
  if (s < 0 || r < 0) return;  // one side recorded after the budget hit
  graph_.node(s).matched = r;
  graph_.node(r).matched = s;
}

void Capture::onWaitReturn(int world, const std::vector<Request>& ops,
                           std::size_t fired, sim::SimTime now) {
  if (full()) return;
  OpNode w;
  w.kind = OpKind::Wait;
  w.world = world;
  w.time = now;
  const std::int32_t wid = add(std::move(w));
  const auto waitOn = [&](const OpState& op) {
    const std::int32_t id = idOf(world, op);
    if (id < 0) return;
    graph_.node(wid).waited.push_back(id);
    OpNode& target = graph_.node(id);
    if (target.waitedAt < 0) target.waitedAt = wid;
  };
  if (fired == kAllOps) {
    for (const Request& op : ops) waitOn(*op);
  } else {
    waitOn(*ops[fired]);
  }
}

}  // namespace bgp::smpi::analysis
