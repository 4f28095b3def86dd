#include "smpi/analysis/op_graph.hpp"

#include <algorithm>
#include <sstream>

#include "support/expect.hpp"

namespace bgp::smpi::analysis {

std::int32_t OpGraph::add(OpNode n) {
  BGP_REQUIRE(n.world >= 0 && n.world < nranks_);
  BGP_CHECK_MSG(clocks_.empty(), "op-graph frozen after computeClocks()");
  const auto id = static_cast<std::int32_t>(nodes_.size());
  nodes_.push_back(std::move(n));
  return id;
}

void OpGraph::addGateArrival(int commId, std::uint64_t seq,
                             std::int32_t nodeId) {
  gates_[{commId, seq}].arrivals.push_back(nodeId);
}

const GateRecord* OpGraph::gate(int commId, std::uint64_t seq) const {
  const auto it = gates_.find({commId, seq});
  return it == gates_.end() ? nullptr : &it->second;
}


std::int32_t OpGraph::lastGateArrival(int commId, std::uint64_t seq) const {
  const GateRecord* g = gate(commId, seq);
  if (!g) return -1;
  std::int32_t last = -1;
  for (const std::int32_t a : g->arrivals)
    if (last < 0 || node(a).time >= node(last).time) last = a;
  return last;
}

void OpGraph::noteComm(int commId, CommInfo info) {
  comms_.emplace(commId, std::move(info));
}

const CommInfo* OpGraph::comm(int commId) const {
  const auto it = comms_.find(commId);
  return it == comms_.end() ? nullptr : &it->second;
}

void OpGraph::computeClocks() {
  if (!clocks_.empty()) return;
  const auto R = static_cast<std::size_t>(nranks_);
  const std::size_t N = nodes_.size();
  clocks_.assign(N * R, 0);

  // Running clock of each rank's program-order chain.
  std::vector<std::uint32_t> rankClock(R * R, 0);
  const auto rankRow = [&](int world) {
    return rankClock.data() + static_cast<std::size_t>(world) * R;
  };
  const auto join = [&](std::uint32_t* into, const std::uint32_t* from) {
    for (std::size_t k = 0; k < R; ++k) into[k] = std::max(into[k], from[k]);
  };

  for (std::size_t i = 0; i < N; ++i) {
    const OpNode& n = nodes_[i];
    std::uint32_t* vc = clocks_.data() + i * R;
    std::copy_n(rankRow(n.world), R, vc);
    if (n.kind == OpKind::Wait) {
      // A wait-return learns of everything its completed ops imply: the
      // matched sender's issue for receives, every member's arrival for
      // collectives.  All those nodes were created earlier (the engine
      // completed the ops before resuming this rank), so their rows are
      // final.
      for (const std::int32_t opId : n.waited) {
        const OpNode& op = nodes_[static_cast<std::size_t>(opId)];
        if (op.kind == OpKind::Recv && op.matched >= 0) {
          join(vc, clockRow(op.matched));
        } else if (op.kind == OpKind::Coll) {
          if (const GateRecord* g = gateOf(opId))
            for (const std::int32_t a : g->arrivals) join(vc, clockRow(a));
        }
      }
    }
    vc[static_cast<std::size_t>(n.world)] += 1;
    std::copy_n(vc, R, rankRow(n.world));
  }
}

bool OpGraph::happensBefore(std::int32_t a, std::int32_t b) const {
  BGP_REQUIRE_MSG(!clocks_.empty(), "call computeClocks() first");
  if (a == b) return false;
  const OpNode& na = nodes_[static_cast<std::size_t>(a)];
  const std::uint32_t counterA =
      clockRow(a)[static_cast<std::size_t>(na.world)];
  return clockRow(b)[static_cast<std::size_t>(na.world)] >= counterA;
}

std::string OpGraph::describe(std::int32_t id) const {
  const OpNode& n = nodes_[static_cast<std::size_t>(id)];
  std::ostringstream os;
  os << "rank " << n.world << " op#" << n.rankSeq << " ";
  switch (n.kind) {
    case OpKind::Send:
      os << "send(dst=" << n.peer << ", tag=" << n.tag
         << ", bytes=" << n.bytes;
      break;
    case OpKind::Recv:
      os << "recv(src="
         << (n.peer == kAnySource ? std::string("ANY")
                                  : std::to_string(n.peer))
         << ", tag="
         << (n.tag == kAnyTag ? std::string("ANY") : std::to_string(n.tag));
      if (n.expectedBytes >= 0) os << ", expect=" << n.expectedBytes;
      break;
    case OpKind::Coll:
      os << net::toString(n.coll.kind) << "(#" << n.collSeq;
      if (n.coll.root >= 0) os << ", root=" << n.coll.root;
      break;
    case OpKind::Wait:
      os << "wait(" << n.waited.size() << " op"
         << (n.waited.size() == 1 ? "" : "s");
      break;
  }
  os << ", comm " << n.commId << ")";
  return os.str();
}

}  // namespace bgp::smpi::analysis
