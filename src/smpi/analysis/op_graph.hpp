#pragma once
// The communication op-graph: the schedule-independent record of one
// simulated run that the static analysis passes reason over.
//
// A capture-enabled Simulation (see capture.hpp) appends one node per
// runtime event — send issue, receive post, collective arrival, wait
// return — in the order the event engine executed them.  Because the
// engine's execution order is one linearization of the program's
// happens-before partial order, that creation order is a valid
// topological order of the graph, and vector clocks can be computed in a
// single forward pass.
//
// Happens-before edges (computeClocks):
//  * program order: consecutive nodes of the same rank;
//  * message edges: a send's issue happens-before the wait that returns
//    its matched receive;
//  * collective edges: every member's arrival at a gate happens-before
//    every member's wait-return on that gate (collectives are treated as
//    full synchronizations — conservative for rooted operations, see
//    docs/static-analysis.md).
//
// The passes (passes.hpp) never look at simulated timestamps except for
// diagnostics: everything is decided on the partial order, which is what
// makes the verdicts hold for all feasible schedules, not just the one
// the engine happened to execute.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "net/collective_model.hpp"
#include "sim/engine.hpp"
#include "smpi/types.hpp"

namespace bgp::smpi::analysis {

/// One captured runtime event — the runtime's single per-op record, read
/// by the analysis passes and by obs::Profiler.  Fields that do not apply
/// to a kind keep their defaults (e.g. coll on a Send).
struct OpNode {
  OpKind kind = OpKind::Send;
  int world = -1;     // issuing world rank
  int rankSeq = -1;   // per-rank program-order index (0-based)
  int commId = -1;
  int commRank = -1;  // issuer's rank within the communicator
  int peer = -1;      // Send: dst comm rank; Recv: wanted src (may be ANY)
  int tag = -1;       // Send: tag; Recv: wanted tag (may be ANY)
  double bytes = 0.0;           // Send: payload (Coll: coll.bytes)
  double expectedBytes = -1.0;  // Recv only; < 0 = undeclared

  // Collective arrivals: this member's call and the gate it joined.
  CollSig coll;
  std::uint64_t collSeq = 0;

  // Cross links (node ids; -1 = none).
  std::int32_t matched = -1;   // Send <-> Recv partner, set on both sides
  std::int32_t waitedAt = -1;  // first Wait node that consumed this op
  std::vector<std::int32_t> waited;  // Wait only: the ops it returned

  sim::SimTime time = 0.0;  // issue time in the executed schedule (diag)

  // Profiler bookkeeping (send/recv, and a gate's first arrival, which
  // stands for the whole gate).
  sim::SimTime completion = -1.0;  // < 0: never completed / not stamped
  bool overlapCounted = false;     // overlap already credited to a rank
};

/// One collective gate: its arrivals plus what the runtime charged for
/// it once the last member arrived.
struct GateRecord {
  std::vector<std::int32_t> arrivals;  // arrival node ids, arrival order
  net::Dtype dt{};                     // the first arrival's
  double bytes = 0.0;                  // max payload over arrivals
  sim::SimTime lastArrival = -1.0;
  double duration = -1.0;  // < 0: the gate never completed
  sim::SimTime done = -1.0;
};

/// Communicator membership, recorded once per communicator so findings
/// can name world ranks and the collective pass knows who must take part.
struct CommInfo {
  int size = 0;
  std::vector<int> worldOfCommRank;
};

class OpGraph {
 public:
  explicit OpGraph(int nranks) : nranks_(nranks) {}

  int nranks() const { return nranks_; }
  const std::vector<OpNode>& nodes() const { return nodes_; }
  const OpNode& node(std::int32_t id) const {
    return nodes_[static_cast<std::size_t>(id)];
  }
  OpNode& node(std::int32_t id) { return nodes_[static_cast<std::size_t>(id)]; }

  /// Appends a node (creation order must be the engine's execution
  /// order); returns its id.
  std::int32_t add(OpNode n);

  void addGateArrival(int commId, std::uint64_t seq, std::int32_t nodeId);
  /// Gate (commId, seq), or null for an unknown gate.
  const GateRecord* gate(int commId, std::uint64_t seq) const;
  GateRecord* gate(int commId, std::uint64_t seq) {
    return const_cast<GateRecord*>(std::as_const(*this).gate(commId, seq));
  }
  /// The gate a Coll node arrived at, or null.
  const GateRecord* gateOf(std::int32_t collNode) const {
    const OpNode& n = node(collNode);
    return gate(n.commId, n.collSeq);
  }
  /// The arrival node of gate (commId, seq) with the latest issue time —
  /// the member the collective gated on (ties: the later arrival in
  /// engine order wins, matching the runtime's last-arrival bookkeeping).
  /// Returns -1 for an unknown gate.
  std::int32_t lastGateArrival(int commId, std::uint64_t seq) const;
  /// All gates, keyed (commId, collSeq), ascending.
  const std::map<std::pair<int, std::uint64_t>, GateRecord>& gates() const {
    return gates_;
  }

  void noteComm(int commId, CommInfo info);
  const CommInfo* comm(int commId) const;
  const std::map<int, CommInfo>& comms() const { return comms_; }

  /// True once the capture hit its op budget and stopped recording; the
  /// graph is then a prefix of the run and verdicts only cover it.
  bool truncated() const { return truncated_; }
  void markTruncated() { truncated_ = true; }

  // ---- happens-before --------------------------------------------------
  /// Computes vector clocks over all nodes (idempotent; O(nodes x ranks)).
  void computeClocks();
  bool clocksComputed() const { return !clocks_.empty(); }

  /// Strict happens-before under the captured partial order.  Requires
  /// computeClocks().  hb(a, a) is false; concurrent nodes are those with
  /// !hb(a, b) && !hb(b, a).
  bool happensBefore(std::int32_t a, std::int32_t b) const;

  /// "a happened by then" helper: true when `wait` is a valid node id and
  /// happensBefore(wait, b).  A -1 wait id (op never waited) yields false.
  bool waitedBefore(std::int32_t wait, std::int32_t b) const {
    return wait >= 0 && happensBefore(wait, b);
  }

  /// Short human id, e.g. "rank 3 op#7 recv(src=ANY, tag=5, comm 0)".
  std::string describe(std::int32_t id) const;

 private:
  const std::uint32_t* clockRow(std::int32_t id) const {
    return clocks_.data() +
           static_cast<std::size_t>(id) * static_cast<std::size_t>(nranks_);
  }

  int nranks_;
  bool truncated_ = false;
  std::vector<OpNode> nodes_;
  std::map<std::pair<int, std::uint64_t>, GateRecord> gates_;
  std::map<int, CommInfo> comms_;
  std::vector<std::uint32_t> clocks_;  // nodes x nranks, row-major
};

}  // namespace bgp::smpi::analysis
