#pragma once
// Capture mode: records a Simulation's communication ops into an
// analysis::OpGraph as the run executes.
//
// Two ways to turn it on:
//  * Simulation::enableCapture() — for programs that own their
//    Simulation (tests, custom drivers);
//  * smpi::ObserverScope — an RAII scope that captures EVERY Simulation
//    constructed while it is alive.  This is how tools/smpilint wraps
//    existing scenario entry points (runHalo, runPop, runCommTests, ...)
//    without changing their signatures: the scope outlives the
//    Simulations and keeps their op-graphs.
//
// The capture is the runtime's one per-op record: an smpi::Observer at
// the Record stage, so it sees every event before the profiler (which
// reads the node just appended) and the verifier (whose fail-fast abort
// must not hide the arrival from the analyzer).  It never schedules
// events, so a captured run produces the same simulated timings as an
// uncaptured one.
//
// Cost when on: one OpNode per send/recv/collective-arrival/wait plus a
// pinned Request per p2p op (pinning keeps arena-recycled OpState
// addresses unique for the lifetime of the capture).  A run that exceeds
// the op budget stops recording and marks the graph truncated —
// reported, never silent.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "smpi/analysis/op_graph.hpp"
#include "smpi/observer.hpp"

namespace bgp::smpi::analysis {

/// Default op budget (graph nodes), sized for lint- and profile-scale
/// runs.  A profiler sets its capture's budget from ProfileOptions.
inline constexpr std::size_t kDefaultMaxOps = 4u << 20;

class Capture final : public Observer {
 public:
  explicit Capture(int nranks);

  // ---- Observer ------------------------------------------------------------
  void onIssue(const Comm& comm, const Request& op, sim::SimTime now) override;
  void onMatch(const Comm& comm, const Request& sendOp,
               const Request& recvOp) override;
  void onGateArrive(const Comm& comm, const CollGate& gate, int commRank,
                    const CollSig& sig, sim::SimTime now) override;
  void onGateComplete(const Comm& comm, const CollGate& gate, double duration,
                      sim::SimTime done) override;
  void onWaitReturn(int world, const std::vector<Request>& ops,
                    std::size_t fired, sim::SimTime now) override;

  // ---- results ---------------------------------------------------------
  OpGraph& graph() { return graph_; }
  const OpGraph& graph() const { return graph_; }
  std::size_t maxOps() const { return maxOps_; }
  void setMaxOps(std::size_t maxOps) { maxOps_ = maxOps; }

  /// Record id (graph node) of `op` as seen by world rank `world`: the
  /// op's own node for a send/recv, the rank's arrival for a collective
  /// gate.  -1 when the op was not recorded (the capture was full).
  std::int32_t idOf(int world, const OpState& op) const;

 private:
  bool full();
  void noteComm(const Comm& comm);
  std::int32_t add(OpNode n);

  std::size_t maxOps_ = kDefaultMaxOps;
  OpGraph graph_;
  std::vector<int> rankSeq_;  // next program-order index per world rank
  // Latest gate arrival per world rank: a rank's wait on a collective
  // almost always returns the gate it joined last, so this resolves it
  // without scanning the gate's arrival list.
  std::vector<std::int32_t> lastArrival_;
  std::unordered_map<const OpState*, std::int32_t> byOp_;
  std::vector<Request> pinned_;
};

}  // namespace bgp::smpi::analysis
