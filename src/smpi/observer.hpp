#pragma once
// The one runtime observer interface.  The verifier, the analysis capture
// and the profiler all watch a Simulation through it; each overrides the
// events it needs.
//
// A Simulation keeps one ordered list of observers and fans every runtime
// event out to it behind a single emptiness check, so an unobserved run
// pays one branch per event site and nothing else.  Observers never
// schedule events or otherwise perturb timing: every combination of them
// yields bitwise-identical makespans, finish times and event counts.
//
// Fan-out order is fixed by Stage: Record (the capture), then Profile
// (the profiler reads the record the capture just appended), then Check
// (the verifier).  A fail-fast verifier aborts the rank at the first
// defect, so it goes last: the capture has already recorded the arrival
// it aborts on, and the analyzer can localize it.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "smpi/types.hpp"

namespace bgp::smpi {

class Comm;
class Simulation;
struct CollGate;

class Observer {
 public:
  enum class Stage : std::uint8_t { Record, Profile, Check };

  /// `fired` value of onWaitReturn for wait/waitAll: every op returned.
  static constexpr std::size_t kAllOps = static_cast<std::size_t>(-1);

  explicit Observer(Stage stage) : stage_(stage) {}
  virtual ~Observer() = default;
  Observer(const Observer&) = delete;
  Observer& operator=(const Observer&) = delete;

  Stage stage() const { return stage_; }

  /// A send or receive was created (op->kind says which).
  virtual void onIssue(const Comm&, const Request&, sim::SimTime) {}
  /// A send was matched to a receive: eager delivery, rendezvous RTS
  /// arrival, or a receive finding a staged message.
  virtual void onMatch(const Comm&, const Request& /*sendOp*/,
                       const Request& /*recvOp*/) {}
  /// Comm rank `commRank` arrived at `gate` with signature `sig`.  The
  /// gate already holds its first arrival's signature and the shared op;
  /// its counters do not yet include this arrival.
  virtual void onGateArrive(const Comm&, const CollGate&, int /*commRank*/,
                            const CollSig&, sim::SimTime) {}
  /// The gate's last member arrived: every member resumes at `done` =
  /// gate.lastArrival + `duration` (the modeled cost).
  virtual void onGateComplete(const Comm&, const CollGate&,
                              double /*duration*/, sim::SimTime /*done*/) {}
  /// World rank `rank` starts `seconds` of compute.
  virtual void onCompute(int /*rank*/, sim::SimTime, double /*seconds*/) {}
  /// World rank `rank` suspended on a wait (only when it actually blocks).
  virtual void onBlockBegin(int /*rank*/, sim::SimTime) {}
  /// A wait returned to world rank `rank`: all of `ops` (fired ==
  /// kAllOps), or the one a waitAny fired.  Called whether or not the
  /// rank suspended.
  virtual void onWaitReturn(int /*rank*/, const std::vector<Request>& /*ops*/,
                            std::size_t /*fired*/, sim::SimTime) {}
  /// Simulation::run completed without deadlock or rank failure.
  virtual void onRunFinished(Simulation&, const RunResult&) {}

 private:
  Stage stage_;
};

}  // namespace bgp::smpi
