#pragma once
// Runtime MPI correctness verifier.
//
// PARCOACH verifies MPI collective usage by static analysis of the real
// binary; at simulation time we can do the same checks dynamically and
// almost for free, because every operation already passes through the
// runtime.  When enabled (Simulation::enableVerifier) the verifier checks:
//
//  * collective call-sequence matching per communicator: every rank's
//    n-th collective must agree on operation kind, root, reduction
//    operator, element type, and payload size;
//  * point-to-point count mismatches: a receive that declares an expected
//    size (Rank::recv/irecv `expectedBytes`) must match the sender;
//  * finalize-time leaks: messages sent but never received (orphaned
//    sends), receives posted but never matched, requests completed but
//    never waited on, and sub-communicators created but never used.
//
// Every defect message names the offending rank(s) and operation.  With
// `failFast` (the default) the first defect throws VerifierError at the
// point of detection; in collecting mode defects accumulate and can be
// inspected via defects() — which is how the fault-fuzz tests assert that
// a faulted-but-correct program never trips the verifier.
//
// The verifier is an smpi::Observer at the Check stage: it never
// schedules events or perturbs timing, so enabling it cannot change
// simulated results, and it sees each event after the analysis capture
// has recorded it.

#include <cstdint>
#include <iosfwd>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "smpi/observer.hpp"

namespace bgp::smpi {

struct VerifierOptions {
  bool failFast = true;  // throw VerifierError at the first defect
};

/// Thrown when the verifier detects an MPI usage defect.
class VerifierError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Verifier final : public Observer {
 public:
  explicit Verifier(VerifierOptions options);

  // ---- Observer -----------------------------------------------------------
  /// Tracks every send/receive for finalize-time leak checks.
  void onIssue(const Comm& comm, const Request& op, sim::SimTime now) override;
  /// Checks a receive's declared expectation against the sender's size.
  void onMatch(const Comm& comm, const Request& sendOp,
               const Request& recvOp) override;
  /// Checks an arrival's signature against the gate's first arrival.
  void onGateArrive(const Comm& comm, const CollGate& gate, int commRank,
                    const CollSig& sig, sim::SimTime now) override;
  /// Runs finalize() over every communicator of `sim`.
  void onRunFinished(Simulation& sim, const RunResult& result) override;

  // ---- finalize -----------------------------------------------------------
  /// Run after a simulation completes without deadlock: scans every
  /// communicator's matching state and every tracked request for leaks.
  /// Throws VerifierError (listing all leaks) when failFast is set and
  /// anything was found.
  void finalize(const std::vector<const Comm*>& comms);

  /// All defects recorded so far (empty = clean program).
  const std::vector<std::string>& defects() const { return defects_; }
  bool clean() const { return defects_.empty(); }
  void report(std::ostream& os) const;

 private:
  void defect(const std::string& msg);

  VerifierOptions options_;
  std::vector<Request> tracked_;      // every p2p request created
  std::map<int, std::uint64_t> activity_;  // commId -> operation count
  std::vector<std::string> defects_;
};

}  // namespace bgp::smpi
