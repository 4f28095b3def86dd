#include "smpi/verifier.hpp"

#include <ostream>
#include <sstream>

#include "smpi/comm.hpp"
#include "smpi/simulation.hpp"
#include "support/expect.hpp"

namespace bgp::smpi {

namespace {

std::string rankName(const Comm& comm, int commRank) {
  std::ostringstream os;
  os << "rank " << comm.worldRank(commRank);
  if (comm.id() != 0) os << " (comm " << comm.id() << " rank " << commRank << ")";
  return os.str();
}

std::string sourceName(const Comm& comm, int srcCommRank) {
  return srcCommRank == kAnySource ? std::string("ANY_SOURCE")
                                   : rankName(comm, srcCommRank);
}

std::string tagName(int tag) {
  return tag == kAnyTag ? std::string("ANY_TAG") : std::to_string(tag);
}

std::string describeCall(const CollSig& sig) {
  std::ostringstream os;
  os << net::toString(sig.kind) << "(bytes=" << sig.bytes
     << ", elem=" << net::bytesOf(sig.dt) << " B";
  if (sig.root >= 0) os << ", root=" << sig.root;
  if (sig.rop != ReduceOp::None) os << ", op=" << toString(sig.rop);
  os << ")";
  return os.str();
}

}  // namespace

Verifier::Verifier(VerifierOptions options)
    : Observer(Stage::Check), options_(options) {}

void Verifier::defect(const std::string& msg) {
  defects_.push_back(msg);
  if (options_.failFast) throw VerifierError("verifier: " + msg);
}

void Verifier::onGateArrive(const Comm& comm, const CollGate& gate,
                            int commRank, const CollSig& sig, sim::SimTime) {
  ++activity_[comm.id()];
  if (gate.arrived == 0) return;  // this arrival opened the gate
  const CollSig& first = gate.sig;
  const char* mismatch =
      first.kind != sig.kind   ? "collective mismatch"
      : first.root != sig.root ? "collective root mismatch"
      : first.rop != sig.rop   ? "collective reduce-op mismatch"
      : net::bytesOf(first.dt) != net::bytesOf(sig.dt)
          ? "collective element-size mismatch"
      : first.bytes != sig.bytes ? "collective count mismatch"
                                 : nullptr;
  if (!mismatch) return;
  std::ostringstream os;
  os << mismatch << " on comm " << comm.id() << ", collective #"
     << gate.op->collSeq << ": " << rankName(comm, commRank) << " called "
     << describeCall(sig) << " but " << rankName(comm, gate.firstRank)
     << " called " << describeCall(first);
  defect(os.str());
}

void Verifier::onIssue(const Comm& comm, const Request& op, sim::SimTime) {
  ++activity_[comm.id()];
  tracked_.push_back(op);
}

void Verifier::onMatch(const Comm& comm, const Request& sendOp,
                       const Request& recvOp) {
  const double expectedBytes = recvOp->expectedBytes;
  if (expectedBytes < 0 || expectedBytes == sendOp->bytes) return;
  std::ostringstream os;
  os << "p2p count mismatch: "
     << rankName(comm, comm.commRankOf(recvOp->ownerWorld)) << " expected "
     << expectedBytes << " B (tag " << tagName(sendOp->tag) << ") but "
     << rankName(comm, comm.commRankOf(sendOp->ownerWorld)) << " sent "
     << sendOp->bytes << " B";
  defect(os.str());
}

void Verifier::onRunFinished(Simulation& sim, const RunResult&) {
  finalize(sim.comms());
}

void Verifier::finalize(const std::vector<const Comm*>& comms) {
  std::vector<std::string> leaks;

  for (const Comm* comm : comms) {
    // Both enumerations come back grouped by dst in FIFO order; merge them
    // into the per-destination staged-then-posted interleaving the leak
    // reports have always used.
    const auto staged = comm->match_.stagedLeaks();
    const auto posted = comm->match_.postedLeaks();
    std::size_t si = 0, pi = 0;
    for (int dst = 0; dst < comm->size(); ++dst) {
      for (; si < staged.size() && staged[si].dst == dst; ++si) {
        const auto& msg = staged[si];
        std::ostringstream os;
        os << "orphaned send: " << rankName(*comm, msg.src) << " sent "
           << msg.bytes << " B (tag " << msg.tag << ") to "
           << rankName(*comm, dst) << " but it was never received";
        leaks.push_back(os.str());
      }
      for (; pi < posted.size() && posted[pi].dst == dst; ++pi) {
        std::ostringstream os;
        os << "pending receive at finalize: " << rankName(*comm, dst)
           << " posted recv(src=" << sourceName(*comm, posted[pi].src)
           << ", tag=" << tagName(posted[pi].tag) << ") that never matched";
        leaks.push_back(os.str());
      }
    }
    // A sub-communicator nobody ever used is the simulator's analogue of
    // an unfreed communicator handle.
    if (comm->id() != 0 && activity_[comm->id()] == 0) {
      std::ostringstream os;
      os << "leaked communicator: comm " << comm->id() << " (size "
         << comm->size() << ") was created but never used";
      leaks.push_back(os.str());
    }
  }

  for (const Request& op : tracked_) {
    if (op->complete && !op->waited) {
      std::ostringstream os;
      os << "leaked request: rank " << op->ownerWorld << " "
         << toString(op->kind)
         << "(peer=" << (op->peer == kAnySource ? std::string("ANY")
                                                : std::to_string(op->peer))
         << ", tag=" << tagName(op->tag) << ", comm " << op->commId
         << ") completed but was never waited on";
      leaks.push_back(os.str());
    }
  }

  if (leaks.empty()) return;
  for (const auto& l : leaks) defects_.push_back(l);
  if (options_.failFast) {
    std::ostringstream os;
    os << "verifier: " << leaks.size() << " leak(s) at finalize:";
    for (const auto& l : leaks) os << "\n  - " << l;
    throw VerifierError(os.str());
  }
}

void Verifier::report(std::ostream& os) const {
  if (defects_.empty()) {
    os << "verifier: no defects detected\n";
    return;
  }
  os << "verifier: " << defects_.size() << " defect(s):\n";
  for (const auto& d : defects_) os << "  - " << d << "\n";
}

}  // namespace bgp::smpi
