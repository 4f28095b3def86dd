// Tests for the runtime observer interface (src/smpi/observer.hpp): the
// event vocabulary and order a Simulation fans out, the fixed fan-out
// order of the built-in observers, and that no combination of observers
// changes a simulated result.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "arch/machines.hpp"
#include "smpi/simulation.hpp"

namespace bgp::smpi {
namespace {

/// Logs every event as one line (no timestamps: the test pins the
/// vocabulary and order, not the timing model).
class EventLog final : public Observer {
 public:
  EventLog() : Observer(Stage::Check) {}

  std::vector<std::string> events;

  void onIssue(const Comm& comm, const Request& op, sim::SimTime) override {
    std::ostringstream os;
    os << "issue " << toString(op->kind) << " rank " << op->ownerWorld
       << " peer " << op->peer << " tag " << op->tag << " comm "
       << comm.id();
    events.push_back(os.str());
  }
  void onMatch(const Comm& comm, const Request& sendOp,
               const Request& recvOp) override {
    std::ostringstream os;
    os << "match rank " << sendOp->ownerWorld << " -> rank "
       << recvOp->ownerWorld << " tag " << sendOp->tag << " comm "
       << comm.id();
    events.push_back(os.str());
  }
  void onGateArrive(const Comm& comm, const CollGate& gate, int commRank,
                    const CollSig& sig, sim::SimTime) override {
    std::ostringstream os;
    os << "arrive " << net::toString(sig.kind) << " #" << gate.op->collSeq
       << " comm " << comm.id() << " rank " << commRank << " (gate has "
       << gate.arrived << ")";
    events.push_back(os.str());
  }
  void onGateComplete(const Comm& comm, const CollGate& gate, double,
                      sim::SimTime) override {
    std::ostringstream os;
    os << "complete " << net::toString(gate.sig.kind) << " #"
       << gate.op->collSeq << " comm " << comm.id();
    events.push_back(os.str());
  }
  void onCompute(int rank, sim::SimTime, double) override {
    events.push_back("compute rank " + std::to_string(rank));
  }
  void onBlockBegin(int rank, sim::SimTime) override {
    events.push_back("block rank " + std::to_string(rank));
  }
  void onWaitReturn(int rank, const std::vector<Request>& ops,
                    std::size_t fired, sim::SimTime) override {
    std::ostringstream os;
    os << "wait rank " << rank << " ";
    if (fired == kAllOps) {
      os << "all of " << ops.size();
    } else {
      os << "any fired " << fired << " of " << ops.size();
    }
    events.push_back(os.str());
  }
  void onRunFinished(Simulation&, const RunResult&) override {
    events.push_back("finished");
  }
};

// Four ranks in two sub-communicators {0,1} and {2,3}.  Rank 0 sends
// eagerly to a rank-1 ANY_SOURCE receive; rank 3 sends two tagged
// messages that rank 2 collects with waitAny then wait; each half ends
// with a barrier on its sub-communicator.
sim::Task eventProgram(Rank& self, const std::vector<Comm*>& halves) {
  switch (self.id()) {
    case 0: {
      Request s = self.isend(1, 64.0, 7);
      co_await self.compute(1e-6);
      co_await self.wait(s);
      break;
    }
    case 1:
      co_await self.recv(kAnySource, 7);
      break;
    case 2: {
      std::vector<Request> rs{self.irecv(3, 1), self.irecv(3, 2)};
      const std::size_t first = co_await self.waitAny(rs);
      co_await self.wait(rs[1 - first]);
      break;
    }
    default:
      co_await self.send(2, 32.0, 2);
      co_await self.send(2, 32.0, 1);
      break;
  }
  co_await self.barrier(Simulation::commOf(halves, self.id()));
}

TEST(Observer, EventSequenceOfASmallProgram) {
  Simulation sim(arch::makeBGP(), 4);
  const std::vector<Comm*> halves = sim.splitWorld({0, 0, 1, 1});
  EventLog log;
  sim.attach(log);
  sim.run([&](Rank& self) { return eventProgram(self, halves); });
  const std::vector<std::string> expected = {
      "issue send rank 0 peer 1 tag 7 comm 0",
      "compute rank 0",
      "issue recv rank 1 peer -1 tag 7 comm 0",
      "block rank 1",
      "issue recv rank 2 peer 3 tag 1 comm 0",
      "issue recv rank 2 peer 3 tag 2 comm 0",
      "block rank 2",
      "issue send rank 3 peer 2 tag 2 comm 0",
      "block rank 3",
      "match rank 3 -> rank 2 tag 2 comm 0",
      "wait rank 3 all of 1",
      "issue send rank 3 peer 2 tag 1 comm 0",
      "block rank 3",
      "wait rank 2 any fired 1 of 2",
      "block rank 2",
      "match rank 0 -> rank 1 tag 7 comm 0",
      "wait rank 1 all of 1",
      "arrive Barrier #0 comm 1 rank 1 (gate has 0)",
      "block rank 1",
      "wait rank 0 all of 1",  // eager send done at injection: no block
      "arrive Barrier #0 comm 1 rank 0 (gate has 1)",
      "complete Barrier #0 comm 1",
      "block rank 0",
      "match rank 3 -> rank 2 tag 1 comm 0",
      "wait rank 3 all of 1",
      "arrive Barrier #0 comm 2 rank 1 (gate has 0)",
      "block rank 3",
      "wait rank 2 all of 1",
      "arrive Barrier #0 comm 2 rank 0 (gate has 1)",
      "complete Barrier #0 comm 2",
      "block rank 2",
      "wait rank 1 all of 1",
      "wait rank 0 all of 1",
      "wait rank 3 all of 1",
      "wait rank 2 all of 1",
      "finished",
  };
  EXPECT_EQ(log.events, expected);
}

TEST(Observer, FanOutOrderIsCaptureProfilerVerifier) {
  Simulation sim(arch::makeBGP(), 2);
  EventLog late;  // Stage::Check, attached first
  sim.attach(late);
  Verifier& verifier = sim.enableVerifier();
  obs::Profiler& profiler = sim.enableProfile();  // brings its capture
  const std::vector<Observer*>& list = sim.observers();
  ASSERT_EQ(list.size(), 4u);
  EXPECT_EQ(list[0], sim.capture());
  EXPECT_EQ(list[1], &profiler);
  // Same stage keeps attach order.
  EXPECT_EQ(list[2], &late);
  EXPECT_EQ(list[3], &verifier);
}

// A mixed program for the invariance check: eager and rendezvous p2p,
// an ANY_SOURCE receive, waitAny, compute, and world plus
// sub-communicator collectives.
sim::Task mixedProgram(Rank& self, const std::vector<Comm*>& halves) {
  const int n = self.size();
  const int right = (self.id() + 1) % n;
  const int left = (self.id() + n - 1) % n;
  co_await self.barrier();
  for (int iter = 0; iter < 3; ++iter) {
    const double bytes = iter == 1 ? 1 << 20 : 512.0;  // rendezvous once
    std::vector<Request> rs{self.irecv(left, iter), self.isend(right, bytes,
                                                                iter)};
    co_await self.compute(1e-6 * (1 + self.id() % 3));
    const std::size_t first = co_await self.waitAny(rs);
    co_await self.wait(rs[1 - first]);
  }
  if (self.id() == 0) {
    for (int k = 1; k < n; ++k) co_await self.recv(kAnySource, 99);
  } else {
    co_await self.send(0, 64.0, 99);
  }
  co_await self.allreduce(Simulation::commOf(halves, self.id()), 8.0);
  co_await self.bcast(4096.0, 0);
}

RunResult runMixed(bool verify, bool capture, bool profile) {
  Simulation sim(arch::machineByName("BG/P"), 12);
  const std::vector<Comm*> halves =
      sim.splitWorld({0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1});
  if (verify) sim.enableVerifier();
  if (capture) sim.enableCapture();
  if (profile) sim.enableProfile();
  return sim.run([&](Rank& self) { return mixedProgram(self, halves); });
}

TEST(Observer, NoCombinationOfObserversChangesTheRun) {
  const RunResult base = runMixed(false, false, false);
  ASSERT_GT(base.makespan, 0.0);
  for (int mask = 1; mask < 8; ++mask) {
    const RunResult r = runMixed(mask & 1, mask & 2, mask & 4);
    SCOPED_TRACE("verifier/capture/profiler mask " + std::to_string(mask));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.makespan),
              std::bit_cast<std::uint64_t>(base.makespan));
    EXPECT_EQ(r.events, base.events);
    ASSERT_EQ(r.finishTimes.size(), base.finishTimes.size());
    for (std::size_t i = 0; i < r.finishTimes.size(); ++i)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(r.finishTimes[i]),
                std::bit_cast<std::uint64_t>(base.finishTimes[i]))
          << "rank " << i;
  }
}

}  // namespace
}  // namespace bgp::smpi
