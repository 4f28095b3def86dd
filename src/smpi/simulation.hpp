#pragma once
// The simulation runtime: owns the engine, the machine System, the world
// communicator, and the per-rank coroutines.  See DESIGN.md §4.

#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "net/system.hpp"
#include "obs/breakdown.hpp"
#include "obs/profiler.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "sim/task.hpp"
#include "smpi/analysis/capture.hpp"
#include "smpi/comm.hpp"
#include "smpi/observer.hpp"
#include "smpi/rank.hpp"
#include "smpi/types.hpp"
#include "smpi/verifier.hpp"

namespace bgp::smpi {

/// A rank program: invoked once per rank to create its coroutine.
using RankProgram = std::function<sim::Task(Rank&)>;

class Simulation {
 public:
  Simulation(arch::MachineConfig machine, std::int64_t nranks,
             net::SystemOptions options = {}, std::uint64_t seed = 0x5eed);

  /// Runs `program` on every rank to completion; may be called once.
  /// Throws DeadlockError (with a wait-chain cycle report) if ranks block
  /// forever.  If exactly one rank program raised, its exception is
  /// rethrown unchanged; if several did, a RankFailures aggregates them.
  RunResult run(const RankProgram& program);

  net::System& system() { return *system_; }
  const net::System& system() const { return *system_; }
  sim::Engine& engine() { return engine_; }
  Comm& world() { return *world_; }
  int nranks() const { return static_cast<int>(nranks_); }

  /// Creates sub-communicators grouping world ranks by color (>= 0); a
  /// color of -1 leaves that rank out of every sub-communicator.  Returns
  /// pointers valid for the Simulation's lifetime, ordered by color.
  std::vector<Comm*> splitWorld(const std::vector<int>& colorPerWorldRank);

  /// The sub-communicator in `comms` containing `worldRank`.
  static Comm& commOf(const std::vector<Comm*>& comms, int worldRank);

  /// Throws OutOfMemoryError if a per-task allocation of `bytes` exceeds
  /// the execution mode's memory per task.
  void requireMemoryPerTask(double bytes) const;

  /// Per-rank activity counters (valid during and after run()).
  const RankStats& rankStats(int worldRank) const;

  /// Aggregated profile across all ranks.
  obs::StatsSummary profile() const;

  double computeTime(const arch::Work& w) const {
    return system_->computeTime(w);
  }

  // ---- fault injection -----------------------------------------------------
  /// Installs a deterministic fault plane (call before run()).  A config
  /// with every knob at zero is a no-op and leaves all timing byte-exact.
  void setFaults(const sim::FaultConfig& config);
  const sim::FaultPlane* faults() const { return faults_.get(); }

  /// Compute time for `w` on `worldRank`'s node, including any straggler
  /// slowdown from the fault plane.
  double computeTimeFor(const arch::Work& w, int worldRank) const;
  /// Straggler multiplier for `worldRank` (1.0 without faults).
  double slowdownFor(int worldRank) const;
  /// Extra OS-noise fraction contributed by the fault plane.
  double faultNoise() const;
  /// Throws sim::FaultError if `worldRank`'s node fail-stopped before now.
  void checkAlive(int worldRank) const;

  // ---- observers -----------------------------------------------------------
  // The verifier, the analysis capture and the profiler are Observers on
  // one ordered list (see smpi/observer.hpp); every runtime event fans out
  // to it behind one emptiness check.  Attach them before run().

  /// Adds `observer` to the fan-out list, after every attached observer
  /// of the same or an earlier Stage.  The caller keeps ownership.
  void attach(Observer& observer);
  const std::vector<Observer*>& observers() const { return observers_; }

  /// Enables the runtime MPI correctness verifier.
  Verifier& enableVerifier(VerifierOptions options = {});
  Verifier* verifier() const { return find<Verifier>(); }

  /// Enables communication capture; the returned Capture owns the
  /// op-graph the analysis passes consume.  Returns the attached capture
  /// if there already is one (an ObserverScope's, or the profiler's).
  analysis::Capture& enableCapture();
  analysis::Capture* capture() const { return find<analysis::Capture>(); }

  /// Enables profiling, and capture with it: the profiler reads its per-op
  /// facts from the capture's op-graph, which sits ahead of it in the
  /// list.  Returns the attached profiler if there already is one.  The
  /// profile is assembled by run() and read via profiler()->profile().
  obs::Profiler& enableProfile(obs::ProfileOptions options = {});
  obs::Profiler* profiler() const { return find<obs::Profiler>(); }

  /// The world communicator followed by every sub-communicator, in
  /// creation order.
  std::vector<const Comm*> comms() const;

  /// Aborts run() with WatchdogError once either budget is exceeded
  /// (0 = unlimited); forwards to sim::Engine::setWatchdog.
  void setWatchdog(std::uint64_t maxEvents, sim::SimTime maxSimSeconds) {
    engine_.setWatchdog(maxEvents, maxSimSeconds);
  }

  // ---- runtime internals used by Rank/awaitables ---------------------------
  Request startSend(int worldSrc, Comm& comm, int dstCommRank, double bytes,
                    int tag);
  Request postRecv(int worldDst, Comm& comm, int srcWanted, int tagWanted,
                   double expectedBytes = -1.0);
  Request joinCollective(Comm& comm, int commRank, net::CollKind kind,
                         double bytes, net::Dtype dt, int root = -1,
                         ReduceOp rop = ReduceOp::None);

  // Hot per-rank runtime state lives in SoA arrays sized once at startup
  // (not in Rank): the Rank objects stay thin handles, and the fields the
  // engine touches on every block/unblock pack densely instead of being
  // strewn across 131k Rank objects.
  RankStats& statsOf(int worldRank) {
    return stats_[static_cast<std::size_t>(worldRank)];
  }
  const char*& blockedOnOf(int worldRank) {
    return blockedOnByRank_[static_cast<std::size_t>(worldRank)];
  }
  const std::vector<Request>*& pendingOpsOf(int worldRank) {
    return pendingOpsByRank_[static_cast<std::size_t>(worldRank)];
  }

 private:
  void deliverEager(Comm& comm, int src, int dst, int tag, double bytes,
                    Request sendOp);
  void arriveRts(Comm& comm, int src, int dst, int tag, double bytes,
                 Request sendOp);
  void startRendezvousData(Comm& comm, int src, int dst, int tag,
                           double bytes, const Request& sendOp,
                           const Request& recvOp);
  template <typename T>
  T* find() const {
    for (Observer* o : observers_)
      if (auto* t = dynamic_cast<T*>(o)) return t;
    return nullptr;
  }

  /// "rank 3: recv(src=1, tag=7, comm 0)" for wait-chain reports.
  static std::string describeOp(const OpState& op);
  /// Appends a wait-for-graph cycle (if one exists) to deadlock reports.
  std::string deadlockCycleReport() const;

  arch::MachineConfig machine_;
  std::int64_t nranks_;
  sim::Engine engine_;
  std::unique_ptr<net::System> system_;
  std::unique_ptr<Comm> world_;
  std::deque<std::unique_ptr<Comm>> subComms_;
  int nextCommId_ = 1;
  std::vector<Rank> ranks_;  // thin handles; sized once in the constructor
  // SoA per-rank state (see statsOf/blockedOnOf/pendingOpsOf).
  std::vector<RankStats> stats_;
  std::vector<const char*> blockedOnByRank_;
  std::vector<const std::vector<Request>*> pendingOpsByRank_;
  std::unique_ptr<sim::FaultPlane> faults_;
  // Fan-out list in Stage order.  Entries are either owned_ (enable*())
  // or owned by the active ObserverScope, which outlives the Simulation.
  std::vector<Observer*> observers_;
  std::vector<std::unique_ptr<Observer>> owned_;
  bool ran_ = false;
};

/// Process-global RAII scope: while alive, every Simulation constructed
/// anywhere in the process gets an observer owned by the scope — a
/// Capture (Attach::Capture: smpilint) or a Profiler, with its capture
/// (Attach::Profile: bgpprof, bench --profile).  Process-global because
/// the bench harness builds Simulations on pool threads.  Scopes nest,
/// innermost wins; construct and destroy them from one thread at a time.
class ObserverScope {
 public:
  enum class Attach : std::uint8_t { Capture, Profile };

  explicit ObserverScope(Attach what, obs::ProfileOptions options = {});
  ~ObserverScope();
  ObserverScope(const ObserverScope&) = delete;
  ObserverScope& operator=(const ObserverScope&) = delete;

  /// The innermost live scope, or null.
  static ObserverScope* active();

  /// One entry per Simulation constructed under the scope (captures()
  /// under Attach::Capture, profilers() under Attach::Profile).  Under
  /// the bench pool the order is thread-schedule dependent; exporters
  /// sort by content.  Valid until the scope is destroyed.
  const std::vector<std::unique_ptr<analysis::Capture>>& captures() const {
    return captures_;
  }
  const std::vector<std::unique_ptr<obs::Profiler>>& profilers() const {
    return profilers_;
  }

 private:
  friend class Simulation;
  /// Called by Simulation's constructor (thread-safe).
  void attach(Simulation& sim);

  Attach what_;
  obs::ProfileOptions options_;
  ObserverScope* prev_;
  std::mutex mu_;
  std::vector<std::unique_ptr<analysis::Capture>> captures_;
  std::vector<std::unique_ptr<obs::Profiler>> profilers_;
};

}  // namespace bgp::smpi
