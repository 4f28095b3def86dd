#pragma once
// The profiling plane: an smpi::Observer at the Profile stage (see
// smpi/observer.hpp).  It never schedules events, so a profile-on run
// produces identical simulated timings, and a profile-off run pays one
// emptiness check per runtime event.
//
// Three ways to turn it on:
//  * Simulation::enableProfile() — programs that own their Simulation;
//  * smpi::ObserverScope(Attach::Profile) — profiles EVERY Simulation
//    constructed while it is alive, process-wide;
//  * tools/bgpprof — wraps the scenario registry in such a scope.
//
// The profiler keeps no per-op table of its own: issue and completion
// times, sizes, matches and gate costs live in the analysis capture's
// op-graph, which every profiled Simulation carries ahead of the profiler
// in its observer list.  The critical-path walk and the what-if replays
// reuse the same graph's happens-before edges.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/collective_model.hpp"
#include "net/torus_network.hpp"
#include "obs/profile.hpp"
#include "smpi/analysis/capture.hpp"
#include "smpi/observer.hpp"

namespace bgp::smpi {
class Rank;
}

namespace bgp::obs {

struct ProfileOptions {
  /// Op budget of the profiled run's record (op-graph nodes; timeline
  /// items get four times as many).  Past it the profile is marked
  /// truncated and loses the critical path and what-ifs, but breakdowns
  /// and counters stay exact.
  std::size_t maxOps = smpi::analysis::kDefaultMaxOps;
  /// Hot links reported (top-K by busy time).
  int topK = 10;
};

class Profiler final : public smpi::Observer,
                       public net::TorusNetwork::LinkObserver {
 public:
  /// Attaches to `sim`: enables its capture (the record this profiler
  /// reads), sizes the capture's budget from `options`, and wires itself
  /// as the torus network's link observer.  The caller attaches the
  /// profiler to `sim`'s observer list.  `sim` must outlive every event;
  /// finalize() severs the connection, after which only profile()
  /// remains valid.
  Profiler(smpi::Simulation& sim, ProfileOptions options);
  ~Profiler() override;

  // ---- smpi::Observer --------------------------------------------------
  void onIssue(const smpi::Comm& comm, const smpi::Request& op,
               sim::SimTime now) override;
  void onGateArrive(const smpi::Comm& comm, const smpi::CollGate& gate,
                    int commRank, const smpi::CollSig& sig,
                    sim::SimTime now) override;
  void onGateComplete(const smpi::Comm& comm, const smpi::CollGate& gate,
                      double duration, sim::SimTime done) override;
  void onCompute(int rank, sim::SimTime now, double seconds) override;
  void onBlockBegin(int rank, sim::SimTime now) override;
  /// A ready-at-await wait is a zero-width block, which still matters to
  /// the what-if dependency replay.
  void onWaitReturn(int rank, const std::vector<smpi::Request>& ops,
                    std::size_t fired, sim::SimTime now) override;
  void onRunFinished(smpi::Simulation& sim,
                     const smpi::RunResult& result) override;

  // ---- net::TorusNetwork::LinkObserver ---------------------------------
  void onLinkClaim(topo::LinkId link, sim::SimTime claim, double serSeconds,
                   double bytes, double queuedSeconds) override;
  void onShmTransfer(double bytes, sim::SimTime start) override;

  // ---- call-site labels ------------------------------------------------
  /// Sets `rank`'s current mpiP-style call-site label ("" = unlabeled);
  /// returns the previous label.  Prefer the SiteLabel RAII guard.
  std::string setSite(int rank, std::string label);

  /// Assembles the RunProfile (run by onRunFinished while the Simulation
  /// is still alive); releases all detailed state.
  void finalize(const smpi::RunResult& result);
  bool finalized() const { return finalized_; }
  const RunProfile& profile() const { return profile_; }

 private:
  // One recorded timeline item.  Per rank, items append in program order
  // (a rank is sequential), which the critical-path walk and the what-if
  // replay both rely on.  `rec` is an op-graph node id (-1 = none): for
  // Issue the rank's own send/recv/arrival node, for Block the record of
  // the op that released the wait.
  struct Item {
    enum class Kind : std::uint8_t { Compute, Block, Issue };
    Kind kind = Kind::Issue;
    sim::SimTime begin = 0.0;
    sim::SimTime end = 0.0;        // Compute/Block only
    std::int32_t rec = -1;
    std::uint32_t firstWait = 0;   // Block: slice into waitRecs_
    std::uint32_t waitCount = 0;
    bool any = false;              // Block came from a waitAny
  };

  struct SiteAgg {
    std::uint64_t count = 0;
    double bytes = 0.0;
    double blockedSeconds = 0.0;
  };

  struct CollAgg {
    std::uint64_t gates = 0;
    double bytes = 0.0;
    double costSeconds = 0.0;
    std::uint64_t treeGates = 0;
    std::uint64_t barrierGates = 0;
    std::uint64_t torusGates = 0;
  };

  /// Detailed recording is on until the shared op budget trips.
  bool detailed() const;
  void checkBudget();
  /// Appends an Issue item for the node the capture just recorded.
  std::int32_t addIssue(int rank, sim::SimTime now);
  const std::string& siteOf(int rank) const {
    return sites_[static_cast<std::size_t>(rank)];
  }
  SiteAgg& siteAgg(int rank, const char* op);
  void histAdd(sim::SimTime t, double bytes);
  /// Stable lowercase collective-kind name ("allreduce", ...).
  static const char* collName(net::CollKind kind);

  // ---- reading the shared record ----------------------------------------
  /// The record standing for op-graph node `id`: itself for a send/recv,
  /// the gate's first arrival for a collective arrival (a gate has one
  /// issue, completion and overlap flag for all members).  -1 stays -1.
  std::int32_t recordOf(std::int32_t id) const;
  /// Completion time of record `rec` (< 0: not completed).
  sim::SimTime completionOf(std::int32_t rec) const;

  // ---- finalize stages (critical_path.cpp) -----------------------------
  void computeCriticalPath(const smpi::RunResult& result);
  void computeWhatIf(const smpi::RunResult& result);
  /// Replays the recorded dependency structure with one cost class
  /// zeroed; returns the replayed makespan, or a negative value when a
  /// dependency could not be resolved.
  double replay(bool zeroNetwork, bool zeroCompute) const;

  smpi::Simulation* sim_;        // null after finalize()
  smpi::analysis::Capture* cap_;  // sim_'s capture: the per-op record
  ProfileOptions options_;
  bool truncated_ = false;
  bool finalized_ = false;

  std::vector<std::vector<Item>> items_;            // per rank
  std::vector<std::vector<std::int32_t>> waitRecs_;  // per rank
  std::vector<std::int32_t> scratch_;               // onWaitReturn records
  std::size_t itemCount_ = 0;

  struct OpenBlock {
    sim::SimTime begin = 0.0;
    bool open = false;
  };
  std::vector<OpenBlock> open_;       // per rank
  std::vector<double> overlap_;       // per rank, seconds
  std::vector<std::string> sites_;    // per rank current label
  std::map<std::pair<std::string, std::string>, SiteAgg> siteAggs_;
  std::map<net::CollKind, CollAgg> collAggs_;

  // Link counters, sized lazily from the torus on first claim.
  std::vector<double> linkBytes_;
  std::vector<double> linkBusy_;
  std::vector<double> linkQueue_;
  std::vector<std::uint64_t> linkClaims_;
  double shmBytes_ = 0.0;
  std::uint64_t shmTransfers_ = 0;

  std::vector<double> hist_;
  double histBinSeconds_;

  RunProfile profile_;
};

/// RAII call-site label, the mpiP aggregation key:
///   { obs::SiteLabel site(self, "halo-exchange"); co_await ...; }
/// A no-op when the rank's Simulation is not being profiled.
class SiteLabel {
 public:
  SiteLabel(smpi::Rank& rank, std::string label);
  SiteLabel(const SiteLabel&) = delete;
  SiteLabel& operator=(const SiteLabel&) = delete;
  ~SiteLabel();

 private:
  Profiler* prof_ = nullptr;
  int rank_ = -1;
  std::string prev_;
};

}  // namespace bgp::obs
