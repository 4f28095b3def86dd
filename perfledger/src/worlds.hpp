#pragma once
// One simulated world: its specification, how to build and run it, and
// what a run yields (timings, the simulated digest, layer counters).

#include <cstdint>
#include <string>
#include <vector>

#include "arch/machine.hpp"
#include "net/system.hpp"
#include "programs.hpp"
#include "trace.hpp"

namespace perfledger {

enum class Program { Halo, Collectives, Storm, Hpl };

/// Everything the library receives for one world.  All worlds run on the
/// BG/P machine model in VN mode.
struct WorldSpec {
  std::string name;
  Program program = Program::Halo;
  int nranks = 0;
  std::string mapping = "TXYZ";
  HaloParams halo;        // Program::Halo
  int iters = 0;          // Program::Collectives, Program::Storm
  double bytesPerPair = 0.0;  // Program::Storm
  HplParams hpl;          // Program::Hpl (dgemmEfficiency: the machine's)
  bool profile = false;   // enableProfile() + profile JSON export
};

/// The simulated outputs a run is pinned to.  Seed-independent on BG/P:
/// its OS-noise fraction is zero, so the rank RNG never perturbs timing.
struct Digest {
  double makespan = 0.0;
  std::uint64_t events = 0;
  std::uint64_t sends = 0;
  std::uint64_t recvs = 0;
  std::uint64_t collectives = 0;
  double p2pWaitSeconds = 0.0;
  double collWaitSeconds = 0.0;
};

/// "makespan=%.17g events=N sends=N recvs=N colls=N p2p_wait=%.17g
/// coll_wait=%.17g": compared as text, so equality is bitwise.
std::string formatDigest(const Digest& d);

struct WorldRun {
  Digest digest;
  double bytesSent = 0.0;
  double runSeconds = 0.0;     // Simulation::run (+ export when profiled)
  double exportSeconds = 0.0;  // obs::writeJson, profiled worlds only
  /// Invariant and profile-check violations; empty = the run is correct.
  std::vector<std::string> failures;

  // ---- read only when traced ------------------------------------------
  std::uint64_t peakPending = 0;
  std::uint64_t routeHits = 0;
  std::uint64_t routeMisses = 0;
  std::uint64_t linkClaims = 0;
  double linkQueuedSimSeconds = 0.0;
  std::vector<Span> spans;
  MsgStream stream;

  /// MPI operations: sends + receives + collective arrivals.
  std::uint64_t ops() const {
    return digest.sends + digest.recvs + digest.collectives;
  }
};

/// The BG/P machine model every world runs on.
const bgp::arch::MachineConfig& bgpMachine();

/// VN mode with the spec's mapping order.
bgp::net::SystemOptions systemOptions(const WorldSpec& spec);

/// Builds, runs and checks one world.  `seed` is the Simulation RNG seed.
/// Never throws for a failed run: a thrown exception, deadlock or broken
/// invariant is reported in WorldRun::failures.
WorldRun runWorld(const WorldSpec& spec, std::uint64_t seed, bool traced);

/// Host seconds to construct the world (and its profiler and
/// sub-communicators) without running it.
double setupOnly(const WorldSpec& spec, std::uint64_t seed);

}  // namespace perfledger
