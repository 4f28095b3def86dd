#pragma once
// Layer replays: a world's recorded point-to-point stream, fed
// straight into one layer's public API with nothing else around it, so
// the layer's cost per message is measured in isolation.

#include <cstdint>
#include <string>
#include <vector>

#include "programs.hpp"
#include "worlds.hpp"

namespace perfledger {

struct ReplayResult {
  double nsPerMessage = 0.0;  // median over the repetitions
  std::uint64_t messages = 0;
  double bytes = 0.0;  // bytes carried by the replayed messages
  /// Outcome-check violations; empty = the replay is correct.
  std::vector<std::string> failures;
};

/// Replays the stream through standalone smpi::MatchTables (one per
/// communicator).  Receives are posted in stream order; each send arrives
/// 0-7 stream positions after it was sent, the delay drawn from `seed`,
/// so both the posted-first (addPosted/takePostedMatch) and the
/// staged-first (addStaged/takeStagedMatch) paths run.  Checks that every
/// posted receive is matched exactly once, nothing is left over, and the
/// matched bytes equal `sentBytes`.
ReplayResult replayMatching(const MsgStream& stream, std::uint64_t seed,
                            double sentBytes, int reps = 3);

/// Replays the stream's sends through net::TorusNetwork::transfer on a
/// net::System built for the world's machine, mode and mapping, message i
/// starting at i ns.  Checks every arrival is no earlier than its start
/// and the bytes replayed equal `sentBytes`.
ReplayResult replayTransfers(const MsgStream& stream, const WorldSpec& spec,
                             double sentBytes, int reps = 3);

}  // namespace perfledger
