#pragma once
// Shared vocabulary types for the simulated MPI runtime.

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/collective_model.hpp"
#include "sim/engine.hpp"
#include "support/arena.hpp"

namespace bgp::smpi {

/// Wildcards, as in MPI_ANY_SOURCE / MPI_ANY_TAG.
inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

/// Reduction operator of a reduce/allreduce (MPI_Op equivalent).  Purely
/// semantic — the timing model is operator-independent — but the runtime
/// verifier checks that all ranks of a collective agree on it.
enum class ReduceOp { None, Sum, Min, Max, Prod };

inline const char* toString(ReduceOp op) {
  switch (op) {
    case ReduceOp::None: return "none";
    case ReduceOp::Sum: return "sum";
    case ReduceOp::Min: return "min";
    case ReduceOp::Max: return "max";
    case ReduceOp::Prod: return "prod";
  }
  return "?";
}

/// What a runtime operation is.  OpState carries one of the first three;
/// the analysis op-graph adds Wait nodes for wait returns.
enum class OpKind : std::uint8_t { Send, Recv, Coll, Wait };

/// The diagnostic spelling used by deadlock, wait-chain, verifier and
/// analyzer messages.
inline const char* toString(OpKind kind) {
  switch (kind) {
    case OpKind::Send: return "send";
    case OpKind::Recv: return "recv";
    case OpKind::Coll: return "collective";
    case OpKind::Wait: return "wait";
  }
  return "?";
}

/// A collective call's signature: what every member of one gate must agree
/// on.  The gate keeps its first arrival's; each consumer applies its own
/// comparison rules to later arrivals.
struct CollSig {
  net::CollKind kind{};
  int root = -1;
  ReduceOp rop = ReduceOp::None;
  net::Dtype dt{};
  double bytes = 0.0;
};

/// Completion info for a receive (MPI_Status equivalent).
struct RecvInfo {
  int source = -1;
  int tag = -1;
  double bytes = 0.0;
};

/// Thrown when a simulated application exceeds the per-task memory of the
/// current execution mode (e.g. GYRO B3-gtc in VN mode on BG/P, which the
/// paper had to run in DUAL mode).
class OutOfMemoryError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// State of one in-flight operation (send, recv, or collective slot).
/// Completion runs registered continuations, which resume awaiting
/// coroutines via the engine at the current simulated time.
struct OpState {
  bool complete = false;
  bool waited = false;  // a wait/waitAll/waitAny consumed this request
  RecvInfo info;
  OpKind kind = OpKind::Send;

  // ---- diagnostics, filled at creation (wait-chain reporter, verifier) ----
  int ownerWorld = -1;          // world rank that created the operation
  int peer = -1;                // comm rank of the counterparty (or wildcard)
  int tag = -1;                 // tag (or kAnyTag for receives)
  int commId = -1;              // communicator the op runs in
  std::uint64_t collSeq = 0;    // collective sequence number (collectives)
  double bytes = 0.0;           // message / collective payload size
  double expectedBytes = -1.0;  // receive: declared expectation (<0 = none)

  // Continuations are SmallFn, not std::function: awaiter captures (~25-56
  // bytes) overflow libstdc++'s inline buffer, and completions are hot
  // enough that the per-await heap allocation showed up in sweep profiles.
  // The first continuation lives inline — a p2p op has exactly one awaiter
  // in every benchmark, so the common op never touches the heap for its
  // continuation either; only a shared collective op (one OpState awaited
  // by every member rank) spills into the vector.
  template <typename F>
  void onComplete(F&& fn) {
    if (complete) {
      fn();
    } else if (!first_) {
      first_.emplace(std::forward<F>(fn));
    } else {
      spill_.emplace_back(std::forward<F>(fn));
    }
  }

  void finish() {
    BGP_CHECK_MSG(!complete, "operation completed twice");
    complete = true;
    if (first_) {
      sim::SmallFn fn = std::move(first_);
      fn();
    }
    if (!spill_.empty()) {
      // Registration order: first_, then spill_ front-to-back.
      std::vector<sim::SmallFn> fns = std::move(spill_);
      for (auto& fn : fns) fn();
    }
  }

 private:
  sim::SmallFn first_;
  std::vector<sim::SmallFn> spill_;
};

/// Handle to a nonblocking operation (MPI_Request equivalent).
using Request = std::shared_ptr<OpState>;

/// Creates an OpState on the calling thread's arena: the shared_ptr
/// control block and the object share one granule, and the per-op
/// alloc/free pair stays off the global allocator.
inline Request makeOpState() {
  return std::allocate_shared<OpState>(support::ArenaAllocator<OpState>{});
}

/// Aggregate of every rank program that exited with an exception.  Thrown
/// by Simulation::run when two or more ranks failed, so a multi-rank bug
/// is reported whole instead of being masked by whichever rank the runner
/// happened to inspect first.  A single failing rank rethrows its original
/// exception unchanged (callers keep precise types to catch).
class RankFailures : public std::runtime_error {
 public:
  RankFailures(const std::string& what, std::vector<int> ranks)
      : std::runtime_error(what), ranks_(std::move(ranks)) {}

  /// World ranks that failed, ascending.
  const std::vector<int>& ranks() const { return ranks_; }

 private:
  std::vector<int> ranks_;
};

/// Result of Simulation::run().
struct RunResult {
  double makespan = 0.0;  // max over ranks of coroutine finish time (s)
  std::vector<double> finishTimes;
  std::uint64_t events = 0;
};

}  // namespace bgp::smpi
