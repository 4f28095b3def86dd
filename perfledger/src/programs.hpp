#pragma once
// The benchmark's rank programs, written once and instantiated for two
// tracing policies:
//
//   NoTrace   every hook is an inline pass-through; the untraced build of
//             a program makes exactly the library calls the plain program
//             would, in the same order.
//   SpanTrace opens a slice span whenever the engine resumes the rank and
//             closes it when the rank suspends; spans each isend / irecv /
//             collective call inside the current slice; and records the
//             world's point-to-point stream for the layer replays.
//
// The programs mirror the library's own programs (fig2's ISEND/IRECV halo,
// the HPL panel loop of hpcc/hpl_sim, the alltoall storm of the scenario
// sweep) so the simulated outputs match theirs exactly: halo-131072's
// pinned digest is scale_ranks', and a test checks the HPL program against
// hpcc::runHplSimulation.

#include <coroutine>
#include <cstdint>
#include <utility>
#include <vector>

#include "arch/node_model.hpp"
#include "sim/subtask.hpp"
#include "sim/task.hpp"
#include "smpi/rank.hpp"
#include "smpi/simulation.hpp"
#include "topo/process_grid.hpp"
#include "trace.hpp"

namespace perfledger {

using bgp::smpi::Comm;
using bgp::smpi::Rank;
using bgp::smpi::Request;

// ---- the recorded point-to-point stream -----------------------------------

/// One isend or irecv call, in the order the rank programs made them.
/// Ranks are communicator ranks; srcWorld/dstWorld are world ranks (-1 for
/// a wildcard source).
struct MsgRecord {
  int comm = 0;  // Comm::id()
  int dst = -1;
  int src = -1;  // kAnySource for a wildcard receive
  int tag = -1;  // kAnyTag for a wildcard receive
  int srcWorld = -1;
  int dstWorld = -1;
  double bytes = 0.0;  // sends only
  bool isSend = false;
};

struct MsgStream {
  std::vector<int> commSizes;  // indexed by Comm::id()
  std::vector<MsgRecord> records;
};

// ---- tracing policies -----------------------------------------------------

struct NoTrace {
  struct Slice {};
  Slice slice() { return {}; }
  void endSlice(Slice&) {}
  Request isend(Slice&, Rank& self, Comm& comm, int dst, double bytes,
                int tag) {
    return self.isend(comm, dst, bytes, tag);
  }
  Request irecv(Slice&, Rank& self, Comm& comm, int src, int tag) {
    return self.irecv(comm, src, tag);
  }
  template <typename F>
  decltype(auto) join(Slice&, F&& call) {
    return std::forward<F>(call)();
  }
  template <typename A>
  A&& await(Slice&, A&& awaitable) {
    return std::forward<A>(awaitable);
  }
};

class SpanTrace {
 public:
  SpanTrace(SpanLog& log, std::uint32_t runSpan, MsgStream& stream)
      : log_(&log), run_(runSpan), stream_(&stream) {}

  /// The open slice of one rank program; lives in its coroutine frame.
  struct Slice {
    std::uint32_t idx = kNoParent;
  };

  Slice slice() { return Slice{log_->open(SpanKind::Slice, run_)}; }
  void endSlice(Slice& s) { log_->close(s.idx); }

  Request isend(Slice& s, Rank& self, Comm& comm, int dst, double bytes,
                int tag) {
    const std::uint32_t span = log_->open(SpanKind::Isend, s.idx);
    Request r = self.isend(comm, dst, bytes, tag);
    log_->close(span);
    stream_->records.push_back(MsgRecord{comm.id(), dst,
                                         comm.commRankOf(self.id()), tag,
                                         self.id(), comm.worldRank(dst),
                                         bytes, true});
    return r;
  }

  Request irecv(Slice& s, Rank& self, Comm& comm, int src, int tag) {
    const std::uint32_t span = log_->open(SpanKind::Irecv, s.idx);
    Request r = self.irecv(comm, src, tag);
    log_->close(span);
    stream_->records.push_back(MsgRecord{
        comm.id(), comm.commRankOf(self.id()), src, tag,
        src >= 0 ? comm.worldRank(src) : -1, self.id(), 0.0, false});
    return r;
  }

  /// Spans a collective call (the gate arrival; on the last arrival also
  /// the cost computation and the gate completion).
  template <typename F>
  auto join(Slice& s, F&& call) {
    const std::uint32_t span = log_->open(SpanKind::Join, s.idx);
    auto awaitable = std::forward<F>(call)();
    log_->close(span);
    return awaitable;
  }

  /// Wraps a library awaitable: closes the slice when the rank suspends
  /// and opens the next one when the engine resumes it.
  template <typename A>
  struct Await {
    A inner;
    SpanTrace* tr;
    Slice* slice;
    bool suspended = false;

    bool await_ready() { return inner.await_ready(); }
    void await_suspend(std::coroutine_handle<> h) {
      suspended = true;
      inner.await_suspend(h);
      tr->endSlice(*slice);
    }
    decltype(auto) await_resume() {
      if (suspended) *slice = tr->slice();
      return inner.await_resume();
    }
  };
  template <typename A>
  Await<A> await(Slice& s, A&& awaitable) {
    return Await<A>{std::forward<A>(awaitable), this, &s};
  }

 private:
  SpanLog* log_;
  std::uint32_t run_;
  MsgStream* stream_;
};

// ---- rank programs --------------------------------------------------------

/// fig2's ISEND/IRECV halo: N words north/west, 2N south/east, two phases
/// per repetition after a pack pass (microbench/halo.cpp, IsendIrecv).
struct HaloParams {
  int rows = 0;
  int cols = 0;
  int words = 0;
  int reps = 0;
};

template <typename Tr>
bgp::sim::Task haloProgram(Rank& self, const HaloParams& p, Tr& tr) {
  auto s = tr.slice();
  Comm& world = self.sim().world();
  const bgp::topo::ProcessGrid2D grid(p.rows, p.cols);
  const auto north = static_cast<int>(grid.north(self.id()));
  const auto south = static_cast<int>(grid.south(self.id()));
  const auto west = static_cast<int>(grid.west(self.id()));
  const auto east = static_cast<int>(grid.east(self.id()));
  const double n1 = p.words * 4.0;
  const double n2 = 2.0 * n1;
  const bgp::arch::Work pack{0.0, 2.0 * (n1 + n2), 1.0};

  co_await tr.await(s, tr.join(s, [&] { return self.barrier(); }));
  for (int rep = 0; rep < p.reps; ++rep) {
    co_await tr.await(s, self.compute(pack));
    std::vector<Request> ops;
    ops.push_back(tr.irecv(s, self, world, south, 10));
    ops.push_back(tr.irecv(s, self, world, north, 11));
    ops.push_back(tr.isend(s, self, world, north, n1, 10));
    ops.push_back(tr.isend(s, self, world, south, n2, 11));
    co_await tr.await(s, self.waitAll(std::move(ops)));
    std::vector<Request> ops2;
    ops2.push_back(tr.irecv(s, self, world, east, 12));
    ops2.push_back(tr.irecv(s, self, world, west, 13));
    ops2.push_back(tr.isend(s, self, world, west, n1, 12));
    ops2.push_back(tr.isend(s, self, world, east, n2, 13));
    co_await tr.await(s, self.waitAll(std::move(ops2)));
  }
  tr.endSlice(s);
}

/// The HPL pivot/panel collective mix: per iteration an 8 B allreduce, a
/// 96 KiB broadcast and a 64 KiB allreduce on the world.
template <typename Tr>
bgp::sim::Task collectivesProgram(Rank& self, int iters, Tr& tr) {
  auto s = tr.slice();
  for (int it = 0; it < iters; ++it) {
    co_await tr.await(s, tr.join(s, [&] { return self.allreduce(8.0); }));
    co_await tr.await(s, tr.join(s, [&] { return self.bcast(98304.0, 0); }));
    co_await tr.await(s,
                      tr.join(s, [&] { return self.allreduce(65536.0); }));
  }
  tr.endSlice(s);
}

/// Alltoall storm: an alltoall, then an MPI_Sendrecv to the next rank whose
/// receive is ANY_SOURCE / ANY_TAG (the wildcard path of the match table).
template <typename Tr>
bgp::sim::Task stormProgram(Rank& self, double bytesPerPair, int reps,
                            Tr& tr) {
  auto s = tr.slice();
  Comm& world = self.sim().world();
  for (int i = 0; i < reps; ++i) {
    co_await tr.await(
        s, tr.join(s, [&] { return self.alltoall(bytesPerPair); }));
    const int peer = (self.id() + 1) % self.size();
    // Rank::sendrecv order: the receive is posted before the send.
    std::vector<Request> ops;
    ops.push_back(tr.irecv(s, self, world, bgp::smpi::kAnySource,
                           bgp::smpi::kAnyTag));
    ops.push_back(tr.isend(s, self, world, peer, 4096, 0));
    co_await tr.await(s, self.waitAll(std::move(ops)));
  }
  tr.endSlice(s);
}

/// hpcc/hpl_sim's right-looking LU loop on a gridP x gridQ process grid,
/// with the binomial panel broadcast and ring allgather of
/// smpi/coll_algorithms called from here so their messages are traced.
struct HplParams {
  std::int64_t n = 0;
  int nb = 96;
  int gridP = 0;
  int gridQ = 0;
  double dgemmEfficiency = 0.0;
};

template <typename Tr>
bgp::sim::SubTask hplBcastBinomial(Rank& self, Comm& comm, double bytes,
                                   int root, Tr& tr,
                                   typename Tr::Slice& s) {
  constexpr int kTagBcast = 101000;
  const int p = comm.size();
  const int vr = (comm.commRankOf(self.id()) - root + p) % p;
  auto abs = [&](int relative) { return (relative + root) % p; };
  int mask = 1;
  while (mask < p) {
    if (vr & mask) {
      co_await tr.await(
          s, self.wait(tr.irecv(s, self, comm, abs(vr - mask),
                                kTagBcast + mask)));
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (vr + mask < p) {
      co_await tr.await(
          s, self.wait(tr.isend(s, self, comm, abs(vr + mask), bytes,
                                kTagBcast + mask)));
    }
    mask >>= 1;
  }
}

template <typename Tr>
bgp::sim::SubTask hplAllgatherRing(Rank& self, Comm& comm,
                                   double bytesPerRank, Tr& tr,
                                   typename Tr::Slice& s) {
  constexpr int kTagAllgather = 105000;
  const int p = comm.size();
  const int r = comm.commRankOf(self.id());
  const int next = (r + 1) % p;
  const int prev = (r + p - 1) % p;
  for (int step = 0; step < p - 1; ++step) {
    std::vector<Request> ops;
    ops.push_back(tr.irecv(s, self, comm, prev, kTagAllgather + step));
    ops.push_back(
        tr.isend(s, self, comm, next, bytesPerRank, kTagAllgather + step));
    co_await tr.await(s, self.waitAll(std::move(ops)));
  }
}

template <typename Tr>
bgp::sim::Task hplProgram(Rank& self, const HplParams& cfg,
                          const std::vector<Comm*>& rowComms,
                          const std::vector<Comm*>& colComms, Tr& tr) {
  using bgp::smpi::Simulation;
  auto s = tr.slice();
  Comm& myRow = Simulation::commOf(rowComms, self.id());
  Comm& myCol = Simulation::commOf(colComms, self.id());
  const int myGridCol = self.id() % cfg.gridQ;
  const double nD = static_cast<double>(cfg.n);
  const double nb = cfg.nb;
  const double p = cfg.gridP;
  const double q = cfg.gridQ;
  const std::int64_t panels = cfg.n / cfg.nb;

  co_await tr.await(s, tr.join(s, [&] { return self.barrier(); }));
  for (std::int64_t k = 0; k < panels; ++k) {
    const double rem = nD - static_cast<double>(k) * nb;
    const double mLoc = rem / p;
    const double nLoc = rem / q;
    const int ownerCol = static_cast<int>(k % cfg.gridQ);
    if (myGridCol == ownerCol) {
      const double pivotCost =
          nb * self.collectiveCost(myCol, bgp::net::CollKind::Allreduce, 16);
      co_await tr.await(s, self.compute(bgp::arch::Work{
                               mLoc * nb * nb, mLoc * nb * 8.0,
                               0.45 * cfg.dgemmEfficiency}));
      co_await tr.await(s, self.compute(pivotCost));
      co_await tr.await(s,
                        tr.join(s, [&] { return self.allreduce(myCol, 16); }));
    }
    co_await hplBcastBinomial(self, myRow, mLoc * nb * 8.0, ownerCol, tr, s);
    co_await hplAllgatherRing(self, myCol, nLoc * nb * 8.0 / p, tr, s);
    co_await tr.await(s, self.compute(bgp::arch::Work{
                             2.0 * mLoc * nLoc * nb, mLoc * nLoc * 8.0 * 0.05,
                             cfg.dgemmEfficiency}));
  }
  co_await tr.await(s, tr.join(s, [&] { return self.barrier(); }));
  tr.endSlice(s);
}

}  // namespace perfledger
