#include "smpi/rank.hpp"

#include "smpi/simulation.hpp"

namespace bgp::smpi {

// ---- AwaitOps ---------------------------------------------------------------

AwaitOps::AwaitOps(Simulation& sim, Rank& rank, std::vector<Request> ops)
    : sim_(&sim), rank_(&rank), ops_(std::move(ops)) {
  BGP_REQUIRE_MSG(!ops_.empty(), "awaiting zero operations");
  for (const auto& op : ops_) BGP_CHECK(op != nullptr);
}

bool AwaitOps::await_ready() const {
  for (const auto& op : ops_)
    if (!op->complete) return false;
  return true;
}

void AwaitOps::await_suspend(std::coroutine_handle<> h) {
  remaining_ = 0;
  for (const auto& op : ops_)
    if (!op->complete) ++remaining_;
  if (remaining_ == 0) {
    // Completed between construction and await; resume immediately.
    sim_->engine().schedule(sim_->engine().now(), h);
    return;
  }
  rank_->sim_->blockedOnOf(rank_->id_) = toString(ops_.front()->kind);
  rank_->sim_->pendingOpsOf(rank_->id_) = &ops_;
  const double blockStart = sim_->engine().now();
  const bool collective = ops_.front()->kind == OpKind::Coll;
  for (Observer* o : sim_->observers())
    o->onBlockBegin(rank_->id_, blockStart);
  for (const auto& op : ops_) {
    if (op->complete) continue;
    op->onComplete([this, h, blockStart, collective] {
      BGP_CHECK(remaining_ > 0);
      if (--remaining_ == 0) {
        Simulation& sim = *sim_;
        const int id = rank_->id_;
        sim.blockedOnOf(id) = nullptr;
        sim.pendingOpsOf(id) = nullptr;
        const double waited = sim.engine().now() - blockStart;
        if (collective) {
          sim.statsOf(id).collWaitSeconds += waited;
        } else {
          sim.statsOf(id).p2pWaitSeconds += waited;
        }
        sim.engine().schedule(sim.engine().now(), h);
      }
    });
  }
}

RecvInfo AwaitOps::await_resume() const {
  for (const auto& op : ops_) op->waited = true;
  for (Observer* o : sim_->observers())
    o->onWaitReturn(rank_->id_, ops_, Observer::kAllOps,
                    sim_->engine().now());
  return ops_.front()->info;
}

// ---- AwaitAny ---------------------------------------------------------------

AwaitAny::AwaitAny(Simulation& sim, Rank& rank, std::vector<Request> ops)
    : sim_(&sim),
      rank_(&rank),
      ops_(std::move(ops)),
      shared_(std::make_shared<Shared>()) {
  BGP_REQUIRE_MSG(!ops_.empty(), "waitAny on zero operations");
  for (const auto& op : ops_) BGP_CHECK(op != nullptr);
}

bool AwaitAny::await_ready() const {
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    if (ops_[i]->complete) {
      shared_->fired = true;
      shared_->index = i;
      return true;
    }
  }
  return false;
}

void AwaitAny::await_suspend(std::coroutine_handle<> h) {
  sim_->blockedOnOf(rank_->id_) = "waitany";
  sim_->pendingOpsOf(rank_->id_) = &ops_;
  const double blockStart = sim_->engine().now();
  for (Observer* o : sim_->observers())
    o->onBlockBegin(rank_->id_, blockStart);
  const int id = rank_->id_;
  Simulation* sim = sim_;
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    // Continuations capture the shared state by value: they may run after
    // the awaiter (and even the coroutine) is gone, and must be inert
    // after the first completion fires.
    ops_[i]->onComplete([shared = shared_, i, h, id, sim, blockStart] {
      if (shared->fired) return;
      shared->fired = true;
      shared->index = i;
      sim->blockedOnOf(id) = nullptr;
      sim->pendingOpsOf(id) = nullptr;
      sim->statsOf(id).p2pWaitSeconds += sim->engine().now() - blockStart;
      sim->engine().schedule(sim->engine().now(), h);
    });
  }
}

std::size_t AwaitAny::await_resume() const {
  BGP_CHECK(shared_->fired);
  // Only the fired request counts as waited (MPI_Waitany semantics); the
  // others stay live and must be waited on again.
  ops_[shared_->index]->waited = true;
  for (Observer* o : sim_->observers())
    o->onWaitReturn(rank_->id_, ops_, shared_->index, sim_->engine().now());
  return shared_->index;
}

// ---- AwaitCompute -----------------------------------------------------------

AwaitCompute::AwaitCompute(Simulation& sim, Rank& rank, double seconds)
    : sim_(&sim), rank_(&rank), seconds_(seconds) {
  BGP_REQUIRE_MSG(seconds >= 0.0, "negative compute time");
}

void AwaitCompute::await_suspend(std::coroutine_handle<> h) {
  sim_->blockedOnOf(rank_->id_) = "compute";
  sim_->statsOf(rank_->id_).computeSeconds += seconds_;
  for (Observer* o : sim_->observers())
    o->onCompute(rank_->id_, sim_->engine().now(), seconds_);
  sim_->engine().scheduleCallback(sim_->engine().now() + seconds_,
                                  [this, h] {
                                    sim_->blockedOnOf(rank_->id_) = nullptr;
                                    h.resume();
                                  });
}

// ---- Rank -------------------------------------------------------------------

const char* Rank::blockedOn() const { return sim_->blockedOnOf(id_); }

const std::vector<Request>* Rank::pendingOps() const {
  return sim_->pendingOpsOf(id_);
}

const RankStats& Rank::stats() const { return sim_->statsOf(id_); }

int Rank::size() const { return sim_->nranks(); }

sim::SimTime Rank::now() const { return sim_->engine().now(); }

AwaitCompute Rank::compute(double seconds) {
  sim_->checkAlive(id_);
  return AwaitCompute(*sim_, *this,
                      noisy(seconds * sim_->slowdownFor(id_)));
}

AwaitCompute Rank::compute(const arch::Work& w) {
  sim_->checkAlive(id_);
  return AwaitCompute(*sim_, *this, noisy(sim_->computeTimeFor(w, id_)));
}

double Rank::noisy(double seconds) {
  const double f =
      sim_->system().machine().osNoiseFraction + sim_->faultNoise();
  if (f <= 0.0 || seconds <= 0.0) return seconds;
  // Mean-(1+f) multiplicative jitter, deterministic per rank stream.
  return seconds * (1.0 + f * 2.0 * rng_.uniform());
}

Request Rank::isend(int dst, double bytes, int tag) {
  return isend(sim_->world(), dst, bytes, tag);
}

Request Rank::irecv(int src, int tag, double expectedBytes) {
  return irecv(sim_->world(), src, tag, expectedBytes);
}

Request Rank::isend(Comm& comm, int dst, double bytes, int tag) {
  ++sim_->statsOf(id_).sends;
  sim_->statsOf(id_).bytesSent += bytes;
  return sim_->startSend(id_, comm, dst, bytes, tag);
}

Request Rank::irecv(Comm& comm, int src, int tag, double expectedBytes) {
  ++sim_->statsOf(id_).recvs;
  return sim_->postRecv(id_, comm, src, tag, expectedBytes);
}

AwaitOps Rank::send(int dst, double bytes, int tag) {
  return wait(isend(dst, bytes, tag));
}

AwaitOps Rank::recv(int src, int tag, double expectedBytes) {
  return wait(irecv(src, tag, expectedBytes));
}

AwaitOps Rank::send(Comm& comm, int dst, double bytes, int tag) {
  return wait(isend(comm, dst, bytes, tag));
}

AwaitOps Rank::recv(Comm& comm, int src, int tag, double expectedBytes) {
  return wait(irecv(comm, src, tag, expectedBytes));
}

AwaitOps Rank::sendrecv(int dst, double sendBytes, int src, int sendTag,
                        int recvTag) {
  return sendrecv(sim_->world(), dst, sendBytes, src, sendTag, recvTag);
}

AwaitOps Rank::sendrecv(Comm& comm, int dst, double sendBytes, int src,
                        int sendTag, int recvTag) {
  // Post the receive before the send, as a correct MPI_Sendrecv must.
  Request r = irecv(comm, src, recvTag);
  Request s = isend(comm, dst, sendBytes, sendTag);
  return waitAll({std::move(r), std::move(s)});
}

AwaitOps Rank::wait(Request r) {
  return AwaitOps(*sim_, *this, {std::move(r)});
}

AwaitOps Rank::waitAll(std::vector<Request> rs) {
  return AwaitOps(*sim_, *this, std::move(rs));
}

AwaitAny Rank::waitAny(std::vector<Request> rs) {
  return AwaitAny(*sim_, *this, std::move(rs));
}

AwaitOps Rank::barrier() { return barrier(sim_->world()); }
AwaitOps Rank::bcast(double bytes, int root) {
  return bcast(sim_->world(), bytes, root);
}
AwaitOps Rank::reduce(double bytes, int root, net::Dtype dt, ReduceOp op) {
  return reduce(sim_->world(), bytes, root, dt, op);
}
AwaitOps Rank::allreduce(double bytes, net::Dtype dt, ReduceOp op) {
  return allreduce(sim_->world(), bytes, dt, op);
}
AwaitOps Rank::allgather(double bytesPerRank) {
  return allgather(sim_->world(), bytesPerRank);
}
AwaitOps Rank::alltoall(double bytesPerPair) {
  return alltoall(sim_->world(), bytesPerPair);
}
AwaitOps Rank::gather(double bytes, int root) {
  ++sim_->statsOf(id_).collectives;
  return AwaitOps(*sim_, *this,
                  {sim_->joinCollective(sim_->world(),
                                        sim_->world().commRankOf(id_),
                                        net::CollKind::Gather, bytes,
                                        net::Dtype::Byte, root)});
}
AwaitOps Rank::scatter(double bytes, int root) {
  ++sim_->statsOf(id_).collectives;
  return AwaitOps(*sim_, *this,
                  {sim_->joinCollective(sim_->world(),
                                        sim_->world().commRankOf(id_),
                                        net::CollKind::Scatter, bytes,
                                        net::Dtype::Byte, root)});
}

AwaitOps Rank::barrier(Comm& comm) {
  ++sim_->statsOf(id_).collectives;
  return AwaitOps(
      *sim_, *this,
      {sim_->joinCollective(comm, comm.commRankOf(id_),
                            net::CollKind::Barrier, 0, net::Dtype::Byte)});
}
AwaitOps Rank::bcast(Comm& comm, double bytes, int root) {
  ++sim_->statsOf(id_).collectives;
  // Timing is root-independent in the analytic model, but the verifier
  // still checks that all ranks agree on the root.
  return AwaitOps(
      *sim_, *this,
      {sim_->joinCollective(comm, comm.commRankOf(id_), net::CollKind::Bcast,
                            bytes, net::Dtype::Byte, root)});
}
AwaitOps Rank::reduce(Comm& comm, double bytes, int root, net::Dtype dt,
                      ReduceOp op) {
  ++sim_->statsOf(id_).collectives;
  return AwaitOps(*sim_, *this,
                  {sim_->joinCollective(comm, comm.commRankOf(id_),
                                        net::CollKind::Reduce, bytes, dt,
                                        root, op)});
}
AwaitOps Rank::allreduce(Comm& comm, double bytes, net::Dtype dt,
                         ReduceOp op) {
  ++sim_->statsOf(id_).collectives;
  return AwaitOps(*sim_, *this,
                  {sim_->joinCollective(comm, comm.commRankOf(id_),
                                        net::CollKind::Allreduce, bytes, dt,
                                        -1, op)});
}
AwaitOps Rank::allgather(Comm& comm, double bytesPerRank) {
  ++sim_->statsOf(id_).collectives;
  return AwaitOps(
      *sim_, *this,
      {sim_->joinCollective(comm, comm.commRankOf(id_),
                            net::CollKind::Allgather, bytesPerRank,
                            net::Dtype::Byte)});
}
AwaitOps Rank::alltoall(Comm& comm, double bytesPerPair) {
  ++sim_->statsOf(id_).collectives;
  return AwaitOps(
      *sim_, *this,
      {sim_->joinCollective(comm, comm.commRankOf(id_),
                            net::CollKind::Alltoall, bytesPerPair,
                            net::Dtype::Byte)});
}

double Rank::collectiveCost(net::CollKind kind, double bytes,
                            net::Dtype dt) const {
  return sim_->system().collectiveCost(kind, bytes, dt);
}

double Rank::collectiveCost(Comm& comm, net::CollKind kind, double bytes,
                            net::Dtype dt) const {
  return sim_->system().collectives().cost(kind, comm.size(), bytes, dt);
}

}  // namespace bgp::smpi
