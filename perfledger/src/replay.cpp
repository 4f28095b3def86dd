#include "replay.hpp"

#include <algorithm>

#include "net/system.hpp"
#include "smpi/match_table.hpp"
#include "support/rng.hpp"
#include "stats.hpp"

namespace perfledger {

namespace {

using bgp::smpi::MatchTable;

/// Stream indices in replay order: a send at position i is due at
/// i + delay, a receive at i; ties keep stream order.
std::vector<std::uint32_t> arrivalOrder(const MsgStream& stream,
                                        std::uint64_t seed) {
  std::uint64_t sm = seed;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> due;
  due.reserve(stream.records.size());
  for (std::uint32_t i = 0; i < stream.records.size(); ++i) {
    const std::uint64_t delay =
        stream.records[i].isSend ? bgp::splitmix64(sm) % 8 : 0;
    due.emplace_back(i + delay, i);
  }
  std::stable_sort(due.begin(), due.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  std::vector<std::uint32_t> order;
  order.reserve(due.size());
  for (const auto& d : due) order.push_back(d.second);
  return order;
}

}  // namespace

ReplayResult replayMatching(const MsgStream& stream, std::uint64_t seed,
                            double sentBytes, int reps) {
  ReplayResult res;
  const std::vector<std::uint32_t> order = arrivalOrder(stream, seed);
  std::uint64_t sends = 0, recvs = 0;
  for (const MsgRecord& m : stream.records) (m.isSend ? sends : recvs) += 1;
  res.messages = sends;
  if (sends == 0) return res;

  std::vector<double> ns;
  for (int rep = 0; rep < reps; ++rep) {
    std::vector<MatchTable> tables;
    tables.reserve(stream.commSizes.size());
    for (int size : stream.commSizes) tables.emplace_back(std::max(size, 1));
    std::vector<Request> posted;
    posted.reserve(recvs);
    std::uint64_t matched = 0, twice = 0;
    double bytes = 0.0;

    const std::int64_t t0 = nowNs();
    for (std::uint32_t i : order) {
      const MsgRecord& m = stream.records[i];
      MatchTable& t = tables[static_cast<std::size_t>(m.comm)];
      if (m.isSend) {
        if (Request op = t.takePostedMatch(m.dst, m.src, m.tag)) {
          if (op->complete) {
            ++twice;
          } else {
            op->finish();
            ++matched;
            bytes += m.bytes;
          }
        } else {
          MatchTable::Staged msg;
          msg.src = m.src;
          msg.tag = m.tag;
          msg.bytes = m.bytes;
          t.addStaged(m.dst, std::move(msg));
        }
      } else {
        MatchTable::Staged msg;
        Request op = bgp::smpi::makeOpState();
        if (t.takeStagedMatch(m.dst, m.src, m.tag, msg)) {
          op->finish();
          ++matched;
          bytes += msg.bytes;
        } else {
          t.addPosted(m.dst, m.src, m.tag, op);
        }
        posted.push_back(std::move(op));
      }
    }
    const std::int64_t t1 = nowNs();
    ns.push_back(static_cast<double>(t1 - t0) / static_cast<double>(sends));

    if (rep > 0) continue;  // the outcome is identical on every repetition
    res.bytes = bytes;
    if (twice > 0)
      res.failures.push_back("match replay: a receive matched twice");
    if (matched != recvs)
      res.failures.push_back("match replay: " + std::to_string(matched) +
                             " of " + std::to_string(recvs) +
                             " receives matched");
    for (const Request& op : posted)
      if (!op->complete) {
        res.failures.push_back("match replay: a posted receive never matched");
        break;
      }
    for (const MatchTable& t : tables)
      if (!t.postedLeaks().empty() || !t.stagedLeaks().empty()) {
        res.failures.push_back("match replay: entries left in a table");
        break;
      }
    if (bytes != sentBytes)
      res.failures.push_back("match replay: matched bytes differ from the "
                             "bytes the world sent");
  }
  res.nsPerMessage = median(ns);
  return res;
}

ReplayResult replayTransfers(const MsgStream& stream, const WorldSpec& spec,
                             double sentBytes, int reps) {
  ReplayResult res;
  bgp::net::System sys(bgpMachine(), spec.nranks, systemOptions(spec));
  struct Msg {
    bgp::topo::NodeId src, dst;
    double bytes;
  };
  std::vector<Msg> msgs;
  for (const MsgRecord& m : stream.records)
    if (m.isSend)
      msgs.push_back(Msg{sys.nodeOf(m.srcWorld), sys.nodeOf(m.dstWorld),
                         m.bytes});
  res.messages = msgs.size();
  if (msgs.empty()) return res;

  auto& net = sys.torusNetwork();
  std::vector<double> ns;
  for (int rep = 0; rep < reps; ++rep) {
    net.reset();
    double bytes = 0.0;
    std::uint64_t early = 0;
    const std::int64_t t0 = nowNs();
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      const double start = static_cast<double>(i) * 1e-9;
      const auto tr = net.transfer(msgs[i].src, msgs[i].dst, msgs[i].bytes,
                                   start);
      if (tr.arrival < start) ++early;
      bytes += msgs[i].bytes;
    }
    const std::int64_t t1 = nowNs();
    ns.push_back(static_cast<double>(t1 - t0) /
                 static_cast<double>(msgs.size()));
    if (rep > 0) continue;
    res.bytes = bytes;
    if (early > 0)
      res.failures.push_back("transfer replay: an arrival precedes its start");
    if (bytes != sentBytes)
      res.failures.push_back("transfer replay: replayed bytes differ from "
                             "the bytes the world sent");
  }
  res.nsPerMessage = median(ns);
  return res;
}

}  // namespace perfledger
