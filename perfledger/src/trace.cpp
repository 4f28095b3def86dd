#include "trace.hpp"

#include <cstring>
#include <ostream>
#include <stdexcept>

namespace perfledger {

const char* spanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::Setup: return "setup";
    case SpanKind::Run: return "run";
    case SpanKind::Slice: return "slice";
    case SpanKind::Isend: return "isend";
    case SpanKind::Irecv: return "irecv";
    case SpanKind::Join: return "join";
    case SpanKind::Export: return "export";
  }
  return "?";
}

void SpanTotals::add(const SpanTotals& other) {
  for (std::size_t k = 0; k < kSpanKinds; ++k) {
    totalNs[k] += other.totalNs[k];
    selfNs[k] += other.selfNs[k];
    count[k] += other.count[k];
  }
}

SpanTotals spanTotals(const std::vector<Span>& spans) {
  std::vector<std::int64_t> childNs(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.endNs < s.startNs)
      throw std::runtime_error("span " + std::to_string(i) + " still open");
    if (s.parent == kNoParent) continue;
    if (s.parent >= i)
      throw std::runtime_error("span " + std::to_string(i) +
                               " names a later parent");
    const Span& p = spans[s.parent];
    if (s.startNs < p.startNs || s.endNs > p.endNs)
      throw std::runtime_error("span " + std::to_string(i) +
                               " lies outside its parent");
    childNs[s.parent] += s.endNs - s.startNs;
  }
  SpanTotals t;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto k = static_cast<std::size_t>(spans[i].kind);
    const std::int64_t dur = spans[i].endNs - spans[i].startNs;
    t.totalNs[k] += dur;
    t.selfNs[k] += dur - childNs[i];
    ++t.count[k];
  }
  return t;
}

void appendDurations(const std::vector<Span>& spans, SpanKind kind,
                     std::vector<std::int64_t>& out) {
  for (const Span& s : spans)
    if (s.kind == kind) out.push_back(s.endNs - s.startNs);
}

void writeSpans(std::ostream& os, const std::string& world,
                const std::vector<Span>& spans) {
  os << "world " << world << ' ' << spans.size() << '\n';
  char rec[24];
  for (const Span& s : spans) {
    std::memset(rec, 0, sizeof rec);
    std::memcpy(rec, &s.startNs, 8);
    std::memcpy(rec + 8, &s.endNs, 8);
    std::memcpy(rec + 16, &s.parent, 4);
    rec[20] = static_cast<char>(s.kind);
    os.write(rec, sizeof rec);
  }
}

}  // namespace perfledger
