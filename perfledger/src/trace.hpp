#pragma once
// Host-time spans recorded from the benchmark's own code.
//
// The library is not instrumented: every span here is opened and closed by
// perfledger around a call into a layer's public API, or around a rank
// program's host execution.  Spans live in memory while a world runs and
// are written out when the benchmark ends (writeSpans).
//
// Span tree of one traced world:
//
//   setup                         Simulation construction (+ profiler)
//   run                           Simulation::run (+ profile export)
//     slice                       rank program, resume -> next suspend
//       isend | irecv | join      one Rank::isend / irecv / collective call
//     export                      obs::writeJson (profiled worlds only)
//
// A span's self time is its duration minus its children's durations.  All
// times are integer nanoseconds of std::chrono::steady_clock, so the self
// times of a tree sum exactly to its root's duration.

#include <array>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace perfledger {

enum class SpanKind : std::uint8_t {
  Setup,
  Run,
  Slice,
  Isend,
  Irecv,
  Join,
  Export,
};
inline constexpr std::size_t kSpanKinds = 7;

const char* spanName(SpanKind kind);

inline constexpr std::uint32_t kNoParent = 0xffffffffu;

struct Span {
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;  // < startNs while the span is open
  std::uint32_t parent = kNoParent;
  SpanKind kind = SpanKind::Run;
};

inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Append-only span store of one world.  Single-threaded: a Simulation and
/// its rank programs run on one thread, and each world owns its log.
class SpanLog {
 public:
  void reserve(std::size_t n) { spans_.reserve(n); }

  std::uint32_t open(SpanKind kind, std::uint32_t parent) {
    spans_.push_back(Span{nowNs(), -1, parent, kind});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }
  void close(std::uint32_t idx) { spans_[idx].endNs = nowNs(); }

  const std::vector<Span>& spans() const { return spans_; }
  std::vector<Span>& spans() { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Per-kind totals over one or more span trees.
struct SpanTotals {
  std::array<std::int64_t, kSpanKinds> totalNs{};
  std::array<std::int64_t, kSpanKinds> selfNs{};
  std::array<std::uint64_t, kSpanKinds> count{};

  void add(const SpanTotals& other);
  std::int64_t total(SpanKind k) const {
    return totalNs[static_cast<std::size_t>(k)];
  }
  std::int64_t self(SpanKind k) const {
    return selfNs[static_cast<std::size_t>(k)];
  }
  std::uint64_t n(SpanKind k) const {
    return count[static_cast<std::size_t>(k)];
  }
};

/// Self time of every span (duration minus its children's durations),
/// summed per kind.  Throws std::runtime_error if a span is still open,
/// names a later or missing parent, or lies outside its parent's interval.
SpanTotals spanTotals(const std::vector<Span>& spans);

/// Durations (ns) of all spans of one kind, in record order.
void appendDurations(const std::vector<Span>& spans, SpanKind kind,
                     std::vector<std::int64_t>& out);

/// Appends one world's spans in the "perfledger-spans/1" format: a text
/// line "world <name> <count>\n", then `count` little-endian records of
/// 24 bytes: startNs (i64), endNs (i64), parent index (u32, 0xffffffff =
/// root), kind (u8, index into spanName order), 3 zero bytes.
void writeSpans(std::ostream& os, const std::string& world,
                const std::vector<Span>& spans);

}  // namespace perfledger
