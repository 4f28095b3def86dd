#pragma once
// Exporters for obs::RunProfile: a deterministic JSON document (schema
// "bgp.obs.profile/1"), a plain-text report, Chrome trace counter/span
// merging into smpi::Tracer, an internal-consistency self-check, and the
// aggregate JSON the bench harness's --profile flag writes.

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/profile.hpp"

namespace bgp::smpi {
class Tracer;
}

namespace bgp::obs {

/// Deterministic JSON: fixed key order, %.17g numbers, content-derived
/// ordering everywhere — two profiled runs of the same scenario produce
/// byte-identical output.  Per-rank rows are capped (first 256 ranks,
/// "ranksElided": true) so 131k-rank profiles stay loggable.
void writeJson(std::ostream& os, const RunProfile& p,
               const std::string& name = std::string());

/// Human-readable report (breakdown, hot sites, hot links, critical
/// path, what-ifs).
void writeText(std::ostream& os, const RunProfile& p,
               const std::string& name = std::string());

/// Merges the profile into a Tracer timeline: the traffic histogram as
/// "C"-phase counter samples and the critical-path segments as "X" spans
/// on their owning rank's track.
void emitCounters(smpi::Tracer& tracer, const RunProfile& p);

/// Internal-consistency check: per-rank breakdowns sum to the makespan,
/// a complete critical path's length equals the makespan exactly,
/// what-ifs stay below the measured makespan, utilizations are in [0,1].
/// Returns human-readable violations; empty = consistent.
std::vector<std::string> selfCheck(const RunProfile& p);

/// Aggregate document (schema "bgp.obs.profile-set/1") over many
/// profiles, ordered by each profile's serialized bytes so thread-pool
/// completion order cannot leak into the output.
void writeAggregateJson(std::ostream& os,
                        const std::vector<const RunProfile*>& profiles);

}  // namespace bgp::obs
