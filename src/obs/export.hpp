// The export path from counters to JSON. Live components (Client,
// IoDaemon, Manager) each fill a registry through their one
// ExportMetrics method; StatsBody turns that registry into the body every
// live stats reader sees (kStats, `pvfs_cli stats`, `pvfsd` stats). The
// simulator side maps sim::FaultCounters, sim::Accumulator and
// sim::Histogram onto a registry and into JSON for bench::BenchJson
// (bench/bench_util.hpp).
#pragma once

#include <string_view>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "sim/stats.hpp"

namespace pvfs::obs {

/// Schema tag of the live stats body.
inline constexpr std::string_view kStatsSchema = "pvfs-stats-v2";

/// {"schema":"pvfs-stats-v2","counters":[...],"gauges":[...],
///  "histograms":[...]}: `reg`'s snapshot under the schema key.
JsonValue StatsBody(const Registry& reg);

/// Mirror every fault counter into `reg` as counters named
/// "fault.<field>" with the given base labels.
void ExportFaultCounters(Registry& reg, const sim::FaultCounters& faults,
                         const Labels& base = {});

/// {"frames_dropped":.., ...,"total":..}.
JsonValue FaultCountersJson(const sim::FaultCounters& faults);

/// {count, sum, mean, min, max} — min/max are null when the accumulator
/// is empty (never 0.0: empty and all-zero samples must be
/// distinguishable).
JsonValue AccumulatorJson(const sim::Accumulator& acc);

/// {count, sum, mean, min, max, p50, p95, p99}; quantile fields are null
/// when empty.
JsonValue HistogramJson(const sim::Histogram& hist);

}  // namespace pvfs::obs
