#include "obs/export.hpp"

#include <cmath>
#include <utility>

namespace pvfs::obs {

namespace {

JsonValue FiniteOrNull(double v) {
  return std::isfinite(v) ? JsonValue(v) : JsonValue::Null();
}

void MirrorCounter(Registry& reg, std::string_view name, const Labels& base,
                   std::uint64_t value) {
  reg.Counter(name, base).Set(value);
}

}  // namespace

JsonValue StatsBody(const Registry& reg) {
  JsonValue out = JsonValue::Object();
  out.Set("schema", JsonValue(kStatsSchema));
  const JsonValue snapshot = reg.Snapshot();
  for (const auto& [key, value] : snapshot.members()) out.Set(key, value);
  return out;
}

void ExportFaultCounters(Registry& reg, const sim::FaultCounters& faults,
                         const Labels& base) {
  MirrorCounter(reg, "fault.frames_dropped", base, faults.frames_dropped);
  MirrorCounter(reg, "fault.frames_duplicated", base,
                faults.frames_duplicated);
  MirrorCounter(reg, "fault.frames_delayed", base, faults.frames_delayed);
  MirrorCounter(reg, "fault.delay_us_injected", base,
                faults.delay_us_injected);
  MirrorCounter(reg, "fault.disk_read_errors", base, faults.disk_read_errors);
  MirrorCounter(reg, "fault.disk_write_errors", base,
                faults.disk_write_errors);
  MirrorCounter(reg, "fault.crashes", base, faults.crashes);
  MirrorCounter(reg, "fault.restarts", base, faults.restarts);
  MirrorCounter(reg, "fault.refused_calls", base, faults.refused_calls);
  MirrorCounter(reg, "fault.retransmits", base, faults.retransmits);
  MirrorCounter(reg, "fault.frames_corrupted", base, faults.frames_corrupted);
  MirrorCounter(reg, "fault.frames_truncated", base, faults.frames_truncated);
  MirrorCounter(reg, "fault.chunks_rotted", base, faults.chunks_rotted);
  MirrorCounter(reg, "fault.torn_writes", base, faults.torn_writes);
}

JsonValue FaultCountersJson(const sim::FaultCounters& faults) {
  JsonValue out = JsonValue::Object();
  out.Set("frames_dropped", JsonValue(faults.frames_dropped));
  out.Set("frames_duplicated", JsonValue(faults.frames_duplicated));
  out.Set("frames_delayed", JsonValue(faults.frames_delayed));
  out.Set("delay_us_injected", JsonValue(faults.delay_us_injected));
  out.Set("disk_read_errors", JsonValue(faults.disk_read_errors));
  out.Set("disk_write_errors", JsonValue(faults.disk_write_errors));
  out.Set("crashes", JsonValue(faults.crashes));
  out.Set("restarts", JsonValue(faults.restarts));
  out.Set("refused_calls", JsonValue(faults.refused_calls));
  out.Set("retransmits", JsonValue(faults.retransmits));
  out.Set("frames_corrupted", JsonValue(faults.frames_corrupted));
  out.Set("frames_truncated", JsonValue(faults.frames_truncated));
  out.Set("chunks_rotted", JsonValue(faults.chunks_rotted));
  out.Set("torn_writes", JsonValue(faults.torn_writes));
  out.Set("total", JsonValue(faults.total()));
  return out;
}

JsonValue AccumulatorJson(const sim::Accumulator& acc) {
  JsonValue out = JsonValue::Object();
  out.Set("count", JsonValue(acc.count()));
  out.Set("sum", JsonValue(acc.sum()));
  if (acc.empty()) {
    // Accumulator::min()/max() report 0.0 when empty; in JSON that would
    // make a no-sample run indistinguishable from a zero-latency run.
    out.Set("mean", JsonValue::Null());
    out.Set("min", JsonValue::Null());
    out.Set("max", JsonValue::Null());
    return out;
  }
  out.Set("mean", JsonValue(acc.mean()));
  out.Set("min", JsonValue(acc.min()));
  out.Set("max", JsonValue(acc.max()));
  return out;
}

JsonValue HistogramJson(const sim::Histogram& hist) {
  JsonValue out = AccumulatorJson(hist.summary());
  if (hist.summary().empty()) {
    out.Set("p50", JsonValue::Null());
    out.Set("p95", JsonValue::Null());
    out.Set("p99", JsonValue::Null());
    return out;
  }
  out.Set("p50", FiniteOrNull(hist.Quantile(0.50)));
  out.Set("p95", FiniteOrNull(hist.Quantile(0.95)));
  out.Set("p99", FiniteOrNull(hist.Quantile(0.99)));
  return out;
}

}  // namespace pvfs::obs
