// Metrics registry: named counters, gauges and latency histograms with
// label sets ({method=list, op=read, server=3}, ...), snapshottable as
// JSON. The unified home for the per-layer attribution the paper's
// evaluation is built on — request counts x per-request overhead vs
// bytes x bandwidth. Components keep their counters in their own structs
// and copy them in on ExportMetrics, so a registry name is each counter's
// one public name (obs/export.hpp).
//
// Concurrency: instrument handles returned by a Registry are stable for
// the registry's lifetime; Counter/Gauge updates are lock-free atomics,
// Histogram::Observe takes a short per-histogram mutex. Lookup
// (Counter()/Gauge()/Histogram()) takes the registry mutex — call it once
// and keep the handle on hot paths.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"

namespace pvfs::obs {

/// One metric label. Label sets are canonicalized (sorted by key) so
/// {a=1, b=2} and {b=2, a=1} address the same instrument.
struct Label {
  std::string key;
  std::string value;

  friend bool operator==(const Label&, const Label&) = default;
};
using Labels = std::vector<Label>;

/// Monotonic counter.
class Counter {
 public:
  void Increment(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  /// Counters are monotonic; Set copies in a total that a component
  /// keeps in its own counter storage, when its ExportMetrics fills a
  /// registry (and for the sim-side adapters in obs/export.hpp).
  void Set(std::uint64_t v) { value_.store(v, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time signed value.
class Gauge {
 public:
  void Set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(std::int64_t n) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-boundary histogram with streaming min/max/sum. Bounds are
/// canonicalized at construction: sorted ascending, duplicates and
/// non-finite values dropped — non-increasing input can never misbucket
/// (the sim::Histogram bug this layer regression-tests).
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void Observe(double x);

  /// q in [0,1]: percentile estimated by linear interpolation inside the
  /// owning bucket, clamped to the observed min/max. NaN when empty.
  double Quantile(double q) const;

  std::uint64_t count() const;
  double sum() const;
  double min() const;  // NaN when empty
  double max() const;  // NaN when empty
  const std::vector<double>& bounds() const { return bounds_; }
  std::vector<std::uint64_t> counts() const;

  /// {count, sum, min, max, p50, p95, p99} — min/max/percentiles are null
  /// when the histogram is empty, so empty and zero-latency runs are
  /// distinguishable.
  JsonValue SummaryJson() const;

 private:
  std::vector<double> bounds_;
  mutable std::mutex mutex_;
  std::vector<std::uint64_t> counts_;  // bounds_.size() + 1 (overflow last)
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Log-spaced bucket boundaries covering [lo, hi] with `per_decade`
/// buckets per factor of 10 — the default latency bucketing.
std::vector<double> LogBuckets(double lo, double hi, int per_decade = 5);

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Find-or-create. Returned references live as long as the registry.
  class Counter& Counter(std::string_view name, Labels labels = {});
  class Gauge& Gauge(std::string_view name, Labels labels = {});
  /// `upper_bounds` is used only on first creation of (name, labels).
  class Histogram& Histogram(std::string_view name, Labels labels = {},
                             std::vector<double> upper_bounds = {});

  /// Registry snapshot:
  ///   {"counters":[{"name":..,"labels":{..},"value":..},...],
  ///    "gauges":[...],
  ///    "histograms":[{"name":..,"labels":{..},"count":..,"sum":..,
  ///                   "min":..|null,"max":..|null,
  ///                   "p50":..|null,"p95":..|null,"p99":..|null},...]}
  JsonValue Snapshot() const;
  std::string SnapshotJson(int indent = 2) const;

  /// Drops every instrument (handles become dangling; test helper).
  void Reset();

  /// The process-wide default registry.
  static Registry& Global();

 private:
  template <typename T>
  struct Entry {
    std::string name;
    Labels labels;
    std::unique_ptr<T> instrument;
  };

  template <typename T>
  static T* FindOrNull(std::vector<Entry<T>>& entries, std::string_view name,
                       const Labels& labels);

  mutable std::mutex mutex_;
  std::vector<Entry<class Counter>> counters_;
  std::vector<Entry<class Gauge>> gauges_;
  std::vector<Entry<class Histogram>> histograms_;
};

/// Canonical (sorted-by-key) copy of `labels`.
Labels CanonicalLabels(Labels labels);

}  // namespace pvfs::obs
