// I/O daemon (iod): serves file data for the stripe units assigned to one
// server. Every request carries striping parameters and a list of logical
// file regions (trailing data); the daemon intersects that list with its
// own stripe units and reads/writes its local store. Responses carry this
// server's bytes in logical-walk order, so the client can reassemble
// without extra metadata.
//
// Every read and write takes one path: fragments -> run plan -> flow
// (src/pvfs/flow) -> scatter. A write is one journaled intent, committed
// after its last segment lands.
//
// Thread safety: internally synchronized; any transport may call Serve
// (and the message handlers above it) concurrently, at every flow window —
// the store is internally locked, recovery leaves intents a live request
// owns alone, and every stat is an atomic. The window only decides
// whether a request's segments run inline on the serving thread or on the
// store-worker pool.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "common/status.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "pvfs/config.hpp"
#include "pvfs/distribution.hpp"
#include "pvfs/flow.hpp"
#include "pvfs/protocol.hpp"
#include "pvfs/scheduler.hpp"
#include "pvfs/store.hpp"
#include "pvfs/store_async.hpp"

namespace pvfs {

class IoDaemon {
 public:
  /// `id` is this daemon's slot in the file system's server table.
  /// `max_list_regions` is the trailing-data limit it enforces
  /// (kMaxListRegions in the paper's configuration).
  explicit IoDaemon(ServerId id,
                    std::uint32_t max_list_regions = kMaxListRegions)
      : IoDaemon(id, ServerConfig{.max_list_regions = max_list_regions}) {}

  /// Full service configuration (docs/async-flows.md). A window of 1
  /// runs flows inline with no store workers. Admission control
  /// (`max_queue_depth`) is enforced by the transport in front of the
  /// daemon, not here.
  IoDaemon(ServerId id, const ServerConfig& config)
      : id_(id),
        config_(config),
        async_store_(store_,
                     {config.flow_inflight > 1 ? config.store_workers : 0,
                      config.store_seek_us, config.store_us_per_mib}) {}

  std::vector<std::byte> HandleMessage(std::span<const std::byte> raw);

  /// Transport entry point: verifies the request frame's CRC32C trailer,
  /// dispatches, and seals the response. A corrupt request is rejected
  /// with a (sealed) kCorruption envelope — typed, never a crash. All
  /// transports call this; HandleMessage remains for direct unit tests.
  std::vector<std::byte> HandleSealedMessage(std::span<const std::byte> raw);

  /// Direct-call service path (also used by HandleMessage).
  Result<IoResponse> Serve(const IoRequest& req);

  /// Replay-or-rollback any write intents left pending by a crash. Runs
  /// automatically at the start of every served request (the first call
  /// after a restart recovers the store before touching data); exposed
  /// for eager recovery on explicit daemon restarts.
  void RecoverStore();

  /// On-demand integrity scrub of the whole store; results accumulate in
  /// the store's integrity counters.
  LocalStore::ScrubStats Scrub();

  ServerId id() const { return id_; }
  const ServerConfig& config() const { return config_; }
  LocalStore& store() { return store_; }
  const LocalStore& store() const { return store_; }

  /// Arms transient disk read/write error injection (src/fault). The
  /// injected failure is reported BEFORE any byte touches the store, so a
  /// failed request leaves this server's stripe unchanged and an
  /// idempotent resend repairs nothing worse than a clean miss. Pass
  /// nullptr to disarm.
  void set_fault_injector(fault::FaultInjector* injector) {
    fault_ = injector;
  }

  /// All counters are atomics: transports run Serve calls concurrently.
  /// Readers load individual fields as before.
  /// Journal and scrub counters live in the store (store().integrity()).
  struct Stats {
    std::atomic<std::uint64_t> requests = 0;
    std::atomic<std::uint64_t> regions = 0;  // trailing-data entries received
    std::atomic<std::uint64_t> local_accesses = 0; // coalesced runs (sorted)
    std::atomic<std::uint64_t> store_ops = 0; // flow segments executed
    std::atomic<std::uint64_t> bytes_read = 0;
    std::atomic<std::uint64_t> bytes_written = 0;
    std::atomic<std::uint64_t> injected_errors = 0;  // failed by injection
    std::atomic<std::uint64_t> corruptions_detected = 0;  // frames + CRCs
    std::atomic<std::uint64_t> torn_writes = 0;  // injected crashes
    std::atomic<std::uint64_t> repair_chunks_scanned = 0;  // manifests served
    std::atomic<std::uint64_t> repair_chunks_copied = 0;   // applies taken
    std::atomic<std::uint64_t> flow_inflight_peak = 0;  // widest window seen
    std::atomic<std::uint64_t> flow_stall_us = 0;       // full-window waits
  };
  const Stats& stats() const { return stats_; }
  /// Copy every counter, the store's integrity counters included, into a
  /// registry as "iod.*" with a server=<id> label appended to `base`.
  /// The kStats response body is this registry (obs::StatsBody).
  void ExportMetrics(obs::Registry& reg, const obs::Labels& base = {}) const;

 private:
  /// Fold one flow's accounting into the counters.
  void CountFlow(const FlowStats& flow);

  ServerId id_;
  ServerConfig config_;
  LocalStore store_;
  /// Executes every flow's segments: inline at window 1, otherwise on the
  /// store-worker pool every in-flight request shares.
  AsyncStore async_store_;
  Stats stats_;
  fault::FaultInjector* fault_ = nullptr;
};

}  // namespace pvfs
