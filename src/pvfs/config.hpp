// File-system-wide constants and striping configuration.
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace pvfs {

/// How a file's bytes are laid out across I/O daemons (paper Fig. 2):
/// stripe unit `ssize` bytes; global stripe g lives on server
/// (base + g) % pcount, packed densely in that server's local file.
struct Striping {
  ServerId base = 0;        // first I/O node used by the file
  std::uint32_t pcount = 8; // number of I/O nodes the file spans
  ByteCount ssize = 16384;  // stripe unit (paper's default, §4.1)

  friend bool operator==(const Striping&, const Striping&) = default;
};

/// Maximum contiguous file regions described in one I/O request's trailing
/// data. 64 keeps request + trailing data within a single 1500-byte
/// Ethernet frame (paper §3.3); tests assert the arithmetic.
inline constexpr std::uint32_t kMaxListRegions = 64;

/// Client-side data sieving buffer (paper §3.2: "We chose to set the data
/// sieving buffer at 32 MB for our testing purposes").
inline constexpr ByteCount kDefaultSieveBufferBytes = 32 * kMiB;

/// Client buffer-cache page (cache/bcache.hpp). 64 KiB amortizes the
/// per-request cost that dominates small noncontiguous accesses (paper
/// Fig. 9-11) while staying well under a stripe unit times pcount, so one
/// page fetch does not fan out across the whole cluster.
inline constexpr ByteCount kDefaultCachePageBytes = 64 * 1024;

/// Per-I/O-daemon service configuration (docs/server-scheduling.md,
/// docs/async-flows.md).
///
/// Every request runs one data path: its fragments are sorted and merged
/// into a run plan (the paper's §5 "more intelligent scheduling of the
/// data movement at the server"), and a flow moves the runs between the
/// store and the wire payload in bounded segments. The simulator keeps
/// the 2002 one-access-per-entry behaviour as its
/// `SimClusterConfig::server_coalesces_entries` ablation.
///
/// `max_queue_depth` bounds the daemon's admission queue on the threaded
/// and TCP transports: a request arriving while `max_queue_depth` requests
/// are already queued or in service is refused with the retryable kBusy
/// status instead of growing the queue without bound. 0 keeps the
/// historical unbounded queue.
struct ServerConfig {
  std::uint32_t max_list_regions = kMaxListRegions;
  std::uint32_t max_queue_depth = 0;
  /// Worker threads draining the TCP event loop's request queue
  /// (net::SocketServer::Options::worker_threads): how many service calls
  /// run at once on the manager and on every iod, at any flow window.
  /// Daemons are internally synchronized, so any transport may call them
  /// concurrently; in-process transports call on the client's thread.
  std::uint32_t transport_workers = 2;

  // ---- Flow pipeline (docs/async-flows.md) ----
  //
  // Each request's runs move in segments of at most `flow_segment_bytes`,
  // at most `flow_inflight` in flight per request. Window 1 (the default)
  // runs segments inline on the serving thread, one after another: the
  // synchronous iod. A wider window runs them on `store_workers` threads,
  // so one request's device intervals overlap each other.
  ByteCount flow_segment_bytes = 256 * 1024;
  std::uint32_t flow_inflight = 1;
  /// Store-worker threads executing segments when `flow_inflight` > 1
  /// (the device queue depth the pipeline can exploit).
  std::uint32_t store_workers = 2;

  // Modeled device time, charged once per flow segment
  // (pvfs/store_async.hpp): `store_seek_us` positioning cost plus
  // `store_us_per_mib` transfer cost. Defaults 0 = no modeling.
  std::uint64_t store_seek_us = 0;
  std::uint64_t store_us_per_mib = 0;
};

}  // namespace pvfs
