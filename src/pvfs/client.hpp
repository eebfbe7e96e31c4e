// PVFS client library: the public file API, including the paper's list-I/O
// interface (§3.3):
//
//   pvfs_read_list(mem_list_count, mem_offsets[], mem_lengths[],
//                  file_list_count, file_offsets[], file_lengths[])
//
// expressed here as extent lists over a caller buffer. A list access whose
// file side exceeds the trailing-data limit is transparently broken into
// several list-I/O operations of at most `max_list_regions` file regions
// each, exactly as the paper describes.
//
// The client owns a descriptor table; Open/Create return small integer
// descriptors and Close flushes the observed file size to the manager.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/extent.hpp"
#include "common/status.hpp"
#include "obs/metrics.hpp"
#include "pvfs/cache/acache.hpp"
#include "pvfs/cache/bcache.hpp"
#include "pvfs/cache/readahead.hpp"
#include "pvfs/config.hpp"
#include "pvfs/distribution.hpp"
#include "pvfs/protocol.hpp"
#include "pvfs/transport.hpp"

namespace pvfs {

/// Snapshot of a client's I/O counters (Client::stats()); the unit "fs
/// request" matches the paper's accounting (one list-I/O operation of
/// <= 64 regions is one request, regardless of how many servers it fans
/// out to).
struct ClientStats {
  std::uint64_t operations = 0;   // API-level read/write calls
  std::uint64_t fs_requests = 0;  // chunked I/O requests (paper's metric)
  std::uint64_t messages = 0;     // per-server messages actually sent
  std::uint64_t regions_sent = 0; // trailing-data entries across messages
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t manager_messages = 0;
};

/// How the client decomposes a list access into requests.
enum class ListChunking {
  /// Native: trailing data carries only file regions, so only the file
  /// side is capped at max_list_regions (FLASH: 1,920/64 = 30 requests —
  /// the paper's §4.3.1 arithmetic).
  kFileRegions,
  /// 2002/ROMIO-compatible: at most max_list_regions memory AND file
  /// entries per request, i.e. the cap applies to matched segments
  /// (FLASH: 983,040/64 = 15,360 requests — the behaviour behind the
  /// paper's measured Fig. 15).
  kMatchedSegments,
};

class Client {
 public:
  using Fd = int;

  /// Retry discipline for one per-server data exchange: one chunk sent to
  /// the replica set of one primary (a set of one for an unreplicated
  /// file). PVFS list / multiple / sieving requests are idempotent
  /// (regions + payload fully describe the effect), so a request whose
  /// response was lost can be resent safely. Retryable errors are
  /// kUnavailable, kDeadlineExceeded, kProtocol, kCorruption and kBusy —
  /// the admission controller's shed signal (see IsRetryable); everything
  /// else surfaces immediately.
  struct RetryPolicy {
    /// Total attempts per exchange, where one attempt is one round over
    /// the replica set; 1 = fail fast (the historical behaviour, and the
    /// default).
    std::uint32_t max_attempts = 1;
    /// Backoff grows from `initial_backoff` up to the `max_backoff` cap
    /// between attempts: decorrelated jitter by default (next drawn
    /// uniformly from [initial, 3*previous], capped), plain doubling when
    /// `jitter` is off. Pure exponential backoff synchronizes concurrent
    /// clients that fail together — they all retry together, collide
    /// again, and re-dilate in lockstep; the jitter draws are hashed from
    /// (jitter_seed, site, lock owner, server, attempt) via
    /// fault::HashedUniform, so schedules stay deterministic per client
    /// and independent of thread interleaving while distinct clients
    /// decorrelate.
    std::chrono::microseconds initial_backoff{100};
    std::chrono::microseconds max_backoff{10'000};
    bool jitter = true;
    std::uint64_t jitter_seed = 1;
    /// Overall wall-clock budget for one exchange, every replica leg and
    /// round included, measured from its first attempt: backoff sleeps are
    /// clamped to the remaining budget, and once it is spent the op fails
    /// with kDeadlineExceeded carrying the last underlying error instead of
    /// sleeping through attempts the caller can no longer use. 0 (the
    /// default) disables the budget, preserving the attempt-cap-only
    /// behaviour.
    std::chrono::microseconds op_deadline{0};
  };

  /// Client-side recovery counters (atomic: exchanges retry concurrently
  /// under parallel_fanout). `retries` is also split by the error code
  /// that triggered each resend, so failover (unavailable/deadline) is
  /// distinguishable from backpressure (busy) and integrity (corruption)
  /// retries in exported metrics.
  struct RetryCounters {
    std::uint64_t retries = 0;        // exchanges resent
    std::uint64_t exhausted = 0;      // exchanges that ran out of attempts
    std::uint64_t backoff_us = 0;     // total time spent backing off
    std::uint64_t corruptions = 0;    // kCorruption responses observed
    std::uint64_t busy_rejections = 0; // kBusy admission sheds observed
    std::uint64_t retries_unavailable = 0;
    std::uint64_t retries_busy = 0;
    std::uint64_t retries_corruption = 0;
    std::uint64_t retries_deadline = 0;
    std::uint64_t retries_protocol = 0;
  };

  /// Replica failover counters (replicated files only; see
  /// docs/replication.md).
  struct FailoverCounters {
    /// Exchange legs redirected away from an unhealthy replica: reads
    /// served by a non-primary ordinal, plus write legs the op completed
    /// without (failed or ejection-skipped replicas on a degraded ack).
    std::uint64_t retargets = 0;
    /// Ejection events: a replica endpoint crossing the consecutive
    /// failure threshold and being benched until its probe deadline.
    std::uint64_t ejected_replicas = 0;
  };

  /// Per-replica endpoint health policy. Any retryable error from one
  /// replica moves the exchange on to the next replica within the same
  /// attempt; with more than one replica, an endpoint that is unreachable
  /// (kUnavailable/kDeadlineExceeded) `eject_after` consecutive times is
  /// skipped entirely until `probe_backoff` elapses, after which one op
  /// probes it (flapping iods thus cost one timeout per probe window, not
  /// one per op).
  struct FailoverPolicy {
    std::uint32_t eject_after = 3;
    std::chrono::microseconds probe_backoff{5'000};
  };

  struct Options {
    std::uint32_t max_list_regions = kMaxListRegions;
    ListChunking chunking = ListChunking::kFileRegions;
    /// Issue the per-server messages of one request concurrently, as the
    /// real client library's socket-per-iod fan-out did: the calling
    /// thread and the client's pool share the legs. Requires a thread-safe
    /// transport (all transports in this repository are).
    bool parallel_fanout = false;
    RetryPolicy retry{};
    FailoverPolicy failover{};
    /// Blocking LockRange bounds: backoff doubles from
    /// `lock_initial_backoff` to the `lock_max_backoff` cap; after
    /// `lock_max_attempts` conflicted tries the call gives up with
    /// kDeadlineExceeded instead of spinning forever.
    std::uint32_t lock_max_attempts = 200;
    std::chrono::microseconds lock_initial_backoff{50};
    std::chrono::microseconds lock_max_backoff{5000};
    /// Sizes the client's pool, which runs ReadListAsync/WriteListAsync
    /// operations and parallel fan-out legs: `async_workers` threads, times
    /// the transport's iod count with `parallel_fanout` (so every async op
    /// can reach every iod at once). Started lazily on first use; a
    /// blocking client without `parallel_fanout` never starts it.
    std::uint32_t async_workers = 2;

    // ---- Client caching tier (docs/client-caching.md) -------------------
    //
    // All three knobs default OFF: with the defaults every operation is
    // bit-identical to the uncached client (fig09-17 BENCH JSON included).
    //
    /// Attribute cache: Open/Stat served from cached manager metadata
    /// within `acache.ttl`; explicit invalidation on Create/Remove/
    /// SetSize keeps this client's own operations coherent.
    cache::AcacheConfig acache{};
    /// Buffer cache: list I/O routed through block-aligned pages with
    /// bounded write-back; flush-on-close and flush-on-lock give
    /// close-to-open consistency.
    cache::BcacheConfig bcache{};
    /// List-structure-informed read-ahead (requires bcache.enabled):
    /// constant-stride region lists prefetch their predicted
    /// continuation.
    cache::ReadaheadConfig readahead{};
  };

  /// Snapshot of both cache tiers' counters (exported as client.cache.*).
  struct CacheCounters {
    cache::AttributeCache::Counters acache;
    cache::BufferCache::Counters bcache;
  };

  explicit Client(Transport* transport,
                  std::uint32_t max_list_regions = kMaxListRegions,
                  ListChunking chunking = ListChunking::kFileRegions)
      : transport_(transport),
        options_{max_list_regions, chunking, false} {}

  Client(Transport* transport, Options options)
      : transport_(transport), options_(options) {}

  /// Drains the pool: every submitted operation completes (or is observed
  /// canceled) before the workers exit, because submitted operations
  /// reference caller buffers.
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // ---- Namespace & lifecycle ------------------------------------------

  /// Create a file with the full layout aggregate: striping geometry,
  /// distribution policy, replication (docs/distributions.md).
  Result<Fd> Create(const std::string& name, const CreateOptions& options);
  /// Thin forwarding shim for the historical positional signature; a bare
  /// `Create(name, striping)` also lands here.
  Result<Fd> Create(const std::string& name, Striping striping,
                    ReplicationConfig replication) {
    return Create(name, CreateOptions{striping, replication});
  }
  Result<Fd> Open(const std::string& name);
  Status Close(Fd fd);
  Status Remove(const std::string& name);
  Result<Metadata> Stat(Fd fd);
  /// Names in the cluster namespace starting with `prefix`, sorted.
  Result<std::vector<std::string>> ListFiles(const std::string& prefix = "");

  // ---- Advisory byte-range locks (extension; see protocol.hpp) --------

  /// Non-blocking try-acquire on the manager; kResourceExhausted on
  /// conflict. A zero-length range locks the whole file.
  Status TryLockRange(Fd fd, Extent range, bool exclusive = true);
  /// Blocking acquire: retries with capped exponential backoff until
  /// granted, a non-conflict error occurs, or the attempt budget
  /// (Options::lock_max_attempts) runs out — then kDeadlineExceeded.
  Status LockRange(Fd fd, Extent range, bool exclusive = true);
  Status UnlockRange(Fd fd, Extent range);
  /// This client's lock-owner token (unique per Client instance).
  std::uint64_t lock_owner() const { return lock_owner_; }

  /// Metadata snapshot held for an open descriptor.
  Result<Metadata> DescribeFd(Fd fd) const;

  /// Drop this client's cached attributes for `name` (and, if the handle
  /// was cached, that handle's clean data pages). The next Open
  /// revalidates against the manager — the application-driven equivalent
  /// of a TTL expiry, for callers that know the file changed externally.
  void InvalidateCache(const std::string& name);

  // ---- Contiguous I/O ---------------------------------------------------

  Status Read(Fd fd, FileOffset offset, std::span<std::byte> out);
  Status Write(Fd fd, FileOffset offset, std::span<const std::byte> data);

  // ---- List I/O (the paper's contribution) ------------------------------

  /// Noncontiguous read: memory regions are offsets into `buffer`; file
  /// regions are logical file extents. Region lists are walked in order
  /// and must describe equal byte totals.
  Status ReadList(Fd fd, std::span<const Extent> mem_regions,
                  std::span<std::byte> buffer,
                  std::span<const Extent> file_regions);

  Status WriteList(Fd fd, std::span<const Extent> mem_regions,
                   std::span<const std::byte> buffer,
                   std::span<const Extent> file_regions);

  // ---- Nonblocking list I/O ---------------------------------------------

  /// Handle to one in-flight async list operation. Handles are cheap
  /// shared references: copies observe the same operation. MPI-style
  /// error reporting — submission never fails loudly; every error
  /// (including bad-descriptor/validation failures detected at submit)
  /// surfaces as the typed Status returned by Wait().
  class Operation {
   public:
    /// Default-constructed handles are empty: Test() is true and Wait()
    /// reports kFailedPrecondition.
    Operation() = default;

    bool valid() const { return state_ != nullptr; }
    /// True once the operation has finished (or was canceled) —
    /// nonblocking.
    bool Test() const;
    /// Block until completion; returns the operation's final status.
    /// kDeadlineExceeded/kUnavailable/... pass through typed from the
    /// underlying exchanges; a canceled operation reports
    /// kFailedPrecondition. Idempotent.
    Status Wait();
    /// Best-effort cancel: succeeds (returns true) only while the
    /// operation is still queued, i.e. before a worker dispatched it. A
    /// running operation is never interrupted mid-write.
    bool Cancel();

   private:
    friend class Client;
    struct State;
    explicit Operation(std::shared_ptr<State> state)
        : state_(std::move(state)) {}
    std::shared_ptr<State> state_;
  };

  /// Nonblocking ReadList: snapshots the descriptor at submission, queues
  /// the blocking call's body on the client's pool (Options::async_workers)
  /// and returns immediately. The caller buffer and extent storage must
  /// outlive Wait(). Concurrent operations on distinct buffers are safe;
  /// ordering between in-flight operations is unspecified.
  Operation ReadListAsync(Fd fd, std::span<const Extent> mem_regions,
                          std::span<std::byte> buffer,
                          std::span<const Extent> file_regions);

  /// Nonblocking WriteList; the descriptor's high-water mark is merged
  /// back when the operation completes (Close after Wait still flushes
  /// the observed size).
  Operation WriteListAsync(Fd fd, std::span<const Extent> mem_regions,
                           std::span<const std::byte> buffer,
                           std::span<const Extent> file_regions);

  /// Snapshot of the I/O counters (by value: async operations mutate them
  /// concurrently).
  ClientStats stats() const {
    return {counters_.operations, counters_.fs_requests, counters_.messages,
            counters_.regions_sent, counters_.bytes_read,
            counters_.bytes_written, counters_.manager_messages};
  }
  /// Zeroes the I/O counters (stats()); retry and failover counters keep
  /// counting.
  void ResetStats() {
    counters_.operations = 0;
    counters_.fs_requests = 0;
    counters_.messages = 0;
    counters_.regions_sent = 0;
    counters_.bytes_read = 0;
    counters_.bytes_written = 0;
    counters_.manager_messages = 0;
  }
  /// Snapshot of the retry/backoff counters.
  RetryCounters retry_counters() const {
    return {counters_.retries, counters_.retry_exhausted,
            counters_.backoff_us, counters_.corruptions,
            counters_.busy_rejections, counters_.retries_unavailable,
            counters_.retries_busy, counters_.retries_corruption,
            counters_.retries_deadline, counters_.retries_protocol};
  }
  /// Snapshot of the replica failover counters.
  FailoverCounters failover_counters() const {
    return {counters_.retargets, counters_.ejected_replicas};
  }
  /// Snapshot of the cache-tier counters (zeros when caching is off).
  CacheCounters cache_counters() const {
    std::lock_guard<std::mutex> lock(cache_mu_);
    return {acache_.counters(), bcache_.counters()};
  }
  /// Copy every client counter (I/O, retry, failover, cache tiers) into
  /// a registry as "client.*" with the given base labels; obs::StatsBody
  /// of that registry is the client part of `pvfs_cli stats`.
  void ExportMetrics(obs::Registry& reg, const obs::Labels& base = {}) const;

  /// Fetch the manager's (server < 0) or an iod's stats snapshot as a
  /// JSON text via the kStats protocol message.
  Result<std::string> FetchServerStats(int server = -1);
  std::uint32_t max_list_regions() const { return options_.max_list_regions; }
  ListChunking chunking() const { return options_.chunking; }
  /// Number of I/O daemons reachable through the underlying transport.
  std::uint32_t TransportServerCount() const {
    return transport_->server_count();
  }

 private:
  struct OpenFile {
    Metadata meta;
    ByteCount high_water = 0;  // max end offset written through this fd
    std::string name;          // acache key for Stat refreshes
  };

  /// Copy of the descriptor's state under files_mu_ (async operations run
  /// against the snapshot; high-water merges back on completion).
  Result<OpenFile> SnapshotFd(Fd fd) const;
  /// Raise the descriptor's high-water mark to at least `high_water`
  /// (no-op if the fd was closed while the operation ran).
  void MergeHighWater(Fd fd, ByteCount high_water);

  /// The list-I/O bodies the blocking and async calls share, run against
  /// the descriptor snapshot `file`. A write then merges the snapshot's
  /// high-water mark back into `fd`, also after a partial failure.
  Status DoReadList(OpenFile& file, std::span<const Extent> mem_regions,
                    std::span<std::byte> buffer,
                    std::span<const Extent> file_regions);
  Status DoWriteList(Fd fd, OpenFile& file,
                     std::span<const Extent> mem_regions,
                     std::span<const std::byte> buffer,
                     std::span<const Extent> file_regions);

  // ---- Buffer-cache path ------------------------------------------------
  //
  // With bcache enabled, list I/O walks matched (memory, file) segments
  // through page-aligned cache entries under cache_mu_; the page fetch /
  // write-back callbacks reuse ReadChunk/WriteChunk, so replication,
  // retries and the fs_requests/messages/bytes counters keep describing
  // the traffic that actually reaches the servers.
  Status CachedReadList(OpenFile& file, std::span<const Extent> mem_regions,
                        std::span<std::byte> buffer,
                        std::span<const Extent> file_regions);
  Status CachedWriteList(OpenFile& file, std::span<const Extent> mem_regions,
                         std::span<const std::byte> buffer,
                         std::span<const Extent> file_regions);
  /// Page-granular fetch/flush callbacks bound to `file` (which must
  /// outlive the returned callable).
  cache::BufferCache::FetchFn PageFetcher(OpenFile& file);
  cache::BufferCache::FlushFn PageFlusher(OpenFile& file);
  /// Flush `file`'s dirty pages and drop its clean ones (flush-on-lock;
  /// no-op with bcache off). Holds cache_mu_.
  Status FlushAndDropClean(OpenFile& file);

  Operation SubmitAsync(bool is_write, Fd fd,
                        std::span<const Extent> mem_regions,
                        std::span<std::byte> out,
                        std::span<const std::byte> in,
                        std::span<const Extent> file_regions);

  // ---- Client pool ------------------------------------------------------

  /// Queue `task` on the client pool, starting the pool on first use.
  void Post(std::function<void()> task);
  void PoolLoop();
  /// Run fn(i) for every i < n and return the first (index-order) error.
  /// Inline by default; with parallel_fanout the caller and pool helpers
  /// claim legs from a shared counter.
  template <typename Fn>
  Status ForEachServer(std::size_t n, const Fn& fn);

  /// One sealed round trip: CRC32C-seal the encoded request, call, verify
  /// the response frame's trailer, decode the envelope. A failed response
  /// check surfaces as kCorruption (retryable) and is counted.
  Result<DecodedResponse> SealedCall(const Endpoint& dest,
                                     std::vector<std::byte> request) const;

  Result<Metadata> CallManagerMeta(std::vector<std::byte> request);
  Status CallManagerVoid(std::vector<std::byte> request);

  /// One chunked list-I/O operation (<= max_list_regions file regions).
  /// For writes, `stream` holds the chunk's logical byte stream; for
  /// reads, it is filled from server responses.
  Status WriteChunk(OpenFile& file, std::span<const Extent> chunk,
                    std::span<const std::byte> stream);
  Status ReadChunk(OpenFile& file, std::span<const Extent> chunk,
                   std::span<std::byte> stream);

  static Status ValidateListArgs(std::span<const Extent> mem_regions,
                                 size_t buffer_size,
                                 std::span<const Extent> file_regions);

  /// The file-region list to chunk, per the configured chunking policy.
  Result<ExtentList> ChunkableRegions(std::span<const Extent> mem_regions,
                                      std::span<const Extent> file_regions)
      const;

  /// One per-server exchange of a chunk: `request` (addressed to primary
  /// `request.server_index`) goes to that primary's replica set, retried
  /// per Options::retry. A read returns the first replica's answer; a
  /// write succeeds once at least one replica acked and every other one
  /// acked, is unreachable, or is still shedding when attempts run out. Thread-safe (only atomic counters and health_ are
  /// touched); `request.handle` is rewritten per replica.
  Result<std::vector<std::byte>> Exchange(const OpenFile& file,
                                          const Distribution& dist,
                                          IoRequest& request) const;

  /// The retry loop every data-path exchange runs: call `round` until it
  /// succeeds or fails for good, backing off between attempts under the
  /// max_attempts cap and the op_deadline budget, and keeping the retry
  /// counters. `primary` names the exchange in errors and jitter draws.
  template <typename Round>
  Status RetryRounds(const OpenFile& file, ServerId primary,
                     const Round& round) const;

  /// Global server id of a file-relative index, per the striping base.
  ServerId GlobalOf(const OpenFile& file, ServerId relative) const {
    return (file.meta.striping.base + relative) % transport_->server_count();
  }

  static bool IsFailoverEligible(ErrorCode code) {
    return code == ErrorCode::kUnavailable ||
           code == ErrorCode::kDeadlineExceeded;
  }

  /// True if the endpoint is ejected and its probe window hasn't opened;
  /// an op that finds the window open claims the probe (resetting the
  /// deadline) so concurrent ops don't all pay the probe timeout at once.
  bool SkipReplica(ServerId global) const;
  void RecordReplicaSuccess(ServerId global) const;
  void RecordReplicaFailure(ServerId global) const;
  /// Bump the per-error-code retry counter for a resend caused by `code`.
  void CountRetryCode(ErrorCode code) const;

  static std::uint64_t NextLockOwner();

  /// Next backoff after sleeping `prev`: decorrelated jitter (uniform in
  /// [initial, 3*prev], capped) when the policy enables it, else plain
  /// doubling. `site`/`seq` address the deterministic hash draw.
  std::chrono::microseconds NextBackoff(std::chrono::microseconds prev,
                                        std::chrono::microseconds initial,
                                        std::chrono::microseconds cap,
                                        std::uint32_t site,
                                        std::uint64_t stream,
                                        std::uint64_t seq) const;

  Transport* transport_;
  Options options_;
  /// Guards next_fd_ and open_files_ (async completions merge high-water
  /// marks concurrently with Open/Close).
  mutable std::mutex files_mu_;
  Fd next_fd_ = 3;  // leave stdin/stdout/stderr-looking values free
  std::unordered_map<Fd, OpenFile> open_files_;
  /// Every I/O, retry and failover counter, in one place: atomics, so
  /// async workers and fan-out legs bump them without a lock.
  struct Counters {
    std::atomic<std::uint64_t> operations = 0;
    std::atomic<std::uint64_t> fs_requests = 0;
    std::atomic<std::uint64_t> messages = 0;
    std::atomic<std::uint64_t> regions_sent = 0;
    std::atomic<std::uint64_t> bytes_read = 0;
    std::atomic<std::uint64_t> bytes_written = 0;
    std::atomic<std::uint64_t> manager_messages = 0;
    std::atomic<std::uint64_t> retries = 0;
    std::atomic<std::uint64_t> retry_exhausted = 0;
    std::atomic<std::uint64_t> backoff_us = 0;
    std::atomic<std::uint64_t> corruptions = 0;
    std::atomic<std::uint64_t> busy_rejections = 0;
    std::atomic<std::uint64_t> retries_unavailable = 0;
    std::atomic<std::uint64_t> retries_busy = 0;
    std::atomic<std::uint64_t> retries_corruption = 0;
    std::atomic<std::uint64_t> retries_deadline = 0;
    std::atomic<std::uint64_t> retries_protocol = 0;
    std::atomic<std::uint64_t> retargets = 0;
    std::atomic<std::uint64_t> ejected_replicas = 0;
  };
  mutable Counters counters_;

  /// Per-endpoint replica health, keyed by global server id and shared by
  /// every replicated file this client touches.
  struct ReplicaHealth {
    std::uint32_t consecutive_failures = 0;
    bool ejected = false;
    std::chrono::steady_clock::time_point probe_at{};
  };
  mutable std::mutex health_mu_;
  mutable std::unordered_map<ServerId, ReplicaHealth> health_;

  /// Guards both cache tiers. Held across page fetch/flush round trips,
  /// which serializes cached I/O per client — the deliberate trade-off
  /// documented in docs/client-caching.md (concurrent async workers on
  /// uncached clients are unaffected; caching defaults off). Never
  /// acquired while holding files_mu_.
  mutable std::mutex cache_mu_;
  mutable cache::AttributeCache acache_{options_.acache};
  mutable cache::BufferCache bcache_{options_.bcache};
  std::uint64_t lock_owner_ = NextLockOwner();

  /// Client pool: async operations and fan-out legs, one FIFO queue.
  /// Declared last: its threads use every member above.
  std::mutex pool_mu_;
  std::condition_variable pool_cv_;
  std::deque<std::function<void()>> pool_queue_;
  bool pool_stopping_ = false;
  std::vector<std::thread> pool_;
};

/// Split a file region list into consecutive chunks of at most
/// `max_regions` regions (the client-side request decomposition of §3.3).
std::vector<ExtentList> ChunkRegions(std::span<const Extent> regions,
                                     std::uint32_t max_regions);

}  // namespace pvfs
