// Manager daemon: metadata-only server (paper §2). Handles namespace and
// striping metadata; it never touches file data — clients talk to the I/O
// daemons directly for reads and writes, keeping the manager off the data
// path.
//
// Thread safety: internally synchronized; any transport may call
// concurrently. One mutex guards the namespace, the handle table, the
// range locks and the handle counter, and every public method takes it
// for the whole operation. Every stat is an atomic, so ExportMetrics may
// run while requests are in service.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "obs/metrics.hpp"
#include "pvfs/protocol.hpp"

namespace pvfs {

class Manager {
 public:
  /// `server_count` bounds striping pcount/base validation.
  explicit Manager(std::uint32_t server_count)
      : server_count_(server_count) {}

  /// Decode, dispatch and execute one request; returns the encoded
  /// response envelope (errors travel inside the envelope).
  std::vector<std::byte> HandleMessage(std::span<const std::byte> raw);

  /// Transport entry point: verifies the request frame's CRC32C trailer,
  /// dispatches, and seals the response. A corrupt request is rejected
  /// with a (sealed) kCorruption envelope.
  std::vector<std::byte> HandleSealedMessage(std::span<const std::byte> raw);

  // Direct-call API (used by tests and by HandleMessage). Takes the
  // create-time layout aggregate; a bare Striping converts implicitly
  // (simple stripe, no replication).
  Result<Metadata> Create(const std::string& name,
                          const CreateOptions& options);
  Result<Metadata> Lookup(const std::string& name) const;
  Status Remove(const std::string& name);
  Result<Metadata> Stat(FileHandle handle) const;
  Status SetSize(FileHandle handle, ByteCount size);
  /// All names starting with `prefix` (empty = all), sorted.
  std::vector<std::string> ListNames(const std::string& prefix) const;

  // ---- Advisory byte-range locks (extension; see protocol.hpp) --------

  /// Non-blocking try-acquire. Zero-length range means the whole file.
  /// Re-acquiring a range the owner already holds is idempotent. Returns
  /// kResourceExhausted on conflict.
  Status TryLock(FileHandle handle, Extent range, std::uint64_t owner,
                 bool exclusive);
  /// Releases the owner's lock exactly matching `range` (normalized the
  /// same way); kNotFound if absent.
  Status Unlock(FileHandle handle, Extent range, std::uint64_t owner);
  std::size_t LockCount(FileHandle handle) const;

  std::uint32_t server_count() const { return server_count_; }
  std::size_t file_count() const;

  struct Stats {
    std::atomic<std::uint64_t> requests = 0;
    std::atomic<std::uint64_t> creates = 0;
    std::atomic<std::uint64_t> lookups = 0;
    std::atomic<std::uint64_t> corruptions_detected = 0;  // corrupt frames
  };
  const Stats& stats() const { return stats_; }
  /// Copy the counters into a registry as "manager.*"; the kStats
  /// response body is this registry (obs::StatsBody).
  void ExportMetrics(obs::Registry& reg, const obs::Labels& base = {}) const;

 private:
  struct RangeLock {
    Extent range;
    std::uint64_t owner;
    bool exclusive;
  };
  static Extent NormalizeLockRange(Extent range);

  std::uint32_t server_count_;
  mutable std::mutex mu_;  // guards next_handle_ and the three tables
  FileHandle next_handle_ = 1;
  std::unordered_map<std::string, Metadata> by_name_;
  std::unordered_map<FileHandle, std::string> by_handle_;
  std::unordered_map<FileHandle, std::vector<RangeLock>> locks_;
  Stats stats_;
};

}  // namespace pvfs
