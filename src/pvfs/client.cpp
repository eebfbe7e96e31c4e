#include "pvfs/client.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/request_id.hpp"
#include "fault/fault.hpp"
#include "obs/span.hpp"

namespace pvfs {

std::vector<ExtentList> ChunkRegions(std::span<const Extent> regions,
                                     std::uint32_t max_regions) {
  std::vector<ExtentList> chunks;
  ExtentList current;
  current.reserve(std::min<size_t>(regions.size(), max_regions));
  for (const Extent& e : regions) {
    if (e.empty()) continue;
    current.push_back(e);
    if (current.size() == max_regions) {
      chunks.push_back(std::move(current));
      current = {};
      current.reserve(max_regions);
    }
  }
  if (!current.empty()) chunks.push_back(std::move(current));
  return chunks;
}

namespace {

/// Walks a memory extent list over a caller buffer as one byte stream,
/// moving bytes to/from packed chunk streams.
class StreamCursor {
 public:
  explicit StreamCursor(std::span<const Extent> regions) : regions_(regions) {}

  /// Copy the next out.size() stream bytes from `buffer` into `out`.
  void Gather(std::span<const std::byte> buffer, std::span<std::byte> out) {
    Walk(out.size(), [&](const Extent& piece, ByteCount done) {
      std::memcpy(out.data() + done, buffer.data() + piece.offset,
                  piece.length);
    });
  }

  /// Copy `in` into the next in.size() stream bytes of `buffer`.
  void Scatter(std::span<const std::byte> in, std::span<std::byte> buffer) {
    Walk(in.size(), [&](const Extent& piece, ByteCount done) {
      std::memcpy(buffer.data() + piece.offset, in.data() + done,
                  piece.length);
    });
  }

 private:
  template <typename Fn>
  void Walk(ByteCount want, const Fn& fn) {
    ByteCount done = 0;
    while (done < want) {
      const Extent& region = regions_[idx_];
      ByteCount avail = region.length - used_;
      ByteCount take = std::min(avail, want - done);
      fn(Extent{region.offset + used_, take}, done);
      done += take;
      used_ += take;
      if (used_ == region.length) {
        ++idx_;
        used_ = 0;
      }
    }
  }

  std::span<const Extent> regions_;
  size_t idx_ = 0;
  ByteCount used_ = 0;
};

}  // namespace

// ---- Namespace & lifecycle ------------------------------------------------

Result<DecodedResponse> Client::SealedCall(
    const Endpoint& dest, std::vector<std::byte> request) const {
  // Every round trip gets a fresh request id; SealFrame stamps it into the
  // frame trailer so server-side spans can be stitched to this call.
  obs::RequestIdScope id_scope(obs::NextRequestId());
  PVFS_SPAN("client.call");
  PVFS_ASSIGN_OR_RETURN(
      std::vector<std::byte> raw,
      transport_->Call(dest, SealFrame(std::move(request))));
  auto payload = OpenFrame(raw);
  if (!payload.ok()) {
    ++counters_.corruptions;
    return payload.status();
  }
  PVFS_ASSIGN_OR_RETURN(DecodedResponse resp, DecodeResponse(*payload));
  if (resp.status.code() == ErrorCode::kCorruption) ++counters_.corruptions;
  if (resp.status.code() == ErrorCode::kBusy) ++counters_.busy_rejections;
  return resp;
}

Result<Metadata> Client::CallManagerMeta(std::vector<std::byte> request) {
  ++counters_.manager_messages;
  PVFS_ASSIGN_OR_RETURN(
      DecodedResponse resp,
      SealedCall(Endpoint::ManagerNode(), std::move(request)));
  if (!resp.status.ok()) return resp.status;
  PVFS_ASSIGN_OR_RETURN(MetadataResponse meta,
                        MetadataResponse::Decode(resp.body));
  return meta.meta;
}

Status Client::CallManagerVoid(std::vector<std::byte> request) {
  ++counters_.manager_messages;
  auto resp = SealedCall(Endpoint::ManagerNode(), std::move(request));
  if (!resp.ok()) return resp.status();
  return resp->status;
}

Result<Client::Fd> Client::Create(const std::string& name,
                                  const CreateOptions& options) {
  PVFS_ASSIGN_OR_RETURN(
      Metadata meta,
      CallManagerMeta(CreateRequest{name, options}.Encode()));
  if (options_.acache.enabled || options_.bcache.enabled) {
    std::lock_guard<std::mutex> lock(cache_mu_);
    // Insert displaces any entry the name previously mapped to (the
    // explicit Create invalidation); the fresh handle has no pages yet,
    // so recording its epoch is all the bcache needs.
    if (options_.acache.enabled) {
      acache_.Insert(name, meta, cache::AttributeCache::Clock::now());
    }
    if (options_.bcache.enabled) bcache_.NoteEpoch(meta.handle, meta.epoch);
  }
  std::lock_guard<std::mutex> lock(files_mu_);
  Fd fd = next_fd_++;
  open_files_.emplace(fd, OpenFile{meta, 0, name});
  return fd;
}

Result<Client::Fd> Client::Open(const std::string& name) {
  Metadata meta;
  bool cached = false;
  if (options_.acache.enabled) {
    std::lock_guard<std::mutex> lock(cache_mu_);
    if (auto hit =
            acache_.LookupName(name, cache::AttributeCache::Clock::now())) {
      meta = *hit;
      cached = true;
    }
  }
  if (!cached) {
    PVFS_ASSIGN_OR_RETURN(meta,
                          CallManagerMeta(LookupRequest{name}.Encode()));
  }
  if (options_.acache.enabled || options_.bcache.enabled) {
    std::lock_guard<std::mutex> lock(cache_mu_);
    if (!cached && options_.acache.enabled) {
      acache_.Insert(name, meta, cache::AttributeCache::Clock::now());
    }
    // Open-time epoch check (close-to-open): a lookup that observed a new
    // generation drops the clean pages cached under the old one. A cache
    // hit re-presents the recorded epoch, which is a no-op.
    if (options_.bcache.enabled) bcache_.NoteEpoch(meta.handle, meta.epoch);
  }
  std::lock_guard<std::mutex> lock(files_mu_);
  Fd fd = next_fd_++;
  open_files_.emplace(fd, OpenFile{meta, 0, name});
  return fd;
}

Status Client::Close(Fd fd) {
  OpenFile file;
  {
    std::lock_guard<std::mutex> lock(files_mu_);
    auto it = open_files_.find(fd);
    if (it == open_files_.end()) return FailedPrecondition("bad descriptor");
    file = it->second;
    open_files_.erase(it);
  }
  bool flushed_dirty = false;
  if (options_.bcache.enabled) {
    std::lock_guard<std::mutex> lock(cache_mu_);
    if (bcache_.HasDirty(file.meta.handle)) {
      Status flushed = bcache_.FlushHandle(file.meta.handle, PageFlusher(file));
      if (!flushed.ok()) {
        // The descriptor is gone and nothing will retry these pages: drop
        // them (bounded memory) and surface the error — publishing a size
        // that covers unflushed bytes would manufacture holes.
        bcache_.DropHandle(file.meta.handle);
        return flushed;
      }
      flushed_dirty = true;
    }
  }
  Status status = Status::Ok();
  // Publish through the manager when the size grew — or when write-back
  // flushed dirty pages at all: a same-size rewrite still needs the epoch
  // bump, or other clients' epoch checks would keep serving stale pages.
  if (file.high_water > file.meta.size || flushed_dirty) {
    status = CallManagerVoid(
        SetSizeRequest{file.meta.handle, file.high_water}.Encode());
    if (status.code() == ErrorCode::kNotFound) {
      // The file was Removed while we held it open. Its metadata — and the
      // data our writes would have sized — is gone by request, so there is
      // nothing left to publish: close-after-remove succeeds.
      status = Status::Ok();
    } else if (status.ok() &&
               (options_.acache.enabled || options_.bcache.enabled)) {
      // The manager's size and epoch both moved: the cached entry is
      // stale (explicit SetSize invalidation), and the next Open's epoch
      // check will drop the pages this fd populated.
      std::lock_guard<std::mutex> lock(cache_mu_);
      acache_.InvalidateHandle(file.meta.handle);
    }
  }
  return status;
}

Status Client::Remove(const std::string& name) {
  // Resolve through the manager, never the acache: a stale cached entry
  // must not aim the data drops at the wrong handle.
  auto meta = CallManagerMeta(LookupRequest{name}.Encode());
  if (!meta.ok()) return meta.status();
  // Drop chunk data BEFORE the manager name, visiting EVERY (daemon,
  // replica) leg even after a failure. The old order — name first, abort
  // on the first failed leg — orphaned chunks permanently: with the name
  // gone, a rerun died at Lookup and nothing could ever address the
  // surviving data. Now a partial failure keeps the name, the error
  // reports how many legs failed, and a rerun re-resolves the handle and
  // re-drops; the daemons' store treats removal of an unknown handle as an
  // idempotent no-op, so re-dropped legs are free.
  const Distribution dist(meta->layout());
  const std::uint32_t replicas = dist.EffectiveReplicas();
  Status first_error = Status::Ok();
  std::uint32_t failed_legs = 0;
  for (std::uint32_t k = 0; k < replicas; ++k) {
    // Every daemon holds replica ordinal k for exactly one primary, so one
    // RemoveData per (daemon, derived handle) drops the whole copy.
    RemoveDataRequest drop{ReplicaHandle(meta->handle, k)};
    std::vector<std::byte> encoded = drop.Encode();
    for (std::uint32_t s = 0; s < meta->striping.pcount; ++s) {
      ServerId server = (meta->striping.base + s) %
                        transport_->server_count();
      ++counters_.messages;
      auto resp = SealedCall(Endpoint::Iod(server), encoded);
      Status leg = resp.ok() ? resp->status : resp.status();
      if (!leg.ok() && leg.code() != ErrorCode::kNotFound) {
        ++failed_legs;
        if (first_error.ok()) first_error = std::move(leg);
      }
    }
  }
  if (!first_error.ok()) {
    return Status(first_error.code(),
                  "Remove(" + name + "): " + std::to_string(failed_legs) +
                      " data-drop leg(s) failed, name kept for rerun; "
                      "first error: " + first_error.ToString());
  }
  Status removed = CallManagerVoid(RemoveRequest{name}.Encode());
  // kNotFound here means a concurrent Remove won the race after our
  // lookup; the end state (no name, no data) is what we wanted.
  if (!removed.ok() && removed.code() != ErrorCode::kNotFound) return removed;
  if (options_.acache.enabled || options_.bcache.enabled) {
    std::lock_guard<std::mutex> lock(cache_mu_);
    acache_.InvalidateName(name);
    acache_.InvalidateHandle(meta->handle);
    // Dirty pages included: their backing file is gone by request.
    bcache_.DropHandle(meta->handle);
  }
  return Status::Ok();
}

Result<std::vector<std::string>> Client::ListFiles(const std::string& prefix) {
  ++counters_.manager_messages;
  PVFS_ASSIGN_OR_RETURN(
      DecodedResponse resp,
      SealedCall(Endpoint::ManagerNode(), ListNamesRequest{prefix}.Encode()));
  if (!resp.status.ok()) return resp.status;
  PVFS_ASSIGN_OR_RETURN(NamesResponse names, NamesResponse::Decode(resp.body));
  return names.names;
}

std::uint64_t Client::NextLockOwner() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1);
}

Status Client::TryLockRange(Fd fd, Extent range, bool exclusive) {
  PVFS_ASSIGN_OR_RETURN(OpenFile file, SnapshotFd(fd));
  PVFS_RETURN_IF_ERROR(CallManagerVoid(
      LockRequest{file.meta.handle, range, lock_owner_, exclusive}.Encode()));
  // Flush-on-lock: entering a locked section publishes this client's
  // buffered writes and discards its clean pages, so every read under the
  // lock observes server state at least as fresh as the grant. A flush
  // failure surfaces with the lock still held — the caller owns the
  // unlock either way.
  Status flushed = FlushAndDropClean(file);
  MergeHighWater(fd, file.high_water);
  return flushed;
}

Status Client::LockRange(Fd fd, Extent range, bool exclusive) {
  PVFS_SPAN("client.lock_range");
  std::chrono::microseconds backoff = options_.lock_initial_backoff;
  for (std::uint32_t attempt = 1;; ++attempt) {
    Status status = TryLockRange(fd, range, exclusive);
    if (status.code() != ErrorCode::kResourceExhausted) return status;
    if (attempt >= options_.lock_max_attempts) {
      return DeadlineExceeded("LockRange: lock still contended after " +
                              std::to_string(attempt) + " attempts");
    }
    std::this_thread::sleep_for(backoff);
    counters_.backoff_us += static_cast<std::uint64_t>(backoff.count());
    backoff = NextBackoff(backoff, options_.lock_initial_backoff,
                          options_.lock_max_backoff,
                          fault::kSiteLockBackoff, lock_owner_, attempt);
  }
}

Status Client::UnlockRange(Fd fd, Extent range) {
  PVFS_ASSIGN_OR_RETURN(OpenFile file, SnapshotFd(fd));
  // Writes made under the lock must be visible before the lock is
  // released; a failed flush keeps the lock held (the caller may retry
  // the unlock) rather than publishing the range with buffered bytes
  // missing.
  PVFS_RETURN_IF_ERROR(FlushAndDropClean(file));
  MergeHighWater(fd, file.high_water);
  return CallManagerVoid(
      UnlockRequest{file.meta.handle, range, lock_owner_}.Encode());
}

Status Client::FlushAndDropClean(OpenFile& file) {
  if (!options_.bcache.enabled) return Status::Ok();
  std::lock_guard<std::mutex> lock(cache_mu_);
  PVFS_RETURN_IF_ERROR(bcache_.FlushHandle(file.meta.handle,
                                           PageFlusher(file)));
  bcache_.DropCleanPages(file.meta.handle);
  return Status::Ok();
}

Result<Metadata> Client::Stat(Fd fd) {
  PVFS_ASSIGN_OR_RETURN(OpenFile file, SnapshotFd(fd));
  Metadata meta;
  bool cached = false;
  if (options_.acache.enabled) {
    std::lock_guard<std::mutex> lock(cache_mu_);
    if (auto hit = acache_.LookupHandle(file.meta.handle,
                                        cache::AttributeCache::Clock::now())) {
      meta = *hit;
      cached = true;
    }
  }
  if (!cached) {
    PVFS_ASSIGN_OR_RETURN(
        meta, CallManagerMeta(StatRequest{file.meta.handle}.Encode()));
    if (options_.acache.enabled || options_.bcache.enabled) {
      std::lock_guard<std::mutex> lock(cache_mu_);
      if (options_.acache.enabled) {
        acache_.Insert(file.name, meta, cache::AttributeCache::Clock::now());
      }
      // A refreshed Stat revalidates (or invalidates) cached pages exactly
      // like an Open would.
      if (options_.bcache.enabled) bcache_.NoteEpoch(meta.handle, meta.epoch);
    }
  }
  std::lock_guard<std::mutex> lock(files_mu_);
  auto it = open_files_.find(fd);
  if (it != open_files_.end()) {
    // Refreshing the stored metadata must not clobber the descriptor's
    // high-water mark: the manager only learns the size at Close, so until
    // then the local mark can exceed meta.size.
    it->second.meta = meta;
    meta.size = std::max(meta.size, it->second.high_water);
  } else {
    meta.size = std::max(meta.size, file.high_water);
  }
  return meta;
}

Result<Metadata> Client::DescribeFd(Fd fd) const {
  PVFS_ASSIGN_OR_RETURN(OpenFile file, SnapshotFd(fd));
  return file.meta;
}

void Client::InvalidateCache(const std::string& name) {
  if (!options_.acache.enabled && !options_.bcache.enabled) return;
  std::lock_guard<std::mutex> lock(cache_mu_);
  if (auto handle = acache_.CachedHandle(name)) {
    // Dirty pages survive: they are this client's own unpublished writes,
    // and the next flush still owns them. Only cached server state drops.
    bcache_.DropCleanPages(*handle);
    acache_.InvalidateHandle(*handle);
  }
  acache_.InvalidateName(name);
}

Result<Client::OpenFile> Client::SnapshotFd(Fd fd) const {
  std::lock_guard<std::mutex> lock(files_mu_);
  auto it = open_files_.find(fd);
  if (it == open_files_.end()) return FailedPrecondition("bad descriptor");
  return it->second;
}

void Client::MergeHighWater(Fd fd, ByteCount high_water) {
  std::lock_guard<std::mutex> lock(files_mu_);
  auto it = open_files_.find(fd);
  if (it == open_files_.end()) return;  // closed while the op was in flight
  it->second.high_water = std::max(it->second.high_water, high_water);
}

// ---- I/O -------------------------------------------------------------------

Status Client::ValidateListArgs(std::span<const Extent> mem_regions,
                                size_t buffer_size,
                                std::span<const Extent> file_regions) {
  if (TotalBytes(mem_regions) != TotalBytes(file_regions)) {
    return InvalidArgument("memory and file region lists describe different "
                           "byte totals");
  }
  for (const Extent& m : mem_regions) {
    // Check for offset+length wraparound BEFORE the bounds check: a
    // wrapping extent has a small m.end() that passes the bounds check and
    // then indexes the caller's buffer out of range.
    if (m.offset + m.length < m.offset) {
      return InvalidArgument("memory region overflows offset space");
    }
    if (m.end() > buffer_size) {
      return InvalidArgument("memory region outside caller buffer");
    }
  }
  for (const Extent& f : file_regions) {
    if (f.offset + f.length < f.offset) {
      return InvalidArgument("file region overflows offset space");
    }
  }
  return Status::Ok();
}

std::chrono::microseconds Client::NextBackoff(
    std::chrono::microseconds prev, std::chrono::microseconds initial,
    std::chrono::microseconds cap, std::uint32_t site, std::uint64_t stream,
    std::uint64_t seq) const {
  if (!options_.retry.jitter) return std::min(prev * 2, cap);
  // Decorrelated jitter: uniform in [initial, 3*prev]. Grows about as fast
  // as doubling in expectation, but concurrent clients that failed
  // together spread out instead of re-colliding in lockstep. The draw is
  // a pure hash of (seed, site, stream, attempt), so a client's schedule
  // is reproducible and independent of thread interleaving.
  const double u = fault::HashedUniform(options_.retry.jitter_seed, site,
                                        stream, seq, 0);
  const double lo = static_cast<double>(initial.count());
  const double hi = static_cast<double>(prev.count()) * 3.0;
  const double next = lo + u * std::max(0.0, hi - lo);
  return std::min(
      std::chrono::microseconds(static_cast<std::int64_t>(next)), cap);
}

void Client::CountRetryCode(ErrorCode code) const {
  switch (code) {
    case ErrorCode::kUnavailable: ++counters_.retries_unavailable; break;
    case ErrorCode::kBusy: ++counters_.retries_busy; break;
    case ErrorCode::kCorruption: ++counters_.retries_corruption; break;
    case ErrorCode::kDeadlineExceeded: ++counters_.retries_deadline; break;
    case ErrorCode::kProtocol: ++counters_.retries_protocol; break;
    default: break;
  }
}

bool Client::SkipReplica(ServerId global) const {
  std::lock_guard<std::mutex> lock(health_mu_);
  auto it = health_.find(global);
  if (it == health_.end() || !it->second.ejected) return false;
  const auto now = std::chrono::steady_clock::now();
  if (now < it->second.probe_at) return true;
  // Claim the probe: push the deadline out so only this op pays the
  // potential timeout; a success resets the entry entirely.
  it->second.probe_at = now + options_.failover.probe_backoff;
  return false;
}

void Client::RecordReplicaSuccess(ServerId global) const {
  std::lock_guard<std::mutex> lock(health_mu_);
  auto it = health_.find(global);
  if (it != health_.end()) health_.erase(it);
}

void Client::RecordReplicaFailure(ServerId global) const {
  std::lock_guard<std::mutex> lock(health_mu_);
  ReplicaHealth& h = health_[global];
  ++h.consecutive_failures;
  if (!h.ejected && h.consecutive_failures >= options_.failover.eject_after) {
    h.ejected = true;
    h.probe_at =
        std::chrono::steady_clock::now() + options_.failover.probe_backoff;
    ++counters_.ejected_replicas;
  }
}

template <typename Round>
Status Client::RetryRounds(const OpenFile& file, ServerId primary,
                           const Round& round) const {
  const RetryPolicy& policy = options_.retry;
  // Distinct jitter stream per (client, server): mix the client's unique
  // lock-owner token with the server id.
  const std::uint64_t stream =
      lock_owner_ * 0x9E3779B97F4A7C15ull ^ static_cast<std::uint64_t>(primary);
  std::chrono::microseconds backoff = policy.initial_backoff;
  // One budget per exchange, running from the FIRST attempt and shared by
  // every replica leg and round: a budget restarted per attempt or per leg
  // could sleep unboundedly under a flapping server, which is the bug
  // RetryPolicy::op_deadline fixes.
  const bool budgeted = policy.op_deadline.count() > 0;
  const auto deadline = std::chrono::steady_clock::now() + policy.op_deadline;
  for (std::uint32_t attempt = 1;; ++attempt) {
    Status status = round();
    if (status.ok() || !IsRetryable(status.code())) return status;
    // Every way out below ran out of attempts or time: the exchange counts
    // once in retry_exhausted, whatever the replica count.
    const auto give_up = [&](const std::string& why) {
      ++counters_.retry_exhausted;
      return DeadlineExceeded(
          "exchange with server " + std::to_string(GlobalOf(file, primary)) +
          why + std::to_string(attempt) + " attempts; last error: " +
          status.ToString());
    };
    if (policy.max_attempts <= 1) {
      // Fail-fast still exhausts its (single-attempt) budget, but the
      // original error surfaces unchanged.
      ++counters_.retry_exhausted;
      return status;
    }
    if (attempt >= policy.max_attempts) {
      return give_up(" failed ");
    }
    std::chrono::microseconds sleep = backoff;
    if (budgeted) {
      const auto remaining =
          std::chrono::duration_cast<std::chrono::microseconds>(
              deadline - std::chrono::steady_clock::now());
      if (remaining <= std::chrono::microseconds::zero()) {
        return give_up(": op_deadline spent after ");
      }
      // Clamp the final sleep to the remaining budget so the loop wakes
      // with time for exactly one more attempt instead of oversleeping
      // past the deadline.
      sleep = std::min(sleep, remaining);
    }
    ++counters_.retries;
    CountRetryCode(status.code());
    std::this_thread::sleep_for(sleep);
    counters_.backoff_us += static_cast<std::uint64_t>(sleep.count());
    backoff = NextBackoff(backoff, policy.initial_backoff, policy.max_backoff,
                          fault::kSiteRetryBackoff, stream, attempt + 1);
  }
}

Result<std::vector<std::byte>> Client::Exchange(const OpenFile& file,
                                                const Distribution& dist,
                                                IoRequest& request) const {
  PVFS_SPAN("client.exchange");
  const ServerId primary = request.server_index;
  const FileHandle handle = request.handle;
  const bool is_write = request.op == IoOp::kWrite;
  const std::uint32_t replicas = dist.EffectiveReplicas();
  // Health picks where to fail over to; a set of one has nowhere to go,
  // so it keeps no health record and never ejects its only endpoint.
  const bool can_fail_over = replicas > 1;
  std::vector<bool> acked(replicas);
  std::uint32_t acks = 0;
  std::vector<std::byte> body;
  // One attempt is one round over the replica set in placement order. Any
  // retryable error moves on to the next replica; only an unreachable one
  // (kUnavailable/kDeadlineExceeded) counts against its health, since a
  // replica that sheds (kBusy) or holds a damaged chunk (kCorruption) is
  // alive. A read stops at the first answer. A write sends every replica
  // that has not acked yet; it acks degraded once the others are
  // unreachable, and resends a shedding replica next round.
  Status status = RetryRounds(file, primary, [&]() -> Status {
    Status last = Unavailable("no replica reachable");
    bool shed = false;  // a live replica still owes this write an ack
    // Pass 0 honours ejections; pass 1 runs only if every candidate was
    // benched, so a fully-ejected replica set still gets probed instead of
    // sleeping the round away.
    bool attempted = false;
    for (int pass = 0; pass < 2 && !attempted; ++pass) {
      for (std::uint32_t k = 0; k < replicas; ++k) {
        const ServerId global = GlobalOf(file, dist.ReplicaOf(primary, k));
        if (acked[k] || (pass == 0 && can_fail_over && SkipReplica(global))) {
          continue;
        }
        attempted = true;
        // Every replica serves the primary's fragment set (selected by
        // server_index, not its own id) under a derived handle, giving
        // each copy the primary's exact local layout.
        request.handle = ReplicaHandle(handle, k);
        auto reply = SealedCall(Endpoint::Iod(global), request.Encode());
        const Status leg = reply.ok() ? reply->status : reply.status();
        if (!leg.ok()) {
          if (!IsRetryable(leg.code())) return leg;
          if (!IsFailoverEligible(leg.code())) {
            shed = true;
          } else if (can_fail_over) {
            RecordReplicaFailure(global);
          }
          last = leg;
          continue;
        }
        if (can_fail_over) RecordReplicaSuccess(global);
        if (!is_write) {
          if (k > 0) ++counters_.retargets;  // served degraded, off primary
          body = std::move(reply->body);
          return Status::Ok();
        }
        acked[k] = true;
        ++acks;
      }
    }
    if (acks == 0 || shed) return last;
    // Degraded ack: the write succeeds; every copy it proceeded without is
    // a retarget, restored later by re-replication (docs/replication.md).
    counters_.retargets += replicas - acks;
    return Status::Ok();
  });
  if (!status.ok()) {
    if (acks == 0 || !IsRetryable(status.code())) return status;
    // Out of attempts with a replica still shedding: the acked copies
    // carry the write, degraded, as when the rest are unreachable.
    counters_.retargets += replicas - acks;
  }
  return body;
}

template <typename Fn>
Status Client::ForEachServer(std::size_t n, const Fn& fn) {
  // BOTH modes contact every server and return the first (index-order)
  // error: stopping the serial walk at the first failure would leave a
  // different partial-write footprint than the parallel path, making
  // recovery behaviour depend on `parallel_fanout`.
  std::vector<Status> results(n);
  if (!options_.parallel_fanout || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) results[i] = fn(i);
  } else {
    // Legs are claimed from a shared counter by up to n-1 pool helpers AND
    // by this thread, which therefore never waits on a leg nobody runs —
    // even when it is itself a pool worker and the pool is saturated. A
    // helper that starts after every leg was claimed touches nothing but
    // the shared batch.
    struct Batch {
      std::atomic<std::size_t> next{0};
      std::mutex mu;
      std::condition_variable cv;
      std::size_t done = 0;
    };
    auto batch = std::make_shared<Batch>();
    const auto run_legs = [batch, n, &fn, &results] {
      for (std::size_t i = batch->next++; i < n; i = batch->next++) {
        results[i] = fn(i);
        std::lock_guard<std::mutex> lock(batch->mu);
        if (++batch->done == n) batch->cv.notify_all();
      }
    };
    for (std::size_t helper = 1; helper < n; ++helper) Post(run_legs);
    run_legs();
    std::unique_lock<std::mutex> lock(batch->mu);
    batch->cv.wait(lock, [&] { return batch->done == n; });
  }
  for (const Status& status : results) {
    PVFS_RETURN_IF_ERROR(status);
  }
  return Status::Ok();
}

Status Client::WriteChunk(OpenFile& file, std::span<const Extent> chunk,
                          std::span<const std::byte> stream) {
  ++counters_.fs_requests;
  Distribution dist(file.meta.layout());
  const std::uint32_t replicas = dist.EffectiveReplicas();
  std::vector<Fragment> frags = dist.Fragments(chunk);

  // Build each involved server's payload in logical-walk order.
  std::unordered_map<ServerId, std::vector<std::byte>> payload_map;
  for (const Fragment& f : frags) {
    auto& p = payload_map[f.server];
    p.insert(p.end(), stream.begin() + static_cast<std::ptrdiff_t>(f.logical_pos),
             stream.begin() + static_cast<std::ptrdiff_t>(f.logical_pos + f.length));
  }
  std::vector<std::pair<ServerId, std::vector<std::byte>>> payloads(
      std::make_move_iterator(payload_map.begin()),
      std::make_move_iterator(payload_map.end()));
  // unordered_map iteration order is implementation-defined: sort by
  // server id so contact order — and with it the per-(client,server)
  // jitter streams and serial-mode failure footprint — is deterministic
  // across platforms and runs (and matches ReadChunk's InvolvedServers
  // order).
  std::sort(payloads.begin(), payloads.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  counters_.messages += payloads.size() * replicas;
  counters_.regions_sent += payloads.size() * replicas * chunk.size();
  PVFS_RETURN_IF_ERROR(ForEachServer(payloads.size(), [&](size_t i) -> Status {
    IoRequest req;
    req.handle = file.meta.handle;
    req.striping = file.meta.striping;
    req.dist = file.meta.dist;
    req.server_index = payloads[i].first;
    req.op = IoOp::kWrite;
    req.regions.assign(chunk.begin(), chunk.end());
    req.payload = std::move(payloads[i].second);
    return Exchange(file, dist, req).status();
  }));
  counters_.bytes_written += stream.size();
  for (const Extent& e : chunk) {
    file.high_water = std::max<ByteCount>(file.high_water, e.end());
  }
  return Status::Ok();
}

Status Client::ReadChunk(OpenFile& file, std::span<const Extent> chunk,
                         std::span<std::byte> stream) {
  Distribution dist(file.meta.layout());
  std::vector<ServerId> involved = dist.InvolvedServers(chunk);

  ++counters_.fs_requests;
  counters_.messages += involved.size();
  counters_.regions_sent += involved.size() * chunk.size();
  std::vector<IoResponse> collected(involved.size());
  PVFS_RETURN_IF_ERROR(ForEachServer(involved.size(), [&](size_t i) -> Status {
    IoRequest req;
    req.handle = file.meta.handle;
    req.striping = file.meta.striping;
    req.dist = file.meta.dist;
    req.server_index = involved[i];
    req.op = IoOp::kRead;
    req.regions.assign(chunk.begin(), chunk.end());
    PVFS_ASSIGN_OR_RETURN(std::vector<std::byte> body,
                          Exchange(file, dist, req));
    PVFS_ASSIGN_OR_RETURN(collected[i], IoResponse::Decode(body));
    return Status::Ok();
  }));
  std::unordered_map<ServerId, IoResponse> responses;
  for (size_t i = 0; i < involved.size(); ++i) {
    responses.emplace(involved[i], std::move(collected[i]));
  }

  // Reassemble the logical stream: fragments arrive per server in walk
  // order, so a cursor per server suffices.
  std::unordered_map<ServerId, ByteCount> cursors;
  std::vector<Fragment> frags = dist.Fragments(chunk);
  for (const Fragment& f : frags) {
    const IoResponse& io = responses.at(f.server);
    ByteCount& cur = cursors[f.server];
    if (cur + f.length > io.payload.size()) {
      return ProtocolError("server returned short payload");
    }
    std::memcpy(stream.data() + f.logical_pos, io.payload.data() + cur,
                f.length);
    cur += f.length;
  }
  counters_.bytes_read += stream.size();
  return Status::Ok();
}

Result<ExtentList> Client::ChunkableRegions(
    std::span<const Extent> mem_regions,
    std::span<const Extent> file_regions) const {
  if (options_.chunking == ListChunking::kFileRegions) {
    return ExtentList(file_regions.begin(), file_regions.end());
  }
  // 2002/ROMIO mode: the request cap applies to memory entries too, so
  // chunk at matched-segment granularity (file regions split wherever the
  // memory side breaks).
  PVFS_ASSIGN_OR_RETURN(std::vector<Segment> segments,
                        MatchSegments(mem_regions, file_regions));
  ExtentList out;
  out.reserve(segments.size());
  for (const Segment& seg : segments) {
    out.push_back(Extent{seg.file_offset, seg.length});
  }
  return out;
}

Status Client::DoReadList(OpenFile& file, std::span<const Extent> mem_regions,
                          std::span<std::byte> buffer,
                          std::span<const Extent> file_regions) {
  PVFS_RETURN_IF_ERROR(
      ValidateListArgs(mem_regions, buffer.size(), file_regions));
  ++counters_.operations;
  if (options_.bcache.enabled) {
    return CachedReadList(file, mem_regions, buffer, file_regions);
  }

  PVFS_ASSIGN_OR_RETURN(ExtentList chunkable,
                        ChunkableRegions(mem_regions, file_regions));
  StreamCursor cursor(mem_regions);
  std::vector<std::byte> stream;
  for (const ExtentList& chunk : ChunkRegions(chunkable,
                                              options_.max_list_regions)) {
    stream.resize(TotalBytes(chunk));
    PVFS_RETURN_IF_ERROR(ReadChunk(file, chunk, stream));
    cursor.Scatter(stream, buffer);
  }
  return Status::Ok();
}

Status Client::DoWriteList(Fd fd, OpenFile& file,
                           std::span<const Extent> mem_regions,
                           std::span<const std::byte> buffer,
                           std::span<const Extent> file_regions) {
  PVFS_RETURN_IF_ERROR(
      ValidateListArgs(mem_regions, buffer.size(), file_regions));
  ++counters_.operations;
  const auto write = [&]() -> Status {
    if (options_.bcache.enabled) {
      return CachedWriteList(file, mem_regions, buffer, file_regions);
    }
    PVFS_ASSIGN_OR_RETURN(ExtentList chunkable,
                          ChunkableRegions(mem_regions, file_regions));
    StreamCursor cursor(mem_regions);
    std::vector<std::byte> stream;
    for (const ExtentList& chunk : ChunkRegions(chunkable,
                                                options_.max_list_regions)) {
      stream.resize(TotalBytes(chunk));
      cursor.Gather(buffer, stream);
      PVFS_RETURN_IF_ERROR(WriteChunk(file, chunk, stream));
    }
    return Status::Ok();
  };
  const Status status = write();
  // Merge the high-water mark even on a partial failure: completed chunks
  // extended the file.
  MergeHighWater(fd, file.high_water);
  return status;
}

// ---- Buffer-cache path ------------------------------------------------------

cache::BufferCache::FetchFn Client::PageFetcher(OpenFile& file) {
  return [this, &file](FileOffset offset, std::span<std::byte> out) -> Status {
    const Extent chunk[] = {Extent{offset, out.size()}};
    return ReadChunk(file, chunk, out);
  };
}

cache::BufferCache::FlushFn Client::PageFlusher(OpenFile& file) {
  return [this, &file](FileOffset offset,
                       std::span<const std::byte> data) -> Status {
    const Extent chunk[] = {Extent{offset, data.size()}};
    return WriteChunk(file, chunk, data);
  };
}

Status Client::CachedReadList(OpenFile& file,
                              std::span<const Extent> mem_regions,
                              std::span<std::byte> buffer,
                              std::span<const Extent> file_regions) {
  PVFS_ASSIGN_OR_RETURN(std::vector<Segment> segments,
                        MatchSegments(mem_regions, file_regions));
  const auto fetch = PageFetcher(file);
  std::lock_guard<std::mutex> lock(cache_mu_);
  for (const Segment& seg : segments) {
    PVFS_RETURN_IF_ERROR(
        bcache_.Read(file.meta.handle, seg.file_offset,
                     buffer.subspan(seg.mem_offset, seg.length), fetch));
  }
  if (options_.readahead.enabled) {
    // The file-region list IS the access pattern: extrapolate it and pull
    // the predicted continuation in. Best-effort — a prefetch failure
    // never fails the read that triggered it. Predictions past the known
    // size bound are dropped: those pages could only hold zeros.
    const ByteCount known_end = std::max(file.meta.size, file.high_water);
    for (const Extent& predicted :
         cache::PlanReadahead(file_regions, options_.readahead)) {
      if (predicted.offset >= known_end) break;
      if (!bcache_.Prefetch(file.meta.handle, predicted, fetch).ok()) break;
    }
  }
  return Status::Ok();
}

Status Client::CachedWriteList(OpenFile& file,
                               std::span<const Extent> mem_regions,
                               std::span<const std::byte> buffer,
                               std::span<const Extent> file_regions) {
  PVFS_ASSIGN_OR_RETURN(std::vector<Segment> segments,
                        MatchSegments(mem_regions, file_regions));
  const auto fetch = PageFetcher(file);
  const auto flush = PageFlusher(file);
  std::lock_guard<std::mutex> lock(cache_mu_);
  for (const Segment& seg : segments) {
    PVFS_RETURN_IF_ERROR(
        bcache_.Write(file.meta.handle, seg.file_offset,
                      buffer.subspan(seg.mem_offset, seg.length), fetch,
                      flush));
    // The descriptor's high-water mark tracks what the application wrote,
    // not what has flushed: Stat and Close must see the buffered size.
    file.high_water =
        std::max<ByteCount>(file.high_water, seg.file_offset + seg.length);
  }
  return Status::Ok();
}

Status Client::ReadList(Fd fd, std::span<const Extent> mem_regions,
                        std::span<std::byte> buffer,
                        std::span<const Extent> file_regions) {
  PVFS_ASSIGN_OR_RETURN(OpenFile file, SnapshotFd(fd));
  return DoReadList(file, mem_regions, buffer, file_regions);
}

Status Client::WriteList(Fd fd, std::span<const Extent> mem_regions,
                         std::span<const std::byte> buffer,
                         std::span<const Extent> file_regions) {
  PVFS_ASSIGN_OR_RETURN(OpenFile file, SnapshotFd(fd));
  return DoWriteList(fd, file, mem_regions, buffer, file_regions);
}

Status Client::Read(Fd fd, FileOffset offset, std::span<std::byte> out) {
  const Extent mem[] = {{0, out.size()}};
  const Extent file[] = {{offset, out.size()}};
  return ReadList(fd, mem, out, file);
}

Status Client::Write(Fd fd, FileOffset offset,
                     std::span<const std::byte> data) {
  const Extent mem[] = {{0, data.size()}};
  const Extent file[] = {{offset, data.size()}};
  return WriteList(fd, mem, data, file);
}

// ---- Nonblocking list I/O ---------------------------------------------------

/// Shared completion state behind an Operation handle. Phase only moves
/// forward (queued -> running -> done, or queued -> canceled); `cv` fires
/// on every terminal transition.
struct Client::Operation::State {
  enum class Phase { kQueued, kRunning, kDone, kCanceled };

  std::mutex mu;
  std::condition_variable cv;
  Phase phase = Phase::kQueued;
  Status result = Status::Ok();

  // The deferred call, captured at submission. Extent lists are copied
  // (cheap, bounded); data buffers stay caller-owned per the API contract.
  bool is_write = false;
  Fd fd = -1;
  OpenFile file;  // descriptor snapshot taken at submit time
  std::vector<Extent> mem_regions;
  std::vector<Extent> file_regions;
  std::span<std::byte> out;       // read destination
  std::span<const std::byte> in;  // write source
};

bool Client::Operation::Test() const {
  if (!state_) return true;
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->phase == State::Phase::kDone ||
         state_->phase == State::Phase::kCanceled;
}

Status Client::Operation::Wait() {
  if (!state_) return FailedPrecondition("empty operation handle");
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [&] {
    return state_->phase == State::Phase::kDone ||
           state_->phase == State::Phase::kCanceled;
  });
  return state_->result;
}

bool Client::Operation::Cancel() {
  if (!state_) return false;
  std::lock_guard<std::mutex> lock(state_->mu);
  if (state_->phase != State::Phase::kQueued) return false;
  state_->phase = State::Phase::kCanceled;
  state_->result = FailedPrecondition("operation canceled before dispatch");
  state_->cv.notify_all();
  return true;
}

Client::~Client() {
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    pool_stopping_ = true;
  }
  pool_cv_.notify_all();
  for (std::thread& worker : pool_) worker.join();
}

void Client::Post(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    pool_queue_.push_back(std::move(task));
    if (pool_.empty()) {
      const std::uint32_t fanout =
          options_.parallel_fanout ? transport_->server_count() : 1;
      const std::uint32_t n =
          std::max<std::uint32_t>(1, options_.async_workers) *
          std::max<std::uint32_t>(1, fanout);
      pool_.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        pool_.emplace_back([this] { PoolLoop(); });
      }
    }
  }
  pool_cv_.notify_one();
}

void Client::PoolLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(pool_mu_);
      pool_cv_.wait(lock,
                    [&] { return pool_stopping_ || !pool_queue_.empty(); });
      // Stopping drains: submitted operations reference caller buffers,
      // so ~Client completes them rather than abandoning them.
      if (pool_queue_.empty()) return;
      task = std::move(pool_queue_.front());
      pool_queue_.pop_front();
    }
    task();
  }
}

Client::Operation Client::SubmitAsync(bool is_write, Fd fd,
                                      std::span<const Extent> mem_regions,
                                      std::span<std::byte> out,
                                      std::span<const std::byte> in,
                                      std::span<const Extent> file_regions) {
  auto state = std::make_shared<Operation::State>();
  state->is_write = is_write;
  state->fd = fd;
  state->mem_regions.assign(mem_regions.begin(), mem_regions.end());
  state->file_regions.assign(file_regions.begin(), file_regions.end());
  state->out = out;
  state->in = in;
  auto snapshot = SnapshotFd(fd);
  if (!snapshot.ok()) {
    // Submission errors resolve the handle immediately; Wait() reports
    // them typed, so the async path has exactly one error channel.
    state->phase = Operation::State::Phase::kDone;
    state->result = snapshot.status();
    return Operation(std::move(state));
  }
  state->file = std::move(*snapshot);
  Post([this, state] {
    {
      std::lock_guard<std::mutex> lock(state->mu);
      if (state->phase == Operation::State::Phase::kCanceled) return;
      state->phase = Operation::State::Phase::kRunning;
    }
    Status result =
        state->is_write
            ? DoWriteList(state->fd, state->file, state->mem_regions,
                          state->in, state->file_regions)
            : DoReadList(state->file, state->mem_regions, state->out,
                         state->file_regions);
    {
      std::lock_guard<std::mutex> lock(state->mu);
      state->phase = Operation::State::Phase::kDone;
      state->result = std::move(result);
    }
    state->cv.notify_all();
  });
  return Operation(std::move(state));
}

Client::Operation Client::ReadListAsync(Fd fd,
                                        std::span<const Extent> mem_regions,
                                        std::span<std::byte> buffer,
                                        std::span<const Extent> file_regions) {
  return SubmitAsync(/*is_write=*/false, fd, mem_regions, buffer, {},
                     file_regions);
}

Client::Operation Client::WriteListAsync(
    Fd fd, std::span<const Extent> mem_regions,
    std::span<const std::byte> buffer,
    std::span<const Extent> file_regions) {
  return SubmitAsync(/*is_write=*/true, fd, mem_regions, {}, buffer,
                     file_regions);
}

// ---- Observability ----------------------------------------------------------

void Client::ExportMetrics(obs::Registry& reg, const obs::Labels& base) const {
  // Every counter is labelled `base` plus, where the name splits by error
  // code or cache tier, one more label: retries by triggering code keep
  // failover, backpressure and integrity retries apart; acache (metadata)
  // and bcache (data pages) keep their hit rates apart.
  const auto counter = [&](std::string_view name, std::uint64_t value,
                           obs::Labels labels = {}) {
    labels.insert(labels.end(), base.begin(), base.end());
    reg.Counter(name, std::move(labels)).Set(value);
  };
  counter("client.operations", counters_.operations);
  counter("client.fs_requests", counters_.fs_requests);
  counter("client.messages", counters_.messages);
  counter("client.regions_sent", counters_.regions_sent);
  counter("client.bytes_read", counters_.bytes_read);
  counter("client.bytes_written", counters_.bytes_written);
  counter("client.manager_messages", counters_.manager_messages);
  counter("client.retries", counters_.retries);
  counter("client.retry_exhausted", counters_.retry_exhausted);
  counter("client.backoff_us", counters_.backoff_us);
  counter("client.corruptions", counters_.corruptions);
  counter("client.busy_rejections", counters_.busy_rejections);
  const auto code = [](const char* c) { return obs::Labels{{"code", c}}; };
  counter("client.retries", counters_.retries_unavailable,
          code("unavailable"));
  counter("client.retries", counters_.retries_busy, code("busy"));
  counter("client.retries", counters_.retries_corruption, code("corruption"));
  counter("client.retries", counters_.retries_deadline,
          code("deadline_exceeded"));
  counter("client.retries", counters_.retries_protocol, code("protocol"));
  counter("client.failover.retargets", counters_.retargets);
  counter("client.failover.ejected_replicas", counters_.ejected_replicas);
  const CacheCounters cache = cache_counters();
  const obs::Labels acache{{"tier", "acache"}};
  const obs::Labels bcache{{"tier", "bcache"}};
  counter("client.cache.hits", cache.acache.hits, acache);
  counter("client.cache.misses", cache.acache.misses, acache);
  counter("client.cache.evictions", cache.acache.evictions, acache);
  counter("client.cache.revalidations", cache.acache.revalidations, acache);
  counter("client.cache.hits", cache.bcache.hits, bcache);
  counter("client.cache.misses", cache.bcache.misses, bcache);
  counter("client.cache.evictions", cache.bcache.evictions, bcache);
  counter("client.cache.writeback_bytes", cache.bcache.writeback_bytes, bcache);
  counter("client.cache.readahead_hits", cache.bcache.readahead_hits, bcache);
  counter("client.cache.prefetched_pages", cache.bcache.prefetched_pages,
          bcache);
}

Result<std::string> Client::FetchServerStats(int server) {
  Endpoint dest = server < 0
                      ? Endpoint::ManagerNode()
                      : Endpoint::Iod(static_cast<ServerId>(server));
  ++(server < 0 ? counters_.manager_messages : counters_.messages);
  PVFS_ASSIGN_OR_RETURN(DecodedResponse resp,
                        SealedCall(dest, StatsRequest{}.Encode()));
  if (!resp.status.ok()) return resp.status;
  PVFS_ASSIGN_OR_RETURN(StatsResponse stats, StatsResponse::Decode(resp.body));
  return stats.json;
}

}  // namespace pvfs
