#include "pvfs/manager.hpp"

#include <algorithm>

#include "common/request_id.hpp"
#include "obs/export.hpp"
#include "obs/span.hpp"

namespace pvfs {

Result<Metadata> Manager::Create(const std::string& name,
                                 const CreateOptions& options) {
  ++stats_.creates;
  const Striping& striping = options.striping;
  if (name.empty()) return InvalidArgument("empty file name");
  if (striping.pcount == 0 || striping.pcount > server_count_) {
    return InvalidArgument("striping pcount outside [1, server_count]");
  }
  if (striping.base >= server_count_) {
    return InvalidArgument("striping base beyond server table");
  }
  if (striping.ssize == 0) return InvalidArgument("zero stripe size");
  // Reject malformed layout shapes here, at file birth — a bad spec that
  // reached the data path would silently misplace bytes.
  if (Status s = ValidateDistributionSpec(striping, options.dist); !s.ok()) {
    return s;
  }
  if (options.replication.replicas == 0 ||
      options.replication.replicas > striping.pcount) {
    return InvalidArgument("replicas outside [1, pcount]");
  }
  std::lock_guard lock(mu_);
  if (by_name_.contains(name)) return AlreadyExists("file exists: " + name);

  Metadata meta;
  meta.handle = next_handle_++;
  meta.striping = striping;
  meta.dist = options.dist;
  meta.size = 0;
  meta.replication = options.replication;
  meta.epoch = 1;
  by_name_.emplace(name, meta);
  by_handle_.emplace(meta.handle, name);
  return meta;
}

Result<Metadata> Manager::Lookup(const std::string& name) const {
  std::lock_guard lock(mu_);
  auto it = by_name_.find(name);
  if (it == by_name_.end()) return NotFound("no such file: " + name);
  return it->second;
}

Status Manager::Remove(const std::string& name) {
  std::lock_guard lock(mu_);
  auto it = by_name_.find(name);
  if (it == by_name_.end()) return NotFound("no such file: " + name);
  locks_.erase(it->second.handle);
  by_handle_.erase(it->second.handle);
  by_name_.erase(it);
  return Status::Ok();
}

Result<Metadata> Manager::Stat(FileHandle handle) const {
  std::lock_guard lock(mu_);
  auto it = by_handle_.find(handle);
  if (it == by_handle_.end()) return NotFound("no such handle");
  return by_name_.at(it->second);
}

Status Manager::SetSize(FileHandle handle, ByteCount size) {
  std::lock_guard lock(mu_);
  auto it = by_handle_.find(handle);
  if (it == by_handle_.end()) return NotFound("no such handle");
  Metadata& meta = by_name_.at(it->second);
  meta.size = std::max(meta.size, size);
  // Every accepted SetSize bumps the generation, even a no-op max-merge: a
  // writer that overwrote data in place without growing the file still
  // flushed a size at close, and cached readers must notice that close
  // (epoch mismatch drops their stale pages; docs/client-caching.md).
  ++meta.epoch;
  return Status::Ok();
}

std::vector<std::string> Manager::ListNames(const std::string& prefix) const {
  std::lock_guard lock(mu_);
  std::vector<std::string> names;
  for (const auto& [name, meta] : by_name_) {
    if (name.size() >= prefix.size() &&
        name.compare(0, prefix.size(), prefix) == 0) {
      names.push_back(name);
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

Extent Manager::NormalizeLockRange(Extent range) {
  if (range.length == 0) {
    return Extent{0, static_cast<ByteCount>(-1)};  // whole file
  }
  return range;
}

Status Manager::TryLock(FileHandle handle, Extent range, std::uint64_t owner,
                        bool exclusive) {
  std::lock_guard lock(mu_);
  if (!by_handle_.contains(handle)) return NotFound("no such handle");
  range = NormalizeLockRange(range);
  std::vector<RangeLock>& held = locks_[handle];
  for (const RangeLock& lock : held) {
    if (lock.owner == owner) {
      if (lock.range == range) return Status::Ok();  // idempotent re-lock
      continue;  // an owner never conflicts with itself
    }
    if (lock.range.overlaps(range) && (lock.exclusive || exclusive)) {
      return ResourceExhausted("range locked by another owner");
    }
  }
  held.push_back(RangeLock{range, owner, exclusive});
  return Status::Ok();
}

Status Manager::Unlock(FileHandle handle, Extent range, std::uint64_t owner) {
  std::lock_guard lock(mu_);
  auto it = locks_.find(handle);
  if (it == locks_.end()) return NotFound("no locks on handle");
  range = NormalizeLockRange(range);
  auto& held = it->second;
  for (size_t i = 0; i < held.size(); ++i) {
    if (held[i].owner == owner && held[i].range == range) {
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
      if (held.empty()) locks_.erase(it);
      return Status::Ok();
    }
  }
  return NotFound("no matching lock");
}

std::size_t Manager::LockCount(FileHandle handle) const {
  std::lock_guard lock(mu_);
  auto it = locks_.find(handle);
  return it == locks_.end() ? 0 : it->second.size();
}

std::size_t Manager::file_count() const {
  std::lock_guard lock(mu_);
  return by_name_.size();
}

std::vector<std::byte> Manager::HandleSealedMessage(
    std::span<const std::byte> raw) {
  auto opened = OpenFrameWithId(raw);
  if (!opened.ok()) {
    ++stats_.corruptions_detected;
    return SealFrame(EncodeResponse(opened.status(), {}));
  }
  // Adopt the caller's request id for the scope of this request so
  // manager-side spans (and the sealed response) stitch to the client
  // call that caused them.
  obs::RequestIdScope id_scope(opened->request_id);
  PVFS_SPAN("manager.handle");
  return SealFrame(HandleMessage(opened->payload));
}

std::vector<std::byte> Manager::HandleMessage(std::span<const std::byte> raw) {
  ++stats_.requests;
  auto type = PeekType(raw);
  if (!type.ok()) return EncodeResponse(type.status(), {});

  WireReader r(raw);
  (void)r.U32();  // consume the type word PeekType validated

  auto respond_meta = [](const Result<Metadata>& meta) {
    if (!meta.ok()) return EncodeResponse(meta.status(), {});
    MetadataResponse resp{meta.value()};
    return EncodeResponse(Status::Ok(), resp.Encode());
  };

  switch (type.value()) {
    case MsgType::kCreate: {
      auto req = CreateRequest::Decode(r);
      if (!req.ok()) return EncodeResponse(req.status(), {});
      return respond_meta(Create(req->name, req->options));
    }
    case MsgType::kLookup: {
      ++stats_.lookups;
      auto req = LookupRequest::Decode(r);
      if (!req.ok()) return EncodeResponse(req.status(), {});
      return respond_meta(Lookup(req->name));
    }
    case MsgType::kRemove: {
      auto req = RemoveRequest::Decode(r);
      if (!req.ok()) return EncodeResponse(req.status(), {});
      return EncodeResponse(Remove(req->name), {});
    }
    case MsgType::kStat: {
      auto req = StatRequest::Decode(r);
      if (!req.ok()) return EncodeResponse(req.status(), {});
      return respond_meta(Stat(req->handle));
    }
    case MsgType::kSetSize: {
      auto req = SetSizeRequest::Decode(r);
      if (!req.ok()) return EncodeResponse(req.status(), {});
      return EncodeResponse(SetSize(req->handle, req->size), {});
    }
    case MsgType::kListNames: {
      auto req = ListNamesRequest::Decode(r);
      if (!req.ok()) return EncodeResponse(req.status(), {});
      NamesResponse resp{ListNames(req->prefix)};
      return EncodeResponse(Status::Ok(), resp.Encode());
    }
    case MsgType::kLock: {
      auto req = LockRequest::Decode(r);
      if (!req.ok()) return EncodeResponse(req.status(), {});
      return EncodeResponse(
          TryLock(req->handle, req->range, req->owner, req->exclusive), {});
    }
    case MsgType::kUnlock: {
      auto req = UnlockRequest::Decode(r);
      if (!req.ok()) return EncodeResponse(req.status(), {});
      return EncodeResponse(Unlock(req->handle, req->range, req->owner), {});
    }
    case MsgType::kStats: {
      obs::Registry reg;
      ExportMetrics(reg);
      StatsResponse resp{obs::StatsBody(reg).Dump()};
      return EncodeResponse(Status::Ok(), resp.Encode());
    }
    default:
      return EncodeResponse(
          InvalidArgument("message type not handled by manager"), {});
  }
}

void Manager::ExportMetrics(obs::Registry& reg,
                            const obs::Labels& base) const {
  reg.Counter("manager.requests", base).Set(stats_.requests);
  reg.Counter("manager.creates", base).Set(stats_.creates);
  reg.Counter("manager.lookups", base).Set(stats_.lookups);
  reg.Counter("manager.corruptions_detected", base)
      .Set(stats_.corruptions_detected);
  reg.Gauge("manager.files", base)
      .Set(static_cast<std::int64_t>(file_count()));
}

}  // namespace pvfs
