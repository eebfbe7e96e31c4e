#include "pvfs/iod.hpp"

#include <algorithm>
#include <cstring>
#include <string>

#include "common/request_id.hpp"
#include "obs/export.hpp"
#include "obs/span.hpp"

namespace pvfs {

namespace {

/// Raise an atomic high-water mark to `seen` if it is the new maximum.
void RaiseMax(std::atomic<std::uint64_t>& mark, std::uint64_t seen) {
  std::uint64_t prev = mark.load();
  while (seen > prev && !mark.compare_exchange_weak(prev, seen)) {
  }
}

/// The part of a run plan holding its first `bytes` run-ordered bytes:
/// what reaches the store before an injected mid-write crash.
std::vector<ScheduledRun> RunsPrefix(std::span<const ScheduledRun> runs,
                                     ByteCount bytes) {
  std::vector<ScheduledRun> out;
  for (ScheduledRun run : runs) {
    if (run.buf_offset >= bytes) break;
    run.length = std::min(run.length, bytes - run.buf_offset);
    out.push_back(run);
  }
  return out;
}

}  // namespace

void IoDaemon::RecoverStore() {
  // Concurrent callers are safe: NeedsRecovery/Recover lock the store,
  // skip intents a live request still owns, and a second Recover after
  // the first finds nothing left to do.
  if (store_.NeedsRecovery()) store_.Recover();
}

LocalStore::ScrubStats IoDaemon::Scrub() {
  RecoverStore();  // never scrub across pending intents
  return store_.Scrub();
}

void IoDaemon::CountFlow(const FlowStats& flow) {
  stats_.store_ops += flow.segments;
  RaiseMax(stats_.flow_inflight_peak, flow.peak_inflight);
  stats_.flow_stall_us += flow.stall_us;
}

Result<IoResponse> IoDaemon::Serve(const IoRequest& req) {
  PVFS_SPAN("iod.serve");
  // A restarted daemon recovers its store before serving anything, so the
  // first post-crash request sees replayed-or-rolled-back (consistent)
  // state, never a torn write.
  RecoverStore();
  ++stats_.requests;
  stats_.regions += req.regions.size();

  if (req.regions.size() > config_.max_list_regions) {
    return ResourceExhausted("trailing data exceeds region limit");
  }
  for (const Extent& e : req.regions) {
    if (e.offset + e.length < e.offset) {
      return InvalidArgument("region overflows 64-bit offset space");
    }
  }
  Distribution dist(req.layout());

  // Collect the fragments assigned to the file-relative server index this
  // request addresses, in logical order; their total is the payload size
  // (read) or expected payload size (write).
  const ServerId self = req.server_index;
  std::vector<Fragment> mine;
  ByteCount stream = 0;
  for (const Extent& e : req.regions) {
    dist.ForEachFragment(e, stream, [&](const Fragment& f) {
      if (f.server == self) mine.push_back(f);
    });
    stream += e.length;
  }
  ByteCount my_bytes = 0;
  for (const Fragment& f : mine) my_bytes += f.length;

  // Plan the coalesced local runs on an offset-SORTED view of the
  // fragments, so cyclic patterns whose logical walk revisits lower local
  // offsets still merge. Bytes move run-ordered through `scratch`; the
  // gather/scatter below goes through the original fragment order, so the
  // wire layout is the logical walk and overlapping write fragments keep
  // last-writer-wins semantics.
  const RunPlan plan = BuildRunPlan(mine);
  stats_.local_accesses += plan.runs.size();
  const auto scratch_of = [&](std::size_t i) {
    const ScheduledRun& run = plan.runs[plan.run_of[i]];
    return run.buf_offset + (mine[i].local_offset - run.offset);
  };

  // Transient disk error injection: fail before touching the store so the
  // stripe is never half-written by a request that reported failure.
  if (fault_ != nullptr &&
      fault_->OnDiskAccess(id_, req.op == IoOp::kWrite)) {
    ++stats_.injected_errors;
    return Unavailable(std::string("injected transient disk ") +
                       (req.op == IoOp::kWrite ? "write" : "read") +
                       " error on iod " + std::to_string(id_));
  }

  const FlowConfig flow_config{config_.flow_segment_bytes,
                               config_.flow_inflight};
  FlowStats flow;
  std::vector<std::byte> scratch(plan.total_bytes);
  IoResponse resp;
  if (req.op == IoOp::kRead) {
    // Stored-data rot injection: flip one bit at rest before serving, so
    // the read path exercises checksum detection and journal repair.
    if (fault_ != nullptr) {
      fault::RotFault rot = fault_->OnStoredRead(id_);
      if (rot.rot) (void)store_.CorruptStoredBit(rot.selector);
    }
    Status read = FlowRead(async_store_, req.handle, plan.runs, scratch,
                           flow_config, flow);
    CountFlow(flow);
    if (!read.ok()) {
      ++stats_.corruptions_detected;
      return read;
    }
    resp.payload.resize(my_bytes);
    ByteCount cursor = 0;
    for (std::size_t i = 0; i < mine.size(); ++i) {
      std::memcpy(resp.payload.data() + cursor, scratch.data() + scratch_of(i),
                  mine[i].length);
      cursor += mine[i].length;
    }
    resp.bytes = my_bytes;
    stats_.bytes_read += my_bytes;
    return resp;
  }

  // Write: payload must hold exactly this server's bytes.
  if (req.payload.size() != my_bytes) {
    return InvalidArgument("write payload size mismatch: expected " +
                           std::to_string(my_bytes) + ", got " +
                           std::to_string(req.payload.size()));
  }
  ByteCount cursor = 0;
  for (std::size_t i = 0; i < mine.size(); ++i) {
    std::memcpy(scratch.data() + scratch_of(i), req.payload.data() + cursor,
                mine[i].length);
    cursor += mine[i].length;
  }
  std::vector<Extent> pieces;
  pieces.reserve(plan.runs.size());
  for (const ScheduledRun& run : plan.runs) {
    pieces.push_back({run.offset, run.length});
  }

  // Torn-write injection: the daemon "crashes" partway through this
  // intent — during its journal append, or after its first
  // `keep_permille` of bytes landed — and refuses calls until its
  // scheduled restart, when Serve's recovery pass rolls the intent back
  // or replays it in full.
  fault::TornWriteFault torn;
  if (fault_ != nullptr) torn = fault_->OnStoredWrite(id_);
  if (torn.torn) ++stats_.torn_writes;
  if (torn.torn_journal) {
    store_.StageTorn(req.handle, std::move(pieces), std::move(scratch));
    return Unavailable("iod " + std::to_string(id_) +
                       " crashed mid-write (injected torn write)");
  }
  // One journaled intent covers the whole request; the flow lands it
  // segment by segment and the commit mark follows the last segment.
  const LocalStore::IntentId intent =
      store_.Stage(req.handle, std::move(pieces), std::move(scratch));
  const ByteCount land_bytes =
      torn.torn ? plan.total_bytes * torn.keep_permille / 1000
                : plan.total_bytes;
  FlowWrite(async_store_, intent, RunsPrefix(plan.runs, land_bytes),
            flow_config, flow);
  CountFlow(flow);
  if (torn.torn) {
    store_.Abandon(intent);
    return Unavailable("iod " + std::to_string(id_) +
                       " crashed mid-write (injected torn write)");
  }
  store_.Commit(intent);
  resp.bytes = my_bytes;
  stats_.bytes_written += my_bytes;
  return resp;
}

std::vector<std::byte> IoDaemon::HandleMessage(
    std::span<const std::byte> raw) {
  auto type = PeekType(raw);
  if (!type.ok()) return EncodeResponse(type.status(), {});

  WireReader r(raw);
  (void)r.U32();

  switch (type.value()) {
    case MsgType::kIo: {
      auto req = IoRequest::Decode(r);
      if (!req.ok()) return EncodeResponse(req.status(), {});
      auto resp = Serve(req.value());
      if (!resp.ok()) return EncodeResponse(resp.status(), {});
      return EncodeResponse(Status::Ok(), resp->Encode());
    }
    case MsgType::kRemoveData: {
      auto req = RemoveDataRequest::Decode(r);
      if (!req.ok()) return EncodeResponse(req.status(), {});
      RecoverStore();  // pending intents for the handle die with it
      store_.Remove(req->handle);
      return EncodeResponse(Status::Ok(), {});
    }
    case MsgType::kReplicaSums: {
      auto req = ReplicaSumsRequest::Decode(r);
      if (!req.ok()) return EncodeResponse(req.status(), {});
      RecoverStore();  // manifest must reflect replayed-or-rolled-back state
      ReplicaSumsResponse resp;
      resp.size = store_.SizeOf(req->handle);
      for (const LocalStore::ChunkSum& c : store_.ChunkSums(req->handle)) {
        resp.chunks.push_back({c.chunk_index, c.crc, c.valid});
      }
      stats_.repair_chunks_scanned += resp.chunks.size();
      return EncodeResponse(Status::Ok(), resp.Encode());
    }
    case MsgType::kRepair: {
      auto req = RepairRequest::Decode(r);
      if (!req.ok()) return EncodeResponse(req.status(), {});
      // Like Serve's list regions, a repair range must not wrap around
      // the 64-bit offset space (it would land at the start of the file).
      const ByteCount length = req->op == RepairOp::kFetch
                                   ? req->length
                                   : req->payload.size();
      if (req->offset + length < req->offset) {
        return EncodeResponse(
            InvalidArgument("repair range overflows 64-bit offset space"), {});
      }
      RecoverStore();
      if (req->op == RepairOp::kFetch) {
        if (req->length > LocalStore::kChunkBytes) {
          return EncodeResponse(
              InvalidArgument("repair fetch exceeds chunk size"), {});
        }
        RepairResponse resp;
        resp.payload.resize(req->length);
        Status read = store_.Read(req->handle, req->offset, resp.payload);
        if (!read.ok()) {
          ++stats_.corruptions_detected;
          return EncodeResponse(read, {});
        }
        return EncodeResponse(Status::Ok(), resp.Encode());
      }
      if (req->payload.size() > LocalStore::kChunkBytes) {
        return EncodeResponse(
            InvalidArgument("repair apply exceeds chunk size"), {});
      }
      store_.Write(req->handle, req->offset, req->payload);
      ++stats_.repair_chunks_copied;
      return EncodeResponse(Status::Ok(), {});
    }
    case MsgType::kStats: {
      obs::Registry reg;
      ExportMetrics(reg);
      StatsResponse resp{obs::StatsBody(reg).Dump()};
      return EncodeResponse(Status::Ok(), resp.Encode());
    }
    default:
      return EncodeResponse(
          InvalidArgument("message type not handled by iod"), {});
  }
}

std::vector<std::byte> IoDaemon::HandleSealedMessage(
    std::span<const std::byte> raw) {
  auto opened = OpenFrameWithId(raw);
  if (!opened.ok()) {
    ++stats_.corruptions_detected;
    return SealFrame(EncodeResponse(opened.status(), {}));
  }
  // Adopt the caller's request id so iod-side spans and the sealed
  // response stitch to the client call that caused them.
  obs::RequestIdScope id_scope(opened->request_id);
  PVFS_SPAN("iod.handle");
  return SealFrame(HandleMessage(opened->payload));
}

void IoDaemon::ExportMetrics(obs::Registry& reg,
                             const obs::Labels& base) const {
  obs::Labels labels = base;
  labels.push_back({"server", std::to_string(id_)});
  const auto counter = [&](std::string_view name, std::uint64_t value) {
    reg.Counter(name, labels).Set(value);
  };
  counter("iod.requests", stats_.requests);
  counter("iod.regions", stats_.regions);
  counter("iod.local_accesses", stats_.local_accesses);
  counter("iod.store_ops", stats_.store_ops);
  counter("iod.bytes_read", stats_.bytes_read);
  counter("iod.bytes_written", stats_.bytes_written);
  counter("iod.injected_errors", stats_.injected_errors);
  counter("iod.corruptions_detected", stats_.corruptions_detected);
  counter("iod.torn_writes", stats_.torn_writes);
  counter("iod.repair.chunks_scanned", stats_.repair_chunks_scanned);
  counter("iod.repair.chunks_copied", stats_.repair_chunks_copied);
  counter("iod.flow.stall_us", stats_.flow_stall_us);
  reg.Gauge("iod.flow.inflight_peak", labels)
      .Set(static_cast<std::int64_t>(stats_.flow_inflight_peak.load()));
  const LocalStore::IntegrityCounters integrity = store_.integrity();
  counter("iod.journal_replays", integrity.journal_replays);
  counter("iod.journal_rollbacks", integrity.journal_rollbacks);
  counter("iod.scrub_chunks_scanned", integrity.scrub_chunks_scanned);
  counter("iod.scrub_corruptions", integrity.scrub_corruptions);
  counter("iod.scrub_repairs", integrity.scrub_repairs);
  counter("iod.read_corruptions", integrity.read_corruptions);
  counter("iod.read_repairs", integrity.read_repairs);
}

}  // namespace pvfs
