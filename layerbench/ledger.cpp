#include "ledger.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <numeric>
#include <string_view>
#include <unordered_map>

#include "common/wire.hpp"
#include "pvfs/client.hpp"
#include "pvfs/distribution.hpp"
#include "pvfs/protocol.hpp"
#include "pvfs/scheduler.hpp"
#include "pvfs/store.hpp"

namespace layerbench {

using pvfs::obs::SpanRecord;

namespace {

using Clock = std::chrono::steady_clock;

double Us(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::micro>(end - start).count();
}

double Us(std::uint64_t ns) { return static_cast<double>(ns) / 1e3; }

bool Is(const SpanRecord& s, std::string_view name) { return s.name == name; }

/// Keeps a computed value observable so the timed call is not elided.
std::uint64_t g_sink = 0;

}  // namespace

SpanLedger BuildSpanLedger(const std::vector<SpanRecord>& spans) {
  const size_t n = spans.size();
  // Per thread, in start order with enclosing spans first on ties: a
  // stack of open spans then yields each span's in-thread parent.
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const SpanRecord& x = spans[a];
    const SpanRecord& y = spans[b];
    if (x.thread != y.thread) return x.thread < y.thread;
    if (x.start_ns != y.start_ns) return x.start_ns < y.start_ns;
    return x.duration_ns > y.duration_ns;
  });
  std::vector<std::int64_t> parent(n, -1);
  std::vector<std::uint64_t> child_ns(n, 0);
  std::vector<std::int64_t> op_of(n, -1);  // enclosing bench.op, same thread
  std::vector<bool> local_handle(n, false);  // transport with in-thread iod
  std::unordered_map<std::uint64_t, size_t> remote_handle;  // id -> span
  std::vector<size_t> stack;
  std::uint32_t thread = 0;
  for (size_t k = 0; k < n; ++k) {
    const size_t i = order[k];
    const SpanRecord& s = spans[i];
    if (k == 0 || s.thread != thread) {
      stack.clear();
      thread = s.thread;
    }
    while (!stack.empty()) {
      const SpanRecord& top = spans[stack.back()];
      if (top.start_ns + top.duration_ns > s.start_ns) break;
      stack.pop_back();
    }
    if (!stack.empty()) {
      parent[i] = static_cast<std::int64_t>(stack.back());
      child_ns[stack.back()] += s.duration_ns;
      op_of[i] = op_of[stack.back()];
    }
    if (Is(s, "bench.op")) op_of[i] = static_cast<std::int64_t>(i);
    if (Is(s, "iod.handle")) {
      if (parent[i] >= 0 && Is(spans[parent[i]], "bench.transport")) {
        local_handle[parent[i]] = true;
      } else if (parent[i] < 0 && s.request_id != 0) {
        remote_handle[s.request_id] = i;
      }
    }
    stack.push_back(i);
  }

  SpanLedger out;
  // A remote iod.handle joins the bench.transport of the same request id;
  // it and its in-thread children are then part of that op.
  std::vector<bool> in_op(n, false);
  std::vector<std::uint64_t> joined_ns(n, 0);  // per bench.transport
  for (size_t k = 0; k < n; ++k) {
    const size_t i = order[k];
    const SpanRecord& s = spans[i];
    if (op_of[i] >= 0) in_op[i] = true;
    if (!in_op[i] || !Is(s, "bench.transport")) continue;
    ++out.calls;
    if (local_handle[i]) {
      ++out.joined;
      continue;
    }
    auto it = remote_handle.find(s.request_id);
    if (it == remote_handle.end()) continue;
    ++out.joined;
    joined_ns[i] = spans[it->second].duration_ns;
    in_op[it->second] = true;
  }
  // Parents precede children within a thread, so one more ordered pass
  // carries membership down from joined remote handles.
  for (size_t k = 0; k < n; ++k) {
    const size_t i = order[k];
    if (!in_op[i] && parent[i] >= 0 && in_op[parent[i]]) in_op[i] = true;
  }

  for (size_t k = 0; k < n; ++k) {
    const size_t i = order[k];
    if (!in_op[i]) continue;
    const SpanRecord& s = spans[i];
    const double self = Us(s.duration_ns - child_ns[i]);
    if (Is(s, "bench.op")) {
      ++out.ops;
      out.op_us += Us(s.duration_ns);
      out.client_us += self;
    } else if (Is(s, "client.exchange")) {
      out.exchange_us += self;
    } else if (Is(s, "client.call")) {
      out.call_us += self;
    } else if (Is(s, "bench.transport")) {
      out.hop_us += self - Us(joined_ns[i]);
    } else if (Is(s, "iod.handle")) {
      ++out.handles;
      out.handle_total_us += Us(s.duration_ns);
      out.iod_handle_us += self;
      if (parent[i] >= 0) {
        const SpanRecord& call = spans[parent[i]];
        out.dispatch_wait_us.push_back(Us(s.start_ns - call.start_ns));
      }
    } else if (Is(s, "iod.serve")) {
      ++out.serves;
      out.serve_total_us += Us(s.duration_ns);
      out.iod_serve_us += self;
    } else {
      out.other_us += self;
    }
  }
  return out;
}

SpanTotal TotalOf(const std::vector<SpanRecord>& spans, const char* name) {
  SpanTotal out;
  for (const SpanRecord& s : spans) {
    if (!Is(s, name)) continue;
    ++out.count;
    out.us += Us(s.duration_ns);
  }
  return out;
}

ReplayLedger Replay(const std::vector<LedgerTransport::Captured>& captured,
                    const std::vector<OpRecord>& ops, Deployment& shadow) {
  ReplayLedger out;

  // What the client computes before sending each list call: the request
  // decomposition and, per request, the placement of its regions.
  for (const OpRecord& op : ops) {
    const pvfs::Distribution dist(op.layout);
    const auto start = Clock::now();
    const std::vector<pvfs::ExtentList> chunks =
        pvfs::ChunkRegions(op.file_regions, pvfs::kMaxListRegions);
    for (const pvfs::ExtentList& chunk : chunks) {
      if (!op.is_write) g_sink += dist.InvolvedServers(chunk).size();
      const auto frag_start = Clock::now();
      const std::vector<pvfs::Fragment> frags = dist.Fragments(chunk);
      out.client_fragments_us += Us(frag_start, Clock::now());
      out.fragments += frags.size();
    }
    out.client_plan_us += Us(start, Clock::now());
    ++out.ops;
  }

  // What each captured exchange cost below the spans, in capture order.
  for (const LedgerTransport::Captured& c : captured) {
    auto t0 = Clock::now();
    auto request = pvfs::OpenFrameWithId(c.request);
    auto response = pvfs::OpenFrameWithId(c.response);
    auto t1 = Clock::now();
    if (!request.ok() || !response.ok()) continue;
    out.open_us += Us(t0, t1);
    ++out.calls;

    pvfs::WireReader reader(request->payload);
    (void)reader.U32();  // message type
    t0 = Clock::now();
    auto req = pvfs::IoRequest::Decode(reader);
    t1 = Clock::now();
    if (!req.ok()) continue;
    out.decode_us += Us(t0, t1);

    auto envelope = pvfs::DecodeResponse(response->payload);
    if (!envelope.ok()) continue;
    auto resp = pvfs::IoResponse::Decode(envelope->body);
    if (!resp.ok()) continue;
    t0 = Clock::now();
    std::vector<std::byte> body = resp->Encode();
    std::vector<std::byte> reencoded =
        pvfs::EncodeResponse(pvfs::Status::Ok(), body);
    t1 = Clock::now();
    out.encode_us += Us(t0, t1);

    std::vector<std::byte> req_payload(request->payload.begin(),
                                       request->payload.end());
    t0 = Clock::now();
    g_sink += pvfs::SealFrameWithId(std::move(req_payload), request->request_id)
                  .size();
    g_sink +=
        pvfs::SealFrameWithId(std::move(reencoded), response->request_id)
            .size();
    t1 = Clock::now();
    out.seal_us += Us(t0, t1);

    t0 = Clock::now();
    g_sink += pvfs::Crc32c(c.request);
    g_sink += pvfs::Crc32c(c.response);
    t1 = Clock::now();
    out.crc_us += Us(t0, t1);
    out.crc_bytes += static_cast<double>(c.request.size() + c.response.size());

    const pvfs::Distribution dist(req->layout());
    t0 = Clock::now();
    const std::vector<pvfs::Fragment> mine =
        dist.ServerFragments(req->server_index, req->regions);
    t1 = Clock::now();
    const pvfs::RunPlan plan = pvfs::BuildRunPlan(mine);
    const auto t2 = Clock::now();
    out.server_fragments_us += Us(t0, t1);
    out.plan_us += Us(t1, t2);
    g_sink += plan.runs.size();

    // The iod's default path: one piece (write) or one read per fragment.
    pvfs::LocalStore& store = shadow.iod(c.dest.server).store();
    if (req->op == pvfs::IoOp::kWrite) {
      std::vector<pvfs::LocalStore::WritePiece> pieces;
      pieces.reserve(mine.size());
      pvfs::ByteCount at = 0;
      for (const pvfs::Fragment& f : mine) {
        pieces.push_back({f.local_offset,
                          std::span<const std::byte>(req->payload)
                              .subspan(at, f.length)});
        at += f.length;
      }
      t0 = Clock::now();
      store.WriteV(req->handle, pieces);
      out.writev_us += Us(t0, Clock::now());
      ++out.writev_calls;
      continue;
    }
    std::vector<std::byte> got(resp->payload.size());
    pvfs::ByteCount at = 0;
    for (const pvfs::Fragment& f : mine) {
      const std::span<std::byte> into =
          std::span<std::byte>(got).subspan(at, f.length);
      t0 = Clock::now();
      const pvfs::Status read = store.Read(req->handle, f.local_offset, into);
      out.read_us += Us(t0, Clock::now());
      ++out.read_calls;
      if (!read.ok()) ++out.shadow_mismatches;
      at += f.length;
    }
    if (got != resp->payload) ++out.shadow_mismatches;
  }

  // A one-direction capture still prices the other store path on the same
  // pieces: a write-only one reads every written fragment back, a
  // read-only one writes the bytes it read back in place (no change).
  if (out.read_calls > 0 && out.writev_calls > 0) return out;
  for (const LedgerTransport::Captured& c : captured) {
    auto request = pvfs::OpenFrameWithId(c.request);
    auto response = pvfs::OpenFrameWithId(c.response);
    if (!request.ok() || !response.ok()) continue;
    pvfs::WireReader reader(request->payload);
    (void)reader.U32();
    auto req = pvfs::IoRequest::Decode(reader);
    auto envelope = pvfs::DecodeResponse(response->payload);
    if (!req.ok() || !envelope.ok()) continue;
    auto resp = pvfs::IoResponse::Decode(envelope->body);
    if (!resp.ok()) continue;
    const bool wrote = req->op == pvfs::IoOp::kWrite;
    const std::vector<std::byte>& bytes = wrote ? req->payload : resp->payload;
    const pvfs::Distribution dist(req->layout());
    pvfs::LocalStore& store = shadow.iod(c.dest.server).store();
    std::vector<pvfs::LocalStore::WritePiece> pieces;
    pvfs::ByteCount at = 0;
    for (const pvfs::Fragment& f :
         dist.ServerFragments(req->server_index, req->regions)) {
      if (!wrote) {
        pieces.push_back({f.local_offset, std::span<const std::byte>(bytes)
                                              .subspan(at, f.length)});
        at += f.length;
        continue;
      }
      std::vector<std::byte> got(f.length);
      const auto t0 = Clock::now();
      const pvfs::Status read = store.Read(req->handle, f.local_offset, got);
      out.read_us += Us(t0, Clock::now());
      ++out.read_calls;
      if (!read.ok() ||
          std::memcmp(got.data(), bytes.data() + at, f.length) != 0) {
        ++out.shadow_mismatches;
      }
      at += f.length;
    }
    if (!wrote) {
      const auto t0 = Clock::now();
      store.WriteV(req->handle, pieces);
      out.writev_us += Us(t0, Clock::now());
      ++out.writev_calls;
    }
  }
  return out;
}

}  // namespace layerbench
