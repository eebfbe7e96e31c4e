// Streaming pipeline bench: the async I/O pipeline (nonblocking client
// ops + iod flows) against the synchronous baseline, over real TCP
// sockets with a modeled storage device.
//
// Two cells on identical strided list-I/O work and an identical device
// model (store_seek_us + store_us_per_mib, charged per flow segment in
// both cells):
//   sync-baseline    window-1 flows (segments inline on the serving
//                    thread), blocking Write/ReadList, classic transport:
//                    every op serializes network, service and device time
//                    end to end.
//   pipelined-flows  window-4 flows on a store-worker pool, multiplexed
//                    transport, nonblocking Read/WriteListAsync with a
//                    bounded in-flight window: the daemons run Serve
//                    concurrently and stream each request through
//                    AsyncStore in bounded segments, so device intervals
//                    overlap across and within requests.
//
// Acceptance (exit nonzero on violation, so the CI smoke run doubles as
// a regression gate): both cells read back bit-identical, and pipelined
// throughput >= 1.3x the sync baseline measured in the same run.
//
//   --smoke   12 ops x 6 regions x 16 KiB (CI)
//   default   24 ops x 8 regions x 32 KiB
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/bytes.hpp"
#include "common/extent.hpp"
#include "net/mux_transport.hpp"
#include "net/socket_transport.hpp"
#include "pvfs/client.hpp"

using namespace pvfs;
using namespace pvfs::bench;
using namespace pvfs::net;

namespace {

constexpr std::uint64_t kFillSeed = 77;
const Striping kStriping{0, 4, 16384};

struct Shape {
  std::uint32_t ops;          // list operations per phase (write, then read)
  std::uint32_t regions;      // strided file regions per operation
  ByteCount region_bytes;     // bytes per region
  std::uint32_t window;       // async ops in flight at once (pipelined cell)

  ByteCount op_bytes() const {
    return static_cast<ByteCount>(regions) * region_bytes;
  }
  ByteCount total_bytes() const {
    return static_cast<ByteCount>(ops) * op_bytes();
  }
};

/// The modeled device both cells pay per flow segment. Large enough to
/// dominate loopback TCP noise, so the measured ratio reflects pipeline
/// overlap, not socket jitter.
ServerConfig DeviceModel(bool pipelined) {
  ServerConfig config;
  config.store_seek_us = 1'000;
  config.store_us_per_mib = 8'000;
  if (pipelined) {
    config.flow_segment_bytes = 16 * 1024;  // several segments per request
    config.flow_inflight = 4;
    config.store_workers = 8;
    config.transport_workers = 8;
  }
  return config;
}

/// Strided file regions for op `op`: op-interleaved so consecutive ops
/// land on different stripes (every op still fans out to all servers).
std::vector<Extent> OpRegions(const Shape& shape, std::uint32_t op) {
  std::vector<Extent> regions;
  regions.reserve(shape.regions);
  const ByteCount stride =
      shape.region_bytes * 3 + 4096;  // noncontiguous in the file
  const ByteCount base = static_cast<ByteCount>(op) * shape.regions * stride;
  for (std::uint32_t r = 0; r < shape.regions; ++r) {
    regions.push_back(Extent{base + r * stride, shape.region_bytes});
  }
  return regions;
}

struct CellResult {
  double seconds = 0;
  bool verified = false;
  std::uint64_t flow_segments = 0;
  std::uint64_t flow_stall_us = 0;
  std::uint64_t mux_reconnects = 0;
};

/// One full cell: create, write all ops, read them back, compare.
CellResult RunStreamingCell(SocketCluster& cluster, Client& client,
                            const Shape& shape, bool pipelined,
                            const ByteBuffer& golden) {
  CellResult result;
  const Extent mem{0, shape.op_bytes()};
  auto fd = client.Create("stream", kStriping, {});
  if (!fd.ok()) return result;

  ByteBuffer readback(golden.size());
  const auto start = std::chrono::steady_clock::now();
  for (int phase = 0; phase < 2; ++phase) {
    const bool writing = phase == 0;
    bool ok = true;
    if (!pipelined) {
      for (std::uint32_t op = 0; op < shape.ops; ++op) {
        const std::vector<Extent> file = OpRegions(shape, op);
        const Extent mem_one[] = {mem};
        const ByteCount pos = static_cast<ByteCount>(op) * shape.op_bytes();
        Status status =
            writing
                ? client.WriteList(
                      *fd, mem_one,
                      std::span<const std::byte>(golden).subspan(
                          pos, shape.op_bytes()),
                      file)
                : client.ReadList(*fd, mem_one,
                                  std::span<std::byte>(readback).subspan(
                                      pos, shape.op_bytes()),
                                  file);
        ok = ok && status.ok();
      }
    } else {
      // Bounded nonblocking window: keep `shape.window` list ops in
      // flight; region/extent storage must outlive Wait, so it is kept
      // per slot.
      std::vector<Client::Operation> inflight(shape.window);
      std::vector<std::vector<Extent>> files(shape.window);
      std::vector<Extent> mems(shape.window, mem);
      for (std::uint32_t op = 0; op < shape.ops; ++op) {
        const std::uint32_t slot = op % shape.window;
        if (inflight[slot].valid()) ok = ok && inflight[slot].Wait().ok();
        files[slot] = OpRegions(shape, op);
        const ByteCount pos = static_cast<ByteCount>(op) * shape.op_bytes();
        inflight[slot] =
            writing
                ? client.WriteListAsync(
                      *fd, std::span<const Extent>(&mems[slot], 1),
                      std::span<const std::byte>(golden).subspan(
                          pos, shape.op_bytes()),
                      files[slot])
                : client.ReadListAsync(*fd,
                                       std::span<const Extent>(&mems[slot], 1),
                                       std::span<std::byte>(readback).subspan(
                                           pos, shape.op_bytes()),
                                       files[slot]);
      }
      for (Client::Operation& op : inflight) {
        if (op.valid()) ok = ok && op.Wait().ok();
      }
    }
    if (!ok) return result;
  }
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  result.verified = readback == golden;
  for (std::uint32_t s = 0; s < kStriping.pcount; ++s) {
    result.flow_segments += cluster.iod(s).stats().store_ops;
    result.flow_stall_us += cluster.iod(s).stats().flow_stall_us;
  }
  return result;
}

obs::JsonValue CellJson(const char* method, const CellResult& r,
                        const Shape& shape) {
  obs::JsonValue cell = obs::JsonValue::Object();
  cell.Set("method", obs::JsonValue(method));
  cell.Set("ops", obs::JsonValue(static_cast<std::uint64_t>(shape.ops * 2)));
  cell.Set("bytes",
           obs::JsonValue(static_cast<std::uint64_t>(shape.total_bytes() * 2)));
  cell.Set("seconds", obs::JsonValue(r.seconds));
  cell.Set("mb_per_second",
           obs::JsonValue(r.seconds > 0
                              ? static_cast<double>(shape.total_bytes()) * 2 /
                                    1.0e6 / r.seconds
                              : 0.0));
  cell.Set("verified", obs::JsonValue(r.verified));
  cell.Set("flow_segments", obs::JsonValue(r.flow_segments));
  cell.Set("flow_stall_us", obs::JsonValue(r.flow_stall_us));
  cell.Set("mux_reconnects", obs::JsonValue(r.mux_reconnects));
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  BenchFlags flags = ParseFlags(argc, argv);
  Shape shape = flags.smoke ? Shape{12, 6, 16 * 1024, 6}
                            : Shape{24, 8, 32 * 1024, 6};
  PrintBanner("streaming_pipeline",
              "async client ops + iod flows vs the synchronous baseline",
              flags);
  BenchJson json(flags, "streaming_pipeline",
                 "pipelined (flows + async ops) vs sync list I/O over TCP "
                 "with a modeled storage device");

  ByteBuffer golden(shape.total_bytes());
  FillPattern(golden, kFillSeed, 0);
  bool ok = true;
  double sync_mbs = 0, piped_mbs = 0;

  // ---- sync baseline: window-1 flows, blocking ops ----------------------
  {
    auto cluster = SocketCluster::Start(kStriping.pcount, DeviceModel(false), 0);
    if (!cluster.ok()) return 1;
    auto transport = (*cluster)->Connect(std::chrono::milliseconds{2000});
    Client client(transport.get(), Client::Options{});
    CellResult r =
        RunStreamingCell(**cluster, client, shape, /*pipelined=*/false,
                         golden);
    sync_mbs = r.seconds > 0
                   ? static_cast<double>(shape.total_bytes()) * 2 / 1.0e6 /
                         r.seconds
                   : 0;
    std::printf("sync-baseline:   %.3fs %.1f MB/s verified=%d\n", r.seconds,
                sync_mbs, r.verified);
    ok = ok && r.verified && r.seconds > 0;
    json.Row(CellJson("sync-baseline", r, shape));
  }

  // ---- pipelined: window-4 flows, mux transport, async ops -------------
  {
    auto cluster = SocketCluster::Start(kStriping.pcount, DeviceModel(true), 0);
    if (!cluster.ok()) return 1;
    ClientConfig net_config;
    net_config.multiplex = true;
    net_config.call_timeout = std::chrono::milliseconds{2000};
    auto transport = (*cluster)->Connect(net_config);
    Client::Options options;
    options.async_workers = shape.window;
    // Part of the async pipeline: one op's per-server exchanges proceed
    // concurrently (the 2002 client's socket-per-iod fan-out), so every
    // daemon sees work from every in-flight op at once.
    options.parallel_fanout = true;
    Client client(transport.get(), options);
    CellResult r = RunStreamingCell(**cluster, client, shape,
                                    /*pipelined=*/true, golden);
    if (auto* mux = dynamic_cast<MuxSocketTransport*>(transport.get())) {
      r.mux_reconnects = mux->stats().reconnects;
    }
    piped_mbs = r.seconds > 0
                    ? static_cast<double>(shape.total_bytes()) * 2 / 1.0e6 /
                          r.seconds
                    : 0;
    std::printf("pipelined-flows: %.3fs %.1f MB/s verified=%d segments=%llu "
                "stall_us=%llu\n",
                r.seconds, piped_mbs, r.verified,
                static_cast<unsigned long long>(r.flow_segments),
                static_cast<unsigned long long>(r.flow_stall_us));
    ok = ok && r.verified && r.flow_segments > 0;
    json.Row(CellJson("pipelined-flows", r, shape));
  }

  const double speedup = sync_mbs > 0 ? piped_mbs / sync_mbs : 0;
  std::printf("speedup: %.2fx (acceptance: >= 1.30x)\n", speedup);
  obs::JsonValue summary = obs::JsonValue::Object();
  summary.Set("method", obs::JsonValue("speedup"));
  summary.Set("pipelined_over_sync", obs::JsonValue(speedup));
  summary.Set("threshold", obs::JsonValue(1.3));
  json.Row(std::move(summary));
  ok = ok && speedup >= 1.3;

  std::printf("%s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
