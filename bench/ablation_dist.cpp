// Distribution-layout ablation: the same two paper workloads replayed
// under each of the four file layouts (docs/distributions.md), with real
// byte movement over an in-process cluster so the numbers are true
// message and access counts, not simulator estimates.
//
// Workloads (both write the file with the pattern and read it back):
//   flash       FLASH checkpoint chunks (paper Figs. 13-15): each rank's
//               (variable, block) chunks land at variable-major offsets
//               `((v*blocks+b)*nprocs+rank)*chunk`. Chunks span
//               chunk/ssize = 4 stripe units, so layouts that keep
//               consecutive units on one server coalesce a whole chunk
//               into one access.
//   tiledviz    Tiled visualization rows (paper Figs. 16-17): each
//               client reads its tile's rows — short segments strided by
//               the wall row — so layouts that keep a band of the file
//               on few servers shrink the per-op server fan-out.
//
// Layout cells per workload:
//   simple      classic round-robin striping (the fig09-17 default)
//   twod-2x4    2-D stripe: 2 groups of 4 servers, depth 4
//   block       one contiguous extent of file_bytes/pcount per server
//   gcyclic-4   group-cyclic: 4 consecutive units per server per visit
//
// The run doubles as an acceptance check (exit 1 on violation): readback
// must be bit-identical to the written pattern in every cell, and at
// least one non-simple cell must beat simple striping on iod messages
// or on the busiest server's coalesced access count — the bar CI's
// dist-smoke job enforces. (Expected: gcyclic-4 wins flash outright —
// each 4-unit chunk becomes one access on one server — and block wins
// tiledviz on per-op server fan-out.)
//
//   --smoke   quarter-scale workloads (CI)
//   default   flash 16 MiB, tiledviz 3 MiB
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/bytes.hpp"
#include "pvfs/client.hpp"
#include "pvfs/iod.hpp"
#include "runtime/threaded_cluster.hpp"
#include "simcluster/workload_streams.hpp"
#include "workloads/flash.hpp"
#include "workloads/tiledviz.hpp"

using namespace pvfs;
using namespace pvfs::bench;

namespace {

constexpr std::uint32_t kServers = 8;
constexpr ByteCount kStripeSize = 8192;
constexpr std::uint64_t kFillSeed = 1902;

struct LayoutCell {
  const char* name;
  DistributionSpec spec;  // block_extent filled per workload for kBlock
};

struct CellResult {
  std::uint64_t ops = 0;            // list ops issued (write + read)
  std::uint64_t client_messages = 0;
  double messages_per_op = 0;
  std::uint64_t requests_max = 0;   // busiest server, raw requests
  std::uint64_t accesses_total = 0; // coalesced local runs, all servers
  std::uint64_t accesses_max = 0;   // busiest server, coalesced runs
  std::uint64_t store_ops = 0;
  std::uint64_t bytes_moved = 0;    // server-side bytes read + written
  bool verified = false;
};

ExtentList Collect(simcluster::RegionStream& stream) {
  ExtentList regions;
  while (auto e = stream.Next()) regions.push_back(*e);
  return regions;
}

/// Packed buffer whose bytes are the position-keyed pattern for the
/// listed file regions — what a correct WriteList must store and a
/// correct ReadList must return.
ByteBuffer PatternPacked(const ExtentList& regions) {
  ByteBuffer out(TotalBytes(regions));
  size_t at = 0;
  for (const Extent& e : regions) {
    FillPattern(std::span(out).subspan(at, e.length), kFillSeed, e.offset);
    at += e.length;
  }
  return out;
}

/// Replays one workload (each rank's region list written, then read
/// back) under the given layout and returns the measured counters.
CellResult RunCell(const std::vector<ExtentList>& rank_regions,
                   const DistributionSpec& spec) {
  // A fresh in-process deployment per cell, so cells never see each
  // other's server-side state.
  runtime::ThreadedCluster cluster(kServers);
  Client client(&cluster.transport());
  CellResult result;

  auto fd = client.Create("abl", {Striping{0, kServers, kStripeSize}, spec});
  if (!fd.ok()) return result;

  client.ResetStats();
  bool all_match = true;
  for (const ExtentList& regions : rank_regions) {
    const ByteBuffer golden = PatternPacked(regions);
    const std::vector<Extent> mem = {Extent{0, golden.size()}};
    if (!client.WriteList(*fd, mem, golden, regions).ok()) return result;
    ++result.ops;
  }
  for (const ExtentList& regions : rank_regions) {
    const ByteBuffer golden = PatternPacked(regions);
    ByteBuffer got(golden.size());
    const std::vector<Extent> mem = {Extent{0, got.size()}};
    if (!client.ReadList(*fd, mem, got, regions).ok()) return result;
    all_match = all_match && got == golden;
    ++result.ops;
  }

  result.client_messages = client.stats().messages;
  result.messages_per_op =
      static_cast<double>(result.client_messages) / result.ops;
  for (ServerId server = 0; server < kServers; ++server) {
    const IoDaemon::Stats& s = cluster.iod(server).stats();
    result.requests_max = std::max(result.requests_max, s.requests.load());
    result.accesses_total += s.local_accesses.load();
    result.accesses_max =
        std::max(result.accesses_max, s.local_accesses.load());
    result.store_ops += s.store_ops.load();
    result.bytes_moved += s.bytes_read.load() + s.bytes_written.load();
  }
  result.verified = all_match && client.Close(*fd).ok();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchFlags flags = ParseFlags(argc, argv);
  PrintBanner("dist_ablation",
              "flash + tiledviz replayed under simple / twod / block / "
              "gcyclic layouts",
              flags);

  // FLASH: chunk = 16^3 elements * 8 B = 32 KiB = 4 stripe units.
  workloads::FlashConfig flash;
  flash.nxb = flash.nyb = flash.nzb = 16;
  flash.var_bytes = 8;
  flash.nprocs = flags.smoke ? 4 : 8;
  flash.blocks_per_proc = flags.smoke ? 4 : 8;
  flash.nvars = flags.smoke ? 4 : 8;

  workloads::TiledVizConfig viz;  // 2x2 tiles, no overlap: a clean quarter each
  viz.tiles_x = 2;
  viz.tiles_y = 2;
  viz.tile_w = flags.smoke ? 256 : 1024;
  viz.tile_h = flags.smoke ? 64 : 256;
  viz.overlap_x = 0;
  viz.overlap_y = 0;

  struct Workload {
    const char* name;
    std::vector<ExtentList> rank_regions;
    ByteCount file_bytes = 0;
  };
  std::vector<Workload> workloads_list;
  {
    Workload w{"flash"};
    for (Rank r = 0; r < flash.nprocs; ++r) {
      simcluster::FlashFileStream stream(flash, r);
      w.rank_regions.push_back(Collect(stream));
      w.file_bytes = std::max<ByteCount>(w.file_bytes, flash.FileBytes());
    }
    workloads_list.push_back(std::move(w));
  }
  {
    Workload w{"tiledviz"};
    const ByteCount wall_bytes = static_cast<ByteCount>(viz.WallWidth()) *
                                 viz.WallHeight() * viz.bytes_per_pixel;
    for (Rank r = 0; r < viz.clients(); ++r) {
      simcluster::TiledVizStream stream(viz, r);
      w.rank_regions.push_back(Collect(stream));
    }
    w.file_bytes = wall_bytes;
    workloads_list.push_back(std::move(w));
  }

  BenchJson json(flags, "dist_ablation",
                 "distribution-layout ablation: iod messages and coalesced "
                 "accesses per layout for flash and tiledviz");

  std::printf("%10s %12s %8s %12s %12s %12s %12s %12s\n", "workload",
              "layout", "ops", "msgs/op", "req max", "accesses", "acc max",
              "MiB moved");
  int failures = 0;
  std::uint64_t layout_wins = 0;
  for (const Workload& w : workloads_list) {
    const std::vector<LayoutCell> cells = {
        {"simple", DistributionSpec::Simple()},
        {"twod-2x4", DistributionSpec::TwoD(2, 4)},
        {"block", DistributionSpec::Block(
                      (w.file_bytes + kServers - 1) / kServers)},
        {"gcyclic-4", DistributionSpec::GroupCyclic(4)},
    };
    CellResult simple;
    for (const LayoutCell& cell : cells) {
      CellResult r = RunCell(w.rank_regions, cell.spec);
      if (cell.spec.IsSimple()) simple = r;
      std::printf("%10s %12s %8llu %12.2f %12llu %12llu %12llu %12.1f%s\n",
                  w.name, cell.name,
                  static_cast<unsigned long long>(r.ops), r.messages_per_op,
                  static_cast<unsigned long long>(r.requests_max),
                  static_cast<unsigned long long>(r.accesses_total),
                  static_cast<unsigned long long>(r.accesses_max),
                  static_cast<double>(r.bytes_moved) / (1 << 20),
                  r.verified ? "" : "   READBACK MISMATCH");
      if (!r.verified) {
        std::fprintf(stderr, "FAIL: %s/%s readback mismatch\n", w.name,
                     cell.name);
        ++failures;
      }
      if (!cell.spec.IsSimple() &&
          (r.client_messages < simple.client_messages ||
           r.accesses_max < simple.accesses_max)) {
        ++layout_wins;
      }

      obs::JsonValue row = obs::JsonValue::Object();
      row.Set("method", obs::JsonValue(cell.name));
      row.Set("workload", obs::JsonValue(w.name));
      row.Set("layout", obs::JsonValue(cell.name));
      row.Set("servers", obs::JsonValue(std::uint64_t{kServers}));
      row.Set("stripe_bytes", obs::JsonValue(std::uint64_t{kStripeSize}));
      row.Set("file_bytes", obs::JsonValue(w.file_bytes));
      row.Set("ops", obs::JsonValue(r.ops));
      row.Set("client_messages", obs::JsonValue(r.client_messages));
      row.Set("messages_per_op", obs::JsonValue(r.messages_per_op));
      row.Set("requests_max", obs::JsonValue(r.requests_max));
      row.Set("accesses_total", obs::JsonValue(r.accesses_total));
      row.Set("accesses_max", obs::JsonValue(r.accesses_max));
      row.Set("store_ops", obs::JsonValue(r.store_ops));
      row.Set("bytes_moved", obs::JsonValue(r.bytes_moved));
      row.Set("verified", obs::JsonValue(r.verified));
      json.Row(std::move(row));
    }
  }

  // Acceptance: bit-identical readback everywhere, and at least one
  // non-simple cell beat simple striping on messages or busiest-server
  // accesses.
  if (layout_wins == 0) {
    std::fprintf(stderr,
                 "FAIL: no non-simple layout beat simple striping on iod "
                 "messages or busiest-server accesses\n");
    ++failures;
  }
  if (failures == 0) {
    std::printf("\nacceptance: readback verified in every cell, %llu "
                "layout cells beat simple striping\n",
                static_cast<unsigned long long>(layout_wins));
  }
  return failures == 0 ? 0 : 1;
}
