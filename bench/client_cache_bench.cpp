// Client cache bench: manager messages and iod messages per operation
// with the caching tier off and on (docs/client-caching.md).
//
// Three cells over an in-process cluster (manager + 4 iods, real byte
// movement — no simulator, so the numbers are true message counts):
//   no-cache        defaults: every Open/Stat is a manager round trip,
//                   every ReadList reaches the iods
//   acache          attribute cache on: repeated Open/Stat of a hot file
//                   is answered client-side within the TTL
//   acache+bcache   both tiers plus read-ahead: repeated strided reads
//                   are served from resident pages
//
// Two phases per cell:
//   metadata        `rounds` iterations of Open+Stat+Close on one file;
//                   reports manager messages per round (paper's metadata
//                   scaling wall — PVFS2's acache motivation)
//   data            `passes` repetitions of the same strided ReadList;
//                   reports iod messages per pass and page hit rates
//
// The run doubles as an acceptance check (exit 1 on violation): readback
// must be bit-identical to the written pattern in every cell, and the
// acache cell must cut metadata-phase manager messages by at least 5x —
// the bar CI's cache-smoke job enforces.
//
//   --smoke   50 metadata rounds, 256 KiB file (CI)
//   default   400 rounds, 1 MiB file
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/bytes.hpp"
#include "pvfs/client.hpp"
#include "runtime/threaded_cluster.hpp"

using namespace pvfs;
using namespace pvfs::bench;

namespace {

constexpr std::uint32_t kServers = 4;
const Striping kStriping{0, kServers, 16384};
constexpr std::uint64_t kFillSeed = 77;
constexpr std::uint32_t kReadPasses = 4;
constexpr ByteCount kRegionLength = 4096;
constexpr ByteCount kRegionStride = 16384;

struct CellConfig {
  const char* name;
  bool acache;
  bool bcache;
};

struct CellResult {
  // Metadata phase.
  std::uint64_t rounds = 0;
  std::uint64_t manager_messages = 0;
  double manager_messages_per_op = 0;
  std::uint64_t acache_hits = 0;
  std::uint64_t acache_misses = 0;
  // Data phase.
  std::uint64_t read_passes = 0;
  std::uint64_t iod_messages = 0;
  double iod_messages_per_op = 0;
  std::uint64_t bcache_hits = 0;
  std::uint64_t bcache_misses = 0;
  std::uint64_t readahead_hits = 0;
  bool verified = false;
};

Client::Options CellOptions(const CellConfig& cell) {
  Client::Options options;
  if (cell.acache) {
    options.acache.enabled = true;
    options.acache.ttl = std::chrono::microseconds(60'000'000);
  }
  if (cell.bcache) {
    options.bcache.enabled = true;
    options.bcache.page_bytes = 16384;
    options.bcache.max_bytes = 16u << 20;
    options.bcache.writeback_max_bytes = 4u << 20;
    options.readahead.enabled = true;
  }
  return options;
}

CellResult RunCell(const CellConfig& cell, std::uint32_t rounds,
                   ByteCount file_bytes) {
  // A fresh in-process deployment per cell, so cells never see each
  // other's server-side state.
  runtime::ThreadedCluster cluster(kServers);
  Client client(&cluster.transport(), CellOptions(cell));
  CellResult result;
  result.rounds = rounds;
  result.read_passes = kReadPasses;

  // Seed the file.
  auto fd = client.Create("hot", kStriping);
  if (!fd.ok()) return result;
  ByteBuffer golden(file_bytes);
  FillPattern(golden, kFillSeed, 0);
  if (!client.Write(*fd, 0, golden).ok()) return result;
  if (!client.Close(*fd).ok()) return result;

  // ---- Metadata phase: repeated Open+Stat+Close of the hot file -------
  client.ResetStats();
  for (std::uint32_t r = 0; r < rounds; ++r) {
    auto f = client.Open("hot");
    if (!f.ok()) return result;
    if (!client.Stat(*f).ok()) return result;
    if (!client.Close(*f).ok()) return result;
  }
  result.manager_messages = client.stats().manager_messages;
  result.manager_messages_per_op =
      static_cast<double>(result.manager_messages) / rounds;
  result.acache_hits = client.cache_counters().acache.hits;
  result.acache_misses = client.cache_counters().acache.misses;

  // ---- Data phase: the same strided walk, `kReadPasses` times, issued
  // as two half-walks per pass so the read-ahead planner's predicted
  // continuation (the second half) is a real access that can hit.
  auto rfd = client.Open("hot");
  if (!rfd.ok()) return result;
  std::vector<Extent> file_regions;
  for (FileOffset off = 0; off + kRegionLength <= file_bytes;
       off += kRegionStride) {
    file_regions.push_back(Extent{off, kRegionLength});
  }
  const size_t half = file_regions.size() / 2;
  const std::vector<Extent> first_half(file_regions.begin(),
                                       file_regions.begin() + half);
  const std::vector<Extent> second_half(file_regions.begin() + half,
                                        file_regions.end());
  ByteBuffer buf_a(TotalBytes(first_half));
  ByteBuffer buf_b(TotalBytes(second_half));
  const std::vector<Extent> mem_a = {Extent{0, buf_a.size()}};
  const std::vector<Extent> mem_b = {Extent{0, buf_b.size()}};
  const ByteBuffer expect_a = GatherExtents(golden, first_half);
  const ByteBuffer expect_b = GatherExtents(golden, second_half);

  client.ResetStats();
  bool all_match = true;
  for (std::uint32_t pass = 0; pass < kReadPasses; ++pass) {
    if (!client.ReadList(*rfd, mem_a, buf_a, first_half).ok()) return result;
    if (!client.ReadList(*rfd, mem_b, buf_b, second_half).ok()) return result;
    all_match = all_match && buf_a == expect_a && buf_b == expect_b;
  }
  result.iod_messages = client.stats().messages;
  result.iod_messages_per_op =
      static_cast<double>(result.iod_messages) / (2.0 * kReadPasses);
  const Client::CacheCounters counters = client.cache_counters();
  result.bcache_hits = counters.bcache.hits;
  result.bcache_misses = counters.bcache.misses;
  result.readahead_hits = counters.bcache.readahead_hits;
  result.verified = all_match && client.Close(*rfd).ok();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchFlags flags = ParseFlags(argc, argv);
  PrintBanner("client_cache",
              "manager/iod messages per op: no-cache vs acache vs "
              "acache+bcache",
              flags);

  const std::uint32_t rounds = flags.smoke ? 50 : 400;
  const ByteCount file_bytes = flags.smoke ? (256u << 10) : (1u << 20);
  const std::vector<CellConfig> cells = {
      {"no-cache", false, false},
      {"acache", true, false},
      {"acache+bcache", true, true},
  };

  BenchJson json(flags, "client_cache",
                 "client caching tier: manager messages per metadata op "
                 "and iod messages per repeated strided read");

  std::printf("%16s %12s %12s %12s %12s %12s\n", "cell", "mgr msgs/op",
              "acache hit%", "iod msgs/op", "bcache hit%", "ra hits");
  std::vector<CellResult> results;
  for (const CellConfig& cell : cells) {
    CellResult r = RunCell(cell, rounds, file_bytes);
    results.push_back(r);
    const double acache_rate =
        r.acache_hits + r.acache_misses
            ? 100.0 * r.acache_hits / (r.acache_hits + r.acache_misses)
            : 0.0;
    const double bcache_rate =
        r.bcache_hits + r.bcache_misses
            ? 100.0 * r.bcache_hits / (r.bcache_hits + r.bcache_misses)
            : 0.0;
    std::printf("%16s %12.3f %11.1f%% %12.3f %11.1f%% %12llu%s\n", cell.name,
                r.manager_messages_per_op, acache_rate,
                r.iod_messages_per_op, bcache_rate,
                static_cast<unsigned long long>(r.readahead_hits),
                r.verified ? "" : "   READBACK MISMATCH");

    obs::JsonValue row = obs::JsonValue::Object();
    row.Set("method", obs::JsonValue(cell.name));
    row.Set("op", obs::JsonValue("open-stat-close+strided-read"));
    row.Set("rounds", obs::JsonValue(r.rounds));
    row.Set("manager_messages", obs::JsonValue(r.manager_messages));
    row.Set("manager_messages_per_op",
            obs::JsonValue(r.manager_messages_per_op));
    row.Set("acache_hits", obs::JsonValue(r.acache_hits));
    row.Set("acache_misses", obs::JsonValue(r.acache_misses));
    row.Set("acache_hit_rate", obs::JsonValue(acache_rate / 100.0));
    row.Set("read_passes", obs::JsonValue(r.read_passes));
    row.Set("iod_messages", obs::JsonValue(r.iod_messages));
    row.Set("iod_messages_per_op", obs::JsonValue(r.iod_messages_per_op));
    row.Set("bcache_hits", obs::JsonValue(r.bcache_hits));
    row.Set("bcache_misses", obs::JsonValue(r.bcache_misses));
    row.Set("bcache_hit_rate", obs::JsonValue(bcache_rate / 100.0));
    row.Set("readahead_hits", obs::JsonValue(r.readahead_hits));
    row.Set("verified", obs::JsonValue(r.verified));
    json.Row(std::move(row));
  }

  // Acceptance: bit-identical readback everywhere, and the attribute
  // cache cuts metadata-phase manager traffic by at least 5x.
  int failures = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    if (!results[i].verified) {
      std::fprintf(stderr, "FAIL: cell %s readback mismatch\n",
                   cells[i].name);
      ++failures;
    }
  }
  const double uncached = results[0].manager_messages_per_op;
  for (size_t i = 1; i < results.size(); ++i) {
    if (results[i].manager_messages_per_op * 5.0 > uncached) {
      std::fprintf(stderr,
                   "FAIL: cell %s manager msgs/op %.3f not 5x below "
                   "no-cache %.3f\n",
                   cells[i].name, results[i].manager_messages_per_op,
                   uncached);
      ++failures;
    }
  }
  if (failures == 0) {
    std::printf("\nacceptance: readback verified, acache >= 5x fewer "
                "manager messages/op\n");
  }
  return failures == 0 ? 0 : 1;
}
