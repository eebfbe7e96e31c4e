// Client caching tier: acache/bcache/readahead unit coverage, the PR's
// metadata bugfix regressions (Stat-after-write, Remove partial failure,
// Close-after-Remove), and close-to-open consistency including chaos
// parity between cached and uncached readback (docs/client-caching.md).
#include <gtest/gtest.h>

#include <vector>

#include "common/bytes.hpp"
#include "fault/fault.hpp"
#include "fault/fault_transport.hpp"
#include "obs/metrics.hpp"
#include "pvfs/cache/acache.hpp"
#include "pvfs/cache/bcache.hpp"
#include "pvfs/cache/readahead.hpp"
#include "pvfs/client.hpp"
#include "test_cluster.hpp"

namespace pvfs {
namespace {

using cache::AcacheConfig;
using cache::AttributeCache;
using cache::BcacheConfig;
using cache::BufferCache;
using cache::PlanReadahead;
using cache::ReadaheadConfig;
using testutil::InProcCluster;
using std::chrono::microseconds;

constexpr Striping kStriping{0, 4, 16384};

/// A fresh pattern buffer: b[i] = PatternByte(seed, i).
ByteBuffer Pattern(size_t n, std::uint64_t seed) {
  ByteBuffer b(n);
  FillPattern(b, seed, 0);
  return b;
}

Metadata MakeMeta(FileHandle handle, ByteCount size = 0,
                  std::uint64_t epoch = 1) {
  Metadata m;
  m.handle = handle;
  m.striping = kStriping;
  m.size = size;
  m.epoch = epoch;
  return m;
}

// ---- Attribute cache -------------------------------------------------------

TEST(AttributeCacheTest, DualKeyedHitAndTtlExpiry) {
  AttributeCache cache(AcacheConfig{.enabled = true, .ttl = microseconds(100),
                                    .max_entries = 8});
  const auto t0 = AttributeCache::Clock::time_point{};
  cache.Insert("f", MakeMeta(7, 42), t0);

  auto by_name = cache.LookupName("f", t0 + microseconds(50));
  ASSERT_TRUE(by_name.has_value());
  EXPECT_EQ(by_name->size, 42u);
  auto by_handle = cache.LookupHandle(7, t0 + microseconds(50));
  ASSERT_TRUE(by_handle.has_value());
  EXPECT_EQ(by_handle->handle, 7u);
  EXPECT_EQ(cache.counters().hits, 2u);

  // Past the TTL both keys stop answering; the entry itself survives (the
  // cached epoch is still consultable) until displaced.
  EXPECT_FALSE(cache.LookupName("f", t0 + microseconds(150)).has_value());
  EXPECT_FALSE(cache.LookupHandle(7, t0 + microseconds(150)).has_value());
  EXPECT_EQ(cache.counters().misses, 2u);
  ASSERT_TRUE(cache.CachedEpoch(7).has_value());
  EXPECT_EQ(*cache.CachedEpoch(7), 1u);
}

TEST(AttributeCacheTest, LruEvictsPastBound) {
  AttributeCache cache(AcacheConfig{.enabled = true, .ttl = microseconds(1000),
                                    .max_entries = 2});
  const auto t0 = AttributeCache::Clock::time_point{};
  cache.Insert("a", MakeMeta(1), t0);
  cache.Insert("b", MakeMeta(2), t0);
  // Touch "a" so "b" is the LRU victim when "c" arrives.
  ASSERT_TRUE(cache.LookupName("a", t0).has_value());
  cache.Insert("c", MakeMeta(3), t0);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.LookupName("a", t0).has_value());
  EXPECT_FALSE(cache.LookupName("b", t0).has_value());
  EXPECT_TRUE(cache.LookupName("c", t0).has_value());
  EXPECT_EQ(cache.counters().evictions, 1u);
}

TEST(AttributeCacheTest, InsertReplacesRecreatedName) {
  AttributeCache cache(AcacheConfig{.enabled = true, .ttl = microseconds(1000),
                                    .max_entries = 8});
  const auto t0 = AttributeCache::Clock::time_point{};
  cache.Insert("f", MakeMeta(7), t0);
  // Same name, new handle: remove+recreate seen from the manager. The old
  // handle key must not keep answering.
  cache.Insert("f", MakeMeta(8), t0);
  EXPECT_FALSE(cache.LookupHandle(7, t0).has_value());
  ASSERT_TRUE(cache.LookupHandle(8, t0).has_value());
  EXPECT_EQ(cache.size(), 1u);
}

TEST(AttributeCacheTest, RefreshSameEpochCountsRevalidation) {
  AttributeCache cache(AcacheConfig{.enabled = true, .ttl = microseconds(100),
                                    .max_entries = 8});
  const auto t0 = AttributeCache::Clock::time_point{};
  cache.Insert("f", MakeMeta(7, 0, 3), t0);
  // Stale by TTL, re-fetched from the manager with the same epoch: the
  // refresh re-arms the TTL and counts as a revalidation.
  cache.Insert("f", MakeMeta(7, 10, 3), t0 + microseconds(200));
  EXPECT_EQ(cache.counters().revalidations, 1u);
  auto hit = cache.LookupName("f", t0 + microseconds(250));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->size, 10u);

  cache.InvalidateHandle(7);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.CachedEpoch(7).has_value());
}

// ---- Read-ahead planning ---------------------------------------------------

TEST(ReadaheadPlan, ExtrapolatesConstantStride) {
  ReadaheadConfig config{.enabled = true, .window = 3, .min_regions = 2,
                         .max_bytes = 1 << 20};
  const std::vector<Extent> walk = {{0, 100}, {1000, 100}, {2000, 100}};
  auto plan = PlanReadahead(walk, config);
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[0], (Extent{3000, 100}));
  EXPECT_EQ(plan[1], (Extent{4000, 100}));
  EXPECT_EQ(plan[2], (Extent{5000, 100}));
}

TEST(ReadaheadPlan, RejectsIrregularPatterns) {
  ReadaheadConfig config{.enabled = true, .window = 4, .min_regions = 2,
                         .max_bytes = 1 << 20};
  // Varying stride.
  EXPECT_TRUE(PlanReadahead(std::vector<Extent>{{0, 100}, {1000, 100},
                                                {2500, 100}},
                            config)
                  .empty());
  // Varying length.
  EXPECT_TRUE(PlanReadahead(std::vector<Extent>{{0, 100}, {1000, 200}},
                            config)
                  .empty());
  // Descending offsets.
  EXPECT_TRUE(PlanReadahead(std::vector<Extent>{{2000, 100}, {1000, 100}},
                            config)
                  .empty());
  // Too few regions to trust a stride.
  EXPECT_TRUE(PlanReadahead(std::vector<Extent>{{0, 100}}, config).empty());
  // Disabled planner plans nothing.
  EXPECT_TRUE(PlanReadahead(std::vector<Extent>{{0, 100}, {1000, 100}},
                            ReadaheadConfig{})
                  .empty());
}

TEST(ReadaheadPlan, BudgetCapsWindow) {
  ReadaheadConfig config{.enabled = true, .window = 8, .min_regions = 2,
                         .max_bytes = 250};
  const std::vector<Extent> walk = {{0, 100}, {1000, 100}};
  // 8 predicted regions would be 800 bytes; the 250-byte budget admits 2.
  EXPECT_EQ(PlanReadahead(walk, config).size(), 2u);
}

// ---- Buffer cache ----------------------------------------------------------

/// Page fetch/flush callbacks over an in-memory backing "file" that also
/// record the flushed intervals (to assert dirty-subrange flushing).
struct FakeBackingFile {
  explicit FakeBackingFile(ByteCount size) : bytes(size, std::byte{0}) {}

  BufferCache::FetchFn Fetch() {
    return [this](FileOffset off, std::span<std::byte> out) -> Status {
      ++fetches;
      for (size_t i = 0; i < out.size(); ++i) {
        out[i] = off + i < bytes.size() ? bytes[off + i] : std::byte{0};
      }
      return Status::Ok();
    };
  }
  BufferCache::FlushFn Flush() {
    return [this](FileOffset off, std::span<const std::byte> data) -> Status {
      flushed.push_back(Extent{off, data.size()});
      for (size_t i = 0; i < data.size(); ++i) bytes[off + i] = data[i];
      return Status::Ok();
    };
  }

  ByteBuffer bytes;
  std::vector<Extent> flushed;
  std::uint64_t fetches = 0;
};

TEST(BufferCacheTest, PartialWriteReadModifyWriteFlushesDirtyIntervalOnly) {
  BufferCache cache(BcacheConfig{.enabled = true, .page_bytes = 256,
                                 .max_bytes = 4096,
                                 .writeback_max_bytes = 4096});
  FakeBackingFile file(4096);
  FillPattern(file.bytes, /*seed=*/5, 0);

  // Partial-page write at [300, 350): fetches page 1 (RMW), dirties 50
  // bytes.
  ByteBuffer in = Pattern(50, 9);
  ASSERT_TRUE(cache.Write(1, 300, in, file.Fetch(), file.Flush()).ok());
  EXPECT_EQ(file.fetches, 1u);
  EXPECT_EQ(cache.dirty_bytes(), 50u);

  // Reading the rest of the page is a hit (the fetched bytes are valid)
  // and returns the merged view: backing pattern around the written run.
  ByteBuffer out(256);
  ASSERT_TRUE(cache.Read(1, 256, out, file.Fetch()).ok());
  EXPECT_EQ(file.fetches, 1u) << "read served from the RMW page";
  EXPECT_EQ(std::vector<std::byte>(out.begin() + 44, out.begin() + 94), in);
  EXPECT_FALSE(FindPatternMismatch({out.data(), 44}, 5, 256).has_value());

  // Flush writes ONLY the dirty 50 bytes — never the whole page, so
  // write-back cannot extend the file past what the app wrote.
  ASSERT_TRUE(cache.FlushHandle(1, file.Flush()).ok());
  ASSERT_EQ(file.flushed.size(), 1u);
  EXPECT_EQ(file.flushed[0], (Extent{300, 50}));
  EXPECT_EQ(cache.dirty_bytes(), 0u);
  EXPECT_EQ(cache.counters().writeback_bytes, 50u);
}

TEST(BufferCacheTest, FullPageWriteSkipsFetch) {
  BufferCache cache(BcacheConfig{.enabled = true, .page_bytes = 256,
                                 .max_bytes = 4096,
                                 .writeback_max_bytes = 4096});
  FakeBackingFile file(4096);
  ByteBuffer in = Pattern(256, 3);
  ASSERT_TRUE(cache.Write(1, 256, in, file.Fetch(), file.Flush()).ok());
  EXPECT_EQ(file.fetches, 0u) << "whole-page write needs nothing fetched";
  ByteBuffer out(256);
  ASSERT_TRUE(cache.Read(1, 256, out, file.Fetch()).ok());
  EXPECT_EQ(out, in);
}

TEST(BufferCacheTest, WritebackBoundFlushesLruDirtyPages) {
  // 4 pages of 256 B resident max, at most 300 dirty bytes: the third
  // dirty page pushes dirty_bytes to 384 and forces the LRU dirty page
  // out through the flush callback.
  BufferCache cache(BcacheConfig{.enabled = true, .page_bytes = 256,
                                 .max_bytes = 1024,
                                 .writeback_max_bytes = 300});
  FakeBackingFile file(4096);
  ByteBuffer in = Pattern(128, 3);
  ASSERT_TRUE(cache.Write(1, 0, in, file.Fetch(), file.Flush()).ok());
  ASSERT_TRUE(cache.Write(1, 256, in, file.Fetch(), file.Flush()).ok());
  EXPECT_TRUE(file.flushed.empty()) << "256 dirty bytes within bound";
  ASSERT_TRUE(cache.Write(1, 512, in, file.Fetch(), file.Flush()).ok());
  ASSERT_FALSE(file.flushed.empty());
  EXPECT_EQ(file.flushed[0].offset, 0u) << "oldest dirty page flushed first";
  EXPECT_LE(cache.dirty_bytes(), 300u);
}

TEST(BufferCacheTest, EvictionSkipsDirtyPages) {
  // Residency bound of 2 pages; dirty pages must survive eviction.
  BufferCache cache(BcacheConfig{.enabled = true, .page_bytes = 256,
                                 .max_bytes = 512,
                                 .writeback_max_bytes = 4096});
  FakeBackingFile file(4096);
  ByteBuffer in = Pattern(64, 3);
  ASSERT_TRUE(cache.Write(1, 0, in, file.Fetch(), file.Flush()).ok());
  ByteBuffer out(64);
  ASSERT_TRUE(cache.Read(1, 512, out, file.Fetch()).ok());
  ASSERT_TRUE(cache.Read(1, 1024, out, file.Fetch()).ok());
  EXPECT_LE(cache.cached_bytes(), 512u);
  EXPECT_TRUE(cache.HasDirty(1)) << "dirty page held through eviction";
  // The dirty bytes are intact.
  ASSERT_TRUE(cache.Read(1, 0, out, file.Fetch()).ok());
  EXPECT_EQ(out, in);
}

TEST(BufferCacheTest, PrefetchTagsPagesAndAttributesHits) {
  BufferCache cache(BcacheConfig{.enabled = true, .page_bytes = 256,
                                 .max_bytes = 4096,
                                 .writeback_max_bytes = 4096});
  FakeBackingFile file(4096);
  FillPattern(file.bytes, 5, 0);
  ASSERT_TRUE(cache.Prefetch(1, Extent{256, 512}, file.Fetch()).ok());
  EXPECT_EQ(cache.counters().prefetched_pages, 2u);
  EXPECT_EQ(cache.counters().hits, 0u) << "prefetch is not a reference";

  ByteBuffer out(256);
  ASSERT_TRUE(cache.Read(1, 256, out, file.Fetch()).ok());
  EXPECT_EQ(cache.counters().readahead_hits, 1u);
  ASSERT_TRUE(cache.Read(1, 256, out, file.Fetch()).ok());
  EXPECT_EQ(cache.counters().readahead_hits, 1u)
      << "only the FIRST hit on a prefetched page counts";
  EXPECT_FALSE(FindPatternMismatch(out, 5, 256).has_value());
}

TEST(BufferCacheTest, EpochChangeDropsCleanKeepsDirty) {
  BufferCache cache(BcacheConfig{.enabled = true, .page_bytes = 256,
                                 .max_bytes = 4096,
                                 .writeback_max_bytes = 4096});
  FakeBackingFile file(4096);
  FillPattern(file.bytes, 5, 0);
  ByteBuffer out(256);
  ASSERT_TRUE(cache.Read(1, 0, out, file.Fetch()).ok());  // clean page 0
  ByteBuffer in = Pattern(64, 9);
  ASSERT_TRUE(cache.Write(1, 256, in, file.Fetch(), file.Flush()).ok());

  cache.NoteEpoch(1, 1);  // first observation: records, drops nothing
  EXPECT_EQ(cache.counters().evictions, 0u);
  cache.NoteEpoch(1, 2);  // the file changed behind us
  EXPECT_EQ(cache.counters().evictions, 1u) << "clean page dropped";
  EXPECT_TRUE(cache.HasDirty(1)) << "dirty page survives the epoch bump";

  // The next read of page 0 re-fetches.
  const std::uint64_t fetches_before = file.fetches;
  ASSERT_TRUE(cache.Read(1, 0, out, file.Fetch()).ok());
  EXPECT_EQ(file.fetches, fetches_before + 1);
}

// ---- Metadata bugfix regressions (uncached client) ------------------------

TEST(ClientCacheBugfix, StatReportsHighWaterBeforeClose) {
  InProcCluster cluster(4);
  Client client = cluster.MakeClient();
  auto fd = client.Create("f", kStriping);
  ASSERT_TRUE(fd.ok());

  ByteBuffer data = Pattern(100'000, 7);
  ASSERT_TRUE(client.Write(*fd, 0, data).ok());
  // The manager learns the size only at Close; Stat must report the
  // descriptor's high-water mark, not the manager's stale zero.
  auto st = client.Stat(*fd);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, 100'000u);
  // And the refresh must not have clobbered the local mark: a second Stat
  // still reports it.
  auto st2 = client.Stat(*fd);
  ASSERT_TRUE(st2.ok());
  EXPECT_EQ(st2->size, 100'000u);

  ASSERT_TRUE(client.Close(*fd).ok());
  auto fd2 = client.Open("f");
  ASSERT_TRUE(fd2.ok());
  auto st3 = client.Stat(*fd2);
  ASSERT_TRUE(st3.ok());
  EXPECT_EQ(st3->size, 100'000u) << "Close published the size";
  EXPECT_TRUE(client.Close(*fd2).ok());
}

TEST(ClientCacheBugfix, RemovePartialFailureKeepsNameForRerun) {
  InProcCluster cluster(4);
  fault::FaultInjector injector(fault::FaultConfig{.seed = 11});
  fault::FaultInjectingTransport chaos(cluster.transport.get(), &injector);
  Client client(&chaos, Client::Options{});

  auto fd = client.Create("doomed", kStriping);
  ASSERT_TRUE(fd.ok());
  ByteBuffer data = Pattern(256 * 1024, 13);
  ASSERT_TRUE(client.Write(*fd, 0, data).ok());
  ASSERT_TRUE(client.Close(*fd).ok());

  // One iod refuses exactly one call: the first Remove loses one data-drop
  // leg. It must visit every other leg, aggregate the failure, and keep
  // the manager name so the operation can be rerun.
  injector.CrashServer(1, /*down_calls=*/1);
  Status first = client.Remove("doomed");
  ASSERT_FALSE(first.ok());
  EXPECT_TRUE(client.Open("doomed").ok()) << "name survives a partial drop";

  // Rerun: the crashed iod is back; already-dropped legs are idempotent
  // no-ops. Everything is gone afterwards.
  EXPECT_TRUE(client.Remove("doomed").ok());
  EXPECT_EQ(client.Open("doomed").status().code(), ErrorCode::kNotFound);
}

TEST(ClientCacheBugfix, CloseAfterConcurrentRemoveSucceeds) {
  InProcCluster cluster(4);
  Client writer = cluster.MakeClient();
  Client remover = cluster.MakeClient();

  auto fd = writer.Create("ephemeral", kStriping);
  ASSERT_TRUE(fd.ok());
  ByteBuffer data = Pattern(64 * 1024, 17);
  ASSERT_TRUE(writer.Write(*fd, 0, data).ok());

  // The file is removed while the writer still holds it open; the
  // writer's Close sends SetSize for a dead handle. The manager's typed
  // not-found is success-on-close, not an error.
  ASSERT_TRUE(remover.Remove("ephemeral").ok());
  EXPECT_TRUE(writer.Close(*fd).ok());
}

// ---- Attribute cache wired into the client ---------------------------------

TEST(ClientCache, AcacheCutsManagerMessagesOnRepeatedOpenStat) {
  InProcCluster cluster(4);
  Client::Options cached_opts;
  cached_opts.acache.enabled = true;
  cached_opts.acache.ttl = microseconds(60'000'000);
  Client cached(cluster.transport.get(), cached_opts);
  Client uncached = cluster.MakeClient();

  auto fd = cached.Create("hot", kStriping);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(cached.Close(*fd).ok());

  constexpr int kRounds = 20;
  const auto churn = [&](Client& c) {
    for (int i = 0; i < kRounds; ++i) {
      auto f = c.Open("hot");
      ASSERT_TRUE(f.ok());
      ASSERT_TRUE(c.Stat(*f).ok());
      ASSERT_TRUE(c.Close(*f).ok());
    }
  };
  cached.ResetStats();
  churn(cached);
  uncached.ResetStats();
  churn(uncached);

  const auto cached_msgs = cached.stats().manager_messages;
  const auto uncached_msgs = uncached.stats().manager_messages;
  EXPECT_EQ(uncached_msgs, 2u * kRounds) << "lookup + stat per round";
  // The acceptance bar: at least 5x fewer manager messages. (The cached
  // client pays one lookup to warm the cache at most.)
  EXPECT_LE(cached_msgs * 5, uncached_msgs)
      << "cached=" << cached_msgs << " uncached=" << uncached_msgs;
  const auto counters = cached.cache_counters();
  EXPECT_GE(counters.acache.hits, 2u * kRounds - 2u);
}

TEST(ClientCache, ZeroTtlRevalidatesEveryLookup) {
  InProcCluster cluster(4);
  Client::Options opts;
  opts.acache.enabled = true;
  opts.acache.ttl = microseconds(0);
  Client client(cluster.transport.get(), opts);

  auto fd = client.Create("f", kStriping);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(client.Close(*fd).ok());
  client.ResetStats();
  for (int i = 0; i < 3; ++i) {
    auto f = client.Open("f");
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE(client.Close(*f).ok());
  }
  EXPECT_EQ(client.stats().manager_messages, 3u)
      << "ttl=0 forces a manager lookup per open";
  EXPECT_EQ(client.cache_counters().acache.hits, 0u);
}

TEST(ClientCache, RemoveInvalidatesAcacheEntry) {
  InProcCluster cluster(4);
  Client::Options opts;
  opts.acache.enabled = true;
  opts.acache.ttl = microseconds(60'000'000);
  Client client(cluster.transport.get(), opts);

  auto fd = client.Create("gone", kStriping);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(client.Close(*fd).ok());
  auto warm = client.Open("gone");
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(client.Close(*warm).ok());
  ASSERT_TRUE(client.Remove("gone").ok());
  // A cached-entry hit would "open" the removed file; invalidation must
  // force the manager round trip, which reports not-found.
  EXPECT_EQ(client.Open("gone").status().code(), ErrorCode::kNotFound);
}

// ---- Close-to-open consistency over the buffer cache -----------------------

Client::Options CachedOptions() {
  Client::Options opts;
  opts.acache.enabled = true;
  opts.acache.ttl = microseconds(60'000'000);
  opts.bcache.enabled = true;
  opts.bcache.page_bytes = 4096;
  opts.bcache.max_bytes = 1 << 20;
  opts.bcache.writeback_max_bytes = 256 * 1024;
  return opts;
}

TEST(ClientCacheConsistency, WriterCloseThenReaderOpenSeesData) {
  InProcCluster cluster(4);
  Client writer(cluster.transport.get(), CachedOptions());
  Client reader(cluster.transport.get(), CachedOptions());

  auto wfd = writer.Create("shared", kStriping);
  ASSERT_TRUE(wfd.ok());
  ByteBuffer data = Pattern(100'000, 21);
  ASSERT_TRUE(writer.Write(*wfd, 0, data).ok());
  ASSERT_TRUE(writer.Close(*wfd).ok()) << "flush-on-close";

  auto rfd = reader.Open("shared");
  ASSERT_TRUE(rfd.ok());
  ByteBuffer back(data.size());
  ASSERT_TRUE(reader.Read(*rfd, 0, back).ok());
  EXPECT_EQ(back, data);
  auto st = reader.Stat(*rfd);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, data.size());
  ASSERT_TRUE(reader.Close(*rfd).ok());
}

TEST(ClientCacheConsistency, EpochInvalidationDropsStaleReaderPages) {
  InProcCluster cluster(4);
  Client writer(cluster.transport.get(), CachedOptions());
  // The reader revalidates at every Open (ttl=0) but keeps its data pages
  // between opens — the epoch check, not the TTL, must drop them.
  Client::Options reader_opts = CachedOptions();
  reader_opts.acache.ttl = microseconds(0);
  Client reader(cluster.transport.get(), reader_opts);

  auto wfd = writer.Create("versioned", kStriping);
  ASSERT_TRUE(wfd.ok());
  ByteBuffer v1 = Pattern(50'000, 31);
  ASSERT_TRUE(writer.Write(*wfd, 0, v1).ok());
  ASSERT_TRUE(writer.Close(*wfd).ok());

  auto r1 = reader.Open("versioned");
  ASSERT_TRUE(r1.ok());
  ByteBuffer back(v1.size());
  ASSERT_TRUE(reader.Read(*r1, 0, back).ok());
  EXPECT_EQ(back, v1);
  ASSERT_TRUE(reader.Close(*r1).ok());

  // Writer publishes new content (same size would not bump meta.size, but
  // every accepted SetSize bumps the EPOCH — that is what invalidates).
  auto wfd2 = writer.Open("versioned");
  ASSERT_TRUE(wfd2.ok());
  ByteBuffer v2 = Pattern(50'000, 32);
  ASSERT_TRUE(writer.Write(*wfd2, 0, v2).ok());
  ASSERT_TRUE(writer.Close(*wfd2).ok());

  auto r2 = reader.Open("versioned");
  ASSERT_TRUE(r2.ok());
  ASSERT_TRUE(reader.Read(*r2, 0, back).ok());
  EXPECT_EQ(back, v2) << "open-time epoch check dropped the stale pages";
  ASSERT_TRUE(reader.Close(*r2).ok());
}

TEST(ClientCacheConsistency, StaleTtlReaderServesCachedThenRevalidates) {
  InProcCluster cluster(4);
  Client writer(cluster.transport.get(), CachedOptions());
  Client reader(cluster.transport.get(), CachedOptions());  // long TTL

  auto wfd = writer.Create("ttl", kStriping);
  ASSERT_TRUE(wfd.ok());
  ByteBuffer v1 = Pattern(20'000, 41);
  ASSERT_TRUE(writer.Write(*wfd, 0, v1).ok());
  ASSERT_TRUE(writer.Close(*wfd).ok());

  auto r1 = reader.Open("ttl");
  ASSERT_TRUE(r1.ok());
  ByteBuffer back(v1.size());
  ASSERT_TRUE(reader.Read(*r1, 0, back).ok());
  ASSERT_TRUE(reader.Close(*r1).ok());

  auto wfd2 = writer.Open("ttl");
  ASSERT_TRUE(wfd2.ok());
  ByteBuffer v2 = Pattern(20'000, 42);
  ASSERT_TRUE(writer.Write(*wfd2, 0, v2).ok());
  ASSERT_TRUE(writer.Close(*wfd2).ok());

  // Within the TTL the reader's Open legitimately serves the cached entry
  // and its pages: close-to-open bounds staleness by the TTL, it does not
  // eliminate it.
  auto r2 = reader.Open("ttl");
  ASSERT_TRUE(r2.ok());
  ASSERT_TRUE(reader.Read(*r2, 0, back).ok());
  EXPECT_EQ(back, v1) << "bounded staleness within the TTL window";
  ASSERT_TRUE(reader.Close(*r2).ok());

  // An explicit flush of the attribute entry (what a TTL expiry does)
  // forces revalidation; the epoch moved, so the pages drop too.
  reader.InvalidateCache("ttl");
  auto r3 = reader.Open("ttl");
  ASSERT_TRUE(r3.ok());
  ASSERT_TRUE(reader.Read(*r3, 0, back).ok());
  EXPECT_EQ(back, v2);
  ASSERT_TRUE(reader.Close(*r3).ok());
}

TEST(ClientCacheConsistency, LockFlushPublishesBufferedWrites) {
  InProcCluster cluster(4);
  Client writer(cluster.transport.get(), CachedOptions());
  Client reader = cluster.MakeClient();  // uncached: sees raw server state

  auto wfd = writer.Create("locked", kStriping);
  ASSERT_TRUE(wfd.ok());
  auto rfd = reader.Open("locked");
  ASSERT_TRUE(rfd.ok());

  ByteBuffer data = Pattern(8192, 51);
  ASSERT_TRUE(writer.Write(*wfd, 0, data).ok());
  ByteBuffer raw(data.size());
  ASSERT_TRUE(reader.Read(*rfd, 0, raw).ok());
  EXPECT_EQ(raw, ByteBuffer(data.size(), std::byte{0}))
      << "write still buffered client-side";

  // Acquiring the lock flushes (flush-on-lock): the uncached reader now
  // sees the bytes.
  ASSERT_TRUE(writer.TryLockRange(*wfd, Extent{0, 0}).ok());
  ASSERT_TRUE(reader.Read(*rfd, 0, raw).ok());
  EXPECT_EQ(raw, data);
  ASSERT_TRUE(writer.UnlockRange(*wfd, Extent{0, 0}).ok());
  ASSERT_TRUE(writer.Close(*wfd).ok());
  ASSERT_TRUE(reader.Close(*rfd).ok());
}

TEST(ClientCacheConsistency, BcacheHighWaterMatchesAppWritesNotPages) {
  InProcCluster cluster(4);
  Client client(cluster.transport.get(), CachedOptions());
  auto fd = client.Create("small", kStriping);
  ASSERT_TRUE(fd.ok());
  // 100 bytes into a 4 KiB-page cache: the flushed size must be 100, not
  // a page worth.
  ByteBuffer data = Pattern(100, 61);
  ASSERT_TRUE(client.Write(*fd, 0, data).ok());
  ASSERT_TRUE(client.Close(*fd).ok());
  auto fd2 = client.Open("small");
  ASSERT_TRUE(fd2.ok());
  auto st = client.Stat(*fd2);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, 100u);
  ASSERT_TRUE(client.Close(*fd2).ok());
}

TEST(ClientCacheConsistency, ReadaheadPrefetchesStridedContinuation) {
  InProcCluster cluster(4);
  Client::Options opts = CachedOptions();
  opts.readahead.enabled = true;
  opts.readahead.window = 8;
  opts.readahead.max_bytes = 1 << 20;
  Client client(cluster.transport.get(), opts);

  auto fd = client.Create("strided", kStriping);
  ASSERT_TRUE(fd.ok());
  ByteBuffer content = Pattern(512 * 1024, 71);
  ASSERT_TRUE(client.Write(*fd, 0, content).ok());
  ASSERT_TRUE(client.Close(*fd).ok());

  auto fd2 = client.Open("strided");
  ASSERT_TRUE(fd2.ok());
  // Constant-stride list read: 4 regions of 4 KiB every 16 KiB. The
  // planner prefetches the continuation, so the NEXT strided read hits.
  const auto strided = [](FileOffset base, std::uint32_t n) {
    std::vector<Extent> v;
    for (std::uint32_t i = 0; i < n; ++i) {
      v.push_back(Extent{base + i * 16384, 4096});
    }
    return v;
  };
  const std::vector<Extent> first = strided(0, 4);
  ByteBuffer buf(4 * 4096);
  const std::vector<Extent> mem = {Extent{0, buf.size()}};
  ASSERT_TRUE(client.ReadList(*fd2, mem, buf, first).ok());
  EXPECT_GT(client.cache_counters().bcache.prefetched_pages, 0u);

  const std::vector<Extent> second = strided(4 * 16384, 4);
  ASSERT_TRUE(client.ReadList(*fd2, mem, buf, second).ok());
  EXPECT_GT(client.cache_counters().bcache.readahead_hits, 0u)
      << "the predicted continuation was already resident";
  // Readback correctness of the second stride.
  ByteBuffer expect = GatherExtents(content, second);
  EXPECT_EQ(buf, expect);
  ASSERT_TRUE(client.Close(*fd2).ok());
}

// ---- Chaos: cached and uncached readback stay bit-identical -----------------

TEST(ClientCacheChaos, CachedReadbackMatchesUncachedUnderFaults) {
  InProcCluster cluster(4);
  fault::FaultConfig faults;
  faults.seed = 97;
  faults.drop_rate = 0.05;
  faults.crash_rate = 0.01;
  faults.crash_down_calls = 6;
  fault::FaultInjector injector(faults);
  fault::FaultInjectingTransport chaos(cluster.transport.get(), &injector);

  Client::Options retrying;
  retrying.retry.max_attempts = 10'000;
  retrying.retry.initial_backoff = microseconds(1);
  retrying.retry.max_backoff = microseconds(100);
  Client::Options cached_opts = CachedOptions();
  cached_opts.retry = retrying.retry;
  cached_opts.readahead.enabled = true;

  Client writer(&chaos, cached_opts);
  auto fd = writer.Create("/chaos/parity", kStriping);
  ASSERT_TRUE(fd.ok());
  ByteBuffer content = Pattern(256 * 1024, 83);
  // Strided writes through the cache under frame drops and crash-restart.
  const std::vector<Extent> file_regions = [&] {
    std::vector<Extent> v;
    for (FileOffset off = 0; off < content.size(); off += 8192) {
      v.push_back(Extent{off, 8192});
    }
    return v;
  }();
  const std::vector<Extent> mem = {Extent{0, content.size()}};
  ASSERT_TRUE(writer.WriteList(*fd, mem, content, file_regions).ok());
  ASSERT_TRUE(writer.Close(*fd).ok());

  Client cached_reader(&chaos, cached_opts);
  Client uncached_reader(&chaos, retrying);
  auto cfd = cached_reader.Open("/chaos/parity");
  auto ufd = uncached_reader.Open("/chaos/parity");
  ASSERT_TRUE(cfd.ok());
  ASSERT_TRUE(ufd.ok());
  ByteBuffer via_cache(content.size());
  ByteBuffer via_wire(content.size());
  ASSERT_TRUE(
      cached_reader.ReadList(*cfd, mem, via_cache, file_regions).ok());
  ASSERT_TRUE(
      uncached_reader.ReadList(*ufd, mem, via_wire, file_regions).ok());
  EXPECT_EQ(via_cache, content);
  EXPECT_EQ(via_wire, content);
  ASSERT_TRUE(cached_reader.Close(*cfd).ok());
  ASSERT_TRUE(uncached_reader.Close(*ufd).ok());
}

// ---- Metrics plumbing -------------------------------------------------------

TEST(ClientCache, MetricsExportCarriesCacheCounters) {
  InProcCluster cluster(4);
  Client client(cluster.transport.get(), CachedOptions());
  auto fd = client.Create("m", kStriping);
  ASSERT_TRUE(fd.ok());
  ByteBuffer data = Pattern(8192, 91);
  ASSERT_TRUE(client.Write(*fd, 0, data).ok());
  ByteBuffer back(8192);
  ASSERT_TRUE(client.Read(*fd, 0, back).ok());
  ASSERT_TRUE(client.Close(*fd).ok());

  obs::Registry reg;
  client.ExportMetrics(reg);
  EXPECT_GT(reg.Counter("client.cache.hits", {{"tier", "bcache"}}).value(),
            0u);
  EXPECT_GT(
      reg.Counter("client.cache.writeback_bytes", {{"tier", "bcache"}})
          .value(),
      0u);
}

}  // namespace
}  // namespace pvfs
