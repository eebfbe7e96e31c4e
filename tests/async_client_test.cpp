// Async I/O pipeline tests (docs/async-flows.md): the AsyncStore
// submission/completion contract, flow segmentation equivalence with the
// synchronous store path, per-request write atomicity under torn writes
// and concurrent recovery, the nonblocking client operations
// (ReadListAsync/WriteListAsync with Test/Wait/Cancel), and the
// op_deadline retry budget. Suites are named to join the TSan CI matrix
// (AsyncStore|Flow|FlowAtomicity|IntentOwnership|AsyncClient|RetryDeadline).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "fault/fault.hpp"
#include "fault/fault_transport.hpp"
#include "pvfs/client.hpp"
#include "pvfs/flow.hpp"
#include "pvfs/iod.hpp"
#include "pvfs/store.hpp"
#include "pvfs/store_async.hpp"
#include "test_cluster.hpp"

namespace pvfs {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;
using testutil::InProcCluster;

constexpr Striping kStriping{0, 4, 16384};
constexpr FileHandle kHandle = 42;

ByteBuffer Pattern(std::size_t n, std::uint64_t seed) {
  ByteBuffer out(n);
  FillPattern(out, seed, 0);
  return out;
}

/// A window-4 daemon config with small segments, so even modest requests
/// exercise multi-segment pipelines on the store-worker pool.
ServerConfig PipelinedConfig() {
  ServerConfig config;
  config.flow_segment_bytes = 4096;
  config.flow_inflight = 4;
  config.store_workers = 2;
  return config;
}

/// Strided (noncontiguous) file regions for async op `op`.
std::vector<Extent> StridedRegions(std::uint32_t op, std::uint32_t regions,
                                   ByteCount region_bytes) {
  std::vector<Extent> out;
  const ByteCount stride = region_bytes * 3 + 512;
  const ByteCount base = static_cast<ByteCount>(op) * regions * stride;
  for (std::uint32_t r = 0; r < regions; ++r) {
    out.push_back(Extent{base + r * stride, region_bytes});
  }
  return out;
}

// ---- AsyncStore ------------------------------------------------------------

TEST(AsyncStore, WriteThenReadRoundTripWithTokens) {
  LocalStore store;
  AsyncStore async(store, {.workers = 2});
  AsyncStore::CompletionQueue cq;

  ByteBuffer data = Pattern(10'000, 11);
  const LocalStore::IntentId intent =
      store.Stage(kHandle, {{0, data.size()}}, data);
  async.SubmitApply(cq, /*token=*/7, intent, 0, data.size());
  AsyncStore::Completion wrote = cq.Wait();
  EXPECT_EQ(wrote.token, 7u);
  EXPECT_TRUE(wrote.status.ok()) << wrote.status.message();
  EXPECT_EQ(wrote.bytes, data.size());
  store.Commit(intent);

  ByteBuffer back(data.size());
  async.SubmitRead(cq, /*token=*/9, kHandle, 0, back);
  AsyncStore::Completion read = cq.Wait();
  EXPECT_EQ(read.token, 9u);
  EXPECT_TRUE(read.status.ok());
  EXPECT_EQ(read.bytes, back.size());
  EXPECT_EQ(back, data);
  EXPECT_EQ(cq.outstanding(), 0u);
  EXPECT_FALSE(cq.Poll().has_value());
}

TEST(AsyncStore, CompletionsRouteToTheSubmittersQueue) {
  // Two independent pipelines share the worker pool; each must see
  // exactly its own tokens, in whatever order the workers finish.
  LocalStore store;
  AsyncStore async(store, {.workers = 3});
  AsyncStore::CompletionQueue cq_a, cq_b;

  constexpr std::uint32_t kOps = 8;
  std::vector<ByteBuffer> buffers;
  buffers.reserve(kOps * 2);
  std::vector<LocalStore::IntentId> intents;
  for (std::uint32_t i = 0; i < kOps; ++i) {
    buffers.push_back(Pattern(3000 + i, 20 + i));
    intents.push_back(
        store.Stage(kHandle, {{static_cast<FileOffset>(i) * 8192,
                               buffers.back().size()}},
                    buffers.back()));
    async.SubmitApply(cq_a, /*token=*/100 + i, intents.back(), 0,
                      buffers.back().size());
  }
  for (std::uint32_t i = 0; i < kOps; ++i) {
    buffers.push_back(ByteBuffer(2048));
    async.SubmitRead(cq_b, /*token=*/200 + i, kHandle,
                     static_cast<FileOffset>(i) * 8192, buffers.back());
  }

  std::set<AsyncStore::Token> got_a, got_b;
  for (std::uint32_t i = 0; i < kOps; ++i) {
    AsyncStore::Completion a = cq_a.Wait();
    EXPECT_TRUE(a.status.ok());
    got_a.insert(a.token);
    AsyncStore::Completion b = cq_b.Wait();
    EXPECT_TRUE(b.status.ok());
    got_b.insert(b.token);
  }
  std::set<AsyncStore::Token> want_a, want_b;
  for (std::uint32_t i = 0; i < kOps; ++i) {
    want_a.insert(100 + i);
    want_b.insert(200 + i);
  }
  EXPECT_EQ(got_a, want_a);
  EXPECT_EQ(got_b, want_b);
  for (LocalStore::IntentId intent : intents) store.Commit(intent);
  EXPECT_EQ(cq_a.outstanding(), 0u);
  EXPECT_EQ(cq_b.outstanding(), 0u);
}

TEST(AsyncStore, DestructorDrainsEveryPendingWrite) {
  LocalStore store;
  AsyncStore::CompletionQueue cq;
  constexpr std::uint32_t kOps = 16;
  std::vector<ByteBuffer> buffers;
  for (std::uint32_t i = 0; i < kOps; ++i) {
    buffers.push_back(Pattern(4096, 40 + i));
  }
  {
    // One slow worker so most submissions are still queued at destruction.
    AsyncStore async(store, {.workers = 1, .seek_us = 200});
    for (std::uint32_t i = 0; i < kOps; ++i) {
      const LocalStore::IntentId intent = store.Stage(
          kHandle, {{static_cast<FileOffset>(i) * 4096, 4096}}, buffers[i]);
      async.SubmitApply(cq, i, intent, 0, 4096);
    }
  }  // ~AsyncStore must execute all 16 before returning.
  for (std::uint32_t i = 0; i < kOps; ++i) {
    ByteBuffer back(4096);
    ASSERT_TRUE(
        store.Read(kHandle, static_cast<FileOffset>(i) * 4096, back).ok());
    EXPECT_EQ(back, buffers[i]) << "op " << i;
  }
  // No completion was lost: all 16 are ready to drain without blocking.
  for (std::uint32_t i = 0; i < kOps; ++i) {
    auto done = cq.Poll();
    ASSERT_TRUE(done.has_value()) << "completion " << i;
    EXPECT_TRUE(done->status.ok());
  }
  EXPECT_EQ(cq.outstanding(), 0u);
}

TEST(AsyncStore, ZeroWorkersExecuteInlineOnTheSubmitter) {
  // The window-1 flow's store: no pool, so every completion is ready
  // before the submission call returns.
  LocalStore store;
  AsyncStore async(store, {.workers = 0});
  AsyncStore::CompletionQueue cq;

  ByteBuffer data = Pattern(5'000, 12);
  const LocalStore::IntentId intent =
      store.Stage(kHandle, {{100, data.size()}}, data);
  async.SubmitApply(cq, /*token=*/1, intent, 0, data.size());
  std::optional<AsyncStore::Completion> wrote = cq.Poll();
  ASSERT_TRUE(wrote.has_value());
  EXPECT_EQ(wrote->token, 1u);
  store.Commit(intent);

  ByteBuffer back(data.size());
  async.SubmitRead(cq, /*token=*/2, kHandle, 100, back);
  std::optional<AsyncStore::Completion> read = cq.Poll();
  ASSERT_TRUE(read.has_value());
  EXPECT_TRUE(read->status.ok());
  EXPECT_EQ(back, data);
  EXPECT_EQ(cq.outstanding(), 0u);
}

// ---- Flow ------------------------------------------------------------------

TEST(Flow, WriteReadRoundTripMatchesSynchronousStore) {
  LocalStore flow_store, sync_store;
  AsyncStore async(flow_store, {.workers = 2});
  const FlowConfig config{.segment_bytes = 4096, .max_inflight = 4};

  // Three runs; the first two span multiple segments.
  const std::vector<ScheduledRun> runs = {
      {0, 10'000, 0}, {50'000, 7'000, 10'000}, {200'000, 300, 17'000}};
  ByteBuffer scratch = Pattern(17'300, 55);

  std::vector<Extent> pieces;
  for (const ScheduledRun& run : runs) {
    pieces.push_back({run.offset, run.length});
  }
  const LocalStore::IntentId intent =
      flow_store.Stage(kHandle, pieces, scratch);
  FlowStats wstats;
  FlowWrite(async, intent, runs, config, wstats);
  flow_store.Commit(intent);
  // ceil(10000/4096) + ceil(7000/4096) + ceil(300/4096) = 3 + 2 + 1.
  EXPECT_EQ(wstats.segments, 6u);
  EXPECT_GE(wstats.peak_inflight, 1u);
  EXPECT_LE(wstats.peak_inflight, config.max_inflight);

  // The synchronous path writes the same bytes through one WriteV.
  std::vector<LocalStore::WritePiece> sync_pieces;
  for (const ScheduledRun& run : runs) {
    sync_pieces.push_back({run.offset,
                           std::span<const std::byte>(scratch).subspan(
                               run.buf_offset, run.length)});
  }
  sync_store.WriteV(kHandle, sync_pieces);

  FlowStats rstats;
  ByteBuffer flow_back(scratch.size());
  ASSERT_TRUE(
      FlowRead(async, kHandle, runs, flow_back, config, rstats).ok());
  EXPECT_EQ(rstats.segments, 6u);
  EXPECT_EQ(flow_back, scratch);

  for (const ScheduledRun& run : runs) {
    ByteBuffer a(run.length), b(run.length);
    ASSERT_TRUE(flow_store.Read(kHandle, run.offset, a).ok());
    ASSERT_TRUE(sync_store.Read(kHandle, run.offset, b).ok());
    EXPECT_EQ(a, b);
  }
}

TEST(Flow, FullWindowStallsAreAccounted) {
  // One slow worker, window of 2, 8 segments: the pipeline must block on
  // a full window and record the wait.
  LocalStore store;
  AsyncStore async(store, {.workers = 1, .seek_us = 2'000});
  const FlowConfig config{.segment_bytes = 1024, .max_inflight = 2};
  const std::vector<ScheduledRun> runs = {{0, 8 * 1024, 0}};
  ByteBuffer scratch = Pattern(8 * 1024, 66);

  const LocalStore::IntentId intent =
      store.Stage(kHandle, {{0, scratch.size()}}, scratch);
  FlowStats stats;
  FlowWrite(async, intent, runs, config, stats);
  store.Commit(intent);
  EXPECT_EQ(stats.segments, 8u);
  EXPECT_EQ(stats.peak_inflight, 2u);
  EXPECT_GT(stats.stall_us, 0u);
}

// ---- FlowAtomicity / IntentOwnership ----------------------------------------
//
// A write is one journaled intent whatever the flow window: a crash after
// any of its segments replays the whole request, a crash in its journal
// append rolls the whole request back, and recovery run by one request
// never touches an intent another request's live flow still owns.

constexpr ByteCount kSegment = 1000;
constexpr std::uint32_t kSegments = 8;
constexpr ByteCount kRequestBytes = kSegment * kSegments;

/// Two 4,000 B regions of a one-server file: two runs, cut into eight
/// 1,000 B flow segments.
IoRequest TwoRunRequest(IoOp op, ByteBuffer payload = {}) {
  IoRequest req;
  req.handle = kHandle;
  req.striping = Striping{0, 1, 65536};
  req.server_index = 0;
  req.op = op;
  req.regions = {Extent{0, 4000}, Extent{10'000, 4000}};
  req.payload = std::move(payload);
  return req;
}

ServerConfig WindowConfig(std::uint32_t window) {
  ServerConfig config;
  config.flow_segment_bytes = kSegment;
  config.flow_inflight = window;
  config.store_workers = 2;
  return config;
}

fault::FaultConfig TornConfig(std::uint64_t seed) {
  fault::FaultConfig config;
  config.seed = seed;
  config.torn_write_rate = 1.0;
  return config;
}

/// A seed whose first torn-write decision on iod 0 tears the journal
/// append (`torn_journal`), or else tears the data writes after exactly
/// `whole_segments` segments landed (the next one partly).
std::uint64_t TornSeed(bool torn_journal, std::uint32_t whole_segments) {
  for (std::uint64_t seed = 1;; ++seed) {
    fault::FaultInjector probe(TornConfig(seed));
    const fault::TornWriteFault torn = probe.OnStoredWrite(0);
    if (torn.torn_journal != torn_journal) continue;
    if (torn_journal) return seed;
    const ByteCount land = kRequestBytes * torn.keep_permille / 1000;
    if (land / kSegment == whole_segments) return seed;
  }
}

/// The request's bytes as the store holds them, without recovering first.
ByteBuffer StoredImage(IoDaemon& iod) {
  ByteBuffer image(kRequestBytes);
  EXPECT_TRUE(iod.store()
                  .Read(kHandle, 0, std::span{image}.first(4000))
                  .ok());
  EXPECT_TRUE(iod.store()
                  .Read(kHandle, 10'000, std::span{image}.subspan(4000))
                  .ok());
  return image;
}

void ExpectTornWriteReplaysWholeRequest(std::uint32_t window) {
  for (std::uint32_t landed = 0; landed < kSegments; ++landed) {
    SCOPED_TRACE("window " + std::to_string(window) + ", crash after " +
                 std::to_string(landed) + " segments");
    IoDaemon iod(0, WindowConfig(window));
    const ByteBuffer before = Pattern(kRequestBytes, 500);
    ASSERT_TRUE(iod.Serve(TwoRunRequest(IoOp::kWrite, before)).ok());

    const ByteBuffer after = Pattern(kRequestBytes, 600 + landed);
    fault::FaultInjector injector(TornConfig(TornSeed(false, landed)));
    iod.set_fault_injector(&injector);
    auto crashed = iod.Serve(TwoRunRequest(IoOp::kWrite, after));
    iod.set_fault_injector(nullptr);
    ASSERT_EQ(crashed.status().code(), ErrorCode::kUnavailable);

    // The crash hit mid-request: the landed segments hold new bytes, the
    // last segment still holds old ones.
    const ByteBuffer torn = StoredImage(iod);
    const ByteCount whole = landed * kSegment;
    EXPECT_TRUE(std::equal(torn.begin(), torn.begin() + whole, after.begin()));
    EXPECT_EQ(torn.back(), before.back());

    // The next request recovers first: the whole request is applied.
    auto read = iod.Serve(TwoRunRequest(IoOp::kRead));
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read->payload, after);
    EXPECT_EQ(iod.store().integrity().journal_replays, 1u);
    EXPECT_EQ(iod.store().integrity().journal_rollbacks, 0u);
  }
}

TEST(FlowAtomicity, TornWriteReplaysWholeRequestAtWindow1) {
  ExpectTornWriteReplaysWholeRequest(1);
}

TEST(FlowAtomicity, TornWriteReplaysWholeRequestAtWindow4) {
  ExpectTornWriteReplaysWholeRequest(4);
}

TEST(FlowAtomicity, TornJournalAppendRollsBackWholeRequest) {
  for (std::uint32_t window : {1u, 4u}) {
    SCOPED_TRACE("window " + std::to_string(window));
    IoDaemon iod(0, WindowConfig(window));
    const ByteBuffer before = Pattern(kRequestBytes, 700);
    ASSERT_TRUE(iod.Serve(TwoRunRequest(IoOp::kWrite, before)).ok());

    fault::FaultInjector injector(TornConfig(TornSeed(true, 0)));
    iod.set_fault_injector(&injector);
    auto crashed =
        iod.Serve(TwoRunRequest(IoOp::kWrite, Pattern(kRequestBytes, 701)));
    iod.set_fault_injector(nullptr);
    ASSERT_EQ(crashed.status().code(), ErrorCode::kUnavailable);
    EXPECT_EQ(StoredImage(iod), before) << "a torn append touches no chunk";

    auto read = iod.Serve(TwoRunRequest(IoOp::kRead));
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read->payload, before);
    EXPECT_EQ(iod.store().integrity().journal_replays, 0u);
    EXPECT_EQ(iod.store().integrity().journal_rollbacks, 1u);
  }
}

TEST(IntentOwnership, ConcurrentRecoveryLeavesLiveIntentsAlone) {
  // Window 4 with a slow device: every write's intent stays staged for
  // several device intervals while the other threads' Serve calls run
  // RecoverStore. None of them may replay or discard it.
  ServerConfig config = WindowConfig(4);
  config.store_seek_us = 200;
  IoDaemon iod(0, config);
  constexpr int kThreads = 4;
  constexpr int kRounds = 6;
  std::atomic<int> failures{0};
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int round = 0; round < kRounds; ++round) {
          IoRequest write = TwoRunRequest(
              IoOp::kWrite, Pattern(kRequestBytes, 800 + t * kRounds + round));
          write.handle = kHandle + 1 + t;
          IoRequest read = TwoRunRequest(IoOp::kRead);
          read.handle = write.handle;
          auto back = iod.Serve(read);  // recovers while others write
          if (!iod.Serve(write).ok() || !back.ok()) ++failures;
          back = iod.Serve(read);
          if (!back.ok() || back->payload != write.payload) ++failures;
        }
      });
    }
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(iod.store().integrity().journal_replays, 0u);
  EXPECT_EQ(iod.store().integrity().journal_rollbacks, 0u);
  EXPECT_FALSE(iod.store().NeedsRecovery());
}

TEST(IntentOwnership, OverlappingIntentsLandInJournalOrder) {
  // B overlaps A and is staged while A is still live: B's Stage waits for
  // A's commit, so B's bytes land last, matching journal order. A repair
  // that replays the journal then rebuilds exactly what was stored.
  LocalStore store;
  ByteBuffer a(1000, std::byte{0xAA});
  const LocalStore::IntentId intent_a = store.Stage(kHandle, {{0, 1000}}, a);
  std::atomic<bool> b_staged{false};
  std::jthread writer([&] {
    ByteBuffer b(1000, std::byte{0xBB});
    const LocalStore::IntentId intent_b =
        store.Stage(kHandle, {{500, 1000}}, b);
    b_staged = true;
    store.Apply(intent_b, 0, b.size());
    store.Commit(intent_b);
  });
  std::this_thread::sleep_for(milliseconds(50));
  EXPECT_FALSE(b_staged.load()) << "B staged over A's live intent";
  store.Apply(intent_a, 0, a.size());
  store.Commit(intent_a);
  writer.join();

  ByteBuffer want(1500, std::byte{0xBB});
  std::fill(want.begin(), want.begin() + 500, std::byte{0xAA});
  ByteBuffer out(1500);
  ASSERT_TRUE(store.Read(kHandle, 0, out).ok());
  EXPECT_EQ(out, want);
  ASSERT_TRUE(store.CorruptStoredBit(0));
  ASSERT_TRUE(store.Read(kHandle, 0, out).ok());
  EXPECT_EQ(out, want);
  EXPECT_EQ(store.integrity().read_repairs, 1u);
}

// ---- AsyncClient -----------------------------------------------------------

TEST(AsyncClient, OutOfOrderCompletionsAcrossIodsRoundTrip) {
  InProcCluster cluster(4, PipelinedConfig());
  Client::Options options;
  options.async_workers = 4;
  Client client(cluster.transport.get(), options);
  auto fd = client.Create("/async/ooo", kStriping);
  ASSERT_TRUE(fd.ok());

  constexpr std::uint32_t kOps = 8;
  constexpr std::uint32_t kRegions = 6;
  constexpr ByteCount kRegionBytes = 5'000;  // spans stripe boundaries
  const ByteCount op_bytes = kRegions * kRegionBytes;

  std::vector<std::vector<Extent>> files(kOps);
  std::vector<std::vector<Extent>> mems(kOps);
  std::vector<ByteBuffer> golden(kOps);
  std::vector<Client::Operation> ops(kOps);
  for (std::uint32_t op = 0; op < kOps; ++op) {
    files[op] = StridedRegions(op, kRegions, kRegionBytes);
    mems[op] = {Extent{0, op_bytes}};
    golden[op] = Pattern(op_bytes, 70 + op);
    ops[op] = client.WriteListAsync(*fd, mems[op], golden[op], files[op]);
    ASSERT_TRUE(ops[op].valid());
  }
  // Waits in reverse submission order: completion order is unspecified,
  // every handle must resolve regardless.
  for (std::uint32_t op = kOps; op-- > 0;) {
    EXPECT_TRUE(ops[op].Wait().ok()) << "write op " << op;
    EXPECT_TRUE(ops[op].Test());
  }

  std::vector<ByteBuffer> back(kOps);
  for (std::uint32_t op = 0; op < kOps; ++op) {
    back[op] = ByteBuffer(op_bytes);
    ops[op] = client.ReadListAsync(*fd, mems[op], back[op], files[op]);
  }
  for (std::uint32_t op = 0; op < kOps; ++op) {
    EXPECT_TRUE(ops[op].Wait().ok()) << "read op " << op;
    EXPECT_EQ(back[op], golden[op]) << "read op " << op;
  }

  std::uint64_t segments = 0;
  for (const auto& iod : cluster.iods) {
    segments += iod->stats().store_ops;
  }
  EXPECT_GT(segments, 0u) << "every request must run through a flow";
  const ClientStats stats = client.stats();
  EXPECT_EQ(stats.operations, kOps * 2);
  EXPECT_EQ(stats.bytes_written, static_cast<std::uint64_t>(op_bytes) * kOps);
}

TEST(AsyncClient, WaitAfterErrorReturnsTypedStatus) {
  InProcCluster cluster(4, PipelinedConfig());

  // Submission-time failure (bad descriptor): MPI-style, the handle still
  // comes back and Wait reports the typed error.
  {
    Client client(cluster.transport.get(), Client::Options{});
    ByteBuffer buffer = Pattern(1024, 80);
    const std::vector<Extent> mem = {Extent{0, buffer.size()}};
    const std::vector<Extent> file = {Extent{0, buffer.size()}};
    Client::Operation op = client.WriteListAsync(999, mem, buffer, file);
    ASSERT_TRUE(op.valid());
    EXPECT_TRUE(op.Test());
    Status status = op.Wait();
    EXPECT_EQ(status.code(), ErrorCode::kFailedPrecondition);
    EXPECT_EQ(op.Wait().code(), ErrorCode::kFailedPrecondition)
        << "Wait is idempotent";
  }

  // Transport-level failure: every iod down, no retries — Wait surfaces
  // the underlying kUnavailable, not a generic failure.
  {
    fault::FaultInjector injector(fault::FaultConfig{.seed = 17});
    for (ServerId s = 0; s < 4; ++s) injector.CrashServer(s, 1'000'000);
    fault::FaultInjectingTransport chaos(cluster.transport.get(), &injector);
    Client client(&chaos, Client::Options{});
    auto fd = client.Create("/async/err", kStriping);
    ASSERT_TRUE(fd.ok());  // manager calls pass through the injector
    ByteBuffer buffer = Pattern(4096, 81);
    const std::vector<Extent> mem = {Extent{0, buffer.size()}};
    const std::vector<Extent> file = {Extent{0, buffer.size()}};
    Client::Operation op = client.WriteListAsync(*fd, mem, buffer, file);
    Status status = op.Wait();
    EXPECT_EQ(status.code(), ErrorCode::kUnavailable) << status.message();
  }
}

TEST(AsyncClient, CancelBeforeDispatchWins) {
  // One async worker, a long-running first operation (16 strided runs,
  // each paying a 2 ms modeled seek): the second operation is still
  // queued when Cancel lands, so it must never execute.
  ServerConfig config = PipelinedConfig();
  config.store_seek_us = 2'000;
  InProcCluster cluster(4, config);
  Client::Options options;
  options.async_workers = 1;
  Client client(cluster.transport.get(), options);
  auto fd = client.Create("/async/cancel", kStriping);
  ASSERT_TRUE(fd.ok());

  const std::vector<Extent> slow_file = StridedRegions(0, 16, 2048);
  ByteBuffer slow_data = Pattern(16 * 2048, 90);
  const std::vector<Extent> slow_mem = {Extent{0, slow_data.size()}};
  Client::Operation slow =
      client.WriteListAsync(*fd, slow_mem, slow_data, slow_file);

  const Extent victim{10'000'000, 4096};
  ByteBuffer victim_data = Pattern(victim.length, 91);
  const std::vector<Extent> victim_mem = {Extent{0, victim.length}};
  const std::vector<Extent> victim_file = {victim};
  Client::Operation canceled =
      client.WriteListAsync(*fd, victim_mem, victim_data, victim_file);

  EXPECT_TRUE(canceled.Cancel()) << "op behind a busy worker is queued";
  EXPECT_TRUE(canceled.Test());
  EXPECT_EQ(canceled.Wait().code(), ErrorCode::kFailedPrecondition);
  EXPECT_FALSE(canceled.Cancel()) << "already resolved";
  EXPECT_TRUE(slow.Wait().ok());

  // The canceled write never reached the cluster: its range reads zero.
  ByteBuffer back(victim.length);
  ASSERT_TRUE(
      client.ReadList(*fd, victim_mem, back, victim_file).ok());
  EXPECT_EQ(back, ByteBuffer(victim.length));
}

TEST(AsyncClient, AsyncWritesSurviveFrameDropsAndCrashRestart) {
  // Chaos over the async path: random frame drops plus an explicitly
  // scheduled iod crash (down for 40 calls, then "restarted" when the
  // down ticks run out). Retries are idempotent; every Wait must succeed
  // and the readback must be bit-exact.
  InProcCluster cluster(4, PipelinedConfig());
  fault::FaultConfig faults;
  faults.seed = 4242;
  faults.drop_rate = 0.05;
  fault::FaultInjector injector(faults);
  fault::FaultInjectingTransport chaos(cluster.transport.get(), &injector);

  Client::Options options;
  options.async_workers = 4;
  options.retry.max_attempts = 10'000;
  options.retry.initial_backoff = microseconds(1);
  options.retry.max_backoff = microseconds(200);
  Client client(&chaos, options);
  auto fd = client.Create("/async/chaos", kStriping);
  ASSERT_TRUE(fd.ok());

  constexpr std::uint32_t kOps = 8;
  constexpr ByteCount kOpBytes = 6 * 4096;
  std::vector<std::vector<Extent>> files(kOps), mems(kOps);
  std::vector<ByteBuffer> golden(kOps);
  std::vector<Client::Operation> ops(kOps);
  for (std::uint32_t op = 0; op < kOps; ++op) {
    files[op] = StridedRegions(op, 6, 4096);
    mems[op] = {Extent{0, kOpBytes}};
    golden[op] = Pattern(kOpBytes, 95 + op);
    ops[op] = client.WriteListAsync(*fd, mems[op], golden[op], files[op]);
    if (op == kOps / 2) injector.CrashServer(1, 40);  // mid-stream crash
  }
  for (std::uint32_t op = 0; op < kOps; ++op) {
    EXPECT_TRUE(ops[op].Wait().ok()) << "write op " << op;
  }

  for (std::uint32_t op = 0; op < kOps; ++op) {
    ByteBuffer back(kOpBytes);
    ASSERT_TRUE(client.ReadList(*fd, mems[op], back, files[op]).ok())
        << "readback op " << op;
    EXPECT_EQ(back, golden[op]) << "readback op " << op;
  }
  EXPECT_GT(client.retry_counters().retries, 0u)
      << "the schedule injects drops and a crash; recovery must be visible";
}

TEST(AsyncClient, ConcurrentClientsOnFlowsDaemonsStayCoherent) {
  // Four clients hammer the same window-4 daemons through the shared
  // in-process transport: Serve runs concurrently (the epoll server stops
  // serializing service above window 1), so this is the TSan proof
  // obligation for daemon-side pipeline state.
  InProcCluster cluster(4, PipelinedConfig());
  std::atomic<int> failures{0};
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        Client client(cluster.transport.get(), Client::Options{});
        auto fd = client.Create("/async/mt" + std::to_string(t), kStriping);
        if (!fd.ok()) {
          ++failures;
          return;
        }
        for (int round = 0; round < 4; ++round) {
          const std::vector<Extent> file =
              StridedRegions(static_cast<std::uint32_t>(round), 5, 3000);
          ByteBuffer data = Pattern(5 * 3000, 300 + t * 10 + round);
          const std::vector<Extent> mem = {Extent{0, data.size()}};
          ByteBuffer back(data.size());
          if (!client.WriteList(*fd, mem, data, file).ok() ||
              !client.ReadList(*fd, mem, back, file).ok() || back != data) {
            ++failures;
          }
        }
      });
    }
  }
  EXPECT_EQ(failures.load(), 0);
  std::uint64_t segments = 0;
  for (const auto& iod : cluster.iods) {
    segments += iod->stats().store_ops;
  }
  EXPECT_GT(segments, 0u);
}

// ---- RetryDeadline ---------------------------------------------------------

/// All four iods down for effectively ever; manager untouched.
struct DeadCluster {
  DeadCluster()
      : cluster(4),
        injector(fault::FaultConfig{.seed = 23}),
        chaos(cluster.transport.get(), &injector) {
    for (ServerId s = 0; s < 4; ++s) injector.CrashServer(s, 100'000'000);
  }
  InProcCluster cluster;
  fault::FaultInjector injector;
  fault::FaultInjectingTransport chaos;
};

TEST(RetryDeadline, BudgetBoundsRetryTimeAndNamesTheLastError) {
  DeadCluster dead;
  Client::Options options;
  options.retry.max_attempts = 1'000;  // attempts alone would spin ~forever
  options.retry.initial_backoff = microseconds(300);
  options.retry.max_backoff = microseconds(5'000);
  options.retry.op_deadline = milliseconds(20);
  Client client(&dead.chaos, options);
  auto fd = client.Create("/deadline/budget", kStriping);
  ASSERT_TRUE(fd.ok());

  ByteBuffer data = Pattern(1000, 31);  // one server involved: one budget
  const auto start = std::chrono::steady_clock::now();
  Status status = client.Write(*fd, 0, data);
  const auto elapsed = std::chrono::steady_clock::now() - start;

  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kDeadlineExceeded);
  EXPECT_NE(status.message().find("op_deadline"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("UNAVAILABLE"), std::string::npos)
      << "must carry the last underlying error: " << status.message();
  EXPECT_LT(elapsed, milliseconds(2'000)) << "budget, not attempt cap, rules";
  EXPECT_GE(client.retry_counters().exhausted, 1u);
  EXPECT_GT(client.retry_counters().retries, 0u);
}

TEST(RetryDeadline, ZeroDeadlinePreservesAttemptCapSemantics) {
  DeadCluster dead;
  Client::Options options;
  options.retry.max_attempts = 4;
  options.retry.initial_backoff = microseconds(50);
  options.retry.max_backoff = microseconds(200);
  options.retry.op_deadline = microseconds(0);  // the historical default
  Client client(&dead.chaos, options);
  auto fd = client.Create("/deadline/off", kStriping);
  ASSERT_TRUE(fd.ok());

  ByteBuffer data = Pattern(1000, 32);
  Status status = client.Write(*fd, 0, data);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kDeadlineExceeded);
  EXPECT_NE(status.message().find("failed 4 attempts"), std::string::npos)
      << "attempt cap, not budget, must rule: " << status.message();
  EXPECT_EQ(status.message().find("op_deadline"), std::string::npos)
      << status.message();
  EXPECT_GE(client.retry_counters().retries, 3u);
  EXPECT_GE(client.retry_counters().exhausted, 1u);
}

TEST(RetryDeadline, FinalSleepIsClampedToTheRemainingBudget) {
  // Backoff (300 ms) dwarfs the budget (25 ms): the bugfix clamps the
  // sleep to the remainder instead of sleeping past the deadline.
  DeadCluster dead;
  Client::Options options;
  options.retry.max_attempts = 10;
  options.retry.initial_backoff = milliseconds(300);
  options.retry.max_backoff = milliseconds(1'000);
  options.retry.jitter = false;
  options.retry.op_deadline = milliseconds(25);
  Client client(&dead.chaos, options);
  auto fd = client.Create("/deadline/clamp", kStriping);
  ASSERT_TRUE(fd.ok());

  ByteBuffer data = Pattern(1000, 33);
  const auto start = std::chrono::steady_clock::now();
  Status status = client.Write(*fd, 0, data);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(status.code(), ErrorCode::kDeadlineExceeded);
  EXPECT_LT(elapsed, milliseconds(250))
      << "one un-clamped 300 ms backoff would already bust this";
}

TEST(RetryDeadline, ReplicatedOpsHonorTheBudget) {
  DeadCluster dead;
  Client::Options options;
  options.retry.max_attempts = 100;
  options.retry.initial_backoff = microseconds(200);
  options.retry.max_backoff = microseconds(2'000);
  options.retry.op_deadline = milliseconds(20);
  Client client(&dead.chaos, options);
  auto fd = client.Create("/deadline/replicated", kStriping,
                          ReplicationConfig{2});
  ASSERT_TRUE(fd.ok());

  ByteBuffer data = Pattern(1000, 34);
  const auto start = std::chrono::steady_clock::now();
  Status wrote = client.Write(*fd, 0, data);
  Status read = client.Read(*fd, 0, data);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(wrote.code(), ErrorCode::kDeadlineExceeded) << wrote.message();
  EXPECT_NE(wrote.message().find("op_deadline"), std::string::npos);
  EXPECT_EQ(read.code(), ErrorCode::kDeadlineExceeded) << read.message();
  EXPECT_LT(elapsed, milliseconds(4'000));
}

}  // namespace
}  // namespace pvfs
