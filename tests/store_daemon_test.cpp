// LocalStore, Manager and IoDaemon unit tests.
#include <gtest/gtest.h>

#include "common/bytes.hpp"
#include "pvfs/iod.hpp"
#include "pvfs/manager.hpp"
#include "pvfs/store.hpp"

namespace pvfs {
namespace {

// ---- LocalStore -------------------------------------------------------------

TEST(LocalStore, ReadBackWritten) {
  LocalStore store;
  ByteBuffer data(1000);
  FillPattern(data, 1, 0);
  store.Write(5, 123, data);
  ByteBuffer out(1000);
  EXPECT_TRUE(store.Read(5, 123, out).ok());
  EXPECT_EQ(out, data);
}

TEST(LocalStore, UnwrittenReadsZero) {
  LocalStore store;
  ByteBuffer out(64, std::byte{0xFF});
  EXPECT_TRUE(store.Read(99, 1 << 20, out).ok());
  for (std::byte b : out) EXPECT_EQ(b, std::byte{0});
}

TEST(LocalStore, HolesReadZeroBetweenWrites) {
  LocalStore store;
  ByteBuffer a(10, std::byte{1});
  store.Write(1, 0, a);
  store.Write(1, 1000000, a);  // different chunk
  ByteBuffer out(20);
  EXPECT_TRUE(store.Read(1, 500000, out).ok());
  for (std::byte b : out) EXPECT_EQ(b, std::byte{0});
}

TEST(LocalStore, WriteSpanningChunks) {
  LocalStore store;
  ByteBuffer data(3 * LocalStore::kChunkBytes);
  FillPattern(data, 2, 0);
  FileOffset at = LocalStore::kChunkBytes / 2;
  store.Write(7, at, data);
  ByteBuffer out(data.size());
  EXPECT_TRUE(store.Read(7, at, out).ok());
  EXPECT_EQ(out, data);
}

TEST(LocalStore, SizeIsHighWaterMark) {
  LocalStore store;
  ByteBuffer data(100);
  store.Write(1, 500, data);
  EXPECT_EQ(store.SizeOf(1), 600u);
  store.Write(1, 0, data);
  EXPECT_EQ(store.SizeOf(1), 600u);  // unchanged
  EXPECT_EQ(store.SizeOf(2), 0u);
}

TEST(LocalStore, RemoveFreesAndIsIdempotent) {
  LocalStore store;
  ByteBuffer data(LocalStore::kChunkBytes);
  store.Write(1, 0, data);
  EXPECT_GT(store.AllocatedBytes(), 0u);
  store.Remove(1);
  EXPECT_EQ(store.AllocatedBytes(), 0u);
  EXPECT_FALSE(store.Contains(1));
  store.Remove(1);  // no-op
}

TEST(LocalStore, OverwriteUpdatesInPlace) {
  LocalStore store;
  ByteBuffer first(100, std::byte{1});
  ByteBuffer second(50, std::byte{2});
  store.Write(1, 0, first);
  store.Write(1, 25, second);
  ByteBuffer out(100);
  EXPECT_TRUE(store.Read(1, 0, out).ok());
  EXPECT_EQ(out[24], std::byte{1});
  EXPECT_EQ(out[25], std::byte{2});
  EXPECT_EQ(out[74], std::byte{2});
  EXPECT_EQ(out[75], std::byte{1});
}

// ---- LocalStore integrity: checksums, journal, recovery, scrub --------------

TEST(LocalStoreIntegrity, RotIsDetectedAsCorruption) {
  LocalStore store;
  ByteBuffer data(1000);
  FillPattern(data, 3, 0);
  store.Write(1, 0, data);
  // Age the write out of the journal so it cannot be auto-repaired.
  ByteBuffer filler(LocalStore::kChunkBytes);
  for (int i = 0; i < 20; ++i) store.Write(2, 0, filler);

  ASSERT_TRUE(store.CorruptStoredBit(0));
  // Selector 0 rots the first chunk of the lowest handle: our data.
  ByteBuffer out(1000);
  Status read = store.Read(1, 0, out);
  EXPECT_EQ(read.code(), ErrorCode::kCorruption);
  EXPECT_GE(store.integrity().read_corruptions, 1u);
}

TEST(LocalStoreIntegrity, RotWithinJournalWindowIsRepairedOnRead) {
  LocalStore store;
  ByteBuffer data(1000);
  FillPattern(data, 4, 0);
  store.Write(1, 0, data);
  ASSERT_TRUE(store.CorruptStoredBit(0));
  ByteBuffer out(1000);
  ASSERT_TRUE(store.Read(1, 0, out).ok());  // healed from the journal
  EXPECT_EQ(out, data);
  EXPECT_EQ(store.integrity().read_repairs, 1u);
}

TEST(LocalStoreIntegrity, ScrubDetectsAndRepairs) {
  LocalStore store;
  ByteBuffer data(100);
  FillPattern(data, 5, 0);
  store.Write(1, 0, data);
  auto clean = store.Scrub();
  EXPECT_EQ(clean.chunks_scanned, 1u);
  EXPECT_EQ(clean.corrupt_chunks, 0u);

  ASSERT_TRUE(store.CorruptStoredBit(7));
  auto dirty = store.Scrub();
  EXPECT_EQ(dirty.corrupt_chunks, 1u);
  EXPECT_EQ(dirty.repaired_chunks, 1u);
  ByteBuffer out(100);
  ASSERT_TRUE(store.Read(1, 0, out).ok());
  EXPECT_EQ(out, data);
}

TEST(LocalStoreIntegrity, TornDataWriteReplaysOnRecovery) {
  LocalStore store;
  ByteBuffer a(300), b(300);
  FillPattern(a, 6, 0);
  FillPattern(b, 7, 0);
  ByteBuffer data = a;
  data.insert(data.end(), b.begin(), b.end());
  const LocalStore::IntentId intent =
      store.Stage(1, {{0, 300}, {1000, 300}}, data);
  // Crash after only 100 of 600 bytes reached the chunks.
  store.Apply(intent, 0, 100);
  EXPECT_FALSE(store.NeedsRecovery()) << "a live owner's intent is not torn";
  store.Abandon(intent);
  ASSERT_TRUE(store.NeedsRecovery());

  auto rec = store.Recover();
  EXPECT_EQ(rec.replayed, 1u);
  EXPECT_EQ(rec.rolled_back, 0u);
  ByteBuffer out_a(300), out_b(300);
  ASSERT_TRUE(store.Read(1, 0, out_a).ok());
  ASSERT_TRUE(store.Read(1, 1000, out_b).ok());
  EXPECT_EQ(out_a, a);  // the whole intent landed
  EXPECT_EQ(out_b, b);
  EXPECT_FALSE(store.NeedsRecovery());
}

TEST(LocalStoreIntegrity, TornJournalWriteRollsBack) {
  LocalStore store;
  ByteBuffer before(200, std::byte{0xAB});
  store.Write(1, 0, before);
  ByteBuffer update(200, std::byte{0xCD});
  // Crash during the journal append itself: no chunk touched.
  store.StageTorn(1, {{0, 200}}, update);
  ASSERT_TRUE(store.NeedsRecovery());

  auto rec = store.Recover();
  EXPECT_EQ(rec.replayed, 0u);
  EXPECT_EQ(rec.rolled_back, 1u);
  ByteBuffer out(200);
  ASSERT_TRUE(store.Read(1, 0, out).ok());
  EXPECT_EQ(out, before);  // consistent pre-write state
}

TEST(LocalStoreIntegrity, RecoverLeavesOwnedIntentsAlone) {
  LocalStore store;
  ByteBuffer data(400, std::byte{0x5A});
  const LocalStore::IntentId intent = store.Stage(1, {{0, 400}}, data);
  store.Apply(intent, 200, 200);  // parts land in any order
  auto rec = store.Recover();
  EXPECT_EQ(rec.replayed, 0u);
  EXPECT_EQ(rec.rolled_back, 0u);
  store.Apply(intent, 0, 200);
  store.Commit(intent);
  ByteBuffer out(400);
  ASSERT_TRUE(store.Read(1, 0, out).ok());
  EXPECT_EQ(out, data);
  EXPECT_FALSE(store.NeedsRecovery());
}

TEST(LocalStoreIntegrity, OutOfOrderApplyKeepsTrimmedHistoryUnrepairable) {
  // A is staged first but lands second, into a chunk B allocated. Once
  // retention trims A, the chunk's history is incomplete: a rotted bit
  // must surface as kCorruption, never as a rebuild that drops A's bytes.
  LocalStore store;
  constexpr ByteCount kBulk = 3 * 1024 * 1024;  // so trimming takes A alone
  ByteBuffer a_head(100, std::byte{0xA1});
  ByteBuffer a = a_head;
  a.resize(a_head.size() + kBulk, std::byte{0xA2});
  const LocalStore::IntentId intent_a = store.Stage(
      1, {{0, a_head.size()}, {8 * LocalStore::kChunkBytes, kBulk}}, a);
  ByteBuffer b(100, std::byte{0xB1});
  const LocalStore::IntentId intent_b = store.Stage(1, {{1000, 100}}, b);
  store.Apply(intent_b, 0, b.size());
  store.Commit(intent_b);
  store.Apply(intent_a, 0, a.size());
  store.Commit(intent_a);
  // Push the journal past retention: A is trimmed, B stays.
  store.Write(2, 0, ByteBuffer(1536 * 1024, std::byte{0xC1}));

  ASSERT_TRUE(store.CorruptStoredBit(0));  // handle 1, chunk 0, byte 0
  ByteBuffer out(a_head.size());
  Status st = store.Read(1, 0, out);
  if (st.ok()) {
    EXPECT_EQ(out, a_head) << "rebuilt without the trimmed intent's bytes";
  } else {
    EXPECT_EQ(st.code(), ErrorCode::kCorruption);
  }
}

TEST(LocalStoreIntegrity, StageRecoversAnAbandonedOverlapFirst) {
  // A crashed intent on the same bytes is redone before a newer one is
  // staged, so the newer intent's bytes win — recovery never replays the
  // older intent over them later.
  LocalStore store;
  ByteBuffer a(400, std::byte{0x11});
  const LocalStore::IntentId intent_a = store.Stage(1, {{0, 400}}, a);
  store.Apply(intent_a, 0, 200);
  store.Abandon(intent_a);

  ByteBuffer b(200, std::byte{0x22});
  const LocalStore::IntentId intent_b = store.Stage(1, {{100, 200}}, b);
  EXPECT_EQ(store.integrity().journal_replays, 1u);
  store.Apply(intent_b, 0, b.size());
  store.Commit(intent_b);
  EXPECT_FALSE(store.NeedsRecovery());
  EXPECT_EQ(store.Recover().replayed, 0u);

  ByteBuffer want(400, std::byte{0x11});
  std::fill(want.begin() + 100, want.begin() + 300, std::byte{0x22});
  ByteBuffer out(400);
  ASSERT_TRUE(store.Read(1, 0, out).ok());
  EXPECT_EQ(out, want);
}

TEST(LocalStoreIntegrity, MultiPieceWriteVIsOneIntent) {
  LocalStore store;
  ByteBuffer a(100, std::byte{1}), b(100, std::byte{2});
  LocalStore::WritePiece pieces[] = {{0, a}, {LocalStore::kChunkBytes, b}};
  store.WriteV(1, pieces);
  ByteBuffer out(100);
  ASSERT_TRUE(store.Read(1, LocalStore::kChunkBytes, out).ok());
  EXPECT_EQ(out, b);
  EXPECT_FALSE(store.NeedsRecovery());
}

// ---- Manager ----------------------------------------------------------------

TEST(Manager, CreateAssignsDistinctHandles) {
  Manager mgr(8);
  auto a = mgr.Create("a", Striping{0, 8, 16384});
  auto b = mgr.Create("b", Striping{0, 8, 16384});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->handle, b->handle);
  EXPECT_EQ(mgr.file_count(), 2u);
}

TEST(Manager, CreateValidatesStriping) {
  Manager mgr(8);
  EXPECT_EQ(mgr.Create("a", Striping{0, 0, 16384}).status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(mgr.Create("a", Striping{0, 9, 16384}).status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(mgr.Create("a", Striping{8, 8, 16384}).status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(mgr.Create("a", Striping{0, 8, 0}).status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(mgr.Create("", Striping{0, 8, 16384}).status().code(),
            ErrorCode::kInvalidArgument);
}

TEST(Manager, DuplicateCreateFails) {
  Manager mgr(8);
  ASSERT_TRUE(mgr.Create("f", Striping{0, 8, 16384}).ok());
  EXPECT_EQ(mgr.Create("f", Striping{0, 8, 16384}).status().code(),
            ErrorCode::kAlreadyExists);
}

TEST(Manager, LookupAndStat) {
  Manager mgr(8);
  auto meta = mgr.Create("f", Striping{1, 4, 8192});
  ASSERT_TRUE(meta.ok());
  auto by_name = mgr.Lookup("f");
  ASSERT_TRUE(by_name.ok());
  EXPECT_EQ(by_name->handle, meta->handle);
  EXPECT_EQ(by_name->striping, (Striping{1, 4, 8192}));
  auto by_handle = mgr.Stat(meta->handle);
  ASSERT_TRUE(by_handle.ok());
  EXPECT_EQ(by_handle->handle, meta->handle);
  EXPECT_FALSE(mgr.Lookup("nope").ok());
  EXPECT_FALSE(mgr.Stat(999).ok());
}

TEST(Manager, SetSizeIsMaxMerge) {
  Manager mgr(8);
  auto meta = mgr.Create("f", Striping{0, 8, 16384});
  ASSERT_TRUE(mgr.SetSize(meta->handle, 1000).ok());
  ASSERT_TRUE(mgr.SetSize(meta->handle, 500).ok());  // smaller: ignored
  EXPECT_EQ(mgr.Stat(meta->handle)->size, 1000u);
  EXPECT_FALSE(mgr.SetSize(12345, 1).ok());
}

TEST(Manager, RemoveDropsBothIndexes) {
  Manager mgr(8);
  auto meta = mgr.Create("f", Striping{0, 8, 16384});
  ASSERT_TRUE(mgr.Remove("f").ok());
  EXPECT_FALSE(mgr.Lookup("f").ok());
  EXPECT_FALSE(mgr.Stat(meta->handle).ok());
  EXPECT_FALSE(mgr.Remove("f").ok());
}

TEST(Manager, HandleMessageDispatch) {
  Manager mgr(8);
  auto env = mgr.HandleMessage(CreateRequest{"f", Striping{0, 8, 16384}}.Encode());
  auto resp = DecodeResponse(env);
  ASSERT_TRUE(resp.ok());
  ASSERT_TRUE(resp->status.ok());
  auto meta = MetadataResponse::Decode(resp->body);
  ASSERT_TRUE(meta.ok());
  EXPECT_GT(meta->meta.handle, 0u);

  // Errors travel in the envelope, not as transport failures.
  auto env2 = mgr.HandleMessage(LookupRequest{"missing"}.Encode());
  auto resp2 = DecodeResponse(env2);
  ASSERT_TRUE(resp2.ok());
  EXPECT_EQ(resp2->status.code(), ErrorCode::kNotFound);
}

TEST(Manager, HandleMessageRejectsIoTraffic) {
  Manager mgr(8);
  IoRequest io;
  io.striping = Striping{0, 8, 16384};
  auto resp = DecodeResponse(mgr.HandleMessage(io.Encode()));
  ASSERT_TRUE(resp.ok());
  EXPECT_FALSE(resp->status.ok());
}

// ---- IoDaemon ----------------------------------------------------------------

IoRequest MakeIo(IoOp op, ExtentList regions, ServerId server_index = 0,
                 Striping striping = Striping{0, 8, 16384}) {
  IoRequest req;
  req.handle = 1;
  req.striping = striping;
  req.server_index = server_index;
  req.op = op;
  req.regions = std::move(regions);
  return req;
}

TEST(IoDaemon, WriteThenReadOwnFragments) {
  IoDaemon iod(0);
  // Region [0, 100) lives wholly on relative server 0.
  IoRequest write = MakeIo(IoOp::kWrite, {{0, 100}});
  write.payload.resize(100);
  FillPattern(write.payload, 1, 0);
  auto wr = iod.Serve(write);
  ASSERT_TRUE(wr.ok());
  EXPECT_EQ(wr->bytes, 100u);

  auto rd = iod.Serve(MakeIo(IoOp::kRead, {{0, 100}}));
  ASSERT_TRUE(rd.ok());
  EXPECT_EQ(rd->payload, write.payload);
}

TEST(IoDaemon, ServesOnlyItsServerIndexShare) {
  IoDaemon iod(0);
  // [0, 32768) spans relative servers 0 and 1; server 0's share is 16384.
  auto rd = iod.Serve(MakeIo(IoOp::kRead, {{0, 32768}}, 0));
  ASSERT_TRUE(rd.ok());
  EXPECT_EQ(rd->bytes, 16384u);
  auto rd1 = iod.Serve(MakeIo(IoOp::kRead, {{0, 32768}}, 1));
  ASSERT_TRUE(rd1.ok());
  EXPECT_EQ(rd1->bytes, 16384u);
}

TEST(IoDaemon, RegionLimitEnforced) {
  IoDaemon iod(0, 4);
  ExtentList regions(5, Extent{0, 1});
  auto resp = iod.Serve(MakeIo(IoOp::kRead, regions));
  EXPECT_EQ(resp.status().code(), ErrorCode::kResourceExhausted);
}

TEST(IoDaemon, WritePayloadSizeMismatchRejected) {
  IoDaemon iod(0);
  IoRequest write = MakeIo(IoOp::kWrite, {{0, 100}});
  write.payload.resize(99);
  EXPECT_EQ(iod.Serve(write).status().code(), ErrorCode::kInvalidArgument);
}

TEST(IoDaemon, CountsCoalescedLocalRuns) {
  IoDaemon iod(0);
  // Two logically distant regions that are locally adjacent on server 0:
  // [0,16384) is stripe 0 (local 0..16384); [131072,+16384) is stripe 8
  // (local 16384..32768) -> one coalesced run.
  auto resp =
      iod.Serve(MakeIo(IoOp::kRead, {{0, 16384}, {8 * 16384, 16384}}));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(iod.stats().local_accesses, 1u);
  EXPECT_EQ(iod.stats().regions, 2u);
}

TEST(IoDaemon, HandleMessageRemoveData) {
  IoDaemon iod(0);
  IoRequest write = MakeIo(IoOp::kWrite, {{0, 10}});
  write.payload.resize(10, std::byte{1});
  ASSERT_TRUE(iod.Serve(write).ok());
  EXPECT_TRUE(iod.store().Contains(1));
  auto env = iod.HandleMessage(RemoveDataRequest{1}.Encode());
  EXPECT_TRUE(DecodeResponse(env)->status.ok());
  EXPECT_FALSE(iod.store().Contains(1));
}

TEST(IoDaemon, ReadOfUnwrittenDataIsZeros) {
  IoDaemon iod(0);
  auto rd = iod.Serve(MakeIo(IoOp::kRead, {{100, 50}}));
  ASSERT_TRUE(rd.ok());
  for (std::byte b : rd->payload) EXPECT_EQ(b, std::byte{0});
}

// A kRepair range that wraps around the 64-bit offset space is refused
// before it touches the store, as Serve refuses such list regions; a
// 40 B apply at 2^64 - 10 used to land at byte 0 of the file.
RepairRequest WrappingRepair(RepairOp op) {
  RepairRequest req;
  req.handle = 1;
  req.op = op;
  req.offset = ~FileOffset{0} - 9;  // 2^64 - 10
  if (op == RepairOp::kFetch) {
    req.length = 40;
  } else {
    req.payload.assign(40, std::byte{0x55});
  }
  return req;
}

TEST(IoDaemonRepair, ApplyRangeThatWrapsIsRejected) {
  IoDaemon iod(0);
  const ByteBuffer before(64, std::byte{0xAA});
  iod.store().Write(1, 0, before);
  auto env = DecodeResponse(
      iod.HandleMessage(WrappingRepair(RepairOp::kApply).Encode()));
  ASSERT_TRUE(env.ok());
  EXPECT_EQ(env->status.code(), ErrorCode::kInvalidArgument);
  ByteBuffer out(64);
  ASSERT_TRUE(iod.store().Read(1, 0, out).ok());
  EXPECT_EQ(out, before);
  EXPECT_EQ(iod.stats().repair_chunks_copied, 0u);
}

TEST(IoDaemonRepair, FetchRangeThatWrapsIsRejected) {
  IoDaemon iod(0);
  iod.store().Write(1, 0, ByteBuffer(64, std::byte{0xAA}));
  auto env = DecodeResponse(
      iod.HandleMessage(WrappingRepair(RepairOp::kFetch).Encode()));
  ASSERT_TRUE(env.ok());
  EXPECT_EQ(env->status.code(), ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace pvfs
