#include "pvfs/client.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "common/wire.hpp"
#include "pvfs/protocol.hpp"
#include "test_cluster.hpp"

namespace pvfs {
namespace {

using testutil::InProcCluster;

constexpr Striping kDefault{0, 8, 16384};

TEST(ChunkRegions, SplitsAtLimit) {
  ExtentList regions(130, Extent{0, 8});
  auto chunks = ChunkRegions(regions, 64);
  ASSERT_EQ(chunks.size(), 3u);
  EXPECT_EQ(chunks[0].size(), 64u);
  EXPECT_EQ(chunks[1].size(), 64u);
  EXPECT_EQ(chunks[2].size(), 2u);
}

TEST(ChunkRegions, DropsEmptyRegions) {
  ExtentList regions{{0, 8}, {10, 0}, {20, 8}};
  auto chunks = ChunkRegions(regions, 64);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].size(), 2u);
}

TEST(ChunkRegions, EmptyInput) {
  EXPECT_TRUE(ChunkRegions(ExtentList{}, 64).empty());
}

TEST(Client, CreateOpenCloseLifecycle) {
  InProcCluster cluster;
  Client client = cluster.MakeClient();

  auto fd = client.Create("f", kDefault);
  ASSERT_TRUE(fd.ok());
  EXPECT_TRUE(client.Close(*fd).ok());

  auto fd2 = client.Open("f");
  ASSERT_TRUE(fd2.ok());
  auto meta = client.DescribeFd(*fd2);
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->striping, kDefault);
  EXPECT_TRUE(client.Close(*fd2).ok());

  EXPECT_FALSE(client.Open("missing").ok());
  EXPECT_FALSE(client.Close(1234).ok());
}

TEST(Client, ContiguousWriteReadRoundTrip) {
  InProcCluster cluster;
  Client client = cluster.MakeClient();
  auto fd = client.Create("f", kDefault);
  ASSERT_TRUE(fd.ok());

  // Spans several stripes and servers.
  ByteBuffer data(5 * 16384 + 777);
  FillPattern(data, 42, 0);
  ASSERT_TRUE(client.Write(*fd, 1000, data).ok());

  ByteBuffer out(data.size());
  ASSERT_TRUE(client.Read(*fd, 1000, out).ok());
  EXPECT_EQ(out, data);
}

TEST(Client, StripingPlacesBytesOnExpectedServers) {
  InProcCluster cluster;
  Client client = cluster.MakeClient();
  auto fd = client.Create("f", kDefault);
  ASSERT_TRUE(fd.ok());
  auto meta = client.DescribeFd(*fd);

  // Write exactly 3 stripes: they must land on iods 0, 1, 2.
  ByteBuffer data(3 * 16384);
  FillPattern(data, 7, 0);
  ASSERT_TRUE(client.Write(*fd, 0, data).ok());
  for (ServerId s = 0; s < 3; ++s) {
    EXPECT_EQ(cluster.iods[s]->store().SizeOf(meta->handle), 16384u)
        << "server " << s;
  }
  for (ServerId s = 3; s < 8; ++s) {
    EXPECT_EQ(cluster.iods[s]->store().SizeOf(meta->handle), 0u);
  }
}

TEST(Client, NonZeroBaseMapsToLaterServers) {
  InProcCluster cluster;
  Client client = cluster.MakeClient();
  auto fd = client.Create("f", Striping{5, 2, 16384});
  ASSERT_TRUE(fd.ok());
  auto meta = client.DescribeFd(*fd);

  ByteBuffer data(2 * 16384);
  FillPattern(data, 9, 0);
  ASSERT_TRUE(client.Write(*fd, 0, data).ok());
  // Relative servers 0,1 -> global 5,6.
  EXPECT_EQ(cluster.iods[5]->store().SizeOf(meta->handle), 16384u);
  EXPECT_EQ(cluster.iods[6]->store().SizeOf(meta->handle), 16384u);
  EXPECT_EQ(cluster.iods[0]->store().SizeOf(meta->handle), 0u);

  ByteBuffer out(data.size());
  ASSERT_TRUE(client.Read(*fd, 0, out).ok());
  EXPECT_EQ(out, data);
}

TEST(Client, ListWriteReadRoundTrip) {
  InProcCluster cluster;
  Client client = cluster.MakeClient();
  auto fd = client.Create("f", kDefault);
  ASSERT_TRUE(fd.ok());

  // Noncontiguous in memory AND file.
  ByteBuffer buffer(10000);
  FillPattern(buffer, 3, 0);
  ExtentList mem{{0, 1000}, {2000, 1000}, {5000, 500}};
  ExtentList file{{100, 300}, {20000, 1200}, {100000, 1000}};
  ASSERT_TRUE(client.WriteList(*fd, mem, buffer, file).ok());

  ByteBuffer out(10000, std::byte{0});
  ASSERT_TRUE(client.ReadList(*fd, mem, out, file).ok());
  for (const Extent& m : mem) {
    for (FileOffset i = m.offset; i < m.end(); ++i) {
      ASSERT_EQ(out[i], buffer[i]) << "at " << i;
    }
  }
}

TEST(Client, ListIoChunksAtRegionLimit) {
  InProcCluster cluster;
  Client client = cluster.MakeClient();
  auto fd = client.Create("f", kDefault);
  ASSERT_TRUE(fd.ok());
  client.ResetStats();

  // 130 small regions, all on server 0 (within the first stripe).
  ExtentList file;
  for (int i = 0; i < 130; ++i) {
    file.push_back(Extent{static_cast<FileOffset>(i) * 100, 50});
  }
  ByteBuffer buffer(TotalBytes(file));
  FillPattern(buffer, 5, 0);
  ExtentList mem{{0, buffer.size()}};
  ASSERT_TRUE(client.WriteList(*fd, mem, buffer, file).ok());

  // ceil(130/64) = 3 fs requests (the paper's request-count metric).
  EXPECT_EQ(client.stats().fs_requests, 3u);
  EXPECT_EQ(client.stats().operations, 1u);
  EXPECT_EQ(client.stats().bytes_written, buffer.size());
}

TEST(Client, ReadListOfSparseFileReturnsZeros) {
  InProcCluster cluster;
  Client client = cluster.MakeClient();
  auto fd = client.Create("f", kDefault);
  ASSERT_TRUE(fd.ok());
  ByteBuffer out(100, std::byte{0xEE});
  ExtentList mem{{0, 100}};
  ExtentList file{{1 << 20, 100}};
  ASSERT_TRUE(client.ReadList(*fd, mem, out, file).ok());
  for (std::byte b : out) EXPECT_EQ(b, std::byte{0});
}

TEST(Client, ValidationRejectsMismatchedTotals) {
  InProcCluster cluster;
  Client client = cluster.MakeClient();
  auto fd = client.Create("f", kDefault);
  ByteBuffer buffer(100);
  ExtentList mem{{0, 50}};
  ExtentList file{{0, 60}};
  EXPECT_EQ(client.ReadList(*fd, mem, buffer, file).code(),
            ErrorCode::kInvalidArgument);
}

TEST(Client, ValidationRejectsMemoryOutsideBuffer) {
  InProcCluster cluster;
  Client client = cluster.MakeClient();
  auto fd = client.Create("f", kDefault);
  ByteBuffer buffer(100);
  ExtentList mem{{90, 20}};
  ExtentList file{{0, 20}};
  EXPECT_EQ(client.WriteList(*fd, mem, buffer, file).code(),
            ErrorCode::kInvalidArgument);
}

TEST(Client, ValidationRejectsWrappingMemoryExtent) {
  InProcCluster cluster;
  Client client = cluster.MakeClient();
  auto fd = client.Create("f", kDefault);
  ByteBuffer buffer(100);
  // offset + length wraps the 64-bit offset space, so m.end() is small
  // and slips past the plain bounds check — it must be rejected before
  // anything indexes the caller's buffer.
  ExtentList mem{{~std::uint64_t{0} - 3, 20}};
  ExtentList file{{0, 20}};
  EXPECT_EQ(client.WriteList(*fd, mem, buffer, file).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(client.ReadList(*fd, mem, buffer, file).code(),
            ErrorCode::kInvalidArgument);
  // The same guard for file regions still holds.
  ExtentList bad_file{{~std::uint64_t{0} - 3, 20}};
  ExtentList ok_mem{{0, 20}};
  EXPECT_EQ(client.WriteList(*fd, ok_mem, buffer, bad_file).code(),
            ErrorCode::kInvalidArgument);
}

TEST(Client, OperationsOnBadFdFail) {
  InProcCluster cluster;
  Client client = cluster.MakeClient();
  ByteBuffer buffer(10);
  EXPECT_EQ(client.Read(42, 0, buffer).code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ(client.Write(42, 0, buffer).code(),
            ErrorCode::kFailedPrecondition);
}

TEST(Client, CloseFlushesSizeToManager) {
  InProcCluster cluster;
  Client client = cluster.MakeClient();
  auto fd = client.Create("f", kDefault);
  ByteBuffer data(1000);
  ASSERT_TRUE(client.Write(*fd, 5000, data).ok());
  ASSERT_TRUE(client.Close(*fd).ok());

  auto fd2 = client.Open("f");
  auto meta = client.Stat(*fd2);
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->size, 6000u);
}

TEST(Client, RemoveDropsDataOnAllServers) {
  InProcCluster cluster;
  Client client = cluster.MakeClient();
  auto fd = client.Create("f", kDefault);
  auto meta = client.DescribeFd(*fd);
  ByteBuffer data(8 * 16384);
  ASSERT_TRUE(client.Write(*fd, 0, data).ok());
  ASSERT_TRUE(client.Close(*fd).ok());

  ASSERT_TRUE(client.Remove("f").ok());
  EXPECT_FALSE(client.Open("f").ok());
  for (auto& iod : cluster.iods) {
    EXPECT_FALSE(iod->store().Contains(meta->handle));
  }
}

TEST(Client, SmallerListLimitMeansMoreRequests) {
  InProcCluster cluster(8, /*max_list_regions=*/8);
  Client client = cluster.MakeClient(/*max_list_regions=*/8);
  auto fd = client.Create("f", kDefault);
  client.ResetStats();

  ExtentList file;
  for (int i = 0; i < 64; ++i) {
    file.push_back(Extent{static_cast<FileOffset>(i) * 1000, 10});
  }
  ByteBuffer buffer(TotalBytes(file));
  ExtentList mem{{0, buffer.size()}};
  ASSERT_TRUE(client.WriteList(*fd, mem, buffer, file).ok());
  EXPECT_EQ(client.stats().fs_requests, 8u);  // 64 / 8
}

TEST(Client, RandomListPatternsMatchOracle) {
  // Property test: random noncontiguous writes then reads reproduce the
  // oracle file image for arbitrary patterns and stripe interactions.
  InProcCluster cluster;
  Client client = cluster.MakeClient();
  SplitMix64 rng(2026);

  for (int round = 0; round < 10; ++round) {
    std::string name = "f" + std::to_string(round);
    Striping striping{static_cast<ServerId>(rng.Uniform(0, 7)),
                      static_cast<std::uint32_t>(rng.Uniform(1, 8)),
                      rng.Uniform(1, 3) * 4096};
    auto fd = client.Create(name, striping);
    ASSERT_TRUE(fd.ok());

    const ByteCount file_span = 1 << 18;
    ByteBuffer oracle(file_span, std::byte{0});

    // Random disjoint ascending file regions.
    ExtentList file;
    FileOffset pos = rng.Uniform(0, 999);
    while (pos < file_span - 2000 && file.size() < 200) {
      ByteCount len = rng.Uniform(1, 997);
      file.push_back(Extent{pos, len});
      pos += len + rng.Uniform(1, 2048);
    }
    ByteCount total = TotalBytes(file);
    ByteBuffer buffer(total);
    FillPattern(buffer, round, 0);
    ExtentList mem{{0, total}};

    ASSERT_TRUE(client.WriteList(*fd, mem, buffer, file).ok());
    // Maintain the oracle.
    size_t cursor = 0;
    for (const Extent& e : file) {
      std::copy(buffer.begin() + cursor, buffer.begin() + cursor + e.length,
                oracle.begin() + static_cast<std::ptrdiff_t>(e.offset));
      cursor += e.length;
    }

    // Read back the whole span contiguously and compare with the oracle.
    ByteBuffer image(file_span);
    ASSERT_TRUE(client.Read(*fd, 0, image).ok());
    ASSERT_EQ(image, oracle) << "round " << round;
    ASSERT_TRUE(client.Close(*fd).ok());
  }
}

TEST(Client, ParallelFanoutMovesIdenticalBytes) {
  InProcCluster cluster;
  Client::Options options;
  options.parallel_fanout = true;
  Client parallel(cluster.transport.get(), options);
  Client serial = cluster.MakeClient();

  auto pfd = parallel.Create("par", kDefault);
  auto sfd = serial.Create("ser", kDefault);
  ASSERT_TRUE(pfd.ok());
  ASSERT_TRUE(sfd.ok());

  // A large contiguous write fans out to all 8 servers concurrently.
  ByteBuffer data(2 * 1024 * 1024 + 777);
  FillPattern(data, 6, 0);
  ASSERT_TRUE(parallel.Write(*pfd, 100, data).ok());
  ASSERT_TRUE(serial.Write(*sfd, 100, data).ok());

  ByteBuffer a(data.size());
  ByteBuffer b(data.size());
  ASSERT_TRUE(parallel.Read(*pfd, 100, a).ok());
  ASSERT_TRUE(serial.Read(*sfd, 100, b).ok());
  EXPECT_EQ(a, data);
  EXPECT_EQ(a, b);
  EXPECT_EQ(parallel.stats().messages, serial.stats().messages);

  // List I/O across many servers under parallel fan-out.
  ExtentList file;
  for (int i = 0; i < 100; ++i) {
    file.push_back(Extent{static_cast<FileOffset>(i) * 20000, 500});
  }
  ByteBuffer buffer(TotalBytes(file));
  FillPattern(buffer, 7, 0);
  ExtentList mem{{0, buffer.size()}};
  ASSERT_TRUE(parallel.WriteList(*pfd, mem, buffer, file).ok());
  ByteBuffer out(buffer.size());
  ASSERT_TRUE(parallel.ReadList(*pfd, mem, out, file).ok());
  EXPECT_EQ(out, buffer);
}

TEST(Client, ListFilesByPrefix) {
  InProcCluster cluster;
  Client client = cluster.MakeClient();
  for (const char* name : {"/a/one", "/a/two", "/b/one"}) {
    auto fd = client.Create(name, kDefault);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(client.Close(*fd).ok());
  }
  auto all = client.ListFiles();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, (std::vector<std::string>{"/a/one", "/a/two", "/b/one"}));

  auto under_a = client.ListFiles("/a/");
  ASSERT_TRUE(under_a.ok());
  EXPECT_EQ(*under_a, (std::vector<std::string>{"/a/one", "/a/two"}));

  auto none = client.ListFiles("/zzz");
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());

  ASSERT_TRUE(client.Remove("/a/one").ok());
  auto after = client.ListFiles("/a/");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, (std::vector<std::string>{"/a/two"}));
}

TEST(Client, SegmentChunkingMatchesPaperFlashArithmetic) {
  // 2002/ROMIO-compatible chunking: the 64-entry cap binds on the finer
  // (memory) side. A scaled FLASH-like pattern: 4 file chunks of 512 B,
  // memory fragmented into 8-byte variables -> 256 segments -> 4 requests
  // at limit 64, while the native client needs only 1.
  InProcCluster cluster;
  ExtentList file;
  ExtentList mem;
  for (int c = 0; c < 4; ++c) {
    file.push_back(Extent{static_cast<FileOffset>(c) * 4096, 512});
    for (int v = 0; v < 64; ++v) {
      mem.push_back(Extent{static_cast<ByteCount>(c) * 2048 +
                               static_cast<ByteCount>(v) * 24,
                           8});
    }
  }
  ByteBuffer buffer(4 * 2048);
  FillPattern(buffer, 1, 0);

  Client native(cluster.transport.get(), kMaxListRegions,
                ListChunking::kFileRegions);
  auto nfd = native.Create("native", kDefault);
  ASSERT_TRUE(nfd.ok());
  ASSERT_TRUE(native.WriteList(*nfd, mem, buffer, file).ok());
  EXPECT_EQ(native.stats().fs_requests, 1u);

  Client romio(cluster.transport.get(), kMaxListRegions,
               ListChunking::kMatchedSegments);
  auto rfd = romio.Create("romio", kDefault);
  ASSERT_TRUE(rfd.ok());
  ASSERT_TRUE(romio.WriteList(*rfd, mem, buffer, file).ok());
  EXPECT_EQ(romio.stats().fs_requests, 4u);  // 256 segments / 64

  // Both clients must produce identical file images.
  ByteBuffer a(4096 * 4);
  ByteBuffer b(4096 * 4);
  ASSERT_TRUE(native.Read(*nfd, 0, a).ok());
  ASSERT_TRUE(romio.Read(*rfd, 0, b).ok());
  EXPECT_EQ(a, b);
}

TEST(Client, SegmentChunkingEqualsNativeForContiguousMemory) {
  InProcCluster cluster;
  Client romio(cluster.transport.get(), kMaxListRegions,
               ListChunking::kMatchedSegments);
  auto fd = romio.Create("f", kDefault);
  ASSERT_TRUE(fd.ok());
  romio.ResetStats();
  ExtentList file;
  for (int i = 0; i < 100; ++i) {
    file.push_back(Extent{static_cast<FileOffset>(i) * 1000, 64});
  }
  ByteBuffer buffer(TotalBytes(file));
  ExtentList mem{{0, buffer.size()}};
  ASSERT_TRUE(romio.WriteList(*fd, mem, buffer, file).ok());
  EXPECT_EQ(romio.stats().fs_requests, 2u);  // ceil(100/64), same as native
}

// ---- Client retry contract ------------------------------------------------
//
// One table pins what a per-server exchange does when every iod answers
// with the same retryable error: the final status, the calls each iod
// received, the retry counters and their per-code split, and the failover
// counters. Replication 1 and 2 share the table, so the one-replica set
// is checked against exactly the contract the replicated path keeps.

/// Answers every iod call (or only the calls to iod `only`) with one
/// injected error and counts the calls each iod received; manager calls
/// and calls to other iods pass through. kUnavailable arrives as a
/// transport failure (connection refused); kBusy and kCorruption arrive
/// inside a sealed response envelope, as an admission shed or a daemon's
/// refusal to serve a chunk it cannot repair would.
class ErrorInjectingTransport final : public Transport {
 public:
  ErrorInjectingTransport(Transport* inner, ErrorCode code,
                          std::optional<ServerId> only = std::nullopt)
      : inner_(inner), code_(code), only_(only),
        calls_(inner->server_count()) {}

  Result<std::vector<std::byte>> Call(
      const Endpoint& dest, std::span<const std::byte> request) override {
    if (dest.is_manager) return inner_->Call(dest, request);
    {
      std::lock_guard lock(mutex_);
      ++calls_[dest.server];
    }
    if (only_ && dest.server != *only_) return inner_->Call(dest, request);
    const Status injected(code_, "injected");
    if (code_ == ErrorCode::kUnavailable) return injected;
    return SealFrame(EncodeResponse(injected, {}));
  }

  std::uint32_t server_count() const override {
    return inner_->server_count();
  }

  std::vector<std::uint32_t> calls() {
    std::lock_guard lock(mutex_);
    return calls_;
  }

 private:
  Transport* inner_;
  ErrorCode code_;
  std::optional<ServerId> only_;
  std::mutex mutex_;
  std::vector<std::uint32_t> calls_;
};

struct ContractCell {
  // Inputs.
  std::uint32_t replicas;
  ErrorCode injected;
  std::uint32_t max_attempts;
  bool budgeted;  // op_deadline 50 ms (and a 50 ms backoff) vs no budget
  // Expected outcome, identical for a write and a read.
  ErrorCode final_code;
  std::uint32_t calls_iod0;
  std::uint32_t calls_iod1;
  std::uint64_t retries_injected;  // retries counted under `injected`
  std::uint64_t retries_deadline;  // retries counted under kDeadlineExceeded
  std::uint64_t exhausted;
  std::uint64_t retargets;
  std::uint64_t ejected;
};

std::string CellName(const ContractCell& c, bool write) {
  return std::string(write ? "write" : "read") +
         " replicas=" + std::to_string(c.replicas) + " error=" +
         std::string(ErrorCodeName(c.injected)) +
         " max_attempts=" + std::to_string(c.max_attempts) +
         (c.budgeted ? " op_deadline=50ms" : " op_deadline=0");
}

std::uint64_t RetriesUnder(const Client::RetryCounters& r, ErrorCode code) {
  switch (code) {
    case ErrorCode::kUnavailable: return r.retries_unavailable;
    case ErrorCode::kBusy: return r.retries_busy;
    case ErrorCode::kCorruption: return r.retries_corruption;
    case ErrorCode::kDeadlineExceeded: return r.retries_deadline;
    default: return 0;
  }
}

constexpr ErrorCode kU = ErrorCode::kUnavailable;
constexpr ErrorCode kB = ErrorCode::kBusy;
constexpr ErrorCode kC = ErrorCode::kCorruption;
constexpr ErrorCode kD = ErrorCode::kDeadlineExceeded;

// A 1,000 B access at offset 0 touches file-relative server 0 only; with
// two replicas its copy lives on server 1 (striping base 0, pcount 2).
// One attempt is one round over the replica set: every injected error
// moves on to the next replica, and a round no replica answered is
// retried. Health counts only kUnavailable (an unreachable iod) and ejects
// after eject_after = 3 consecutive failures, and only when there is
// another replica to fail over to.
const ContractCell kContract[] = {
    // replicas, error, attempts, budget -> code, calls 0/1,
    //   retries (injected, deadline), exhausted, retargets, ejected
    {1, kU, 1, false, kU, 1, 0, 0, 0, 1, 0, 0},
    {1, kU, 1, true, kU, 1, 0, 0, 0, 1, 0, 0},
    {1, kU, 3, false, kD, 3, 0, 2, 0, 1, 0, 0},
    {1, kU, 3, true, kD, 2, 0, 1, 0, 1, 0, 0},
    {1, kB, 1, false, kB, 1, 0, 0, 0, 1, 0, 0},
    {1, kB, 1, true, kB, 1, 0, 0, 0, 1, 0, 0},
    {1, kB, 3, false, kD, 3, 0, 2, 0, 1, 0, 0},
    {1, kB, 3, true, kD, 2, 0, 1, 0, 1, 0, 0},
    {1, kC, 1, false, kC, 1, 0, 0, 0, 1, 0, 0},
    {1, kC, 1, true, kC, 1, 0, 0, 0, 1, 0, 0},
    {1, kC, 3, false, kD, 3, 0, 2, 0, 1, 0, 0},
    {1, kC, 3, true, kD, 2, 0, 1, 0, 1, 0, 0},
    {2, kU, 1, false, kU, 1, 1, 0, 0, 1, 0, 0},
    {2, kU, 1, true, kU, 1, 1, 0, 0, 1, 0, 0},
    {2, kU, 3, false, kD, 3, 3, 2, 0, 1, 0, 2},
    {2, kU, 3, true, kD, 2, 2, 1, 0, 1, 0, 0},
    {2, kB, 1, false, kB, 1, 1, 0, 0, 1, 0, 0},
    {2, kB, 1, true, kB, 1, 1, 0, 0, 1, 0, 0},
    {2, kB, 3, false, kD, 3, 3, 2, 0, 1, 0, 0},
    {2, kB, 3, true, kD, 2, 2, 1, 0, 1, 0, 0},
    {2, kC, 1, false, kC, 1, 1, 0, 0, 1, 0, 0},
    {2, kC, 1, true, kC, 1, 1, 0, 0, 1, 0, 0},
    {2, kC, 3, false, kD, 3, 3, 2, 0, 1, 0, 0},
    {2, kC, 3, true, kD, 2, 2, 1, 0, 1, 0, 0},
};

TEST(ClientRetryContract, EveryCellMatchesTheTable) {
  using std::chrono::milliseconds;
  for (const ContractCell& cell : kContract) {
    for (bool write : {true, false}) {
      SCOPED_TRACE(CellName(cell, write));
      InProcCluster cluster(4);
      ErrorInjectingTransport faulty(cluster.transport.get(), cell.injected);
      Client::Options options;
      options.retry.max_attempts = cell.max_attempts;
      options.retry.jitter = false;
      // With a budget, the first backoff spends all of it: the second
      // attempt is the last one, whatever the attempt cap allows.
      const milliseconds pause = cell.budgeted ? milliseconds(50)
                                               : milliseconds(1);
      options.retry.initial_backoff = pause;
      options.retry.max_backoff = pause;
      if (cell.budgeted) options.retry.op_deadline = milliseconds(50);
      Client client(&faulty, options);
      auto fd = client.Create("f", Striping{0, 2, 16384},
                              ReplicationConfig{cell.replicas});
      ASSERT_TRUE(fd.ok()) << fd.status().ToString();

      ByteBuffer data(1000);
      FillPattern(data, 3, 0);
      const Status status = write ? client.Write(*fd, 0, data)
                                  : client.Read(*fd, 0, data);
      EXPECT_EQ(status.code(), cell.final_code) << status.ToString();
      const std::vector<std::uint32_t> calls = faulty.calls();
      EXPECT_EQ(calls[0], cell.calls_iod0);
      EXPECT_EQ(calls[1], cell.calls_iod1);
      EXPECT_EQ(calls[2] + calls[3], 0u);
      const Client::RetryCounters r = client.retry_counters();
      EXPECT_EQ(RetriesUnder(r, cell.injected), cell.retries_injected);
      EXPECT_EQ(r.retries_deadline, cell.retries_deadline);
      EXPECT_EQ(r.retries, cell.retries_injected + cell.retries_deadline);
      EXPECT_EQ(r.exhausted, cell.exhausted);
      EXPECT_EQ(client.failover_counters().retargets, cell.retargets);
      EXPECT_EQ(client.failover_counters().ejected_replicas, cell.ejected);
    }
  }
}

// A live primary that sheds (kBusy) or holds a chunk it cannot repair
// (kCorruption) must not hide a healthy replica: the write acks on replica
// 1, degraded once its attempts on the primary run out, and the read is
// served by replica 1 with the bytes written.
TEST(ClientRetryContract, HealthyReplicaServesPastAFailingPrimary) {
  using std::chrono::milliseconds;
  for (ErrorCode code : {kB, kC}) {
    SCOPED_TRACE(std::string(ErrorCodeName(code)));
    InProcCluster cluster(4);
    ErrorInjectingTransport faulty(cluster.transport.get(), code,
                                   /*only=*/0);
    Client::Options options;
    options.retry.max_attempts = 3;
    options.retry.jitter = false;
    options.retry.initial_backoff = milliseconds(1);
    options.retry.max_backoff = milliseconds(1);
    Client client(&faulty, options);
    auto fd = client.Create("f", Striping{0, 2, 16384}, ReplicationConfig{2});
    ASSERT_TRUE(fd.ok()) << fd.status().ToString();

    ByteBuffer data(1000);
    FillPattern(data, 7, 0);
    const Status wrote = client.Write(*fd, 0, data);
    ASSERT_TRUE(wrote.ok()) << wrote.ToString();
    ByteBuffer back(1000);
    const Status read = client.Read(*fd, 0, back);
    ASSERT_TRUE(read.ok()) << read.ToString();
    EXPECT_EQ(back, data);
    EXPECT_EQ(faulty.calls()[1], 2u);  // one write leg, one read leg
    // One write copy proceeded without, one read served off the primary.
    EXPECT_EQ(client.failover_counters().retargets, 2u);
    EXPECT_EQ(client.failover_counters().ejected_replicas, 0u);
  }
}

// op_deadline bounds the whole exchange, every replica leg and round
// included: with every iod shedding kBusy, a replicated write or read
// gives up after one budget, not one budget per replica.
TEST(ClientRetryContract, OpDeadlineBoundsTheWholeReplicatedExchange) {
  using std::chrono::milliseconds;
  const milliseconds budget(200);
  for (std::uint32_t replicas : {2u, 3u}) {
    for (bool write : {true, false}) {
      SCOPED_TRACE((write ? "write replicas=" : "read replicas=") +
                   std::to_string(replicas));
      InProcCluster cluster(4);
      ErrorInjectingTransport faulty(cluster.transport.get(),
                                     ErrorCode::kBusy);
      Client::Options options;
      options.retry.max_attempts = 1'000'000;
      options.retry.initial_backoff = milliseconds(1);
      options.retry.max_backoff = milliseconds(1);
      options.retry.op_deadline = budget;
      Client client(&faulty, options);
      auto fd = client.Create("f", Striping{0, 3, 16384},
                              ReplicationConfig{replicas});
      ASSERT_TRUE(fd.ok());
      ByteBuffer data(1000);
      const auto start = std::chrono::steady_clock::now();
      const Status status = write ? client.Write(*fd, 0, data)
                                  : client.Read(*fd, 0, data);
      const auto elapsed = std::chrono::steady_clock::now() - start;
      EXPECT_EQ(status.code(), ErrorCode::kDeadlineExceeded);
      EXPECT_NE(status.message().find("op_deadline"), std::string::npos)
          << status.ToString();
      EXPECT_GE(elapsed, budget);
      EXPECT_LT(elapsed, budget * 3 / 2);
      EXPECT_EQ(client.retry_counters().exhausted, 1u);
    }
  }
}

// Retry errors name the daemon that failed by its global id: with a
// striping base of 5, file-relative server 0 is iod 5.
TEST(ClientRetryContract, RetryErrorsNameTheGlobalIod) {
  using std::chrono::milliseconds;
  for (bool budgeted : {false, true}) {
    SCOPED_TRACE(budgeted ? "op_deadline" : "attempt cap");
    InProcCluster cluster(8);
    ErrorInjectingTransport faulty(cluster.transport.get(),
                                   ErrorCode::kUnavailable);
    Client::Options options;
    options.retry.max_attempts = 3;
    options.retry.jitter = false;
    const milliseconds pause = budgeted ? milliseconds(20) : milliseconds(1);
    options.retry.initial_backoff = pause;
    options.retry.max_backoff = pause;
    if (budgeted) options.retry.op_deadline = pause;
    Client client(&faulty, options);
    auto fd = client.Create("f", Striping{5, 2, 16384});
    ASSERT_TRUE(fd.ok());
    ByteBuffer data(1000);
    const Status status = client.Write(*fd, 0, data);
    EXPECT_EQ(status.code(), ErrorCode::kDeadlineExceeded);
    const std::string expected = budgeted
                                     ? "exchange with server 5: op_deadline"
                                     : "exchange with server 5 failed 3";
    EXPECT_NE(status.message().find(expected), std::string::npos)
        << status.ToString();
    EXPECT_EQ(faulty.calls()[5], budgeted ? 2u : 3u);
  }
}

// ---- Client pool -----------------------------------------------------------

// Async ops and parallel fan-out legs share one client pool. Every async
// op here fans out to 4 iods and more ops are queued than the pool has
// threads, so the helpers an op posts sit behind other ops: the op must
// finish by claiming its own legs rather than wait on helpers nobody runs.
TEST(ClientPool, AsyncFanOutOnASharedPoolFinishes) {
  InProcCluster cluster(4);
  Client::Options options;
  options.async_workers = 1;
  options.parallel_fanout = true;
  Client client(cluster.transport.get(), options);
  auto fd = client.Create("f", Striping{0, 4, 4096});
  ASSERT_TRUE(fd.ok());

  constexpr std::uint32_t kOps = 12;
  constexpr ByteCount kOpBytes = 4 * 4096;  // one stripe unit on every iod
  std::vector<ByteBuffer> golden(kOps);
  std::vector<ExtentList> mems(kOps, ExtentList{{0, kOpBytes}});
  std::vector<ExtentList> files(kOps);
  std::vector<Client::Operation> ops(kOps);
  for (std::uint32_t op = 0; op < kOps; ++op) {
    golden[op] = ByteBuffer(kOpBytes);
    FillPattern(golden[op], 40 + op, 0);
    files[op] = {Extent{op * kOpBytes, kOpBytes}};
    ops[op] = client.WriteListAsync(*fd, mems[op], golden[op], files[op]);
  }
  for (Client::Operation& op : ops) EXPECT_TRUE(op.Wait().ok());

  std::vector<ByteBuffer> back(kOps, ByteBuffer(kOpBytes));
  for (std::uint32_t op = 0; op < kOps; ++op) {
    ops[op] = client.ReadListAsync(*fd, mems[op], back[op], files[op]);
  }
  for (std::uint32_t op = 0; op < kOps; ++op) {
    EXPECT_TRUE(ops[op].Wait().ok()) << "read op " << op;
    EXPECT_EQ(back[op], golden[op]) << "read op " << op;
  }
  EXPECT_EQ(client.stats().messages, 2 * kOps * 4);
}

}  // namespace
}  // namespace pvfs
