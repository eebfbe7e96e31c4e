// Parallel runtime tests: SPMD groups, barriers, the threaded cluster
// with genuinely concurrent clients, and concurrent service inside each
// daemon on every transport.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "io/method.hpp"
#include "net/socket_transport.hpp"
#include "runtime/spmd.hpp"
#include "runtime/threaded_cluster.hpp"
#include "test_cluster.hpp"
#include "workloads/cyclic.hpp"

namespace pvfs::runtime {
namespace {

TEST(Spmd, AllRanksRun) {
  std::atomic<std::uint32_t> mask{0};
  RunSpmd(8, [&](SpmdContext& ctx) {
    mask.fetch_or(1u << ctx.rank());
    EXPECT_EQ(ctx.size(), 8u);
  });
  EXPECT_EQ(mask.load(), 0xFFu);
}

TEST(Spmd, BarrierSynchronizes) {
  constexpr std::uint32_t kRanks = 6;
  std::atomic<int> before{0};
  std::atomic<bool> violated{false};
  RunSpmd(kRanks, [&](SpmdContext& ctx) {
    before.fetch_add(1);
    ctx.Barrier();
    // After the barrier every rank must observe all arrivals.
    if (before.load() != kRanks) violated = true;
  });
  EXPECT_FALSE(violated.load());
}

TEST(Spmd, ExceptionPropagatesToCaller) {
  EXPECT_THROW(
      RunSpmd(3, [&](SpmdContext& ctx) {
        if (ctx.rank() == 1) throw std::runtime_error("rank 1 failed");
      }),
      std::runtime_error);
}

TEST(ThreadedCluster, SingleClientRoundTrip) {
  ThreadedCluster cluster(8);
  Client client(&cluster.transport());
  auto fd = client.Create("f", Striping{0, 8, 16384});
  ASSERT_TRUE(fd.ok());
  ByteBuffer data(100000);
  FillPattern(data, 1, 0);
  ASSERT_TRUE(client.Write(*fd, 0, data).ok());
  ByteBuffer out(data.size());
  ASSERT_TRUE(client.Read(*fd, 0, out).ok());
  EXPECT_EQ(out, data);
}

TEST(ThreadedCluster, ConcurrentClientsDisjointFiles) {
  ThreadedCluster cluster(8);
  RunSpmd(8, [&](SpmdContext& ctx) {
    Client client(&cluster.transport());
    std::string name = "file" + std::to_string(ctx.rank());
    auto fd = client.Create(name, Striping{0, 8, 16384});
    ASSERT_TRUE(fd.ok());
    ByteBuffer data(50000);
    FillPattern(data, ctx.rank(), 0);
    ASSERT_TRUE(client.Write(*fd, 0, data).ok());
    ByteBuffer out(data.size());
    ASSERT_TRUE(client.Read(*fd, 0, out).ok());
    ASSERT_EQ(out, data);
    ASSERT_TRUE(client.Close(*fd).ok());
  });
}

TEST(ThreadedCluster, ConcurrentCyclicWritersShareOneFile) {
  // The paper's artificial benchmark shape: every rank writes its cyclic
  // share of one file concurrently with list I/O; the merged image must
  // interleave perfectly.
  ThreadedCluster cluster(8);
  constexpr std::uint32_t kClients = 4;
  workloads::CyclicConfig config{1 << 18, kClients, 64};

  {
    Client setup(&cluster.transport());
    ASSERT_TRUE(setup.Create("shared", Striping{0, 8, 16384}).ok());
  }

  RunSpmd(kClients, [&](SpmdContext& ctx) {
    Client client(&cluster.transport());
    auto fd = client.Open("shared");
    ASSERT_TRUE(fd.ok());
    auto pattern = workloads::CyclicPattern(config, ctx.rank());
    ByteBuffer buffer(config.BytesPerClient());
    FillPattern(buffer, 9000 + ctx.rank(), 0);
    ASSERT_TRUE(
        client.WriteList(*fd, pattern.memory, buffer, pattern.file).ok());
    ctx.Barrier();
    // Cross-verify: read the next rank's share.
    Rank peer = (ctx.rank() + 1) % kClients;
    auto peer_pattern = workloads::CyclicPattern(config, peer);
    ByteBuffer peer_buf(config.BytesPerClient());
    ASSERT_TRUE(client
                    .ReadList(*fd, peer_pattern.memory, peer_buf,
                              peer_pattern.file)
                    .ok());
    EXPECT_FALSE(FindPatternMismatch(peer_buf, 9000 + peer, 0).has_value());
  });
}

TEST(ThreadedCluster, ConcurrentMixedMethodsAgree) {
  ThreadedCluster cluster(4);
  // One writer per method on disjoint file ranges of a shared file.
  const io::MethodType kMethods[] = {
      io::MethodType::kMultiple, io::MethodType::kList,
      io::MethodType::kHybrid};
  {
    Client setup(&cluster.transport());
    ASSERT_TRUE(setup.Create("mixed", Striping{0, 4, 4096}).ok());
  }
  RunSpmd(3, [&](SpmdContext& ctx) {
    Client client(&cluster.transport());
    auto fd = client.Open("mixed");
    ASSERT_TRUE(fd.ok());
    io::AccessPattern pattern;
    FileOffset base = ctx.rank() * (1 << 20);
    for (int i = 0; i < 100; ++i) {
      pattern.file.push_back(Extent{base + i * 512, 256});
    }
    pattern.memory = {Extent{0, 100 * 256}};
    ByteBuffer buffer(100 * 256);
    FillPattern(buffer, ctx.rank(), 0);
    auto method = io::MakeMethod(kMethods[ctx.rank()]);
    ASSERT_TRUE(method->Write(client, *fd, pattern, buffer).ok());
  });

  // Verify all three regions with a fourth client.
  Client verifier(&cluster.transport());
  auto fd = verifier.Open("mixed");
  ASSERT_TRUE(fd.ok());
  for (Rank r = 0; r < 3; ++r) {
    FileOffset base = r * (1 << 20);
    for (int i = 0; i < 100; ++i) {
      ByteBuffer piece(256);
      ASSERT_TRUE(verifier.Read(*fd, base + i * 512, piece).ok());
      EXPECT_FALSE(
          FindPatternMismatch(piece, r, static_cast<ByteCount>(i) * 256)
              .has_value())
          << "rank " << r << " piece " << i;
    }
  }
}

TEST(ThreadedCluster, SievingWritersSerializeAcrossThreads) {
  ThreadedCluster cluster(4);
  {
    Client setup(&cluster.transport());
    ASSERT_TRUE(setup.Create("sieve", Striping{0, 4, 4096}).ok());
  }
  io::MutexSerializer serializer;
  constexpr std::uint32_t kClients = 4;
  constexpr int kPieces = 32;
  constexpr ByteCount kPiece = 64;

  RunSpmd(kClients, [&](SpmdContext& ctx) {
    Client client(&cluster.transport());
    auto fd = client.Open("sieve");
    ASSERT_TRUE(fd.ok());
    io::AccessPattern pattern;
    for (int i = 0; i < kPieces; ++i) {
      pattern.file.push_back(
          Extent{(static_cast<FileOffset>(i) * kClients + ctx.rank()) *
                     kPiece,
                 kPiece});
    }
    pattern.memory = {Extent{0, kPieces * kPiece}};
    ByteBuffer buffer(kPieces * kPiece);
    FillPattern(buffer, 50 + ctx.rank(), 0);
    io::MethodOptions options;
    options.sieve_buffer_bytes = 2048;  // many overlapping RMW windows
    options.serializer = &serializer;
    auto method = io::MakeMethod(io::MethodType::kDataSieving, options);
    ASSERT_TRUE(method->Write(client, *fd, pattern, buffer).ok());
  });

  Client verifier(&cluster.transport());
  auto fd = verifier.Open("sieve");
  ByteBuffer image(kPieces * kPiece * kClients);
  ASSERT_TRUE(verifier.Read(*fd, 0, image).ok());
  for (Rank r = 0; r < kClients; ++r) {
    for (int i = 0; i < kPieces; ++i) {
      for (ByteCount b = 0; b < kPiece; ++b) {
        ASSERT_EQ(image[(i * kClients + r) * kPiece + b],
                  PatternByte(50 + r, i * kPiece + b))
            << "rank " << r << " piece " << i;
      }
    }
  }
}

// ---- Daemon self-synchronization --------------------------------------------

// Every daemon synchronizes itself and no transport serializes service, so
// at flow window 1 (segments run inline on the serving thread) concurrent
// requests to one iod still overlap their modeled device time. Four
// single-segment writes that each pay a 200 ms seek take about one seek
// in process and two over TCP (two service workers per daemon); a daemon
// serving one request at a time needs four.
constexpr int kWriters = 4;
constexpr ByteCount kWriteBytes = 4096;
const ServerConfig kSlowDevice{.flow_inflight = 1, .store_seek_us = 200'000};

/// Writer t writes its own file `prefix`<t>, striped on iod 0 only,
/// through `transports[t]`; every write starts behind one barrier. Expects
/// the write phase under 600 ms and every file to read back bit-exact.
void ExpectWritesOverlap(const std::vector<Transport*>& transports,
                         const std::string& prefix) {
  std::barrier start(kWriters + 1);
  std::barrier written(kWriters + 1);
  std::atomic<int> failures{0};
  std::vector<std::jthread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      Client client(transports[t]);
      auto fd = client.Create(prefix + std::to_string(t),
                              Striping{0, 1, kWriteBytes});
      ByteBuffer data(kWriteBytes);
      FillPattern(data, 70 + t, 0);
      start.arrive_and_wait();
      const bool wrote = fd.ok() && client.Write(*fd, 0, data).ok();
      written.arrive_and_wait();
      ByteBuffer back(kWriteBytes);
      if (!wrote || !client.Read(*fd, 0, back).ok() || back != data ||
          !client.Close(*fd).ok()) {
        ++failures;
      }
    });
  }
  start.arrive_and_wait();
  const auto begin = std::chrono::steady_clock::now();
  written.arrive_and_wait();
  const auto elapsed = std::chrono::steady_clock::now() - begin;
  writers.clear();  // joins after the read-back
  EXPECT_EQ(failures.load(), 0);
  EXPECT_LT(elapsed, std::chrono::milliseconds(600))
      << "write phase took "
      << std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
             .count()
      << " ms: the daemon served one request at a time";
}

TEST(DaemonConcurrency, WindowOneServiceOverlaps) {
  {
    SCOPED_TRACE("InProcCluster");
    testutil::InProcCluster cluster(2, kSlowDevice);
    ExpectWritesOverlap(
        std::vector<Transport*>(kWriters, cluster.transport.get()), "w");
  }
  {
    SCOPED_TRACE("ThreadedCluster");
    obs::Registry registry;
    ThreadedCluster cluster(2, kSlowDevice, &registry);
    ExpectWritesOverlap(
        std::vector<Transport*>(kWriters, &cluster.transport()), "w");
  }
  obs::Registry registry;
  auto cluster = net::SocketCluster::Start(2, kSlowDevice, 0, &registry);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  {
    SCOPED_TRACE("SocketCluster, one classic transport per thread");
    std::vector<std::unique_ptr<net::SocketTransport>> owned;
    std::vector<Transport*> transports;
    for (int t = 0; t < kWriters; ++t) {
      owned.push_back((*cluster)->Connect());
      transports.push_back(owned.back().get());
    }
    ExpectWritesOverlap(transports, "classic");
  }
  {
    SCOPED_TRACE("SocketCluster, one multiplexed transport");
    auto mux = (*cluster)->Connect(net::ClientConfig{.multiplex = true});
    ExpectWritesOverlap(std::vector<Transport*>(kWriters, mux.get()), "mux");
  }
}

}  // namespace
}  // namespace pvfs::runtime
