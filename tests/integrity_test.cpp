// End-to-end data integrity under corruption injection: frame bit-flips
// and truncations on the wire, stored-chunk rot at rest, and torn writes
// on crash. The invariants: no silently wrong bytes ever reach a caller —
// every read either matches the reference image after retries or fails
// with a typed kCorruption/kDeadlineExceeded — and the same fault seed
// reproduces the same corruption schedule bit for bit.
#include <gtest/gtest.h>

#include <chrono>
#include <string>

#include "common/bytes.hpp"
#include "fault/fault.hpp"
#include "fault/fault_transport.hpp"
#include "io/method.hpp"
#include "pvfs/client.hpp"
#include "simcluster/region_stream.hpp"
#include "simcluster/sim_run.hpp"
#include "test_cluster.hpp"
#include "trace/trace.hpp"
#include "workloads/cyclic.hpp"

namespace pvfs {
namespace {

using std::chrono::microseconds;

constexpr ByteCount kFileBytes = 256 * 1024;
const Striping kStriping{0, 8, 16384};

/// Generous retry budget: combined corruption + drop rates below ~40% per
/// exchange exhaust 16 attempts with probability ~0.4^16 ≈ 4e-7.
Client::Options IntegrityClientOptions() {
  Client::Options options;
  options.retry.max_attempts = 16;
  options.retry.initial_backoff = microseconds{1};
  options.retry.max_backoff = microseconds{64};
  return options;
}

std::vector<io::AccessPattern> WorkloadPatterns() {
  workloads::CyclicConfig config;
  config.total_bytes = kFileBytes;
  config.clients = 4;
  config.accesses_per_client = 32;
  std::vector<io::AccessPattern> patterns;
  for (Rank r = 0; r < config.clients; ++r) {
    patterns.push_back(workloads::CyclicPattern(config, r));
  }
  return patterns;
}

ByteBuffer GoldenContents() {
  ByteBuffer golden(kFileBytes);
  FillPattern(golden, 99, 0);
  return golden;
}

ByteBuffer Gather(const ByteBuffer& golden, const io::AccessPattern& pattern) {
  ByteBuffer out;
  out.reserve(pattern.total_bytes());
  for (const Extent& region : pattern.file) {
    out.insert(out.end(),
               golden.begin() + static_cast<std::ptrdiff_t>(region.offset),
               golden.begin() + static_cast<std::ptrdiff_t>(region.end()));
  }
  return out;
}

ByteBuffer ReadWholeFile(Client& client, const std::string& name) {
  auto fd = client.Open(name);
  EXPECT_TRUE(fd.ok()) << fd.status().message();
  ByteBuffer out(kFileBytes);
  EXPECT_TRUE(client.Read(*fd, 0, out).ok());
  EXPECT_TRUE(client.Close(*fd).ok());
  return out;
}

const io::MethodType kMethods[] = {io::MethodType::kMultiple,
                                   io::MethodType::kDataSieving,
                                   io::MethodType::kList};

// ---- Property: corrupt frames never corrupt results ----------------------

// For any seed, with frames being bit-flipped, truncated AND dropped in
// flight, all three access methods still return exactly the fault-free
// bytes once the client retries: a damaged frame is detected by a CRC32C
// check at the receiving end, surfaced as kCorruption and resent.
TEST(IntegrityProperty, ReadsByteIdenticalUnderFrameCorruption) {
  const ByteBuffer golden = GoldenContents();
  const auto patterns = WorkloadPatterns();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    testutil::InProcCluster cluster;
    {
      Client reliable = cluster.MakeClient();
      auto fd = reliable.Create("f", kStriping);
      ASSERT_TRUE(fd.ok());
      ASSERT_TRUE(reliable.Write(*fd, 0, golden).ok());
      ASSERT_TRUE(reliable.Close(*fd).ok());
    }
    fault::FaultConfig config;
    config.seed = seed;
    config.frame_corrupt_rate = 0.15;
    config.frame_truncate_rate = 0.10;
    config.drop_rate = 0.10;
    fault::FaultInjector injector(config);
    fault::FaultInjectingTransport chaos(cluster.transport.get(), &injector);
    Client client(&chaos, IntegrityClientOptions());
    auto fd = client.Open("f");
    ASSERT_TRUE(fd.ok()) << fd.status().message();
    for (io::MethodType type : kMethods) {
      auto method = io::MakeMethod(type);
      for (const io::AccessPattern& pattern : patterns) {
        ByteBuffer buffer(pattern.total_bytes());
        Status status = method->Read(client, *fd, pattern, buffer);
        ASSERT_TRUE(status.ok())
            << "seed " << seed << " method " << static_cast<int>(type) << ": "
            << status.message();
        EXPECT_EQ(buffer, Gather(golden, pattern));
      }
    }
    EXPECT_GT(injector.counters().frames_corrupted, 0u) << "seed " << seed;
    EXPECT_GT(injector.counters().frames_truncated, 0u) << "seed " << seed;
    EXPECT_GT(client.retry_counters().corruptions, 0u) << "seed " << seed;
    EXPECT_EQ(client.retry_counters().exhausted, 0u) << "seed " << seed;
  }
}

// Same property for writes, with iod crashes layered on top: a chaotic
// write run must leave exactly the file a fault-free run leaves.
TEST(IntegrityProperty, WritesByteIdenticalUnderCorruptionAndCrashes) {
  const auto patterns = WorkloadPatterns();
  for (std::uint64_t seed = 41; seed <= 43; ++seed) {
    for (io::MethodType type : kMethods) {
      testutil::InProcCluster reference_cluster;
      testutil::InProcCluster chaos_cluster;
      fault::FaultConfig config;
      config.seed = seed;
      config.frame_corrupt_rate = 0.12;
      config.frame_truncate_rate = 0.08;
      config.drop_rate = 0.10;
      config.crash_rate = 0.01;
      config.crash_down_calls = 2;
      fault::FaultInjector injector(config);
      fault::FaultInjectingTransport chaos(chaos_cluster.transport.get(),
                                           &injector);
      Client reference(reference_cluster.transport.get());
      Client::Options options = IntegrityClientOptions();
      options.retry.max_attempts = 25;  // ride out crash windows too
      Client chaotic(&chaos, options);
      for (Client* client : {&reference, &chaotic}) {
        auto fd = client->Create("f", kStriping);
        ASSERT_TRUE(fd.ok());
        auto method = io::MakeMethod(type);
        for (size_t r = 0; r < patterns.size(); ++r) {
          ByteBuffer payload(patterns[r].total_bytes());
          FillPattern(payload, 7 + r, 0);
          Status status = method->Write(*client, *fd, patterns[r], payload);
          ASSERT_TRUE(status.ok())
              << "seed " << seed << " method " << static_cast<int>(type)
              << ": " << status.message();
        }
        ASSERT_TRUE(client->Close(*fd).ok());
      }
      Client check_ref = reference_cluster.MakeClient();
      Client check_chaos = chaos_cluster.MakeClient();
      EXPECT_EQ(ReadWholeFile(check_ref, "f"), ReadWholeFile(check_chaos, "f"))
          << "seed " << seed << " method " << static_cast<int>(type);
    }
  }
}

// ---- Chaos acceptance: all three corruption faults at once ---------------

// Frame corruption, stored-chunk rot and torn writes all armed together.
// Every read either completes byte-identical to the reference (rot inside
// the journal's retention window is repaired on read; damaged frames are
// resent) or fails with a typed, expected Status — never silently wrong
// bytes.
TEST(IntegrityChaos, AllCorruptionFaultsYieldNoSilentWrongBytes) {
  const ByteBuffer golden = GoldenContents();
  const auto patterns = WorkloadPatterns();
  testutil::InProcCluster cluster;
  {
    Client reliable = cluster.MakeClient();
    auto fd = reliable.Create("f", kStriping);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(reliable.Write(*fd, 0, golden).ok());
    ASSERT_TRUE(reliable.Close(*fd).ok());
  }

  fault::FaultConfig config;
  config.seed = 71;
  config.frame_corrupt_rate = 0.10;
  config.frame_truncate_rate = 0.05;
  config.chunk_rot_rate = 0.10;
  config.torn_write_rate = 0.05;
  config.drop_rate = 0.05;
  fault::FaultInjector injector(config);
  for (auto& iod : cluster.iods) iod->set_fault_injector(&injector);
  fault::FaultInjectingTransport chaos(cluster.transport.get(), &injector);
  Client::Options options = IntegrityClientOptions();
  options.retry.max_attempts = 30;  // rides out torn-write down windows
  Client client(&chaos, options);

  auto fd = client.Open("f");
  ASSERT_TRUE(fd.ok());
  auto method = io::MakeMethod(io::MethodType::kList);
  int ok_reads = 0;
  for (int round = 0; round < 4; ++round) {
    for (const io::AccessPattern& pattern : patterns) {
      ByteBuffer buffer(pattern.total_bytes());
      Status status = method->Read(client, *fd, pattern, buffer);
      if (status.ok()) {
        ++ok_reads;
        ASSERT_EQ(buffer, Gather(golden, pattern)) << "round " << round;
      } else {
        EXPECT_TRUE(status.code() == ErrorCode::kCorruption ||
                    status.code() == ErrorCode::kDeadlineExceeded ||
                    status.code() == ErrorCode::kUnavailable)
            << status.message();
      }
    }
  }
  EXPECT_GT(ok_reads, 0);
  // Every class of corruption was actually exercised and detected.
  EXPECT_GT(injector.counters().chunks_rotted, 0u);
  EXPECT_GT(injector.counters().frames_corrupted, 0u);
  std::uint64_t detected = client.retry_counters().corruptions;
  for (auto& iod : cluster.iods) {
    detected += iod->stats().corruptions_detected;
  }
  EXPECT_GT(detected, 0u);

  // Chaotic writes on top: once they report success, a clean client must
  // read back exactly what was written.
  ByteBuffer expected = golden;
  for (size_t r = 0; r < patterns.size(); ++r) {
    ByteBuffer payload(patterns[r].total_bytes());
    FillPattern(payload, 80 + r, 0);
    Status status = method->Write(client, *fd, patterns[r], payload);
    ASSERT_TRUE(status.ok()) << "write " << r << ": " << status.message();
    size_t taken = 0;
    for (const Extent& region : patterns[r].file) {
      std::copy(payload.begin() + static_cast<std::ptrdiff_t>(taken),
                payload.begin() +
                    static_cast<std::ptrdiff_t>(taken + region.length),
                expected.begin() + static_cast<std::ptrdiff_t>(region.offset));
      taken += region.length;
    }
  }
  (void)client.Close(*fd);
  for (auto& iod : cluster.iods) iod->set_fault_injector(nullptr);
  Client reliable = cluster.MakeClient();
  EXPECT_EQ(ReadWholeFile(reliable, "f"), expected);
}

// ---- Torn write mid list-I/O: journal replay or rollback -----------------

// An iod killed partway through a multi-chunk list write leaves a write
// intent in its journal. On the next served request the store recovers:
// a durable intent is replayed in full, a torn journal record is rolled
// back — either way each daemon holds a checksum-consistent image of
// either the old or the new bytes, never a blend inside one intent.
TEST(IntegrityChaos, TornListWriteReplaysOrRollsBackOnRecovery) {
  testutil::InProcCluster cluster;
  const ByteBuffer golden = GoldenContents();
  {
    Client reliable = cluster.MakeClient();
    auto fd = reliable.Create("f", kStriping);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(reliable.Write(*fd, 0, golden).ok());
    ASSERT_TRUE(reliable.Close(*fd).ok());
  }

  // Every write is torn: the fail-fast client's multi-region list write
  // dies at the first server it reaches.
  fault::FaultConfig config;
  config.seed = 5;
  config.torn_write_rate = 1.0;
  fault::FaultInjector injector(config);
  for (auto& iod : cluster.iods) iod->set_fault_injector(&injector);

  Client fail_fast = cluster.MakeClient();
  auto fd = fail_fast.Open("f");
  ASSERT_TRUE(fd.ok());
  ByteBuffer rewrite(kFileBytes);
  FillPattern(rewrite, 123, 0);
  // A full-stripe write spans several chunks on every server.
  Status status = fail_fast.Write(*fd, 0, rewrite);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kUnavailable) << status.message();
  EXPECT_GT(injector.counters().torn_writes, 0u);

  for (auto& iod : cluster.iods) iod->set_fault_injector(nullptr);

  // The next clean read triggers recovery on every touched daemon; its
  // result must be checksum-consistent and hold, at every offset, either
  // the old or the new byte (per-daemon replay-or-rollback atomicity).
  Client reliable = cluster.MakeClient();
  ByteBuffer after = ReadWholeFile(reliable, "f");
  ASSERT_EQ(after.size(), golden.size());
  for (size_t i = 0; i < after.size(); ++i) {
    ASSERT_TRUE(after[i] == golden[i] || after[i] == rewrite[i])
        << "byte " << i << " is neither the old nor the new value";
  }
  std::uint64_t replays = 0, rollbacks = 0, torn = 0;
  for (auto& iod : cluster.iods) {
    replays += iod->store().integrity().journal_replays;
    rollbacks += iod->store().integrity().journal_rollbacks;
    torn += iod->stats().torn_writes;
  }
  EXPECT_GT(torn, 0u);
  EXPECT_GT(replays + rollbacks, 0u);

  // And the failure is fully repairable: a retried rewrite restores the
  // intended image.
  auto rfd = reliable.Open("f");
  ASSERT_TRUE(rfd.ok());
  ASSERT_TRUE(reliable.Write(*rfd, 0, rewrite).ok());
  ASSERT_TRUE(reliable.Close(*rfd).ok());
  EXPECT_EQ(ReadWholeFile(reliable, "f"), rewrite);
}

// ---- Scrub through the daemon -------------------------------------------

// An on-demand scrub walks every chunk, finds a rotted bit and repairs it
// from the retained journal history; the results land in the store's
// integrity counters.
TEST(IntegrityScrub, IodScrubDetectsAndRepairsRottedChunk) {
  testutil::InProcCluster cluster;
  const ByteBuffer golden = GoldenContents();
  Client client = cluster.MakeClient();
  auto fd = client.Create("f", kStriping);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(client.Write(*fd, 0, golden).ok());

  // A clean scrub scans every allocated chunk and finds nothing.
  std::uint64_t scanned = 0;
  for (auto& iod : cluster.iods) {
    LocalStore::ScrubStats stats = iod->Scrub();
    EXPECT_EQ(stats.corrupt_chunks, 0u);
    scanned += stats.chunks_scanned;
  }
  EXPECT_GT(scanned, 0u);

  // Rot one stored bit behind the store's back; scrub detects and repairs.
  IoDaemon& victim = *cluster.iods[3];
  ASSERT_TRUE(victim.store().CorruptStoredBit(12345));
  LocalStore::ScrubStats dirty = victim.Scrub();
  EXPECT_EQ(dirty.corrupt_chunks, 1u);
  EXPECT_EQ(dirty.repaired_chunks, 1u);
  EXPECT_EQ(victim.store().integrity().scrub_corruptions, 1u);
  EXPECT_EQ(victim.store().integrity().scrub_repairs, 1u);
  EXPECT_GT(victim.store().integrity().scrub_chunks_scanned, 0u);

  // The repaired image is the original one.
  ByteBuffer out(kFileBytes);
  ASSERT_TRUE(client.Read(*fd, 0, out).ok());
  EXPECT_EQ(out, golden);
  ASSERT_TRUE(client.Close(*fd).ok());
}

// ---- Determinism ---------------------------------------------------------

struct CorruptionRun {
  std::string events;
  sim::FaultCounters counters;
  ByteBuffer file;
};

CorruptionRun RunCorruptionWorkload(std::uint64_t seed) {
  testutil::InProcCluster cluster;
  fault::FaultConfig config;
  config.seed = seed;
  config.frame_corrupt_rate = 0.10;
  config.frame_truncate_rate = 0.05;
  config.chunk_rot_rate = 0.10;
  config.torn_write_rate = 0.03;
  config.drop_rate = 0.10;
  fault::FaultInjector injector(config);
  for (auto& iod : cluster.iods) iod->set_fault_injector(&injector);
  fault::FaultInjectingTransport chaos(cluster.transport.get(), &injector);
  Client::Options options = IntegrityClientOptions();
  options.retry.max_attempts = 30;
  Client client(&chaos, options);

  auto fd = client.Create("f", kStriping);
  EXPECT_TRUE(fd.ok());
  const auto patterns = WorkloadPatterns();
  auto method = io::MakeMethod(io::MethodType::kList);
  for (size_t r = 0; r < patterns.size(); ++r) {
    ByteBuffer payload(patterns[r].total_bytes());
    FillPattern(payload, r, 0);
    EXPECT_TRUE(method->Write(client, *fd, patterns[r], payload).ok());
    ByteBuffer back(patterns[r].total_bytes());
    EXPECT_TRUE(method->Read(client, *fd, patterns[r], back).ok());
    EXPECT_EQ(back, payload);
  }
  EXPECT_TRUE(client.Close(*fd).ok());

  CorruptionRun run;
  run.events = injector.SerializeEvents();
  run.counters = injector.counters();
  for (auto& iod : cluster.iods) iod->set_fault_injector(nullptr);
  Client reliable = cluster.MakeClient();
  run.file = ReadWholeFile(reliable, "f");
  return run;
}

// Same seed, same workload: identical corruption schedule (event for
// event, including the chosen bits and truncation points), identical
// counters, identical final bytes.
TEST(IntegrityDeterminism, SameSeedReproducesCorruptionScheduleAndBytes) {
  CorruptionRun first = RunCorruptionWorkload(61);
  CorruptionRun second = RunCorruptionWorkload(61);
  EXPECT_GT(first.counters.frames_corrupted + first.counters.frames_truncated,
            0u);
  EXPECT_GT(first.counters.chunks_rotted + first.counters.torn_writes, 0u);
  EXPECT_EQ(first.events, second.events);
  EXPECT_TRUE(first.counters == second.counters);
  EXPECT_EQ(first.file, second.file);

  CorruptionRun other = RunCorruptionWorkload(62);
  EXPECT_NE(first.events, other.events);  // seeds select distinct schedules
  EXPECT_EQ(first.file, other.file);      // but never distinct contents
}

// ---- Trace replay and simulator integration ------------------------------

// Chaos trace replay exposes the client-side corruption tally, and the
// replayed file matches a fault-free replay exactly.
TEST(TraceIntegrity, ChaosReplayCountsDetectedCorruptions) {
  trace::Trace trace = trace::CyclicTrace(128 * 1024, 4, 16, IoOp::kWrite);

  testutil::InProcCluster clean_cluster;
  auto clean = trace::Replay(*clean_cluster.transport, trace, {});
  ASSERT_TRUE(clean.ok()) << clean.status().message();
  EXPECT_EQ(clean->corruptions_detected, 0u);

  testutil::InProcCluster chaos_cluster;
  fault::FaultConfig config;
  config.seed = 29;
  config.frame_corrupt_rate = 0.20;
  fault::FaultInjector injector(config);
  trace::ReplayOptions chaos_options;
  chaos_options.injector = &injector;
  chaos_options.retry.max_attempts = 16;
  chaos_options.retry.initial_backoff = microseconds{1};
  chaos_options.retry.max_backoff = microseconds{64};
  auto chaotic = trace::Replay(*chaos_cluster.transport, trace, chaos_options);
  ASSERT_TRUE(chaotic.ok()) << chaotic.status().message();
  EXPECT_GT(chaotic->faults.frames_corrupted, 0u);
  EXPECT_GT(chaotic->corruptions_detected, 0u);

  Client clean_reader = clean_cluster.MakeClient();
  Client chaos_reader = chaos_cluster.MakeClient();
  auto cfd = clean_reader.Open("/trace/replay");
  auto xfd = chaos_reader.Open("/trace/replay");
  ASSERT_TRUE(cfd.ok());
  ASSERT_TRUE(xfd.ok());
  auto cmeta = clean_reader.Stat(*cfd);
  ASSERT_TRUE(cmeta.ok());
  ByteBuffer clean_bytes(cmeta->size);
  ByteBuffer chaos_bytes(cmeta->size);
  ASSERT_TRUE(clean_reader.Read(*cfd, 0, clean_bytes).ok());
  ASSERT_TRUE(chaos_reader.Read(*xfd, 0, chaos_bytes).ok());
  EXPECT_EQ(clean_bytes, chaos_bytes);
}

// In the simulator, corrupted and truncated frames cost a retransmission
// of virtual time; the run stays bit-reproducible from the seed.
TEST(SimIntegrity, CorruptFramesCostRetransmitsDeterministically) {
  workloads::CyclicConfig wconfig;
  wconfig.total_bytes = 1 * kMiB;
  wconfig.clients = 4;
  wconfig.accesses_per_client = 64;
  simcluster::SimWorkload workload;
  workload.file_regions = [wconfig](Rank r) {
    return std::make_unique<simcluster::VectorStream>(
        workloads::CyclicPattern(wconfig, r).file);
  };

  simcluster::SimClusterConfig clean = simcluster::ChibaCityConfig(4);
  auto baseline = simcluster::RunSimWorkload(clean, io::MethodType::kList,
                                             IoOp::kRead, workload);
  EXPECT_EQ(baseline.faults.total(), 0u);

  simcluster::SimClusterConfig noisy = clean;
  noisy.fault.seed = 19;
  noisy.fault.frame_corrupt_rate = 0.08;
  noisy.fault.frame_truncate_rate = 0.04;
  auto first = simcluster::RunSimWorkload(noisy, io::MethodType::kList,
                                          IoOp::kRead, workload);
  auto second = simcluster::RunSimWorkload(noisy, io::MethodType::kList,
                                           IoOp::kRead, workload);
  EXPECT_GT(first.faults.frames_corrupted, 0u);
  EXPECT_GT(first.faults.frames_truncated, 0u);
  EXPECT_GT(first.faults.retransmits, 0u);
  EXPECT_TRUE(first.faults == second.faults);
  EXPECT_EQ(first.io_seconds, second.io_seconds);
  EXPECT_GT(first.io_seconds, baseline.io_seconds);
}

}  // namespace
}  // namespace pvfs
