// Server-side fragment scheduling and admission control
// (docs/server-scheduling.md):
//
//   * BuildRunPlan: sorted-merge run construction, scatter/gather maps.
//   * IoDaemon: `local_accesses` counts offset-sorted runs (the cyclic
//     over-count regression), and run-plan execution moves the same bytes
//     as a per-fragment reference store.
//   * Sim/executed agreement: Distribution::ServerLocalRuns and the iod
//     plan count the same runs.
//   * Client determinism: WriteChunk fans out in ascending server order;
//     serial and parallel fan-out contact the same servers on failure.
//   * AdmissionController: bounded depth, busy shedding, typed kBusy
//     feeding the client retry loop; threaded-cluster chaos under load
//     (run under TSan by the tsan preset / CI job).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "common/wire.hpp"
#include "net/socket_transport.hpp"
#include "pvfs/admission.hpp"
#include "pvfs/client.hpp"
#include "pvfs/scheduler.hpp"
#include "runtime/threaded_cluster.hpp"
#include "test_cluster.hpp"

namespace pvfs {
namespace {

using testutil::InProcCluster;

// ---- BuildRunPlan ----------------------------------------------------------

Fragment Frag(FileOffset local, ByteCount length, ByteCount pos = 0) {
  return Fragment{0, local, length, pos};
}

TEST(RunPlan, EmptyFragments) {
  RunPlan plan = BuildRunPlan({});
  EXPECT_TRUE(plan.runs.empty());
  EXPECT_TRUE(plan.run_of.empty());
  EXPECT_EQ(plan.total_bytes, 0u);
}

TEST(RunPlan, AdjacentFragmentsMergeIntoOneRun) {
  std::vector<Fragment> frags{Frag(0, 4), Frag(4, 4), Frag(8, 4)};
  RunPlan plan = BuildRunPlan(frags);
  ASSERT_EQ(plan.runs.size(), 1u);
  EXPECT_EQ(plan.runs[0].offset, 0u);
  EXPECT_EQ(plan.runs[0].length, 12u);
  EXPECT_EQ(plan.total_bytes, 12u);
  EXPECT_EQ(plan.run_of, (std::vector<std::uint32_t>{0, 0, 0}));
}

TEST(RunPlan, DisjointFragmentsStayDistinctAndSorted) {
  std::vector<Fragment> frags{Frag(100, 4), Frag(0, 4)};
  RunPlan plan = BuildRunPlan(frags);
  ASSERT_EQ(plan.runs.size(), 2u);
  EXPECT_EQ(plan.runs[0].offset, 0u);
  EXPECT_EQ(plan.runs[1].offset, 100u);
  EXPECT_EQ(plan.runs[0].buf_offset, 0u);
  EXPECT_EQ(plan.runs[1].buf_offset, 4u);
  // run_of indexes the ORIGINAL order: fragment 0 (offset 100) is run 1.
  EXPECT_EQ(plan.run_of, (std::vector<std::uint32_t>{1, 0}));
}

TEST(RunPlan, CyclicLogicalWalkCollapsesToOneRun) {
  // The logical walk revisits lower local offsets (0, 4, 2, 6): in
  // logical order that is 4 "runs", sorted it is one contiguous [0, 8).
  std::vector<Fragment> frags{Frag(0, 2), Frag(4, 2), Frag(2, 2),
                              Frag(6, 2)};
  RunPlan plan = BuildRunPlan(frags);
  ASSERT_EQ(plan.runs.size(), 1u);
  EXPECT_EQ(plan.runs[0].offset, 0u);
  EXPECT_EQ(plan.runs[0].length, 8u);
}

TEST(RunPlan, OverlappingFragmentsExtendTheRun) {
  std::vector<Fragment> frags{Frag(0, 8), Frag(4, 8), Frag(20, 2)};
  RunPlan plan = BuildRunPlan(frags);
  ASSERT_EQ(plan.runs.size(), 2u);
  EXPECT_EQ(plan.runs[0].offset, 0u);
  EXPECT_EQ(plan.runs[0].length, 12u);  // [0,8) u [4,12)
  EXPECT_EQ(plan.runs[1].offset, 20u);
  EXPECT_EQ(plan.total_bytes, 14u);
}

TEST(RunPlan, RandomFragmentsCoverEveryByteOfEveryFragment) {
  SplitMix64 rng(2024);
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<Fragment> frags;
    std::uint64_t n = rng.Uniform(1, 20);
    for (std::uint64_t i = 0; i < n; ++i) {
      frags.push_back(Frag(rng.Uniform(0, 256), rng.Uniform(1, 32)));
    }
    RunPlan plan = BuildRunPlan(frags);
    ASSERT_EQ(plan.run_of.size(), frags.size());
    ByteCount sum = 0;
    FileOffset prev_end = 0;
    for (std::size_t r = 0; r < plan.runs.size(); ++r) {
      if (r > 0) {
        // Strictly separated and ascending: merged plans never touch.
        EXPECT_GT(plan.runs[r].offset, prev_end);
      }
      EXPECT_EQ(plan.runs[r].buf_offset, sum);
      sum += plan.runs[r].length;
      prev_end = plan.runs[r].offset + plan.runs[r].length;
    }
    EXPECT_EQ(plan.total_bytes, sum);
    for (std::size_t i = 0; i < frags.size(); ++i) {
      const ScheduledRun& run = plan.runs.at(plan.run_of[i]);
      EXPECT_GE(frags[i].local_offset, run.offset);
      EXPECT_LE(frags[i].local_offset + frags[i].length,
                run.offset + run.length);
    }
  }
}

// ---- IoDaemon accounting and scheduled execution ---------------------------

// Cyclic pattern whose logical walk revisits lower local offsets on each
// server: striping {pcount 2, ssize 4}, regions hitting stripes 0,2,1,3
// of server 0 out of order.
const Striping kTinyStriping{0, 2, 4};
const ExtentList kCyclicRegions{{0, 2}, {8, 2}, {2, 2}, {10, 2}};

IoRequest CyclicRequest(IoOp op) {
  IoRequest req;
  req.handle = 7;
  req.striping = kTinyStriping;
  req.server_index = 0;
  req.op = op;
  req.regions = kCyclicRegions;
  return req;
}

TEST(IoDaemonScheduling, LocalAccessesCountOffsetSortedRuns) {
  // All four fragments of server 0 sit at local offsets 0,4,2,6 — one
  // contiguous [0,8) once sorted. The logical-order count (the old bug)
  // would report 4.
  IoDaemon iod(0);
  IoRequest req = CyclicRequest(IoOp::kWrite);
  req.payload.resize(8);
  ASSERT_TRUE(iod.Serve(req).ok());
  EXPECT_EQ(iod.stats().local_accesses, 1u);
  // The daemon executes the plan: one store op per run.
  EXPECT_EQ(iod.stats().store_ops, iod.stats().local_accesses);

  auto read = iod.Serve(CyclicRequest(IoOp::kRead));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(iod.stats().local_accesses, 2u);
  EXPECT_EQ(iod.stats().store_ops, iod.stats().local_accesses);
}

TEST(IoDaemonScheduling, SimRunsAgreeWithExecutedAccounting) {
  Distribution dist(kTinyStriping);
  std::vector<Fragment> sim_runs = dist.ServerLocalRuns(0, kCyclicRegions);
  IoDaemon iod(0);
  IoRequest req = CyclicRequest(IoOp::kWrite);
  req.payload.resize(8);
  ASSERT_TRUE(iod.Serve(req).ok());
  EXPECT_EQ(iod.stats().local_accesses, sim_runs.size());
  ASSERT_EQ(sim_runs.size(), 1u);
  EXPECT_EQ(sim_runs[0].local_offset, 0u);
  EXPECT_EQ(sim_runs[0].length, 8u);
}

TEST(IoDaemonScheduling, ScheduledDaemonIssuesOneStoreOpPerRun) {
  IoDaemon iod(0);
  IoRequest req = CyclicRequest(IoOp::kWrite);
  req.payload.resize(8);
  FillPattern(req.payload, 3, 0);
  ASSERT_TRUE(iod.Serve(req).ok());
  EXPECT_EQ(iod.stats().local_accesses, 1u);
  EXPECT_EQ(iod.stats().store_ops, 1u);

  auto read = iod.Serve(CyclicRequest(IoOp::kRead));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(iod.stats().store_ops, 2u);
}

/// Test oracle: the 2002 per-fragment iod. It writes and reads a plain
/// LocalStore one fragment at a time, in logical order.
struct PerFragmentReference {
  LocalStore store;
  std::uint64_t fragments = 0;  // store accesses made

  void Write(FileHandle handle, const Striping& striping, ServerId server,
             std::span<const Extent> regions,
             std::span<const std::byte> payload) {
    ByteCount cursor = 0;
    for (const Fragment& f :
         Distribution(striping).ServerFragments(server, regions)) {
      store.Write(handle, f.local_offset, payload.subspan(cursor, f.length));
      cursor += f.length;
      ++fragments;
    }
  }

  ByteBuffer Read(FileHandle handle, const Striping& striping,
                  ServerId server, std::span<const Extent> regions) {
    ByteBuffer out;
    for (const Fragment& f :
         Distribution(striping).ServerFragments(server, regions)) {
      ByteBuffer piece(f.length);
      EXPECT_TRUE(store.Read(handle, f.local_offset, piece).ok());
      out.insert(out.end(), piece.begin(), piece.end());
      ++fragments;
    }
    return out;
  }
};

TEST(IoDaemonScheduling, ScheduledAndUnscheduledMoveIdenticalBytes) {
  // Random list requests against the daemon and the per-fragment
  // reference: write payloads and read-back payloads must be
  // byte-identical — the run plan's scatter/gather must keep the wire
  // layout of per-fragment execution, overlaps included.
  SplitMix64 rng(7);
  IoDaemon iod(0);
  PerFragmentReference reference;

  for (int iter = 0; iter < 100; ++iter) {
    Striping striping{0, static_cast<std::uint32_t>(rng.Uniform(1, 4)),
                      1u << rng.Uniform(2, 6)};
    Distribution dist(striping);
    ExtentList regions;
    std::uint64_t n = rng.Uniform(1, 10);
    for (std::uint64_t i = 0; i < n; ++i) {
      regions.push_back(
          Extent{rng.Uniform(0, 512), rng.Uniform(1, 64)});
    }
    ByteCount mine = dist.BytesOnServer(0, regions);
    if (mine == 0) continue;

    IoRequest write;
    write.handle = 10 + iter;
    write.striping = striping;
    write.server_index = 0;
    write.op = IoOp::kWrite;
    write.regions = regions;
    write.payload.resize(mine);
    FillPattern(write.payload, 1000 + iter, 0);

    ASSERT_TRUE(iod.Serve(write).ok());
    reference.Write(write.handle, striping, 0, regions, write.payload);

    IoRequest read = write;
    read.op = IoOp::kRead;
    read.payload.clear();
    auto got = iod.Serve(read);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->payload, reference.Read(read.handle, striping, 0, regions))
        << "iter " << iter;
  }
  // One store access per coalesced run, never more than the reference's
  // one per fragment.
  EXPECT_EQ(iod.stats().store_ops, iod.stats().local_accesses);
  EXPECT_LE(iod.stats().store_ops, reference.fragments);
}

TEST(IoDaemonScheduling, EndToEndListIoMatchesAcrossSchedulingModes) {
  // Full client -> cluster round trips, cyclic pattern: every daemon's
  // store must hold byte-identical data to a per-fragment reference fed
  // the same regions, and the client must read its buffer back.
  constexpr ServerId kServers = 4;
  const Striping striping{0, kServers, 64};
  InProcCluster cluster(kServers);
  Client client = cluster.MakeClient();
  auto fd = client.Create("f", striping);
  ASSERT_TRUE(fd.ok());
  // 96 small adjacent records: every 64-region chunk tiles [0, 1024),
  // so each server's 16 fragments per chunk collapse to one local run.
  ExtentList file;
  for (std::uint64_t i = 0; i < 96; ++i) file.push_back({i * 16, 16});
  ByteBuffer buffer(96 * 16);
  FillPattern(buffer, 42, 0);
  ExtentList mem{{0, buffer.size()}};
  ASSERT_TRUE(client.WriteList(*fd, mem, buffer, file).ok());

  ByteBuffer back(buffer.size(), std::byte{0});
  ASSERT_TRUE(client.ReadList(*fd, mem, back, file).ok());
  EXPECT_EQ(back, buffer);

  auto meta = client.Stat(*fd);
  ASSERT_TRUE(meta.ok());
  const FileHandle handle = meta->handle;
  std::uint64_t ops = 0, runs = 0, fragments = 0;
  for (ServerId s = 0; s < kServers; ++s) {
    PerFragmentReference reference;
    ByteBuffer payload;
    for (const Fragment& f : Distribution(striping).ServerFragments(s, file)) {
      payload.insert(payload.end(), buffer.begin() + f.logical_pos,
                     buffer.begin() + f.logical_pos + f.length);
    }
    reference.Write(handle, striping, s, file, payload);
    fragments += reference.fragments;

    const LocalStore& store = cluster.iods[s]->store();
    ASSERT_EQ(store.SizeOf(handle), reference.store.SizeOf(handle));
    ByteBuffer got(store.SizeOf(handle)), want(got.size());
    ASSERT_TRUE(cluster.iods[s]->store().Read(handle, 0, got).ok());
    ASSERT_TRUE(reference.store.Read(handle, 0, want).ok());
    EXPECT_EQ(got, want) << "server " << s;
    ops += cluster.iods[s]->stats().store_ops;
    runs += cluster.iods[s]->stats().local_accesses;
  }
  // The daemons executed one contiguous access per coalesced run — far
  // fewer than the reference's one per fragment (write and read).
  EXPECT_EQ(ops, runs);
  EXPECT_LT(ops, 2 * fragments);
}

// ---- Client fan-out determinism --------------------------------------------

/// Transport wrapper recording the iod contact order and optionally
/// failing specific servers with a transport-level error.
class RecordingTransport final : public Transport {
 public:
  explicit RecordingTransport(Transport* inner) : inner_(inner) {}

  Result<std::vector<std::byte>> Call(
      const Endpoint& dest, std::span<const std::byte> request) override {
    if (!dest.is_manager) {
      std::lock_guard lock(mutex_);
      contacted_.push_back(dest.server);
      if (fail_server_ && *fail_server_ == dest.server) {
        return Unavailable("injected transport failure");
      }
    }
    return inner_->Call(dest, request);
  }

  std::uint32_t server_count() const override {
    return inner_->server_count();
  }

  void FailServer(ServerId s) { fail_server_ = s; }
  std::vector<ServerId> contacted() {
    std::lock_guard lock(mutex_);
    return contacted_;
  }
  void Reset() {
    std::lock_guard lock(mutex_);
    contacted_.clear();
  }

 private:
  Transport* inner_;
  std::mutex mutex_;
  std::vector<ServerId> contacted_;
  std::optional<ServerId> fail_server_;
};

TEST(ClientDeterminism, WriteFanoutContactsServersInAscendingOrder) {
  InProcCluster cluster(8);
  RecordingTransport recorder(cluster.transport.get());
  Client client(&recorder, kMaxListRegions);
  auto fd = client.Create("f", Striping{0, 8, 16});
  ASSERT_TRUE(fd.ok());
  recorder.Reset();

  // One chunk spanning all 8 servers.
  ByteBuffer buffer(8 * 16);
  FillPattern(buffer, 5, 0);
  ASSERT_TRUE(client.Write(*fd, 0, buffer).ok());

  std::vector<ServerId> order = recorder.contacted();
  ASSERT_EQ(order.size(), 8u);
  for (size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i) << "serial write fan-out must be sorted by "
                              "server id, independent of hash order";
  }
}

TEST(ClientDeterminism, SerialAndParallelFanoutContactAllServersOnFailure) {
  // With server 2 failing, BOTH fan-out modes must still contact every
  // involved server (identical partial-write footprint) and surface the
  // same first error.
  for (bool parallel : {false, true}) {
    InProcCluster cluster(4);
    RecordingTransport recorder(cluster.transport.get());
    Client::Options options;
    options.parallel_fanout = parallel;
    Client client(&recorder, options);
    auto fd = client.Create("f", Striping{0, 4, 16});
    ASSERT_TRUE(fd.ok());
    recorder.FailServer(2);
    recorder.Reset();

    ByteBuffer buffer(4 * 16);
    FillPattern(buffer, 9, 0);
    Status write = client.Write(*fd, 0, buffer);
    EXPECT_EQ(write.code(), ErrorCode::kUnavailable)
        << "parallel=" << parallel;

    std::vector<ServerId> order = recorder.contacted();
    std::sort(order.begin(), order.end());
    EXPECT_EQ(order, (std::vector<ServerId>{0, 1, 2, 3}))
        << "parallel=" << parallel
        << ": every server must be contacted even after a failure";

    // The three healthy servers hold their stripes in both modes.
    for (ServerId s : {0u, 1u, 3u}) {
      EXPECT_EQ(cluster.iods[s]->stats().bytes_written, 16u)
          << "parallel=" << parallel << " server " << s;
    }
  }
}

// ---- Admission control -----------------------------------------------------

TEST(Admission, BoundedDepthShedsAndRecovers) {
  obs::Registry registry;
  AdmissionController admission(3, 2, &registry);
  AdmissionController::Slot a, b, c;
  EXPECT_TRUE(admission.TryAdmit(a));
  EXPECT_TRUE(admission.TryAdmit(b));
  EXPECT_EQ(admission.depth(), 2);
  EXPECT_FALSE(admission.TryAdmit(c));  // full
  EXPECT_EQ(admission.rejected(), 1u);
  EXPECT_EQ(admission.depth(), 2);

  admission.BeginService(a);
  admission.Finish(a);
  EXPECT_EQ(admission.depth(), 1);
  EXPECT_TRUE(admission.TryAdmit(c));  // slot freed
  EXPECT_EQ(admission.admitted(), 3u);

  // Instruments live in the provided registry, labelled by server.
  EXPECT_EQ(registry
                .Gauge("iod.admission.queue_depth", {{"server", "3"}})
                .value(),
            2);
}

TEST(Admission, UnboundedDepthNeverSheds) {
  obs::Registry registry;
  AdmissionController admission(0, 0, &registry);
  std::vector<AdmissionController::Slot> slots(64);
  for (auto& slot : slots) EXPECT_TRUE(admission.TryAdmit(slot));
  EXPECT_EQ(admission.rejected(), 0u);
  EXPECT_EQ(admission.depth(), 64);
}

TEST(Admission, SealedBusyResponseDecodesAsRetryableBusy) {
  std::vector<std::byte> frame = SealedBusyResponse(5);
  auto payload = OpenFrame(frame);
  ASSERT_TRUE(payload.ok());
  auto resp = DecodeResponse(*payload);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status.code(), ErrorCode::kBusy);
  EXPECT_TRUE(IsRetryable(resp->status.code()));
  EXPECT_NE(resp->status.message().find("iod 5"), std::string::npos);
}

/// Transport that answers the first `busy_count` iod calls with a sealed
/// busy frame, then delegates — a deterministic overloaded server.
class BusyThenOkTransport final : public Transport {
 public:
  BusyThenOkTransport(Transport* inner, int busy_count)
      : inner_(inner), remaining_(busy_count) {}

  Result<std::vector<std::byte>> Call(
      const Endpoint& dest, std::span<const std::byte> request) override {
    if (!dest.is_manager &&
        remaining_.fetch_sub(1, std::memory_order_relaxed) > 0) {
      return SealedBusyResponse(dest.server);
    }
    return inner_->Call(dest, request);
  }

  std::uint32_t server_count() const override {
    return inner_->server_count();
  }

 private:
  Transport* inner_;
  std::atomic<int> remaining_;
};

TEST(Admission, ClientRetriesThroughBusyAndCountsIt) {
  InProcCluster cluster(2);
  BusyThenOkTransport transport(cluster.transport.get(), 3);
  Client::Options options;
  options.retry.max_attempts = 10;
  options.retry.initial_backoff = std::chrono::microseconds(1);
  options.retry.max_backoff = std::chrono::microseconds(50);
  Client client(&transport, options);
  auto fd = client.Create("f", Striping{0, 2, 32});
  ASSERT_TRUE(fd.ok());

  ByteBuffer buffer(64);
  FillPattern(buffer, 11, 0);
  ASSERT_TRUE(client.Write(*fd, 0, buffer).ok());
  ByteBuffer back(64, std::byte{0});
  ASSERT_TRUE(client.Read(*fd, 0, back).ok());
  EXPECT_EQ(back, buffer);

  Client::RetryCounters retry = client.retry_counters();
  EXPECT_EQ(retry.busy_rejections, 3u);
  EXPECT_GE(retry.retries, 3u);
  EXPECT_EQ(retry.exhausted, 0u);
}

TEST(Admission, FailFastClientSurfacesBusy) {
  InProcCluster cluster(2);
  BusyThenOkTransport transport(cluster.transport.get(), 1);
  Client client(&transport, kMaxListRegions);  // max_attempts = 1
  auto fd = client.Create("f", Striping{0, 2, 32});
  ASSERT_TRUE(fd.ok());
  ByteBuffer buffer(16);
  EXPECT_EQ(client.Write(*fd, 0, buffer).code(), ErrorCode::kBusy);
}

// ---- Bounded queues on the real transports ---------------------------------

TEST(Admission, SocketServerShedsWhileServiceIsBlocked) {
  // A SocketServer whose service blocks until released: the first
  // connection occupies the single admission slot, so a second
  // connection's request is answered busy — deterministically.
  obs::Registry registry;
  AdmissionController admission(0, 1, &registry);
  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> in_service{0};

  auto server_result = net::SocketServer::Start(
      0,
      [&](std::span<const std::byte>) {
        in_service.fetch_add(1);
        std::unique_lock lock(mutex);
        cv.wait(lock, [&] { return release; });
        return SealFrame(EncodeResponse(Status::Ok(), {}));
      },
      &admission, 0);
  ASSERT_TRUE(server_result.ok());
  auto& server = *server_result;

  net::SocketAddress address{"127.0.0.1", server->port()};
  net::SocketTransport first({"127.0.0.1", 0}, {address});
  net::SocketTransport second({"127.0.0.1", 0}, {address});

  std::vector<std::byte> ping = SealFrame(EncodeResponse(Status::Ok(), {}));
  std::thread blocked([&] {
    auto result = first.Call(Endpoint::Iod(0), ping);
    EXPECT_TRUE(result.ok());
  });
  // Wait until the first request is inside the service function (slot
  // held), then the second request must come back busy.
  while (in_service.load() == 0) std::this_thread::yield();

  auto shed = second.Call(Endpoint::Iod(0), ping);
  ASSERT_TRUE(shed.ok());
  auto payload = OpenFrame(*shed);
  ASSERT_TRUE(payload.ok());
  auto resp = DecodeResponse(*payload);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status.code(), ErrorCode::kBusy);
  EXPECT_EQ(admission.rejected(), 1u);

  {
    std::lock_guard lock(mutex);
    release = true;
  }
  cv.notify_all();
  blocked.join();
  EXPECT_EQ(admission.admitted(), 1u);

  // With the slot free again, the shed client's resend succeeds.
  auto retried = second.Call(Endpoint::Iod(0), ping);
  ASSERT_TRUE(retried.ok());
  auto retried_payload = OpenFrame(*retried);
  ASSERT_TRUE(retried_payload.ok());
  EXPECT_TRUE(DecodeResponse(*retried_payload)->status.ok());
}

TEST(AdmissionChaos, ThreadedClusterBoundedQueueUnderLoad) {
  // The tentpole's concurrency stress (and the TSan target): a bounded
  // per-iod queue, many client threads, every operation retrying through
  // busy/backoff — all data must land intact and every shed must be
  // accounted.
  constexpr std::uint32_t kServers = 2;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 12;
  constexpr ByteCount kBytesPerOp = 4096;

  ServerConfig config;
  config.max_queue_depth = 1;
  obs::Registry registry;
  runtime::ThreadedCluster cluster(kServers, config, &registry);

  Client::Options options;
  options.parallel_fanout = true;
  options.retry.max_attempts = 10'000;  // never exhaust: shed != fail
  options.retry.initial_backoff = std::chrono::microseconds(1);
  options.retry.max_backoff = std::chrono::microseconds(100);

  Client setup(&cluster.transport(), options);
  auto fd = setup.Create("chaos", Striping{0, kServers, 512});
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(setup.Close(*fd).ok());

  std::atomic<int> failures{0};
  std::barrier sync(kThreads);
  {
    std::vector<std::jthread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        Client::Options per_thread = options;
        per_thread.retry.jitter_seed = 100 + t;
        Client client(&cluster.transport(), per_thread);
        auto my_fd = client.Open("chaos");
        if (!my_fd.ok()) {
          ++failures;
          return;
        }
        sync.arrive_and_wait();  // maximum collision pressure
        ByteBuffer data(kBytesPerOp);
        ByteBuffer back(kBytesPerOp);
        for (int op = 0; op < kOpsPerThread; ++op) {
          FileOffset at = static_cast<FileOffset>(t) * kOpsPerThread *
                              kBytesPerOp +
                          static_cast<FileOffset>(op) * kBytesPerOp;
          FillPattern(data, 1000 + t * kOpsPerThread + op, at);
          if (!client.Write(*my_fd, at, data).ok() ||
              !client.Read(*my_fd, at, back).ok() || back != data) {
            ++failures;
            return;
          }
        }
      });
    }
  }
  ASSERT_EQ(failures.load(), 0);

  // Every thread's bytes are readable afterwards.
  Client verify(&cluster.transport(), options);
  auto vfd = verify.Open("chaos");
  ASSERT_TRUE(vfd.ok());
  ByteBuffer back(kBytesPerOp);
  for (int t = 0; t < kThreads; ++t) {
    for (int op = 0; op < kOpsPerThread; ++op) {
      FileOffset at = static_cast<FileOffset>(t) * kOpsPerThread *
                          kBytesPerOp +
                      static_cast<FileOffset>(op) * kBytesPerOp;
      ASSERT_TRUE(verify.Read(*vfd, at, back).ok());
      EXPECT_FALSE(
          FindPatternMismatch(back, 1000 + t * kOpsPerThread + op, at)
              .has_value())
          << "thread " << t << " op " << op;
    }
  }

  // With depth 1 and 8 threads fanning out in parallel, shedding is
  // effectively certain; every shed must appear in BOTH the server's
  // rejected counter and some client's busy counter (they saw the same
  // frames), and depth gauges must return to zero.
  std::uint64_t rejected = 0;
  for (ServerId s = 0; s < kServers; ++s) {
    rejected += cluster.admission(s).rejected();
    EXPECT_EQ(cluster.admission(s).depth(), 0)
        << "server " << s << " queue not drained";
  }
  EXPECT_GT(rejected, 0u) << "bounded queue never shed under 8-thread load";
}

}  // namespace
}  // namespace pvfs
