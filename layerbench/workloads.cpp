#include "workloads.hpp"

#include <chrono>
#include <cstring>
#include <string>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "workloads/cyclic.hpp"
#include "workloads/flash.hpp"
#include "workloads/tiledviz.hpp"

namespace layerbench {

using pvfs::ByteCount;
using pvfs::Extent;
using pvfs::ExtentList;
using pvfs::Status;

std::uint32_t Deployment::server_count() const {
  return transport->server_count();
}

pvfs::IoDaemon& Deployment::iod(pvfs::ServerId s) {
  return cluster ? cluster->iod(s) : *daemons[s];
}

Deployment StartInProc(std::uint32_t servers) {
  Deployment dep;
  dep.manager = std::make_unique<pvfs::Manager>(servers);
  std::vector<pvfs::IoDaemon*> ptrs;
  for (pvfs::ServerId s = 0; s < servers; ++s) {
    dep.daemons.push_back(std::make_unique<pvfs::IoDaemon>(s));
    ptrs.push_back(dep.daemons.back().get());
  }
  dep.inner = std::make_unique<pvfs::InProcTransport>(dep.manager.get(),
                                                      std::move(ptrs));
  dep.transport = std::make_unique<LedgerTransport>(dep.inner.get());
  dep.client = std::make_unique<pvfs::Client>(dep.transport.get());
  return dep;
}

Status Workload::Setup() {
  dep_.reset();  // stop the previous cluster before timing a new one
  auto started = Start();
  if (!started.ok()) return started.status();
  dep_ = std::make_unique<Deployment>(std::move(started).value());
  PVFS_RETURN_IF_ERROR(Populate(*dep_));
  return WarmUp();
}

namespace {

/// A TCP cluster of `servers` iods at the default ServerConfig, with its
/// admission and transport instruments in a private registry.
pvfs::Result<Deployment> StartTcp(std::uint32_t servers,
                                  const pvfs::net::ClientConfig& config) {
  Deployment dep;
  dep.registry = std::make_unique<pvfs::obs::Registry>();
  auto cluster = pvfs::net::SocketCluster::Start(servers, pvfs::ServerConfig{},
                                                 0, dep.registry.get());
  if (!cluster.ok()) return cluster.status();
  dep.cluster = std::move(cluster).value();
  dep.inner = dep.cluster->Connect(config);
  dep.transport = std::make_unique<LedgerTransport>(dep.inner.get());
  dep.client = std::make_unique<pvfs::Client>(dep.transport.get());
  return dep;
}

std::uint64_t Mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  pvfs::SplitMix64 rng(seed ^ (a * 0x9E3779B97F4A7C15ull) ^
                       (b * 0xC2B2AE3D27D4EB4Full));
  return rng.Next();
}

void FillRandom(std::span<std::byte> out, std::uint64_t seed) {
  pvfs::SplitMix64 rng(seed);
  size_t i = 0;
  for (; i + 8 <= out.size(); i += 8) {
    const std::uint64_t v = rng.Next();
    std::memcpy(out.data() + i, &v, 8);
  }
  if (i < out.size()) {
    const std::uint64_t v = rng.Next();
    std::memcpy(out.data() + i, &v, out.size() - i);
  }
}

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// One timed list call, recorded as a "bench.op" span so the ledger can
/// attribute the program's spans to the op that caused them.
template <typename Fn>
Status TimedOp(StepResult& out, ByteCount bytes, const Fn& call) {
  const auto start = Clock::now();
  Status status;
  {
    PVFS_SPAN("bench.op");
    status = call();
  }
  out.op_ms.push_back(MsSince(start));
  ++out.ops;
  if (status.ok()) {
    out.payload += bytes;
  } else {
    ++out.failed;
  }
  return status;
}

// ---- flash-write ----------------------------------------------------------

/// FLASH checkpoints at paper scale (1,920 file regions of 4 KiB gathered
/// from 983,040 memory regions of 8 B per rank), 2 ranks written in turn by
/// one thread, rotating over 4 checkpoint files.
class FlashWrite final : public Workload {
 public:
  explicit FlashWrite(std::uint64_t seed) {
    for (pvfs::Rank r = 0; r < config_.nprocs; ++r) {
      patterns_.push_back(pvfs::workloads::FlashCheckpointPattern(config_, r));
      // Only interior elements are ever gathered; guard cells stay
      // untouched (and unpaged), as in the application.
      buffers_.push_back(std::make_unique_for_overwrite<std::byte[]>(
          config_.MemBytesPerProc()));
      pvfs::ByteBuffer stream(config_.BytesPerProc());
      FillRandom(stream, Mix(seed, 1, r));
      ByteCount at = 0;
      for (const Extent& m : patterns_.back().memory) {
        std::memcpy(buffers_.back().get() + m.offset, stream.data() + at,
                    m.length);
        at += m.length;
      }
      streams_.push_back(std::move(stream));
    }
    prewrite_.resize(config_.FileBytes());
    FillRandom(prewrite_, Mix(seed, 2, 0));
  }

  std::uint32_t threads() const override { return 1; }
  std::uint32_t capture_steps() const override { return 1; }
  ByteCount DistinctPayloadBytes() const override {
    return kFiles * config_.FileBytes();
  }

  Status Populate(Deployment& dep) override {
    dep.fds.clear();
    for (std::uint32_t f = 0; f < kFiles; ++f) {
      auto fd = dep.client->Create("/flash/ckpt." + std::to_string(f),
                                   pvfs::CreateOptions{kStriping});
      if (!fd.ok()) return fd.status();
      PVFS_RETURN_IF_ERROR(dep.client->Write(*fd, 0, prewrite_));
      dep.fds.push_back(*fd);
    }
    return Status::Ok();
  }

  void Step(std::uint32_t, std::uint64_t iteration, StepResult& out,
            std::vector<OpRecord>* record) override {
    const pvfs::Rank rank = iteration % config_.nprocs;
    const std::uint32_t file = (iteration / config_.nprocs) % kFiles;
    const pvfs::io::AccessPattern& pattern = patterns_[rank];
    const std::span<const std::byte> buffer(buffers_[rank].get(),
                                            config_.MemBytesPerProc());
    if (record != nullptr) {
      record->push_back({pvfs::CreateOptions{kStriping}, pattern.file, true});
    }
    const Status status =
        TimedOp(out, config_.BytesPerProc(), [&] {
          return dep_->client->WriteList(dep_->fds[file], pattern.memory, buffer,
                                        pattern.file);
        });
    if (status.ok()) written_[file][rank] = true;
  }

  /// Reads every checkpoint file back and compares each 4 KiB slot with
  /// the rank stream written there (or the pre-write, if no op wrote it).
  void FinalCheck(StepResult& out) override {
    pvfs::ByteBuffer image(config_.FileBytes());
    const ByteCount chunk = config_.FileChunkBytes();
    for (std::uint32_t f = 0; f < kFiles; ++f) {
      ++out.ops;
      if (!dep_->client->Read(dep_->fds[f], 0, image).ok()) {
        ++out.failed;
        continue;
      }
      bool same = true;
      for (pvfs::Rank r = 0; r < config_.nprocs; ++r) {
        const ExtentList& regions = patterns_[r].file;
        for (size_t i = 0; i < regions.size(); ++i) {
          const std::byte* want =
              written_[f][r] ? streams_[r].data() + i * chunk
                             : prewrite_.data() + regions[i].offset;
          same = same && std::memcmp(image.data() + regions[i].offset, want,
                                     chunk) == 0;
        }
      }
      if (!same) ++out.failed;
    }
  }

 protected:
  pvfs::Result<Deployment> Start() override {
    written_.assign(kFiles, std::vector<bool>(config_.nprocs, false));
    return StartInProc(kStriping.pcount);
  }

  Status WarmUp() override {
    StepResult warm;
    Step(0, 0, warm, nullptr);
    return warm.failed == 0 ? Status::Ok()
                            : pvfs::Internal("flash-write warm-up failed");
  }

 private:
  static constexpr std::uint32_t kFiles = 4;
  static constexpr pvfs::Striping kStriping{0, 8, 16384};

  pvfs::workloads::FlashConfig config_{.nprocs = 2};
  std::vector<pvfs::io::AccessPattern> patterns_;
  std::vector<std::unique_ptr<std::byte[]>> buffers_;
  std::vector<pvfs::ByteBuffer> streams_;  // each rank's file bytes, in order
  pvfs::ByteBuffer prewrite_;
  std::vector<std::vector<bool>> written_;  // [file][rank]
};

// ---- tiledviz-read --------------------------------------------------------

/// The paper's 3x2 display wall: 6 tile readers pull 768 rows of 3,072 B
/// from a 10.7 MB frame written at setup; 2 threads share one classic TCP
/// transport (one connection per daemon), each cycling over 3 tiles.
class TiledVizRead final : public Workload {
 public:
  explicit TiledVizRead(std::uint64_t seed) {
    frame_.resize(config_.FileBytes());
    FillRandom(frame_, Mix(seed, 3, 0));
    for (pvfs::Rank r = 0; r < config_.clients(); ++r) {
      tiles_.push_back(pvfs::workloads::TiledVizPattern(config_, r));
    }
    for (std::uint32_t t = 0; t < kThreads; ++t) {
      tile_bufs_.emplace_back(config_.TileBytes());
      rotation_.push_back(Mix(seed, 4, t) % kTilesPerThread);
    }
  }

  std::uint32_t threads() const override { return kThreads; }
  std::uint32_t capture_steps() const override { return kTilesPerThread; }
  ByteCount DistinctPayloadBytes() const override { return frame_.size(); }

  Status Populate(Deployment& dep) override {
    auto fd = dep.client->Create("/viz/frame", pvfs::CreateOptions{kStriping});
    if (!fd.ok()) return fd.status();
    PVFS_RETURN_IF_ERROR(dep.client->Write(*fd, 0, frame_));
    dep.fds = {*fd};
    return Status::Ok();
  }

  void Step(std::uint32_t thread, std::uint64_t iteration, StepResult& out,
            std::vector<OpRecord>* record) override {
    const std::uint32_t tile =
        thread + kThreads * ((iteration + rotation_[thread]) % kTilesPerThread);
    const pvfs::io::AccessPattern& pattern = tiles_[tile];
    pvfs::ByteBuffer& buf = tile_bufs_[thread];
    if (record != nullptr) {
      record->push_back({pvfs::CreateOptions{kStriping}, pattern.file, false});
    }
    const Status status = TimedOp(out, buf.size(), [&] {
      return dep_->client->ReadList(dep_->fds[0], pattern.memory, buf,
                                   pattern.file);
    });
    if (!status.ok()) return;
    ByteCount at = 0;
    for (const Extent& row : pattern.file) {
      if (std::memcmp(buf.data() + at, frame_.data() + row.offset,
                      row.length) != 0) {
        ++out.failed;
        return;
      }
      at += row.length;
    }
  }

 protected:
  pvfs::Result<Deployment> Start() override {
    // The timeout bounds a stalled daemon; it never fires on a healthy run.
    return StartTcp(kStriping.pcount,
                    {.call_timeout = std::chrono::milliseconds{30'000}});
  }

  Status WarmUp() override {
    StepResult warm;
    for (std::uint32_t t = 0; t < kThreads; ++t) Step(t, 0, warm, nullptr);
    return warm.failed == 0 ? Status::Ok()
                            : pvfs::Internal("tiledviz-read warm-up failed");
  }

 private:
  static constexpr std::uint32_t kThreads = 2;
  static constexpr std::uint32_t kTilesPerThread = 3;
  static constexpr pvfs::Striping kStriping{0, 3, 16384};

  pvfs::workloads::TiledVizConfig config_;
  pvfs::ByteBuffer frame_;
  std::vector<pvfs::io::AccessPattern> tiles_;
  std::vector<pvfs::ByteBuffer> tile_bufs_;
  std::vector<std::uint64_t> rotation_;
};

// ---- cyclic-rw-small ------------------------------------------------------

/// The 1-D cyclic pattern of 3 ranks with 512 B blocks: each step writes a
/// seeded window of 64 of one rank's blocks and reads it back, the ranks
/// taking turns. One client thread drives a multiplexed TCP transport to
/// 3 iods; a call timeout turns a stall into a failed op.
class CyclicRwSmall final : public Workload {
 public:
  explicit CyclicRwSmall(std::uint64_t seed)
      : seed_(seed),
        write_buf_(kRegionsPerOp * config_.BlockBytes()),
        read_buf_(kRegionsPerOp * config_.BlockBytes()) {
    for (pvfs::Rank r = 0; r < config_.clients; ++r) {
      patterns_.push_back(pvfs::workloads::CyclicPattern(config_, r));
    }
    prewrite_.resize(config_.EffectiveTotal());
    FillRandom(prewrite_, Mix(seed, 5, 0));
  }

  std::uint32_t threads() const override { return 1; }
  std::uint32_t capture_steps() const override { return 2 * config_.clients; }
  ByteCount DistinctPayloadBytes() const override { return prewrite_.size(); }

  Status Populate(Deployment& dep) override {
    auto fd = dep.client->Create("/cyclic/array", pvfs::CreateOptions{kStriping});
    if (!fd.ok()) return fd.status();
    PVFS_RETURN_IF_ERROR(dep.client->Write(*fd, 0, prewrite_));
    dep.fds = {*fd};
    return Status::Ok();
  }

  void Step(std::uint32_t, std::uint64_t iteration, StepResult& out,
            std::vector<OpRecord>* record) override {
    const pvfs::Rank rank = iteration % config_.clients;
    const std::uint64_t step_seed = Mix(seed_, 6 + rank, iteration);
    const std::uint64_t first =
        step_seed % (config_.accesses_per_client - kRegionsPerOp + 1);
    const std::span<const Extent> file =
        std::span<const Extent>(patterns_[rank].file)
            .subspan(first, kRegionsPerOp);
    FillRandom(write_buf_, step_seed);
    const Extent mem[] = {{0, write_buf_.size()}};
    if (record != nullptr) {
      const ExtentList regions(file.begin(), file.end());
      record->push_back({pvfs::CreateOptions{kStriping}, regions, true});
      record->push_back({pvfs::CreateOptions{kStriping}, regions, false});
    }
    const pvfs::Client::Fd fd = dep_->fds[0];
    if (!TimedOp(out, write_buf_.size(), [&] {
           return dep_->client->WriteList(fd, mem, write_buf_, file);
         }).ok()) {
      return;
    }
    if (!TimedOp(out, read_buf_.size(), [&] {
           return dep_->client->ReadList(fd, mem, read_buf_, file);
         }).ok()) {
      return;
    }
    if (read_buf_ != write_buf_) ++out.failed;
  }

 protected:
  pvfs::Result<Deployment> Start() override {
    return StartTcp(kStriping.pcount,
                    {.call_timeout = std::chrono::milliseconds{10'000},
                     .multiplex = true});
  }

  Status WarmUp() override {
    StepResult warm;
    for (std::uint32_t r = 0; r < config_.clients; ++r) {
      Step(0, r, warm, nullptr);
    }
    return warm.failed == 0 ? Status::Ok()
                            : pvfs::Internal("cyclic-rw-small warm-up failed");
  }

 private:
  static constexpr std::uint32_t kRegionsPerOp = 64;
  static constexpr pvfs::Striping kStriping{0, 3, 16384};

  std::uint64_t seed_;
  // 4,096 blocks of 512 B per rank: a 6 MiB array.
  pvfs::workloads::CyclicConfig config_{
      .total_bytes = 3 * 4096 * 512, .clients = 3, .accesses_per_client = 4096};
  std::vector<pvfs::io::AccessPattern> patterns_;
  pvfs::ByteBuffer write_buf_;
  pvfs::ByteBuffer read_buf_;
  pvfs::ByteBuffer prewrite_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(std::string_view name,
                                       std::uint64_t seed) {
  if (name == "flash-write") return std::make_unique<FlashWrite>(seed);
  if (name == "tiledviz-read") return std::make_unique<TiledVizRead>(seed);
  if (name == "cyclic-rw-small") return std::make_unique<CyclicRwSmall>(seed);
  return nullptr;
}

}  // namespace layerbench
