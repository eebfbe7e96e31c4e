// The benchmark's workloads: three of the paper's access patterns (built by
// src/workloads) driven through the public Client API against a running
// cluster, each as a closed loop. See NOTES.md for why each was chosen.
//
//   flash-write      FLASH checkpoint writes (paper §4.3.1), in-process
//                    transport, 8 iods, 1 client thread.
//   tiledviz-read    tiled-visualization reads (paper §4.4), classic TCP
//                    transport, 3 iods, 2 client threads.
//   cyclic-rw-small  1-D cyclic write + read-back of 512 B blocks (paper
//                    §4.2.1), multiplexed TCP transport, 3 iods, 1 client
//                    thread taking the 3 ranks in turn.
//
// All inputs derive from the seed; the program sees only those inputs.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "ledger_transport.hpp"
#include "net/socket_transport.hpp"
#include "obs/metrics.hpp"
#include "pvfs/client.hpp"
#include "pvfs/iod.hpp"
#include "pvfs/manager.hpp"

namespace layerbench {

/// One list call's shape, recorded in the capture phase for the
/// client-planning replays.
struct OpRecord {
  pvfs::CreateOptions layout;
  pvfs::ExtentList file_regions;
  bool is_write = false;
};

/// What one closed-loop step of one client thread did.
struct StepResult {
  std::uint32_t ops = 0;        // ReadList/WriteList calls issued
  std::uint32_t failed = 0;     // error statuses plus readback mismatches
  pvfs::ByteCount payload = 0;  // user bytes of the successful calls
  std::vector<double> op_ms;    // latency of each call, appended
};

/// A cluster, the decorated transport and one client shared by the
/// workload's threads. Members are declared so that the client goes first
/// and the registry last on destruction; never move-assign over a live
/// deployment (that releases the members in the opposite order).
struct Deployment {
  std::unique_ptr<pvfs::obs::Registry> registry;
  std::unique_ptr<pvfs::net::SocketCluster> cluster;  // TCP workloads
  std::unique_ptr<pvfs::Manager> manager;             // in-process
  std::vector<std::unique_ptr<pvfs::IoDaemon>> daemons;
  std::unique_ptr<pvfs::Transport> inner;
  std::unique_ptr<LedgerTransport> transport;
  std::unique_ptr<pvfs::Client> client;
  std::vector<pvfs::Client::Fd> fds;

  std::uint32_t server_count() const;
  pvfs::IoDaemon& iod(pvfs::ServerId s);
};

/// An in-process cluster of `servers` iods behind InProcTransport.
Deployment StartInProc(std::uint32_t servers);

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::uint32_t threads() const = 0;
  /// Steps per thread that the capture phase runs (a fixed op list).
  virtual std::uint32_t capture_steps() const = 0;
  /// Bytes of distinct file data the workload keeps (the store's payload).
  virtual pvfs::ByteCount DistinctPayloadBytes() const = 0;

  /// Tear down the previous deployment, then start the cluster, create
  /// and pre-write the files and warm up: what setup_s times.
  pvfs::Status Setup();

  /// Create and pre-write the workload's files through `dep`'s client.
  /// Also seeds the replay's shadow stores with the same setup writes.
  virtual pvfs::Status Populate(Deployment& dep) = 0;

  /// One closed-loop step of client thread `thread`: one or two list
  /// calls, each timed, with every byte read compared against the golden
  /// image. Inputs depend only on (seed, thread, iteration). With
  /// `record`, each call's shape is appended to it.
  virtual void Step(std::uint32_t thread, std::uint64_t iteration,
                    StepResult& out, std::vector<OpRecord>* record) = 0;

  /// End-of-run readback outside the timed phase: each read counts as an
  /// op in `out`, failed if any byte differs from the golden image.
  virtual void FinalCheck(StepResult& /*out*/) {}

  Deployment& deployment() { return *dep_; }

 protected:
  virtual pvfs::Result<Deployment> Start() = 0;
  virtual pvfs::Status WarmUp() = 0;

  std::unique_ptr<Deployment> dep_;
};

/// nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(std::string_view name,
                                       std::uint64_t seed);

}  // namespace layerbench
