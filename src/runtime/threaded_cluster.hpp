// ThreadedCluster: a functional PVFS deployment inside one process for any
// number of client threads — the manager, the I/O daemons and one
// admission controller per iod, behind one InProcTransport. Calls run on
// the calling client's thread. Every daemon is internally synchronized,
// so concurrent clients are served concurrently, and a bounded admission
// queue sheds excess calls with retryable kBusy at call time. This is the
// closest in-process analogue of the paper's deployment (clients + mgr +
// iods on separate nodes), and what the integration tests and examples
// run on.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "pvfs/admission.hpp"
#include "pvfs/config.hpp"
#include "pvfs/iod.hpp"
#include "pvfs/manager.hpp"
#include "pvfs/repair.hpp"
#include "pvfs/transport.hpp"

namespace pvfs::runtime {

class ThreadedCluster {
 public:
  explicit ThreadedCluster(std::uint32_t server_count,
                           std::uint32_t max_list_regions = kMaxListRegions);
  /// Full per-iod service configuration: fragment scheduling and bounded
  /// admission queues (config.max_queue_depth > 0 makes a daemon shed
  /// excess load with retryable kBusy). Admission instruments register in
  /// `registry` (default: obs::Registry::Global()).
  ThreadedCluster(std::uint32_t server_count, const ServerConfig& config,
                  obs::Registry* registry = nullptr);

  ThreadedCluster(const ThreadedCluster&) = delete;
  ThreadedCluster& operator=(const ThreadedCluster&) = delete;

  /// Transport for clients; safe to share across client threads.
  Transport& transport() { return *transport_; }

  Manager& manager() { return manager_; }
  IoDaemon& iod(ServerId s) { return *iods_[s]; }

  /// Re-replicate data for daemon `s` from the surviving replicas (run
  /// after a crash-restart; see pvfs/repair.hpp). Goes through the
  /// cluster's transport, so repair calls are admitted and served
  /// alongside in-flight client I/O exactly as client requests are.
  Result<RepairReport> RepairIod(ServerId s) {
    return RepairRestartedIod(*transport_, s);
  }
  AdmissionController& admission(ServerId s) { return *admissions_[s]; }
  std::uint32_t server_count() const {
    return static_cast<std::uint32_t>(iods_.size());
  }

 private:
  Manager manager_;
  std::vector<std::unique_ptr<IoDaemon>> iods_;
  std::vector<std::unique_ptr<AdmissionController>> admissions_;
  std::unique_ptr<InProcTransport> transport_;
};

}  // namespace pvfs::runtime
