#include "runtime/threaded_cluster.hpp"

namespace pvfs::runtime {

ThreadedCluster::ThreadedCluster(std::uint32_t server_count,
                                 std::uint32_t max_list_regions)
    : ThreadedCluster(server_count,
                      ServerConfig{.max_list_regions = max_list_regions}) {}

ThreadedCluster::ThreadedCluster(std::uint32_t server_count,
                                 const ServerConfig& config,
                                 obs::Registry* registry)
    : manager_(server_count) {
  std::vector<IoDaemon*> iods;
  std::vector<AdmissionController*> admissions;
  for (ServerId s = 0; s < server_count; ++s) {
    iods_.push_back(std::make_unique<IoDaemon>(s, config));
    admissions_.push_back(std::make_unique<AdmissionController>(
        s, config.max_queue_depth, registry));
    iods.push_back(iods_.back().get());
    admissions.push_back(admissions_.back().get());
  }
  transport_ = std::make_unique<InProcTransport>(
      &manager_, std::move(iods), std::move(admissions));
}

}  // namespace pvfs::runtime
