// pvfsd: run a PVFS deployment (manager + N I/O daemons) as real TCP
// servers on loopback — the daemon side of the paper's Figure 1.
//
//   pvfsd [servers] [base_port]
//
// With base_port 0 (default) each daemon picks an ephemeral port and the
// bound ports are printed; otherwise the manager listens on base_port and
// iod k on base_port + 1 + k. Runs until stdin reaches EOF (Ctrl-D).
// Typing "stats" on stdin dumps every daemon's counters, with the
// admission and transport instruments, as one registry snapshot (JSON).
#include <cstdio>
#include <cstdlib>
#include <string>

#include "net/socket_transport.hpp"
#include "obs/export.hpp"

using namespace pvfs;

int main(int argc, char** argv) {
  std::uint32_t servers = argc > 1
                              ? static_cast<std::uint32_t>(
                                    std::strtoul(argv[1], nullptr, 10))
                              : 8;
  std::uint16_t base_port =
      argc > 2 ? static_cast<std::uint16_t>(std::strtoul(argv[2], nullptr, 10))
               : 0;

  auto cluster = net::SocketCluster::Start(servers, kMaxListRegions,
                                           base_port);
  if (!cluster.ok()) {
    std::fprintf(stderr, "failed to start: %s\n",
                 cluster.status().ToString().c_str());
    return 1;
  }

  std::printf("pvfs manager on 127.0.0.1:%u\n",
              (*cluster)->manager_address().port);
  auto iods = (*cluster)->iod_addresses();
  for (size_t i = 0; i < iods.size(); ++i) {
    std::printf("pvfs iod %zu on 127.0.0.1:%u\n", i, iods[i].port);
  }
  std::printf("serving; type 'stats' for counters, Ctrl-D to stop.\n");
  std::fflush(stdout);

  // Block until stdin closes; "stats" dumps live daemon counters.
  std::string line;
  int c;
  while ((c = std::getchar()) != EOF) {
    if (c != '\n') {
      line.push_back(static_cast<char>(c));
      continue;
    }
    if (line == "stats") {
      // The cluster's admission and transport instruments already live in
      // the global registry; the daemons' counters join them there.
      obs::Registry& reg = obs::Registry::Global();
      (*cluster)->manager().ExportMetrics(reg);
      for (std::uint32_t s = 0; s < servers; ++s) {
        (*cluster)->iod(s).ExportMetrics(reg);
      }
      std::printf("%s\n", obs::StatsBody(reg).Dump(2).c_str());
      std::fflush(stdout);
    }
    line.clear();
  }
  std::printf("shutting down.\n");
  return 0;
}
