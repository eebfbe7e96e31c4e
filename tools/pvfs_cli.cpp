// pvfs_cli: administration client for a running pvfsd deployment.
//
//   pvfs_cli <mgr_port> <iod_port>[,<iod_port>...] ls [prefix]
//   pvfs_cli <mgr_port> <iod_ports>                put <name> <local-file>
//                                                      [--dist=<layout>]
//   pvfs_cli <mgr_port> <iod_ports>                get <name> <local-file>
//   pvfs_cli <mgr_port> <iod_ports>                rm <name>
//   pvfs_cli <mgr_port> <iod_ports>                stat <name>
//   pvfs_cli <mgr_port> <iod_ports>                stats
//
// Daemon addresses are loopback ports as printed by pvfsd. `stats`
// fetches every daemon's live counters over the wire (kStats message)
// and prints them, together with this client's own counters, as JSON.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "common/bytes.hpp"
#include "net/socket_transport.hpp"
#include "obs/export.hpp"
#include "pvfs/posixio.hpp"

using namespace pvfs;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: pvfs_cli <mgr_port> <iod_port,iod_port,...> "
               "<ls|put|get|rm|stat|stats> [args]\n"
               "  put <name> <local-file> [--dist=<layout>] where <layout>\n"
               "  is twod:<groups>,<depth> | block:<bytes> | "
               "gcyclic:<depth>\n"
               "  (default: simple round-robin striping; see "
               "docs/distributions.md)\n");
  return 2;
}

/// Parses a put --dist=<layout> value. Validation proper happens at the
/// manager; this only maps the spelling onto a DistributionSpec.
bool ParseDistSpec(const char* text, DistributionSpec* out) {
  if (std::strncmp(text, "twod:", 5) == 0) {
    char* end = nullptr;
    unsigned long groups = std::strtoul(text + 5, &end, 10);
    if (*end != ',') return false;
    unsigned long depth = std::strtoul(end + 1, &end, 10);
    if (*end != '\0') return false;
    *out = DistributionSpec::TwoD(static_cast<std::uint32_t>(groups),
                                  static_cast<std::uint32_t>(depth));
    return true;
  }
  if (std::strncmp(text, "block:", 6) == 0) {
    char* end = nullptr;
    unsigned long long bytes = std::strtoull(text + 6, &end, 10);
    if (*end != '\0') return false;
    *out = DistributionSpec::Block(static_cast<ByteCount>(bytes));
    return true;
  }
  if (std::strncmp(text, "gcyclic:", 8) == 0) {
    char* end = nullptr;
    unsigned long depth = std::strtoul(text + 8, &end, 10);
    if (*end != '\0') return false;
    *out = DistributionSpec::GroupCyclic(static_cast<std::uint32_t>(depth));
    return true;
  }
  return false;
}

std::vector<net::SocketAddress> ParsePorts(const char* list) {
  std::vector<net::SocketAddress> out;
  const char* p = list;
  while (*p != '\0') {
    char* end = nullptr;
    unsigned long port = std::strtoul(p, &end, 10);
    if (end == p) break;
    out.push_back({"127.0.0.1", static_cast<std::uint16_t>(port)});
    p = (*end == ',') ? end + 1 : end;
  }
  return out;
}

int DoLs(Client& client, int argc, char** argv) {
  std::string prefix = argc > 4 ? argv[4] : "";
  auto names = client.ListFiles(prefix);
  if (!names.ok()) {
    std::fprintf(stderr, "%s\n", names.status().ToString().c_str());
    return 1;
  }
  for (const std::string& name : names.value()) {
    std::printf("%s\n", name.c_str());
  }
  return 0;
}

int DoPut(Client& client, int argc, char** argv) {
  if (argc < 6) return Usage();
  std::ifstream in(argv[5], std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", argv[5]);
    return 1;
  }
  std::vector<char> raw((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  // Stripe over every configured I/O daemon with the PVFS default unit;
  // --dist selects a non-default layout (manager validates the shape).
  CreateOptions options{Striping{0, client.TransportServerCount(), 16384}};
  if (argc > 6) {
    if (std::strncmp(argv[6], "--dist=", 7) != 0 ||
        !ParseDistSpec(argv[6] + 7, &options.dist)) {
      std::fprintf(stderr, "bad --dist value: %s\n", argv[6]);
      return Usage();
    }
  }
  auto stream = PvfsStream::Create(&client, argv[4], options);
  if (!stream.ok()) {
    std::fprintf(stderr, "%s\n", stream.status().ToString().c_str());
    return 1;
  }
  auto bytes = std::as_bytes(std::span{raw.data(), raw.size()});
  if (Status s = stream->Write(bytes); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  (void)stream->Close();
  std::printf("stored %zu bytes as %s\n", raw.size(), argv[4]);
  return 0;
}

int DoGet(Client& client, int argc, char** argv) {
  if (argc < 6) return Usage();
  auto stream = PvfsStream::Open(&client, argv[4]);
  if (!stream.ok()) {
    std::fprintf(stderr, "%s\n", stream.status().ToString().c_str());
    return 1;
  }
  auto size = stream->Seek(0, PvfsStream::Whence::kEnd);
  if (!size.ok()) return 1;
  (void)stream->Seek(0, PvfsStream::Whence::kSet);
  ByteBuffer data(*size);
  auto n = stream->Read(data);
  if (!n.ok()) {
    std::fprintf(stderr, "%s\n", n.status().ToString().c_str());
    return 1;
  }
  std::ofstream out(argv[5], std::ios::binary);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(*n));
  std::printf("fetched %llu bytes to %s\n",
              static_cast<unsigned long long>(*n), argv[5]);
  return 0;
}

int DoRm(Client& client, int argc, char** argv) {
  if (argc < 5) return Usage();
  if (Status s = client.Remove(argv[4]); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  return 0;
}

int DoStat(Client& client, int argc, char** argv) {
  if (argc < 5) return Usage();
  auto fd = client.Open(argv[4]);
  if (!fd.ok()) {
    std::fprintf(stderr, "%s\n", fd.status().ToString().c_str());
    return 1;
  }
  auto meta = client.Stat(*fd);
  if (!meta.ok()) return 1;
  std::printf("%s: handle=%llu size=%llu striping={base=%u pcount=%u "
              "ssize=%llu} dist={kind=%s groups=%u depth=%u extent=%llu}\n",
              argv[4], static_cast<unsigned long long>(meta->handle),
              static_cast<unsigned long long>(meta->size),
              meta->striping.base, meta->striping.pcount,
              static_cast<unsigned long long>(meta->striping.ssize),
              DistKindName(meta->dist.kind), meta->dist.groups,
              meta->dist.group_depth,
              static_cast<unsigned long long>(meta->dist.block_extent));
  (void)client.Close(*fd);
  return 0;
}

int DoStats(Client& client) {
  obs::JsonValue dump = obs::JsonValue::Object();
  auto manager = client.FetchServerStats(-1);
  if (!manager.ok()) {
    std::fprintf(stderr, "%s\n", manager.status().ToString().c_str());
    return 1;
  }
  auto parsed = obs::JsonValue::Parse(*manager);
  dump.Set("manager", parsed.ok() ? std::move(*parsed)
                                  : obs::JsonValue(*manager));
  obs::JsonValue iods = obs::JsonValue::Array();
  for (int s = 0; s < static_cast<int>(client.TransportServerCount()); ++s) {
    auto stats = client.FetchServerStats(s);
    if (!stats.ok()) {
      std::fprintf(stderr, "iod %d: %s\n", s,
                   stats.status().ToString().c_str());
      return 1;
    }
    auto iod = obs::JsonValue::Parse(*stats);
    iods.Append(iod.ok() ? std::move(*iod) : obs::JsonValue(*stats));
  }
  dump.Set("iods", std::move(iods));
  obs::Registry reg;
  client.ExportMetrics(reg);
  dump.Set("client", obs::StatsBody(reg));
  std::printf("%s\n", dump.Dump(2).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4) return Usage();
  net::SocketAddress manager{
      "127.0.0.1", static_cast<std::uint16_t>(std::atoi(argv[1]))};
  net::SocketTransport transport(manager, ParsePorts(argv[2]));
  Client client(&transport);

  if (std::strcmp(argv[3], "ls") == 0) return DoLs(client, argc, argv);
  if (std::strcmp(argv[3], "put") == 0) return DoPut(client, argc, argv);
  if (std::strcmp(argv[3], "get") == 0) return DoGet(client, argc, argv);
  if (std::strcmp(argv[3], "rm") == 0) return DoRm(client, argc, argv);
  if (std::strcmp(argv[3], "stat") == 0) return DoStat(client, argc, argv);
  if (std::strcmp(argv[3], "stats") == 0) return DoStats(client);
  return Usage();
}
