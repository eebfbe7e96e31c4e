// Quickstart: bring up an in-process PVFS cluster (manager + 8 I/O
// daemons, called on the client's thread), store a striped file, and
// read a noncontiguous column pattern back with the paper's list-I/O
// interface.
//
//   $ ./example_quickstart
#include <cstdio>

#include "common/bytes.hpp"
#include "pvfs/client.hpp"
#include "runtime/threaded_cluster.hpp"

using namespace pvfs;

int main() {
  // A "cluster": 8 I/O daemons plus the metadata manager (paper Fig. 1).
  runtime::ThreadedCluster cluster(/*server_count=*/8);
  Client client(&cluster.transport());

  // Create a file striped over all 8 servers, 16 KiB stripe units
  // (paper Fig. 2 and the §4.1 testbed default).
  auto fd = client.Create("/demo/matrix", Striping{0, 8, 16384});
  if (!fd.ok()) {
    std::fprintf(stderr, "create failed: %s\n",
                 fd.status().ToString().c_str());
    return 1;
  }

  // Store a 1024x1024-byte row-major matrix contiguously.
  constexpr ByteCount kSide = 1024;
  ByteBuffer matrix(kSide * kSide);
  FillPattern(matrix, /*seed=*/7, 0);
  if (Status s = client.Write(*fd, 0, matrix); !s.ok()) {
    std::fprintf(stderr, "write failed: %s\n", s.ToString().c_str());
    return 1;
  }

  // Noncontiguous read: one 64-byte column slice from each of 256 rows —
  // 256 file regions. The client library packs them into
  // ceil(256/64) = 4 list-I/O requests (paper §3.3).
  ExtentList file_regions;
  for (FileOffset row = 0; row < 256; ++row) {
    file_regions.push_back(Extent{row * kSide + 512, 64});
  }
  ByteBuffer column(256 * 64);
  ExtentList mem_regions{{0, column.size()}};

  client.ResetStats();
  if (Status s = client.ReadList(*fd, mem_regions, column, file_regions);
      !s.ok()) {
    std::fprintf(stderr, "read_list failed: %s\n", s.ToString().c_str());
    return 1;
  }

  // Verify against the original matrix.
  for (size_t r = 0; r < 256; ++r) {
    for (size_t i = 0; i < 64; ++i) {
      if (column[r * 64 + i] != matrix[r * kSide + 512 + i]) {
        std::fprintf(stderr, "data mismatch at row %zu\n", r);
        return 1;
      }
    }
  }

  const ClientStats& stats = client.stats();
  std::printf("read %zu noncontiguous regions (%zu bytes) correctly\n",
              file_regions.size(), column.size());
  std::printf("list I/O used %llu requests (%llu server messages) instead "
              "of %zu\n",
              static_cast<unsigned long long>(stats.fs_requests),
              static_cast<unsigned long long>(stats.messages),
              file_regions.size());

  (void)client.Close(*fd);
  (void)client.Remove("/demo/matrix");
  std::printf("done.\n");
  return 0;
}
