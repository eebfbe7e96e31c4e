// The per-layer ledger, measured from outside the program in two ways.
//
// 1. Spans. A traced phase records the program's spans (client.exchange,
//    client.call, iod.handle, iod.serve, manager.handle) next to the
//    benchmark's own (bench.op around each list call, bench.transport
//    around each forwarded transport call). BuildSpanLedger nests them per
//    thread, joins a bench.transport to the iod.handle on another thread
//    (TCP) by the sealed request id, and charges each layer its self time:
//    its span minus the time its child spans cover. The layers tile every
//    op, so their sum reconciles with the mean op time.
//
// 2. Replays. Layers below the spans are timed by calling their public
//    functions on the frames the LedgerTransport captured: frame open/seal
//    and CRC32C, the IoRequest/IoResponse codec, Distribution fragments,
//    BuildRunPlan, and LocalStore WriteV/Read replayed in capture order on
//    shadow stores that received the same setup writes.
#pragma once

#include <cstdint>
#include <vector>

#include "ledger_transport.hpp"
#include "obs/span.hpp"
#include "workloads.hpp"

namespace layerbench {

/// Self times (us, summed over the traced phase) of the layers inside the
/// benchmark's ops.
struct SpanLedger {
  std::uint64_t ops = 0;
  double op_us = 0;          // Σ bench.op duration
  double client_us = 0;      // bench.op self: planning, gather/scatter
  double exchange_us = 0;    // client.exchange self: the retry loop
  double call_us = 0;        // client.call self: seal, open, envelope decode
  double hop_us = 0;         // bench.transport minus the joined iod.handle
  double iod_handle_us = 0;  // iod.handle self: codec and response seal
  double iod_serve_us = 0;   // iod.serve: distribution, plan, store
  double other_us = 0;       // any other span inside an op
  std::uint64_t calls = 0;   // bench.transport spans inside ops
  std::uint64_t joined = 0;  // of those, matched to their iod.handle
  std::uint64_t handles = 0;
  double handle_total_us = 0;  // Σ iod.handle duration
  std::uint64_t serves = 0;
  double serve_total_us = 0;   // Σ iod.serve duration
  /// iod.handle start minus bench.transport start, for calls whose daemon
  /// ran on the caller's thread (in-process): the per-endpoint lock wait
  /// plus the request frame check.
  std::vector<double> dispatch_wait_us;

  double LayerSum() const {
    return client_us + exchange_us + call_us + hop_us + iod_handle_us +
           iod_serve_us + other_us;
  }
};

SpanLedger BuildSpanLedger(const std::vector<pvfs::obs::SpanRecord>& spans);

/// Σ duration (us) and count of the spans named `name`.
struct SpanTotal {
  std::uint64_t count = 0;
  double us = 0;
};
SpanTotal TotalOf(const std::vector<pvfs::obs::SpanRecord>& spans,
                  const char* name);

/// Replayed layer timings (us totals) over the capture phase.
struct ReplayLedger {
  std::uint64_t ops = 0;            // recorded list calls
  double client_plan_us = 0;        // ChunkRegions + per-chunk placement
  double client_fragments_us = 0;   // Distribution::Fragments per chunk
  std::uint64_t fragments = 0;      // fragments the client computed

  std::uint64_t calls = 0;          // captured iod exchanges
  double open_us = 0;               // OpenFrameWithId, request + response
  double seal_us = 0;               // SealFrameWithId, request + response
  double decode_us = 0;             // IoRequest::Decode
  double encode_us = 0;             // IoResponse::Encode + envelope
  double crc_bytes = 0;
  double crc_us = 0;                // Crc32c over both frames
  double server_fragments_us = 0;   // Distribution::ServerFragments
  double plan_us = 0;               // BuildRunPlan

  std::uint64_t writev_calls = 0;
  double writev_us = 0;
  std::uint64_t read_calls = 0;
  double read_us = 0;
  /// Shadow reads that disagreed with what the cluster returned or was
  /// sent: nonzero means the shadow stores did not track the real ones.
  std::uint64_t shadow_mismatches = 0;
};

ReplayLedger Replay(const std::vector<LedgerTransport::Captured>& captured,
                    const std::vector<OpRecord>& ops, Deployment& shadow);

}  // namespace layerbench
