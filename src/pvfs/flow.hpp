// Flow: bounded-segment pipelining of one request's store traffic — the
// PVFS2 flows concept (SNIPPETS.md Snippet 1, `concepts.tex`): "a
// datapath is divided into segments that are individually moved in a
// pipelined fashion so that network and storage stay concurrently busy".
// It is the only way an iod moves file data between its wire payload and
// its store.
//
// A flow takes the coalesced run plan of one list-I/O request (see
// src/pvfs/scheduler) and cuts the runs into segments of at most
// `segment_bytes`, keeping at most `max_inflight` segments submitted to
// the daemon's AsyncStore at any moment. For reads, segments stream store
// bytes into run-ordered scratch, which the daemon then scatters into the
// wire payload. For writes, the daemon has already gathered the payload
// run-ordered and staged it as ONE journaled intent; segments land parts
// of that intent, and the daemon commits it after the last one, so a
// crash anywhere in the flow replays or rolls back the whole request.
//
// Window 1 (the default) is the synchronous iod: its AsyncStore has no
// workers, so each segment executes inline on the serving thread. A wider
// window runs segments on the store-worker pool every in-flight request
// shares, so network and device intervals of one request's segments
// proceed concurrently instead of strictly in series. Different requests
// overlap at every window: the daemon is internally synchronized.
//
// Error handling: a flow always drains every submitted segment before
// returning (buffers are borrowed from the caller), then reports the
// first segment error in run order.
#pragma once

#include <cstdint>
#include <span>

#include "common/status.hpp"
#include "common/types.hpp"
#include "pvfs/scheduler.hpp"
#include "pvfs/store_async.hpp"

namespace pvfs {

/// Per-flow tuning (ServerConfig carries the daemon-wide defaults).
struct FlowConfig {
  /// Largest contiguous byte range moved per segment.
  ByteCount segment_bytes = 256 * 1024;
  /// Most segments submitted-but-incomplete at once (the pipeline window).
  std::uint32_t max_inflight = 1;
};

/// What one flow did, accumulated into iod stats / iod.flow.* metrics.
struct FlowStats {
  std::uint64_t segments = 0;       // segments the runs were cut into
  std::uint64_t peak_inflight = 0;  // widest the window actually got
  std::uint64_t stall_us = 0;       // time blocked on a full window
};

/// Pipeline store reads of `runs` into `scratch` (run-ordered, at least
/// plan.total_bytes long). Returns the first segment read error, if any.
Status FlowRead(AsyncStore& store, FileHandle handle,
                std::span<const ScheduledRun> runs,
                std::span<std::byte> scratch, const FlowConfig& config,
                FlowStats& stats);

/// Pipeline the segments of staged write `intent` into the store. The
/// intent's pieces are `runs` and its data is run-ordered, so a segment's
/// scratch position is its position in the intent. The caller commits
/// (or, on an injected crash, abandons) the intent afterwards.
void FlowWrite(AsyncStore& store, LocalStore::IntentId intent,
               std::span<const ScheduledRun> runs, const FlowConfig& config,
               FlowStats& stats);

}  // namespace pvfs
