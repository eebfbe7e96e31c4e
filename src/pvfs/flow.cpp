#include "pvfs/flow.hpp"

#include <algorithm>
#include <chrono>
#include <vector>

namespace pvfs {

namespace {

/// One segment: a contiguous slice of one run.
struct FlowSegment {
  FileOffset offset = 0;     // local store offset
  ByteCount buf_offset = 0;  // position in the run-ordered scratch buffer
  ByteCount length = 0;
};

std::vector<FlowSegment> CutSegments(std::span<const ScheduledRun> runs,
                                 ByteCount segment_bytes) {
  const ByteCount cut = std::max<ByteCount>(1, segment_bytes);
  std::vector<FlowSegment> segments;
  for (const ScheduledRun& run : runs) {
    ByteCount done = 0;
    while (done < run.length) {
      const ByteCount take = std::min<ByteCount>(cut, run.length - done);
      segments.push_back(
          {run.offset + done, run.buf_offset + done, take});
      done += take;
    }
  }
  return segments;
}

/// The shared pipeline skeleton: submit segments through `submit`, never
/// letting more than `max_inflight` ride at once, and account the window
/// metrics. Always drains; returns the first (lowest-token) error.
template <typename SubmitFn>
Status RunPipeline(AsyncStore::CompletionQueue& cq, std::size_t segments,
                   std::uint32_t max_inflight, FlowStats& stats,
                   const SubmitFn& submit) {
  const std::uint32_t window = std::max<std::uint32_t>(1, max_inflight);
  using Clock = std::chrono::steady_clock;
  AsyncStore::Token first_error_token = 0;
  Status first_error = Status::Ok();
  const auto absorb = [&](AsyncStore::Completion done) {
    if (!done.status.ok() &&
        (first_error.ok() || done.token < first_error_token)) {
      first_error_token = done.token;
      first_error = std::move(done.status);
    }
  };
  std::uint32_t inflight = 0;
  for (std::size_t i = 0; i < segments; ++i) {
    if (inflight >= window) {
      // Window full: the pipeline is storage-bound right now. The time
      // spent here is the flow's stall accounting.
      const auto t0 = Clock::now();
      absorb(cq.Wait());
      --inflight;
      stats.stall_us += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              Clock::now() - t0)
              .count());
    }
    submit(i);
    ++inflight;
    stats.peak_inflight = std::max<std::uint64_t>(stats.peak_inflight,
                                                  inflight);
  }
  while (inflight > 0) {
    absorb(cq.Wait());
    --inflight;
  }
  return first_error;
}

}  // namespace

Status FlowRead(AsyncStore& store, FileHandle handle,
                std::span<const ScheduledRun> runs,
                std::span<std::byte> scratch, const FlowConfig& config,
                FlowStats& stats) {
  const std::vector<FlowSegment> segments =
      CutSegments(runs, config.segment_bytes);
  stats.segments += segments.size();
  AsyncStore::CompletionQueue cq;
  return RunPipeline(
      cq, segments.size(), config.max_inflight, stats, [&](std::size_t i) {
        const FlowSegment& seg = segments[i];
        store.SubmitRead(cq, i, handle, seg.offset,
                         scratch.subspan(seg.buf_offset, seg.length));
      });
}

void FlowWrite(AsyncStore& store, LocalStore::IntentId intent,
               std::span<const ScheduledRun> runs, const FlowConfig& config,
               FlowStats& stats) {
  const std::vector<FlowSegment> segments =
      CutSegments(runs, config.segment_bytes);
  stats.segments += segments.size();
  AsyncStore::CompletionQueue cq;
  // Applies cannot fail: every completion is Ok.
  (void)RunPipeline(
      cq, segments.size(), config.max_inflight, stats, [&](std::size_t i) {
        const FlowSegment& seg = segments[i];
        store.SubmitApply(cq, i, intent, seg.buf_offset, seg.length);
      });
}

}  // namespace pvfs
