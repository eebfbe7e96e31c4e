// layerbench: the executed-path benchmark (client -> wire -> transport ->
// iod -> store) on three of the paper's access patterns.
//
//   layerbench --workload <flash-write|tiledviz-read|cyclic-rw-small>
//              --seed <n> --seconds <s> --trace <0|1> [--commit <id>]
//
// --trace 0 sets up the cluster three times (setup_s is the median), runs
// the closed loop for --seconds untraced and prints the end-to-end
// metrics. --trace 1 sets up once, runs half the time untraced and half
// traced, then a fixed capture phase whose frames feed the layer replays,
// and prints the per-layer metrics. Both check every byte read against
// the seeded golden image. The last stdout line is one JSON object
// {correct, attempted, failed, metrics}; lines before it starting with
// '#' are provenance and detail. Exit status is nonzero if any op failed.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "ledger.hpp"
#include "obs/span.hpp"
#include "workloads.hpp"

namespace layerbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kSetupReps = 3;
/// The traced layer self times must sum to the traced mean op time within
/// this share.
constexpr double kReconcileBound = 0.10;

#ifndef LAYERBENCH_BUILD_TYPE
#define LAYERBENCH_BUILD_TYPE "unknown"
#endif
#ifndef LAYERBENCH_COMPILER
#define LAYERBENCH_COMPILER "unknown"
#endif

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--commit") {
      args.commit = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0;
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// The highest percentile with at least ten samples beyond it: the
/// (n-10)-th smallest of n samples. Fewer than 11 samples fall back to the
/// maximum.
struct Tail {
  double value = 0;
  double percentile = 100;
  size_t samples = 0;
};
Tail TailOf(std::vector<double> v) {
  Tail out;
  out.samples = v.size();
  if (v.empty()) return out;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  if (n < 11) {
    out.value = v.back();
    return out;
  }
  out.value = v[n - 11];
  out.percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return out;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Metrics in output order, each with its unit.
class Metrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    entries_.push_back({name, std::isfinite(value) ? value : 0, unit});
  }
  std::string Json() const {
    std::string out = "{";
    char buf[64];
    for (size_t i = 0; i < entries_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.17g", entries_[i].value);
      out += (i ? ", \"" : "\"") + entries_[i].name + "\": {\"value\": " +
             buf + ", \"unit\": \"" + entries_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics.Json().c_str());
  std::fflush(stdout);
}

/// What a timed phase of the closed loop did.
struct Phase {
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  pvfs::ByteCount payload = 0;
  double seconds = 0;
  std::vector<double> op_ms;

  double mb_s() const { return Ratio(static_cast<double>(payload) / 1e6, seconds); }
};

/// Every client thread steps its closed loop until `seconds` have passed;
/// `next` holds each thread's next iteration index.
Phase RunPhase(Workload& w, double seconds, std::vector<std::uint64_t>& next) {
  std::vector<StepResult> per(w.threads());
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  {
    std::vector<std::jthread> threads;
    for (std::uint32_t t = 0; t < w.threads(); ++t) {
      threads.emplace_back([&, t] {
        while (Clock::now() < deadline) w.Step(t, next[t]++, per[t], nullptr);
      });
    }
  }
  Phase out;
  out.seconds = SecondsSince(start);
  for (StepResult& r : per) {
    out.ops += r.ops;
    out.failed += r.failed;
    out.payload += r.payload;
    out.op_ms.insert(out.op_ms.end(), r.op_ms.begin(), r.op_ms.end());
  }
  return out;
}

double StoreBytesPerPayloadByte(Workload& w) {
  Deployment& dep = w.deployment();
  double allocated = 0;
  for (pvfs::ServerId s = 0; s < dep.server_count(); ++s) {
    allocated += static_cast<double>(dep.iod(s).store().AllocatedBytes());
  }
  return Ratio(allocated, static_cast<double>(w.DistinctPayloadBytes()));
}

int Fail(const char* what, const pvfs::Status& status) {
  std::fprintf(stderr, "layerbench: %s: %s\n", what,
               status.ToString().c_str());
  return 1;
}

int RunEndToEnd(Workload& w, const Args& args) {
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto start = Clock::now();
    const pvfs::Status setup = w.Setup();
    if (!setup.ok()) return Fail("setup", setup);
    setup_s.push_back(SecondsSince(start));
  }
  std::vector<std::uint64_t> next(w.threads(), 0);
  const Phase phase = RunPhase(w, args.seconds, next);
  StepResult final_check;
  w.FinalCheck(final_check);

  const Tail tail = TailOf(phase.op_ms);
  std::printf("# ops %llu in %.3f s; tail is p%.2f of %zu samples; "
              "final readback %u reads, %u failed\n",
              static_cast<unsigned long long>(phase.ops), phase.seconds,
              tail.percentile, tail.samples, final_check.ops,
              final_check.failed);
  Metrics m;
  m.Add("payload_mb_s", phase.mb_s(), "MB/s");
  m.Add("op_ms_p50", Median(phase.op_ms), "ms");
  m.Add("op_ms_tail", tail.value, "ms");
  m.Add("setup_s", Median(setup_s), "s");
  m.Add("peak_rss_mb", PeakRssMb(), "MB");
  m.Add("store_bytes_per_payload_byte", StoreBytesPerPayloadByte(w), "B/B");
  const std::uint64_t attempted = phase.ops + final_check.ops;
  const std::uint64_t failed = phase.failed + final_check.failed;
  std::printf("# failed_op_ratio %.6g (%llu of %llu)\n",
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  PrintResult(failed == 0, std::max<std::uint64_t>(attempted, 1), failed, m);
  return failed == 0 ? 0 : 1;
}

/// Counters summed over the client, the decorator and every iod.
struct Counts {
  pvfs::ClientStats client;
  std::uint64_t retries = 0;
  std::uint64_t busy = 0;
  LedgerTransport::Counters transport;
  std::uint64_t iod_requests = 0;
  std::uint64_t store_ops = 0;
  std::uint64_t local_accesses = 0;
  std::uint64_t read_corruptions = 0;
};

Counts Snapshot(Workload& w) {
  Deployment& dep = w.deployment();
  Counts c;
  c.client = dep.client->stats();
  c.retries = dep.client->retry_counters().retries;
  c.busy = dep.client->retry_counters().busy_rejections;
  c.transport = dep.transport->counters();
  for (pvfs::ServerId s = 0; s < dep.server_count(); ++s) {
    const pvfs::IoDaemon::Stats& st = dep.iod(s).stats();
    c.iod_requests += st.requests.load();
    c.store_ops += st.store_ops.load();
    c.local_accesses += st.local_accesses.load();
    c.read_corruptions += dep.iod(s).store().integrity().read_corruptions;
  }
  return c;
}

/// p50 of the admission queue wait, averaged over the daemons weighted by
/// their sample counts; 0 when the transport has no admission queue.
double AdmissionWaitP50(Workload& w) {
  Deployment& dep = w.deployment();
  if (!dep.registry) return 0;
  double weighted = 0;
  double count = 0;
  for (pvfs::ServerId s = 0; s < dep.server_count(); ++s) {
    pvfs::obs::Histogram& h = dep.registry->Histogram(
        "iod.admission.queue_wait_us", {{"server", std::to_string(s)}});
    if (h.count() == 0) continue;
    weighted += h.Quantile(0.5) * static_cast<double>(h.count());
    count += static_cast<double>(h.count());
  }
  return Ratio(weighted, count);
}

int RunTraced(Workload& w, const Args& args) {
  // One setup, traced, for the manager's share.
  pvfs::obs::SetSpanTracing(true);
  const pvfs::Status setup = w.Setup();
  pvfs::obs::SetSpanTracing(false);
  if (!setup.ok()) return Fail("setup", setup);
  const SpanTotal manager = TotalOf(pvfs::obs::DrainSpans(), "manager.handle");
  Deployment& dep = w.deployment();

  // Untraced, then traced halves of the timed loop.
  std::vector<std::uint64_t> next(w.threads(), 0);
  const Counts before = Snapshot(w);
  const Phase plain = RunPhase(w, args.seconds / 2, next);
  dep.transport->set_timing(true);
  pvfs::obs::SetSpanTracing(true);
  const Phase traced = RunPhase(w, args.seconds / 2, next);
  pvfs::obs::SetSpanTracing(false);
  dep.transport->set_timing(false);
  const Counts after = Snapshot(w);
  const SpanLedger ledger = BuildSpanLedger(pvfs::obs::DrainSpans());
  const std::vector<double> call_us = dep.transport->TakeCallMicros();

  // Capture phase: a fixed, single-threaded op list whose counts repeat
  // exactly and whose frames feed the replays.
  std::vector<OpRecord> records;
  StepResult capture;
  const Counts cap0 = Snapshot(w);
  dep.transport->set_capture(true);
  for (std::uint32_t t = 0; t < w.threads(); ++t) {
    for (std::uint32_t i = 0; i < w.capture_steps(); ++i) {
      w.Step(t, i, capture, &records);
    }
  }
  dep.transport->set_capture(false);
  const Counts cap1 = Snapshot(w);
  const std::vector<LedgerTransport::Captured> captured =
      dep.transport->TakeCaptured();

  ReplayLedger replay;
  {
    Deployment shadow = StartInProc(dep.server_count());
    const pvfs::Status populated = w.Populate(shadow);
    if (!populated.ok()) return Fail("shadow populate", populated);
    replay = Replay(captured, records, shadow);
  }
  StepResult final_check;
  w.FinalCheck(final_check);

  const double cap_ops = static_cast<double>(cap1.client.operations -
                                             cap0.client.operations);
  const double cap_messages =
      static_cast<double>(cap1.client.messages - cap0.client.messages);
  const double cap_calls = static_cast<double>(cap1.transport.iod_calls -
                                               cap0.transport.iod_calls);
  const double cap_iod_requests =
      static_cast<double>(cap1.iod_requests - cap0.iod_requests);
  const double timed_ops = static_cast<double>(plain.ops + traced.ops);
  const double timed_calls = static_cast<double>(after.transport.iod_calls -
                                                 before.transport.iod_calls);
  const double ops = static_cast<double>(ledger.ops);
  const double calls = static_cast<double>(ledger.calls);
  const double reconcile = Ratio(ledger.LayerSum(), ledger.op_us);
  const Tail call_tail = TailOf(call_us);
  const double queue_wait = dep.registry ? AdmissionWaitP50(w)
                                         : Median(ledger.dispatch_wait_us);

  Metrics m;
  m.Add("client.requests_per_op",
        Ratio(static_cast<double>(cap1.client.fs_requests -
                                  cap0.client.fs_requests),
              cap_ops),
        "1/op");
  m.Add("client.messages_per_op", Ratio(cap_messages, cap_ops), "1/op");
  m.Add("client.regions_per_message",
        Ratio(static_cast<double>(cap1.client.regions_sent -
                                  cap0.client.regions_sent),
              cap_messages),
        "1/msg");
  m.Add("client.plan_us_per_op",
        Ratio(replay.client_plan_us, static_cast<double>(replay.ops)), "us");
  m.Add("client.self_us_per_op", Ratio(ledger.client_us, ops), "us");
  m.Add("client.retries_per_op",
        Ratio(static_cast<double>(after.retries - before.retries), timed_ops),
        "1/op");
  m.Add("dist.fragments_per_op",
        Ratio(static_cast<double>(replay.fragments),
              static_cast<double>(replay.ops)),
        "1/op");
  m.Add("dist.fragments_us_per_op",
        Ratio(replay.client_fragments_us + replay.server_fragments_us,
              static_cast<double>(replay.ops)),
        "us");
  const double rcalls = static_cast<double>(replay.calls);
  m.Add("codec.encode_us_per_call", Ratio(replay.encode_us, rcalls), "us");
  m.Add("codec.decode_us_per_call", Ratio(replay.decode_us, rcalls), "us");
  m.Add("wire.seal_us_per_call", Ratio(replay.seal_us, rcalls), "us");
  m.Add("wire.open_us_per_call", Ratio(replay.open_us, rcalls), "us");
  m.Add("wire.crc_mb_s", Ratio(replay.crc_bytes, replay.crc_us), "MB/s");
  m.Add("transport.calls_per_op", Ratio(cap_calls, cap_ops), "1/op");
  m.Add("transport.call_us_p50", Median(call_us), "us");
  m.Add("transport.call_us_tail", call_tail.value, "us");
  m.Add("transport.hop_us_per_call", Ratio(ledger.hop_us, calls), "us");
  m.Add("transport.wire_bytes_per_payload_byte",
        Ratio(static_cast<double>(cap1.transport.wire_bytes -
                                  cap0.transport.wire_bytes),
              static_cast<double>(capture.payload)),
        "B/B");
  m.Add("transport.busy_per_call",
        Ratio(static_cast<double>(after.busy - before.busy), timed_calls),
        "1/call");
  m.Add("iod.handle_us_per_call",
        Ratio(ledger.handle_total_us, static_cast<double>(ledger.handles)),
        "us");
  m.Add("iod.serve_us_per_call",
        Ratio(ledger.serve_total_us, static_cast<double>(ledger.serves)), "us");
  m.Add("iod.plan_us_per_call", Ratio(replay.plan_us, rcalls), "us");
  m.Add("iod.store_ops_per_call",
        Ratio(static_cast<double>(cap1.store_ops - cap0.store_ops),
              cap_iod_requests),
        "1/call");
  m.Add("iod.local_accesses_per_call",
        Ratio(static_cast<double>(cap1.local_accesses - cap0.local_accesses),
              cap_iod_requests),
        "1/call");
  m.Add("iod.queue_wait_us_p50", queue_wait, "us");
  m.Add("store.writev_us_per_call",
        Ratio(replay.writev_us, static_cast<double>(replay.writev_calls)),
        "us");
  m.Add("store.read_us_per_call",
        Ratio(replay.read_us, static_cast<double>(replay.read_calls)), "us");
  m.Add("store.read_corruptions", static_cast<double>(cap1.read_corruptions),
        "count");
  m.Add("store.bytes_per_payload_byte", StoreBytesPerPayloadByte(w), "B/B");
  m.Add("manager.calls_per_op",
        Ratio(static_cast<double>(after.transport.manager_calls -
                                  before.transport.manager_calls),
              timed_ops),
        "1/op");
  m.Add("manager.handle_us_per_call",
        Ratio(manager.us, static_cast<double>(manager.count)), "us");
  m.Add("trace.overhead_ratio", Ratio(plain.mb_s(), traced.mb_s()) - 1,
        "ratio");
  m.Add("ledger.op_us_mean", Ratio(ledger.op_us, ops), "us");
  m.Add("ledger.exchange_us_per_op", Ratio(ledger.exchange_us, ops), "us");
  m.Add("ledger.call_us_per_op", Ratio(ledger.call_us, ops), "us");
  m.Add("ledger.hop_us_per_op", Ratio(ledger.hop_us, ops), "us");
  m.Add("ledger.iod_handle_us_per_op", Ratio(ledger.iod_handle_us, ops), "us");
  m.Add("ledger.iod_serve_us_per_op", Ratio(ledger.iod_serve_us, ops), "us");
  m.Add("ledger.other_us_per_op", Ratio(ledger.other_us, ops), "us");
  m.Add("ledger.reconcile_ratio", reconcile, "ratio");
  m.Add("ledger.joined_call_ratio",
        Ratio(static_cast<double>(ledger.joined), calls), "ratio");

  const bool reconciled = ledger.ops > 0 &&
                          std::abs(reconcile - 1) <= kReconcileBound;
  std::printf("# untraced %.4g MB/s over %llu ops, traced %.4g MB/s over "
              "%llu ops; capture %llu ops, %zu frames\n",
              plain.mb_s(), static_cast<unsigned long long>(plain.ops),
              traced.mb_s(), static_cast<unsigned long long>(traced.ops),
              static_cast<unsigned long long>(capture.ops), captured.size());
  std::printf("# ledger: layer self times sum to %.4f of the mean traced op "
              "(bound +-%.2f); call tail is p%.2f of %zu samples; "
              "shadow mismatches %llu\n",
              reconcile, kReconcileBound, call_tail.percentile,
              call_tail.samples,
              static_cast<unsigned long long>(replay.shadow_mismatches));
  const std::uint64_t attempted =
      plain.ops + traced.ops + capture.ops + final_check.ops;
  const std::uint64_t failed =
      plain.failed + traced.failed + capture.failed + final_check.failed;
  const bool correct = failed == 0 && reconciled &&
                       replay.shadow_mismatches == 0;
  PrintResult(correct, std::max<std::uint64_t>(attempted, 1), failed, m);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace layerbench

int main(int argc, char** argv) {
  using namespace layerbench;
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: layerbench --workload <name> --seed <n> --seconds "
                 "<s> --trace <0|1> [--commit <id>]\n");
    return 2;
  }
  const std::string build_type = LAYERBENCH_BUILD_TYPE;
  if (!kOptimized || kSanitized || build_type == "Debug") {
    std::fprintf(stderr,
                 "layerbench: refusing to time a %s%s build; configure "
                 "with -DCMAKE_BUILD_TYPE=RelWithDebInfo or Release\n",
                 build_type.c_str(), kSanitized ? " sanitizer" : "");
    return 3;
  }
  pvfs::obs::SetSpanTracing(false);
  std::unique_ptr<Workload> w = MakeWorkload(args.workload, args.seed);
  if (w == nullptr) {
    std::fprintf(stderr, "layerbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  std::printf("# provenance {\"commit\": \"%s\", \"compiler\": \"%s\", "
              "\"build_type\": \"%s\", \"nproc\": %ld, \"seed\": %llu, "
              "\"workload\": \"%s\", \"trace\": %d, \"seconds\": %g}\n",
              args.commit.c_str(), LAYERBENCH_COMPILER, build_type.c_str(),
              sysconf(_SC_NPROCESSORS_ONLN),
              static_cast<unsigned long long>(args.seed),
              args.workload.c_str(), args.trace ? 1 : 0, args.seconds);
  return args.trace ? RunTraced(*w, args) : RunEndToEnd(*w, args);
}
