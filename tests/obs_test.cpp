// Tests for the observability layer (src/obs): metrics registry with
// label canonicalization, JSON model round-trips, span tracing with
// cross-layer request-id propagation, the stats-over-the-wire protocol,
// and regression tests for the bugs this layer's migration surfaced
// (fail-fast retry accounting, synchronized backoff, histogram bound
// canonicalization, empty-accumulator JSON).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "common/request_id.hpp"
#include "common/wire.hpp"
#include "fault/fault.hpp"
#include "fault/fault_transport.hpp"
#include "net/socket_transport.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/stats.hpp"
#include "simcluster/sim_run.hpp"
#include "simcluster/workload_streams.hpp"
#include "test_cluster.hpp"
#include "workloads/cyclic.hpp"

namespace pvfs {
namespace {

using std::chrono::microseconds;

constexpr Striping kStriping{0, 8, 16384};

// ---- Metrics registry ---------------------------------------------------

TEST(Registry, FindOrCreateCanonicalizesLabelOrder) {
  obs::Registry reg;
  obs::Counter& a = reg.Counter("reqs", {{"b", "2"}, {"a", "1"}});
  obs::Counter& b = reg.Counter("reqs", {{"a", "1"}, {"b", "2"}});
  EXPECT_EQ(&a, &b);  // same instrument regardless of label order

  obs::Counter& c = reg.Counter("reqs", {{"a", "1"}, {"b", "3"}});
  EXPECT_NE(&a, &c);
  obs::Counter& d = reg.Counter("other", {{"a", "1"}, {"b", "2"}});
  EXPECT_NE(&a, &d);

  a.Increment(5);
  EXPECT_EQ(b.value(), 5u);
  EXPECT_EQ(c.value(), 0u);
}

TEST(Registry, GaugeSetAndAdd) {
  obs::Registry reg;
  obs::Gauge& g = reg.Gauge("open_files");
  g.Set(7);
  g.Add(-3);
  EXPECT_EQ(g.value(), 4);
  EXPECT_EQ(reg.Gauge("open_files").value(), 4);
}

TEST(Registry, HistogramQuantilesTrackObservations) {
  obs::Registry reg;
  obs::Histogram& h = reg.Histogram("lat", {}, {1.0, 2.0, 4.0, 8.0, 16.0});
  for (int i = 1; i <= 100; ++i) h.Observe(static_cast<double>(i) * 0.1);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.min(), 0.1);
  EXPECT_DOUBLE_EQ(h.max(), 10.0);
  const double p50 = h.Quantile(0.5);
  EXPECT_GE(p50, 2.0);
  EXPECT_LE(p50, 8.0);
  EXPECT_LE(h.Quantile(0.1), h.Quantile(0.9));  // monotone
  EXPECT_GE(h.Quantile(0.0), h.min());
  EXPECT_LE(h.Quantile(1.0), h.max());
}

TEST(Registry, EmptyHistogramReportsNull) {
  obs::Registry reg;
  obs::Histogram& h = reg.Histogram("lat");
  EXPECT_TRUE(std::isnan(h.Quantile(0.5)));
  obs::JsonValue summary = h.SummaryJson();
  ASSERT_NE(summary.Find("min"), nullptr);
  EXPECT_TRUE(summary.Find("min")->is_null());
  EXPECT_TRUE(summary.Find("max")->is_null());
  EXPECT_TRUE(summary.Find("p50")->is_null());
  EXPECT_EQ(summary.Find("count")->as_uint(), 0u);
}

TEST(Registry, SnapshotShape) {
  obs::Registry reg;
  reg.Counter("ops", {{"method", "list"}}).Increment(3);
  reg.Gauge("files").Set(2);
  reg.Histogram("lat").Observe(0.5);

  obs::JsonValue snap = reg.Snapshot();
  ASSERT_TRUE(snap.is_object());
  const obs::JsonValue* counters = snap.Find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_EQ(counters->size(), 1u);
  const obs::JsonValue& row = counters->at(0);
  EXPECT_EQ(row.Find("name")->as_string(), "ops");
  EXPECT_EQ(row.Find("value")->as_uint(), 3u);
  EXPECT_EQ(row.Find("labels")->Find("method")->as_string(), "list");
  EXPECT_EQ(snap.Find("gauges")->size(), 1u);
  EXPECT_EQ(snap.Find("histograms")->size(), 1u);
}

// ---- JSON model ---------------------------------------------------------

TEST(Json, DumpParseRoundTrip) {
  obs::JsonValue root = obs::JsonValue::Object();
  root.Set("str", obs::JsonValue("he\"llo\n\t\\"));
  root.Set("int", obs::JsonValue(std::int64_t{-42}));
  root.Set("uint", obs::JsonValue(std::uint64_t{18446744073709551615ull}));
  root.Set("dbl", obs::JsonValue(1.5));
  root.Set("yes", obs::JsonValue(true));
  root.Set("nil", obs::JsonValue::Null());
  obs::JsonValue arr = obs::JsonValue::Array();
  arr.Append(obs::JsonValue(1));
  arr.Append(obs::JsonValue("two"));
  root.Set("arr", std::move(arr));

  for (int indent : {0, 2}) {
    auto parsed = obs::JsonValue::Parse(root.Dump(indent));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->Find("str")->as_string(), "he\"llo\n\t\\");
    EXPECT_EQ(parsed->Find("int")->as_int(), -42);
    EXPECT_EQ(parsed->Find("uint")->Dump(), "18446744073709551615");
    EXPECT_DOUBLE_EQ(parsed->Find("dbl")->as_double(), 1.5);
    EXPECT_TRUE(parsed->Find("yes")->as_bool());
    EXPECT_TRUE(parsed->Find("nil")->is_null());
    ASSERT_EQ(parsed->Find("arr")->size(), 2u);
    EXPECT_EQ(parsed->Find("arr")->at(1).as_string(), "two");
  }
}

TEST(Json, NanDumpsAsNull) {
  obs::JsonValue v(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(v.Dump(), "null");
}

TEST(Json, ParseRejectsTrailingGarbage) {
  EXPECT_FALSE(obs::JsonValue::Parse("{} x").ok());
  EXPECT_FALSE(obs::JsonValue::Parse("[1,]").ok());
  EXPECT_TRUE(obs::JsonValue::Parse("  {\"a\": [1, 2]}  ").ok());
}

// ---- Export adapters ----------------------------------------------------

TEST(Export, EmptyAccumulatorEmitsNullNotZero) {
  sim::Accumulator acc;
  obs::JsonValue empty = obs::AccumulatorJson(acc);
  EXPECT_TRUE(empty.Find("min")->is_null());
  EXPECT_TRUE(empty.Find("max")->is_null());
  EXPECT_TRUE(empty.Find("mean")->is_null());
  EXPECT_EQ(empty.Find("count")->as_uint(), 0u);

  // A genuine zero sample must NOT read as null — that is the bug: with
  // min()/max() returning 0.0 when empty, the two were indistinguishable.
  acc.Add(0.0);
  obs::JsonValue zero = obs::AccumulatorJson(acc);
  ASSERT_TRUE(zero.Find("min")->is_number());
  EXPECT_DOUBLE_EQ(zero.Find("min")->as_double(), 0.0);
}

TEST(Export, FaultCountersMirrorIntoRegistry) {
  sim::FaultCounters faults;
  faults.frames_dropped = 4;
  faults.retransmits = 2;
  obs::Registry reg;
  obs::ExportFaultCounters(reg, faults, {{"op", "read"}});
  EXPECT_EQ(reg.Counter("fault.frames_dropped", {{"op", "read"}}).value(),
            4u);
  EXPECT_EQ(reg.Counter("fault.retransmits", {{"op", "read"}}).value(), 2u);

  obs::JsonValue json = obs::FaultCountersJson(faults);
  EXPECT_EQ(json.Find("frames_dropped")->as_uint(), 4u);
  EXPECT_EQ(json.Find("total")->as_uint(), faults.total());
}

// ---- sim::Histogram regressions -----------------------------------------

TEST(SimHistogram, CanonicalizesNonIncreasingBounds) {
  // Non-increasing, duplicated and non-finite bounds used to be trusted
  // verbatim, breaking std::upper_bound's sorted-range requirement and
  // silently misbucketing every Add.
  sim::Histogram h({10.0, 1.0, 5.0, 5.0,
                    std::numeric_limits<double>::infinity(),
                    std::numeric_limits<double>::quiet_NaN()});
  EXPECT_EQ(h.bounds(), (std::vector<double>{1.0, 5.0, 10.0}));

  h.Add(0.5);   // bucket (-inf, 1]
  h.Add(3.0);   // bucket (1, 5]
  h.Add(7.0);   // bucket (5, 10]
  h.Add(20.0);  // overflow
  EXPECT_EQ(h.counts(), (std::vector<std::uint64_t>{1, 1, 1, 1}));
}

TEST(SimHistogram, QuantileClampedAndMonotone) {
  sim::Histogram h(sim::LogLatencyBuckets(1e-6, 1e3));
  EXPECT_TRUE(std::isnan(h.Quantile(0.5)));
  for (int i = 0; i < 1000; ++i) h.Add(1e-3 * (1 + i % 10));
  const double p50 = h.Quantile(0.5);
  const double p99 = h.Quantile(0.99);
  EXPECT_GE(p50, h.summary().min());
  EXPECT_LE(p99, h.summary().max());
  EXPECT_LE(p50, p99);
}

// ---- Spans & request-id propagation -------------------------------------

TEST(Spans, DisabledByDefaultRecordsNothing) {
  obs::SetSpanTracing(false);
  (void)obs::DrainSpans();
  {
    PVFS_SPAN("test.noop");
  }
  testutil::InProcCluster cluster;
  Client client = cluster.MakeClient();
  auto fd = client.Create("f", kStriping);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(client.Close(*fd).ok());
  EXPECT_TRUE(obs::DrainSpans().empty());
}

TEST(Spans, NestingDepthAndAmbientRequestId) {
  obs::SetSpanTracing(true);
  (void)obs::DrainSpans();
  {
    obs::RequestIdScope scope(1234);
    PVFS_SPAN("outer");
    {
      PVFS_SPAN("inner");
    }
  }
  obs::SetSpanTracing(false);
  auto spans = obs::DrainSpans();
  ASSERT_EQ(spans.size(), 2u);
  // Drain order is by start time: outer first.
  EXPECT_STREQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].depth, 0u);
  EXPECT_STREQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].depth, 1u);
  EXPECT_EQ(spans[0].request_id, 1234u);
  EXPECT_EQ(spans[1].request_id, 1234u);
  EXPECT_GE(spans[0].duration_ns, spans[1].duration_ns);
}

TEST(Spans, RequestIdPropagatesClientToManagerToIod) {
  testutil::InProcCluster cluster;
  Client client = cluster.MakeClient();

  obs::SetSpanTracing(true);
  (void)obs::DrainSpans();
  auto fd = client.Create("f", kStriping);
  ASSERT_TRUE(fd.ok());
  ByteBuffer data(3 * 16384);
  FillPattern(data, 5, 0);
  ASSERT_TRUE(client.Write(*fd, 0, data).ok());
  ASSERT_TRUE(client.Close(*fd).ok());
  obs::SetSpanTracing(false);

  auto spans = obs::DrainSpans();
  std::vector<std::uint64_t> client_ids;
  bool saw_manager = false;
  bool saw_iod = false;
  for (const auto& s : spans) {
    if (std::string_view(s.name) == "client.call") {
      EXPECT_NE(s.request_id, 0u);
      client_ids.push_back(s.request_id);
    }
  }
  ASSERT_FALSE(client_ids.empty());
  // Every daemon-side span carries the id the client sealed into the
  // frame for that exchange — the cross-layer stitch.
  for (const auto& s : spans) {
    const std::string_view name(s.name);
    if (name != "manager.handle" && name != "iod.handle") continue;
    (name == "manager.handle" ? saw_manager : saw_iod) = true;
    EXPECT_NE(s.request_id, 0u);
    EXPECT_NE(std::find(client_ids.begin(), client_ids.end(), s.request_id),
              client_ids.end())
        << name << " span has request id " << s.request_id
        << " not allocated by any client.call";
  }
  EXPECT_TRUE(saw_manager);
  EXPECT_TRUE(saw_iod);

  obs::JsonValue json = obs::SpansJson(spans);
  ASSERT_TRUE(json.is_array());
  EXPECT_EQ(json.size(), spans.size());
}

TEST(Wire, FrameRoundTripsRequestId) {
  std::vector<std::byte> payload{std::byte{1}, std::byte{2}, std::byte{3}};
  auto sealed = SealFrameWithId(payload, 0xDEADBEEFCAFEull);
  EXPECT_EQ(sealed.size(), payload.size() + kFrameTrailerBytes);
  auto opened = OpenFrameWithId(sealed);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened->request_id, 0xDEADBEEFCAFEull);
  EXPECT_TRUE(std::equal(opened->payload.begin(), opened->payload.end(),
                         payload.begin(), payload.end()));
  // Plain OpenFrame still verifies and strips the whole trailer.
  auto plain = OpenFrame(sealed);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->size(), payload.size());
}

// ---- Stats over the wire (kStats) ---------------------------------------

/// The value of counter `name` with exactly the label set `labels` in a
/// stats body (kStats, obs::StatsBody); a test failure when absent.
std::uint64_t BodyCounter(const obs::JsonValue& body, std::string_view name,
                          const obs::Labels& labels = {}) {
  const obs::JsonValue* rows = body.Find("counters");
  if (rows == nullptr) {
    ADD_FAILURE() << "stats body has no counters";
    return 0;
  }
  for (const obs::JsonValue& row : rows->items()) {
    const obs::JsonValue& got = *row.Find("labels");
    bool match = row.Find("name")->as_string() == name &&
                 got.size() == labels.size();
    for (const obs::Label& label : labels) {
      const obs::JsonValue* value = got.Find(label.key);
      match = match && value != nullptr && value->as_string() == label.value;
    }
    if (match) return row.Find("value")->as_uint();
  }
  ADD_FAILURE() << "stats body has no counter " << name;
  return 0;
}

/// Fetch a daemon's kStats body (server < 0: the manager) and check it is
/// a v2 registry snapshot.
obs::JsonValue FetchStatsBody(Client& client, int server) {
  auto text = client.FetchServerStats(server);
  EXPECT_TRUE(text.ok()) << text.status().ToString();
  if (!text.ok()) return obs::JsonValue::Object();
  auto body = obs::JsonValue::Parse(*text);
  EXPECT_TRUE(body.ok());
  if (!body.ok()) return obs::JsonValue::Object();
  const obs::JsonValue* schema = body->Find("schema");
  EXPECT_TRUE(schema != nullptr && schema->as_string() == obs::kStatsSchema)
      << *text;
  return std::move(*body);
}

/// Write one stripe unit to each of iods 0 and 1 over `transport`, then
/// check the manager's and iod 1's kStats bodies against their counters.
void ExpectStatsBodiesAreRegistries(Transport* transport,
                                    const IoDaemon& iod1) {
  Client client(transport);
  auto fd = client.Create("f", kStriping);
  ASSERT_TRUE(fd.ok());
  ByteBuffer data(2 * 16384);
  FillPattern(data, 9, 0);
  ASSERT_TRUE(client.Write(*fd, 0, data).ok());
  ASSERT_TRUE(client.Close(*fd).ok());

  const obs::JsonValue mgr = FetchStatsBody(client, -1);
  EXPECT_GE(BodyCounter(mgr, "manager.requests"), 2u);  // create+close

  const obs::JsonValue iod = FetchStatsBody(client, 1);
  EXPECT_GT(iod1.stats().requests.load(), 0u);
  EXPECT_EQ(BodyCounter(iod, "iod.requests", {{"server", "1"}}),
            iod1.stats().requests.load());
}

TEST(Stats, FetchServerStatsReturnsParseableJson) {
  {
    SCOPED_TRACE("in-process transport");
    testutil::InProcCluster cluster;
    ExpectStatsBodiesAreRegistries(cluster.transport.get(), *cluster.iods[1]);
  }
  {
    SCOPED_TRACE("TCP transport");
    auto cluster = net::SocketCluster::Start(8);
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    auto transport = (*cluster)->Connect();
    ExpectStatsBodiesAreRegistries(transport.get(), (*cluster)->iod(1));
  }
}

// An abandoned intent that Stage recovers (because a new intent overlaps
// it) is a journal replay like any RecoverStore one. The iod's exports
// read the store's count; the iod used to keep its own copy, fed only by
// RecoverStore, so its registry and kStats body reported 0.
TEST(Stats, RecoveryInsideStageReachesIodExports) {
  testutil::InProcCluster cluster;
  LocalStore& store = cluster.iods[0]->store();
  const LocalStore::IntentId first =
      store.Stage(1, {{0, 400}}, ByteBuffer(400, std::byte{0x11}));
  store.Apply(first, 0, 200);
  store.Abandon(first);
  const LocalStore::IntentId second =
      store.Stage(1, {{100, 200}}, ByteBuffer(200, std::byte{0x22}));
  store.Apply(second, 0, 200);
  store.Commit(second);
  ASSERT_EQ(store.integrity().journal_replays, 1u);

  obs::Registry reg;
  cluster.iods[0]->ExportMetrics(reg);
  EXPECT_EQ(reg.Counter("iod.journal_replays", {{"server", "0"}}).value(), 1u);
  Client client = cluster.MakeClient();
  EXPECT_EQ(BodyCounter(FetchStatsBody(client, 0), "iod.journal_replays",
                        {{"server", "0"}}),
            1u);
}

// The client's counters are lock-free atomics: polling stats(),
// retry_counters() and ExportMetrics while async list writes fan out on
// the pool must neither race nor lose a count.
TEST(Stats, CountersReadWhileAsyncOpsRun) {
  constexpr Striping kFour{0, 4, 1024};
  constexpr std::uint64_t kOps = 8;
  constexpr std::uint64_t kRegions = 16;
  testutil::InProcCluster cluster(4);
  // kOps disjoint list writes; region r lands on iod r % 4.
  std::vector<std::vector<Extent>> files(kOps);
  std::vector<ByteBuffer> data(kOps, ByteBuffer(kRegions * 512));
  const std::vector<Extent> mem = {Extent{0, kRegions * 512}};
  for (std::uint64_t op = 0; op < kOps; ++op) {
    for (std::uint64_t r = 0; r < kRegions; ++r) {
      files[op].push_back({(op * kRegions + r) * 1024, 512});
    }
    FillPattern(data[op], 40 + op, 0);
  }

  Client::Options options;
  options.async_workers = 1;
  options.parallel_fanout = true;
  Client client(cluster.transport.get(), options);
  auto fd = client.Create("async", kFour);
  ASSERT_TRUE(fd.ok());
  std::vector<Client::Operation> ops;
  for (std::uint64_t op = 0; op < kOps; ++op) {
    ops.push_back(client.WriteListAsync(*fd, mem, data[op], files[op]));
  }
  obs::Registry reg;
  bool running = true;
  while (running) {
    running = !std::all_of(ops.begin(), ops.end(),
                           [](const Client::Operation& op) {
                             return op.Test();
                           });
    EXPECT_LE(client.stats().messages, kOps * 4);
    EXPECT_EQ(client.retry_counters().retries, 0u);
    client.ExportMetrics(reg);
  }
  for (Client::Operation& op : ops) ASSERT_TRUE(op.Wait().ok());
  ASSERT_TRUE(client.Close(*fd).ok());

  Client serial = cluster.MakeClient();
  auto sfd = serial.Create("serial", kFour);
  ASSERT_TRUE(sfd.ok());
  for (std::uint64_t op = 0; op < kOps; ++op) {
    ASSERT_TRUE(serial.WriteList(*sfd, mem, data[op], files[op]).ok());
  }
  ASSERT_TRUE(serial.Close(*sfd).ok());

  EXPECT_EQ(client.stats().messages, serial.stats().messages);
  EXPECT_EQ(serial.stats().messages, kOps * 4);
  client.ExportMetrics(reg);
  EXPECT_EQ(reg.Counter("client.messages").value(), kOps * 4);
}

// pvfsd's "stats" command exports every daemon's counters from the stdin
// thread while the socket workers serve requests, so the manager's export
// must be safe against its own service (atomic counters, tables under the
// manager's mutex); TSan checks it.
TEST(Stats, ManagerExportWhileServing) {
  constexpr std::uint32_t kServers = 4;
  constexpr int kThreads = 4;
  constexpr int kRounds = 20;
  auto cluster = net::SocketCluster::Start(kServers);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  net::SocketCluster& daemons = **cluster;

  std::atomic<int> running{kThreads};
  std::atomic<int> failures{0};
  std::vector<std::jthread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      auto transport = daemons.Connect();
      Client client(transport.get());
      const Extent range{0, 4096};
      for (int r = 0; r < kRounds; ++r) {
        const std::string name =
            "c" + std::to_string(t) + "-" + std::to_string(r);
        auto fd = client.Create(name, Striping{0, kServers, 4096});
        const bool ok = fd.ok() && client.Stat(*fd).ok() &&
                        client.LockRange(*fd, range).ok() &&
                        client.UnlockRange(*fd, range).ok() &&
                        client.Close(*fd).ok() && client.Remove(name).ok();
        if (!ok) ++failures;
      }
      --running;
    });
  }
  obs::Registry reg;
  while (running.load() > 0) {
    daemons.manager().ExportMetrics(reg);
    for (ServerId s = 0; s < kServers; ++s) daemons.iod(s).ExportMetrics(reg);
  }
  clients.clear();  // joins

  EXPECT_EQ(failures.load(), 0);
  daemons.manager().ExportMetrics(reg);
  EXPECT_EQ(reg.Counter("manager.creates").value(),
            static_cast<std::uint64_t>(kThreads * kRounds));
  EXPECT_EQ(reg.Gauge("manager.files").value(), 0);
}

TEST(Stats, ComponentsExportMetricsIntoOneRegistry) {
  testutil::InProcCluster cluster;
  Client client = cluster.MakeClient();
  auto fd = client.Create("f", kStriping);
  ASSERT_TRUE(fd.ok());
  ByteBuffer data(2 * 16384);
  FillPattern(data, 3, 0);
  ASSERT_TRUE(client.Write(*fd, 0, data).ok());
  ASSERT_TRUE(client.Close(*fd).ok());

  obs::Registry reg;
  client.ExportMetrics(reg, {{"component", "client"}});
  cluster.manager.ExportMetrics(reg);
  for (auto& iod : cluster.iods) iod->ExportMetrics(reg);

  EXPECT_GE(reg.Counter("client.operations", {{"component", "client"}})
                .value(),
            1u);
  EXPECT_GE(reg.Counter("manager.requests").value(), 2u);
  // The write touched iods 0 and 1; their per-server labels keep the
  // instruments distinct in one registry.
  EXPECT_GE(reg.Counter("iod.bytes_written", {{"server", "0"}}).value(),
            16384u);
  EXPECT_GE(reg.Counter("iod.bytes_written", {{"server", "1"}}).value(),
            16384u);
}

// ---- Bugfix regressions -------------------------------------------------

// ExchangeWithServer with max_attempts <= 1 (fail fast) used to return
// the retryable error WITHOUT counting the exchange as exhausted, so the
// counter under-reported exactly when retries were disabled.
TEST(RetryRegression, FailFastCountsExhaustedAndKeepsOriginalError) {
  testutil::InProcCluster cluster;
  Client reliable = cluster.MakeClient();
  auto fd = reliable.Create("f", kStriping);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(reliable.Close(*fd).ok());

  fault::FaultConfig config;
  config.crash_rate = 1.0;  // every iod call refused with kUnavailable
  config.crash_down_calls = 1000;
  fault::FaultInjector injector(config);
  fault::FaultInjectingTransport faulty(cluster.transport.get(), &injector);

  Client::Options options;
  options.retry.max_attempts = 1;  // historical fail-fast default
  Client client(&faulty, options);
  auto fd2 = client.Open("f");
  ASSERT_TRUE(fd2.ok());
  ByteBuffer data(16384);
  Status s = client.Write(*fd2, 0, data);
  ASSERT_FALSE(s.ok());
  // The original retryable error surfaces unchanged (not rewrapped as
  // kDeadlineExceeded by the retry loop).
  EXPECT_EQ(s.code(), ErrorCode::kUnavailable);
  EXPECT_GE(client.retry_counters().exhausted, 1u);
  EXPECT_EQ(client.retry_counters().retries, 0u);
}

TEST(RetryRegression, ExhaustedBudgetStillCountsWithRetriesEnabled) {
  testutil::InProcCluster cluster;
  Client reliable = cluster.MakeClient();
  auto fd = reliable.Create("f", kStriping);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(reliable.Close(*fd).ok());

  fault::FaultConfig config;
  config.crash_rate = 1.0;
  config.crash_down_calls = 1000;
  fault::FaultInjector injector(config);
  fault::FaultInjectingTransport faulty(cluster.transport.get(), &injector);

  Client::Options options;
  options.retry.max_attempts = 3;
  options.retry.initial_backoff = microseconds{1};
  options.retry.max_backoff = microseconds{8};
  Client client(&faulty, options);
  auto fd2 = client.Open("f");
  ASSERT_TRUE(fd2.ok());
  ByteBuffer data(16384);
  Status s = client.Write(*fd2, 0, data);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kDeadlineExceeded);
  EXPECT_GE(client.retry_counters().exhausted, 1u);
  EXPECT_GE(client.retry_counters().retries, 2u);
}

// Both client backoff loops used pure exponential doubling: concurrent
// clients that failed together retried together, collided again, and
// re-dilated in lockstep. The fix draws decorrelated jitter from the
// deterministic hashed-seed scheme.
TEST(RetryRegression, BackoffDoublesWithJitterOffAndVariesWithJitterOn) {
  auto run_faulty_write = [](Client::RetryPolicy retry) {
    testutil::InProcCluster cluster;
    Client reliable = cluster.MakeClient();
    auto fd = reliable.Create("f", kStriping);
    EXPECT_TRUE(fd.ok());
    EXPECT_TRUE(reliable.Close(*fd).ok());

    fault::FaultConfig config;
    config.crash_rate = 1.0;
    config.crash_down_calls = 1000;
    fault::FaultInjector injector(config);
    fault::FaultInjectingTransport faulty(cluster.transport.get(),
                                          &injector);
    Client::Options options;
    options.retry = retry;
    Client client(&faulty, options);
    auto fd2 = client.Open("f");
    EXPECT_TRUE(fd2.ok());
    ByteBuffer data(16384);
    (void)client.Write(*fd2, 0, data);
    return client.retry_counters();
  };

  Client::RetryPolicy doubling;
  doubling.max_attempts = 4;
  doubling.initial_backoff = microseconds{100};
  doubling.max_backoff = microseconds{10000};
  doubling.jitter = false;
  // Sleeps: 100, 200, 400 — exact doubling from initial.
  EXPECT_EQ(run_faulty_write(doubling).backoff_us, 700u);

  Client::RetryPolicy jittered = doubling;
  jittered.jitter = true;
  const std::uint64_t total = run_faulty_write(jittered).backoff_us;
  // First sleep is always `initial`; each later one is drawn from
  // [initial, min(cap, 3*prev)].
  EXPECT_GE(total, 300u);
  EXPECT_LE(total, 100u + 2 * 10000u);
}

TEST(RetryRegression, JitterDrawsAreDeterministicPerAddress) {
  const double u =
      fault::HashedUniform(1, fault::kSiteRetryBackoff, 42, 2, 0);
  EXPECT_EQ(u, fault::HashedUniform(1, fault::kSiteRetryBackoff, 42, 2, 0));
  EXPECT_GE(u, 0.0);
  EXPECT_LT(u, 1.0);
  // Distinct streams / sequence numbers / seeds decorrelate.
  EXPECT_NE(u, fault::HashedUniform(1, fault::kSiteRetryBackoff, 43, 2, 0));
  EXPECT_NE(u, fault::HashedUniform(1, fault::kSiteRetryBackoff, 42, 3, 0));
  EXPECT_NE(u, fault::HashedUniform(2, fault::kSiteRetryBackoff, 42, 2, 0));
  EXPECT_NE(u, fault::HashedUniform(1, fault::kSiteLockBackoff, 42, 2, 0));
}

// ---- Zero overhead when disabled ----------------------------------------

// The sim results the figures are built from must be bit-identical with
// span tracing on or off: spans observe, they never feed back into
// simulated timing.
TEST(ZeroOverhead, SimResultsIdenticalWithSpansOnOrOff) {
  workloads::CyclicConfig config{4 * 1024 * 1024, 4, 2000};
  simcluster::SimWorkload workload;
  workload.file_regions = [config](Rank r) {
    return std::make_unique<simcluster::CyclicStream>(config, r);
  };
  auto run = [&] {
    return simcluster::RunSimWorkload(simcluster::ChibaCityConfig(4),
                                      io::MethodType::kList, IoOp::kRead,
                                      workload);
  };

  obs::SetSpanTracing(false);
  auto baseline = run();
  obs::SetSpanTracing(true);
  auto traced = run();
  obs::SetSpanTracing(false);
  (void)obs::DrainSpans();

  EXPECT_EQ(baseline.io_seconds, traced.io_seconds);  // bitwise, no epsilon
  EXPECT_EQ(baseline.total_seconds, traced.total_seconds);
  EXPECT_EQ(baseline.counters.fs_requests, traced.counters.fs_requests);
  EXPECT_EQ(baseline.counters.messages, traced.counters.messages);
  EXPECT_EQ(baseline.events, traced.events);
  EXPECT_EQ(baseline.mean_request_latency_s, traced.mean_request_latency_s);
  EXPECT_EQ(baseline.p99_request_latency_s, traced.p99_request_latency_s);
}

}  // namespace
}  // namespace pvfs
