// Event-driven transport tests: incremental frame reassembly under
// adversarial byte splits, interleaved multiplexed requests on one
// connection, request-id correlation, slow-reader backpressure, clean
// shutdown with requests in flight, and start/stop races — the
// deterministic proof obligations of the epoll server and the
// multiplexed client.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "common/wire.hpp"
#include "fault/fault.hpp"
#include "fault/fault_transport.hpp"
#include "net/framing.hpp"
#include "net/mux_transport.hpp"
#include "net/socket_transport.hpp"
#include "pvfs/admission.hpp"
#include "pvfs/client.hpp"

namespace pvfs::net {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;

constexpr Striping kDefault{0, 4, 16384};  // matches the 4-iod clusters here

std::vector<std::byte> Pattern(std::size_t n, std::uint64_t seed) {
  std::vector<std::byte> out(n);
  FillPattern(out, seed, 0);
  return out;
}

/// Spin until `done` holds or ~2 s elapse; returns the final verdict.
template <typename F>
bool EventuallyTrue(F done) {
  for (int i = 0; i < 2000; ++i) {
    if (done()) return true;
    std::this_thread::sleep_for(milliseconds(1));
  }
  return done();
}

// ---- FrameDecoder ----------------------------------------------------------

TEST(FrameDecoder, ByteAtATimeReassembly) {
  std::vector<std::vector<std::byte>> payloads = {
      Pattern(1, 1), Pattern(300, 2), Pattern(4096, 3)};
  std::vector<std::byte> stream;
  for (const auto& p : payloads) {
    auto framed = EncodeFrame(p);
    stream.insert(stream.end(), framed.begin(), framed.end());
  }

  FrameDecoder decoder;
  std::vector<std::vector<std::byte>> got;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    ASSERT_TRUE(decoder.Feed({&stream[i], 1}).ok());
    while (auto frame = decoder.Next()) got.push_back(std::move(*frame));
    // Mid-frame the partial flag must report the buffered fragment.
    if (got.size() < payloads.size() && i + 1 < stream.size()) {
      EXPECT_TRUE(decoder.has_partial() || decoder.has_ready() ||
                  got.size() > 0 || i < kFrameHeaderBytes);
    }
  }
  ASSERT_EQ(got.size(), payloads.size());
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(got[i], payloads[i]) << "frame " << i;
  }
  EXPECT_EQ(decoder.frames_decoded(), payloads.size());
  EXPECT_FALSE(decoder.has_partial());
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(FrameDecoder, EverySplitPointOfATwoFrameStream) {
  auto a = Pattern(50, 7);
  auto b = Pattern(9, 8);
  std::vector<std::byte> stream = EncodeFrame(a);
  auto fb = EncodeFrame(b);
  stream.insert(stream.end(), fb.begin(), fb.end());

  for (std::size_t split = 0; split <= stream.size(); ++split) {
    FrameDecoder decoder;
    ASSERT_TRUE(decoder.Feed({stream.data(), split}).ok());
    ASSERT_TRUE(
        decoder.Feed({stream.data() + split, stream.size() - split}).ok());
    auto first = decoder.Next();
    auto second = decoder.Next();
    ASSERT_TRUE(first.has_value()) << "split " << split;
    ASSERT_TRUE(second.has_value()) << "split " << split;
    EXPECT_EQ(*first, a) << "split " << split;
    EXPECT_EQ(*second, b) << "split " << split;
    EXPECT_FALSE(decoder.Next().has_value());
  }
}

TEST(FrameDecoder, ZeroLengthFramesAreDelivered) {
  FrameDecoder decoder;
  std::vector<std::byte> empty;
  auto framed = EncodeFrame(empty);
  ASSERT_TRUE(decoder.Feed(framed).ok());
  auto frame = decoder.Next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_TRUE(frame->empty());
  EXPECT_EQ(decoder.frames_decoded(), 1u);
}

TEST(FrameDecoder, HostileLengthRejectedBeforeAllocation) {
  // A length prefix claiming 4 GiB must fail the moment the header
  // completes — no payload allocation, no waiting for bytes that will
  // never come.
  FrameDecoder decoder;
  unsigned char header[kFrameHeaderBytes] = {0xff, 0xff, 0xff, 0xff};
  Status fed = decoder.Feed(
      {reinterpret_cast<const std::byte*>(header), sizeof header});
  EXPECT_EQ(fed.code(), ErrorCode::kProtocol);
  EXPECT_TRUE(decoder.failed());
  EXPECT_LE(decoder.buffered_bytes(), kFrameHeaderBytes);
  // A failed decoder stays failed.
  std::byte more[16] = {};
  EXPECT_FALSE(decoder.Feed(more).ok());
}

TEST(FrameDecoder, InRangeButOversizeLengthNeverBuffersThePayload) {
  // 200 MiB claimed against a 1 MiB limit: rejected at header time even
  // though the value parses as a plausible u32.
  FrameDecoder decoder(1u << 20);
  auto framed = EncodeFrame(Pattern(8, 1));
  framed[2] = std::byte{0x80};  // length byte 2: now claims ~8 MiB
  EXPECT_FALSE(decoder.Feed(framed).ok());
  EXPECT_TRUE(decoder.failed());
  EXPECT_LE(decoder.buffered_bytes(), kFrameHeaderBytes);
}

// ---- Event server: partial delivery + interleaving -------------------------

TEST(EventTransport, PartialFrameDeliveryByteAtATime) {
  obs::Registry registry;
  SocketServer::Options options;
  options.registry = &registry;
  options.metric_labels = {{"server", "t"}};
  auto server = SocketServer::Start(
      0,
      [](std::span<const std::byte> req) {
        return std::vector<std::byte>(req.begin(), req.end());
      },
      nullptr, 0, options);
  ASSERT_TRUE(server.ok());

  auto fd = ConnectSocket({"127.0.0.1", (*server)->port()},
                          milliseconds(2000), /*arm_receive_timeout=*/true);
  ASSERT_TRUE(fd.ok());
  EXPECT_TRUE(EventuallyTrue([&] { return (*server)->open_connections() == 1; }));

  // Trickle an entire frame one byte per send: the server must reassemble
  // across dozens of readiness events.
  auto payload = Pattern(257, 42);
  auto framed = EncodeFrame(payload);
  for (std::size_t i = 0; i < framed.size(); ++i) {
    ASSERT_EQ(::send(*fd, &framed[i], 1, MSG_NOSIGNAL), 1);
  }
  auto reply = RecvFrame(*fd);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(*reply, payload);

  EXPECT_GT(registry.Counter("iod.transport.partial_frames",
                             {{"server", "t"}})
                .value(),
            0u);
  EXPECT_GT(registry.Counter("iod.transport.readable_events",
                             {{"server", "t"}})
                .value(),
            0u);

  ::close(*fd);
  EXPECT_TRUE(EventuallyTrue([&] { return (*server)->open_connections() == 0; }));
  EXPECT_EQ((*server)->connections_served(), 1u);
}

TEST(EventTransport, InterleavedPipelinedRequestsCorrelate) {
  // One connection, many logical requests in flight: the service answers
  // under the request's own id and every pipelined reply must land with
  // the right correlation id and the right body.
  constexpr int kRequests = 24;
  SocketServer::Options options;
  options.worker_threads = 2;
  options.correlate_responses = true;
  auto server = SocketServer::Start(
      0,
      [](std::span<const std::byte> req) -> std::vector<std::byte> {
        auto opened = OpenFrameWithId(req);
        if (!opened.ok()) return SealFrame({});
        std::vector<std::byte> body(opened->payload.begin(),
                                    opened->payload.end());
        std::reverse(body.begin(), body.end());
        return SealFrameWithId(std::move(body), opened->request_id);
      },
      nullptr, 0, options);
  ASSERT_TRUE(server.ok());

  auto fd = ConnectSocket({"127.0.0.1", (*server)->port()},
                          milliseconds(2000), /*arm_receive_timeout=*/true);
  ASSERT_TRUE(fd.ok());

  std::map<std::uint64_t, std::vector<std::byte>> bodies;
  for (int i = 0; i < kRequests; ++i) {
    const std::uint64_t id = 1000 + i;
    bodies[id] = Pattern(64 + i * 13, id);
    auto sealed = SealFrameWithId(bodies[id], id);
    ASSERT_TRUE(SendFrame(*fd, sealed).ok());  // pipelined: no read yet
  }
  std::set<std::uint64_t> seen;
  for (int i = 0; i < kRequests; ++i) {
    auto reply = RecvFrame(*fd);
    ASSERT_TRUE(reply.ok());
    auto opened = OpenFrameWithId(*reply);
    ASSERT_TRUE(opened.ok());
    auto it = bodies.find(opened->request_id);
    ASSERT_NE(it, bodies.end()) << "unknown reply id " << opened->request_id;
    EXPECT_TRUE(seen.insert(opened->request_id).second)
        << "duplicate reply for id " << opened->request_id;
    std::vector<std::byte> expect = it->second;
    std::reverse(expect.begin(), expect.end());
    EXPECT_TRUE(std::equal(opened->payload.begin(), opened->payload.end(),
                           expect.begin(), expect.end()))
        << "body mismatch for id " << opened->request_id;
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kRequests));
  ::close(*fd);
}

TEST(EventTransport, ResealStampsRequestIdOnAmbientlessReplies) {
  // The service thread has no ambient request id (it seals with id 0, as
  // a handler does when the request failed its CRC before the id could be
  // adopted); correlate_responses must re-seal the reply so it still
  // reaches the right waiter.
  SocketServer::Options options;
  options.correlate_responses = true;
  auto server = SocketServer::Start(
      0,
      [](std::span<const std::byte>) { return SealFrame(Pattern(16, 5)); },
      nullptr, 0, options);
  ASSERT_TRUE(server.ok());

  auto fd = ConnectSocket({"127.0.0.1", (*server)->port()},
                          milliseconds(2000), /*arm_receive_timeout=*/true);
  ASSERT_TRUE(fd.ok());
  auto sealed = SealFrameWithId(Pattern(32, 6), 7777);
  ASSERT_TRUE(SendFrame(*fd, sealed).ok());
  auto reply = RecvFrame(*fd);
  ASSERT_TRUE(reply.ok());
  auto opened = OpenFrameWithId(*reply);
  ASSERT_TRUE(opened.ok());  // re-seal must produce a valid CRC
  EXPECT_EQ(opened->request_id, 7777u);
  ::close(*fd);
}

// ---- Backpressure ----------------------------------------------------------

TEST(EventTransport, SlowReaderBackpressureBoundsWriteBuffer) {
  // 64 pipelined requests, each answered with 32 KiB, against a 64 KiB
  // write-buffer cap and an in-flight budget of 4 — while the client
  // refuses to read. Unbounded buffering would reach ~2 MiB; the pump
  // must park frames in the decoder and hold the high-water mark near
  // cap + inflight * response.
  constexpr int kRequests = 64;
  constexpr std::size_t kResponseBytes = 32 * 1024;
  SocketServer::Options options;
  options.worker_threads = 1;
  options.max_inflight_per_connection = 4;
  options.max_write_buffer_bytes = 64 * 1024;
  const auto big = Pattern(kResponseBytes, 11);
  auto server = SocketServer::Start(
      0, [big](std::span<const std::byte>) { return big; }, nullptr, 0,
      options);
  ASSERT_TRUE(server.ok());

  auto fd = ConnectSocket({"127.0.0.1", (*server)->port()},
                          milliseconds(5000), /*arm_receive_timeout=*/true);
  ASSERT_TRUE(fd.ok());
  auto request = Pattern(32, 12);
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(SendFrame(*fd, request).ok());
  }
  // Let the server run as far ahead as its budgets allow.
  std::this_thread::sleep_for(milliseconds(300));
  const std::uint64_t high_water = (*server)->max_write_buffered();
  // Structural bound: cap, plus one response per in-flight slot that can
  // complete after the cap is crossed, plus framing slack.
  EXPECT_LE(high_water,
            64 * 1024 + 5 * (kResponseBytes + 64) + 4096)
      << "backpressure failed to bound the response buffer";
  EXPECT_LT(high_water, static_cast<std::uint64_t>(kRequests) *
                            kResponseBytes / 2);

  // Now drain: every reply still arrives, in order, intact.
  for (int i = 0; i < kRequests; ++i) {
    auto reply = RecvFrame(*fd);
    ASSERT_TRUE(reply.ok()) << "reply " << i;
    ASSERT_EQ(reply->size(), kResponseBytes) << "reply " << i;
    EXPECT_EQ(*reply, big) << "reply " << i;
  }
  ::close(*fd);
}

// ---- Shutdown --------------------------------------------------------------

TEST(EventTransport, CleanShutdownDrainsInflightRequests) {
  // Destroy the server while requests are mid-service: the destructor
  // must join the poller and let the workers drain every dispatched
  // request so admission accounting closes (depth back to zero), without
  // deadlock and without delivering the orphaned responses.
  obs::Registry registry;
  AdmissionController admission(0, /*max_depth=*/0, &registry);
  std::atomic<int> served{0};
  SocketServer::Options options;
  options.worker_threads = 2;
  auto server = SocketServer::Start(
      0,
      [&served](std::span<const std::byte> req) {
        std::this_thread::sleep_for(milliseconds(5));
        ++served;
        return std::vector<std::byte>(req.begin(), req.end());
      },
      &admission, 0, options);
  ASSERT_TRUE(server.ok());

  auto fd = ConnectSocket({"127.0.0.1", (*server)->port()},
                          milliseconds(2000), /*arm_receive_timeout=*/true);
  ASSERT_TRUE(fd.ok());
  auto request = Pattern(128, 21);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(SendFrame(*fd, request).ok());
  }
  ASSERT_TRUE(EventuallyTrue([&] { return served.load() >= 1; }));

  server->reset();  // in-flight requests exist right now

  EXPECT_EQ(admission.depth(), 0) << "admission queue not drained";
  EXPECT_EQ(admission.admitted(), static_cast<std::uint64_t>(served.load()))
      << "every admitted request must have been serviced by the drain";
  ::close(*fd);
}

TEST(EventTransport, RepeatedStartStopStress) {
  // The blocking-accept transport could race Stop() against ::accept;
  // with the listen fd in the epoll set, start/stop must be safe at any
  // frequency, with and without live connections.
  for (int i = 0; i < 30; ++i) {
    auto server = SocketServer::Start(
        0, [](std::span<const std::byte> req) {
          return std::vector<std::byte>(req.begin(), req.end());
        });
    ASSERT_TRUE(server.ok());
    // Immediately destroyed: the poller may not even have run yet.
  }
  for (int i = 0; i < 30; ++i) {
    auto server = SocketServer::Start(
        0, [](std::span<const std::byte> req) {
          return std::vector<std::byte>(req.begin(), req.end());
        });
    ASSERT_TRUE(server.ok());
    auto fd = ConnectSocket({"127.0.0.1", (*server)->port()},
                            milliseconds(2000),
                            /*arm_receive_timeout=*/true);
    ASSERT_TRUE(fd.ok());
    auto payload = Pattern(64, i);
    ASSERT_TRUE(SendFrame(*fd, payload).ok());
    auto reply = RecvFrame(*fd);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(*reply, payload);
    ::close(*fd);
    // Server destroyed with the connection possibly still registered.
  }
}

// ---- Multiplexed client ----------------------------------------------------

TEST(EventMux, SharedTransportConcurrentClients) {
  constexpr int kThreads = 4;
  auto cluster = SocketCluster::Start(4);
  ASSERT_TRUE(cluster.ok());
  ClientConfig config;
  config.multiplex = true;
  config.call_timeout = milliseconds(5000);
  config.max_inflight = 64;
  auto transport = (*cluster)->Connect(config);

  std::atomic<int> failures{0};
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        Client client(transport.get());
        auto fd = client.Create("/mux/file" + std::to_string(t), kDefault);
        if (!fd.ok()) {
          ++failures;
          return;
        }
        ByteBuffer data(200000);
        FillPattern(data, 40 + t, 0);
        ByteBuffer back(data.size());
        if (!client.Write(*fd, 0, data).ok() ||
            !client.Read(*fd, 0, back).ok() || back != data) {
          ++failures;
        }
      });
    }
  }
  EXPECT_EQ(failures.load(), 0);

  auto* mux = dynamic_cast<MuxSocketTransport*>(transport.get());
  ASSERT_NE(mux, nullptr);
  auto stats = mux->stats();
  EXPECT_GT(stats.requests, 0u);
  EXPECT_EQ(stats.responses_matched, stats.requests)
      << "every request must get its own correlated reply";
  EXPECT_EQ(stats.responses_dropped, 0u);
}

TEST(EventMux, TimeoutDropsLateReplyWithoutPoisoningTheStream) {
  // First request stalls past the client deadline; the waiter gives up,
  // the late reply is counted and dropped, and the next exchange on the
  // same connection is unaffected.
  std::atomic<int> calls{0};
  auto server = SocketServer::Start(
      0, [&calls](std::span<const std::byte> req) {
        if (calls.fetch_add(1) == 0) {
          std::this_thread::sleep_for(milliseconds(120));
        }
        return std::vector<std::byte>(req.begin(), req.end());
      });
  ASSERT_TRUE(server.ok());

  ClientConfig config;
  config.multiplex = true;
  config.call_timeout = milliseconds(25);
  MuxSocketTransport mux({"127.0.0.1", (*server)->port()}, {}, config);

  auto slow = SealFrameWithId(Pattern(16, 1), 101);
  auto timed_out = mux.Call(Endpoint::ManagerNode(), slow);
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), ErrorCode::kDeadlineExceeded);

  // Let the stalled reply arrive (and be dropped).
  ASSERT_TRUE(EventuallyTrue(
      [&] { return mux.stats().responses_dropped >= 1; }));

  auto fast = SealFrameWithId(Pattern(16, 2), 102);
  auto reply = mux.Call(Endpoint::ManagerNode(), fast);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(*reply, fast);
  auto stats = mux.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.responses_matched, 1u);
  EXPECT_GE(stats.responses_dropped, 1u);
}

TEST(EventMux, ReconnectsAfterServerRestart) {
  auto echo = [](std::span<const std::byte> req) {
    return std::vector<std::byte>(req.begin(), req.end());
  };
  auto server = SocketServer::Start(0, echo);
  ASSERT_TRUE(server.ok());
  const std::uint16_t port = (*server)->port();

  ClientConfig config;
  config.multiplex = true;
  config.call_timeout = milliseconds(2000);
  MuxSocketTransport mux({"127.0.0.1", port}, {}, config);

  auto first = SealFrameWithId(Pattern(16, 1), 201);
  ASSERT_TRUE(mux.Call(Endpoint::ManagerNode(), first).ok());

  server->reset();
  server = SocketServer::Start(port, echo);
  ASSERT_TRUE(server.ok());

  // The first call after the crash may race the reader noticing the dead
  // connection; retryable failures are part of the contract.
  bool recovered = false;
  for (int attempt = 0; attempt < 10 && !recovered; ++attempt) {
    auto sealed = SealFrameWithId(Pattern(16, 2), 300 + attempt);
    auto reply = mux.Call(Endpoint::ManagerNode(), sealed);
    if (reply.ok()) {
      EXPECT_EQ(*reply, sealed);
      recovered = true;
    } else {
      EXPECT_TRUE(IsRetryable(reply.status().code()))
          << reply.status().message();
      std::this_thread::sleep_for(milliseconds(10));
    }
  }
  EXPECT_TRUE(recovered);
  EXPECT_GE(mux.stats().reconnects, 2u);
}

TEST(EventMux, TimedOutWaiterThenReconnectKeepsStreamClean) {
  // Satellite audit regression (async pipeline PR): a waiter that timed
  // out and DEREGISTERED itself, followed by a connection death and
  // reconnect, must not leave a stale request-id behind that could match
  // a post-reconnect reply. Sequence: stall the first reply past the
  // client deadline, kill the server while the stale reply may still be
  // in flight, restart on the same port, then drive fresh exchanges —
  // every one must echo its OWN sealed frame.
  std::atomic<int> calls{0};
  auto stall_first = [&calls](std::span<const std::byte> req) {
    if (calls.fetch_add(1) == 0) {
      std::this_thread::sleep_for(milliseconds(150));
    }
    return std::vector<std::byte>(req.begin(), req.end());
  };
  auto server = SocketServer::Start(0, stall_first);
  ASSERT_TRUE(server.ok());
  const std::uint16_t port = (*server)->port();

  ClientConfig config;
  config.multiplex = true;
  config.call_timeout = milliseconds(25);
  MuxSocketTransport mux({"127.0.0.1", port}, {}, config);

  auto stalled = SealFrameWithId(Pattern(24, 9), 901);
  auto timed_out = mux.Call(Endpoint::ManagerNode(), stalled);
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), ErrorCode::kDeadlineExceeded);

  // Kill the server while the stalled service call is still sleeping;
  // ~SocketServer drains it, so the stale reply dies with the socket.
  server->reset();
  server = SocketServer::Start(port, stall_first);
  ASSERT_TRUE(server.ok());

  // Post-reconnect exchanges: each must match itself.
  bool recovered = false;
  for (int attempt = 0; attempt < 20; ++attempt) {
    auto sealed = SealFrameWithId(Pattern(24, 10 + attempt),
                                  1000 + static_cast<std::uint64_t>(attempt));
    auto reply = mux.Call(Endpoint::ManagerNode(), sealed);
    if (reply.ok()) {
      // The correlation invariant under audit: never someone else's frame.
      ASSERT_EQ(*reply, sealed) << "attempt " << attempt;
      recovered = true;
      break;
    }
    EXPECT_TRUE(IsRetryable(reply.status().code())) << reply.status().message();
    std::this_thread::sleep_for(milliseconds(10));
  }
  EXPECT_TRUE(recovered);

  auto stats = mux.stats();
  EXPECT_GE(stats.reconnects, 2u);  // initial connect + post-crash reconnect
  EXPECT_GE(stats.responses_matched, 1u);
  // The timed-out waiter deregistered itself, so its reply (if it ever
  // arrived) was counted dropped, not matched to a later request.
  EXPECT_LE(stats.responses_dropped, 1u);
}

// ---- Chaos through the event loop ------------------------------------------

Client::Options ChaosClientOptions(std::uint64_t jitter_seed) {
  Client::Options options;
  options.retry.max_attempts = 10'000;  // shed/fault != fail
  options.retry.initial_backoff = microseconds(1);
  options.retry.max_backoff = microseconds(100);
  options.retry.jitter_seed = jitter_seed;
  return options;
}

TEST(EventChaos, MuxClusterFaultInjectionUnderLoad) {
  // The PR 1 fault injector in front of the multiplexed client: dropped,
  // duplicated, delayed, corrupted and truncated frames all flow through
  // the epoll server, and every byte still lands.
  constexpr int kThreads = 4;
  auto cluster = SocketCluster::Start(4);
  ASSERT_TRUE(cluster.ok());
  ClientConfig config;
  config.multiplex = true;
  config.call_timeout = milliseconds(5000);
  auto transport = (*cluster)->Connect(config);

  fault::FaultConfig faults;
  faults.seed = 4242;
  faults.drop_rate = 0.05;
  faults.duplicate_rate = 0.05;
  faults.delay_rate = 0.2;
  faults.delay_min_us = 20;
  faults.delay_max_us = 200;
  faults.frame_corrupt_rate = 0.05;
  faults.frame_truncate_rate = 0.02;
  fault::FaultInjector injector(faults);

  std::atomic<int> failures{0};
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        fault::FaultInjectingTransport chaos(transport.get(), &injector);
        Client client(&chaos, ChaosClientOptions(700 + t));
        auto fd = client.Create("/chaos/mux" + std::to_string(t), kDefault);
        if (!fd.ok()) {
          ++failures;
          return;
        }
        ByteBuffer data(64 * 1024);
        FillPattern(data, 900 + t, 0);
        ByteBuffer back(data.size());
        if (!client.Write(*fd, 0, data).ok() ||
            !client.Read(*fd, 0, back).ok() ||
            FindPatternMismatch(back, 900 + t, 0).has_value()) {
          ++failures;
        }
      });
    }
  }
  EXPECT_EQ(failures.load(), 0);

  auto* mux = dynamic_cast<MuxSocketTransport*>(transport.get());
  ASSERT_NE(mux, nullptr);
  EXPECT_GT(mux->stats().requests, 0u);
}

TEST(EventChaos, CrashRestartThroughEventLoop) {
  auto cluster = SocketCluster::Start(2);
  ASSERT_TRUE(cluster.ok());
  ClientConfig config;
  config.multiplex = true;
  config.call_timeout = milliseconds(2000);
  auto transport = (*cluster)->Connect(config);
  Client client(transport.get(),
                Client::Options{});  // no retries: observe the outage

  auto fd = client.Create("/chaos/crash", Striping{0, 2, 16384});
  ASSERT_TRUE(fd.ok());
  ByteBuffer data(128 * 1024);
  FillPattern(data, 77, 0);
  ASSERT_TRUE(client.Write(*fd, 0, data).ok());

  ASSERT_TRUE((*cluster)->StopIod(0).ok());
  ByteBuffer back(data.size());
  auto while_down = client.Read(*fd, 0, back);
  ASSERT_FALSE(while_down.ok());
  EXPECT_TRUE(IsRetryable(while_down.code()))
      << while_down.message();

  ASSERT_TRUE((*cluster)->RestartIod(0).ok());
  Client retrying(transport.get(), ChaosClientOptions(5));
  auto rfd = retrying.Open("/chaos/crash");  // fds are per-Client
  ASSERT_TRUE(rfd.ok());
  ASSERT_TRUE(retrying.Read(*rfd, 0, back).ok());
  EXPECT_FALSE(FindPatternMismatch(back, 77, 0).has_value());
}

TEST(EventChaos, MuxBoundedQueueUnderLoad) {
  // The AdmissionChaos bounded-queue scenario, but over one shared
  // multiplexed connection per daemon instead of a transport per thread:
  // depth-1 queues shed, clients retry through kBusy, all bytes land,
  // and the queues drain to zero.
  constexpr std::uint32_t kServers = 2;
  constexpr int kThreads = 6;
  constexpr int kOpsPerThread = 8;
  constexpr ByteCount kBytesPerOp = 4096;

  ServerConfig server_config;
  server_config.max_queue_depth = 1;
  obs::Registry registry;
  auto cluster = SocketCluster::Start(kServers, server_config, 0, &registry);
  ASSERT_TRUE(cluster.ok());

  ClientConfig config;
  config.multiplex = true;
  config.call_timeout = milliseconds(5000);
  auto transport = (*cluster)->Connect(config);

  Client setup(transport.get(), ChaosClientOptions(1));
  auto fd = setup.Create("/chaos/bounded", Striping{0, kServers, 512});
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(setup.Close(*fd).ok());

  std::atomic<int> failures{0};
  std::barrier sync(kThreads);
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        Client client(transport.get(), ChaosClientOptions(100 + t));
        auto my_fd = client.Open("/chaos/bounded");
        if (!my_fd.ok()) {
          ++failures;
          return;
        }
        sync.arrive_and_wait();  // maximum collision pressure
        ByteBuffer data(kBytesPerOp);
        ByteBuffer back(kBytesPerOp);
        for (int op = 0; op < kOpsPerThread; ++op) {
          FileOffset at = static_cast<FileOffset>(t) * kOpsPerThread *
                              kBytesPerOp +
                          static_cast<FileOffset>(op) * kBytesPerOp;
          FillPattern(data, 1000 + t * kOpsPerThread + op, at);
          if (!client.Write(*my_fd, at, data).ok() ||
              !client.Read(*my_fd, at, back).ok() || back != data) {
            ++failures;
            return;
          }
        }
      });
    }
  }
  ASSERT_EQ(failures.load(), 0);

  Client verify(transport.get(), ChaosClientOptions(2));
  auto vfd = verify.Open("/chaos/bounded");
  ASSERT_TRUE(vfd.ok());
  ByteBuffer back(kBytesPerOp);
  for (int t = 0; t < kThreads; ++t) {
    for (int op = 0; op < kOpsPerThread; ++op) {
      FileOffset at = static_cast<FileOffset>(t) * kOpsPerThread *
                          kBytesPerOp +
                      static_cast<FileOffset>(op) * kBytesPerOp;
      ASSERT_TRUE(verify.Read(*vfd, at, back).ok());
      EXPECT_FALSE(
          FindPatternMismatch(back, 1000 + t * kOpsPerThread + op, at)
              .has_value())
          << "thread " << t << " op " << op;
    }
  }

  std::uint64_t rejected = 0;
  for (ServerId s = 0; s < kServers; ++s) {
    rejected += (*cluster)->admission(s).rejected();
    EXPECT_EQ((*cluster)->admission(s).depth(), 0)
        << "server " << s << " queue not drained";
  }
  EXPECT_GT(rejected, 0u)
      << "bounded queue never shed under multiplexed load";
}

}  // namespace
}  // namespace pvfs::net
