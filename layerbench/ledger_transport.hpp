// LedgerTransport: the benchmark's Transport decorator. It forwards every
// Call to the real transport and observes it from outside the program:
//
//   * counts iod and manager calls and the wire bytes of iod calls;
//   * opens a "bench.transport" span around the forwarded call, so in a
//     traced run the call nests between client.call and iod.handle (and is
//     joined to a remote iod.handle by the sealed request id);
//   * when timing is on, records each iod call's wall time;
//   * when capture is on, keeps copies of iod request and response frames
//     for the per-layer replays (ledger.cpp).
//
// Thread-safe: client threads share one decorator.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "obs/span.hpp"
#include "pvfs/transport.hpp"

namespace layerbench {

class LedgerTransport final : public pvfs::Transport {
 public:
  /// One iod exchange kept for replay.
  struct Captured {
    pvfs::Endpoint dest;
    std::vector<std::byte> request;
    std::vector<std::byte> response;
  };

  struct Counters {
    std::uint64_t iod_calls = 0;
    std::uint64_t manager_calls = 0;
    std::uint64_t wire_bytes = 0;  // iod request + response frame bytes
  };

  explicit LedgerTransport(pvfs::Transport* inner) : inner_(inner) {}

  pvfs::Result<std::vector<std::byte>> Call(
      const pvfs::Endpoint& dest,
      std::span<const std::byte> request) override {
    const auto start = std::chrono::steady_clock::now();
    auto response = TracedCall(dest, request);
    const auto end = std::chrono::steady_clock::now();
    if (dest.is_manager) {
      manager_calls_.fetch_add(1, std::memory_order_relaxed);
      return response;
    }
    iod_calls_.fetch_add(1, std::memory_order_relaxed);
    if (response.ok()) {
      wire_bytes_.fetch_add(request.size() + response->size(),
                            std::memory_order_relaxed);
    }
    if (timing_.load(std::memory_order_relaxed)) {
      std::lock_guard lock(mu_);
      call_us_.push_back(
          std::chrono::duration<double, std::micro>(end - start).count());
    }
    if (capture_.load(std::memory_order_relaxed) && response.ok()) {
      std::lock_guard lock(mu_);
      captured_.push_back(
          {dest, {request.begin(), request.end()}, response.value()});
    }
    return response;
  }

  std::uint32_t server_count() const override {
    return inner_->server_count();
  }

  void set_timing(bool on) { timing_.store(on, std::memory_order_relaxed); }
  void set_capture(bool on) { capture_.store(on, std::memory_order_relaxed); }

  Counters counters() const {
    return {iod_calls_.load(), manager_calls_.load(), wire_bytes_.load()};
  }

  /// Wall times (us) of the iod calls made while timing was on.
  std::vector<double> TakeCallMicros() {
    std::lock_guard lock(mu_);
    return std::exchange(call_us_, {});
  }

  /// The exchanges captured while capture was on, in completion order.
  std::vector<Captured> TakeCaptured() {
    std::lock_guard lock(mu_);
    return std::exchange(captured_, {});
  }

 private:
  pvfs::Result<std::vector<std::byte>> TracedCall(
      const pvfs::Endpoint& dest, std::span<const std::byte> request) {
    PVFS_SPAN("bench.transport");
    return inner_->Call(dest, request);
  }

  pvfs::Transport* inner_;
  std::atomic<bool> timing_{false};
  std::atomic<bool> capture_{false};
  std::atomic<std::uint64_t> iod_calls_{0};
  std::atomic<std::uint64_t> manager_calls_{0};
  std::atomic<std::uint64_t> wire_bytes_{0};
  std::mutex mu_;  // guards call_us_ and captured_
  std::vector<double> call_us_;
  std::vector<Captured> captured_;
};

}  // namespace layerbench
