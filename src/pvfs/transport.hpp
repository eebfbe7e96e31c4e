// Transport: how encoded request bytes reach a daemon and its response
// comes back. The functional system offers two implementations:
//
//   InProcTransport  — direct synchronous dispatch into daemon objects on
//                      the caller's thread (single-address-space
//                      "cluster"; runtime::ThreadedCluster is one with
//                      admission control in front of every iod).
//   (net/)           — TCP transports to daemons serving real sockets.
//
// Every daemon is internally synchronized, so any transport may call it
// concurrently; no transport serializes service.
//
// The simulator does not use Transport: it consumes planner output and
// charges modeled time instead (src/simcluster).
#pragma once

#include <span>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "pvfs/admission.hpp"
#include "pvfs/iod.hpp"
#include "pvfs/manager.hpp"

namespace pvfs {

/// Address of a daemon: the manager or I/O server `server`.
struct Endpoint {
  bool is_manager = false;
  ServerId server = 0;

  static Endpoint ManagerNode() { return {true, 0}; }
  static Endpoint Iod(ServerId s) { return {false, s}; }

  friend bool operator==(const Endpoint&, const Endpoint&) = default;
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Synchronous RPC: deliver `request` to `dest`, return its encoded
  /// response envelope. Transport-level failures (unknown endpoint) are
  /// returned as error Results; daemon-level errors travel inside the
  /// envelope.
  virtual Result<std::vector<std::byte>> Call(
      const Endpoint& dest, std::span<const std::byte> request) = 0;

  /// Number of I/O daemons reachable through this transport.
  virtual std::uint32_t server_count() const = 0;
};

/// Direct-dispatch transport over daemon objects owned elsewhere; calls
/// run on the caller's thread. `admissions[s]` (when present and not null)
/// admits every call to iod s exactly as net::SocketServer admits a frame:
/// a failed TryAdmit answers with a sealed kBusy envelope, otherwise the
/// call runs between BeginService and Finish.
class InProcTransport final : public Transport {
 public:
  InProcTransport(Manager* manager, std::vector<IoDaemon*> iods,
                  std::vector<AdmissionController*> admissions = {})
      : manager_(manager),
        iods_(std::move(iods)),
        admissions_(std::move(admissions)) {}

  Result<std::vector<std::byte>> Call(
      const Endpoint& dest, std::span<const std::byte> request) override {
    if (dest.is_manager) return manager_->HandleSealedMessage(request);
    if (dest.server >= iods_.size()) {
      return NotFound("no such I/O server");
    }
    IoDaemon* iod = iods_[dest.server];
    AdmissionController* admission =
        dest.server < admissions_.size() ? admissions_[dest.server] : nullptr;
    if (admission == nullptr) return iod->HandleSealedMessage(request);
    AdmissionController::Slot slot{};
    if (!admission->TryAdmit(slot)) return SealedBusyResponse(dest.server);
    admission->BeginService(slot);
    std::vector<std::byte> response = iod->HandleSealedMessage(request);
    admission->Finish(slot);
    return response;
  }

  std::uint32_t server_count() const override {
    return static_cast<std::uint32_t>(iods_.size());
  }

 private:
  Manager* manager_;
  std::vector<IoDaemon*> iods_;
  std::vector<AdmissionController*> admissions_;
};

}  // namespace pvfs
