#include "src/transport/peer_link.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "src/obs/registry.h"
#include "src/obs/trace.h"
#include "src/util/logging.h"

namespace vuvuzela::transport {

PeerLink::PeerLink(const std::string& kind, TcpTransportConfig config, ReconnectPolicy policy,
                   obs::Counter* reconnects)
    : label_(kind + " " + config.host + ":" + std::to_string(config.port)),
      config_(std::move(config)),
      policy_(policy),
      reconnect_counter_(reconnects) {
  policy_.max_call_attempts = std::max(policy_.max_call_attempts, 1);
  policy_.backoff_initial_ms = std::max(policy_.backoff_initial_ms, 1);
  policy_.backoff_max_ms = std::max(policy_.backoff_max_ms, policy_.backoff_initial_ms);
}

void PeerLink::BackOffLocked() {
  // The first failure waits the initial value; doubling starts with the
  // second.
  ++consecutive_failures_;
  int backoff = policy_.backoff_initial_ms;
  for (int i = 1; i < consecutive_failures_ && backoff < policy_.backoff_max_ms; ++i) {
    backoff *= 2;
  }
  next_connect_attempt_ =
      Clock::now() + std::chrono::milliseconds(std::min(backoff, policy_.backoff_max_ms));
}

bool PeerLink::TryConnectLocked(uint64_t round) {
  auto conn = net::TcpConnection::Connect(config_.host, config_.port, config_.connect_timeout_ms);
  if (!conn) {
    BackOffLocked();
    return false;
  }
  if (config_.recv_timeout_ms > 0) {
    conn->SetRecvTimeout(config_.recv_timeout_ms);
  }
  conn_ = std::move(*conn);
  consecutive_failures_ = 0;
  next_connect_attempt_ = Clock::time_point{};
  if (ever_connected_) {
    ++reconnects_;
    if (reconnect_counter_ != nullptr) {
      reconnect_counter_->Add();
    }
    VZ_LOG_INFO << label_ << ": reconnected";
    obs::TraceJournal::Global().Emit(round, "rpc/reconnect", "peer=" + label_);
  }
  ever_connected_ = true;
  return true;
}

bool PeerLink::Connect() {
  std::lock_guard<std::mutex> lock(mutex_);
  return conn_.valid() || TryConnectLocked(0);
}

BatchMessage PeerLink::Call(net::FrameType op, uint64_t round, util::ByteSpan header,
                            std::span<const util::ByteSpan> items) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (int attempt = 1;; ++attempt) {
    const bool last_attempt = attempt >= policy_.max_call_attempts;
    if (!conn_.valid()) {
      std::this_thread::sleep_until(next_connect_attempt_);
      if (!TryConnectLocked(round)) {
        if (last_attempt) {
          throw HopError(label_ + ": unreachable");
        }
        continue;
      }
    }
    try {
      return CallBatchRpc(conn_, label_, op, round, header, items, config_.chunk_payload);
    } catch (const HopRemoteError&) {
      throw;  // the peer ran the request and reported failure; never re-send
    } catch (const HopError&) {
      // CallBatchRpc closed the connection. The next attempt reconnects and
      // re-sends the same views.
      BackOffLocked();
      if (last_attempt) {
        throw;
      }
    }
  }
}

void PeerLink::Fail(const std::string& what) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    conn_.Close();
    BackOffLocked();
  }
  throw HopError(label_ + ": " + what);
}

bool PeerLink::Probe() {
  std::unique_lock<std::mutex> lock(mutex_, std::try_to_lock);
  if (!lock.owns_lock()) {
    return false;  // an RPC is in flight; it reconnects for itself
  }
  if (conn_.valid()) {
    return true;
  }
  if (Clock::now() < next_connect_attempt_) {
    return false;  // inside the backoff window
  }
  return TryConnectLocked(0);
}

void PeerLink::SendShutdown() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!conn_.valid() && !TryConnectLocked(0)) {
    return;  // genuinely gone; nothing to stop
  }
  conn_.SendFrame(net::Frame{net::FrameType::kShutdown, 0, {}});
}

bool PeerLink::connected() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return conn_.valid();
}

uint64_t PeerLink::reconnects() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return reconnects_;
}

namespace {

obs::Counter* ShardReconnects() {
  static obs::Counter* counter = obs::Registry::Global().GetCounter(
      "vuvuzela_shard_reconnects_total",
      "Shard-link reconnects after a connection failure (each re-sends the failed call)");
  return counter;
}

}  // namespace

ShardLinks::ShardLinks(const std::string& kind, const ShardFleetConfig& fleet) {
  for (const auto& endpoint : fleet.shards) {
    links_.push_back(std::make_unique<PeerLink>(
        kind,
        TcpTransportConfig{endpoint.host, endpoint.port, fleet.recv_timeout_ms,
                           fleet.connect_timeout_ms, fleet.chunk_payload},
        ReconnectPolicy{}, ShardReconnects()));
  }
}

bool ShardLinks::Connect() {
  return !links_.empty() &&
         std::ranges::all_of(links_, [](const auto& link) { return link->Connect(); });
}

void ShardLinks::SendShutdown() {
  for (auto& link : links_) {
    link->SendShutdown();
  }
}

}  // namespace vuvuzela::transport
