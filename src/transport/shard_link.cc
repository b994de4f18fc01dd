#include "src/transport/shard_link.h"

#include <utility>

#include "src/obs/registry.h"
#include "src/obs/trace.h"
#include "src/transport/hop_transport.h"

namespace vuvuzela::transport {

ShardLink::ShardLink(const std::string& kind, std::string host, uint16_t port,
                     ShardLinkConfig config)
    : label_(kind + " " + host + ":" + std::to_string(port)),
      host_(std::move(host)),
      port_(port),
      config_(config) {}

bool ShardLink::TryConnectLocked() {
  auto conn = net::TcpConnection::Connect(host_, port_, config_.connect_timeout_ms);
  if (!conn) {
    return false;
  }
  if (config_.recv_timeout_ms > 0) {
    conn->SetRecvTimeout(config_.recv_timeout_ms);
  }
  conn_ = std::move(*conn);
  return true;
}

bool ShardLink::ConnectStrict() {
  std::lock_guard<std::mutex> lock(mutex_);
  return TryConnectLocked();
}

BatchMessage ShardLink::Call(net::FrameType op, uint64_t round, util::ByteSpan header,
                             std::span<const util::ByteSpan> items) {
  std::lock_guard<std::mutex> lock(mutex_);
  bool fresh = !conn_.valid();
  if (fresh && !TryConnectLocked()) {
    throw HopError(label_ + ": unreachable");
  }
  try {
    return CallBatchRpc(conn_, label_, op, round, header, items, config_.chunk_payload);
  } catch (const HopRemoteError&) {
    throw;  // the shard executed the RPC and reported failure; never re-send
  } catch (const HopTimeoutError&) {
    throw;  // the shard is slow or wedged; fail the round fast
  } catch (const HopError&) {
    if (fresh) {
      throw;  // a just-established connection failed; the shard is down now
    }
    // A long-lived connection can hold a socket whose peer silently died and
    // restarted since the last RPC (SIGKILL leaves no FIN the next send
    // notices in time). That is this link's one reconnect: re-send the same
    // request — every fleet RPC is idempotent (fetches read, publishes
    // replace their slice, exchange slices are stateless), so a duplicate
    // delivery cannot corrupt shard state.
    static obs::Counter* reconnects = obs::Registry::Global().GetCounter(
        "vuvuzela_shard_reconnects_total",
        "ShardLink reconnect-and-replay attempts after a stale connection died");
    reconnects->Add();
    obs::TraceJournal::Global().Emit(round, "rpc/reconnect", "peer=" + label_);
    if (!TryConnectLocked()) {
      throw HopError(label_ + ": unreachable");
    }
    return CallBatchRpc(conn_, label_, op, round, header, items, config_.chunk_payload);
  }
}

void ShardLink::Fail(const std::string& what) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    conn_.Close();
  }
  throw HopError(label_ + ": " + what);
}

void ShardLink::SendShutdown() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!conn_.valid() && !TryConnectLocked()) {
    return;  // genuinely gone; nothing to stop
  }
  conn_.SendFrame(net::Frame{net::FrameType::kShutdown, 0, {}});
}

}  // namespace vuvuzela::transport
