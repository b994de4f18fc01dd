#include "src/transport/tcp_transport.h"

#include <utility>

namespace vuvuzela::transport {

namespace {

std::string Endpoint(const TcpTransportConfig& config) {
  return config.host + ":" + std::to_string(config.port);
}

}  // namespace

TcpTransport::TcpTransport(const TcpTransportConfig& config, net::TcpConnection conn)
    : config_(config), conn_(std::move(conn)) {}

std::unique_ptr<TcpTransport> TcpTransport::Connect(const TcpTransportConfig& config) {
  auto conn = net::TcpConnection::Connect(config.host, config.port, config.connect_timeout_ms);
  if (!conn) {
    return nullptr;
  }
  if (config.recv_timeout_ms > 0) {
    conn->SetRecvTimeout(config.recv_timeout_ms);
  }
  return std::unique_ptr<TcpTransport>(new TcpTransport(config, std::move(*conn)));
}

bool TcpTransport::connected() const { return conn_.valid(); }

BatchMessage TcpTransport::Call(net::FrameType op, uint64_t round, util::ByteSpan header,
                                const std::vector<util::Bytes>& items) {
  if (!conn_.valid()) {
    throw HopError("hop " + Endpoint(config_) + ": connection closed");
  }
  // Every failure but a daemon's kHopError report closes the connection
  // first (the RPC may have died mid-stream), so later calls fail fast until
  // the caller reconnects; a remote report fails only this round.
  return CallBatchRpc(conn_, "hop " + Endpoint(config_), op, round, header,
                      util::ViewsOf(items), config_.chunk_payload);
}

namespace {

mixnet::ServerRoundStats TakeStats(wire::Reader& r, const TcpTransportConfig& config) {
  auto stats = ReadStats(r);
  if (!stats) {
    throw HopError("hop " + Endpoint(config) + ": truncated stats header");
  }
  return *stats;
}

}  // namespace

std::vector<util::Bytes> TcpTransport::ForwardConversation(uint64_t round,
                                                           std::vector<util::Bytes> batch,
                                                           mixnet::ServerRoundStats* stats) {
  std::lock_guard<std::mutex> lock(mutex_);
  wire::Writer header(16);
  header.U64(has_pending_expire_ ? pending_expire_newest_ : 0);
  header.U64(has_pending_expire_ ? pending_expire_keep_ : 0);
  has_pending_expire_ = false;
  BatchMessage reply =
      Call(net::FrameType::kHopForwardConversation, round, header.Take(), batch);
  wire::Reader r(reply.header);
  mixnet::ServerRoundStats remote = TakeStats(r, config_);
  if (stats) {
    *stats = remote;
  }
  return reply.CopyItems();
}

std::vector<util::Bytes> TcpTransport::BackwardConversation(uint64_t round,
                                                            std::vector<util::Bytes> responses,
                                                            mixnet::ServerRoundStats* stats) {
  std::lock_guard<std::mutex> lock(mutex_);
  BatchMessage reply = Call(net::FrameType::kHopBackwardConversation, round, {}, responses);
  wire::Reader r(reply.header);
  mixnet::ServerRoundStats remote = TakeStats(r, config_);
  if (stats) {
    *stats = remote;
  }
  return reply.CopyItems();
}

mixnet::MixServer::LastServerResult TcpTransport::ProcessConversationLastHop(
    uint64_t round, std::vector<util::Bytes> batch, mixnet::ServerRoundStats* stats) {
  std::lock_guard<std::mutex> lock(mutex_);
  BatchMessage reply = Call(net::FrameType::kHopLastConversation, round, {}, batch);
  wire::Reader r(reply.header);
  mixnet::ServerRoundStats remote = TakeStats(r, config_);
  auto histogram = ReadHistogram(r);
  if (!histogram) {
    throw HopError("hop " + Endpoint(config_) + ": truncated exchange header");
  }
  if (stats) {
    *stats = remote;
  }
  mixnet::MixServer::LastServerResult result;
  result.responses = reply.CopyItems();
  result.histogram = histogram->histogram;
  result.messages_exchanged = histogram->messages_exchanged;
  return result;
}

std::vector<util::Bytes> TcpTransport::ForwardDialing(uint64_t round,
                                                      std::vector<util::Bytes> batch,
                                                      uint32_t num_drops,
                                                      mixnet::ServerRoundStats* stats) {
  std::lock_guard<std::mutex> lock(mutex_);
  wire::Writer header(4);
  header.U32(num_drops);
  BatchMessage reply = Call(net::FrameType::kHopForwardDialing, round, header.Take(), batch);
  wire::Reader r(reply.header);
  mixnet::ServerRoundStats remote = TakeStats(r, config_);
  if (stats) {
    *stats = remote;
  }
  return reply.CopyItems();
}

deaddrop::InvitationTable TcpTransport::ProcessDialingLastHop(uint64_t round,
                                                              std::vector<util::Bytes> batch,
                                                              uint32_t num_drops,
                                                              mixnet::ServerRoundStats* stats) {
  std::lock_guard<std::mutex> lock(mutex_);
  wire::Writer header(4);
  header.U32(num_drops);
  BatchMessage reply = Call(net::FrameType::kHopLastDialing, round, header.Take(), batch);
  wire::Reader r(reply.header);
  mixnet::ServerRoundStats remote = TakeStats(r, config_);
  if (stats) {
    *stats = remote;
  }
  // Response items: one per invitation drop, each a concatenation of
  // fixed-size invitations.
  if (reply.items.empty()) {
    throw HopError("hop " + Endpoint(config_) + ": empty invitation table");
  }
  deaddrop::InvitationTable table(static_cast<uint32_t>(reply.items.size()));
  for (uint32_t drop = 0; drop < reply.items.size(); ++drop) {
    util::ByteSpan packed = reply.items[drop];
    if (packed.size() % wire::kInvitationSize != 0) {
      throw HopError("hop " + Endpoint(config_) + ": ragged invitation drop");
    }
    for (size_t offset = 0; offset < packed.size(); offset += wire::kInvitationSize) {
      wire::Invitation invitation;
      std::copy(packed.begin() + offset, packed.begin() + offset + wire::kInvitationSize,
                invitation.begin());
      table.Add(drop, invitation);
    }
  }
  return table;
}

void TcpTransport::ExpireRounds(uint64_t newest_round, uint64_t keep) {
  std::lock_guard<std::mutex> lock(mutex_);
  has_pending_expire_ = true;
  pending_expire_newest_ = newest_round;
  pending_expire_keep_ = keep;
}

void TcpTransport::SendShutdown() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (conn_.valid()) {
    conn_.SendFrame(net::Frame{net::FrameType::kShutdown, 0, {}});
  }
}

}  // namespace vuvuzela::transport
