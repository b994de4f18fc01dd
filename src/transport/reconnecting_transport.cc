#include "src/transport/reconnecting_transport.h"

#include <utility>

namespace vuvuzela::transport {

namespace {

// Every hop reply header starts with the pass's stats.
void TakeStats(PeerLink& link, wire::Reader& r, mixnet::ServerRoundStats* stats) {
  auto remote = ReadStats(r);
  if (!remote) {
    link.Fail("truncated stats header");
  }
  if (stats) {
    *stats = *remote;
  }
}

}  // namespace

ReconnectingTransport::ReconnectingTransport(TcpTransportConfig config, ReconnectPolicy policy,
                                             obs::Counter* reconnects)
    : link_("hop", std::move(config), policy, reconnects) {}

std::vector<util::Bytes> ReconnectingTransport::ForwardConversation(
    uint64_t round, std::vector<util::Bytes> batch, mixnet::ServerRoundStats* stats) {
  Expiry expire = pending_expire_.value_or(Expiry{});
  wire::Writer header(16);
  header.U64(expire.newest_round);
  header.U64(expire.keep);
  BatchMessage reply = link_.Call(net::FrameType::kHopForwardConversation, round, header.Take(),
                                  util::ViewsOf(batch));
  pending_expire_.reset();
  wire::Reader r(reply.header);
  TakeStats(link_, r, stats);
  return reply.CopyItems();
}

std::vector<util::Bytes> ReconnectingTransport::BackwardConversation(
    uint64_t round, std::vector<util::Bytes> responses, mixnet::ServerRoundStats* stats) {
  BatchMessage reply = link_.Call(net::FrameType::kHopBackwardConversation, round, {},
                                  util::ViewsOf(responses));
  wire::Reader r(reply.header);
  TakeStats(link_, r, stats);
  return reply.CopyItems();
}

mixnet::MixServer::LastServerResult ReconnectingTransport::ProcessConversationLastHop(
    uint64_t round, std::vector<util::Bytes> batch, mixnet::ServerRoundStats* stats) {
  BatchMessage reply =
      link_.Call(net::FrameType::kHopLastConversation, round, {}, util::ViewsOf(batch));
  wire::Reader r(reply.header);
  TakeStats(link_, r, stats);
  auto histogram = ReadHistogram(r);
  if (!histogram) {
    link_.Fail("truncated exchange header");
  }
  mixnet::MixServer::LastServerResult result;
  result.responses = reply.CopyItems();
  result.histogram = histogram->histogram;
  result.messages_exchanged = histogram->messages_exchanged;
  return result;
}

std::vector<util::Bytes> ReconnectingTransport::ForwardDialing(uint64_t round,
                                                               std::vector<util::Bytes> batch,
                                                               uint32_t num_drops,
                                                               mixnet::ServerRoundStats* stats) {
  wire::Writer header(4);
  header.U32(num_drops);
  BatchMessage reply = link_.Call(net::FrameType::kHopForwardDialing, round, header.Take(),
                                  util::ViewsOf(batch));
  wire::Reader r(reply.header);
  TakeStats(link_, r, stats);
  return reply.CopyItems();
}

deaddrop::InvitationTable ReconnectingTransport::ProcessDialingLastHop(
    uint64_t round, std::vector<util::Bytes> batch, uint32_t num_drops,
    mixnet::ServerRoundStats* stats) {
  wire::Writer header(4);
  header.U32(num_drops);
  BatchMessage reply = link_.Call(net::FrameType::kHopLastDialing, round, header.Take(),
                                  util::ViewsOf(batch));
  wire::Reader r(reply.header);
  TakeStats(link_, r, stats);
  // Response items: one per invitation drop, each a concatenation of
  // fixed-size invitations.
  if (reply.items.empty()) {
    link_.Fail("empty invitation table");
  }
  deaddrop::InvitationTable table(static_cast<uint32_t>(reply.items.size()));
  if (!deaddrop::UnpackDrops(reply.items, table)) {
    link_.Fail("ragged invitation drop");
  }
  return table;
}

void ReconnectingTransport::ExpireRounds(uint64_t newest_round, uint64_t keep) {
  pending_expire_ = Expiry{newest_round, keep};
}

}  // namespace vuvuzela::transport
