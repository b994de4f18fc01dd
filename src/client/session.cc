#include "src/client/session.h"

#include <stdexcept>

namespace vuvuzela::client {

SessionLog RunSession(VuvuzelaClient& client, net::TcpConnection& conn, DialingFetcher* fetcher,
                      const std::function<bool(const wire::RoundAnnouncement&)>& online) {
  if (client.max_conversations() != 1) {
    throw std::invalid_argument("RunSession: coordd admits one onion per client per round");
  }
  SessionLog log;
  dialing::RoundConfig dial_config;  // from the newest dialing announcement
  while (auto frame = conn.RecvFrame()) {
    const uint64_t round = frame->round;
    if (frame->type == net::FrameType::kShutdown) {
      break;
    } else if (frame->type == net::FrameType::kConversationResponse) {
      client.HandleConversationResponses(round, {&frame->payload, 1});
      log.responses[round] = std::move(frame->payload);
    } else if (frame->type == net::FrameType::kDialAck) {
      client.HandleDialAck(round);
      ++log.dial_acks;
      // The download finishes before the next frame is read, so coordd's
      // kShutdown never cuts it short. A failed fetch is not the session's
      // failure: the fetcher counts answered fetches only.
      try {
        if (fetcher) {
          log.buckets[round] = fetcher->FetchFor(client, round, dial_config);
        }
      } catch (const std::exception&) {
      }
    } else if (frame->type == net::FrameType::kRoundAnnouncement) {
      auto announcement = wire::RoundAnnouncement::Parse(frame->payload);
      if (!announcement || (online && !online(*announcement))) {
        continue;
      }
      if (announcement->type == wire::RoundType::kConversation) {
        conn.SendFrame({net::FrameType::kConversationRequest, round,
                        std::move(client.PrepareConversationOnions(round)[0])});
      } else {
        // coordd announces every drop, the no-op drop included.
        uint32_t drops = announcement->num_dial_dead_drops;
        dial_config.num_real_drops = drops > 1 ? drops - 1 : 1;
        conn.SendFrame(
            {net::FrameType::kDialRequest, round, client.PrepareDialOnion(round, dial_config)});
      }
    }
  }
  return log;
}

}  // namespace vuvuzela::client
