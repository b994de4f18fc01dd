#include "src/client/client.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace vuvuzela::client {

VuvuzelaClient::VuvuzelaClient(ClientConfig config, const crypto::ChaCha20Key& rng_seed)
    : config_(std::move(config)), rng_(rng_seed) {
  if (config_.chain.empty()) {
    throw std::invalid_argument("VuvuzelaClient: empty server chain");
  }
  if (config_.max_conversations == 0) {
    throw std::invalid_argument("VuvuzelaClient: max_conversations must be positive");
  }
}

VuvuzelaClient::Conversation& VuvuzelaClient::OpenConversation(
    const crypto::X25519PublicKey& partner) {
  auto it = conversations_.find(partner);
  if (it != conversations_.end()) {
    return it->second;
  }
  // Evict the oldest conversation if all slots are in use.
  if (conversations_.size() >= config_.max_conversations) {
    auto oldest = conversations_.begin();
    for (auto cand = conversations_.begin(); cand != conversations_.end(); ++cand) {
      if (cand->second.started_at_sequence < oldest->second.started_at_sequence) {
        oldest = cand;
      }
    }
    conversations_.erase(oldest);
  }
  Conversation conv;
  conv.session = conversation::Session::Derive(config_.keys, partner);
  conv.started_at_sequence = ++conversation_sequence_;
  return conversations_.emplace(partner, std::move(conv)).first->second;
}

void VuvuzelaClient::SendMessage(const crypto::X25519PublicKey& partner, util::ByteSpan payload) {
  auto it = conversations_.find(partner);
  if (it == conversations_.end()) {
    throw std::logic_error("SendMessage: no active conversation with this partner");
  }
  // Split long messages into channel-sized chunks; each chunk costs one
  // round, which is the queueing behavior §3.2 describes.
  size_t offset = 0;
  do {
    size_t take = std::min(payload.size() - offset, kMaxChatPayload);
    it->second.channel.QueueMessage(payload.subspan(offset, take));
    offset += take;
  } while (offset < payload.size());
}

void VuvuzelaClient::Dial(const crypto::X25519PublicKey& partner) {
  dial_queue_.push_back(partner);
  OpenConversation(partner);
}

void VuvuzelaClient::AcceptCall(const crypto::X25519PublicKey& caller) {
  OpenConversation(caller);
}

void VuvuzelaClient::EndConversation(const crypto::X25519PublicKey& partner) {
  conversations_.erase(partner);
}

bool VuvuzelaClient::InConversationWith(const crypto::X25519PublicKey& partner) const {
  return conversations_.contains(partner);
}

std::vector<ReceivedMessage> VuvuzelaClient::TakeReceivedMessages() {
  std::vector<ReceivedMessage> out;
  out.swap(received_);
  return out;
}

std::vector<IncomingCall> VuvuzelaClient::TakeIncomingCalls() {
  std::vector<IncomingCall> out;
  out.swap(incoming_calls_);
  return out;
}

std::vector<util::Bytes> VuvuzelaClient::PrepareConversationOnions(uint64_t round) {
  std::vector<util::Bytes> onions;
  std::vector<PendingExchange> pending;
  onions.reserve(config_.max_conversations);
  pending.reserve(config_.max_conversations);

  // One real exchange per active conversation...
  for (auto& [partner, conv] : conversations_) {
    if (onions.size() == config_.max_conversations) {
      break;
    }
    util::Bytes frame = conv.channel.NextFrame();
    wire::ExchangeRequest request =
        conversation::BuildExchangeRequest(conv.session, round, frame);
    crypto::WrappedOnion onion =
        crypto::OnionWrap(config_.chain, round, request.Serialize(), rng_);
    onions.push_back(std::move(onion.data));
    pending.push_back(PendingExchange{partner, std::move(onion.layer_keys)});
  }
  // ...and fakes for the remaining slots (Algorithm 1 step 1b), so the
  // request count per round is constant.
  while (onions.size() < config_.max_conversations) {
    wire::ExchangeRequest request =
        conversation::BuildFakeExchangeRequest(config_.keys, round, rng_);
    crypto::WrappedOnion onion =
        crypto::OnionWrap(config_.chain, round, request.Serialize(), rng_);
    onions.push_back(std::move(onion.data));
    pending.push_back(PendingExchange{std::nullopt, std::move(onion.layer_keys)});
  }

  for (const auto& onion : onions) {
    bytes_sent_ += onion.size();
  }
  if (round >= kPendingRoundHorizon) {
    pending_rounds_.erase(pending_rounds_.begin(),
                          pending_rounds_.upper_bound(round - kPendingRoundHorizon));
  }
  pending_rounds_[round] = std::move(pending);
  return onions;
}

void VuvuzelaClient::HandleConversationResponses(uint64_t round,
                                                 std::span<const util::Bytes> responses) {
  auto it = pending_rounds_.find(round);
  if (it == pending_rounds_.end()) {
    return;  // a round we never prepared (e.g. client restarted): ignore
  }
  std::vector<PendingExchange> pending = std::move(it->second);
  pending_rounds_.erase(it);

  for (size_t i = 0; i < pending.size() && i < responses.size(); ++i) {
    bytes_received_ += responses[i].size();
    if (!pending[i].partner) {
      continue;  // fake exchange: result is irrelevant (Algorithm 1 step 3)
    }
    auto conv_it = conversations_.find(*pending[i].partner);
    if (conv_it == conversations_.end()) {
      continue;  // conversation ended while the round was in flight
    }
    auto inner = crypto::OnionOpenResponse(pending[i].layer_keys, round, responses[i]);
    if (!inner || inner->size() != wire::kEnvelopeSize) {
      continue;  // disrupted round; ReliableChannel will retransmit
    }
    wire::Envelope envelope;
    std::memcpy(envelope.data(), inner->data(), envelope.size());
    conversation::OpenedResponse opened =
        conversation::OpenExchangeResponse(conv_it->second.session, round, envelope);
    if (opened.kind != conversation::ResponseKind::kPartnerMessage) {
      continue;  // echo (partner offline) or garbage
    }
    if (auto delivered = conv_it->second.channel.HandleFrame(opened.text)) {
      received_.push_back(ReceivedMessage{*pending[i].partner, std::move(*delivered)});
    }
  }
}

util::Bytes VuvuzelaClient::PrepareDialOnion(uint64_t round,
                                             const dialing::RoundConfig& dial_config) {
  if (!unacked_dial_ && !dial_queue_.empty()) {
    unacked_dial_ = SentDial{dial_queue_.front(), round};
    dial_queue_.pop_front();
  }
  wire::DialRequest request;
  if (unacked_dial_) {
    request = dialing::BuildDialRequest(dial_config, public_key(), unacked_dial_->target, rng_);
  } else {
    request = dialing::BuildIdleDialRequest(dial_config, rng_);
  }
  crypto::WrappedOnion onion =
      crypto::OnionWrap(config_.chain, round, request.Serialize(), rng_);
  bytes_sent_ += onion.data.size();
  return std::move(onion.data);
}

void VuvuzelaClient::HandleDialAck(uint64_t round) {
  if (unacked_dial_ && round >= unacked_dial_->first_round) {
    unacked_dial_.reset();
  }
}

uint32_t VuvuzelaClient::InvitationDrop(const dialing::RoundConfig& dial_config) const {
  return dialing::DropForRecipient(dial_config, config_.keys.public_key);
}

void VuvuzelaClient::HandleInvitationDrop(std::span<const wire::Invitation> invitations) {
  bytes_received_ += invitations.size() * wire::kInvitationSize;
  std::vector<crypto::X25519PublicKey> callers =
      dialing::ScanInvitations(config_.keys, invitations);
  for (const auto& caller : callers) {
    // A self-dial, a call already waiting, or a dial the previous drop
    // already carried (re-sent after a late ack).
    bool waiting = std::ranges::find(incoming_calls_, caller, &IncomingCall::caller) !=
                   incoming_calls_.end();
    if (caller == config_.keys.public_key || waiting ||
        std::ranges::find(previous_drop_callers_, caller) != previous_drop_callers_.end()) {
      continue;
    }
    incoming_calls_.push_back(IncomingCall{caller});
  }
  previous_drop_callers_ = std::move(callers);
}

}  // namespace vuvuzela::client
