// The Vuvuzela client (§3, §7, §9).
//
// Public API of the library for end users: queue chat messages, dial
// contacts, accept incoming calls. The client runs the two protocols'
// round-driven state machines:
//
//  * every conversation round it emits exactly `max_conversations` onions —
//    real exchanges for active conversations, fakes for the rest — so its
//    traffic is independent of user activity (§3.2, §9 "Multiple
//    conversations");
//  * every dialing round it emits exactly one dial onion (a real invitation
//    or a no-op), polls its invitation dead drop, and surfaces incoming
//    calls;
//  * chat delivery is reliable and in-order via ReliableChannel.
//
// The round-driven methods (PrepareX/HandleX) are transport-agnostic: the
// in-process Deployment harness and the benches drive them directly, and
// client::RunSession (session.h) drives them over coordd's front door.

#ifndef VUVUZELA_SRC_CLIENT_CLIENT_H_
#define VUVUZELA_SRC_CLIENT_CLIENT_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/client/reliable.h"
#include "src/conversation/protocol.h"
#include "src/crypto/drbg.h"
#include "src/crypto/onion.h"
#include "src/dialing/protocol.h"
#include "src/util/random.h"

namespace vuvuzela::client {

// Conversation rounds a prepared round's layer keys wait for its response:
// the client keeps those of the newest kPendingRoundHorizon rounds it
// prepared. coordd never answers a round this far behind the newest one: at
// most K rounds are in flight, so every round settles within its expiry
// horizon of 2K + 2 rounds (engine::ExpireKeep), and vuvuzela-coordd's --k is
// at most 64, a horizon of 130 (coordd_main.cc asserts the margin). Rounds
// coordd abandoned or never answered therefore cost nothing beyond this
// bound.
inline constexpr uint64_t kPendingRoundHorizon = 256;

struct ClientConfig {
  crypto::X25519KeyPair keys;
  // Long-term public keys of the server chain, first hop first.
  std::vector<crypto::X25519PublicKey> chain;
  // Fixed number of conversation exchanges per round (§9): chosen a priori;
  // the wire footprint never reveals how many conversations are active.
  size_t max_conversations = 1;
};

struct ReceivedMessage {
  crypto::X25519PublicKey from;
  util::Bytes payload;
};

struct IncomingCall {
  crypto::X25519PublicKey caller;
};

class VuvuzelaClient {
 public:
  VuvuzelaClient(ClientConfig config, const crypto::ChaCha20Key& rng_seed);

  const crypto::X25519PublicKey& public_key() const { return config_.keys.public_key; }
  size_t max_conversations() const { return config_.max_conversations; }

  // --- User-facing API ----------------------------------------------------

  // Queues a chat message to `partner`. Requires an active conversation.
  // Messages longer than kMaxChatPayload are split across rounds.
  void SendMessage(const crypto::X25519PublicKey& partner, util::ByteSpan payload);

  // Requests a conversation with `partner` at the next dialing round and
  // preemptively opens the conversation (§3: the dialer "preemptively
  // enter[s] into a conversation ... in anticipation that user will
  // reciprocate"). If all conversation slots are busy, the oldest
  // conversation is ended to make room (§5: users "may end one conversation
  // to make room for another").
  void Dial(const crypto::X25519PublicKey& partner);

  // Accepts an incoming call: opens the conversation without re-dialing.
  void AcceptCall(const crypto::X25519PublicKey& caller);

  void EndConversation(const crypto::X25519PublicKey& partner);
  bool InConversationWith(const crypto::X25519PublicKey& partner) const;
  size_t active_conversations() const { return conversations_.size(); }

  // Drains messages delivered since the last call.
  std::vector<ReceivedMessage> TakeReceivedMessages();
  // Drains incoming calls discovered in dialing rounds.
  std::vector<IncomingCall> TakeIncomingCalls();

  // --- Round-driven API ---------------------------------------------------

  // Builds this round's conversation onions (always max_conversations of
  // them).
  std::vector<util::Bytes> PrepareConversationOnions(uint64_t round);

  // Handles the responses for a round previously prepared (same order).
  // Missing/garbled responses are tolerated: ReliableChannel retransmits.
  void HandleConversationResponses(uint64_t round, std::span<const util::Bytes> responses);

  // Builds this round's single dial onion. A dial taken from the queue stays
  // unconfirmed until HandleDialAck reports a dialing round that carried it;
  // until then each dialing round re-sends it before taking the next one, so
  // a call whose round coordd abandoned is not lost. An ack that arrives
  // after the next dialing round's onion was built sends the call again in
  // that round; the callee surfaces it once (HandleInvitationDrop).
  util::Bytes PrepareDialOnion(uint64_t round, const dialing::RoundConfig& dial_config);

  // coordd acknowledged dialing round `round` (kDialAck): it was delivered.
  void HandleDialAck(uint64_t round);

  // The invitation drop this client polls.
  uint32_t InvitationDrop(const dialing::RoundConfig& dial_config) const;

  // Scans a downloaded invitation drop for calls addressed to us. A caller
  // found in the previous scanned drop (a dial re-sent after a late ack), or
  // still waiting in TakeIncomingCalls, is not surfaced again.
  void HandleInvitationDrop(std::span<const wire::Invitation> invitations);

  // --- Introspection ------------------------------------------------------

  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t bytes_received() const { return bytes_received_; }
  // Conversation rounds prepared and not yet answered (or pruned).
  size_t pending_rounds() const { return pending_rounds_.size(); }

 private:
  struct Conversation {
    conversation::Session session;
    ReliableChannel channel;
    uint64_t started_at_sequence = 0;  // for oldest-conversation eviction
  };

  struct PendingExchange {
    std::optional<crypto::X25519PublicKey> partner;  // nullopt: fake request
    std::vector<crypto::AeadKey> layer_keys;
  };

  struct KeyLess {
    bool operator()(const crypto::X25519PublicKey& a, const crypto::X25519PublicKey& b) const {
      return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
    }
  };

  Conversation& OpenConversation(const crypto::X25519PublicKey& partner);

  ClientConfig config_;
  crypto::ChaChaRng rng_;
  std::map<crypto::X25519PublicKey, Conversation, KeyLess> conversations_;
  std::map<uint64_t, std::vector<PendingExchange>> pending_rounds_;
  std::deque<crypto::X25519PublicKey> dial_queue_;
  // The dial taken from the queue and not yet acknowledged, and the first
  // dialing round that carried it: every later dialing round carries it too.
  struct SentDial {
    crypto::X25519PublicKey target;
    uint64_t first_round = 0;
  };
  std::optional<SentDial> unacked_dial_;
  std::vector<ReceivedMessage> received_;
  std::vector<IncomingCall> incoming_calls_;
  // Every caller found in the last drop HandleInvitationDrop scanned: at most
  // one bucket's invitations.
  std::vector<crypto::X25519PublicKey> previous_drop_callers_;
  uint64_t conversation_sequence_ = 0;
  uint64_t bytes_sent_ = 0;
  uint64_t bytes_received_ = 0;
};

}  // namespace vuvuzela::client

#endif  // VUVUZELA_SRC_CLIENT_CLIENT_H_
