// Hop transport abstraction (§7 deployment topology).
//
// The round engine pipelines a round across chain stages; each stage drives
// one *hop* through this interface. LocalTransport wraps an in-process
// mixnet::MixServer — the seed behavior, used by tests and single-machine
// benches. ReconnectingTransport (reconnecting_transport.h) speaks the hop
// RPC protocol to a remote HopDaemon, one process per chain server, which is
// the paper's deployment: each server is a network-isolated unit that
// touches only its slice of traffic.
//
// A transport call either returns the pass result or throws: HopError for a
// protocol/connection failure, HopTimeoutError when the hop stopped
// responding (the receive deadline elapsed), each once the link's policy
// (peer_link.h) has no re-send left. The scheduler's failure path turns
// either into a failed round; its expiry path reclaims the abandoned round's
// state at the surviving hops. A transport is driven by one thread at a time
// (its scheduler stage's worker).

#ifndef VUVUZELA_SRC_TRANSPORT_HOP_TRANSPORT_H_
#define VUVUZELA_SRC_TRANSPORT_HOP_TRANSPORT_H_

#include <stdexcept>
#include <string>
#include <vector>

#include "src/mixnet/mix_server.h"

namespace vuvuzela::transport {

class HopError : public std::runtime_error {
 public:
  explicit HopError(const std::string& message) : std::runtime_error(message) {}
};

// The hop exists but stopped answering within the receive deadline — the
// round should be abandoned without tearing down the rest of the chain.
class HopTimeoutError : public HopError {
 public:
  explicit HopTimeoutError(const std::string& message) : HopError(message) {}
};

// The hop is alive and completed the RPC *with an error report* (a kHopError
// frame): the connection framing is intact and the failure is semantic — a
// pass that threw at the hop, e.g. a backward pass whose round state died
// with a restarted process. Re-sending the same request would fail the same
// way, so the link (peer_link.h) passes this through instead of re-sending.
class HopRemoteError : public HopError {
 public:
  explicit HopRemoteError(const std::string& message) : HopError(message) {}
};

class HopTransport {
 public:
  virtual ~HopTransport() = default;

  // --- Conversation passes (Algorithm 2) ----------------------------------
  virtual std::vector<util::Bytes> ForwardConversation(uint64_t round,
                                                       std::vector<util::Bytes> batch,
                                                       mixnet::ServerRoundStats* stats) = 0;
  virtual std::vector<util::Bytes> BackwardConversation(uint64_t round,
                                                        std::vector<util::Bytes> responses,
                                                        mixnet::ServerRoundStats* stats) = 0;
  virtual mixnet::MixServer::LastServerResult ProcessConversationLastHop(
      uint64_t round, std::vector<util::Bytes> batch, mixnet::ServerRoundStats* stats) = 0;

  // --- Dialing passes (§5.5, forward-only) --------------------------------
  virtual std::vector<util::Bytes> ForwardDialing(uint64_t round, std::vector<util::Bytes> batch,
                                                  uint32_t num_drops,
                                                  mixnet::ServerRoundStats* stats) = 0;
  virtual deaddrop::InvitationTable ProcessDialingLastHop(uint64_t round,
                                                          std::vector<util::Bytes> batch,
                                                          uint32_t num_drops,
                                                          mixnet::ServerRoundStats* stats) = 0;

  // --- Hygiene ------------------------------------------------------------

  // Sheds per-round state older than `newest_round - keep` at the hop.
  // Remote backends may defer this and piggyback it on the next forward
  // pass (the scheduler always calls it immediately before one).
  virtual void ExpireRounds(uint64_t newest_round, uint64_t keep) = 0;
};

// In-process backend: the stage calls the MixServer directly. The server must
// outlive the transport. This is where a pass's output becomes the seam's one
// vector per item: a peeling pass works inside the batch this transport took
// by value, and its output is copied out before that batch dies.
class LocalTransport : public HopTransport {
 public:
  explicit LocalTransport(mixnet::MixServer& server) : server_(server) {}

  std::vector<util::Bytes> ForwardConversation(uint64_t round, std::vector<util::Bytes> batch,
                                               mixnet::ServerRoundStats* stats) override {
    return server_.ForwardConversation(round, util::MutableViewsOf(batch), stats).ToVectors();
  }
  std::vector<util::Bytes> BackwardConversation(uint64_t round,
                                                std::vector<util::Bytes> responses,
                                                mixnet::ServerRoundStats* stats) override {
    return server_.BackwardConversation(round, util::ViewsOf(responses), stats).ToVectors();
  }
  mixnet::MixServer::LastServerResult ProcessConversationLastHop(
      uint64_t round, std::vector<util::Bytes> batch, mixnet::ServerRoundStats* stats) override {
    return mixnet::MixServer::ToLastServerResult(
        server_.ProcessConversationLastHop(round, util::MutableViewsOf(batch), stats));
  }
  std::vector<util::Bytes> ForwardDialing(uint64_t round, std::vector<util::Bytes> batch,
                                          uint32_t num_drops,
                                          mixnet::ServerRoundStats* stats) override {
    return server_.ForwardDialing(round, util::MutableViewsOf(batch), num_drops, stats)
        .ToVectors();
  }
  deaddrop::InvitationTable ProcessDialingLastHop(uint64_t round, std::vector<util::Bytes> batch,
                                                  uint32_t num_drops,
                                                  mixnet::ServerRoundStats* stats) override {
    return server_.ProcessDialingLastHop(round, util::MutableViewsOf(batch), num_drops, stats);
  }
  void ExpireRounds(uint64_t newest_round, uint64_t keep) override {
    server_.ExpireRounds(newest_round, keep);
  }

 private:
  mixnet::MixServer& server_;
};

}  // namespace vuvuzela::transport

#endif  // VUVUZELA_SRC_TRANSPORT_HOP_TRANSPORT_H_
