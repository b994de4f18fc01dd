// One client on the wire (§3.2, §5.2): RunSession drives a VuvuzelaClient
// over its front-door connection to coordd. It answers each round
// announcement with the client's one onion (conversation or dial), hands
// each response and each kDialAck back to the client, and after each kDialAck
// downloads the client's own bucket, H(pk) mod m, from the dist tier (§5.5).
// Whatever the user does, the client sends one request frame of one size per
// round: the shape that is its defence against traffic analysis (Bahramali
// et al.).

#ifndef VUVUZELA_SRC_CLIENT_SESSION_H_
#define VUVUZELA_SRC_CLIENT_SESSION_H_

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "src/client/dialing_fetcher.h"
#include "src/net/tcp.h"
#include "src/wire/messages.h"

namespace vuvuzela::client {

struct SessionLog {
  std::map<uint64_t, util::Bytes> responses;  // conversation responses, by round
  uint64_t dial_acks = 0;                     // dialing rounds coordd acknowledged
  // The buckets downloaded after those acks, by round; a failed fetch leaves none.
  std::map<uint64_t, std::vector<wire::Invitation>> buckets;
};

// Plays rounds until coordd sends kShutdown or the connection ends. A null
// `fetcher` downloads nothing. `online`, if set, is asked at each
// announcement; false sits the round out (an offline user, §3.1). Throws
// std::invalid_argument unless the client sends one conversation onion a
// round, the one onion coordd admits per client.
SessionLog RunSession(VuvuzelaClient& client, net::TcpConnection& conn, DialingFetcher* fetcher,
                      const std::function<bool(const wire::RoundAnnouncement&)>& online = {});

}  // namespace vuvuzela::client

#endif  // VUVUZELA_SRC_CLIENT_SESSION_H_
