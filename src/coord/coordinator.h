// Round numbering (§3.1, §5.2).
//
// The first server coordinates rounds: it announces the round number, waits a
// collection window for client requests, and closes the round. The
// prototype's additional *entry server* (§7) multiplexes many client
// connections into a single batch per round and demultiplexes the results;
// it is untrusted — it sees only onion ciphertexts, the same view as a
// network adversary. Both roles are coordd's coord::RoundPolicy
// (round_policy.h); sim::Deployment plays them for in-process tests by
// per-client slot ranges.
//
// RoundSchedule is the numbering both follow: conversation rounds are
// back-to-back (tens of seconds each, pipelined), dialing rounds fire every
// 10 minutes (§5.2).

#ifndef VUVUZELA_SRC_COORD_COORDINATOR_H_
#define VUVUZELA_SRC_COORD_COORDINATOR_H_

#include <cstdint>

#include "src/wire/messages.h"

namespace vuvuzela::coord {

struct ScheduleConfig {
  // Dialing rounds per conversation round (the paper's prototype runs ~20
  // conversation rounds per 10-minute dialing round at 1M users).
  uint64_t conversation_rounds_per_dialing_round = 20;
  // Invitation dead drops to announce for dialing rounds (m + no-op; §5.4).
  uint32_t dial_dead_drops = 2;
};

// Deterministic round-number allocator. Conversation and dialing rounds use
// disjoint number spaces (a request for one protocol can never replay into
// the other: the round number is bound into every onion layer's nonce).
class RoundSchedule {
 public:
  explicit RoundSchedule(const ScheduleConfig& config) : config_(config) {}

  // Announces the next round. Every
  // `conversation_rounds_per_dialing_round`-th call yields a dialing round.
  wire::RoundAnnouncement Next();

  uint64_t conversation_rounds_announced() const { return conversation_rounds_; }
  uint64_t dialing_rounds_announced() const { return dialing_rounds_; }

 private:
  ScheduleConfig config_;
  uint64_t counter_ = 0;
  uint64_t conversation_rounds_ = 0;
  uint64_t dialing_rounds_ = 0;
};

// Dialing round numbers live in the top half of the u64 space.
inline constexpr uint64_t kDialingRoundBase = 1ULL << 63;

}  // namespace vuvuzela::coord

#endif  // VUVUZELA_SRC_COORD_COORDINATOR_H_
