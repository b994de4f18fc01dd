// The coordinator's round policy (§3.1, §7): every decision coordd's first
// server and entry-server roles make. What to announce, behind the
// privacy-budget gate (§6.4); what the admission window admits and when it
// closes; the per-round dedup records; the banked onions, retries and
// abandonment of failed rounds; and the K+2 bound on rounds awaiting
// collection. transport::CoordinatorDaemon is the I/O shell that carries them out.
//
// It owns no threads, sockets, locks or clock: `now` is always an argument,
// so its tests drive it on a fake clock. The daemon guards it with one mutex.

#ifndef VUVUZELA_SRC_COORD_ROUND_POLICY_H_
#define VUVUZELA_SRC_COORD_ROUND_POLICY_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "src/coord/coordinator.h"
#include "src/noise/accountant.h"
#include "src/util/bytes.h"
#include "src/wire/messages.h"

namespace vuvuzela::coord {

using PolicyTime = std::chrono::steady_clock::time_point;

struct RoundPolicyConfig {
  ScheduleConfig schedule;
  uint64_t total_rounds = 0;  // schedule entries, announced or refused
  size_t max_in_flight = 3;   // K
  // Dedup records this many rounds behind the newest announcement in their
  // number space are pruned (the scheduler's round-expiry horizon).
  uint64_t expire_keep = 8;
  double admission_window_seconds = 0.05;
  // The chain's request onion size per round type: every hop drops any other.
  size_t conversation_onion_size = 0;
  size_t dialing_onion_size = 0;
  uint32_t max_round_attempts = 3;  // 1 abandons a round on its first failure
  noise::BudgetAccountantConfig budget;  // epsilon_budget > 0 arms the gate
};

// One submission of a round's batch.
struct Attempt {
  wire::RoundAnnouncement announcement;
  std::vector<util::Bytes> onions;
  uint32_t number = 1;
};

// The next schedule entry, announced or refused by the budget gate, and the
// composed spend after the gate when the budget is armed.
struct Announcement {
  wire::RoundAnnouncement round;
  bool refused = false;
  std::optional<noise::PrivacyBound> spent;
};

// What a finished attempt means for its round.
struct Settlement {
  enum class Kind { kDeliver, kRetry, kAbandon };
  Kind kind = Kind::kDeliver;
  uint32_t attempt = 1;              // the attempt that finished
  std::vector<size_t> contributors;  // the client of each batch slot
  PolicyTime retry_at{};             // kRetry
};

class RoundPolicy {
 public:
  // Spaces a round's re-submissions, so a round failing fast while a hop's
  // dependency restarts cannot burn its whole attempt budget in one outage.
  static constexpr std::chrono::milliseconds kRetryBackoff{100};

  // Throws std::invalid_argument if an armed budget is degenerate.
  explicit RoundPolicy(RoundPolicyConfig config);

  // The next schedule entry; if announced, its window opens with a slot for
  // each of the `clients` seen so far. Nothing while a window is open, once
  // the schedule is played, or while K+2 submitted rounds await collection.
  std::optional<Announcement> Announce(PolicyTime now, size_t clients);
  // True if the onion enters the open window's batch: its round and type, the
  // chain's onion size, and one per client. A refused frame takes no slot.
  bool Admit(size_t client, wire::RoundType type, uint64_t round, util::Bytes onion);
  // The client no longer holds the window open.
  void ClientDisconnected(size_t client);
  // The window's first attempt, once its deadline has passed or every
  // connected client with a slot has contributed.
  std::optional<Attempt> CloseAdmission(PolicyTime now);
  PolicyTime admission_deadline() const { return window_ ? window_->deadline : PolicyTime{}; }

  // The oldest attempt handed out, for collection: rounds are collected in
  // submission order.
  std::optional<wire::RoundAnnouncement> Collect();
  Settlement Finish(uint64_t round, bool succeeded, PolicyTime now);
  // The failed round due soonest, if it is due and the backlog has room.
  std::optional<Attempt> TakeDueRetry(PolicyTime now);
  // When a retry falls due; nothing if none waits or the backlog is full.
  std::optional<PolicyTime> NextRetry() const;
  // Every schedule entry was refused or reached a terminal state.
  bool Done() const { return scheduled_ == config_.total_rounds && rounds_.empty(); }

  // Publications each distribution backend keeps: above the K+2 rounds
  // awaiting collection and the one being collected.
  size_t dist_keep() const { return config_.max_in_flight + 4; }

  size_t banked_onions() const;
  size_t pending_rounds() const { return Count(State::kSubmitted); }  // awaiting collection
  size_t retry_depth() const { return Count(State::kRetrying); }  // awaiting re-submission
  size_t dedup_rounds() const { return dedup_.size(); }

 private:
  enum class State { kAdmitting, kSubmitted, kCollecting, kRetrying };
  struct Round {
    wire::RoundAnnouncement announcement;
    State state = State::kAdmitting;
    std::vector<size_t> contributors;
    // Admitted onions, then the bank held while further attempts remain.
    std::vector<util::Bytes> onions;
    uint32_t attempts = 0;
    uint64_t order = 0;       // submission order
    PolicyTime not_before{};  // kRetrying
  };
  struct Window {
    uint64_t round = 0;
    PolicyTime deadline{};
    size_t waiting = 0;  // connected clients with a slot yet to contribute
  };

  Attempt StartAttempt(Round& round);
  size_t Count(State state) const;
  // The engine's K bounds rounds in flight, not finished ones awaiting
  // collection; their dialing tables must not expire before delivery.
  bool Backlogged() const { return Count(State::kSubmitted) >= config_.max_in_flight + 2; }
  const Round* SoonestRetry() const;

  RoundPolicyConfig config_;
  RoundSchedule schedule_;
  std::optional<noise::BudgetAccountant> accountant_;
  uint64_t scheduled_ = 0;
  uint64_t next_order_ = 0;
  std::map<uint64_t, Round> rounds_;  // announced and not yet terminal
  std::optional<Window> window_;
  // Who contributed to each round, pruned by expiry, never by completion: a
  // client flooding duplicates must not close the window early or earn two
  // responses, and abandoned rounds must not pin memory.
  std::map<uint64_t, std::vector<uint8_t>> dedup_;
  std::set<size_t> disconnected_;
};

}  // namespace vuvuzela::coord

#endif  // VUVUZELA_SRC_COORD_ROUND_POLICY_H_
