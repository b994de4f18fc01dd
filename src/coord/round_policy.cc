#include "src/coord/round_policy.h"

#include <algorithm>
#include <iterator>

namespace vuvuzela::coord {

RoundPolicy::RoundPolicy(RoundPolicyConfig config)
    : config_(std::move(config)), schedule_(config_.schedule) {
  if (config_.budget.epsilon_budget > 0.0) {
    accountant_.emplace(config_.budget);
  }
}

size_t RoundPolicy::Count(State state) const {
  return std::count_if(rounds_.begin(), rounds_.end(),
                       [state](const auto& entry) { return entry.second.state == state; });
}

std::optional<Announcement> RoundPolicy::Announce(PolicyTime now, size_t clients) {
  if (window_ || scheduled_ == config_.total_rounds || Backlogged()) {
    return std::nullopt;
  }
  ++scheduled_;
  Announcement next;
  next.round = schedule_.Next();
  const uint64_t round = next.round.round;
  if (accountant_) {
    next.refused = next.round.type == wire::RoundType::kConversation
                       ? !accountant_->AdmitConversation()
                       : !accountant_->AdmitDialing();
    next.spent = accountant_->Spent();
    if (next.refused) {
      return next;
    }
  }
  rounds_[round].announcement = next.round;
  dedup_[round].assign(clients, 0);
  const auto length = std::chrono::duration<double>(config_.admission_window_seconds);
  window_ = Window{round, now + std::chrono::duration_cast<PolicyTime::duration>(length), clients};
  // Clients that hung up before the announcement hold no slot open.
  window_->waiting -= std::distance(disconnected_.begin(), disconnected_.lower_bound(clients));
  // A round expire_keep behind the newest announcement in its number space
  // can no longer complete, so its dedup record is dead weight.
  uint64_t base = round >= kDialingRoundBase ? kDialingRoundBase : 0;
  if (round - base > config_.expire_keep) {
    dedup_.erase(dedup_.lower_bound(base), dedup_.lower_bound(round - config_.expire_keep));
  }
  return next;
}

bool RoundPolicy::Admit(size_t client, wire::RoundType type, uint64_t round, util::Bytes onion) {
  size_t onion_size = type == wire::RoundType::kConversation ? config_.conversation_onion_size
                                                             : config_.dialing_onion_size;
  if (!window_ || round != window_->round || onion.size() != onion_size) {
    return false;
  }
  Round& open = rounds_.at(round);
  std::vector<uint8_t>& slots = dedup_.at(round);
  if (type != open.announcement.type || client >= slots.size() || slots[client]) {
    return false;
  }
  slots[client] = 1;
  open.onions.push_back(std::move(onion));
  open.contributors.push_back(client);
  window_->waiting -= disconnected_.contains(client) ? 0 : 1;
  return true;
}

void RoundPolicy::ClientDisconnected(size_t client) {
  if (!disconnected_.insert(client).second) {
    return;
  }
  if (window_) {
    const std::vector<uint8_t>& slots = dedup_.at(window_->round);
    window_->waiting -= client < slots.size() && !slots[client] ? 1 : 0;
  }
}

std::optional<Attempt> RoundPolicy::CloseAdmission(PolicyTime now) {
  if (!window_ || (window_->waiting > 0 && now < window_->deadline)) {
    return std::nullopt;
  }
  Round& round = rounds_.at(window_->round);
  window_.reset();
  return StartAttempt(round);
}

Attempt RoundPolicy::StartAttempt(Round& round) {
  Attempt attempt{round.announcement, {}, ++round.attempts};
  if (attempt.number < config_.max_round_attempts) {
    attempt.onions = round.onions;  // banked for further attempts
  } else {
    attempt.onions = std::move(round.onions);  // the final attempt ships the bank
    round.onions.clear();
  }
  round.state = State::kSubmitted;
  round.order = next_order_++;
  return attempt;
}

std::optional<wire::RoundAnnouncement> RoundPolicy::Collect() {
  Round* oldest = nullptr;
  for (auto& [number, round] : rounds_) {
    if (round.state == State::kSubmitted && (oldest == nullptr || round.order < oldest->order)) {
      oldest = &round;
    }
  }
  if (oldest == nullptr) {
    return std::nullopt;
  }
  oldest->state = State::kCollecting;
  return oldest->announcement;
}

Settlement RoundPolicy::Finish(uint64_t round, bool succeeded, PolicyTime now) {
  auto it = rounds_.find(round);
  Round& finished = it->second;
  Settlement settlement;
  settlement.attempt = finished.attempts;
  if (!succeeded && finished.attempts < config_.max_round_attempts) {
    // The bank goes back in under the same round number: a crash costs
    // latency, not messages.
    settlement.kind = Settlement::Kind::kRetry;
    settlement.retry_at = finished.not_before = now + kRetryBackoff;
    finished.state = State::kRetrying;
    return settlement;
  }
  settlement.kind = succeeded ? Settlement::Kind::kDeliver : Settlement::Kind::kAbandon;
  settlement.contributors = std::move(finished.contributors);
  rounds_.erase(it);  // terminal: the bank is released
  return settlement;
}

const RoundPolicy::Round* RoundPolicy::SoonestRetry() const {
  const Round* soonest = nullptr;
  for (const auto& [number, round] : rounds_) {
    if (round.state == State::kRetrying &&
        (soonest == nullptr || round.not_before < soonest->not_before)) {
      soonest = &round;
    }
  }
  return Backlogged() ? nullptr : soonest;
}

std::optional<Attempt> RoundPolicy::TakeDueRetry(PolicyTime now) {
  const Round* due = SoonestRetry();
  if (due == nullptr || now < due->not_before) {
    return std::nullopt;
  }
  return StartAttempt(rounds_.at(due->announcement.round));
}

std::optional<PolicyTime> RoundPolicy::NextRetry() const {
  const Round* soonest = SoonestRetry();
  return soonest ? std::optional(soonest->not_before) : std::nullopt;
}

size_t RoundPolicy::banked_onions() const {
  size_t banked = 0;
  for (const auto& [number, round] : rounds_) {
    banked += round.state == State::kAdmitting ? 0 : round.onions.size();
  }
  return banked;
}

}  // namespace vuvuzela::coord
