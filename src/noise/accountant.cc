#include "src/noise/accountant.h"

#include <stdexcept>

namespace vuvuzela::noise {

BudgetAccountant::BudgetAccountant(BudgetAccountantConfig config) : config_(config) {
  if (config_.epsilon_budget <= 0.0 || config_.delta_budget <= 0.0) {
    throw std::invalid_argument("BudgetAccountant: budget must be positive");
  }
  // ConversationRound/DialingRound reject b <= 0, so a degenerate noise
  // configuration fails loudly at construction, not silently at round 1.
  conversation_bound_ = ConversationRound(config_.conversation_noise);
  dialing_bound_ = DialingRound(config_.dialing_noise);
  // Slack parameter d of Theorem 2 (δ' = k·δ + d): a quarter of the δ
  // budget, leaving most of it for the k·δ term.
  slack_ = config_.delta_budget / 4.0;
}

PrivacyBound BudgetAccountant::SpentLocked(uint64_t conversation_rounds,
                                           uint64_t dialing_rounds) const {
  PrivacyBound total;
  if (conversation_rounds > 0) {
    PrivacyBound composed = Compose(conversation_bound_, conversation_rounds, slack_);
    total.epsilon += composed.epsilon;
    total.delta += composed.delta;
  }
  if (dialing_rounds > 0) {
    PrivacyBound composed = Compose(dialing_bound_, dialing_rounds, slack_);
    total.epsilon += composed.epsilon;
    total.delta += composed.delta;
  }
  return total;
}

bool BudgetAccountant::Admit(uint64_t& count) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++count;
  PrivacyBound tentative = SpentLocked(conversation_rounds_, dialing_rounds_);
  if (tentative.epsilon > config_.epsilon_budget || tentative.delta > config_.delta_budget) {
    --count;  // refusals are never charged
    ++rounds_refused_;
    return false;
  }
  return true;
}

bool BudgetAccountant::AdmitConversation() { return Admit(conversation_rounds_); }

bool BudgetAccountant::AdmitDialing() { return Admit(dialing_rounds_); }

PrivacyBound BudgetAccountant::Spent() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return SpentLocked(conversation_rounds_, dialing_rounds_);
}

uint64_t BudgetAccountant::conversation_rounds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return conversation_rounds_;
}

uint64_t BudgetAccountant::dialing_rounds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dialing_rounds_;
}

uint64_t BudgetAccountant::rounds_refused() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return rounds_refused_;
}

}  // namespace vuvuzela::noise
