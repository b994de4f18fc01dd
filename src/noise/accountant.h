// ε/δ budget accountant: the runtime enforcement half of §6.
//
// privacy.h supplies the per-round arithmetic (Theorem 1, §6.5) and the
// advanced-composition formula (Theorem 2); this class turns them into an
// admission control decision the coordinator makes before every
// announcement. The accountant is configured with the deployment's noise
// parameters and a cumulative (ε, δ) budget; each admitted round charges the
// budget under advanced composition, and a round whose tentative charge
// would push the composed bound past the budget is *refused* — the paper's
// "Vuvuzela can be configured to shut down after k rounds" (§6.4), enforced
// per round rather than by operator arithmetic.
//
// Conversation and dialing rounds have different per-round bounds, so the
// accountant composes each class separately (k1 conversation rounds, k2
// dialing rounds, each under Theorem 2 with slack d) and adds the two
// composed bounds — sequential composition of the two (ε', δ') guarantees.
//
// A deployment whose per-round noise already violates the budget (e.g. noise
// disabled, or b so small that one round's ε exceeds the target) refuses
// every round of that class: the k = 1 composition exceeds the budget, so
// the "noise below the paper's bound" case needs no separate check.
//
// THREADING. All methods take an internal mutex: the coordinator's announce
// loop charges while its metrics surface reads Spent().

#ifndef VUVUZELA_SRC_NOISE_ACCOUNTANT_H_
#define VUVUZELA_SRC_NOISE_ACCOUNTANT_H_

#include <cstdint>
#include <mutex>

#include "src/noise/privacy.h"

namespace vuvuzela::noise {

struct BudgetAccountantConfig {
  // The deployment's noise parameters — must mirror the hop daemons'
  // (vuvuzela-hopd runs noise::HopNoise(--mu)). The bound assumes the
  // hops sample Laplace(µ, b); vuvuzela-hopd adds a fixed µ instead (§8.1's
  // deterministic mode), so for a deployed fleet the charge is what a
  // sampling fleet would spend, not a guarantee.
  LaplaceParams conversation_noise{0.0, 1.0};
  LaplaceParams dialing_noise{0.0, 1.0};
  // Cumulative budget the composed bound must stay within.
  double epsilon_budget = 0.0;
  double delta_budget = 0.0;
};

class BudgetAccountant {
 public:
  explicit BudgetAccountant(BudgetAccountantConfig config);

  // Tentatively charges one more round of the class; true (and the charge
  // sticks) iff the composed cumulative bound stays within the budget.
  // Refusals are counted but never charged, and the budget is monotone: once
  // a class is refused, every later round of that class is refused too.
  bool AdmitConversation();
  bool AdmitDialing();

  // The composed cumulative (ε', δ') over everything admitted so far.
  PrivacyBound Spent() const;

  // Per-round bounds the accountant composes (Theorem 1 / §6.5).
  PrivacyBound conversation_bound() const { return conversation_bound_; }
  PrivacyBound dialing_bound() const { return dialing_bound_; }

  uint64_t conversation_rounds() const;
  uint64_t dialing_rounds() const;
  uint64_t rounds_refused() const;

  const BudgetAccountantConfig& config() const { return config_; }

 private:
  bool Admit(uint64_t& count);
  // Composed bound for the given class counts. Requires mutex_ held (or
  // construction-time use).
  PrivacyBound SpentLocked(uint64_t conversation_rounds, uint64_t dialing_rounds) const;

  BudgetAccountantConfig config_;
  PrivacyBound conversation_bound_;
  PrivacyBound dialing_bound_;
  double slack_ = 0.0;

  mutable std::mutex mutex_;
  uint64_t conversation_rounds_ = 0;
  uint64_t dialing_rounds_ = 0;
  uint64_t rounds_refused_ = 0;
};

}  // namespace vuvuzela::noise

#endif  // VUVUZELA_SRC_NOISE_ACCOUNTANT_H_
