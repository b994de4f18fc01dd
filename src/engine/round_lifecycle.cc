#include "src/engine/round_lifecycle.h"

#include <iterator>
#include <stdexcept>

#include "src/obs/registry.h"
#include "src/obs/trace.h"

namespace vuvuzela::engine {

namespace {

// Span name for a transition ("lifecycle/forward") — the vocabulary the
// trace stitcher's per-round timelines are built from.
const char* PhaseSpan(RoundPhase phase) {
  switch (phase) {
    case RoundPhase::kAnnounced:
      return "lifecycle/announced";
    case RoundPhase::kSubmitting:
      return "lifecycle/submitting";
    case RoundPhase::kForward:
      return "lifecycle/forward";
    case RoundPhase::kExchange:
      return "lifecycle/exchange";
    case RoundPhase::kBackward:
      return "lifecycle/backward";
    case RoundPhase::kDistributing:
      return "lifecycle/distributing";
    case RoundPhase::kComplete:
      return "lifecycle/complete";
    case RoundPhase::kRetrying:
      return "lifecycle/retrying";
    case RoundPhase::kAbandoned:
      return "lifecycle/abandoned";
  }
  return "lifecycle/?";
}

std::string PhaseDetail(const RoundStatus& status) {
  std::string detail = status.type == wire::RoundType::kDialing ? "type=dialing" : "type=conv";
  if (status.phase == RoundPhase::kForward || status.phase == RoundPhase::kBackward) {
    detail += " hop=" + std::to_string(status.hop);
  }
  if (status.attempt > 1) {
    detail += " attempt=" + std::to_string(status.attempt);
  }
  if (!status.last_error.empty() &&
      (status.phase == RoundPhase::kRetrying || status.phase == RoundPhase::kAbandoned)) {
    detail += " error=" + status.last_error;
  }
  return detail;
}

// --- The edge table -----------------------------------------------------------
//
// Indexed by the phase a round moves *to*: the phases it may come from, and
// what the edge requires beyond that.

constexpr uint16_t Bit(RoundPhase phase) { return uint16_t{1} << static_cast<int>(phase); }

// Phases a live round can fail out of (Retrying / Abandoned).
constexpr uint16_t kLivePhases = Bit(RoundPhase::kAnnounced) | Bit(RoundPhase::kSubmitting) |
                                 Bit(RoundPhase::kForward) | Bit(RoundPhase::kExchange) |
                                 Bit(RoundPhase::kBackward) | Bit(RoundPhase::kDistributing);

enum class HopRule : uint8_t {
  kKeep,     // the recorded hop is left as it is
  kAdvance,  // recorded; re-entering the phase must move to a later hop
  kDescend,  // recorded; re-entering the phase must move to an earlier hop
};

struct Edge {
  uint16_t from;      // Bit() of every phase the round may come from
  bool creates;       // an unknown round may take this edge (record created)
  HopRule hop_rule;
  bool dialing_only;  // only dialing rounds may take this edge
};

constexpr Edge kEdges[] = {
    // kAnnounced: the coordinator registers a round it has not seen.
    {0, true, HopRule::kKeep, false},
    // kSubmitting: first attempt (announced or not), or a re-submission.
    {Bit(RoundPhase::kAnnounced) | Bit(RoundPhase::kRetrying), true, HopRule::kKeep, false},
    // kForward
    {Bit(RoundPhase::kSubmitting) | Bit(RoundPhase::kForward), false, HopRule::kAdvance, false},
    // kExchange: a single-hop chain enters it straight from submission.
    {Bit(RoundPhase::kSubmitting) | Bit(RoundPhase::kForward), false, HopRule::kKeep, false},
    // kBackward
    {Bit(RoundPhase::kExchange) | Bit(RoundPhase::kBackward), false, HopRule::kDescend, false},
    // kDistributing: only a dialing round whose exchange (table build)
    // finished has a table to distribute.
    {Bit(RoundPhase::kExchange), false, HopRule::kKeep, true},
    // kComplete: a conversation round off its final backward pass (or the
    // exchange itself on a single-hop chain); a dialing round off the
    // exchange (no return pass) or off the Distribute stage.
    {Bit(RoundPhase::kExchange) | Bit(RoundPhase::kBackward) | Bit(RoundPhase::kDistributing),
     false, HopRule::kKeep, false},
    // kRetrying
    {kLivePhases, false, HopRule::kKeep, false},
    // kAbandoned: also once the retry budget runs out.
    {kLivePhases | Bit(RoundPhase::kRetrying), false, HopRule::kKeep, false},
};
static_assert(std::size(kEdges) == static_cast<size_t>(RoundPhase::kAbandoned) + 1);

}  // namespace

const char* RoundPhaseName(RoundPhase phase) {
  switch (phase) {
    case RoundPhase::kAnnounced:
      return "Announced";
    case RoundPhase::kSubmitting:
      return "Submitting";
    case RoundPhase::kForward:
      return "Forward";
    case RoundPhase::kExchange:
      return "Exchange";
    case RoundPhase::kBackward:
      return "Backward";
    case RoundPhase::kDistributing:
      return "Distributing";
    case RoundPhase::kComplete:
      return "Complete";
    case RoundPhase::kRetrying:
      return "Retrying";
    case RoundPhase::kAbandoned:
      return "Abandoned";
  }
  return "?";
}

RoundLifecycle::RoundLifecycle(Listener listener) : listener_(std::move(listener)) {
  obs::Registry& registry = obs::Registry::Global();
  obs_announced_ =
      registry.GetCounter("vuvuzela_rounds_announced_total", "Rounds entering the lifecycle");
  obs_completed_ =
      registry.GetCounter("vuvuzela_rounds_completed_total", "Rounds reaching Complete");
  obs_abandoned_ =
      registry.GetCounter("vuvuzela_rounds_abandoned_total", "Rounds reaching Abandoned");
  obs_retries_ = registry.GetCounter("vuvuzela_rounds_retried_total",
                                     "Re-submissions (Retrying to Submitting edges)");
  obs_live_ = registry.GetGauge("vuvuzela_rounds_live", "Rounds currently in flight");
}

void RoundLifecycle::Notify(const RoundStatus& status) {
  obs::TraceJournal::Global().Emit(status.round, PhaseSpan(status.phase), PhaseDetail(status));
  if (listener_) {
    listener_(status);
  }
}

void RoundLifecycle::Step(uint64_t round, RoundPhase to, size_t hop, wire::RoundType type,
                          const std::string& error) {
  const Edge& edge = kEdges[static_cast<size_t>(to)];
  RoundStatus snapshot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = rounds_.find(round);
    if (it == rounds_.end()) {
      if (!edge.creates) {
        throw std::logic_error(std::string("RoundLifecycle: ") + RoundPhaseName(to) +
                               " on unknown round " + std::to_string(round));
      }
      it = rounds_.try_emplace(round).first;
      it->second.round = round;
      it->second.type = type;
      ++counters_.announced;
      obs_announced_->Add();
      obs_live_->Set(static_cast<int64_t>(rounds_.size()));
    } else {
      const RoundStatus& status = it->second;
      bool legal = (edge.from & Bit(status.phase)) != 0 &&
                   (!edge.dialing_only || status.type == wire::RoundType::kDialing);
      if (legal && status.phase == to) {
        legal = (edge.hop_rule == HopRule::kAdvance && hop > status.hop) ||
                (edge.hop_rule == HopRule::kDescend && hop < status.hop);
      }
      if (!legal) {
        throw std::logic_error(std::string("RoundLifecycle: invalid transition ") +
                               RoundPhaseName(status.phase) + " -> " + RoundPhaseName(to) +
                               " (round " + std::to_string(round) + ")");
      }
    }

    RoundStatus& status = it->second;
    if (to == RoundPhase::kSubmitting && status.phase == RoundPhase::kRetrying) {
      ++status.attempt;
      ++counters_.retries;
      obs_retries_->Add();
    }
    status.phase = to;
    if (edge.hop_rule != HopRule::kKeep) {
      status.hop = hop;
    }
    if (to == RoundPhase::kRetrying || to == RoundPhase::kAbandoned) {
      status.last_error = error;
    }
    snapshot = status;
    if (to == RoundPhase::kComplete || to == RoundPhase::kAbandoned) {
      if (to == RoundPhase::kComplete) {
        ++counters_.completed;
        obs_completed_->Add();
      } else {
        ++counters_.abandoned;
        obs_abandoned_->Add();
      }
      rounds_.erase(it);
      obs_live_->Set(static_cast<int64_t>(rounds_.size()));
    }
  }
  Notify(snapshot);
}

void RoundLifecycle::Announce(uint64_t round, wire::RoundType type) {
  Step(round, RoundPhase::kAnnounced, 0, type, {});
}

void RoundLifecycle::BeginAttempt(uint64_t round, wire::RoundType type) {
  Step(round, RoundPhase::kSubmitting, 0, type, {});
}

void RoundLifecycle::Enter(uint64_t round, RoundPhase phase, size_t hop) {
  if (phase != RoundPhase::kForward && phase != RoundPhase::kExchange &&
      phase != RoundPhase::kBackward && phase != RoundPhase::kDistributing) {
    throw std::logic_error(std::string("RoundLifecycle: ") + RoundPhaseName(phase) +
                           " is not a pipeline phase");
  }
  Step(round, phase, hop, wire::RoundType::kConversation, {});
}

void RoundLifecycle::Complete(uint64_t round) {
  Step(round, RoundPhase::kComplete, 0, wire::RoundType::kConversation, {});
}

void RoundLifecycle::Retrying(uint64_t round, const std::string& error) {
  Step(round, RoundPhase::kRetrying, 0, wire::RoundType::kConversation, error);
}

void RoundLifecycle::Abandon(uint64_t round, const std::string& error) {
  Step(round, RoundPhase::kAbandoned, 0, wire::RoundType::kConversation, error);
}

std::optional<RoundStatus> RoundLifecycle::Status(uint64_t round) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = rounds_.find(round);
  if (it == rounds_.end()) {
    return std::nullopt;
  }
  return it->second;
}

size_t RoundLifecycle::live_rounds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return rounds_.size();
}

RoundLifecycle::Counters RoundLifecycle::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

}  // namespace vuvuzela::engine
