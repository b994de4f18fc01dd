#include "src/engine/round_scheduler.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <utility>

#include "src/obs/registry.h"
#include "src/obs/trace.h"
#include "src/util/stats.h"

namespace vuvuzela::engine {

namespace {

using Clock = std::chrono::steady_clock;
using util::SecondsSince;

// One span per stage handoff and one per finished pass; the pass span's
// detail carries what the timeline reader wants at a glance.
void EmitStageSpan(uint64_t round, const char* span, const char* stage, size_t hop,
                   size_t onions, double seconds = -1.0) {
  std::string detail = std::string("stage=") + stage + " hop=" + std::to_string(hop) +
                       " onions=" + std::to_string(onions);
  if (seconds >= 0) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " secs=%.6f", seconds);
    detail += buf;
  }
  obs::TraceJournal::Global().Emit(round, span, detail);
}

// Re-materializes a failure as a FRESH exception object before it enters a
// round future. current_exception() shares the in-flight exception between
// the throwing stage thread and every future.get() consumer; that sharing is
// correct (libstdc++ refcounts it) but the refcount lives in the
// uninstrumented runtime, where TSan cannot see it — and, more to the point,
// a failure report has no business keeping the stage thread's exception
// object alive across threads. Known types are copied faithfully (retry
// policy dispatches on the Hop*Error hierarchy); anything else degrades to a
// runtime_error carrying the same message.
std::exception_ptr CopyForFuture(std::exception_ptr error) {
  try {
    std::rethrow_exception(std::move(error));
  } catch (const transport::HopTimeoutError& e) {
    return std::make_exception_ptr(transport::HopTimeoutError(e.what()));
  } catch (const transport::HopRemoteError& e) {
    return std::make_exception_ptr(transport::HopRemoteError(e.what()));
  } catch (const transport::HopError& e) {
    return std::make_exception_ptr(transport::HopError(e.what()));
  } catch (const std::invalid_argument& e) {
    return std::make_exception_ptr(std::invalid_argument(e.what()));
  } catch (const std::out_of_range& e) {
    return std::make_exception_ptr(std::out_of_range(e.what()));
  } catch (const std::logic_error& e) {
    return std::make_exception_ptr(std::logic_error(e.what()));
  } catch (const std::exception& e) {
    return std::make_exception_ptr(std::runtime_error(e.what()));
  } catch (...) {
    return std::current_exception();  // untyped; nothing to copy
  }
}

}  // namespace

// --- StageWorker ------------------------------------------------------------

RoundScheduler::StageWorker::StageWorker() : thread_([this] { Loop(); }) {}

RoundScheduler::StageWorker::~StageWorker() { Stop(); }

void RoundScheduler::StageWorker::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) {
    thread_.join();
  }
}

void RoundScheduler::StageWorker::Post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(fn));
  }
  cv_.notify_one();
}

void RoundScheduler::StageWorker::Loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // stop requested and queue drained
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

// --- Round contexts ---------------------------------------------------------

struct RoundScheduler::ConversationContext {
  uint64_t round = 0;
  std::vector<util::Bytes> batch;
  mixnet::Chain::ConversationResult result;
  std::promise<mixnet::Chain::ConversationResult> promise;
  Clock::time_point submitted;
  Clock::time_point forward_start;
  Clock::time_point backward_start;
};

struct RoundScheduler::DialingContext {
  uint64_t round = 0;
  uint32_t num_drops = 0;
  std::vector<util::Bytes> batch;
  // DialingResult has no default constructor (the table needs a drop
  // count), so its parts live here until the last hop assembles it. With a
  // distribution backend the table parks here between the last hop and the
  // Distribute stage, then moves into the backend.
  std::optional<deaddrop::InvitationTable> table;
  mixnet::RoundStats stats;
  std::promise<mixnet::Chain::DialingResult> promise;
  Clock::time_point forward_start;
};

// --- RoundScheduler ---------------------------------------------------------

RoundScheduler::RoundScheduler(std::vector<std::unique_ptr<transport::HopTransport>> hops,
                               SchedulerConfig config, mixnet::ChainObserver* observer)
    : hops_(std::move(hops)), observer_(observer), config_(config) {
  if (hops_.empty()) {
    throw std::invalid_argument("RoundScheduler: need at least one hop");
  }
  if (config_.max_in_flight == 0) {
    throw std::invalid_argument("RoundScheduler: max_in_flight must be >= 1");
  }
  config_.expire_keep = ExpireKeep(config_);
  if (config_.expire_keep < config_.max_in_flight) {
    throw std::invalid_argument("RoundScheduler: expire_keep must cover the in-flight window");
  }
  workers_.reserve(hops_.size());
  for (size_t i = 0; i < hops_.size(); ++i) {
    workers_.push_back(std::make_unique<StageWorker>());
  }
  if (config_.distribution != nullptr) {
    if (config_.distribution_keep == 0) {
      throw std::invalid_argument("RoundScheduler: distribution_keep must be >= 1");
    }
    dist_worker_ = std::make_unique<StageWorker>();
  }
  obs::Registry& registry = obs::Registry::Global();
  obs_onions_submitted_ = registry.GetCounter("vuvuzela_onions_submitted_total",
                                              "Onions admitted into the round pipeline");
  obs_stage_onions_ =
      registry.GetCounter("vuvuzela_stage_onions_total", "Onions crossing any pipeline stage");
  obs_pass_seconds_ = registry.GetHistogram(
      "vuvuzela_pass_seconds", "Wall time of one chain pass at one stage worker",
      obs::PassLatencyBuckets());
}

RoundScheduler::~RoundScheduler() {
  Drain();
  // Join every stage thread before destroying any worker: a cross-stage
  // Post's condition-variable signal may still be executing on the posting
  // stage's thread after the posted task (and the whole round) completed, so
  // a worker's cv is safe to destroy only once all *other* stage threads are
  // gone too (TSan-caught destruction race).
  for (auto& worker : workers_) {
    worker->Stop();
  }
  if (dist_worker_) {
    dist_worker_->Stop();
  }
  workers_.clear();
  dist_worker_.reset();
}

void RoundScheduler::Admit() {
  std::unique_lock<std::mutex> lock(mutex_);
  admit_cv_.wait(lock, [this] { return in_flight_ < config_.max_in_flight; });
  ++in_flight_;
  stats_.max_observed_in_flight = std::max(stats_.max_observed_in_flight, in_flight_);
}

void RoundScheduler::Release(bool failed, double latency_seconds, bool dialing) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    --in_flight_;
    if (failed) {
      ++stats_.rounds_failed;
    } else if (dialing) {
      ++stats_.dialing_rounds_completed;
    } else {
      ++stats_.conversation_rounds_completed;
      stats_.total_conversation_latency_seconds += latency_seconds;
      if (config_.record_latencies) {
        stats_.conversation_latencies.push_back(latency_seconds);
      }
    }
  }
  admit_cv_.notify_one();
  drain_cv_.notify_all();
}

void RoundScheduler::RemoveActiveRound(uint64_t round) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = active_conversation_rounds_.find(round);
  if (it != active_conversation_rounds_.end()) {
    active_conversation_rounds_.erase(it);
  }
}

uint64_t RoundScheduler::ExpiryHorizon() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return active_conversation_rounds_.empty() ? newest_conversation_round_
                                             : *active_conversation_rounds_.begin();
}

void RoundScheduler::Drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  drain_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

size_t RoundScheduler::in_flight() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return in_flight_;
}

SchedulerStats RoundScheduler::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

// Failure paths mirror the completion path's ordering: account the round
// first, then surface the exception, so future.get() never observes stale
// scheduler state.
void RoundScheduler::FailConversation(std::shared_ptr<ConversationContext> ctx,
                                      std::exception_ptr error) {
  RemoveActiveRound(ctx->round);
  Release(/*failed=*/true, 0.0, /*dialing=*/false);
  ctx->promise.set_exception(CopyForFuture(std::move(error)));
}

void RoundScheduler::FailDialing(std::shared_ptr<DialingContext> ctx, std::exception_ptr error) {
  Release(/*failed=*/true, 0.0, /*dialing=*/true);
  ctx->promise.set_exception(CopyForFuture(std::move(error)));
}

// --- Conversation pipeline --------------------------------------------------

std::future<mixnet::Chain::ConversationResult> RoundScheduler::SubmitConversation(
    uint64_t round, std::vector<util::Bytes> onions) {
  Admit();
  if (config_.lifecycle) {
    config_.lifecycle->BeginAttempt(round, wire::RoundType::kConversation);
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    newest_conversation_round_ = std::max(newest_conversation_round_, round);
    active_conversation_rounds_.insert(round);
  }

  auto ctx = std::make_shared<ConversationContext>();
  ctx->round = round;
  ctx->batch = std::move(onions);
  ctx->result.stats.forward.resize(num_stages());
  ctx->result.stats.backward.resize(num_stages() - 1);
  ctx->submitted = Clock::now();
  ctx->forward_start = ctx->submitted;
  obs_onions_submitted_->Add(ctx->batch.size());
  std::future<mixnet::Chain::ConversationResult> future = ctx->promise.get_future();

  if (num_stages() == 1) {
    PostConversationLastHop(std::move(ctx));
  } else {
    PostConversationForward(std::move(ctx), 0);
  }
  return future;
}

void RoundScheduler::PostConversationForward(std::shared_ptr<ConversationContext> ctx,
                                             size_t position) {
  EmitStageSpan(ctx->round, "stage/enqueue", "forward", position, ctx->batch.size());
  workers_[position]->Post([this, ctx = std::move(ctx), position]() mutable {
    transport::HopTransport& hop = *hops_[position];
    const auto pass_start = Clock::now();
    try {
      if (config_.lifecycle) {
        config_.lifecycle->EnterForward(ctx->round, position);
      }
      // Shed state from rounds abandoned mid-pipeline before taking on
      // more. The horizon is the oldest round still in flight, so a live
      // round can never be expired, whatever the round numbering gaps.
      // (Remote hops piggyback this on the forward request.)
      hop.ExpireRounds(ExpiryHorizon(), config_.expire_keep);

      std::vector<util::Bytes> input_copy;
      if (observer_) {
        input_copy = ctx->batch;
      }
      ctx->batch = hop.ForwardConversation(ctx->round, std::move(ctx->batch),
                                           &ctx->result.stats.forward[position]);
      if (observer_) {
        observer_->OnForwardPass(position, ctx->round, input_copy, ctx->batch);
      }
    } catch (...) {
      FailConversation(std::move(ctx), std::current_exception());
      return;
    }
    const double pass_seconds = SecondsSince(pass_start);
    obs_pass_seconds_->Observe(pass_seconds);
    obs_stage_onions_->Add(ctx->batch.size());
    EmitStageSpan(ctx->round, "stage/pass", "forward", position, ctx->batch.size(), pass_seconds);
    if (position + 2 == num_stages()) {
      PostConversationLastHop(std::move(ctx));
    } else {
      PostConversationForward(std::move(ctx), position + 1);
    }
  });
}

void RoundScheduler::PostConversationLastHop(std::shared_ptr<ConversationContext> ctx) {
  size_t last = num_stages() - 1;
  EmitStageSpan(ctx->round, "stage/enqueue", "exchange", last, ctx->batch.size());
  workers_[last]->Post([this, ctx = std::move(ctx), last]() mutable {
    const auto pass_start = Clock::now();
    try {
      if (config_.lifecycle) {
        config_.lifecycle->EnterExchange(ctx->round);
      }
      std::vector<util::Bytes> input_copy;
      if (observer_) {
        input_copy = ctx->batch;
      }
      mixnet::MixServer::LastServerResult last_result =
          hops_[last]->ProcessConversationLastHop(ctx->round, std::move(ctx->batch),
                                                  &ctx->result.stats.forward[last]);
      ctx->result.histogram = last_result.histogram;
      ctx->result.messages_exchanged = last_result.messages_exchanged;
      ctx->batch = std::move(last_result.responses);
      if (observer_) {
        observer_->OnForwardPass(last, ctx->round, input_copy, ctx->batch);
        observer_->OnDeadDrops(ctx->round, ctx->result.histogram);
      }
      ctx->result.stats.forward_seconds = SecondsSince(ctx->forward_start);
      ctx->backward_start = Clock::now();
    } catch (...) {
      FailConversation(std::move(ctx), std::current_exception());
      return;
    }
    const double pass_seconds = SecondsSince(pass_start);
    obs_pass_seconds_->Observe(pass_seconds);
    obs_stage_onions_->Add(ctx->batch.size());
    EmitStageSpan(ctx->round, "stage/pass", "exchange", last, ctx->batch.size(), pass_seconds);
    if (last == 0) {
      CompleteConversation(std::move(ctx));
    } else {
      PostConversationBackward(std::move(ctx), last - 1);
    }
  });
}

void RoundScheduler::PostConversationBackward(std::shared_ptr<ConversationContext> ctx,
                                              size_t position) {
  EmitStageSpan(ctx->round, "stage/enqueue", "backward", position, ctx->batch.size());
  workers_[position]->Post([this, ctx = std::move(ctx), position]() mutable {
    const auto pass_start = Clock::now();
    try {
      if (config_.lifecycle) {
        config_.lifecycle->EnterBackward(ctx->round, position);
      }
      ctx->batch = hops_[position]->BackwardConversation(
          ctx->round, std::move(ctx->batch), &ctx->result.stats.backward[position]);
    } catch (...) {
      FailConversation(std::move(ctx), std::current_exception());
      return;
    }
    const double pass_seconds = SecondsSince(pass_start);
    obs_pass_seconds_->Observe(pass_seconds);
    obs_stage_onions_->Add(ctx->batch.size());
    EmitStageSpan(ctx->round, "stage/pass", "backward", position, ctx->batch.size(), pass_seconds);
    if (position == 0) {
      CompleteConversation(std::move(ctx));
    } else {
      PostConversationBackward(std::move(ctx), position - 1);
    }
  });
}

void RoundScheduler::CompleteConversation(std::shared_ptr<ConversationContext> ctx) {
  ctx->result.stats.backward_seconds = SecondsSince(ctx->backward_start);
  ctx->result.responses = std::move(ctx->batch);
  double latency = SecondsSince(ctx->submitted);
  if (config_.lifecycle) {
    config_.lifecycle->Complete(ctx->round);
  }
  // Release before fulfilling the promise: a caller woken by future.get()
  // must observe the round already counted in stats() and in_flight().
  RemoveActiveRound(ctx->round);
  Release(/*failed=*/false, latency, /*dialing=*/false);
  ctx->promise.set_value(std::move(ctx->result));
}

// --- Dialing pipeline -------------------------------------------------------

std::future<mixnet::Chain::DialingResult> RoundScheduler::SubmitDialing(
    uint64_t round, std::vector<util::Bytes> onions, uint32_t num_drops) {
  Admit();
  if (config_.lifecycle) {
    config_.lifecycle->BeginAttempt(round, wire::RoundType::kDialing);
  }

  auto ctx = std::make_shared<DialingContext>();
  ctx->round = round;
  ctx->num_drops = num_drops;
  ctx->batch = std::move(onions);
  ctx->stats.forward.resize(num_stages());
  ctx->forward_start = Clock::now();
  obs_onions_submitted_->Add(ctx->batch.size());
  std::future<mixnet::Chain::DialingResult> future = ctx->promise.get_future();

  if (num_stages() == 1) {
    PostDialingLastHop(std::move(ctx));
  } else {
    PostDialingForward(std::move(ctx), 0);
  }
  return future;
}

void RoundScheduler::PostDialingForward(std::shared_ptr<DialingContext> ctx, size_t position) {
  EmitStageSpan(ctx->round, "stage/enqueue", "forward", position, ctx->batch.size());
  workers_[position]->Post([this, ctx = std::move(ctx), position]() mutable {
    const auto pass_start = Clock::now();
    try {
      if (config_.lifecycle) {
        config_.lifecycle->EnterForward(ctx->round, position);
      }
      std::vector<util::Bytes> input_copy;
      if (observer_) {
        input_copy = ctx->batch;
      }
      ctx->batch = hops_[position]->ForwardDialing(ctx->round, std::move(ctx->batch),
                                                   ctx->num_drops, &ctx->stats.forward[position]);
      if (observer_) {
        observer_->OnForwardPass(position, ctx->round, input_copy, ctx->batch);
      }
    } catch (...) {
      FailDialing(std::move(ctx), std::current_exception());
      return;
    }
    const double pass_seconds = SecondsSince(pass_start);
    obs_pass_seconds_->Observe(pass_seconds);
    obs_stage_onions_->Add(ctx->batch.size());
    EmitStageSpan(ctx->round, "stage/pass", "forward", position, ctx->batch.size(), pass_seconds);
    if (position + 2 == num_stages()) {
      PostDialingLastHop(std::move(ctx));
    } else {
      PostDialingForward(std::move(ctx), position + 1);
    }
  });
}

void RoundScheduler::PostDialingLastHop(std::shared_ptr<DialingContext> ctx) {
  size_t last = num_stages() - 1;
  EmitStageSpan(ctx->round, "stage/enqueue", "exchange", last, ctx->batch.size());
  workers_[last]->Post([this, ctx = std::move(ctx), last]() mutable {
    const auto pass_start = Clock::now();
    try {
      if (config_.lifecycle) {
        config_.lifecycle->EnterExchange(ctx->round);
      }
      ctx->table = hops_[last]->ProcessDialingLastHop(ctx->round, std::move(ctx->batch),
                                                      ctx->num_drops, &ctx->stats.forward[last]);
      ctx->stats.forward_seconds = SecondsSince(ctx->forward_start);
    } catch (...) {
      FailDialing(std::move(ctx), std::current_exception());
      return;
    }
    const double pass_seconds = SecondsSince(pass_start);
    obs_pass_seconds_->Observe(pass_seconds);
    EmitStageSpan(ctx->round, "stage/pass", "exchange", last, 0, pass_seconds);
    if (config_.distribution != nullptr) {
      PostDialingDistribute(std::move(ctx));
    } else {
      CompleteDialing(std::move(ctx));
    }
  });
}

void RoundScheduler::PostDialingDistribute(std::shared_ptr<DialingContext> ctx) {
  EmitStageSpan(ctx->round, "stage/enqueue", "distribute", num_stages(), 0);
  dist_worker_->Post([this, ctx = std::move(ctx)]() mutable {
    const auto pass_start = Clock::now();
    try {
      if (config_.lifecycle) {
        config_.lifecycle->EnterDistribute(ctx->round);
      }
      // The table moves into the distribution tier, where clients download
      // it by bucket; the round's result keeps only the bucket count. A
      // failed publish (dead dist shard) fails this dialing round alone —
      // the coordinator's retry policy re-publishes idempotently.
      config_.distribution->Publish(ctx->round, std::move(*ctx->table));
      ctx->table.reset();
      config_.distribution->Expire(config_.distribution_keep);
    } catch (...) {
      FailDialing(std::move(ctx), std::current_exception());
      return;
    }
    const double pass_seconds = SecondsSince(pass_start);
    obs_pass_seconds_->Observe(pass_seconds);
    EmitStageSpan(ctx->round, "stage/pass", "distribute", num_stages(), 0, pass_seconds);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.invitation_tables_distributed;
    }
    CompleteDialing(std::move(ctx));
  });
}

void RoundScheduler::CompleteDialing(std::shared_ptr<DialingContext> ctx) {
  if (config_.lifecycle) {
    config_.lifecycle->Complete(ctx->round);
  }
  deaddrop::InvitationTable table =
      ctx->table.has_value() ? std::move(*ctx->table) : deaddrop::InvitationTable(ctx->num_drops);
  Release(/*failed=*/false, 0.0, /*dialing=*/true);
  ctx->promise.set_value(mixnet::Chain::DialingResult{std::move(table), std::move(ctx->stats)});
}

}  // namespace vuvuzela::engine
