// Concurrent shard fan-out shared by the partition routers.
//
// Both router tiers — ExchangeRouter splitting a round's dead-drop exchange
// across vuvuzela-exchanged shards, DistRouter pushing invitation-table
// slices to vuvuzela-distd shards — fan one round's work out to a fleet and
// must fail deterministically when several shards die at once: every call
// finishes (no shard left mid-RPC with its connection in an unknown state),
// then the lowest-shard failure is rethrown.

#ifndef VUVUZELA_SRC_TRANSPORT_FANOUT_H_
#define VUVUZELA_SRC_TRANSPORT_FANOUT_H_

#include <exception>
#include <functional>
#include <thread>
#include <vector>

namespace vuvuzela::transport {

// Runs `fn(shard)` concurrently for every shard in `shards` (each <
// `num_shards`); rethrows the lowest-shard failure after all calls finish.
// A single shard runs inline — no thread spawn on the common small-fleet
// path.
inline void FanOutShards(size_t num_shards, const std::vector<size_t>& shards,
                         const std::function<void(size_t)>& fn) {
  if (shards.size() == 1) {
    fn(shards[0]);
    return;
  }
  std::vector<std::exception_ptr> errors(num_shards);
  auto call = [&](size_t shard) {
    try {
      fn(shard);
    } catch (...) {
      errors[shard] = std::current_exception();
    }
  };
  // The calling thread takes the first shard itself: one thread fewer per
  // round, and that shard's reply lands in the caller's heap.
  std::vector<std::thread> threads;
  threads.reserve(shards.size());
  for (size_t i = 1; i < shards.size(); ++i) {
    threads.emplace_back(call, shards[i]);
  }
  if (!shards.empty()) {
    call(shards[0]);
  }
  for (auto& thread : threads) {
    thread.join();
  }
  for (const auto& error : errors) {
    if (error) {
      std::rethrow_exception(error);
    }
  }
}

}  // namespace vuvuzela::transport

#endif  // VUVUZELA_SRC_TRANSPORT_FANOUT_H_
