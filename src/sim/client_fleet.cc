#include "src/sim/client_fleet.h"

#include <atomic>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <utility>

#include "src/client/dialing_fetcher.h"
#include "src/sim/workload.h"

namespace vuvuzela::sim {

namespace {

// §8.1: 5% of users send a real invitation each dialing round.
constexpr double kDialFraction = 0.05;

std::vector<util::Bytes> RoundBatch(const ClientFleetConfig& config,
                                    const wire::RoundAnnouncement& announcement) {
  WorkloadConfig workload;
  workload.num_users = config.users;
  if (announcement.type == wire::RoundType::kConversation && !config.users_per_round.empty()) {
    workload.num_users =
        config.users_per_round[(announcement.round - 1) % config.users_per_round.size()];
  }
  workload.pairing_fraction = 1.0;
  workload.seed = config.seed + announcement.round;
  if (announcement.type == wire::RoundType::kConversation) {
    return GenerateConversationWorkload(workload, config.chain, announcement.round);
  }
  dialing::RoundConfig dial_config;
  dial_config.num_real_drops =
      announcement.num_dial_dead_drops > 1 ? announcement.num_dial_dead_drops - 1 : 1;
  return GenerateDialingWorkload(workload, config.chain, announcement.round, dial_config,
                                 kDialFraction);
}

}  // namespace

std::optional<ClientFleetResult> RunClientFleet(const ClientFleetConfig& config) {
  std::vector<net::TcpConnection> conns;
  for (uint64_t i = 0; i < config.users; ++i) {
    auto conn = net::TcpConnection::Connect(config.coordinator.host, config.coordinator.port);
    if (!conn) {
      return std::nullopt;
    }
    conns.push_back(std::move(*conn));
  }
  ClientFleetResult result;
  result.responses.resize(conns.size());
  result.buckets.resize(conns.size());
  std::atomic<uint64_t> fetches_sent{0}, fetches{0}, fetch_bytes{0};
  // The announced round's batch, built by the first client to see the round.
  std::mutex batch_mutex;
  uint64_t batch_round = 0;  // round numbers start at 1
  std::vector<util::Bytes> batch;
  auto onion_for = [&](const wire::RoundAnnouncement& announcement, size_t i) {
    std::lock_guard<std::mutex> lock(batch_mutex);
    if (batch_round != announcement.round) {
      batch = RoundBatch(config, announcement);
      batch_round = announcement.round;
    }
    return i < batch.size() ? batch[i] : util::Bytes{};
  };

  auto play = [&](size_t i) {
    uint32_t dial_drops = 0;  // announced in every dialing round
    // One fetcher per client, as a real client holds one: its shard links
    // connect at its first download.
    std::unique_ptr<client::DialingFetcher> fetcher;
    if (!config.dist.empty()) {
      fetcher = std::make_unique<client::DialingFetcher>(
          client::DialingFetcherConfig{.shards = config.dist});
    }
    while (auto frame = conns[i].RecvFrame()) {
      if (frame->type == net::FrameType::kShutdown) {
        break;
      } else if (frame->type == net::FrameType::kConversationResponse) {
        result.responses[i][frame->round] = std::move(frame->payload);
      } else if (frame->type == net::FrameType::kDialAck && fetcher && dial_drops > 0) {
        // The download finishes before the next frame is read, so it is
        // never cut short by coordd's kShutdown.
        ++fetches_sent;
        try {
          result.buckets[i][frame->round] =
              fetcher->FetchBucket(frame->round, static_cast<uint32_t>(i % dial_drops), dial_drops);
        } catch (const std::exception&) {
          // Unanswered: the fetcher counts answered fetches only.
        }
      } else if (frame->type == net::FrameType::kRoundAnnouncement) {
        auto announcement = wire::RoundAnnouncement::Parse(frame->payload);
        if (!announcement) {
          continue;
        }
        net::FrameType request = net::FrameType::kConversationRequest;
        if (announcement->type == wire::RoundType::kDialing) {
          request = net::FrameType::kDialRequest;
          dial_drops = announcement->num_dial_dead_drops;
        }
        util::Bytes onion = onion_for(*announcement, i);
        if (!onion.empty()) {
          conns[i].SendFrame(net::Frame{request, announcement->round, std::move(onion)});
        }
      }
    }
    if (fetcher) {
      fetches += fetcher->buckets_fetched();
      fetch_bytes += fetcher->bytes_fetched();
    }
  };
  // Futures rather than threads: a client's exception reaches the caller
  // through get(), and every client is joined on the way out.
  std::vector<std::future<void>> clients;
  for (size_t i = 0; i < conns.size(); ++i) {
    clients.push_back(std::async(std::launch::async, play, i));
  }
  for (auto& client : clients) {
    client.get();
  }
  result.dialing_fetches_expected = fetches_sent;
  result.dialing_fetches = fetches;
  result.dialing_fetch_bytes = fetch_bytes;
  return result;
}

}  // namespace vuvuzela::sim
