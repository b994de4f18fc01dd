#include "src/sim/wiretap.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <utility>

#include "src/net/frame.h"
#include "src/util/bytes.h"

namespace vuvuzela::sim {

namespace {

// Pending-connection queue of the tap's listener.
constexpr int kListenBacklog = 64;

uint64_t MonoNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// Incremental frame reassembler for one direction of one connection. The
// stream is a sequence of [u32 total_len][u8 type][u64 round][u32
// payload_len][payload]; the reassembler captures the 17 bytes that carry
// length and header, skips the payload by count, and reports each completed
// frame. A malformed prefix (len < header size) desyncs the parser for the
// rest of the connection; those bytes are reported unattributed.
struct FrameParser {
  static constexpr size_t kHead = 4 + net::kFrameHeaderBytes;

  uint8_t head[kHead];
  size_t head_filled = 0;
  uint64_t body_remaining = 0;  // payload bytes still to skip
  bool in_frame = false;
  bool desynced = false;
};

}  // namespace

WireTap::WireTap(WireTapConfig config, net::TcpListener listener)
    : config_(std::move(config)), listener_(std::move(listener)) {}

std::unique_ptr<WireTap> WireTap::Create(WireTapConfig config) {
  auto listener = net::TcpListener::Listen(config.listen_port, kListenBacklog);
  if (!listener) {
    return nullptr;
  }
  return std::unique_ptr<WireTap>(new WireTap(std::move(config), std::move(*listener)));
}

std::unique_ptr<WireTap> WireTap::Start(WireTapConfig config) {
  auto tap = Create(std::move(config));
  if (tap) {
    tap->Activate();
  }
  return tap;
}

void WireTap::Activate() {
  if (active_) {
    return;
  }
  active_ = true;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
}

WireTap::~WireTap() { Shutdown(); }

WireTap::Relay::~Relay() {
  if (client_fd >= 0) {
    ::close(client_fd);
  }
  if (upstream_fd >= 0) {
    ::close(upstream_fd);
  }
}

void WireTap::AcceptLoop() {
  for (;;) {
    auto client = listener_.Accept();
    if (!client) {
      return;  // listener shut down
    }
    auto upstream =
        net::TcpConnection::Connect(config_.upstream_host, config_.upstream_port, 5000);
    if (!upstream) {
      continue;  // tapped endpoint gone; drop the dialing peer
    }
    auto relay = std::make_unique<Relay>();
    // Raw descriptors: the pumps relay bytes verbatim, so framing and
    // deadlines never alter what crosses the tapped link.
    relay->client_fd = client->ReleaseFd();
    relay->upstream_fd = upstream->ReleaseFd();
    Relay* r = relay.get();
    {
      std::lock_guard<std::mutex> lock(relays_mutex_);
      if (shut_down_) {
        return;  // raced Shutdown; descriptors close with the relay
      }
      relay->forward = std::thread(
          [this, r] { Pump(r->client_fd, r->upstream_fd, TapDirection::kForward); });
      relay->backward = std::thread(
          [this, r] { Pump(r->upstream_fd, r->client_fd, TapDirection::kBackward); });
      relays_.push_back(std::move(relay));
    }
  }
}

void WireTap::Pump(int from_fd, int to_fd, TapDirection direction) {
  std::vector<uint8_t> buffer(64 * 1024);
  FrameParser parser;
  for (;;) {
    ssize_t n = ::recv(from_fd, buffer.data(), buffer.size(), 0);
    if (n <= 0) {
      break;
    }
    // Relay first: the deployment must never stall on tap bookkeeping.
    size_t sent = 0;
    while (sent < static_cast<size_t>(n)) {
      ssize_t w = ::send(to_fd, buffer.data() + sent, static_cast<size_t>(n) - sent,
                         MSG_NOSIGNAL);
      if (w <= 0) {
        ::shutdown(from_fd, SHUT_RD);
        return;
      }
      sent += static_cast<size_t>(w);
    }
    // Reassemble frames from the relayed bytes.
    size_t offset = 0;
    while (offset < static_cast<size_t>(n)) {
      size_t available = static_cast<size_t>(n) - offset;
      if (parser.desynced) {
        Record(TapRecord{MonoNs(), direction, available, 0, 0});
        offset += available;
        break;
      }
      if (parser.in_frame) {
        size_t take = static_cast<size_t>(
            std::min<uint64_t>(parser.body_remaining, available));
        parser.body_remaining -= take;
        offset += take;
        if (parser.body_remaining == 0) {
          parser.in_frame = false;
          uint32_t frame_len = util::LoadBe32(parser.head);
          Record(TapRecord{MonoNs(), direction, 4ull + frame_len, parser.head[4],
                           util::LoadBe64(parser.head + 5)});
          parser.head_filled = 0;
        }
        continue;
      }
      size_t take = std::min(FrameParser::kHead - parser.head_filled, available);
      std::memcpy(parser.head + parser.head_filled, buffer.data() + offset, take);
      parser.head_filled += take;
      offset += take;
      if (parser.head_filled < FrameParser::kHead) {
        continue;  // need more of the prefix+header
      }
      uint32_t frame_len = util::LoadBe32(parser.head);
      if (frame_len < net::kFrameHeaderBytes ||
          frame_len > net::kMaxFramePayload + net::kFrameHeaderBytes) {
        parser.desynced = true;
        Record(TapRecord{MonoNs(), direction, FrameParser::kHead, 0, 0});
        continue;
      }
      parser.body_remaining = frame_len - net::kFrameHeaderBytes;
      parser.in_frame = true;
      if (parser.body_remaining == 0) {
        // Header-only frame completes immediately.
        parser.in_frame = false;
        Record(TapRecord{MonoNs(), direction, 4ull + frame_len, parser.head[4],
                         util::LoadBe64(parser.head + 5)});
        parser.head_filled = 0;
      }
    }
  }
  // EOF (or shutdown) from the source: propagate the half-close so the
  // tapped endpoints observe the same stream shape as an untapped link.
  ::shutdown(to_fd, SHUT_WR);
}

void WireTap::Record(TapRecord record) {
  std::lock_guard<std::mutex> lock(records_mutex_);
  if (record.direction == TapDirection::kForward) {
    bytes_forward_ += record.bytes;
  } else {
    bytes_backward_ += record.bytes;
  }
  records_.push_back(record);
}

void WireTap::Shutdown() {
  std::vector<std::unique_ptr<Relay>> relays;
  {
    std::lock_guard<std::mutex> lock(relays_mutex_);
    if (shut_down_) {
      return;
    }
    shut_down_ = true;
    relays.swap(relays_);
  }
  listener_.Shutdown();
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  for (auto& relay : relays) {
    ::shutdown(relay->client_fd, SHUT_RDWR);
    ::shutdown(relay->upstream_fd, SHUT_RDWR);
  }
  for (auto& relay : relays) {
    if (relay->forward.joinable()) {
      relay->forward.join();
    }
    if (relay->backward.joinable()) {
      relay->backward.join();
    }
  }
}

std::vector<TapRecord> WireTap::Records() const {
  std::lock_guard<std::mutex> lock(records_mutex_);
  return records_;
}

std::string WireTap::DumpJsonl() const {
  std::vector<TapRecord> records = Records();
  std::string out;
  char line[256];
  for (const TapRecord& record : records) {
    std::snprintf(line, sizeof line,
                  "{\"label\":\"%s\",\"mono_ns\":%llu,\"dir\":\"%s\",\"bytes\":%llu,"
                  "\"type\":%u,\"round\":%llu}\n",
                  config_.label.c_str(), static_cast<unsigned long long>(record.mono_ns),
                  record.direction == TapDirection::kForward ? "fwd" : "rev",
                  static_cast<unsigned long long>(record.bytes),
                  static_cast<unsigned>(record.frame_type),
                  static_cast<unsigned long long>(record.round));
    out += line;
  }
  return out;
}

uint64_t WireTap::bytes_forward() const {
  std::lock_guard<std::mutex> lock(records_mutex_);
  return bytes_forward_;
}

uint64_t WireTap::bytes_backward() const {
  std::lock_guard<std::mutex> lock(records_mutex_);
  return bytes_backward_;
}

std::map<uint64_t, uint64_t> WireTap::PerRoundBytes(TapDirection direction) const {
  std::vector<TapRecord> records = Records();
  std::map<uint64_t, uint64_t> per_round;
  for (const TapRecord& record : records) {
    if (record.direction == direction) {
      per_round[record.round] += record.bytes;
    }
  }
  return per_round;
}

}  // namespace vuvuzela::sim
