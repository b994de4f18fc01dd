// net::EventLoop reactor tests: framing over edge-triggered readiness, slow
// readers and buffered writes, connection storms, adversarial disconnects,
// and a descriptor-limit-scaled soak in one process.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "src/net/event_loop.h"
#include "src/net/tcp.h"

namespace vuvuzela::net {
namespace {

using namespace std::chrono_literals;

// An EventLoop echo server on its own thread: every received frame is sent
// straight back. The base harness for the client-side tests.
class EchoServer {
 public:
  explicit EchoServer(EventLoopConfig config = {}) {
    EventLoop::Handlers handlers;
    handlers.on_frame = [this](EventLoop::ConnId id, Frame&& frame) {
      frames_seen_.fetch_add(1);
      loop_->Send(id, frame);
    };
    handlers.on_close = [this](EventLoop::ConnId) { closes_seen_.fetch_add(1); };
    loop_ = EventLoop::Create(std::move(handlers), config);
    auto listener = TcpListener::Listen(0, /*backlog=*/4096);
    port_ = listener->port();
    loop_->AddListener(std::move(*listener));
    thread_ = std::thread([this] { loop_->Run(); });
  }

  ~EchoServer() {
    loop_->Stop();
    thread_.join();
  }

  uint16_t port() const { return port_; }
  EventLoop& loop() { return *loop_; }
  size_t frames_seen() const { return frames_seen_.load(); }
  size_t closes_seen() const { return closes_seen_.load(); }

  bool WaitFrames(size_t n, std::chrono::milliseconds budget = 10000ms) {
    auto deadline = std::chrono::steady_clock::now() + budget;
    while (frames_seen_.load() < n) {
      if (std::chrono::steady_clock::now() > deadline) {
        return false;
      }
      std::this_thread::sleep_for(1ms);
    }
    return true;
  }

  bool WaitCloses(size_t n, std::chrono::milliseconds budget = 10000ms) {
    auto deadline = std::chrono::steady_clock::now() + budget;
    while (closes_seen_.load() < n) {
      if (std::chrono::steady_clock::now() > deadline) {
        return false;
      }
      std::this_thread::sleep_for(1ms);
    }
    return true;
  }

 private:
  std::unique_ptr<EventLoop> loop_;
  std::thread thread_;
  uint16_t port_ = 0;
  std::atomic<size_t> frames_seen_{0};
  std::atomic<size_t> closes_seen_{0};
};

TEST(EventLoop, EchoRoundTrip) {
  EchoServer server;
  auto conn = TcpConnection::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(conn.has_value());
  Frame frame{FrameType::kConversationRequest, 7, util::Bytes(416, 0xab)};
  ASSERT_TRUE(conn->SendFrame(frame));
  auto echoed = conn->RecvFrame();
  ASSERT_TRUE(echoed.has_value());
  EXPECT_EQ(echoed->type, frame.type);
  EXPECT_EQ(echoed->round, 7u);
  EXPECT_EQ(echoed->payload, frame.payload);
}

TEST(EventLoop, ManyFramesOneConnectionPreserveOrder) {
  EchoServer server;
  auto conn = TcpConnection::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(conn.has_value());
  constexpr uint64_t kFrames = 200;
  for (uint64_t i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(conn->SendFrame(Frame{FrameType::kDialRequest, i, util::Bytes(64, uint8_t(i))}));
  }
  for (uint64_t i = 0; i < kFrames; ++i) {
    auto echoed = conn->RecvFrame();
    ASSERT_TRUE(echoed.has_value());
    EXPECT_EQ(echoed->round, i);  // per-connection FIFO survives the reactor
  }
}

// Readiness storm: every client fires at once; edge-triggered dispatch must
// not lose frames or connections.
TEST(EventLoop, ReadinessStorm) {
  EchoServer server;
  constexpr size_t kClients = 256;
  std::vector<TcpConnection> conns;
  conns.reserve(kClients);
  for (size_t i = 0; i < kClients; ++i) {
    auto conn = TcpConnection::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(conn.has_value());
    conns.push_back(std::move(*conn));
  }
  for (size_t i = 0; i < kClients; ++i) {
    ASSERT_TRUE(conns[i].SendFrame(Frame{FrameType::kConversationRequest, i, {1, 2, 3}}));
  }
  ASSERT_TRUE(server.WaitFrames(kClients));
  for (auto& conn : conns) {
    auto echoed = conn.RecvFrame();
    ASSERT_TRUE(echoed.has_value());
  }
}

// A reply far larger than the socket buffers forces the partial-write path:
// the loop must buffer and flush on EPOLLOUT edges while the reader drains
// slowly, and the frame must arrive intact.
TEST(EventLoop, SlowReaderGetsBufferedWrites) {
  EchoServer server;
  auto conn = TcpConnection::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(conn.has_value());
  util::Bytes big(8u << 20);
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<uint8_t>(i * 31);
  }
  ASSERT_TRUE(conn->SendFrame(Frame{FrameType::kInvitationDrop, 3, big}));
  std::this_thread::sleep_for(50ms);  // let the echo hit EAGAIN and buffer
  auto echoed = conn->RecvFrame();
  ASSERT_TRUE(echoed.has_value());
  EXPECT_EQ(echoed->payload, big);
}

// A receiver that never reads must be shed at the write-buffer cap, not
// allowed to wedge the loop or grow memory without bound.
TEST(EventLoop, WriteBufferCapShedsDeadReader) {
  EventLoopConfig config;
  config.max_write_buffer = 1u << 20;
  EchoServer server(config);
  auto conn = TcpConnection::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(conn.has_value());
  // Each echo of a 256 KB frame lands in the server's write buffer; the
  // client never reads, so the cap trips within a few frames.
  util::Bytes chunk(256u << 10, 0x5a);
  for (int i = 0; i < 64 && server.closes_seen() == 0; ++i) {
    if (!conn->SendFrame(Frame{FrameType::kInvitationDrop, 1, chunk})) {
      break;  // server already cut us off mid-send
    }
  }
  EXPECT_TRUE(server.WaitCloses(1));
}

// A client dying mid-frame must fire on_close and deliver nothing.
TEST(EventLoop, MidFrameDisconnect) {
  EchoServer server;
  {
    auto conn = TcpConnection::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(conn.has_value());
    // Hand-build a frame announcing 1 MB and ship only the first bytes.
    util::Bytes wire = EventLoop::EncodeWireFrame(
        Frame{FrameType::kConversationRequest, 9, util::Bytes(1u << 20, 0xcd)});
    wire.resize(4096);
    int fd = conn->ReleaseFd();
    ASSERT_EQ(::write(fd, wire.data(), wire.size()), static_cast<ssize_t>(wire.size()));
    ::close(fd);
  }
  EXPECT_TRUE(server.WaitCloses(1));
  EXPECT_EQ(server.frames_seen(), 0u);
}

// A length prefix past the configured cap is cut off before the allocation.
TEST(EventLoop, OversizedFrameLengthCloses) {
  EventLoopConfig config;
  config.max_frame_payload = 1u << 16;
  EchoServer server(config);
  auto conn = TcpConnection::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(conn.has_value());
  uint8_t prefix[4];
  util::StoreBe32(prefix, (1u << 20) + static_cast<uint32_t>(kFrameHeaderBytes));
  int fd = conn->ReleaseFd();
  ASSERT_EQ(::write(fd, prefix, sizeof(prefix)), 4);
  EXPECT_TRUE(server.WaitCloses(1));
  ::close(fd);
}

// Garbage that parses as a length but not as a frame (bad type byte) also
// closes the connection instead of reaching handlers.
TEST(EventLoop, UndecodableFrameCloses) {
  EchoServer server;
  auto conn = TcpConnection::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(conn.has_value());
  Frame frame{FrameType::kDialAck, 1, {9}};
  util::Bytes wire = EventLoop::EncodeWireFrame(frame);
  wire[4] = 250;  // invalid FrameType
  int fd = conn->ReleaseFd();
  ASSERT_EQ(::write(fd, wire.data(), wire.size()), static_cast<ssize_t>(wire.size()));
  EXPECT_TRUE(server.WaitCloses(1));
  EXPECT_EQ(server.frames_seen(), 0u);
  ::close(fd);
}

TEST(EventLoop, PostRunsOnLoopThread) {
  EchoServer server;
  std::atomic<bool> ran{false};
  std::thread::id loop_thread;
  std::mutex mutex;
  std::condition_variable cv;
  server.loop().Post([&] {
    // Notify under the lock: once the waiter sees `ran` it returns and
    // destroys `cv`, so the notify must finish before the lock is released.
    std::lock_guard<std::mutex> lock(mutex);
    loop_thread = std::this_thread::get_id();
    ran.store(true);
    cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(mutex);
  ASSERT_TRUE(cv.wait_for(lock, 5s, [&] { return ran.load(); }));
  EXPECT_NE(loop_thread, std::this_thread::get_id());
}

// Client-side adoption: the loop drives an *outbound* connection — the shape
// the synthetic-client load generator runs at 100k scale.
TEST(EventLoop, AdoptedOutboundConnection) {
  EchoServer server;

  std::atomic<bool> got_reply{false};
  std::unique_ptr<EventLoop> client_loop;
  EventLoop::Handlers handlers;
  handlers.on_frame = [&](EventLoop::ConnId, Frame&& frame) {
    if (frame.round == 77) {
      got_reply.store(true);
      client_loop->Stop();
    }
  };
  client_loop = EventLoop::Create(std::move(handlers));
  auto conn = TcpConnection::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(conn.has_value());
  EventLoop::ConnId id = client_loop->AddConnection(std::move(*conn));
  ASSERT_NE(id, 0u);
  ASSERT_TRUE(client_loop->Send(id, Frame{FrameType::kConversationRequest, 77, {1}}));
  std::thread t([&] { client_loop->Run(); });
  t.join();
  EXPECT_TRUE(got_reply.load());
}

TEST(EventLoop, CloseConnFlushesPendingWritesFirst) {
  // Server sends a large frame and immediately closes: the client must still
  // receive the whole frame (graceful drain), then see EOF.
  std::unique_ptr<EventLoop> loop;
  util::Bytes big(4u << 20, 0x7e);
  EventLoop::Handlers handlers;
  handlers.on_accept = [&](EventLoop::ConnId id) {
    loop->Send(id, Frame{FrameType::kInvitationDrop, 5, big});
    loop->CloseConn(id);
  };
  loop = EventLoop::Create(std::move(handlers));
  auto listener = TcpListener::Listen(0);
  uint16_t port = listener->port();
  ASSERT_TRUE(loop->AddListener(std::move(*listener)));
  std::thread t([&] { loop->Run(); });

  auto conn = TcpConnection::Connect("127.0.0.1", port);
  ASSERT_TRUE(conn.has_value());
  auto frame = conn->RecvFrame();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->payload, big);
  EXPECT_FALSE(conn->RecvFrame().has_value());
  EXPECT_EQ(conn->last_recv_status(), RecvStatus::kEof);

  loop->Stop();
  t.join();
}

// Soak: as many concurrent connections as the process's descriptor budget
// allows (target 10k), each submitting one frame — one loop thread serves
// them all. Client sockets live in this same process, so each connection
// costs two descriptors.
TEST(EventLoop, TenThousandConnectionSoak) {
  rlimit limit{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &limit), 0);
  if (limit.rlim_cur < limit.rlim_max) {
    limit.rlim_cur = limit.rlim_max;
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &limit), 0);
  }
  const size_t budget = static_cast<size_t>(limit.rlim_cur);
  const size_t kConns = std::min<size_t>(10000, (budget - 128) / 2);

  EchoServer server;
  std::vector<TcpConnection> conns;
  conns.reserve(kConns);
  for (size_t i = 0; i < kConns; ++i) {
    auto conn = TcpConnection::Connect("127.0.0.1", server.port(), /*timeout_ms=*/10000);
    ASSERT_TRUE(conn.has_value()) << "connect " << i << " failed";
    conns.push_back(std::move(*conn));
  }
  for (size_t i = 0; i < kConns; ++i) {
    ASSERT_TRUE(
        conns[i].SendFrame(Frame{FrameType::kConversationRequest, i, util::Bytes(32, 0x11)}));
  }
  ASSERT_TRUE(server.WaitFrames(kConns, 60000ms));
  EXPECT_EQ(server.loop().connections(), kConns);
  // Spot-check echoes across the fleet rather than serially draining all.
  for (size_t i = 0; i < kConns; i += kConns / 97 + 1) {
    auto echoed = conns[i].RecvFrame();
    ASSERT_TRUE(echoed.has_value());
    EXPECT_EQ(echoed->round, i);
  }
  conns.clear();
  EXPECT_TRUE(server.WaitCloses(kConns, 60000ms));
}

}  // namespace
}  // namespace vuvuzela::net
