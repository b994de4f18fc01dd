// Networking substrate tests: frame codec and TCP loopback transport.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "src/net/frame.h"
#include "src/net/tcp.h"
#include "src/util/random.h"

namespace vuvuzela::net {
namespace {

TEST(Frame, RoundTrip) {
  Frame frame{FrameType::kConversationRequest, 42, {1, 2, 3}};
  auto decoded = DecodeFrame(EncodeFrame(frame));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, FrameType::kConversationRequest);
  EXPECT_EQ(decoded->round, 42u);
  EXPECT_EQ(decoded->payload, (util::Bytes{1, 2, 3}));
}

TEST(Frame, EmptyPayload) {
  Frame frame{FrameType::kShutdown, 0, {}};
  auto decoded = DecodeFrame(EncodeFrame(frame));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->payload.empty());
}

TEST(Frame, RejectsBadType) {
  Frame frame{FrameType::kDialAck, 1, {9}};
  util::Bytes data = EncodeFrame(frame);
  data[0] = 200;
  EXPECT_FALSE(DecodeFrame(data).has_value());
}

TEST(Frame, RejectsTruncation) {
  Frame frame{FrameType::kDialAck, 1, {9, 9, 9}};
  util::Bytes data = EncodeFrame(frame);
  data.pop_back();
  EXPECT_FALSE(DecodeFrame(data).has_value());
  EXPECT_FALSE(DecodeFrame(util::Bytes(3)).has_value());
}

TEST(Frame, RejectsTrailingBytes) {
  Frame frame{FrameType::kDialAck, 1, {9}};
  util::Bytes data = EncodeFrame(frame);
  data.push_back(0);
  EXPECT_FALSE(DecodeFrame(data).has_value());
}

TEST(Frame, RejectsLyingLength) {
  Frame frame{FrameType::kDialAck, 1, {1, 2, 3, 4}};
  util::Bytes data = EncodeFrame(frame);
  data[9 + 3] = 0xff;  // length field claims far more than present
  EXPECT_FALSE(DecodeFrame(data).has_value());
}

// The daemons' --hops / --dist / --exchange form and client_fleet's --coord.
TEST(Endpoint, ParsesListsAndRejectsMalformedEntries) {
  std::vector<Endpoint> endpoints;
  ASSERT_TRUE(ParseEndpointList("127.0.0.1:7341,localhost:65535", &endpoints));
  ASSERT_EQ(endpoints.size(), 2u);
  EXPECT_EQ(endpoints[0].host, "127.0.0.1");
  EXPECT_EQ(endpoints[0].port, 7341);
  EXPECT_EQ(endpoints[1].host, "localhost");
  EXPECT_EQ(endpoints[1].port, 65535);
  for (const char* bad : {"", "127.0.0.1", ":7341", "127.0.0.1:0", "127.0.0.1:65536",
                          "127.0.0.1:7341,,127.0.0.1:7342", "h:7341x", "h:12 "}) {
    std::vector<Endpoint> rejected;
    EXPECT_FALSE(ParseEndpointList(bad, &rejected)) << bad;
  }
}

TEST(Tcp, LoopbackFrameExchange) {
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.has_value());
  ASSERT_GT(listener->port(), 0);

  std::thread server([&] {
    auto conn = listener->Accept();
    ASSERT_TRUE(conn.has_value());
    auto frame = conn->RecvFrame();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->type, FrameType::kConversationRequest);
    EXPECT_EQ(frame->round, 7u);
    Frame reply{FrameType::kConversationResponse, 7, frame->payload};
    EXPECT_TRUE(conn->SendFrame(reply));
  });

  auto client = TcpConnection::Connect("127.0.0.1", listener->port());
  ASSERT_TRUE(client.has_value());
  util::Xoshiro256Rng rng(1);
  Frame request{FrameType::kConversationRequest, 7, rng.RandomBytes(416)};
  ASSERT_TRUE(client->SendFrame(request));
  auto reply = client->RecvFrame();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, FrameType::kConversationResponse);
  EXPECT_EQ(reply->payload, request.payload);
  server.join();
}

TEST(Tcp, LargeFrame) {
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.has_value());
  std::thread server([&] {
    auto conn = listener->Accept();
    auto frame = conn->RecvFrame();
    ASSERT_TRUE(frame.has_value());
    conn->SendFrame(*frame);
  });
  auto client = TcpConnection::Connect("127.0.0.1", listener->port());
  ASSERT_TRUE(client.has_value());
  util::Xoshiro256Rng rng(2);
  Frame big{FrameType::kBatch, 1, rng.RandomBytes(4 << 20)};  // 4 MB
  ASSERT_TRUE(client->SendFrame(big));
  auto echo = client->RecvFrame();
  ASSERT_TRUE(echo.has_value());
  EXPECT_EQ(echo->payload, big.payload);
  server.join();
}

TEST(Tcp, EofOnPeerClose) {
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.has_value());
  std::thread server([&] {
    auto conn = listener->Accept();
    conn->Close();
  });
  auto client = TcpConnection::Connect("127.0.0.1", listener->port());
  ASSERT_TRUE(client.has_value());
  EXPECT_FALSE(client->RecvFrame().has_value());
  EXPECT_EQ(client->last_recv_status(), RecvStatus::kEof);
  server.join();
}

// A dead peer must surface as a timeout — a distinct error from EOF — so a
// stage waiting on a wedged hop can abandon the round instead of blocking
// its worker thread forever.
TEST(Tcp, RecvDeadlineTimesOutDistinctFromEof) {
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.has_value());
  std::promise<void> close_now;
  std::thread server([&] {
    auto conn = listener->Accept();
    close_now.get_future().wait();  // hold the connection open, send nothing
    conn->Close();
  });

  auto client = TcpConnection::Connect("127.0.0.1", listener->port());
  ASSERT_TRUE(client.has_value());
  ASSERT_TRUE(client->SetRecvTimeout(100));
  EXPECT_FALSE(client->RecvFrame().has_value());
  EXPECT_EQ(client->last_recv_status(), RecvStatus::kTimeout);

  close_now.set_value();
  // After the peer actually closes, the same connection reports EOF, not a
  // timeout (retry through any deadline that fires before the close lands).
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(client->RecvFrame().has_value());
    if (client->last_recv_status() != RecvStatus::kTimeout) {
      break;
    }
  }
  EXPECT_EQ(client->last_recv_status(), RecvStatus::kEof);
  server.join();
}

// The deadline only fires at frame boundaries: a frame whose bytes trickle in
// slower than the deadline still completes (aborting mid-frame would
// desynchronize the stream), and a peer dying mid-frame surfaces as EOF.
TEST(Tcp, RecvDeadlineToleratesSlowMidFrameProgress) {
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.has_value());

  // A raw client that sends a frame in two halves with a stall longer than
  // the receive deadline in between.
  int raw = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(raw, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(listener->port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(raw, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  Frame frame{FrameType::kDialAck, 3, {7, 7, 7}};
  util::Bytes encoded = EncodeFrame(frame);
  util::Bytes wire(4 + encoded.size());
  util::StoreBe32(wire.data(), static_cast<uint32_t>(encoded.size()));
  std::memcpy(wire.data() + 4, encoded.data(), encoded.size());

  std::thread sender([&] {
    ASSERT_EQ(::send(raw, wire.data(), 2, 0), 2);
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    ASSERT_EQ(::send(raw, wire.data() + 2, wire.size() - 2, 0),
              static_cast<ssize_t>(wire.size() - 2));
  });

  auto server_side = listener->Accept();
  ASSERT_TRUE(server_side.has_value());
  ASSERT_TRUE(server_side->SetRecvTimeout(100));
  auto received = server_side->RecvFrame();
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(received->round, 3u);
  EXPECT_EQ(received->payload, frame.payload);
  sender.join();

  // A peer dying mid-frame is EOF, not a timeout.
  ASSERT_EQ(::send(raw, wire.data(), 3, 0), 3);
  ::close(raw);
  EXPECT_FALSE(server_side->RecvFrame().has_value());
  EXPECT_EQ(server_side->last_recv_status(), RecvStatus::kEof);
}

TEST(Tcp, ConnectToClosedPortFails) {
  // Find a port that is almost surely closed by binding and releasing it.
  auto listener = TcpListener::Listen(0);
  uint16_t port = listener->port();
  listener->Close();
  EXPECT_FALSE(TcpConnection::Connect("127.0.0.1", port).has_value());
}

TEST(Tcp, ConnectReportsRefusalDistinctFromTimeout) {
  auto listener = TcpListener::Listen(0);
  uint16_t port = listener->port();
  listener->Close();
  ConnectStatus status = ConnectStatus::kOk;
  EXPECT_FALSE(TcpConnection::Connect("127.0.0.1", port, /*timeout_ms=*/500, &status)
                   .has_value());
  // Nothing listening: active refusal, not a deadline expiry — a reconnect
  // supervisor may retry this immediately.
  EXPECT_EQ(status, ConnectStatus::kRefused);
}

TEST(Tcp, ConnectDeadlineBoundsUnroutableHosts) {
  // 198.51.100.1 is TEST-NET-2 (RFC 5737): never routable on the public
  // internet. Depending on the sandbox it either black-holes (kTimeout) or
  // reports no-route fast (kError); the property under test is that the call
  // returns within the deadline instead of minutes of SYN retransmission,
  // and that the failure is never classified as a refusal.
  auto start = std::chrono::steady_clock::now();
  ConnectStatus status = ConnectStatus::kOk;
  auto conn = TcpConnection::Connect("198.51.100.1", 9, /*timeout_ms=*/250, &status);
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(3));
  if (conn.has_value()) {
    // A sandbox with a transparent proxy can "successfully" connect to
    // anything; the deadline property is untestable there.
    GTEST_SKIP() << "environment intercepts outbound connections";
  }
  EXPECT_NE(status, ConnectStatus::kOk);
  EXPECT_NE(status, ConnectStatus::kRefused);
}

TEST(Tcp, ConnectWithDeadlineStillWorksOnLoopback) {
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.has_value());
  ConnectStatus status = ConnectStatus::kError;
  auto client =
      TcpConnection::Connect("127.0.0.1", listener->port(), /*timeout_ms=*/1000, &status);
  ASSERT_TRUE(client.has_value());
  EXPECT_EQ(status, ConnectStatus::kOk);
  // The socket must be back in blocking mode: a frame echo works as usual.
  auto server_side = listener->Accept();
  ASSERT_TRUE(server_side.has_value());
  Frame frame{FrameType::kConversationRequest, 3, {7, 7}};
  ASSERT_TRUE(client->SendFrame(frame));
  auto received = server_side->RecvFrame();
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(received->payload, frame.payload);
}

// Regression: SendFrame on a non-blocking socket must survive partial writes
// and EAGAIN (poll for writability and resume), not report failure with a
// half-frame on the wire. This is the blocking transport's contract once
// descriptors start moving between it and the event loop.
TEST(Tcp, SendFrameSurvivesNonBlockingPartialWrites) {
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.has_value());
  auto client = TcpConnection::Connect("127.0.0.1", listener->port());
  ASSERT_TRUE(client.has_value());
  auto server_side = listener->Accept();
  ASSERT_TRUE(server_side.has_value());

  // Re-wrap the client socket as non-blocking with a tiny send buffer, so a
  // multi-megabyte frame is guaranteed to hit EAGAIN mid-write.
  int fd = client->ReleaseFd();
  int small = 8 << 10;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &small, sizeof(small)), 0);
  int flags = ::fcntl(fd, F_GETFL, 0);
  ASSERT_EQ(::fcntl(fd, F_SETFL, flags | O_NONBLOCK), 0);
  TcpConnection nonblocking(fd);

  util::Bytes big(4u << 20);
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<uint8_t>(i * 13);
  }
  std::thread reader([&] {
    // Start late so the writer is parked in EAGAIN, then drain.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    auto frame = server_side->RecvFrame();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->payload, big);
  });
  EXPECT_TRUE(nonblocking.SendFrame(Frame{FrameType::kInvitationDrop, 2, big}));
  reader.join();
}

// Reads exactly `n` raw bytes off a blocking descriptor.
util::Bytes RecvRaw(int fd, size_t n) {
  util::Bytes out(n);
  size_t got = 0;
  while (got < n) {
    ssize_t r = ::recv(fd, out.data() + got, n - got, 0);
    if (r <= 0) {
      out.resize(got);
      return out;
    }
    got += static_cast<size_t>(r);
  }
  return out;
}

// A gathered send puts exactly SendFrame's bytes on the wire, even when it
// spans more pieces than one sendmsg call takes (IOV_MAX) and a non-blocking
// socket with a tiny send buffer splits it mid-piece.
TEST(Tcp, SendFramePartsMatchesJoinedFrame) {
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.has_value());
  auto client = TcpConnection::Connect("127.0.0.1", listener->port());
  ASSERT_TRUE(client.has_value());
  auto server_side = listener->Accept();
  ASSERT_TRUE(server_side.has_value());
  int fd = client->ReleaseFd();
  int small = 8 << 10;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &small, sizeof(small)), 0);
  ASSERT_EQ(::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK), 0);
  TcpConnection nonblocking(fd);

  util::Xoshiro256Rng rng(11);
  std::vector<util::Bytes> buffers;
  for (int i = 0; i < 5000; ++i) {
    buffers.push_back(rng.RandomBytes(rng.UniformUint64(700)));  // empty pieces included
  }
  std::vector<util::ByteSpan> parts(buffers.begin(), buffers.end());
  Frame joined{FrameType::kBatchChunk, 77, {}};
  for (const util::Bytes& buffer : buffers) {
    util::Append(joined.payload, buffer);
  }
  util::Bytes expected(4);
  util::StoreBe32(expected.data(),
                  static_cast<uint32_t>(kFrameHeaderBytes + joined.payload.size()));
  util::Append(expected, EncodeFrame(joined));

  int server_fd = server_side->ReleaseFd();
  util::Bytes wire;
  std::thread reader([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));  // park the writer in EAGAIN
    wire = RecvRaw(server_fd, expected.size());
  });
  EXPECT_TRUE(nonblocking.SendFrameParts(FrameType::kBatchChunk, 77, parts));
  reader.join();
  ::close(server_fd);
  EXPECT_EQ(wire, expected);
}

TEST(Tcp, SendFramePartsRejectsOversizedPayload) {
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.has_value());
  auto client = TcpConnection::Connect("127.0.0.1", listener->port());
  ASSERT_TRUE(client.has_value());
  util::Bytes mb(1u << 20);
  std::vector<util::ByteSpan> parts((kMaxFramePayload >> 20) + 1, util::ByteSpan(mb));
  EXPECT_FALSE(client->SendFrameParts(FrameType::kBatch, 1, parts));
}

// RecvFrame reads payloads in place, but a frame whose header is bad still
// has its declared length consumed: the next frame decodes normally.
TEST(Tcp, MalformedFrameKeepsStreamAligned) {
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.has_value());
  auto client = TcpConnection::Connect("127.0.0.1", listener->port());
  ASSERT_TRUE(client.has_value());
  auto server_side = listener->Accept();
  ASSERT_TRUE(server_side.has_value());

  util::Bytes bad_type = EncodeFrame(Frame{FrameType::kDialAck, 1, {1, 2, 3}});
  bad_type[0] = 200;
  util::Bytes lying_length = EncodeFrame(Frame{FrameType::kDialAck, 2, {4, 5, 6, 7}});
  lying_length[kFrameHeaderBytes - 1] = 3;  // header claims 3 payload bytes, frame carries 4
  util::Bytes well_formed = EncodeFrame(Frame{FrameType::kDialAck, 3, {8, 9}});
  int fd = client->ReleaseFd();
  for (const util::Bytes* encoded : {&bad_type, &lying_length, &well_formed}) {
    uint8_t prefix[4];
    util::StoreBe32(prefix, static_cast<uint32_t>(encoded->size()));
    ASSERT_EQ(::send(fd, prefix, 4, 0), 4);
    ASSERT_EQ(::send(fd, encoded->data(), encoded->size(), 0),
              static_cast<ssize_t>(encoded->size()));
  }
  // Closing right after the send turns a misaligned read into EOF, not a hang.
  ::close(fd);

  EXPECT_FALSE(server_side->RecvFrame().has_value());
  EXPECT_EQ(server_side->last_recv_status(), RecvStatus::kMalformed);
  EXPECT_FALSE(server_side->RecvFrame().has_value());
  EXPECT_EQ(server_side->last_recv_status(), RecvStatus::kMalformed);
  auto good = server_side->RecvFrame();
  ASSERT_TRUE(good.has_value());
  EXPECT_EQ(good->round, 3u);
  EXPECT_EQ(good->payload, (util::Bytes{8, 9}));
}

TEST(Tcp, ListenAcceptsBacklogParameter) {
  auto listener = TcpListener::Listen(0, /*backlog=*/1);
  ASSERT_TRUE(listener.has_value());
  auto client = TcpConnection::Connect("127.0.0.1", listener->port());
  ASSERT_TRUE(client.has_value());
  EXPECT_TRUE(listener->Accept().has_value());
}

TEST(Tcp, MultipleFramesOnOneConnection) {
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.has_value());
  std::thread server([&] {
    auto conn = listener->Accept();
    for (int i = 0; i < 5; ++i) {
      auto frame = conn->RecvFrame();
      ASSERT_TRUE(frame.has_value());
      conn->SendFrame(*frame);
    }
  });
  auto client = TcpConnection::Connect("127.0.0.1", listener->port());
  ASSERT_TRUE(client.has_value());
  for (uint64_t i = 0; i < 5; ++i) {
    Frame frame{FrameType::kDialRequest, i, {static_cast<uint8_t>(i)}};
    ASSERT_TRUE(client->SendFrame(frame));
    auto echo = client->RecvFrame();
    ASSERT_TRUE(echo.has_value());
    EXPECT_EQ(echo->round, i);
  }
  server.join();
}

}  // namespace
}  // namespace vuvuzela::net
