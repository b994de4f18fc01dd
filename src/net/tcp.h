// Blocking TCP transport with length-prefixed frames.
//
// The hand-rolled networking substrate for real deployments: the paper's
// clients connect to the entry server over TCP (§7), and chain servers talk
// to their successors the same way. Frames are the net::Frame type; each
// send is [u32 total_len][frame bytes]. Blocking I/O with one thread per
// connection is plenty for a chain of single-digit servers; the
// million-client edges run on net::EventLoop (event_loop.h) instead.
//
// THREADING CONTRACT. A TcpConnection belongs to one thread at a time, with
// two carve-outs: Shutdown() may race a blocked RecvFrame (that is its
// purpose), and send/recv may proceed on two separate threads as long as
// each side stays single-threaded. TcpListener is the same shape: one
// accepting thread, Shutdown() callable from another. OWNERSHIP: both types
// own their descriptor and close it on destruction; moves transfer it, and
// ReleaseFd() (connection only) hands it off — e.g. to an EventLoop.

#ifndef VUVUZELA_SRC_NET_TCP_H_
#define VUVUZELA_SRC_NET_TCP_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/net/frame.h"

namespace vuvuzela::net {

// A TCP peer address: a hop, an exchange or dist shard, or the coordinator.
struct Endpoint {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
};

// Appends the endpoints of a comma-separated "host:port[,host:port...]" list
// (the daemons' command-line form). False on an empty list, an empty host, or
// a port that is not all digits or is outside 1..65535.
bool ParseEndpointList(const std::string& list, std::vector<Endpoint>* endpoints);

// Why RecvFrame failed. A dead remote hop (timeout) must be distinguishable
// from an orderly close (EOF): the round engine abandons the round on the
// former and tears the connection down on the latter.
enum class RecvStatus : uint8_t {
  kOk = 0,
  kEof,        // peer closed the connection cleanly
  kTimeout,    // receive deadline (SetRecvTimeout) elapsed
  kError,      // socket error / invalid connection
  kMalformed,  // framing violated (bad length, bad type, truncation)
};

// Why Connect failed. A host that silently swallows SYNs (down machine,
// black-holed route) must be distinguishable from one actively refusing
// (nothing listening on the port): a reconnect supervisor backs off on the
// former and can retry quickly on the latter.
enum class ConnectStatus : uint8_t {
  kOk = 0,
  kRefused,  // peer reachable, connection refused (no listener)
  kTimeout,  // connect deadline elapsed with no answer
  kError,    // bad address, no route, or other socket error
};

class TcpConnection {
 public:
  TcpConnection() = default;
  explicit TcpConnection(int fd) : fd_(fd) {}
  ~TcpConnection();

  TcpConnection(TcpConnection&& other) noexcept;
  TcpConnection& operator=(TcpConnection&& other) noexcept;
  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  // Connects to host:port (IPv4 dotted or "localhost"). `timeout_ms > 0`
  // arms a connect deadline (non-blocking connect + poll, mirroring the
  // SO_RCVTIMEO receive deadlines) so an unroutable or silently-dropping host
  // cannot wedge the caller; 0 keeps the OS default blocking connect.
  // `status` (optional) reports why a failed connect failed.
  static std::optional<TcpConnection> Connect(const std::string& host, uint16_t port,
                                              int timeout_ms = 0,
                                              ConnectStatus* status = nullptr);

  bool valid() const { return fd_ >= 0; }

  // Sends one frame; false on I/O error.
  bool SendFrame(const Frame& frame);

  // Sends one frame whose payload is the concatenation of `parts`. The kernel
  // gathers the parts straight from the caller's buffers (sendmsg), so the
  // payload is never staged in a contiguous copy; the wire bytes equal
  // SendFrame of the joined payload. False on I/O error or a payload over
  // kMaxFramePayload.
  bool SendFrameParts(FrameType type, uint64_t round, std::span<const util::ByteSpan> parts);

  // Receives one frame; nullopt on EOF, I/O error, timeout, or malformed
  // framing — last_recv_status() says which. The payload is read in place
  // into the returned frame's buffer. A malformed header still has its
  // declared length consumed, so the stream stays aligned on the next frame.
  // `on_header`, if set, is called with the frame's type and round once its
  // header has been read and found well-formed, before the payload buffer is
  // allocated: a receiver can free memory the coming frame makes obsolete
  // before that frame's payload takes its place.
  std::optional<Frame> RecvFrame(
      const std::function<void(FrameType, uint64_t)>& on_header = nullptr);

  // Arms a receive deadline (SO_RCVTIMEO): a RecvFrame that sees no data for
  // `milliseconds` while waiting for a frame to *start* fails with
  // RecvStatus::kTimeout instead of blocking forever on a dead peer. Once a
  // frame's first byte has arrived, RecvFrame waits for its completion
  // (reporting a mid-frame timeout would desynchronize the stream); a peer
  // that dies mid-frame surfaces as EOF/reset. 0 disables the deadline.
  bool SetRecvTimeout(int milliseconds);

  RecvStatus last_recv_status() const { return last_recv_status_; }

  // Wakes a thread blocked in RecvFrame on this connection (it observes EOF)
  // without invalidating the descriptor. This is the only member safe to call
  // concurrently with RecvFrame — use it to interrupt a reader thread, then
  // join it before Close().
  void Shutdown();

  void Close();

  // Relinquishes ownership of the descriptor to the caller and leaves this
  // connection invalid; -1 if already closed. The caller must close it.
  int ReleaseFd();

 private:
  // `frame_started` suppresses the receive deadline: bytes of the current
  // frame were already consumed, so a timeout could not be resumed safely.
  bool RecvAll(uint8_t* data, size_t len, bool frame_started);

  int fd_ = -1;
  RecvStatus last_recv_status_ = RecvStatus::kOk;
};

class TcpListener {
 public:
  TcpListener() = default;
  ~TcpListener();

  TcpListener(TcpListener&& other) noexcept;
  TcpListener& operator=(TcpListener&& other) noexcept;
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  // Listens on 127.0.0.1:port; port 0 picks an ephemeral port. `backlog`
  // bounds the kernel accept queue — front-door listeners that face connect
  // storms raise it (the effective value is also capped by somaxconn).
  static std::optional<TcpListener> Listen(uint16_t port, int backlog = 128);
  // The accept queue of the listeners clients reach (coordd's front door,
  // distd). Admission storms are the design load: a connect burst deeper
  // than the backlog gets SYNs dropped and retried, which shows up as
  // admission-latency outliers.
  static constexpr int kClientBacklog = 4096;

  uint16_t port() const { return port_; }
  bool valid() const { return fd_ >= 0; }
  // The listening descriptor, still owned by this listener. EventLoop uses
  // it to register for readiness; everyone else should call Accept().
  int fd() const { return fd_; }

  // Blocks for the next connection; nullopt on error/close.
  std::optional<TcpConnection> Accept();

  // Wakes a thread blocked in Accept (it returns nullopt) without
  // invalidating the descriptor; safe to call concurrently with Accept,
  // unlike Close(). Join the accepting thread before Close().
  void Shutdown();

  void Close();

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
};

}  // namespace vuvuzela::net

#endif  // VUVUZELA_SRC_NET_TCP_H_
