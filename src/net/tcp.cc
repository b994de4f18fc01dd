#include "src/net/tcp.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstring>
#include <sstream>
#include <vector>

#include "src/util/flags.h"

namespace vuvuzela::net {

bool ParseEndpointList(const std::string& list, std::vector<Endpoint>* endpoints) {
  std::istringstream entries(list);
  for (std::string entry; std::getline(entries, entry, ',');) {
    size_t colon = entry.rfind(':');
    uint16_t port = 0;
    if (colon == 0 || colon == std::string::npos ||
        !util::ParseUnsigned(entry.c_str() + colon + 1, 65535, &port) || port == 0) {
      return false;  // reject rather than truncating "7341x" to 7341
    }
    endpoints->push_back({entry.substr(0, colon), port});
  }
  return !endpoints->empty();
}

TcpConnection::~TcpConnection() { Close(); }

TcpConnection::TcpConnection(TcpConnection&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

TcpConnection& TcpConnection::operator=(TcpConnection&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void TcpConnection::Shutdown() {
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);
  }
}

void TcpConnection::Close() {
  if (fd_ >= 0) {
    // shutdown() first so a thread blocked in recv() on this connection wakes
    // up; close() alone does not reliably interrupt it.
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    fd_ = -1;
  }
}

int TcpConnection::ReleaseFd() {
  int fd = fd_;
  fd_ = -1;
  return fd;
}

std::optional<TcpConnection> TcpConnection::Connect(const std::string& host, uint16_t port,
                                                    int timeout_ms, ConnectStatus* status) {
  auto fail = [&](ConnectStatus why, int fd) -> std::optional<TcpConnection> {
    if (fd >= 0) {
      ::close(fd);
    }
    if (status) {
      *status = why;
    }
    return std::nullopt;
  };
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return fail(ConnectStatus::kError, -1);
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  std::string ip = (host == "localhost") ? "127.0.0.1" : host;
  if (inet_pton(AF_INET, ip.c_str(), &addr.sin_addr) != 1) {
    return fail(ConnectStatus::kError, fd);
  }

  int flags = 0;
  if (timeout_ms > 0) {
    flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
      return fail(ConnectStatus::kError, fd);
    }
  }
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0) {
    if (timeout_ms <= 0 || errno != EINPROGRESS) {
      return fail(errno == ECONNREFUSED ? ConnectStatus::kRefused : ConnectStatus::kError, fd);
    }
    // Deadline-bounded completion wait: a host black-holing SYNs surfaces as
    // kTimeout here instead of minutes of kernel retransmission.
    pollfd pfd{fd, POLLOUT, 0};
    int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready == 0) {
      return fail(ConnectStatus::kTimeout, fd);
    }
    if (ready < 0) {
      return fail(ConnectStatus::kError, fd);
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0 || so_error != 0) {
      return fail(so_error == ECONNREFUSED ? ConnectStatus::kRefused : ConnectStatus::kError,
                  fd);
    }
  }
  if (timeout_ms > 0 && ::fcntl(fd, F_SETFL, flags) != 0) {
    return fail(ConnectStatus::kError, fd);
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (status) {
    *status = ConnectStatus::kOk;
  }
  return TcpConnection(fd);
}

namespace {

// Writes every byte `iov` describes, in order, gathering from the caller's
// buffers. sendmsg rather than writev for MSG_NOSIGNAL; at most IOV_MAX
// entries go per call. Entries must be non-empty.
bool SendGather(int fd, std::vector<iovec>& iov) {
  size_t next = 0;
  while (next < iov.size()) {
    msghdr msg{};
    msg.msg_iov = iov.data() + next;
    msg.msg_iovlen = std::min<size_t>(iov.size() - next, IOV_MAX);
    ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        // The descriptor is non-blocking (adopted back from an event loop,
        // or mid-flight during a deadline-armed Connect) or a send deadline
        // elapsed with the buffer full. A partial frame already on the wire
        // cannot be abandoned — the stream would desynchronize — so wait for
        // writability and resume.
        pollfd pfd{fd, POLLOUT, 0};
        if (::poll(&pfd, 1, -1) < 0 && errno != EINTR) {
          return false;
        }
        continue;
      }
      return false;
    }
    // Retire the entries sent whole, then trim a partially sent one.
    auto sent = static_cast<size_t>(n);
    while (next < iov.size() && sent >= iov[next].iov_len) {
      sent -= iov[next].iov_len;
      ++next;
    }
    if (sent > 0) {
      iov[next].iov_base = static_cast<uint8_t*>(iov[next].iov_base) + sent;
      iov[next].iov_len -= sent;
    }
  }
  return true;
}

}  // namespace

bool TcpConnection::RecvAll(uint8_t* data, size_t len, bool frame_started) {
  size_t received = 0;
  while (received < len) {
    ssize_t n = ::recv(fd_, data + received, len - received, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n == 0) {
        // A clean close mid-frame is still a truncated frame, but the
        // distinction callers act on is dead-peer vs gone-peer.
        last_recv_status_ = RecvStatus::kEof;
      } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (frame_started || received > 0) {
          // The deadline only fires at a frame boundary: once any byte of a
          // frame is in, reporting a timeout would desynchronize the stream
          // (the consumed bytes cannot be pushed back), so keep waiting —
          // a genuinely dead peer ends with EOF/reset instead.
          continue;
        }
        last_recv_status_ = RecvStatus::kTimeout;  // SO_RCVTIMEO elapsed, idle
      } else {
        last_recv_status_ = RecvStatus::kError;
      }
      return false;
    }
    received += static_cast<size_t>(n);
  }
  return true;
}

bool TcpConnection::SetRecvTimeout(int milliseconds) {
  if (fd_ < 0 || milliseconds < 0) {
    return false;
  }
  timeval tv{};
  tv.tv_sec = milliseconds / 1000;
  tv.tv_usec = static_cast<suseconds_t>(milliseconds % 1000) * 1000;
  return ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) == 0;
}

bool TcpConnection::SendFrame(const Frame& frame) {
  util::ByteSpan payload = frame.payload;
  return SendFrameParts(frame.type, frame.round, {&payload, 1});
}

bool TcpConnection::SendFrameParts(FrameType type, uint64_t round,
                                   std::span<const util::ByteSpan> parts) {
  size_t payload_len = 0;
  for (util::ByteSpan part : parts) {
    payload_len += part.size();
  }
  if (fd_ < 0 || payload_len > kMaxFramePayload) {
    return false;
  }
  // [u32 frame length][frame header], then the payload parts in place.
  uint8_t head[4 + kFrameHeaderBytes];
  util::StoreBe32(head, static_cast<uint32_t>(kFrameHeaderBytes + payload_len));
  auto header = EncodeFrameHeader({type, round, static_cast<uint32_t>(payload_len)});
  std::copy(header.begin(), header.end(), head + 4);
  std::vector<iovec> iov;
  iov.reserve(parts.size() + 1);
  iov.push_back({head, sizeof head});
  for (util::ByteSpan part : parts) {
    if (!part.empty()) {
      iov.push_back({const_cast<uint8_t*>(part.data()), part.size()});
    }
  }
  return SendGather(fd_, iov);
}

std::optional<Frame> TcpConnection::RecvFrame(
    const std::function<void(FrameType, uint64_t)>& on_header) {
  if (fd_ < 0) {
    last_recv_status_ = RecvStatus::kError;
    return std::nullopt;
  }
  uint8_t head[4 + kFrameHeaderBytes];
  if (!RecvAll(head, 4, /*frame_started=*/false)) {
    return std::nullopt;
  }
  uint32_t len = util::LoadBe32(head);
  if (len < kFrameHeaderBytes || len > kMaxFramePayload + kFrameHeaderBytes) {
    last_recv_status_ = RecvStatus::kMalformed;
    return std::nullopt;
  }
  if (!RecvAll(head + 4, kFrameHeaderBytes, /*frame_started=*/true)) {
    return std::nullopt;
  }
  auto header = DecodeFrameHeader(util::ByteSpan(head + 4, kFrameHeaderBytes));
  const bool well_formed = header && header->payload_len == len - kFrameHeaderBytes;
  if (well_formed && on_header) {
    on_header(header->type, header->round);
  }
  // Read the payload straight into the frame's own buffer — even under a
  // malformed header, so the stream stays aligned on the next frame.
  Frame frame;
  frame.payload.resize(len - kFrameHeaderBytes);
  if (!RecvAll(frame.payload.data(), frame.payload.size(), /*frame_started=*/true)) {
    return std::nullopt;
  }
  if (!well_formed) {
    last_recv_status_ = RecvStatus::kMalformed;
    return std::nullopt;
  }
  frame.type = header->type;
  frame.round = header->round;
  last_recv_status_ = RecvStatus::kOk;
  return frame;
}

TcpListener::~TcpListener() { Close(); }

TcpListener::TcpListener(TcpListener&& other) noexcept : fd_(other.fd_), port_(other.port_) {
  other.fd_ = -1;
}

TcpListener& TcpListener::operator=(TcpListener&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    port_ = other.port_;
    other.fd_ = -1;
  }
  return *this;
}

void TcpListener::Shutdown() {
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);
  }
}

void TcpListener::Close() {
  if (fd_ >= 0) {
    // shutdown() wakes any thread blocked in accept() (close() alone may
    // leave it parked forever) — Stop()-style teardown depends on it.
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    fd_ = -1;
  }
}

std::optional<TcpListener> TcpListener::Listen(uint16_t port, int backlog) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return std::nullopt;
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, backlog) != 0) {
    ::close(fd);
    return std::nullopt;
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) != 0) {
    ::close(fd);
    return std::nullopt;
  }
  TcpListener listener;
  listener.fd_ = fd;
  listener.port_ = ntohs(addr.sin_port);
  return listener;
}

std::optional<TcpConnection> TcpListener::Accept() {
  if (fd_ < 0) {
    return std::nullopt;
  }
  int client = ::accept(fd_, nullptr, nullptr);
  if (client < 0) {
    return std::nullopt;
  }
  int one = 1;
  ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return TcpConnection(client);
}

}  // namespace vuvuzela::net
