#include "src/net/event_loop.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <utility>

#include "src/obs/registry.h"
#include "src/util/logging.h"

namespace vuvuzela::net {

namespace {

// data.u64 slot reserved for the eventfd; connection/listener ids start at 1.
constexpr uint64_t kWakeId = 0;

// Flushed-prefix length past which the output buffer is compacted instead of
// growing an ever-larger dead prefix during a long partial-flush sequence.
constexpr size_t kOutCompactThreshold = 256u << 10;

// recv() granularity. Input buffers only ever hold what the socket
// delivered, so this also bounds per-read transient memory.
constexpr size_t kReadChunk = 64u << 10;

bool SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

std::unique_ptr<EventLoop> EventLoop::Create(Handlers handlers, EventLoopConfig config) {
  int epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd < 0) {
    return nullptr;
  }
  int wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd < 0) {
    ::close(epoll_fd);
    return nullptr;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;  // level-triggered: the handler drains the counter
  ev.data.u64 = kWakeId;
  if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, wake_fd, &ev) != 0) {
    ::close(wake_fd);
    ::close(epoll_fd);
    return nullptr;
  }
  return std::unique_ptr<EventLoop>(
      new EventLoop(std::move(handlers), config, epoll_fd, wake_fd));
}

EventLoop::EventLoop(Handlers handlers, EventLoopConfig config, int epoll_fd, int wake_fd)
    : handlers_(std::move(handlers)), config_(config), epoll_fd_(epoll_fd), wake_fd_(wake_fd) {
  obs::Registry& registry = obs::Registry::Global();
  obs_accepts_ = registry.GetCounter("vuvuzela_reactor_accepts_total",
                                     "Connections accepted by reactor listeners");
  obs_frames_ = registry.GetCounter("vuvuzela_reactor_frames_total",
                                    "Complete frames parsed by reactor loops");
  obs_sheds_ = registry.GetCounter(
      "vuvuzela_reactor_sheds_total",
      "Connections closed for exceeding the write-buffer ceiling (slow-loris)");
  obs_spilled_bytes_ = registry.GetCounter(
      "vuvuzela_reactor_spilled_bytes_total",
      "Outbound bytes that missed the direct write and spilled into the write buffer");
  obs_closes_ = registry.GetCounter("vuvuzela_reactor_closes_total",
                                    "Reactor connections closed (any path)");
}

EventLoop::~EventLoop() {
  for (auto& [id, conn] : conns_) {
    ::close(conn.fd);
  }
  // listener_ closes its own descriptor via ~TcpListener.
  if (wake_fd_ >= 0) {
    ::close(wake_fd_);
  }
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
  }
}

bool EventLoop::AddListener(TcpListener listener) {
  if (listener_id_ != 0 || !listener.valid() || !SetNonBlocking(listener.fd())) {
    return false;
  }
  ConnId id = next_id_++;
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET;
  ev.data.u64 = id;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listener.fd(), &ev) != 0) {
    return false;
  }
  listener_ = std::move(listener);
  listener_id_ = id;
  return true;
}

EventLoop::ConnId EventLoop::AddConnection(TcpConnection conn) {
  int fd = conn.ReleaseFd();
  if (fd < 0) {
    return 0;
  }
  if (!SetNonBlocking(fd)) {
    ::close(fd);
    return 0;
  }
  return Register(fd);
}

EventLoop::ConnId EventLoop::Register(int fd) {
  ConnId id = next_id_++;
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP;
  ev.data.u64 = id;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    ::close(fd);
    return 0;
  }
  Conn conn;
  conn.fd = fd;
  conns_.emplace(id, std::move(conn));
  num_connections_.fetch_add(1, std::memory_order_relaxed);
  return id;
}

void EventLoop::AcceptReady() {
  while (true) {
    int fd = ::accept4(listener_.fd(), nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) {
        continue;
      }
      // EAGAIN: queue drained. EMFILE/ENFILE: out of descriptors — the edge
      // re-arms on the next arrival, so shedding here is safe.
      if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EMFILE && errno != ENFILE) {
        VZ_LOG_WARN << "event_loop: accept failed: " << std::strerror(errno);
      }
      return;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ConnId id = Register(fd);
    if (id != 0) {
      obs_accepts_->Add();
      if (handlers_.on_accept) {
        handlers_.on_accept(id);
      }
    }
  }
}

void EventLoop::ReadReady(ConnId id, bool peer_hup) {
  while (true) {
    auto it = conns_.find(id);
    if (it == conns_.end()) {
      return;
    }
    Conn& conn = it->second;
    if (conn.draining) {
      // Drain-and-discard: the connection only stays open to flush writes.
      uint8_t trash[4096];
      ssize_t n = ::recv(conn.fd, trash, sizeof(trash), 0);
      if (n > 0) {
        continue;
      }
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;
      }
      Close(id);
      return;
    }
    // Receive into the loop-wide scratch buffer and append only what
    // arrived: growing conn.in by a full kReadChunk per recv would pin a
    // chunk-sized allocation on every one of 100K+ connections (and the
    // realloc churn dominates an admission storm with page faults).
    if (read_scratch_.size() < kReadChunk) {
      read_scratch_.resize(kReadChunk);
    }
    ssize_t n = ::recv(conn.fd, read_scratch_.data(), kReadChunk, 0);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return;
      }
      Close(id);
      return;
    }
    if (n == 0) {
      Close(id);
      return;
    }
    conn.in.insert(conn.in.end(), read_scratch_.begin(), read_scratch_.begin() + n);
    if (!ParseFrames(id)) {
      return;
    }
    if (static_cast<size_t>(n) < kReadChunk && !peer_hup) {
      // Short read: the socket buffer is drained, the edge will re-arm.
      // Not taken after EPOLLRDHUP/HUP/ERR — the peer is gone, so no new
      // edge is coming and the pending EOF must be read out now.
      return;
    }
  }
}

bool EventLoop::ParseFrames(ConnId id) {
  size_t offset = 0;
  while (true) {
    auto it = conns_.find(id);
    if (it == conns_.end()) {
      return false;  // a handler closed the connection
    }
    Conn& conn = it->second;
    if (conn.draining || conn.in.size() - offset < 4) {
      break;
    }
    const uint8_t* base = conn.in.data() + offset;
    const uint32_t len = util::LoadBe32(base);
    if (len < kFrameHeaderBytes || len > config_.max_frame_payload + kFrameHeaderBytes) {
      Close(id);
      return false;
    }
    if (conn.in.size() - offset < 4 + static_cast<size_t>(len)) {
      break;  // frame incomplete; keep buffering
    }
    auto frame = DecodeFrame(util::ByteSpan(base + 4, len));
    if (!frame) {
      Close(id);
      return false;
    }
    offset += 4 + static_cast<size_t>(len);
    obs_frames_->Add();
    if (handlers_.on_frame) {
      handlers_.on_frame(id, std::move(*frame));
    }
  }
  auto it = conns_.find(id);
  if (it == conns_.end()) {
    return false;
  }
  if (offset > 0) {
    util::Bytes& in = it->second.in;
    in.erase(in.begin(), in.begin() + static_cast<ptrdiff_t>(offset));
    // Don't let one large frame pin its allocation on an otherwise-idle
    // connection for the rest of its life (100K+ connections make per-conn
    // capacity the memory budget).
    if (in.capacity() > (64u << 10) && in.size() < in.capacity() / 4) {
      in.shrink_to_fit();
    }
  }
  return true;
}

util::Bytes EventLoop::EncodeWireFrame(const Frame& frame) {
  util::Bytes encoded = EncodeFrame(frame);
  util::Bytes wire(4 + encoded.size());
  util::StoreBe32(wire.data(), static_cast<uint32_t>(encoded.size()));
  std::copy(encoded.begin(), encoded.end(), wire.begin() + 4);
  return wire;
}

bool EventLoop::Send(ConnId id, const Frame& frame) {
  return SendEncoded(id, EncodeWireFrame(frame));
}

bool EventLoop::SendEncoded(ConnId id, const util::Bytes& wire) {
  const uint8_t* data = wire.data();
  const size_t len = wire.size();
  auto it = conns_.find(id);
  if (it == conns_.end() || it->second.draining) {
    return false;
  }
  Conn& conn = it->second;
  size_t written = 0;
  if (conn.out_offset == conn.out.size() && conn.writable) {
    // Nothing queued: write straight to the socket, queue only the tail.
    conn.out.clear();
    conn.out_offset = 0;
    while (written < len) {
      ssize_t n = ::send(conn.fd, data + written, len - written, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          conn.writable = false;
          break;
        }
        Close(id);
        return false;
      }
      written += static_cast<size_t>(n);
    }
    if (written == len) {
      return true;
    }
  }
  const size_t pending = conn.out.size() - conn.out_offset;
  if (pending + (len - written) > config_.max_write_buffer) {
    VZ_LOG_WARN << "event_loop: conn " << id << " write buffer over "
                << config_.max_write_buffer << " bytes, closing";
    obs_sheds_->Add();
    Close(id);
    return false;
  }
  if (conn.out_offset > kOutCompactThreshold) {
    conn.out.erase(conn.out.begin(), conn.out.begin() + static_cast<ptrdiff_t>(conn.out_offset));
    conn.out_offset = 0;
  }
  conn.out.insert(conn.out.end(), data + written, data + len);
  obs_spilled_bytes_->Add(len - written);
  return true;
}

bool EventLoop::FlushWrites(ConnId id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) {
    return false;
  }
  Conn& conn = it->second;
  while (conn.out_offset < conn.out.size()) {
    ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_offset,
                       conn.out.size() - conn.out_offset, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        conn.writable = false;
        return true;
      }
      Close(id);
      return false;
    }
    conn.out_offset += static_cast<size_t>(n);
  }
  conn.out.clear();
  conn.out_offset = 0;
  if (conn.draining) {
    Close(id);
    return false;
  }
  return true;
}

void EventLoop::CloseConn(ConnId id) {
  auto it = conns_.find(id);
  if (it == conns_.end() || it->second.draining) {
    return;
  }
  it->second.draining = true;
  if (it->second.out_offset == it->second.out.size()) {
    Close(id);
    return;
  }
  FlushWrites(id);  // closes now if it drains; otherwise EPOLLOUT finishes it
}

void EventLoop::Close(ConnId id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) {
    return;
  }
  int fd = it->second.fd;
  conns_.erase(it);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  num_connections_.fetch_sub(1, std::memory_order_relaxed);
  obs_closes_->Add();
  if (handlers_.on_close) {
    handlers_.on_close(id);
  }
}

void EventLoop::Post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(tasks_mutex_);
    tasks_.push_back(std::move(fn));
  }
  uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::RunTasks() {
  std::deque<std::function<void()>> batch;
  {
    std::lock_guard<std::mutex> lock(tasks_mutex_);
    batch.swap(tasks_);
  }
  for (auto& fn : batch) {
    fn();
  }
}

void EventLoop::Stop() {
  stop_.store(true, std::memory_order_release);
  uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

bool EventLoop::Run() {
  if (epoll_fd_ < 0) {
    return false;
  }
  std::array<epoll_event, 256> events;
  while (!stop_.load(std::memory_order_acquire)) {
    int n = ::epoll_wait(epoll_fd_, events.data(), static_cast<int>(events.size()), -1);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    for (int i = 0; i < n; ++i) {
      if (stop_.load(std::memory_order_acquire)) {
        break;
      }
      const uint64_t id = events[i].data.u64;
      const uint32_t ev = events[i].events;
      if (id == kWakeId) {
        uint64_t counter = 0;
        while (::read(wake_fd_, &counter, sizeof(counter)) > 0) {
        }
        RunTasks();
        continue;
      }
      if (id == listener_id_) {
        AcceptReady();
        continue;
      }
      if (conns_.find(id) == conns_.end()) {
        continue;  // closed earlier in this batch; ids are never reused
      }
      if (ev & EPOLLOUT) {
        conns_.find(id)->second.writable = true;
        if (!FlushWrites(id)) {
          continue;
        }
      }
      if (ev & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) {
        ReadReady(id, (ev & (EPOLLRDHUP | EPOLLHUP | EPOLLERR)) != 0);
      }
    }
  }
  return true;
}

}  // namespace vuvuzela::net
