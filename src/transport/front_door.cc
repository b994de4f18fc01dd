#include "src/transport/front_door.h"

#include <chrono>
#include <utility>

namespace vuvuzela::transport {

FrontDoor::FrontDoor(const FrontDoorConfig& config, FrontDoorHandlers handlers,
                     net::TcpListener listener)
    : config_(config),
      handlers_(std::move(handlers)),
      port_(listener.port()),
      listener_(std::move(listener)) {}

std::unique_ptr<FrontDoor> FrontDoor::Create(const FrontDoorConfig& config,
                                             FrontDoorHandlers handlers) {
  auto listener = net::TcpListener::Listen(config.port, net::TcpListener::kClientBacklog);
  if (!listener) {
    return nullptr;
  }
  return std::unique_ptr<FrontDoor>(
      new FrontDoor(config, std::move(handlers), std::move(*listener)));
}

FrontDoor::~FrontDoor() { Shutdown(); }

bool FrontDoor::Start() {
  if (started_) {
    return false;
  }
  net::EventLoopConfig loop_config;
  loop_config.max_frame_payload = config_.max_frame_payload;
  net::EventLoop::Handlers loop_handlers;
  loop_handlers.on_accept = [this](net::EventLoop::ConnId id) { HandleAccept(id); };
  loop_handlers.on_frame = [this](net::EventLoop::ConnId id, net::Frame&& frame) {
    HandleFrame(id, std::move(frame));
  };
  loop_handlers.on_close = [this](net::EventLoop::ConnId id) { HandleClose(id); };
  loop_ = net::EventLoop::Create(std::move(loop_handlers), loop_config);
  if (!loop_ || !loop_->AddListener(std::move(listener_))) {
    loop_.reset();
    return false;
  }
  started_ = true;
  loop_thread_ = std::thread([this] { loop_->Run(); });
  return true;
}

void FrontDoor::HandleAccept(net::EventLoop::ConnId id) {
  size_t index = slots_.size();
  slots_.push_back(id);
  index_of_.emplace(id, index);
  {
    std::lock_guard<std::mutex> lock(clients_mutex_);
    clients_seen_.fetch_add(1);
    alive_.fetch_add(1);
  }
  clients_cv_.notify_all();
}

void FrontDoor::HandleFrame(net::EventLoop::ConnId id, net::Frame&& frame) {
  auto it = index_of_.find(id);
  if (it == index_of_.end()) {
    return;
  }
  if (handlers_.on_frame) {
    handlers_.on_frame(it->second, std::move(frame));
  }
}

void FrontDoor::HandleClose(net::EventLoop::ConnId id) {
  auto it = index_of_.find(id);
  if (it == index_of_.end()) {
    return;
  }
  size_t index = it->second;
  index_of_.erase(it);
  slots_[index] = 0;
  {
    std::lock_guard<std::mutex> lock(clients_mutex_);
    alive_.fetch_sub(1);
  }
  clients_cv_.notify_all();
  if (handlers_.on_disconnect) {
    handlers_.on_disconnect(index);
  }
}

bool FrontDoor::WaitForClients(size_t count, int timeout_ms) {
  std::unique_lock<std::mutex> lock(clients_mutex_);
  auto ready = [this, count] { return clients_seen_.load() >= count; };
  if (timeout_ms <= 0) {
    clients_cv_.wait(lock, ready);
    return true;
  }
  return clients_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), ready);
}

void FrontDoor::Broadcast(const net::Frame& frame) {
  if (!loop_) {
    return;
  }
  // Encode once; every client gets the same bytes.
  auto wire = std::make_shared<util::Bytes>(net::EventLoop::EncodeWireFrame(frame));
  loop_->Post([this, wire] {
    for (net::EventLoop::ConnId id : slots_) {
      if (id != 0) {
        loop_->SendEncoded(id, *wire);
      }
    }
  });
}

void FrontDoor::Send(size_t client, net::Frame frame) {
  if (!loop_) {
    return;
  }
  auto wire = std::make_shared<util::Bytes>(net::EventLoop::EncodeWireFrame(frame));
  loop_->Post([this, client, wire] {
    if (client < slots_.size() && slots_[client] != 0) {
      loop_->SendEncoded(slots_[client], *wire);
    }
  });
}

void FrontDoor::Disconnect(size_t client) {
  if (!loop_) {
    return;
  }
  loop_->Post([this, client] {
    if (client < slots_.size() && slots_[client] != 0) {
      loop_->CloseConn(slots_[client]);
    }
  });
}

void FrontDoor::CloseClients(const net::Frame& frame, int grace_ms) {
  if (!loop_) {
    return;
  }
  Broadcast(frame);
  {
    std::unique_lock<std::mutex> lock(clients_mutex_);
    clients_cv_.wait_for(lock, std::chrono::milliseconds(grace_ms),
                         [this] { return alive_.load() == 0; });
  }
  loop_->Post([this] {
    for (net::EventLoop::ConnId id : slots_) {
      if (id != 0) {
        loop_->CloseConn(id);
      }
    }
  });
}

void FrontDoor::Shutdown() {
  if (!started_) {
    return;
  }
  started_ = false;
  loop_->Stop();
  loop_thread_.join();
  loop_.reset();
}

}  // namespace vuvuzela::transport
