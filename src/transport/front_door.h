// The client-facing admission edge, built on net::EventLoop.
//
// FrontDoor is the piece of the entry server that faces the million-client
// fleet (§7): it owns the client listener, runs one reactor thread that
// serves every client connection, and presents the daemon with dense client
// indices (0..N-1, accept order) — the indexing coord::RoundPolicy's
// admission dedup records and batch contributor lists use.
//
// Every client frame (kConversationRequest, kDialRequest, kShutdown, and
// anything else) is dispatched to `on_frame` ON THE LOOP THREAD. Handlers
// must be cheap and non-blocking (push an onion under a mutex, never an
// RPC): while one runs, no other client is served. Clients download their
// invitation buckets from the vuvuzela-distd tier (client::DialingFetcher),
// never through this edge, so nothing a client sends here is larger than an
// onion and nothing here blocks.
//
// The loop carries client frames only. coordd's process shell
// (obs::DaemonProcess) serves /metrics and /trace from its own acceptor
// thread, so a scrape never shares the loop with admission.
//
// THREADING CONTRACT. Create/Start/Shutdown belong to the owning thread.
// Broadcast/Send/frame building are thread-safe (they post to the loop).
// on_frame/on_disconnect run on the loop thread. Client indices are
// assigned on the loop thread before any handler sees them and are never
// reused.
//
// OWNERSHIP. FrontDoor owns the listener, the loop, and every client
// connection; Shutdown() (also run by the destructor) stops and joins the
// loop thread. After a client disconnects its index stays valid for Send — the
// send is silently dropped — so racing round completions need no liveness
// handshake.

#ifndef VUVUZELA_SRC_TRANSPORT_FRONT_DOOR_H_
#define VUVUZELA_SRC_TRANSPORT_FRONT_DOOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/net/event_loop.h"
#include "src/net/frame.h"
#include "src/net/tcp.h"

namespace vuvuzela::transport {

struct FrontDoorConfig {
  uint16_t port = 0;  // 0 picks an ephemeral port
  // Clients send onions; anything announcing a larger frame is hostile and
  // is cut off at its header, before the allocation. The owner sets this to
  // its largest admissible onion.
  size_t max_frame_payload = 16u << 20;
};

struct FrontDoorHandlers {
  // Loop thread. Every client frame. Must not block.
  std::function<void(size_t client, net::Frame&&)> on_frame;
  // Loop thread. The index's connection is gone (its Sends now no-op).
  std::function<void(size_t client)> on_disconnect;
};

class FrontDoor {
 public:
  // Binds the listener (nullptr if the port is unavailable). The loop does
  // not run until Start().
  static std::unique_ptr<FrontDoor> Create(const FrontDoorConfig& config,
                                           FrontDoorHandlers handlers);
  ~FrontDoor();

  uint16_t port() const { return port_; }

  // Spawns the loop thread; accepting begins now.
  bool Start();

  // Blocks until `count` clients have ever connected (disconnected ones
  // still count — they occupied an index). timeout_ms 0 waits forever.
  bool WaitForClients(size_t count, int timeout_ms = 0);

  // Indices handed out so far / indices currently connected.
  size_t clients_seen() const { return clients_seen_.load(); }
  size_t alive() const { return alive_.load(); }

  // Sends `frame` to every connected client. Encodes once, fans the same
  // bytes out. Thread-safe.
  void Broadcast(const net::Frame& frame);

  // Sends `frame` to one client; dropped silently if it disconnected.
  // Thread-safe.
  void Send(size_t client, net::Frame frame);

  // Closes one client's connection once its pending writes flush (a client
  // that announced kShutdown is deregistering). Thread-safe.
  void Disconnect(size_t client);

  // Broadcasts `frame` (typically kShutdown), gives clients up to `grace_ms`
  // to hang up on their own, then closes the stragglers. Thread-safe; call
  // before Shutdown() for an orderly cascade.
  void CloseClients(const net::Frame& frame, int grace_ms);

  // Stops and joins the loop thread. Idempotent.
  void Shutdown();

 private:
  FrontDoor(const FrontDoorConfig& config, FrontDoorHandlers handlers, net::TcpListener listener);

  void HandleAccept(net::EventLoop::ConnId id);
  void HandleFrame(net::EventLoop::ConnId id, net::Frame&& frame);
  void HandleClose(net::EventLoop::ConnId id);

  FrontDoorConfig config_;
  FrontDoorHandlers handlers_;
  uint16_t port_ = 0;
  net::TcpListener listener_;  // moved into the loop by Start()
  std::unique_ptr<net::EventLoop> loop_;
  std::thread loop_thread_;
  bool started_ = false;

  // Loop-thread-only: index <-> connection maps. slots_[i] == 0 marks a
  // disconnected index (ConnId 0 is never assigned).
  std::vector<net::EventLoop::ConnId> slots_;
  std::unordered_map<net::EventLoop::ConnId, size_t> index_of_;

  std::atomic<size_t> clients_seen_{0};
  std::atomic<size_t> alive_{0};
  std::mutex clients_mutex_;
  std::condition_variable clients_cv_;
};

}  // namespace vuvuzela::transport

#endif  // VUVUZELA_SRC_TRANSPORT_FRONT_DOOR_H_
