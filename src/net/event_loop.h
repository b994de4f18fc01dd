// Epoll reactor for the client-facing network edges (million-client front
// door).
//
// The shard fleets (hop daemons, exchange partitions, the router links into
// them) stay on blocking one-thread-per-connection I/O — a chain of
// single-digit servers wants at most dozens of connections, and the blocking
// discipline *is* the engine's stage serialization. The client-facing edges
// are the opposite regime: the paper claims one million users, and a thread
// per client is fatal long before that. EventLoop is the substrate those
// edges (transport::FrontDoor for coordd admission, DistDaemon for bucket
// downloads) run on. It speaks frames only: operator scrapes (/metrics,
// /trace) go through obs::MetricsHttpServer beside the loop, never into it.
//
//  * One epoll descriptor, edge-triggered readiness (EPOLLET), every socket
//    non-blocking. One thread serves every connection.
//  * Per-connection buffered framing: reads drain the socket to EAGAIN into
//    an input buffer that is parsed into net::Frame values as length
//    prefixes complete, so callbacks only ever see whole frames. Peak
//    buffered input per connection is one frame (plus one read chunk) —
//    batch messages larger than a frame are reassembled by the *caller*
//    with transport::BatchAssembler, whose streaming decode keeps that
//    bound at one chunk per connection.
//  * Buffered, partial-write-correct sends: Send() writes what the socket
//    accepts and queues the rest; the remainder flushes on the next
//    EPOLLOUT edge. A receiver that stops reading grows the buffer until
//    `max_write_buffer`, at which point the connection is closed (slow-loris
//    defense) — it can never wedge the loop.
//
// THREADING CONTRACT. The loop is single-threaded: every callback runs on
// the thread inside Run(), and all mutating members — Send, CloseConn,
// AddListener, AddConnection — are loop-thread-only (callable from
// callbacks, or from the owning thread before Run() starts). Exactly two
// members are thread-safe: Post(fn), which enqueues fn to run on the loop
// thread (the only way another thread may touch a connection), and Stop().
// connections() is an atomic snapshot, readable from anywhere.
//
// OWNERSHIP CONTRACT. The loop owns every descriptor handed to it
// (AddListener / AddConnection / accepted sockets) until on_close fires for
// it or the loop is destroyed; callers keep only the ConnId. Ids are never
// reused, so a stale id held by a posted closure is harmless — Send and
// CloseConn on a closed id are no-ops returning false. on_close fires
// exactly once per connection for every close path (peer EOF, I/O error,
// framing violation, buffer overflow, CloseConn) — but not for connections
// still open when the loop is destroyed.

#ifndef VUVUZELA_SRC_NET_EVENT_LOOP_H_
#define VUVUZELA_SRC_NET_EVENT_LOOP_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/net/frame.h"
#include "src/net/tcp.h"

namespace vuvuzela::obs {
class Counter;
}  // namespace vuvuzela::obs

namespace vuvuzela::net {

struct EventLoopConfig {
  // Largest frame payload a peer may announce. The default matches the
  // blocking transport's cap; coordd's front door sets it far lower (its
  // clients send onions only, never server batches), so one hostile client
  // cannot stage a 256 MB allocation.
  size_t max_frame_payload = kMaxFramePayload;
  // Pending-output ceiling per connection; exceeding it closes the
  // connection. Sized so a full bucket download to a briefly-stalled client
  // survives, while a sink that never reads is shed.
  size_t max_write_buffer = 64u << 20;
};

class EventLoop {
 public:
  // Identifies one connection for its lifetime; never reused by this loop.
  using ConnId = uint64_t;

  struct Handlers {
    // A connection was accepted on the listener.
    std::function<void(ConnId)> on_accept;
    // A complete, well-formed frame arrived.
    std::function<void(ConnId, Frame&&)> on_frame;
    // The connection is gone (any close path; see the ownership contract).
    std::function<void(ConnId)> on_close;
  };

  static std::unique_ptr<EventLoop> Create(Handlers handlers, EventLoopConfig config = {});
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Registers the loop's one listening socket; accepted connections surface
  // via on_accept. False if a listener is already registered.
  // Loop-thread-only.
  bool AddListener(TcpListener listener);

  // Adopts an established connection (e.g. an outbound TcpConnection::
  // Connect result — this is how the load generator drives thousands of
  // client links per process). The socket is switched to non-blocking.
  // Loop-thread-only. Returns 0 on failure.
  ConnId AddConnection(TcpConnection conn);

  // Queues `frame` for delivery, writing as much as the socket accepts now
  // and buffering the remainder. False if the id is closed or the write
  // buffer overflowed (the connection is then closed). Loop-thread-only —
  // other threads must Post() a closure that calls it.
  bool Send(ConnId id, const Frame& frame);
  // Same, for a frame already encoded with EncodeWireFrame — broadcasts
  // encode once and fan the same bytes out.
  bool SendEncoded(ConnId id, const util::Bytes& wire);

  // The length-prefixed on-the-wire form of a frame (what SendFrame ships).
  static util::Bytes EncodeWireFrame(const Frame& frame);

  // Closes `id` once its pending writes flush (immediately when none are
  // pending); reads stop now. on_close fires. Loop-thread-only.
  void CloseConn(ConnId id);

  // Runs fn on the loop thread. Thread-safe; the only cross-thread door.
  void Post(std::function<void()> fn);

  // Serves until Stop(). Returns false if the loop could not start.
  bool Run();

  // Wakes Run() and makes it return after the current batch of events.
  // Thread-safe.
  void Stop();

  // Open connections (listeners excluded). Thread-safe snapshot.
  size_t connections() const { return num_connections_.load(); }

 private:
  struct Conn {
    int fd = -1;
    util::Bytes in;           // unparsed inbound bytes
    util::Bytes out;          // pending outbound bytes
    size_t out_offset = 0;    // already-written prefix of `out`
    bool writable = true;     // last write did not hit EAGAIN
    bool draining = false;    // CloseConn called: no reads, close on flush
  };

  EventLoop(Handlers handlers, EventLoopConfig config, int epoll_fd, int wake_fd);

  ConnId Register(int fd);
  void AcceptReady();
  void ReadReady(ConnId id, bool peer_hup);
  // Parses whole frames out of conn.in; false if the connection died (the
  // handler closed it, or framing was violated).
  bool ParseFrames(ConnId id);
  // Flushes conn.out as far as the socket allows; false if the connection
  // died (write error, or a drain completed).
  bool FlushWrites(ConnId id);
  void Close(ConnId id);
  void RunTasks();

  Handlers handlers_;
  EventLoopConfig config_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: Post()/Stop() wakeups
  std::atomic<bool> stop_{false};
  std::atomic<size_t> num_connections_{0};

  ConnId next_id_ = 1;
  std::unordered_map<ConnId, Conn> conns_;
  TcpListener listener_;
  ConnId listener_id_ = 0;  // 0 until AddListener
  util::Bytes read_scratch_;

  std::mutex tasks_mutex_;
  std::deque<std::function<void()>> tasks_;

  // Aggregate reactor health counters in obs::Registry::Global() — the
  // baselines the slow-loris/shed and spill behavior is judged by. Shared
  // across every loop in the process by design (aggregate-only telemetry).
  obs::Counter* obs_accepts_;
  obs::Counter* obs_frames_;
  obs::Counter* obs_sheds_;
  obs::Counter* obs_spilled_bytes_;
  obs::Counter* obs_closes_;
};

}  // namespace vuvuzela::net

#endif  // VUVUZELA_SRC_NET_EVENT_LOOP_H_
