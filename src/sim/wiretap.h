// Wire-tap harness for the adversarial privacy suite.
//
// Vuvuzela's threat model (§3) gives the adversary every link of the
// deployment. WireTap realizes that adversary for tests: a byte-level TCP
// relay inserted on any edge of a *real* deployment — client→coordd,
// coordd→hopd, last-hop→exchanged, distd fetches — by repointing the edge's
// endpoint configuration at the tap's listen port. The tapped processes are
// unmodified; everything the adversary learns comes off the wire.
//
// Each relayed byte run is recorded as (mono_ns, direction, bytes), and
// because the deployment's framing is cleartext ([u32 len][type][round]
// [payload_len][payload] — the protocol encrypts *payloads*, never framing;
// round numbers are public by design), the tap also reassembles frame
// boundaries and attributes every frame to its (type, round). That gives
// attack code the exact per-round byte series a real wire-tapper would
// extract, with no timing heuristics. Records dump as JSONL for offline
// tooling and are queryable in-process for the correlation attacks
// (src/sim/correlation.h).
//
// FORK DISCIPLINE. Tests that combine taps with bench-style forked fleets
// must not fork while tap threads run. Create() only binds the listener
// (no threads) so its port can be handed to a child's configuration before
// the fork; Activate() starts the relay threads afterwards. Start() does
// both, for deployments that fork nothing.

#ifndef VUVUZELA_SRC_SIM_WIRETAP_H_
#define VUVUZELA_SRC_SIM_WIRETAP_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/net/tcp.h"

namespace vuvuzela::sim {

// Which way a tapped byte run flowed: forward = the dialing side (the peer
// that connected to the tap) toward the upstream endpoint.
enum class TapDirection : uint8_t { kForward = 0, kBackward = 1 };

struct TapRecord {
  uint64_t mono_ns = 0;      // steady clock at capture
  TapDirection direction = TapDirection::kForward;
  uint64_t bytes = 0;        // frame size on the wire (incl. length prefix)
  // Frame attribution from the cleartext header; type 0 / round 0 for bytes
  // the frame reassembler could not attribute (desynced stream tail).
  uint8_t frame_type = 0;
  uint64_t round = 0;
};

struct WireTapConfig {
  std::string label;          // link name stamped into the JSONL dump
  std::string upstream_host = "127.0.0.1";
  uint16_t upstream_port = 0;
  uint16_t listen_port = 0;   // 0 picks an ephemeral port
};

class WireTap {
 public:
  // Binds the listener only — safe before fork(); nullptr if it cannot bind.
  static std::unique_ptr<WireTap> Create(WireTapConfig config);

  // Starts the accept thread; each accepted connection dials upstream and
  // runs two pump threads (one per direction).
  void Activate();

  // Create + Activate, for thread-safe (unforked) deployments.
  static std::unique_ptr<WireTap> Start(WireTapConfig config);

  ~WireTap();

  WireTap(const WireTap&) = delete;
  WireTap& operator=(const WireTap&) = delete;

  // The port tapped edges should be pointed at.
  uint16_t port() const { return listener_.port(); }
  const std::string& label() const { return config_.label; }

  // Stops relaying: shuts the listener and every live relay pair, joins all
  // threads. Idempotent; the record log stays readable afterwards.
  void Shutdown();

  // Snapshot of everything recorded so far, in capture order per direction.
  std::vector<TapRecord> Records() const;

  // One JSON object per record:
  //   {"label":...,"mono_ns":...,"dir":"fwd","bytes":N,"type":T,"round":R}
  std::string DumpJsonl() const;

  uint64_t bytes_forward() const;
  uint64_t bytes_backward() const;

  // Per-round wire bytes in one direction — the series the correlation
  // attacks consume. Unattributed bytes land on round 0.
  std::map<uint64_t, uint64_t> PerRoundBytes(TapDirection direction) const;

 private:
  explicit WireTap(WireTapConfig config, net::TcpListener listener);

  // One direction of one relayed connection: copy bytes until EOF/error,
  // reassembling frame boundaries to attribute each frame.
  void Pump(int from_fd, int to_fd, TapDirection direction);
  void AcceptLoop();
  void Record(TapRecord record);

  // One relayed connection: raw descriptors (released from TcpConnection so
  // the pumps can do raw byte I/O) plus the two pump threads. The destructor
  // closes the descriptors; Shutdown() half-closes them first to unblock the
  // pumps, then joins.
  struct Relay {
    int client_fd = -1;    // the dialing peer
    int upstream_fd = -1;  // the tapped endpoint
    std::thread forward;
    std::thread backward;
    ~Relay();
  };

  WireTapConfig config_;
  net::TcpListener listener_;
  std::thread accept_thread_;
  bool active_ = false;
  bool shut_down_ = false;

  std::mutex relays_mutex_;
  std::vector<std::unique_ptr<Relay>> relays_;

  mutable std::mutex records_mutex_;
  std::vector<TapRecord> records_;
  uint64_t bytes_forward_ = 0;
  uint64_t bytes_backward_ = 0;
};

}  // namespace vuvuzela::sim

#endif  // VUVUZELA_SRC_SIM_WIRETAP_H_
