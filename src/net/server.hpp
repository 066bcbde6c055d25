// Epoll-based non-blocking TCP serving frontend over a runtime::Runtime.
//
//   clients --> accept (loop 0) --round robin--> loop k: epoll set
//                                                   |
//        per-connection read buffer --> frame decoder (one read slice)
//                                                   |
//                                                   v
//                  Runtime::apply_batch(span<Access>)   (one wire batch =
//                                                   |    one span through
//                                                   v    the miss path)
//        per-connection out buffer --> one send per read slice
//                                      (EPOLLOUT resumes on EAGAIN)
//
// The server runs N event loops (N = max(1, workers)). Each loop owns its
// own epoll set, eventfd and connections; a connection is touched by
// exactly one thread for its whole life. Loop 0 also owns the listen
// socket and assigns accepted sockets to loops round-robin by accept
// order, handing each to its loop through that loop's eventfd.
//
// A loop serves each connection to completion: it drains the socket into
// the connection's read buffer, slices every complete frame off the
// front, serves them in arrival order (decode, apply, encode), appends
// each reply to the connection's single out buffer, and flushes that
// buffer once per read slice. Replies always leave in request order at
// any pipeline depth — request ids still correlate them, but the server
// never reorders. The frame is served straight from the read buffer: no
// copy, no queue, no other thread.
//
// Wire backpressure: a client that pipelines requests but stops reading
// cannot grow server memory without limit. While a connection's unsent
// reply bytes exceed kMaxUnsentReplyBytes its loop stops reading it (drops
// EPOLLIN, counted in ServerStats::backpressure_pauses) and re-arms it
// once the out buffer has fully drained; the kernel's socket buffers then
// push back on the client.
//
// Framing errors (bad magic/version, oversized declared length,
// unparseable payload) poison the byte stream: the server counts a
// protocol error and closes that connection. Well-framed but
// unserviceable requests get an ERROR reply and the connection lives on.
//
// Linux-only (epoll, eventfd, accept4).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/protocol.hpp"
#include "obs/event_ring.hpp"
#include "obs/histogram.hpp"
#include "obs/registry.hpp"
#include "runtime/runtime.hpp"

namespace icgmm::net {

/// Unsent reply bytes past which a connection's loop stops reading it
/// until the client has drained every reply (see the header comment).
inline constexpr std::size_t kMaxUnsentReplyBytes = 256 * 1024;

struct ServerConfig {
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  std::uint16_t port = 0;
  /// Accept from any interface (default: loopback only).
  bool bind_any = false;
  /// Serving event loops, each on its own thread; 0 and 1 both mean one.
  std::uint32_t workers = 1;
  std::uint32_t max_connections = 256;
  int listen_backlog = 64;
  /// Optional observability sinks (not owned; must outlive the server).
  /// With `metrics` set the server exports its ServerStats counters as a
  /// provider, records per-stage latency histograms
  /// (icgmm_server_stage_{decode,queue,apply,flush}_ns), and answers the
  /// METRICS verb with the full registry; without it the verb returns an
  /// empty set and tracing is off.
  obs::MetricsRegistry* metrics = nullptr;
  obs::EventRing* events = nullptr;
  /// Per-stage tracing sample rate: record 1 in N stage timings (1 =
  /// every one, 0 = tracing off). Counters are always exact; sampling
  /// only thins the histogram clock reads.
  std::uint32_t trace_sample = 1;
};

/// Monitoring counters (relaxed atomics; exact at quiescence).
struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_closed = 0;
  std::uint64_t frames_served = 0;
  std::uint64_t requests_served = 0;  ///< individual accesses
  std::uint64_t protocol_errors = 0;  ///< stream-poison closes
  std::uint64_t error_replies = 0;    ///< well-framed ERROR replies
  // Reply flushes. writev_replies / writev_calls = average replies
  // coalesced per flush syscall. Every frame gets exactly one reply, so
  // writev_replies equals frames_served at quiescence unless a
  // connection was dropped with replies unsent.
  std::uint64_t writev_calls = 0;    ///< send syscalls carrying replies
  std::uint64_t writev_replies = 0;  ///< replies fully written by them
  /// Times a loop stopped reading a connection because its unsent reply
  /// bytes passed kMaxUnsentReplyBytes.
  std::uint64_t backpressure_pauses = 0;
};

class Server {
 public:
  /// Serves `rt` (not owned; must outlive the server).
  Server(runtime::Runtime& rt, ServerConfig cfg);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the event loops. Throws std::system_error
  /// on socket/bind failure. Not restartable.
  void start();

  /// Graceful shutdown: stop accepting, wake and join every loop, close
  /// connections. Idempotent; the destructor calls it.
  void stop();

  bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

  /// Actual bound port (resolves ephemeral binds); valid after start().
  std::uint16_t port() const noexcept { return port_; }

  ServerStats stats() const noexcept;

 private:
  struct Connection;
  struct Loop;

  void start_impl();
  void close_fds() noexcept;
  void run_loop(Loop& loop);
  /// Loop 0: accepts every pending socket and assigns it round-robin.
  void accept_ready(Loop& loop);
  /// Registers an accepted socket with `loop`'s epoll set (owner only).
  void adopt(Loop& loop, int fd);
  /// Reads one slice, serves its complete frames in arrival order and
  /// flushes their replies.
  void read_ready(Loop& loop, Connection& conn);
  /// Flushes, then closes the connection if the peer is gone or it is
  /// finished, else updates backpressure and the epoll mask.
  void settle(Loop& loop, Connection& conn);
  void close_connection(Loop& loop, Connection& conn);
  /// Serves one complete frame, appending its one reply to `out`.
  void serve_frame(Loop& loop, const Frame& frame,
                   std::vector<std::uint8_t>& out);
  /// Sends as much of the out buffer as the socket accepts. Returns false
  /// when the peer is gone. flush is the traced wrapper.
  bool flush(Loop& loop, Connection& conn);
  bool flush_impl(Loop& loop, Connection& conn);
  /// 1-in-N sampling gate shared by every traced stage of one loop.
  bool should_trace(Loop& loop) noexcept;

  runtime::Runtime& rt_;
  ServerConfig cfg_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;

  std::atomic<bool> running_{false};
  bool started_ = false;
  /// Built at construction (stats() reads their counters at any time);
  /// fds and threads exist only between start() and stop().
  std::vector<std::unique_ptr<Loop>> loops_;
  std::uint64_t next_loop_ = 0;  ///< round-robin cursor; loop 0 only

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> closed_{0};

  // Per-stage latency histograms, resolved once from cfg_.metrics at
  // construction (null when metrics are off — every trace site checks).
  obs::ConcurrentHistogram* stage_decode_ = nullptr;
  obs::ConcurrentHistogram* stage_queue_ = nullptr;
  obs::ConcurrentHistogram* stage_apply_ = nullptr;
  obs::ConcurrentHistogram* stage_flush_ = nullptr;
  std::uint64_t provider_id_ = 0;  ///< 0 = no provider registered
};

}  // namespace icgmm::net
