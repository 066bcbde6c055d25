// Blocking client for the ICGMM wire protocol: one TCP connection per
// Client, synchronous request/reply helpers, and explicit send/await
// halves so callers can pipeline several requests before collecting
// replies. ClientPool keeps N connections to one server for
// multi-threaded drivers.
//
// Every request carries a u64 id and its reply echoes it. The client
// keeps the requests still awaiting a reply in one window, in send
// order, and matches each reply to its entry by id — so replies may
// arrive in any order. A reply nobody is waiting for yet stays parked in
// its entry until await_access(id), await_access_reply() or poll_any()
// claims it. The server answers a connection in arrival order, so the
// match is almost always the window's first entry.
//
// All failures (connect/socket errors, unexpected EOF, malformed replies
// or replies to ids never sent, server ERROR frames, receive deadline
// expiry) surface as std::runtime_error / std::system_error.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "net/protocol.hpp"

namespace icgmm::net {

/// One finished request, as surfaced by the pipelining primitives.
struct Completion {
  std::uint64_t id = 0;
  MsgType type = MsgType::kAccessReply;
  AccessReply access;  ///< valid when type == kAccessReply
};

class Client {
 public:
  /// Disconnected client; connect() to use.
  Client() = default;
  ~Client();

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Blocking TCP connect (IPv4 dotted-quad or "localhost"). Throws on
  /// failure.
  static Client connect(const std::string& host, std::uint16_t port);

  bool connected() const noexcept { return fd_ >= 0; }
  void close() noexcept;

  /// A PING round trip that returns kProtocolV2, the version the server
  /// just answered in. A connection needs no negotiation; this only
  /// confirms the peer speaks the protocol.
  std::uint8_t negotiate();

  /// Optional receive deadline for every subsequent blocking receive
  /// (default off): a hung or stalled server then surfaces as a clean
  /// std::system_error(ETIMEDOUT) — and the connection closes, since a
  /// reply abandoned mid-wait leaves the stream unusable — instead of
  /// blocking forever. Zero or negative disables. Throws
  /// std::system_error if setsockopt fails.
  void set_recv_timeout(std::chrono::milliseconds timeout);

  // --- synchronous round trips ---------------------------------------------
  // Each drains every outstanding request first (drain_outstanding), so
  // it is a barrier: STATS reflects, and FLUSH clears, every batch sent
  // before it — monitoring pollers and admin tools may call them
  // mid-pipeline, at the cost of discarding the drained replies.

  /// PING/PONG round trip; throws if the server misbehaves.
  void ping();
  AccessReply access(std::span<const WireAccess> accesses);
  StatsReply stats();
  ModelInfoReply model_info();
  /// Scrape the server's metrics registry (name/value pairs). Servers
  /// without a registry reply with an empty set. Match entries by name,
  /// never by position.
  MetricsReply metrics();
  /// Admin: zero the server's statistics counters.
  void flush();

  // --- pipelining ------------------------------------------------------------
  // send_access() writes one ACCESS_BATCH frame and returns its id at
  // once; the await/poll calls below claim replies, parking any that
  // arrive before their claimer asks. Callers bound their own window
  // (the bench and loadgen keep <= depth outstanding).

  std::uint64_t send_access(std::span<const WireAccess> accesses);
  /// Blocks for the reply to the oldest unclaimed ACCESS batch.
  AccessReply await_access_reply();
  /// Unclaimed ACCESS batches (sent, reply not yet claimed by a caller —
  /// a reply parked out of order still counts until claimed).
  std::uint32_t outstanding() const noexcept;

  /// Fire-and-await-later PING: returns the id; the PONG surfaces
  /// through poll_any(). Lets a driver prove liveness (or force an
  /// out-of-order completion) without a pipeline barrier.
  std::uint64_t send_ping();
  /// Blocks for the reply to a specific outstanding ACCESS id, however
  /// late it arrives; replies to other ids received meanwhile are parked.
  AccessReply await_access(std::uint64_t id);
  /// Returns the first parked completion in send order, else blocks for
  /// the next reply to arrive. Throws std::logic_error when nothing is
  /// outstanding.
  Completion poll_any();

  /// Awaits (and discards) every outstanding ACCESS reply and pending
  /// PONG; returns how many ACCESS replies were drained. The sync RPCs
  /// call this implicitly; drivers that need the replies' contents must
  /// await them individually first.
  std::uint32_t drain_outstanding();

 private:
  /// A request awaiting its reply: `done` names the expected reply type
  /// and, once `arrived`, holds the reply until a caller claims it.
  struct Pending {
    Completion done;
    bool arrived = false;
  };

  /// Reads until one complete frame is buffered. The frame views rx_ and
  /// stays valid until the next receive.
  Frame recv_frame();
  void send_all(const std::vector<std::uint8_t>& bytes);
  /// Receives one reply into its window entry and returns the entry's
  /// index. A server ERROR consumes the entry and throws; a reply no
  /// entry awaits closes the connection and throws.
  std::size_t receive_reply();
  /// Index of `id` in the window, or the window's size when absent.
  std::size_t find(std::uint64_t id) const noexcept;
  /// Removes window entry `i` and returns its completion.
  Completion claim(std::size_t i);
  /// The sync RPC: drains, sends the empty request `encode` builds, and
  /// returns the reply, which must be of type `want` (the frame is valid
  /// until the next receive).
  Frame round_trip(void (*encode)(std::vector<std::uint8_t>&, std::uint64_t),
                   MsgType want);
  void apply_recv_timeout();

  int fd_ = -1;
  std::chrono::milliseconds recv_timeout_{0};
  std::uint64_t next_seq_ = 1;
  std::deque<Pending> window_;  ///< requests awaiting a reply, send order
  std::vector<std::uint8_t> rx_;  ///< inbound stream
  std::size_t rx_used_ = 0;  ///< bytes of rx_ the last frame returned holds
  std::vector<std::uint8_t> tx_;  ///< scratch encode buffer
};

/// Sleeps until `deadline` with sub-interval precision: coarse
/// sleep_until to ~1ms before the deadline, then a spin on the steady
/// clock. Raw sleep_until alone wakes at scheduler granularity (often
/// 50µs–1ms+), which makes open-loop pacing coarse above ~50k QPS — the
/// achieved rate silently sags below the target. The spin window costs at
/// most ~1ms of one core per launch, which an open-loop driver is
/// dedicating to pacing anyway. No-op when the deadline already passed.
void precise_sleep_until(std::chrono::steady_clock::time_point deadline);

/// How replay_stream paces and windows one connection's request stream.
struct ReplayOptions {
  std::size_t batch = 64;
  /// Max ACCESS_BATCH frames in flight (closed-loop window).
  std::size_t pipeline = 1;
  /// Send an admin FLUSH after exactly these many requests — value k
  /// means "flush after the first k requests", mirroring
  /// runtime::ReplayConfig::clear_points so a recorded capture with any
  /// number of FLUSH markers replays exactly. Must be sorted ascending
  /// (zeros and duplicates are ignored; points past the stream never
  /// fire). At each point the batch is split so the boundary is exact
  /// and the in-flight window is drained first, so the FLUSH lands
  /// between the last request before it and the first after — the
  /// protocol lets a server complete requests in any order, so that
  /// drain is what keeps the clear point exact. The single-point case is
  /// the classic warm-up discard.
  std::vector<std::size_t> clear_points;
  /// Open-loop pacing: time between batch launches (0 = closed loop).
  std::chrono::nanoseconds batch_interval{0};
  /// Recorded-timing pacing: per-request send offsets in nanoseconds,
  /// parallel to the stream (a recorded capture's arrival_ns column).
  /// When non-empty, each batch launches at start + (offset of its first
  /// request - offset of the stream's first request) — reproducing the
  /// captured inter-arrival spacing instead of a fixed interval. Takes
  /// precedence over batch_interval. The caller keeps the offsets alive
  /// for the duration of the replay.
  std::span<const std::uint64_t> send_offsets_ns;
};

/// Per-batch completion hook: the reply, the batch's reference time (the
/// *scheduled* send time in open loop — queueing delay counts toward
/// latency, no coordinated omission — or the actual send time in closed
/// loop), and the number of requests the batch carried.
using ReplayBatchHook =
    std::function<void(const AccessReply&,
                       std::chrono::steady_clock::time_point ref,
                       std::uint32_t count)>;

/// Replays `stream` through `client` in order with a bounded in-flight
/// window — THE closed/open-loop driver shared by icgmm_loadgen,
/// bench/throughput_net, and the end-to-end equivalence tests, so all
/// three exercise one code path. Returns the number of requests whose
/// replies were received. Exceptions from the client propagate.
std::uint64_t replay_stream(Client& client,
                            std::span<const WireAccess> stream,
                            const ReplayOptions& opts,
                            const ReplayBatchHook& on_reply = {});

/// Contiguous chunk `index` of `parts` over a request stream, remainder
/// spread over the first chunks — the per-connection split every
/// multi-connection driver uses (loadgen, net bench). Generic so a
/// side array parallel to the stream (recorded send offsets) splits
/// identically.
template <typename T>
std::span<const T> stream_chunk(std::span<const T> stream, std::size_t index,
                                std::size_t parts) {
  const std::size_t base = stream.size() / parts;
  const std::size_t extra = stream.size() % parts;
  const std::size_t first = index * base + (index < extra ? index : extra);
  return stream.subspan(first, base + (index < extra ? 1 : 0));
}

inline std::span<const WireAccess> stream_chunk(
    std::span<const WireAccess> stream, std::size_t index,
    std::size_t parts) {
  return stream_chunk<WireAccess>(stream, index, parts);
}

/// Fixed-size pool of connections to one server. acquire() hands out an
/// exclusive lease (round-robin over idle connections, blocking when all
/// are leased); the lease reconnects transparently if its connection died.
class ClientPool {
 public:
  ClientPool(std::string host, std::uint16_t port, std::size_t size);

  class Lease {
   public:
    Lease(ClientPool& pool, std::size_t slot) : pool_(&pool), slot_(slot) {}
    ~Lease() { release(); }
    Lease(Lease&& other) noexcept
        : pool_(other.pool_), slot_(other.slot_) {
      other.pool_ = nullptr;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Lease& operator=(Lease&&) = delete;

    Client& operator*() const { return pool_->clients_[slot_]; }
    Client* operator->() const { return &pool_->clients_[slot_]; }

   private:
    void release();
    ClientPool* pool_;
    std::size_t slot_;
  };

  /// Blocks until a connection is free; connects lazily on first use.
  Lease acquire();

  std::size_t size() const noexcept { return clients_.size(); }

 private:
  friend class Lease;

  std::string host_;
  std::uint16_t port_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Client> clients_;
  std::vector<bool> leased_;
};

}  // namespace icgmm::net
