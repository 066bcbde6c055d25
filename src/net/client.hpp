// Blocking client for the ICGMM wire protocol: one TCP connection per
// Client, synchronous request/reply helpers, and explicit send/await
// halves so callers can pipeline several ACCESS_BATCH frames before
// collecting replies. ClientPool keeps N connections to one server for
// multi-threaded drivers.
//
// A fresh connection speaks protocol v1 (replies correlate by arrival
// order; the server completes them in request order). negotiate()
// probes for v2 with a v2 PING and, when the server answers, switches
// the connection to the multiplexed mode: every request carries a u64
// id, replies echo it and may arrive in ANY order, and the out-of-order
// safe await(id)/poll_any() primitives correlate them. Against an old
// v1-only server the probe is stream poison — the server drops the
// connection — so negotiate() transparently reconnects and stays on v1.
//
// All failures (connect/socket errors, unexpected EOF, malformed or
// out-of-sequence replies, server ERROR frames, receive deadline
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
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/protocol.hpp"

namespace icgmm::net {

/// One finished request, as surfaced by the v2 multiplexed primitives.
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

  // --- protocol negotiation --------------------------------------------------

  /// Probes the server with a v2 PING (nothing may be outstanding).
  /// Returns the negotiated version: kProtocolV2 when the server ponged
  /// in v2, else kProtocolVersion — a v1-only server treats the probe as
  /// stream poison and drops the connection, in which case negotiate()
  /// transparently reconnects to the same endpoint and stays on v1.
  /// Idempotent once negotiated.
  std::uint8_t negotiate();
  /// Protocol this connection speaks: kProtocolVersion until negotiate()
  /// lands on kProtocolV2.
  std::uint8_t version() const noexcept { return version_; }

  /// Optional receive deadline for every subsequent blocking receive
  /// (default off): a hung or stalled server then surfaces as a clean
  /// std::system_error(ETIMEDOUT) — and the connection closes, since a
  /// reply abandoned mid-wait leaves the stream unusable — instead of
  /// blocking forever. Zero or negative disables. Survives negotiate()'s
  /// internal reconnect; throws std::system_error if setsockopt fails.
  void set_recv_timeout(std::chrono::milliseconds timeout);

  // --- synchronous round trips ---------------------------------------------
  // v1: replies are correlated purely by order, so a synchronous RPC
  // issued with ACCESS replies still outstanding first drains the
  // pipeline (drain_outstanding) — the RPC's reply is then the next
  // frame on the wire. Earlier versions threw instead; draining makes
  // mid-pipeline STATS/FLUSH safe (monitoring pollers, admin tools) at
  // the cost of discarding the drained ACCESS replies' contents.
  //
  // v2: ids make the drain unnecessary for correlation, but the sync
  // RPCs still drain first so their v1 barrier semantics hold — the v2
  // contract lets a server complete a connection's requests in any
  // order, so FLUSH could otherwise race the ACCESS batches before it.

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
  // send_access() writes one ACCESS_BATCH frame and returns immediately;
  // await_access_reply() blocks for the oldest unawaited batch. On v1
  // replies arrive in send order; on v2 they may arrive in any order —
  // out-of-order arrivals are parked by id and handed out when awaited.
  // Callers bound their own window (the bench and loadgen keep <= depth
  // outstanding).

  /// Returns the request's id (the v1 u32 sequence, or the v2 u64 id).
  std::uint64_t send_access(std::span<const WireAccess> accesses);
  AccessReply await_access_reply();
  /// Unawaited ACCESS batches (sent, reply not yet claimed by a caller —
  /// a v2 reply parked out of order still counts until awaited).
  std::uint32_t outstanding() const noexcept {
    return version_ == kProtocolV2
               ? static_cast<std::uint32_t>(send_order_.size())
               : outstanding_;
  }

  // --- v2 multiplexed mode ---------------------------------------------------
  // Only valid after negotiate() returned kProtocolV2; the order-based
  // v1 stream has no ids to correlate by, so these throw on v1.

  /// Fire-and-await-later PING (v2 only): returns the id; the PONG
  /// surfaces through poll_any(). Lets a driver prove liveness (or force
  /// an out-of-order completion) without a pipeline barrier.
  std::uint64_t send_ping();
  /// Blocks for the reply to a specific outstanding ACCESS id, however
  /// late it arrives; replies to other ids received meanwhile are parked.
  AccessReply await_access(std::uint64_t id);
  /// Blocks for the next completion in arrival order (parked ones first)
  /// — the multiplexed drain primitive. Throws std::logic_error when
  /// nothing is outstanding.
  Completion poll_any();

  /// Awaits (and discards) every outstanding ACCESS reply and pending
  /// PONG; returns how many ACCESS replies were drained. The sync RPCs
  /// call this implicitly; drivers that need the replies' contents must
  /// await them individually first.
  std::uint32_t drain_outstanding();

 private:
  /// Reads until one complete frame is buffered; returns owned bytes.
  std::vector<std::uint8_t> recv_frame();
  void send_all(const std::vector<std::uint8_t>& bytes);
  /// Receives a frame, requiring `type` with sequence `seq`; decodes a
  /// server ERROR frame into an exception. v1 only.
  std::vector<std::uint8_t> expect(MsgType type, std::uint64_t seq,
                                   Frame& frame);
  /// v2: reads frames until `want_id` arrives (which must decode as
  /// `want_type`), parking completions for other ids. Sync-RPC and
  /// await(id) workhorse.
  std::vector<std::uint8_t> await_frame_v2(std::uint64_t want_id,
                                           MsgType want_type, Frame& frame);
  /// v2: classifies one received frame into a Completion, consuming its
  /// pending-set entry; throws on ERROR frames and unknown ids.
  Completion classify_v2(const Frame& frame);
  void forget_pending(std::uint64_t id);
  void apply_recv_timeout();

  int fd_ = -1;
  std::string host_;  ///< endpoint, kept for negotiate()'s v1 fallback
  std::uint16_t port_ = 0;
  std::uint8_t version_ = kProtocolVersion;
  std::chrono::milliseconds recv_timeout_{0};
  std::uint64_t next_seq_ = 1;
  std::uint64_t next_reply_seq_ = 1;
  std::uint32_t outstanding_ = 0;  ///< v1 unawaited ACCESS batches
  // v2 correlation state: ids in send order that no caller has awaited
  // yet; ids on the wire (reply not received); receipts nobody claimed.
  std::deque<std::uint64_t> send_order_;
  std::unordered_set<std::uint64_t> pending_access_;
  std::unordered_set<std::uint64_t> pending_pings_;
  std::unordered_map<std::uint64_t, Completion> parked_;
  std::vector<std::uint8_t> rx_;  ///< partial inbound stream
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
  /// between the last request before it and the first after — on v2,
  /// whose contract lets a server complete requests in any order, that
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
