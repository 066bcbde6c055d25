#include "net/server.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <mutex>
#include <system_error>
#include <thread>
#include <unordered_map>
#include <utility>

namespace icgmm::net {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

void set_nodelay(int fd) noexcept {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void wake(int event_fd) noexcept {
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(event_fd, &one, sizeof(one));
}

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

/// Per-connection state, touched only by the loop that owns it.
struct Server::Connection {
  explicit Connection(int fd_in) : fd(fd_in) {}
  ~Connection() { ::close(fd); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  const int fd;
  std::vector<std::uint8_t> in;   ///< partial inbound byte stream
  std::vector<std::uint8_t> out;  ///< framed replies, in request order
  std::size_t out_off = 0;        ///< bytes of `out` already sent
  /// End offsets in `out` of its replies; the first replies_sent are out.
  std::vector<std::size_t> reply_ends;
  std::size_t replies_sent = 0;
  std::uint32_t events = EPOLLIN;  ///< the registered epoll mask
  bool eof = false;     ///< peer FIN seen: close once the replies are out
  bool paused = false;  ///< EPOLLIN dropped for backpressure

  std::size_t unsent() const noexcept { return out.size() - out_off; }
};

/// One event loop: its thread, epoll set, eventfd and connections.
struct alignas(64) Server::Loop {
  std::thread thread;
  int epoll_fd = -1;
  int wake_fd = -1;  ///< eventfd: socket handoffs and stop()
  std::unordered_map<int, std::unique_ptr<Connection>> conns;  ///< by fd
  std::vector<Frame> frames;  ///< the current read slice (views into `in`)
  std::uint64_t trace_tick = 0;

  /// Sockets loop 0 accepted for this loop and it has not adopted yet.
  std::mutex handoff_mu;
  std::vector<int> handoff;

  // Written by this loop only; stats() sums them over loops.
  std::atomic<std::uint64_t> frames_served{0};
  std::atomic<std::uint64_t> requests_served{0};
  std::atomic<std::uint64_t> protocol_errors{0};
  std::atomic<std::uint64_t> error_replies{0};
  std::atomic<std::uint64_t> writev_calls{0};
  std::atomic<std::uint64_t> writev_replies{0};
  std::atomic<std::uint64_t> backpressure_pauses{0};
};

Server::Server(runtime::Runtime& rt, ServerConfig cfg)
    : rt_(rt), cfg_(cfg) {
  const std::uint32_t loops = cfg_.workers > 1 ? cfg_.workers : 1;
  for (std::uint32_t i = 0; i < loops; ++i) {
    loops_.push_back(std::make_unique<Loop>());
  }
  if (cfg_.metrics != nullptr) {
    if (cfg_.trace_sample != 0) {
      stage_decode_ =
          &cfg_.metrics->histogram("icgmm_server_stage_decode_ns");
      stage_queue_ = &cfg_.metrics->histogram("icgmm_server_stage_queue_ns");
      stage_apply_ = &cfg_.metrics->histogram("icgmm_server_stage_apply_ns");
      stage_flush_ = &cfg_.metrics->histogram("icgmm_server_stage_flush_ns");
    }
    provider_id_ = cfg_.metrics->add_provider(
        [this](std::vector<obs::MetricsRegistry::Sample>& out) {
          const ServerStats s = stats();
          out.push_back(
              {"icgmm_server_connections_accepted", s.connections_accepted});
          out.push_back(
              {"icgmm_server_connections_closed", s.connections_closed});
          out.push_back({"icgmm_server_frames_served", s.frames_served});
          out.push_back({"icgmm_server_requests_served", s.requests_served});
          out.push_back({"icgmm_server_protocol_errors", s.protocol_errors});
          out.push_back({"icgmm_server_error_replies", s.error_replies});
          out.push_back({"icgmm_server_writev_calls", s.writev_calls});
          out.push_back({"icgmm_server_writev_replies", s.writev_replies});
          out.push_back(
              {"icgmm_server_backpressure_pauses", s.backpressure_pauses});
        });
  }
}

Server::~Server() {
  // Drop the provider before any member goes away: a concurrent scrape
  // holds the registry mutex while calling it, so after remove_provider
  // returns no scrape can touch this object again.
  if (provider_id_ != 0) cfg_.metrics->remove_provider(provider_id_);
  stop();
}

bool Server::should_trace(Loop& loop) noexcept {
  const std::uint32_t n = cfg_.trace_sample;
  if (n <= 1) return n == 1;
  return loop.trace_tick++ % n == 0;
}

void Server::start() {
  if (started_) throw std::logic_error("Server::start: already started");
  try {
    start_impl();
  } catch (...) {
    // Partial setup (e.g. bind EADDRINUSE after socket()) must not leak
    // fds — a caller retrying ports would otherwise creep toward EMFILE.
    close_fds();
    throw;
  }
}

void Server::close_fds() noexcept {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
  for (const std::unique_ptr<Loop>& loop : loops_) {
    if (loop->epoll_fd >= 0) ::close(loop->epoll_fd);
    if (loop->wake_fd >= 0) ::close(loop->wake_fd);
    loop->epoll_fd = loop->wake_fd = -1;
  }
}

void Server::start_impl() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) throw_errno("socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr =
      htonl(cfg_.bind_any ? INADDR_ANY : INADDR_LOOPBACK);
  addr.sin_port = htons(cfg_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    throw_errno("bind");
  }
  if (::listen(listen_fd_, cfg_.listen_backlog) < 0) throw_errno("listen");

  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    throw_errno("getsockname");
  }
  port_ = ntohs(addr.sin_port);

  for (const std::unique_ptr<Loop>& loop : loops_) {
    loop->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (loop->epoll_fd < 0) throw_errno("epoll_create1");
    loop->wake_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (loop->wake_fd < 0) throw_errno("eventfd");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = loop->wake_fd;
    if (::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->wake_fd, &ev) < 0) {
      throw_errno("epoll_ctl(wake)");
    }
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  if (::epoll_ctl(loops_[0]->epoll_fd, EPOLL_CTL_ADD, listen_fd_, &ev) < 0) {
    throw_errno("epoll_ctl(listen)");
  }

  started_ = true;
  running_.store(true, std::memory_order_release);
  for (const std::unique_ptr<Loop>& loop : loops_) {
    loop->thread = std::thread([this, l = loop.get()] { run_loop(*l); });
  }
}

void Server::stop() {
  if (!started_) return;
  running_.store(false, std::memory_order_release);
  for (const std::unique_ptr<Loop>& loop : loops_) wake(loop->wake_fd);
  for (const std::unique_ptr<Loop>& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  // Sockets handed to a loop that exited before adopting them.
  for (const std::unique_ptr<Loop>& loop : loops_) {
    for (const int fd : loop->handoff) ::close(fd);
    closed_.fetch_add(loop->handoff.size(), std::memory_order_relaxed);
    loop->handoff.clear();
  }
  close_fds();
  started_ = false;
}

ServerStats Server::stats() const noexcept {
  ServerStats s{
      .connections_accepted = accepted_.load(std::memory_order_relaxed),
      .connections_closed = closed_.load(std::memory_order_relaxed)};
  const auto get = [](const std::atomic<std::uint64_t>& c) {
    return c.load(std::memory_order_relaxed);
  };
  for (const std::unique_ptr<Loop>& loop : loops_) {
    s.frames_served += get(loop->frames_served);
    s.requests_served += get(loop->requests_served);
    s.protocol_errors += get(loop->protocol_errors);
    s.error_replies += get(loop->error_replies);
    s.writev_calls += get(loop->writev_calls);
    s.writev_replies += get(loop->writev_replies);
    s.backpressure_pauses += get(loop->backpressure_pauses);
  }
  return s;
}

void Server::run_loop(Loop& loop) {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (running_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(loop.epoll_fd, events, kMaxEvents, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd gone — shutting down
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == loop.wake_fd) {
        std::uint64_t drain;
        [[maybe_unused]] ssize_t r =
            ::read(loop.wake_fd, &drain, sizeof(drain));
        std::vector<int> adopted;
        {
          std::lock_guard<std::mutex> lock(loop.handoff_mu);
          adopted.swap(loop.handoff);
        }
        for (const int s : adopted) adopt(loop, s);
        continue;  // running_ re-checked by the loop condition
      }
      if (fd == listen_fd_) {
        accept_ready(loop);
        continue;
      }
      const auto it = loop.conns.find(fd);
      if (it == loop.conns.end()) continue;
      Connection& conn = *it->second;
      if (events[i].events & (EPOLLERR | EPOLLHUP)) {
        close_connection(loop, conn);
      } else if (events[i].events & EPOLLIN) {
        read_ready(loop, conn);
      } else if (events[i].events & EPOLLOUT) {
        settle(loop, conn);
      }
    }
  }
  closed_.fetch_add(loop.conns.size(), std::memory_order_relaxed);
  loop.conns.clear();  // destructors close the sockets
}

void Server::accept_ready(Loop& loop) {
  while (true) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      // Persistent failure (EMFILE/ENFILE/ENOBUFS): the pending
      // connection keeps the listen fd readable, so returning immediately
      // would make the level-triggered epoll loop spin at 100% CPU. Back
      // off briefly and let an fd free up.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      return;
    }
    if (accepted_.load(std::memory_order_relaxed) -
            closed_.load(std::memory_order_relaxed) >=
        cfg_.max_connections) {
      ::close(fd);  // at capacity: refuse
      continue;
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    Loop& owner = *loops_[next_loop_++ % loops_.size()];
    if (&owner == &loop) {
      adopt(loop, fd);
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(owner.handoff_mu);
      owner.handoff.push_back(fd);
    }
    wake(owner.wake_fd);
  }
}

void Server::adopt(Loop& loop, int fd) {
  set_nodelay(fd);
  auto conn = std::make_unique<Connection>(fd);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  if (::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, fd, &ev) < 0) {
    closed_.fetch_add(1, std::memory_order_relaxed);
    return;  // conn destructor closes fd
  }
  loop.conns.emplace(fd, std::move(conn));
  if (cfg_.events != nullptr) {
    cfg_.events->emit(obs::EventType::kConnOpen,
                      static_cast<std::uint64_t>(fd));
  }
}

void Server::read_ready(Loop& loop, Connection& conn) {
  // Drain the socket (level-triggered epoll would re-notify, but fewer
  // wake-ups means fewer epoll_wait syscalls under load).
  char buf[16 * 1024];
  while (true) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn.in.insert(conn.in.end(), buf, buf + n);
      if (conn.in.size() > kHeaderBytesV2 + kMaxPayload + sizeof(buf)) {
        break;  // stop reading; serve the backlog first
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    // FIN or hard socket error. A client that pipelines requests and then
    // half-closes is still owed its replies: close once they are out.
    conn.eof = true;
    break;
  }

  // Slice every complete frame off the stream front. One decode sample
  // covers the whole slice — framing cost per socket drain, not per frame.
  const bool trace_decode = stage_decode_ != nullptr && should_trace(loop);
  const std::uint64_t decode_start = trace_decode ? now_ns() : 0;
  loop.frames.clear();
  std::size_t off = 0;
  bool poisoned = false;
  while (true) {
    Frame frame;
    std::size_t consumed = 0;
    const DecodeStatus st = decode_frame(
        std::span<const std::uint8_t>(conn.in).subspan(off), frame, consumed);
    if (st == DecodeStatus::kNeedMore) break;
    if (st != DecodeStatus::kOk) {
      poisoned = true;
      break;
    }
    loop.frames.push_back(frame);
    off += consumed;
  }
  if (trace_decode && !loop.frames.empty()) {
    stage_decode_->record(now_ns() - decode_start);
  }

  // Serve the slice in arrival order. A frame's queue stage is its wait
  // behind the earlier frames of its own slice.
  const std::uint64_t sliced_ns = stage_queue_ != nullptr ? now_ns() : 0;
  for (const Frame& frame : loop.frames) {
    if (stage_queue_ != nullptr && should_trace(loop)) {
      stage_queue_->record(now_ns() - sliced_ns);
    }
    serve_frame(loop, frame, conn.out);
    conn.reply_ends.push_back(conn.out.size());
  }
  loop.frames_served.fetch_add(loop.frames.size(), std::memory_order_relaxed);
  loop.frames.clear();  // the views die with the erase below
  if (off > 0) conn.in.erase(conn.in.begin(), conn.in.begin() + off);

  if (poisoned) {
    loop.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    if (cfg_.events != nullptr) {
      cfg_.events->emit(obs::EventType::kProtocolError,
                        static_cast<std::uint64_t>(conn.fd));
    }
    close_connection(loop, conn);
    return;
  }
  settle(loop, conn);
}

void Server::settle(Loop& loop, Connection& conn) {
  if (!flush(loop, conn) || (conn.eof && conn.unsent() == 0)) {
    close_connection(loop, conn);
    return;
  }
  if (conn.unsent() == 0) {
    conn.paused = false;  // drained: read again
  } else if (!conn.paused && conn.unsent() > kMaxUnsentReplyBytes) {
    conn.paused = true;
    loop.backpressure_pauses.fetch_add(1, std::memory_order_relaxed);
  }
  // Never arm EPOLLIN on a half-closed socket: it is permanently
  // readable and would spin the level-triggered loop.
  const std::uint32_t want =
      (conn.eof || conn.paused ? 0u : static_cast<std::uint32_t>(EPOLLIN)) |
      (conn.unsent() > 0 ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
  if (want == conn.events) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.fd = conn.fd;
  if (::epoll_ctl(loop.epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev) == 0) {
    conn.events = want;
  }
}

void Server::close_connection(Loop& loop, Connection& conn) {
  const int fd = conn.fd;
  ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
  closed_.fetch_add(1, std::memory_order_relaxed);
  if (cfg_.events != nullptr) {
    cfg_.events->emit(obs::EventType::kConnClose,
                      static_cast<std::uint64_t>(fd));
  }
  loop.conns.erase(fd);  // destroys conn, closing the socket
}

void Server::serve_frame(Loop& loop, const Frame& frame,
                         std::vector<std::uint8_t>& out) {
  // Replies go back with the id the request carried.
  const std::uint64_t seq = frame.header.seq;

  switch (frame.header.type) {
    case MsgType::kPing:
      if (decode_empty(frame) != DecodeStatus::kOk) break;
      encode_pong(out, seq);
      return;

    case MsgType::kAccessBatch: {
      // Thread-local staging keeps the hot path allocation-free after
      // warm-up; one wire batch becomes one apply_batch span, and the
      // aggregating overload folds the reply counters into the serve
      // loop — no per-request results array on the wire path.
      thread_local std::vector<WireAccess> wire;
      thread_local std::vector<runtime::Access> batch;
      if (decode_access_batch(frame, wire) != DecodeStatus::kOk) break;
      batch.clear();
      batch.reserve(wire.size());
      for (const WireAccess& a : wire) {
        batch.push_back({.page = a.page,
                         .timestamp = a.timestamp,
                         .is_write = a.is_write});
      }
      runtime::BatchOutcome outcome;
      const bool trace_apply = stage_apply_ != nullptr && should_trace(loop);
      const std::uint64_t apply_start = trace_apply ? now_ns() : 0;
      rt_.apply_batch(batch, outcome);
      if (trace_apply) stage_apply_->record(now_ns() - apply_start);
      loop.requests_served.fetch_add(batch.size(), std::memory_order_relaxed);
      encode_access_reply(out, seq,
                          {.count = outcome.count,
                           .hits = outcome.hits,
                           .admitted = outcome.admitted,
                           .evictions = outcome.evictions,
                           .dirty_evictions = outcome.dirty_evictions});
      return;
    }

    case MsgType::kStats: {
      if (decode_empty(frame) != DecodeStatus::kOk) break;
      const runtime::RuntimeSnapshot snap = rt_.snapshot();
      StatsReply reply;
      reply.accesses = snap.merged.accesses;
      reply.hits = snap.merged.hits;
      reply.read_misses = snap.merged.read_misses;
      reply.write_misses = snap.merged.write_misses;
      reply.fills = snap.merged.fills;
      reply.bypasses = snap.merged.bypasses;
      reply.evictions = snap.merged.evictions;
      reply.dirty_evictions = snap.merged.dirty_evictions;
      reply.inferences = snap.inferences;
      reply.score_batches = snap.score_batches;
      reply.model_version = snap.model_version;
      reply.models_published = snap.models_published;
      reply.records_written = snap.records_written;
      reply.records_dropped = snap.records_dropped;
      reply.record_chunks = snap.record_chunks;
      reply.shadow_accesses = snap.shadow_accesses;
      reply.shadow_hits = snap.shadow_hits;
      reply.shadow_misses = snap.shadow_misses;
      reply.shadow_divergence = snap.shadow_divergence;
      reply.shadow_dropped = snap.shadow_dropped;
      encode_stats_reply(out, seq, reply);
      return;
    }

    case MsgType::kModelInfo: {
      if (decode_empty(frame) != DecodeStatus::kOk) break;
      ModelInfoReply reply;
      reply.shards = rt_.config().shards;
      reply.policy_name = rt_.policy_name();
      if (const runtime::ModelSlot* slot = rt_.model_slot()) {
        reply.components = static_cast<std::uint32_t>(slot->load()->size());
        reply.model_version = slot->version();
      }
      encode_model_info_reply(out, seq, reply);
      return;
    }

    case MsgType::kFlush:
      if (decode_empty(frame) != DecodeStatus::kOk) break;
      rt_.clear_stats();
      encode_flush_reply(out, seq);
      return;

    case MsgType::kMetrics: {
      if (decode_empty(frame) != DecodeStatus::kOk) break;
      MetricsReply reply;
      if (cfg_.metrics != nullptr) {
        for (obs::MetricsRegistry::Sample& s : cfg_.metrics->collect()) {
          reply.entries.push_back({std::move(s.name), s.value});
        }
        // The wire caps entries; a registry past it loses the tail
        // (collect() is name-sorted, so truncation is deterministic).
        if (reply.entries.size() > kMaxMetricsEntries) {
          reply.entries.resize(kMaxMetricsEntries);
        }
      }
      encode_metrics_reply(out, seq, reply);
      return;
    }

    default:
      loop.error_replies.fetch_add(1, std::memory_order_relaxed);
      encode_error(out, seq,
                   {.code = ErrorCode::kUnknownType,
                    .message = std::string("not a request: ") +
                               to_string(frame.header.type)});
      return;
  }
  // A known request type whose payload failed validation.
  loop.error_replies.fetch_add(1, std::memory_order_relaxed);
  encode_error(out, seq,
               {.code = ErrorCode::kBadRequest,
                .message = std::string("malformed ") +
                           to_string(frame.header.type) + " payload"});
}

bool Server::flush(Loop& loop, Connection& conn) {
  if (conn.unsent() == 0) return true;
  const bool trace = stage_flush_ != nullptr && should_trace(loop);
  if (!trace) return flush_impl(loop, conn);
  const std::uint64_t start = now_ns();
  const bool ok = flush_impl(loop, conn);
  stage_flush_->record(now_ns() - start);
  return ok;
}

bool Server::flush_impl(Loop& loop, Connection& conn) {
  std::uint64_t calls = 0;
  std::uint64_t replies = 0;
  bool ok = true;
  while (conn.unsent() > 0) {
    const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_off,
                             conn.unsent(), MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_off += static_cast<std::size_t>(n);
      ++calls;
      while (conn.replies_sent < conn.reply_ends.size() &&
             conn.reply_ends[conn.replies_sent] <= conn.out_off) {
        ++conn.replies_sent;
        ++replies;
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    // EAGAIN: the rest waits for EPOLLOUT. Anything else: the peer is gone.
    ok = n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
    break;
  }
  if (conn.unsent() == 0) {
    conn.out.clear();
    conn.out_off = 0;
    conn.reply_ends.clear();
    conn.replies_sent = 0;
  }
  if (calls > 0) {
    loop.writev_calls.fetch_add(calls, std::memory_order_relaxed);
    loop.writev_replies.fetch_add(replies, std::memory_order_relaxed);
  }
  return ok;
}

}  // namespace icgmm::net
