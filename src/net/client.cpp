#include "net/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <utility>

namespace icgmm::net {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

[[noreturn]] void throw_server_error(const Frame& frame) {
  ErrorReply err;
  if (decode_error(frame, err) == DecodeStatus::kOk) {
    throw std::runtime_error("Client: server error " +
                             std::to_string(static_cast<int>(err.code)) +
                             ": " + err.message);
  }
  throw std::runtime_error("Client: server error (undecodable)");
}

}  // namespace

Client::~Client() { close(); }

Client::Client(Client&& other) noexcept { *this = std::move(other); }

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    recv_timeout_ = other.recv_timeout_;
    next_seq_ = std::exchange(other.next_seq_, 1);
    window_ = std::move(other.window_);
    rx_ = std::move(other.rx_);
    rx_used_ = std::exchange(other.rx_used_, 0);
    tx_ = std::move(other.tx_);
  }
  return *this;
}

void Client::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  rx_.clear();
  rx_used_ = 0;
  next_seq_ = 1;
  window_.clear();
}

Client Client::connect(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw_errno("socket");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string ip =
      (host == "localhost" || host.empty()) ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, ip.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("Client::connect: bad IPv4 address: " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int err = errno;
    ::close(fd);
    throw std::system_error(err, std::generic_category(), "connect");
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  Client c;
  c.fd_ = fd;
  return c;
}

void Client::set_recv_timeout(std::chrono::milliseconds timeout) {
  recv_timeout_ =
      timeout.count() > 0 ? timeout : std::chrono::milliseconds{0};
  apply_recv_timeout();
}

void Client::apply_recv_timeout() {
  if (fd_ < 0) return;
  // SO_RCVTIMEO rather than poll(): every blocking recv() in recv_frame
  // then carries the deadline with zero extra syscalls on the fast path.
  // A zeroed timeval restores the default (block forever).
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(recv_timeout_.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((recv_timeout_.count() % 1000) * 1000);
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) < 0) {
    throw_errno("setsockopt(SO_RCVTIMEO)");
  }
}

std::uint8_t Client::negotiate() {
  ping();
  return kProtocolV2;
}

// Transport-level failures (socket errors, EOF, receive deadline expiry,
// undecodable replies or replies to ids never sent) leave the connection
// unusable: close it before throwing so connected() turns false and
// ClientPool's lazy reconnect can heal the slot. Server ERROR replies are
// NOT transport failures — the stream stays in sync and the connection
// stays open.

void Client::send_all(const std::vector<std::uint8_t>& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    const int err = errno;
    close();
    throw std::system_error(err, std::generic_category(), "send");
  }
}

Frame Client::recv_frame() {
  // The previous frame has been handled: drop its bytes (and its views).
  rx_.erase(rx_.begin(), rx_.begin() + static_cast<std::ptrdiff_t>(rx_used_));
  rx_used_ = 0;
  while (true) {
    Frame frame;
    std::size_t consumed = 0;
    const DecodeStatus st = decode_frame(rx_, frame, consumed);
    if (st == DecodeStatus::kOk) {
      rx_used_ = consumed;
      return frame;
    }
    if (st != DecodeStatus::kNeedMore) {
      close();
      throw std::runtime_error(std::string("Client: malformed reply frame: ") +
                               to_string(st));
    }
    char buf[16 * 1024];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      rx_.insert(rx_.end(), buf, buf + n);
      continue;
    }
    if (n == 0) {
      close();
      throw std::runtime_error("Client: connection closed by server");
    }
    if (errno == EINTR) continue;
    if ((errno == EAGAIN || errno == EWOULDBLOCK) &&
        recv_timeout_.count() > 0) {
      // The receive deadline expired mid-wait. The abandoned reply leaves
      // the stream unusable (its frame would desynchronize the next
      // correlation), so the connection closes with the throw.
      close();
      throw std::system_error(ETIMEDOUT, std::generic_category(),
                              "Client: receive deadline expired");
    }
    const int err = errno;
    close();
    throw std::system_error(err, std::generic_category(), "recv");
  }
}

// --- reply correlation -------------------------------------------------------

std::size_t Client::find(std::uint64_t id) const noexcept {
  std::size_t i = 0;
  while (i < window_.size() && window_[i].done.id != id) ++i;
  return i;
}

Completion Client::claim(std::size_t i) {
  const Completion c = window_[i].done;
  window_.erase(window_.begin() + static_cast<std::ptrdiff_t>(i));
  return c;
}

std::size_t Client::receive_reply() {
  const Frame frame = recv_frame();
  const std::size_t i = find(frame.header.seq);
  if (i == window_.size() || window_[i].arrived) {
    close();
    throw std::runtime_error(std::string("Client: ") +
                             to_string(frame.header.type) +
                             " for unknown id " +
                             std::to_string(frame.header.seq));
  }
  if (frame.header.type == MsgType::kError) {
    // The server rejected this request but the stream stays in sync:
    // consume the entry, keep the connection open, and let the complaint
    // surface to whoever is receiving.
    window_.erase(window_.begin() + static_cast<std::ptrdiff_t>(i));
    throw_server_error(frame);
  }
  Completion& done = window_[i].done;
  if (frame.header.type != done.type) {
    const MsgType want = done.type;
    close();
    throw std::runtime_error(std::string("Client: expected ") +
                             to_string(want) + ", got " +
                             to_string(frame.header.type));
  }
  if (done.type == MsgType::kAccessReply &&
      decode_access_reply(frame, done.access) != DecodeStatus::kOk) {
    close();
    throw std::runtime_error("Client: malformed ACCESS_REPLY payload");
  }
  window_[i].arrived = true;
  return i;
}

std::uint64_t Client::send_access(std::span<const WireAccess> accesses) {
  const std::uint64_t id = next_seq_++;
  tx_.clear();
  encode_access_batch(tx_, id, accesses);
  send_all(tx_);
  window_.push_back({.done = {.id = id, .type = MsgType::kAccessReply}});
  return id;
}

std::uint64_t Client::send_ping() {
  const std::uint64_t id = next_seq_++;
  tx_.clear();
  encode_ping(tx_, id);
  send_all(tx_);
  window_.push_back({.done = {.id = id, .type = MsgType::kPong}});
  return id;
}

std::uint32_t Client::outstanding() const noexcept {
  return static_cast<std::uint32_t>(
      std::count_if(window_.begin(), window_.end(), [](const Pending& p) {
        return p.done.type == MsgType::kAccessReply;
      }));
}

AccessReply Client::await_access(std::uint64_t id) {
  const std::size_t i = find(id);
  if (i == window_.size() || window_[i].done.type != MsgType::kAccessReply) {
    throw std::logic_error("Client: await_access on unknown id " +
                           std::to_string(id));
  }
  // Replies only mark entries arrived; an entry leaves the window early
  // only through a throw, so `i` stays put while other replies park.
  while (!window_[i].arrived) receive_reply();
  return claim(i).access;
}

AccessReply Client::await_access_reply() {
  const auto it =
      std::find_if(window_.begin(), window_.end(), [](const Pending& p) {
        return p.done.type == MsgType::kAccessReply;
      });
  if (it == window_.end()) {
    throw std::logic_error("Client: no outstanding ACCESS_BATCH");
  }
  return await_access(it->done.id);
}

Completion Client::poll_any() {
  if (window_.empty()) {
    throw std::logic_error("Client: poll_any with nothing outstanding");
  }
  std::size_t i = 0;
  while (i < window_.size() && !window_[i].arrived) ++i;
  if (i == window_.size()) i = receive_reply();
  return claim(i);
}

std::uint32_t Client::drain_outstanding() {
  std::uint32_t drained = 0;
  while (!window_.empty()) {
    if (poll_any().type == MsgType::kAccessReply) ++drained;
  }
  return drained;
}

// --- synchronous round trips ------------------------------------------------

Frame Client::round_trip(
    void (*encode)(std::vector<std::uint8_t>&, std::uint64_t), MsgType want) {
  drain_outstanding();
  const std::uint64_t id = next_seq_++;
  tx_.clear();
  encode(tx_, id);
  send_all(tx_);
  // Nothing else is outstanding, so the next frame must answer `id`.
  const Frame frame = recv_frame();
  if (frame.header.seq != id) {
    close();
    throw std::runtime_error("Client: reply for id " +
                             std::to_string(frame.header.seq) +
                             ", expected " + std::to_string(id));
  }
  if (frame.header.type == MsgType::kError) throw_server_error(frame);
  if (frame.header.type != want) {
    close();
    throw std::runtime_error(std::string("Client: expected ") +
                             to_string(want) + ", got " +
                             to_string(frame.header.type));
  }
  return frame;
}

void Client::ping() { round_trip(encode_ping, MsgType::kPong); }

AccessReply Client::access(std::span<const WireAccess> accesses) {
  return await_access(send_access(accesses));
}

StatsReply Client::stats() {
  StatsReply reply;
  if (decode_stats_reply(round_trip(encode_stats_request,
                                    MsgType::kStatsReply),
                         reply) != DecodeStatus::kOk) {
    throw std::runtime_error("Client: malformed STATS_REPLY payload");
  }
  return reply;
}

MetricsReply Client::metrics() {
  MetricsReply reply;
  if (decode_metrics_reply(round_trip(encode_metrics_request,
                                      MsgType::kMetricsReply),
                           reply) != DecodeStatus::kOk) {
    throw std::runtime_error("Client: malformed METRICS_REPLY payload");
  }
  return reply;
}

ModelInfoReply Client::model_info() {
  ModelInfoReply reply;
  if (decode_model_info_reply(round_trip(encode_model_info_request,
                                         MsgType::kModelInfoReply),
                              reply) != DecodeStatus::kOk) {
    throw std::runtime_error("Client: malformed MODEL_INFO_REPLY payload");
  }
  return reply;
}

void Client::flush() { round_trip(encode_flush_request, MsgType::kFlushReply); }

// --- replay_stream ----------------------------------------------------------

void precise_sleep_until(std::chrono::steady_clock::time_point deadline) {
  using Clock = std::chrono::steady_clock;
  // The hybrid: hand the bulk of the wait to the scheduler, absorb its
  // wake-up jitter (typically well under a millisecond) by spinning out
  // the remainder. The spin reads only the clock — no pause instruction
  // needed at these durations.
  constexpr auto kSpinWindow = std::chrono::milliseconds(1);
  if (deadline - Clock::now() > kSpinWindow) {
    std::this_thread::sleep_until(deadline - kSpinWindow);
  }
  while (Clock::now() < deadline) {
  }
}

std::uint64_t replay_stream(Client& client,
                            std::span<const WireAccess> stream,
                            const ReplayOptions& opts,
                            const ReplayBatchHook& on_reply) {
  using Clock = std::chrono::steady_clock;
  struct InFlight {
    std::uint64_t id;
    Clock::time_point ref;
    std::uint32_t count;
  };
  const std::size_t batch = std::max<std::size_t>(1, opts.batch);
  const std::size_t pipeline = std::max<std::size_t>(1, opts.pipeline);
  const bool recorded_timing = !opts.send_offsets_ns.empty() &&
                               opts.send_offsets_ns.size() >= stream.size();
  const bool open_loop = recorded_timing || opts.batch_interval.count() > 0;

  // Defensive sanitize of the clear points (documented as sorted
  // ascending; zeros and duplicates dropped) so a capture's raw marker
  // positions can be passed straight through.
  std::vector<std::size_t> points(opts.clear_points);
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());
  points.erase(points.begin(),
               std::find_if(points.begin(), points.end(),
                            [](std::size_t p) { return p != 0; }));
  std::size_t next_point = 0;

  const auto start = Clock::now();

  // Completions are taken in arrival order (poll_any), so a slow batch
  // never head-of-line blocks the latency measurement of replies that
  // already arrived. The server answers in send order, so the match is
  // nearly always the window's front.
  std::deque<InFlight> window;
  std::uint64_t completed = 0;
  auto await_one = [&] {
    const Completion c = client.poll_any();
    // Only this window's ACCESS ids are outstanding, so every completion
    // maps.
    const auto it =
        std::find_if(window.begin(), window.end(),
                     [&c](const InFlight& f) { return f.id == c.id; });
    if (c.type != MsgType::kAccessReply || it == window.end()) {
      throw std::runtime_error("replay_stream: unexpected completion id " +
                               std::to_string(c.id));
    }
    const InFlight done = *it;
    window.erase(it);
    completed += c.access.count;
    if (on_reply) on_reply(c.access, done.ref, done.count);
  };

  std::size_t sent = 0;
  std::uint64_t batch_index = 0;
  while (sent < stream.size()) {
    while (next_point < points.size() && points[next_point] == sent) {
      // Drain the window first so the FLUSH is a true barrier: every
      // request before the point completed, none after it sent.
      while (!window.empty()) await_one();
      client.flush();
      ++next_point;
    }
    std::size_t n = std::min(batch, stream.size() - sent);
    if (next_point < points.size() && points[next_point] > sent) {
      n = std::min(n, points[next_point] - sent);  // land exactly on the point
    }
    Clock::time_point ref;
    if (recorded_timing) {
      // Pace by the batch's first request: relative to the capture's
      // first arrival, so replay spacing mirrors recorded spacing.
      ref = start + std::chrono::nanoseconds(opts.send_offsets_ns[sent] -
                                             opts.send_offsets_ns[0]);
      precise_sleep_until(ref);  // no-op when behind schedule
    } else if (open_loop) {
      // Scheduled by batches launched, not requests: a split batch (a
      // clear-point boundary, the stream tail) consumes a full interval
      // slot, shifting later launches by at most one interval per split.
      ref = start + batch_index * opts.batch_interval;
      precise_sleep_until(ref);  // no-op when behind schedule
    }
    while (window.size() >= pipeline) await_one();
    if (!open_loop) ref = Clock::now();
    const std::uint64_t id = client.send_access(stream.subspan(sent, n));
    window.push_back({id, ref, static_cast<std::uint32_t>(n)});
    sent += n;
    ++batch_index;
  }
  while (!window.empty()) await_one();
  // Points landing exactly at the end of the stream still fire (a capture
  // that ends on a FLUSH marker), mirroring runtime replay's semantics.
  while (next_point < points.size() && points[next_point] == sent) {
    client.flush();
    ++next_point;
  }
  return completed;
}

// --- ClientPool -------------------------------------------------------------

ClientPool::ClientPool(std::string host, std::uint16_t port, std::size_t size)
    : host_(std::move(host)),
      port_(port),
      clients_(size == 0 ? 1 : size),
      leased_(size == 0 ? 1 : size, false) {}

ClientPool::Lease ClientPool::acquire() {
  std::unique_lock<std::mutex> lock(mu_);
  std::size_t slot = clients_.size();
  cv_.wait(lock, [&] {
    for (std::size_t i = 0; i < leased_.size(); ++i) {
      if (!leased_[i]) {
        slot = i;
        return true;
      }
    }
    return false;
  });
  leased_[slot] = true;
  lock.unlock();
  // Connect outside the pool lock; a failure releases the slot.
  if (!clients_[slot].connected()) {
    try {
      clients_[slot] = Client::connect(host_, port_);
    } catch (...) {
      std::lock_guard<std::mutex> relock(mu_);
      leased_[slot] = false;
      cv_.notify_one();
      throw;
    }
  }
  return Lease(*this, slot);
}

void ClientPool::Lease::release() {
  if (!pool_) return;
  {
    std::lock_guard<std::mutex> lock(pool_->mu_);
    pool_->leased_[slot_] = false;
  }
  pool_->cv_.notify_one();
  pool_ = nullptr;
}

}  // namespace icgmm::net
