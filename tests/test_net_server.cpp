// Server + Client over real loopback sockets: lifecycle, every RPC type,
// pipelined batches, concurrent connections on several event loops
// hammering one runtime (the TSan target), malformed-stream rejection,
// wire backpressure, FLUSH semantics, the client's out-of-order id
// correlation, and the connection pool. Suite name starts with "Net" so
// the CI thread-sanitizer job picks it up via -R '^(Runtime|PolicyClone|Net)'.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <fstream>
#include <system_error>
#include <thread>
#include <vector>

#include "cache/policies/classic.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "test_util.hpp"

namespace icgmm {
namespace {

runtime::RuntimeConfig small_runtime_config(std::uint32_t shards = 2) {
  return {.cache = test_util::tiny_cache(64, 8), .shards = shards};
}

std::vector<net::WireAccess> make_accesses(std::size_t n, std::uint64_t seed,
                                           std::uint64_t pages = 2048) {
  std::vector<net::WireAccess> out;
  out.reserve(n);
  trace::Zipf zipf(pages, 0.9);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back({.page = zipf.sample(rng),
                   .timestamp = i / 32,
                   .is_write = rng.chance(0.1)});
  }
  return out;
}

TEST(NetServer, StartsOnEphemeralPortAndStopsCleanly) {
  runtime::Runtime rt(small_runtime_config(), cache::LruPolicy());
  net::Server server(rt, {.port = 0, .workers = 1});
  server.start();
  EXPECT_TRUE(server.running());
  EXPECT_GT(server.port(), 0);
  server.stop();
  EXPECT_FALSE(server.running());
  server.stop();  // idempotent
}

TEST(NetServer, PingStatsModelInfoFlushRoundTrips) {
  runtime::Runtime rt(small_runtime_config(4), cache::LruPolicy());
  net::Server server(rt, {.port = 0, .workers = 1});
  server.start();
  net::Client client = net::Client::connect("127.0.0.1", server.port());

  client.ping();

  const auto accesses = make_accesses(500, 0x1);
  const net::AccessReply reply = client.access(accesses);
  EXPECT_EQ(reply.count, 500u);
  EXPECT_LE(reply.hits, 500u);

  net::StatsReply stats = client.stats();
  EXPECT_EQ(stats.accesses, 500u);
  EXPECT_EQ(stats.hits, reply.hits);
  EXPECT_EQ(stats.hits + stats.read_misses + stats.write_misses, 500u);

  net::ModelInfoReply info = client.model_info();
  EXPECT_EQ(info.shards, 4u);
  EXPECT_EQ(info.policy_name, "LRU");
  EXPECT_EQ(info.components, 0u);  // prototype mode: no model slot

  client.flush();
  stats = client.stats();
  EXPECT_EQ(stats.accesses, 0u);  // counters zeroed...
  const net::AccessReply after = client.access(accesses);
  // ...but cache contents stayed warm: replaying the same stream now hits
  // at least as often as the cold first pass.
  EXPECT_GE(after.hits, reply.hits);

  const net::ServerStats ss = server.stats();
  EXPECT_GE(ss.frames_served, 6u);
  EXPECT_EQ(ss.requests_served, 1000u);
  EXPECT_EQ(ss.protocol_errors, 0u);
  server.stop();
}

TEST(NetServer, PipelinedBatchesReplyInOrder) {
  runtime::Runtime rt(small_runtime_config(), cache::LruPolicy());
  net::Server server(rt, {.port = 0, .workers = 2});
  server.start();
  net::Client client = net::Client::connect("127.0.0.1", server.port());

  const auto accesses = make_accesses(1000, 0x2);
  constexpr std::size_t kDepth = 8;
  std::size_t sent = 0, received = 0;
  std::uint64_t total = 0;
  std::span<const net::WireAccess> all(accesses);
  while (received < 10) {
    while (sent < 10 && client.outstanding() < kDepth) {
      client.send_access(all.subspan(sent * 100, 100));
      ++sent;
    }
    const net::AccessReply r = client.await_access_reply();
    EXPECT_EQ(r.count, 100u);  // in-order: every window is 100 requests
    total += r.count;
    ++received;
  }
  EXPECT_EQ(total, 1000u);
  EXPECT_EQ(client.outstanding(), 0u);
  const net::StatsReply stats = client.stats();
  EXPECT_EQ(stats.accesses, 1000u);
  server.stop();
}

TEST(NetServer, ConcurrentConnectionsServeOneRuntime) {
  // The TSan-relevant test: several client threads, three event loops
  // (connections spread round-robin), one shared runtime. Totals must
  // balance exactly at quiescence.
  runtime::Runtime rt(small_runtime_config(4), cache::LruPolicy());
  net::Server server(rt, {.port = 0, .workers = 3});
  server.start();

  constexpr std::uint32_t kClients = 4;
  constexpr std::size_t kPerClient = 4000;
  std::atomic<std::uint64_t> client_hits{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (std::uint32_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      try {
        net::Client client = net::Client::connect("127.0.0.1", server.port());
        const auto accesses = make_accesses(kPerClient, 0x100 + c);
        std::uint64_t hits = 0;
        std::span<const net::WireAccess> all(accesses);
        for (std::size_t off = 0; off < kPerClient; off += 500) {
          hits += client.access(all.subspan(off, 500)).hits;
        }
        client_hits.fetch_add(hits);
      } catch (...) {
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  const net::ServerStats ss = server.stats();
  EXPECT_EQ(ss.requests_served, kClients * kPerClient);
  const runtime::RuntimeSnapshot snap = rt.snapshot();
  EXPECT_EQ(snap.merged.accesses, kClients * kPerClient);
  EXPECT_EQ(snap.merged.hits, client_hits.load());
  EXPECT_EQ(snap.merged.hits + snap.merged.misses(), snap.merged.accesses);
  server.stop();
}

TEST(NetServer, InlineModeServesWithoutWorkers) {
  runtime::Runtime rt(small_runtime_config(), cache::LruPolicy());
  net::Server server(rt, {.port = 0, .workers = 0});  // 0 = one loop, like 1
  server.start();
  net::Client client = net::Client::connect("127.0.0.1", server.port());
  const auto accesses = make_accesses(2000, 0x3);
  std::uint64_t served = 0;
  std::span<const net::WireAccess> all(accesses);
  for (std::size_t off = 0; off < accesses.size(); off += 250) {
    served += client.access(all.subspan(off, 250)).count;
  }
  EXPECT_EQ(served, accesses.size());
  EXPECT_EQ(client.stats().accesses, accesses.size());
  server.stop();
}

/// Raw loopback socket (bypasses the Client's framing) for sending
/// hostile bytes. Returns true if the server closed the connection (EOF
/// or reset observed on a subsequent blocking read).
bool raw_send_expect_close(std::uint16_t port,
                           const std::vector<std::uint8_t>& bytes) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return false;
  }
  (void)::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
  timeval tv{.tv_sec = 5, .tv_usec = 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  char buf[64];
  const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);  // EOF or reset = closed
  ::close(fd);
  return n <= 0;
}

TEST(NetServer, GarbageStreamClosesConnectionAndCountsProtocolError) {
  runtime::Runtime rt(small_runtime_config(), cache::LruPolicy());
  net::Server server(rt, {.port = 0, .workers = 1});
  server.start();

  net::Client good = net::Client::connect("127.0.0.1", server.port());
  good.ping();

  // Bad magic: stream poison — the server must drop the connection
  // without replying, and must keep serving the good connection.
  std::vector<std::uint8_t> bad_magic;
  net::encode_ping(bad_magic, 1);
  bad_magic[0] = 'X';
  EXPECT_TRUE(raw_send_expect_close(server.port(), bad_magic));

  // Oversized declared payload length: rejected from the header alone.
  std::vector<std::uint8_t> oversized;
  net::encode_ping(oversized, 2);
  const std::uint32_t huge = net::kMaxPayload + 1;
  for (int i = 0; i < 4; ++i) {
    oversized[16 + i] = static_cast<std::uint8_t>(huge >> (8 * i));
  }
  EXPECT_TRUE(raw_send_expect_close(server.port(), oversized));

  // Unknown protocol version (2 is the only valid one).
  std::vector<std::uint8_t> bad_version;
  net::encode_ping(bad_version, 3);
  bad_version[4] = net::kProtocolV2 + 1;
  EXPECT_TRUE(raw_send_expect_close(server.port(), bad_version));

  // The poisoned connections died; the healthy one still works.
  good.ping();
  const net::ServerStats ss = server.stats();
  EXPECT_EQ(ss.protocol_errors, 3u);
  server.stop();
}

TEST(NetServer, RequestsBeforeClientFinStillGetReplies) {
  // A client may pipeline its last batch and half-close (FIN) before
  // reading the reply; the server must serve what arrived before the EOF
  // and flush the replies before closing — also when the frame and the
  // FIN land in the same read.
  runtime::Runtime rt(small_runtime_config(), cache::LruPolicy());
  net::Server server(rt, {.port = 0, .workers = 1});
  server.start();

  std::vector<std::uint8_t> request;
  const auto accesses = make_accesses(100, 0x4);
  net::encode_access_batch(request, 1, accesses);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  ::shutdown(fd, SHUT_WR);  // FIN right behind the request bytes

  timeval tv{.tv_sec = 5, .tv_usec = 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  std::vector<std::uint8_t> reply;
  char buf[256];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    reply.insert(reply.end(), buf, buf + n);
  }
  ::close(fd);

  net::Frame frame;
  std::size_t consumed = 0;
  ASSERT_EQ(net::decode_frame(reply, frame, consumed), net::DecodeStatus::kOk);
  net::AccessReply decoded;
  ASSERT_EQ(net::decode_access_reply(frame, decoded), net::DecodeStatus::kOk);
  EXPECT_EQ(decoded.count, 100u);
  EXPECT_EQ(rt.snapshot().merged.accesses, 100u);
  server.stop();
}

TEST(NetServer, WellFramedBadRequestGetsErrorReplyAndConnectionSurvives) {
  runtime::Runtime rt(small_runtime_config(), cache::LruPolicy());
  net::Server server(rt, {.port = 0, .workers = 1});
  server.start();
  net::Client client = net::Client::connect("127.0.0.1", server.port());

  // An empty ACCESS_BATCH is well-framed but invalid: the server answers
  // with an ERROR frame, which the client surfaces as an exception —
  // and the connection keeps working afterwards.
  EXPECT_THROW(client.access({}), std::runtime_error);
  client.ping();
  EXPECT_EQ(client.stats().accesses, 0u);
  EXPECT_GE(server.stats().error_replies, 1u);
  server.stop();
}

TEST(NetServer, PoolSlotHealsAfterServerDropsTheConnection) {
  // A connection the server kills (stream poison) must not permanently
  // poison its pool slot: the client marks itself disconnected on the
  // transport error and the pool lazily reconnects on the next acquire.
  runtime::Runtime rt(small_runtime_config(), cache::LruPolicy());
  net::Server server(rt, {.port = 0, .workers = 1});
  server.start();
  net::ClientPool pool("127.0.0.1", server.port(), 1);

  const auto accesses = make_accesses(10, 0x5);
  {
    auto lease = pool.acquire();
    lease->access(accesses);
    // Simulate the server dropping us mid-conversation.
    server.stop();
    EXPECT_THROW(lease->ping(), std::exception);
    EXPECT_FALSE(lease->connected());
  }
  // New server on a fresh port; repoint is not possible (pool pins the
  // port), so restart on the same one to prove the reconnect path.
  net::Server server2(rt, {.port = 0, .workers = 1});
  server2.start();
  net::ClientPool pool2("127.0.0.1", server2.port(), 1);
  {
    auto lease = pool2.acquire();
    lease->close();  // dead slot, as after a server drop
  }
  {
    auto lease = pool2.acquire();  // must transparently reconnect
    EXPECT_EQ(lease->access(accesses).count, 10u);
  }
  server2.stop();
}

TEST(NetServer, ClientPoolLeasesExclusiveConnections) {
  runtime::Runtime rt(small_runtime_config(), cache::LruPolicy());
  net::Server server(rt, {.port = 0, .workers = 2});
  server.start();

  net::ClientPool pool("127.0.0.1", server.port(), 2);
  constexpr std::uint32_t kThreads = 4;
  constexpr std::size_t kBatches = 50;
  std::atomic<std::uint64_t> served{0};
  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto accesses = make_accesses(100, 0x200 + t);
      for (std::size_t i = 0; i < kBatches; ++i) {
        auto lease = pool.acquire();
        served += lease->access(accesses).count;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(served.load(), kThreads * kBatches * 100);
  // Never more connections than pool slots (lazy connect may use fewer).
  EXPECT_LE(server.stats().connections_accepted, 2u);
  EXPECT_GE(server.stats().connections_accepted, 1u);
  server.stop();
}

// --- protocol v2 over real sockets ------------------------------------------

TEST(NetServer, V2NegotiateAndEveryRpcRoundTrips) {
  runtime::Runtime rt(small_runtime_config(4), cache::LruPolicy());
  net::Server server(rt, {.port = 0, .workers = 2});
  server.start();
  net::Client client = net::Client::connect("127.0.0.1", server.port());

  EXPECT_EQ(client.negotiate(), net::kProtocolV2);
  EXPECT_EQ(client.negotiate(), net::kProtocolV2);  // idempotent

  client.ping();
  const auto accesses = make_accesses(500, 0x21);
  const net::AccessReply reply = client.access(accesses);
  EXPECT_EQ(reply.count, 500u);

  // Pipeline a burst so one flush actually coalesces replies.
  std::span<const net::WireAccess> all(accesses);
  for (std::size_t off = 0; off < 500; off += 50) {
    client.send_access(all.subspan(off, 50));
  }
  EXPECT_EQ(client.outstanding(), 10u);
  std::uint64_t total = 0;
  while (client.outstanding() > 0) total += client.await_access_reply().count;
  EXPECT_EQ(total, 500u);

  const net::StatsReply stats = client.stats();
  EXPECT_EQ(stats.accesses, 1000u);
  const net::ModelInfoReply info = client.model_info();
  EXPECT_EQ(info.shards, 4u);
  client.flush();
  EXPECT_EQ(client.stats().accesses, 0u);

  const net::ServerStats ss = server.stats();
  EXPECT_EQ(ss.protocol_errors, 0u);
  // Every reply above left through a counted flush syscall.
  EXPECT_GT(ss.writev_calls, 0u);
  EXPECT_GE(ss.writev_replies, ss.writev_calls);
  server.stop();
  // At quiescence each served frame's one reply has been counted.
  EXPECT_EQ(server.stats().writev_replies, server.stats().frames_served);
}

/// Connects a raw loopback socket (no Client framing); -1 on failure.
int raw_connect(std::uint16_t port, int rcvbuf = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  // Set before connect so the window the peer sees is small from the start.
  if (rcvbuf > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(NetServer, ClientThatNeverReadsIsPausedAndOthersStillServed) {
  // Wire backpressure: a v2 client pipelines ACCESS batches and never
  // reads. Its loop must stop reading it once the unsent replies pass
  // kMaxUnsentReplyBytes, so requests_served plateaus at a fixed bound
  // instead of tracking everything the client sent — while a second
  // connection on the same (single) loop is still served. Once the
  // client drains, the loop reads again and every request is answered.
  runtime::Runtime rt(small_runtime_config(), cache::LruPolicy());
  net::Server server(rt, {.port = 0, .workers = 1});
  server.start();

  const auto one = make_accesses(1, 0x51);
  std::vector<std::uint8_t> reply;
  net::encode_access_reply(reply, 1, {.count = 1});
  const std::size_t reply_bytes = reply.size();
  // Bound on replies the server may have produced for a stalled reader:
  // the cap, one maximal read slice (a one-access request frame is no
  // smaller than its reply), and the kernel's socket buffers — the
  // server's send buffer grows to at most tcp_wmem's maximum, and the
  // client's receive buffer is pinned small (64 KiB covers it). The
  // client sends three times that many frames, all of which an
  // unbounded server would serve.
  std::size_t wmem_max = 4u << 20;  // the Linux default
  if (std::ifstream f("/proc/sys/net/ipv4/tcp_wmem"); f) {
    std::size_t lo = 0, def = 0;
    f >> lo >> def >> wmem_max;
  }
  const std::size_t bound_replies =
      (net::kMaxUnsentReplyBytes + net::kHeaderBytesV2 + net::kMaxPayload +
       (16u << 10) + wmem_max + (64u << 10)) /
      reply_bytes;
  const std::size_t frames = 3 * bound_replies;
  std::vector<std::uint8_t> wire;
  for (std::size_t i = 0; i < frames; ++i) {
    net::encode_access_batch(wire, i + 1, one);
  }

  const int fd = raw_connect(server.port(), /*rcvbuf=*/4096);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK), 0);
  // Send until the socket is blocked and the server has stopped serving
  // for 300 ms: a slow server that is still working keeps the client
  // sending, so only a paused connection ends this loop.
  std::size_t sent = 0;
  std::uint64_t served = 0;
  while (sent < wire.size()) {
    const ssize_t n =
        ::send(fd, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    ASSERT_TRUE(n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK));
    const std::uint64_t before = server.stats().requests_served;
    pollfd p{.fd = fd, .events = POLLOUT, .revents = 0};
    if (::poll(&p, 1, 300) == 0 &&
        server.stats().requests_served == before) {
      served = before;
      break;
    }
  }
  ASSERT_LT(sent, wire.size()) << "the server never pushed back";

  // Plateau: requests_served stays put, below the bound.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(server.stats().requests_served, served);
  EXPECT_LE(served, bound_replies);
  EXPECT_GE(server.stats().backpressure_pauses, 1u);

  // The same loop still serves another connection.
  net::Client other = net::Client::connect("127.0.0.1", server.port());
  ASSERT_EQ(other.negotiate(), net::kProtocolV2);
  EXPECT_EQ(other.access(make_accesses(100, 0x52)).count, 100u);

  // Drain: read every reply while sending the rest; the loop resumes.
  const std::size_t want = frames * reply_bytes;
  std::size_t got = 0;
  std::vector<std::uint8_t> buf(64 << 10);
  while (got < want) {
    pollfd p{.fd = fd,
             .events = static_cast<short>(POLLIN |
                                          (sent < wire.size() ? POLLOUT : 0)),
             .revents = 0};
    ASSERT_GT(::poll(&p, 1, 5000), 0) << "stalled after " << got << " bytes";
    if (p.revents & POLLIN) {
      const ssize_t n = ::recv(fd, buf.data(), buf.size(), 0);
      ASSERT_GT(n, 0);
      got += static_cast<std::size_t>(n);
    }
    if ((p.revents & POLLOUT) && sent < wire.size()) {
      const ssize_t n =
          ::send(fd, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
      if (n > 0) sent += static_cast<std::size_t>(n);
    }
  }
  EXPECT_EQ(got, want);
  ::close(fd);
  EXPECT_EQ(server.stats().requests_served, frames + 100);
  server.stop();
}

TEST(NetServer, V1FramedPingClosesTheConnectionAsOneProtocolError) {
  // The retired 16-byte v1 header is stream poison like any other unknown
  // version: no reply, the connection closes, one protocol error counted,
  // and other connections keep being served.
  runtime::Runtime rt(small_runtime_config(), cache::LruPolicy());
  net::Server server(rt, {.port = 0, .workers = 1});
  server.start();
  net::Client good = net::Client::connect("127.0.0.1", server.port());
  good.ping();

  // magic "ICGM", version 1, type PING, flags 0, u32 seq, u32 payload_len.
  std::vector<std::uint8_t> v1_ping;
  net::put_u32(v1_ping, net::kMagic);
  v1_ping.push_back(1);
  v1_ping.push_back(static_cast<std::uint8_t>(net::MsgType::kPing));
  net::put_u16(v1_ping, 0);
  net::put_u32(v1_ping, 1);
  net::put_u32(v1_ping, 0);
  ASSERT_EQ(v1_ping.size(), 16u);
  EXPECT_TRUE(raw_send_expect_close(server.port(), v1_ping));

  good.ping();
  const net::ServerStats ss = server.stats();
  EXPECT_EQ(ss.protocol_errors, 1u);
  EXPECT_EQ(ss.error_replies, 0u);
  server.stop();
}

/// Blocking read of exactly one frame from `fd`, buffering any extra bytes
/// in `rx`. Returns false on EOF or a framing error.
bool recv_frame(int fd, std::vector<std::uint8_t>& rx, net::Frame& frame,
                std::vector<std::uint8_t>& bytes) {
  while (true) {
    std::size_t consumed = 0;
    const net::DecodeStatus st = net::decode_frame(rx, frame, consumed);
    if (st == net::DecodeStatus::kOk) {
      bytes.assign(rx.begin(), rx.begin() + consumed);
      rx.erase(rx.begin(), rx.begin() + consumed);
      // Re-point the frame at the owned copy.
      return net::decode_frame(bytes, frame, consumed) ==
             net::DecodeStatus::kOk;
    }
    if (st != net::DecodeStatus::kNeedMore) return false;
    std::uint8_t buf[4096];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return false;
    rx.insert(rx.end(), buf, buf + n);
  }
}

TEST(NetClient, ParksAndReturnsRepliesThatArriveInReverseOrder) {
  // The server answers a connection in request order, but the client
  // contract is order-free: a scripted peer answers each pair of ACCESS
  // ids in reverse, and poll_any / await_access / await_access_reply must
  // each hand back every completion under its own id.
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(lfd, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len), 0);

  // Each ACCESS reply echoes count = the batch size and hits = the id, so
  // the test can tell which request a reply answers.
  constexpr int kPairs = 3;
  std::thread peer([lfd] {
    const int c = ::accept(lfd, nullptr, nullptr);
    if (c < 0) return;
    std::vector<std::uint8_t> rx, bytes, tx;
    net::Frame frame;
    // negotiate()'s PING.
    if (recv_frame(c, rx, frame, bytes)) {
      net::encode_pong(tx, frame.header.seq);
      (void)::send(c, tx.data(), tx.size(), MSG_NOSIGNAL);
      tx.clear();
    }
    for (int pair = 0; pair < kPairs; ++pair) {
      std::vector<std::uint8_t> replies[2];
      for (std::vector<std::uint8_t>& r : replies) {
        std::vector<net::WireAccess> batch;
        if (!recv_frame(c, rx, frame, bytes) ||
            net::decode_access_batch(frame, batch) != net::DecodeStatus::kOk) {
          break;
        }
        net::encode_access_reply(
            r, frame.header.seq,
            {.count = static_cast<std::uint32_t>(batch.size()),
             .hits = static_cast<std::uint32_t>(frame.header.seq)});
      }
      tx.insert(tx.end(), replies[1].begin(), replies[1].end());
      tx.insert(tx.end(), replies[0].begin(), replies[0].end());
      (void)::send(c, tx.data(), tx.size(), MSG_NOSIGNAL);
      tx.clear();
    }
    char drain[64];
    (void)::recv(c, drain, sizeof(drain), 0);  // until the client closes
    ::close(c);
  });

  net::Client client =
      net::Client::connect("127.0.0.1", ntohs(addr.sin_port));
  ASSERT_EQ(client.negotiate(), net::kProtocolV2);
  const auto accesses = make_accesses(8, 0x61);
  std::span<const net::WireAccess> all(accesses);

  // poll_any: completions surface in arrival order, the later id first.
  std::uint64_t a = client.send_access(all.subspan(0, 3));
  std::uint64_t b = client.send_access(all.subspan(0, 5));
  net::Completion first = client.poll_any();
  EXPECT_EQ(first.id, b);
  EXPECT_EQ(first.access.count, 5u);
  EXPECT_EQ(first.access.hits, b);
  net::Completion second = client.poll_any();
  EXPECT_EQ(second.id, a);
  EXPECT_EQ(second.access.count, 3u);
  EXPECT_EQ(second.access.hits, a);

  // await_access: asking for the earlier id parks the later one.
  a = client.send_access(all.subspan(0, 2));
  b = client.send_access(all.subspan(0, 7));
  const net::AccessReply ra = client.await_access(a);
  EXPECT_EQ(ra.count, 2u);
  EXPECT_EQ(ra.hits, a);
  EXPECT_EQ(client.outstanding(), 1u);
  const net::AccessReply rb = client.await_access(b);  // from the park
  EXPECT_EQ(rb.count, 7u);
  EXPECT_EQ(rb.hits, b);

  // await_access_reply: the oldest unawaited id, whatever arrives first.
  a = client.send_access(all.subspan(0, 1));
  b = client.send_access(all.subspan(0, 4));
  EXPECT_EQ(client.await_access_reply().hits, a);
  EXPECT_EQ(client.await_access_reply().hits, b);
  EXPECT_EQ(client.outstanding(), 0u);

  client.close();
  peer.join();
  ::close(lfd);
}

TEST(NetClient, RecvTimeoutSurfacesAsTimedOutAndClosesTheConnection) {
  // A socket that accept()s (the kernel completes the handshake from the
  // listen backlog) but never replies: without a deadline ping() would
  // block forever; with one it must surface ETIMEDOUT and close.
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(lfd, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len), 0);

  net::Client client = net::Client::connect("127.0.0.1", ntohs(addr.sin_port));
  client.set_recv_timeout(std::chrono::milliseconds(100));
  const auto t0 = std::chrono::steady_clock::now();
  try {
    client.ping();
    FAIL() << "ping() should have timed out";
  } catch (const std::system_error& e) {
    EXPECT_EQ(e.code().value(), ETIMEDOUT);
  }
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(elapsed, std::chrono::milliseconds(100));
  EXPECT_LT(elapsed, std::chrono::seconds(5));
  EXPECT_FALSE(client.connected());

  // Zero disables: set, then clear, against a real server round-trips.
  runtime::Runtime rt(small_runtime_config(), cache::LruPolicy());
  net::Server server(rt, {.port = 0, .workers = 1});
  server.start();
  net::Client ok = net::Client::connect("127.0.0.1", server.port());
  ok.set_recv_timeout(std::chrono::milliseconds(2000));
  ok.ping();
  ok.set_recv_timeout(std::chrono::milliseconds(0));  // off again
  ok.ping();
  server.stop();
  ::close(lfd);
}

TEST(NetClient, SyncRpcMidPipelineDrainsOutstandingReplies) {
  // A sync RPC issued with ACCESS replies still in flight drains the
  // pipeline first and answers normally — a monitoring poller calling
  // stats() must not care what the driver thread has outstanding.
  runtime::Runtime rt(small_runtime_config(), cache::LruPolicy());
  net::Server server(rt, {.port = 0, .workers = 2});
  server.start();
  net::Client client = net::Client::connect("127.0.0.1", server.port());

  const auto accesses = make_accesses(300, 0x4);
  std::span<const net::WireAccess> all(accesses);
  client.send_access(all.subspan(0, 100));
  client.send_access(all.subspan(100, 100));
  client.send_access(all.subspan(200, 100));
  EXPECT_EQ(client.outstanding(), 3u);

  // stats() drains the three ACCESS replies first, then does its own
  // round trip — so it reflects every request already sent.
  const net::StatsReply stats = client.stats();
  EXPECT_EQ(client.outstanding(), 0u);
  EXPECT_EQ(stats.accesses, 300u);
  EXPECT_EQ(stats.hits + stats.read_misses + stats.write_misses, 300u);

  // The connection stays healthy: further RPCs and batches round-trip.
  client.ping();
  const net::AccessReply r = client.access(all.subspan(0, 100));
  EXPECT_EQ(r.count, 100u);

  // drain_outstanding() directly: returns how many it consumed, and is a
  // no-op on a quiet pipeline.
  client.send_access(all.subspan(0, 50));
  client.send_access(all.subspan(50, 50));
  EXPECT_EQ(client.drain_outstanding(), 2u);
  EXPECT_EQ(client.outstanding(), 0u);
  EXPECT_EQ(client.drain_outstanding(), 0u);
  client.flush();  // FLUSH mid-quiet still fine after all of the above
  EXPECT_EQ(client.stats().accesses, 0u);
  server.stop();
}

TEST(NetClient, PreciseSleepNeverWakesBeforeDeadline) {
  // The hard guarantee of the hybrid pacer: it may overshoot by a little
  // (scheduler noise on the coarse phase is absorbed by the spin) but it
  // NEVER returns early. 20 consecutive 2ms ticks also bound the
  // cumulative overshoot: raw sleep_until at scheduler granularity
  // drifts; the hybrid pacer re-anchors every tick on the absolute
  // schedule.
  using Clock = std::chrono::steady_clock;
  constexpr int kTicks = 20;
  constexpr auto kInterval = std::chrono::milliseconds(2);
  const auto start = Clock::now();
  for (int i = 1; i <= kTicks; ++i) {
    const auto deadline = start + i * kInterval;
    net::precise_sleep_until(deadline);
    EXPECT_GE(Clock::now(), deadline) << "woke early at tick " << i;
  }
  const auto elapsed = Clock::now() - start;
  EXPECT_GE(elapsed, kTicks * kInterval);
  // Generous ceiling even for a loaded CI box; mostly guards against a
  // pathological regression (e.g. sleeping kInterval per call on top of
  // the absolute deadline).
  EXPECT_LT(elapsed, std::chrono::milliseconds(500));
}

TEST(NetClient, OpenLoopReplayHoldsTargetRateAtLowRate) {
  // Achieved-vs-target throughput through the real open-loop driver.
  // 40 batches of 16 requests at one batch per 2ms targets 8000 req/s;
  // loopback service time is far below the interval, so elapsed time is
  // pacing-dominated and the achieved rate must sit just under target
  // (the schedule is a floor — the driver can never finish early).
  runtime::Runtime rt(small_runtime_config(), cache::LruPolicy());
  net::Server server(rt, {.port = 0, .workers = 1});
  server.start();
  net::Client client = net::Client::connect("127.0.0.1", server.port());

  constexpr std::size_t kBatches = 40;
  constexpr std::size_t kBatch = 16;
  constexpr auto kInterval = std::chrono::milliseconds(2);
  const auto accesses = make_accesses(kBatches * kBatch, 0x5);
  net::ReplayOptions opts;
  opts.batch = kBatch;
  opts.pipeline = 4;
  opts.batch_interval = kInterval;

  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();
  const std::uint64_t completed = net::replay_stream(client, accesses, opts);
  const auto elapsed = Clock::now() - t0;
  EXPECT_EQ(completed, accesses.size());

  // The last batch launches at (kBatches - 1) * interval: a hard floor.
  EXPECT_GE(elapsed, (kBatches - 1) * kInterval);

  const double secs = std::chrono::duration<double>(elapsed).count();
  const double achieved = static_cast<double>(completed) / secs;
  const double target =
      static_cast<double>(kBatch) /
      std::chrono::duration<double>(kInterval).count();
  // Never above ~target (floor above), and within 2x below it even on a
  // slow, oversubscribed runner — pre-hybrid pacing sagged much further
  // at short intervals.
  EXPECT_LE(achieved, target * 1.05);
  EXPECT_GE(achieved, target * 0.5)
      << "achieved " << achieved << " req/s vs target " << target;
  server.stop();
}

}  // namespace
}  // namespace icgmm
