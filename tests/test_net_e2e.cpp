// Loopback end-to-end serving equivalence — the PR's acceptance bar: the
// same trace replayed through the RPC stack (loadgen-style client ->
// TCP -> server -> 1-shard runtime) must produce *identical*
// hit/miss/inference counts to the in-process replay_trace driver, for a
// classic policy and for the trained GMM policy, including the warm-up
// discard (client-side FLUSH at the same request index replay clears
// stats at). The V2 tests hold the same bar with requests pipelined and
// completions matched by id: the server answers one connection in
// arrival order at any pipeline depth, so deep pipelines through a
// multi-loop server stay exact. Suite name starts with "Net" for the CI
// TSan job.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include "cache/policies/classic.hpp"
#include "core/icgmm.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "runtime/replay.hpp"
#include "test_util.hpp"
#include "trace/timestamp_transform.hpp"

namespace icgmm {
namespace {

/// The wire stream replay_trace would generate at threads == 1: trace
/// order, Algorithm-1 timestamps from a fresh transform.
std::vector<net::WireAccess> wire_stream(const trace::Trace& t,
                                         const trace::TransformConfig& cfg) {
  trace::TimestampTransform transform(cfg);
  std::vector<net::WireAccess> stream;
  stream.reserve(t.size());
  for (const trace::Record& r : t) {
    stream.push_back({.page = r.page(),
                      .timestamp = transform.next(),
                      .is_write = r.is_write()});
  }
  return stream;
}

/// Replays `stream` over one connection through the shared driver the
/// loadgen and net bench use, FLUSHing the server at exactly the given
/// clear points ({} = never), then returns STATS.
net::StatsReply serve_stream(std::uint16_t port,
                             const std::vector<net::WireAccess>& stream,
                             std::vector<std::size_t> clear_points,
                             std::size_t batch, std::size_t pipeline = 2) {
  net::Client client = net::Client::connect("127.0.0.1", port);
  net::ReplayOptions opts;
  opts.batch = batch;
  opts.pipeline = pipeline;
  opts.clear_points = std::move(clear_points);
  const std::uint64_t completed = net::replay_stream(client, stream, opts);
  EXPECT_EQ(completed, stream.size());
  return client.stats();
}

void expect_counts_match(const net::StatsReply& net_stats,
                         const sim::RunResult& replayed) {
  EXPECT_EQ(net_stats.accesses, replayed.stats.accesses);
  EXPECT_EQ(net_stats.hits, replayed.stats.hits);
  EXPECT_EQ(net_stats.read_misses, replayed.stats.read_misses);
  EXPECT_EQ(net_stats.write_misses, replayed.stats.write_misses);
  EXPECT_EQ(net_stats.fills, replayed.stats.fills);
  EXPECT_EQ(net_stats.bypasses, replayed.stats.bypasses);
  EXPECT_EQ(net_stats.evictions, replayed.stats.evictions);
  EXPECT_EQ(net_stats.dirty_evictions, replayed.stats.dirty_evictions);
  EXPECT_EQ(net_stats.inferences, replayed.policy_inferences);
}

TEST(NetE2E, ServedLruTraceMatchesInProcessReplayExactly) {
  const trace::Trace t = test_util::zipf_trace(60000, 2048, 0.9, 0x77);
  const runtime::RuntimeConfig rcfg{.cache = test_util::tiny_cache(64, 8),
                                    .shards = 1};
  runtime::ReplayConfig serve_cfg;
  serve_cfg.threads = 1;

  // Reference: the in-process replay driver.
  runtime::Runtime reference(rcfg, cache::LruPolicy());
  const runtime::ReplayResult replayed =
      runtime::replay_trace(reference, t, serve_cfg);

  // Same trace through the RPC stack; FLUSH at replay's warm-up point.
  const std::size_t warmup = static_cast<std::size_t>(
      serve_cfg.warmup_fraction * static_cast<double>(t.size()));
  runtime::Runtime served_rt(rcfg, cache::LruPolicy());
  net::Server server(served_rt, {.port = 0, .workers = 1});
  server.start();
  const net::StatsReply net_stats = serve_stream(
      server.port(), wire_stream(t, serve_cfg.transform), {warmup}, 64);
  server.stop();

  expect_counts_match(net_stats, replayed.run);
}

TEST(NetE2E, ServedGmmTraceMatchesInProcessReplayExactly) {
  const trace::Trace t = test_util::zipf_trace(60000, 2048, 0.9, 0x88);
  core::IcgmmConfig cfg = test_util::small_system_config();
  cfg.engine.cache = test_util::tiny_cache(64, 8);
  core::IcgmmSystem system(cfg);
  system.train(t);

  const auto strategy = cache::GmmStrategy::kCachingEviction;
  const double threshold = system.pick_threshold(t, strategy);
  const runtime::RuntimeConfig rcfg{.cache = cfg.engine.cache, .shards = 1};

  runtime::ReplayConfig serve_cfg;
  serve_cfg.threads = 1;
  serve_cfg.policy_runs_on_miss = true;
  serve_cfg.warmup_fraction = cfg.engine.warmup_fraction;

  const auto reference = system.make_runtime(rcfg, strategy, threshold);
  const runtime::ReplayResult replayed =
      runtime::replay_trace(*reference, t, serve_cfg);

  const std::size_t warmup = static_cast<std::size_t>(
      std::clamp(serve_cfg.warmup_fraction, 0.0, 0.9) *
      static_cast<double>(t.size()));
  const auto served_rt = system.make_runtime(rcfg, strategy, threshold);
  net::Server server(*served_rt, {.port = 0, .workers = 1});
  server.start();
  const net::StatsReply net_stats = serve_stream(
      server.port(), wire_stream(t, serve_cfg.transform), {warmup}, 64);
  server.stop();

  expect_counts_match(net_stats, replayed.run);
  EXPECT_GT(net_stats.inferences, 0u);
  EXPECT_GT(net_stats.score_batches, 0u);  // eviction rescores ran batched
}

TEST(NetE2E, BatchSizeDoesNotChangeServedCounts) {
  // The wire batch is a transport detail: any chunking of the same stream
  // must land the same final counters.
  const trace::Trace t = test_util::zipf_trace(20000, 1024, 0.9, 0x99);
  const runtime::RuntimeConfig rcfg{.cache = test_util::tiny_cache(32, 4),
                                    .shards = 1};
  const trace::TransformConfig tcfg;

  net::StatsReply first;
  bool have_first = false;
  for (const std::size_t batch : {1u, 17u, 256u, 20000u}) {
    runtime::Runtime rt(rcfg, cache::LruPolicy());
    net::Server server(rt, {.port = 0, .workers = 1});
    server.start();
    const net::StatsReply s =
        serve_stream(server.port(), wire_stream(t, tcfg), {}, batch);
    server.stop();
    if (!have_first) {
      first = s;
      have_first = true;
      EXPECT_EQ(s.accesses, t.size());
      continue;
    }
    EXPECT_EQ(s.accesses, first.accesses);
    EXPECT_EQ(s.hits, first.hits);
    EXPECT_EQ(s.read_misses, first.read_misses);
    EXPECT_EQ(s.write_misses, first.write_misses);
    EXPECT_EQ(s.evictions, first.evictions);
  }
}

TEST(NetE2E, V2MultipleClearPointsMatchInProcessReplayExactly) {
  // A capture with several FLUSH markers replays exactly on one
  // connection: every clear point lands on its recorded request index,
  // on one loop at pipeline 2 and on two loops at pipeline 1 alike.
  // Mirrors runtime::ReplayConfig::clear_points semantics.
  const trace::Trace t = test_util::zipf_trace(30000, 1024, 0.9, 0xB7);
  const runtime::RuntimeConfig rcfg{.cache = test_util::tiny_cache(32, 4),
                                    .shards = 1};
  const std::vector<std::size_t> points = {5000, 12000, 21000};
  runtime::ReplayConfig serve_cfg;
  serve_cfg.threads = 1;
  serve_cfg.clear_points = points;

  runtime::Runtime reference(rcfg, cache::LruPolicy());
  const runtime::ReplayResult replayed =
      runtime::replay_trace(reference, t, serve_cfg);

  for (const bool two_loops : {false, true}) {
    runtime::Runtime rt(rcfg, cache::LruPolicy());
    net::Server server(rt, {.port = 0, .workers = two_loops ? 2u : 1u});
    server.start();
    const net::StatsReply s =
        serve_stream(server.port(), wire_stream(t, serve_cfg.transform),
                     points, 64, /*pipeline=*/two_loops ? 1 : 2);
    server.stop();
    expect_counts_match(s, replayed.run);
  }
}

TEST(NetE2E, V2OutOfOrderCompletionsMatchInProcessReplayExactly) {
  // The trace-equivalence bar with two requests of this connection in
  // flight at once: each ACCESS batch
  // travels with a PING, and the test absorbs the PONG and the ACCESS
  // reply in whichever order they arrive (the server answers in request
  // order, but the client-side contract is order-free). The ACCESS stream
  // itself stays at window 1 (awaited before the next send), so the cache
  // sees the exact replay_trace request order and the final counts must
  // be exactly equal.
  const trace::Trace t = test_util::zipf_trace(40000, 2048, 0.9, 0x7A);
  const runtime::RuntimeConfig rcfg{.cache = test_util::tiny_cache(64, 8),
                                    .shards = 1};
  runtime::ReplayConfig serve_cfg;
  serve_cfg.threads = 1;
  serve_cfg.warmup_fraction = 0.0;  // no clear point: pure count identity

  runtime::Runtime reference(rcfg, cache::LruPolicy());
  const runtime::ReplayResult replayed =
      runtime::replay_trace(reference, t, serve_cfg);

  runtime::Runtime served_rt(rcfg, cache::LruPolicy());
  net::Server server(served_rt, {.port = 0, .workers = 2});
  server.start();
  net::Client client = net::Client::connect("127.0.0.1", server.port());

  const auto stream = wire_stream(t, serve_cfg.transform);
  std::uint64_t completed = 0;
  std::uint64_t pongs = 0;
  for (std::size_t sent = 0; sent < stream.size();) {
    const std::size_t n = std::min<std::size_t>(64, stream.size() - sent);
    const std::uint64_t id = client.send_access({stream.data() + sent, n});
    const std::uint64_t ping_id = client.send_ping();
    const net::Completion first = client.poll_any();
    const net::Completion second = client.poll_any();
    const net::Completion& access =
        first.type == net::MsgType::kAccessReply ? first : second;
    const net::Completion& pong =
        first.type == net::MsgType::kPong ? first : second;
    ASSERT_EQ(access.type, net::MsgType::kAccessReply);
    ASSERT_EQ(access.id, id);
    ASSERT_EQ(pong.type, net::MsgType::kPong);
    ASSERT_EQ(pong.id, ping_id);
    completed += access.access.count;
    pongs += 1;
    sent += n;
  }
  EXPECT_EQ(completed, stream.size());
  EXPECT_EQ(pongs, (stream.size() + 63) / 64);
  EXPECT_EQ(client.outstanding(), 0u);

  const net::StatsReply s = client.stats();
  server.stop();
  expect_counts_match(s, replayed.run);
}

/// Replays `stream` at pipeline 8 through a 2-loop server. An
/// idle connection is accepted first, so the replay lands on loop 1 and
/// its socket travels through the accept handoff.
net::StatsReply serve_on_two_loops(
    runtime::Runtime& rt, const std::vector<net::WireAccess>& stream,
    std::size_t warmup) {
  net::Server server(rt, {.port = 0, .workers = 2});
  server.start();
  net::Client idle = net::Client::connect("127.0.0.1", server.port());
  idle.ping();
  const net::StatsReply s =
      serve_stream(server.port(), stream, {warmup}, 64, /*pipeline=*/8);
  server.stop();
  return s;
}

TEST(NetE2E, V2PipelinedLruReplayOnTwoLoopsMatchesInProcessReplayExactly) {
  // Eight ACCESS batches in flight on one connection: the loop serves
  // them in arrival order, so the counts match the in-process replay.
  const trace::Trace t = test_util::zipf_trace(60000, 2048, 0.9, 0x7B);
  const runtime::RuntimeConfig rcfg{.cache = test_util::tiny_cache(64, 8),
                                    .shards = 1};
  runtime::ReplayConfig serve_cfg;
  serve_cfg.threads = 1;
  runtime::Runtime reference(rcfg, cache::LruPolicy());
  const runtime::ReplayResult replayed =
      runtime::replay_trace(reference, t, serve_cfg);

  const std::size_t warmup = static_cast<std::size_t>(
      serve_cfg.warmup_fraction * static_cast<double>(t.size()));
  runtime::Runtime served_rt(rcfg, cache::LruPolicy());
  expect_counts_match(
      serve_on_two_loops(served_rt, wire_stream(t, serve_cfg.transform),
                            warmup),
      replayed.run);
}

TEST(NetE2E, V2PipelinedGmmReplayOnTwoLoopsMatchesInProcessReplayExactly) {
  const trace::Trace t = test_util::zipf_trace(60000, 2048, 0.9, 0x8B);
  core::IcgmmConfig cfg = test_util::small_system_config();
  cfg.engine.cache = test_util::tiny_cache(64, 8);
  core::IcgmmSystem system(cfg);
  system.train(t);
  const auto strategy = cache::GmmStrategy::kCachingEviction;
  const double threshold = system.pick_threshold(t, strategy);
  const runtime::RuntimeConfig rcfg{.cache = cfg.engine.cache, .shards = 1};

  runtime::ReplayConfig serve_cfg;
  serve_cfg.threads = 1;
  serve_cfg.policy_runs_on_miss = true;
  serve_cfg.warmup_fraction = cfg.engine.warmup_fraction;
  const auto reference = system.make_runtime(rcfg, strategy, threshold);
  const runtime::ReplayResult replayed =
      runtime::replay_trace(*reference, t, serve_cfg);

  const std::size_t warmup = static_cast<std::size_t>(
      std::clamp(serve_cfg.warmup_fraction, 0.0, 0.9) *
      static_cast<double>(t.size()));
  const auto served_rt = system.make_runtime(rcfg, strategy, threshold);
  const net::StatsReply s = serve_on_two_loops(
      *served_rt, wire_stream(t, serve_cfg.transform), warmup);
  expect_counts_match(s, replayed.run);
  EXPECT_GT(s.inferences, 0u);
}

TEST(NetE2E, AdaptiveServingPublishesModelsOverTheWire) {
  // The background drift adapter keeps working when traffic arrives via
  // TCP: samples observed, models published, MODEL_INFO reports versions.
  const trace::Trace t = test_util::zipf_trace(40000, 2048, 0.9, 0xAA);
  core::IcgmmConfig cfg = test_util::small_system_config();
  cfg.engine.cache = test_util::tiny_cache(64, 8);
  core::IcgmmSystem system(cfg);
  system.train(t);

  runtime::RuntimeConfig rcfg{.cache = cfg.engine.cache, .shards = 2};
  rcfg.adapt = true;
  rcfg.sample_every = 4;
  rcfg.refresher.online.batch = 256;
  const auto rt = system.make_runtime(
      rcfg, cache::GmmStrategy::kEvictionOnly,
      -std::numeric_limits<double>::infinity());
  rt->start();
  net::Server server(*rt, {.port = 0, .workers = 2});
  server.start();

  net::Client client = net::Client::connect("127.0.0.1", server.port());
  const net::ModelInfoReply before = client.model_info();
  EXPECT_GT(before.components, 0u);

  const auto stream = wire_stream(t, cfg.engine.transform);
  for (std::size_t sent = 0; sent < stream.size(); sent += 500) {
    client.access({stream.data() + sent,
                   std::min<std::size_t>(500, stream.size() - sent)});
  }
  server.stop();
  rt->stop();  // drains the sample queue

  const runtime::RuntimeSnapshot snap = rt->snapshot();
  EXPECT_GT(snap.samples_observed, 0u);
  EXPECT_GE(snap.models_published, 1u);
  EXPECT_EQ(snap.model_version, snap.models_published);
}

}  // namespace
}  // namespace icgmm
