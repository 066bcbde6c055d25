// Runtime::apply_batch — the span entry point replay_trace and the net
// server share. Replaying a trace through replay_trace must be
// bit-identical to hand-feeding the same stream through apply_batch at
// any chunking, per-request results must match access() exactly, and the
// GMM inference counters must agree — at threads == 1 everything is
// deterministic, so all comparisons are exact equality.
//
// apply_batch groups a span into per-shard runs, one lock hold each. The
// grid below pins that grouping to the per-access loop across shard
// counts, policies and span sizes; the async-miss, shadow and recorder
// tests pin the side channels (ring pushes in shard order, captures in
// arrival order); the concurrent test is the TSan target for the grouped
// path.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "cache/policies/classic.hpp"
#include "core/icgmm.hpp"
#include "record/format.hpp"
#include "runtime/replay.hpp"
#include "test_util.hpp"
#include "trace/timestamp_transform.hpp"

namespace icgmm {
namespace {

void expect_stats_eq(const cache::CacheStats& a, const cache::CacheStats& b) {
  EXPECT_EQ(a.accesses, b.accesses);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.read_misses, b.read_misses);
  EXPECT_EQ(a.write_misses, b.write_misses);
  EXPECT_EQ(a.fills, b.fills);
  EXPECT_EQ(a.bypasses, b.bypasses);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.dirty_evictions, b.dirty_evictions);
}

/// The access stream replay_trace generates at threads == 1 (trace
/// order, fresh Algorithm-1 clock), with replay's warm-up index.
std::vector<runtime::Access> make_stream(const trace::Trace& t) {
  trace::TimestampTransform transform;
  std::vector<runtime::Access> stream;
  stream.reserve(t.size());
  for (const trace::Record& r : t) {
    stream.push_back({.page = r.page(),
                      .timestamp = transform.next(),
                      .is_write = r.is_write()});
  }
  return stream;
}

/// make_stream with every seventh request turned into a write, so the
/// grouped path is also checked on write misses and dirty evictions.
std::vector<runtime::Access> make_mixed_stream(const trace::Trace& t) {
  std::vector<runtime::Access> stream = make_stream(t);
  for (std::size_t i = 3; i < stream.size(); i += 7) stream[i].is_write = true;
  return stream;
}

bool same_result(const cache::AccessResult& a, const cache::AccessResult& b) {
  return a.hit == b.hit && a.admitted == b.admitted &&
         a.evicted == b.evicted && a.evicted_dirty == b.evicted_dirty &&
         a.is_write == b.is_write &&
         (!a.evicted || a.victim_page == b.victim_page);
}

/// Index of the first request whose outcome differs, or size() if none.
std::size_t first_mismatch(const std::vector<cache::AccessResult>& got,
                           const std::vector<cache::AccessResult>& want) {
  std::size_t i = 0;
  while (i < want.size() && same_result(got[i], want[i])) ++i;
  return i;
}

/// One trained GMM system shared by every GMM test in this file; training
/// is the slow part, so it runs once per process.
struct TrainedGmm {
  trace::Trace trace;
  std::unique_ptr<core::IcgmmSystem> system;
  double threshold = 0.0;
};

const TrainedGmm& trained_gmm() {
  static const TrainedGmm g = [] {
    TrainedGmm out{.trace = test_util::zipf_trace(12000, 2048, 0.9, 0xB4)};
    core::IcgmmConfig cfg = test_util::small_system_config();
    cfg.engine.cache = test_util::tiny_cache(64, 8);
    out.system = std::make_unique<core::IcgmmSystem>(cfg);
    out.system->train(out.trace);
    out.threshold = out.system->pick_threshold(
        out.trace, cache::GmmStrategy::kCachingEviction);
    return out;
  }();
  return g;
}

TEST(RuntimeApplyBatch, ReplayVsManualBatchesBitIdenticalStatsLru) {
  const trace::Trace t = test_util::zipf_trace(50000, 2048, 0.9, 0xB1);
  const runtime::RuntimeConfig rcfg{.cache = test_util::tiny_cache(64, 8),
                                    .shards = 1};

  runtime::Runtime replayed(rcfg, cache::LruPolicy());
  runtime::ReplayConfig cfg;
  cfg.threads = 1;
  cfg.warmup_fraction = 0.2;
  runtime::replay_trace(replayed, t, cfg);

  const std::vector<runtime::Access> stream = make_stream(t);
  const std::size_t warmup = t.size() / 5;
  for (const std::size_t chunk : {1u, 13u, 256u, 4096u}) {
    runtime::Runtime batched(rcfg, cache::LruPolicy());
    std::size_t i = 0;
    while (i < stream.size()) {
      std::size_t n = std::min(chunk, stream.size() - i);
      if (i < warmup) n = std::min(n, warmup - i);
      batched.apply_batch({stream.data() + i, n});
      i += n;
      if (i == warmup) batched.clear_stats();
    }
    expect_stats_eq(batched.cache().merged_stats(),
                    replayed.cache().merged_stats());
  }
}

TEST(RuntimeApplyBatch, ReplayVsBatchBitIdenticalStatsAndInferencesGmm) {
  const trace::Trace t = test_util::zipf_trace(40000, 2048, 0.9, 0xB2);
  core::IcgmmConfig cfg = test_util::small_system_config();
  cfg.engine.cache = test_util::tiny_cache(64, 8);
  core::IcgmmSystem system(cfg);
  system.train(t);
  const auto strategy = cache::GmmStrategy::kCachingEviction;
  const double threshold = system.pick_threshold(t, strategy);
  const runtime::RuntimeConfig rcfg{.cache = cfg.engine.cache, .shards = 1};

  const auto replayed = system.make_runtime(rcfg, strategy, threshold);
  runtime::ReplayConfig replay_cfg;
  replay_cfg.threads = 1;
  replay_cfg.warmup_fraction = 0.0;
  const runtime::ReplayResult ref =
      runtime::replay_trace(*replayed, t, replay_cfg);

  const auto batched = system.make_runtime(rcfg, strategy, threshold);
  const std::vector<runtime::Access> stream = make_stream(t);
  for (std::size_t i = 0; i < stream.size(); i += 777) {
    batched->apply_batch(
        {stream.data() + i, std::min<std::size_t>(777, stream.size() - i)});
  }

  expect_stats_eq(batched->cache().merged_stats(), ref.run.stats);
  EXPECT_EQ(batched->inferences(), ref.run.policy_inferences);
  EXPECT_GT(batched->inferences(), 0u);
}

TEST(RuntimeApplyBatch, PerRequestResultsMatchAccessExactly) {
  const trace::Trace t = test_util::zipf_trace(20000, 1024, 0.9, 0xB3);
  const runtime::RuntimeConfig rcfg{.cache = test_util::tiny_cache(32, 4),
                                    .shards = 2};
  const std::vector<runtime::Access> stream = make_stream(t);

  runtime::Runtime one_by_one(rcfg, cache::LruPolicy());
  std::vector<cache::AccessResult> expected;
  expected.reserve(stream.size());
  for (const runtime::Access& a : stream) {
    expected.push_back(one_by_one.access(a.page, a.timestamp, a.is_write));
  }

  runtime::Runtime spanned(rcfg, cache::LruPolicy());
  std::vector<cache::AccessResult> results(stream.size());
  spanned.apply_batch(stream, results);

  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(results[i].hit, expected[i].hit) << "at " << i;
    EXPECT_EQ(results[i].admitted, expected[i].admitted) << "at " << i;
    EXPECT_EQ(results[i].evicted, expected[i].evicted) << "at " << i;
    EXPECT_EQ(results[i].evicted_dirty, expected[i].evicted_dirty)
        << "at " << i;
    EXPECT_EQ(results[i].is_write, expected[i].is_write) << "at " << i;
    if (results[i].evicted) {
      EXPECT_EQ(results[i].victim_page, expected[i].victim_page) << "at " << i;
    }
  }
  expect_stats_eq(spanned.cache().merged_stats(),
                  one_by_one.cache().merged_stats());
}

TEST(RuntimeApplyBatch, EmptyBatchAndNoResultsSpanAreNoOps) {
  runtime::Runtime rt(
      runtime::RuntimeConfig{.cache = test_util::tiny_cache(32, 4),
                             .shards = 2},
      cache::LruPolicy());
  rt.apply_batch({});
  EXPECT_EQ(rt.cache().merged_stats().accesses, 0u);

  const std::vector<runtime::Access> two = {{.page = 1, .timestamp = 0},
                                            {.page = 2, .timestamp = 0}};
  rt.apply_batch(two);  // no results span: still served
  EXPECT_EQ(rt.cache().merged_stats().accesses, 2u);
}

// --- grouped serving: one lock hold per shard run ---------------------------

/// (shards, sync GMM instead of LRU, span size).
using GroupedParam = std::tuple<std::uint32_t, bool, std::size_t>;

class ApplyBatchGrouped : public ::testing::TestWithParam<GroupedParam> {
 protected:
  static std::unique_ptr<runtime::Runtime> make(std::uint32_t shards,
                                                bool gmm) {
    const runtime::RuntimeConfig rcfg{.cache = test_util::tiny_cache(64, 8),
                                      .shards = shards};
    if (!gmm) {
      return std::make_unique<runtime::Runtime>(rcfg, cache::LruPolicy());
    }
    const TrainedGmm& g = trained_gmm();
    return g.system->make_runtime(rcfg, cache::GmmStrategy::kCachingEviction,
                                  g.threshold);
  }
};

TEST_P(ApplyBatchGrouped, MatchesPerAccessLoopExactly) {
  const auto [shards, gmm, span] = GetParam();
  const std::vector<runtime::Access> stream =
      make_mixed_stream(trained_gmm().trace);

  const auto one_by_one = make(shards, gmm);
  std::vector<cache::AccessResult> expected;
  expected.reserve(stream.size());
  for (const runtime::Access& a : stream) {
    expected.push_back(one_by_one->access(a.page, a.timestamp, a.is_write));
  }

  // One runtime per apply_batch overload, fed the same spans.
  const auto grouped = make(shards, gmm);
  const auto folded = make(shards, gmm);
  std::vector<cache::AccessResult> results(stream.size());
  std::size_t outcome_mismatches = 0;
  for (std::size_t i = 0; i < stream.size(); i += span) {
    const std::size_t n = std::min(span, stream.size() - i);
    grouped->apply_batch({stream.data() + i, n}, {results.data() + i, n});
    runtime::BatchOutcome got;
    folded->apply_batch({stream.data() + i, n}, got);
    runtime::BatchOutcome want{.count = static_cast<std::uint32_t>(n)};
    for (std::size_t j = i; j < i + n; ++j) {
      want.hits += expected[j].hit ? 1 : 0;
      want.admitted += expected[j].admitted ? 1 : 0;
      want.evictions += expected[j].evicted ? 1 : 0;
      want.dirty_evictions += expected[j].evicted_dirty ? 1 : 0;
    }
    if (got.count != want.count || got.hits != want.hits ||
        got.admitted != want.admitted || got.evictions != want.evictions ||
        got.dirty_evictions != want.dirty_evictions) {
      ++outcome_mismatches;
    }
  }

  EXPECT_EQ(first_mismatch(results, expected), expected.size())
      << "per-request outcome differs at this arrival index";
  EXPECT_EQ(outcome_mismatches, 0u);
  for (std::uint32_t s = 0; s < shards; ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    const cache::CacheStats want = one_by_one->cache().shard_stats(s);
    expect_stats_eq(grouped->cache().shard_stats(s), want);
    expect_stats_eq(folded->cache().shard_stats(s), want);
  }
  expect_stats_eq(grouped->cache().merged_stats(),
                  one_by_one->cache().merged_stats());
  expect_stats_eq(folded->cache().merged_stats(),
                  one_by_one->cache().merged_stats());
  EXPECT_EQ(grouped->inferences(), one_by_one->inferences());
  EXPECT_EQ(folded->inferences(), one_by_one->inferences());
  if (gmm) {
    EXPECT_GT(one_by_one->inferences(), 0u);
  }
  EXPECT_GT(one_by_one->cache().merged_stats().dirty_evictions, 0u);
}

// The "Runtime" prefix puts the grid under the TSan job's ^Runtime regex.
INSTANTIATE_TEST_SUITE_P(
    RuntimeGrid, ApplyBatchGrouped,
    ::testing::Combine(::testing::Values(2u, 4u, 8u), ::testing::Bool(),
                       ::testing::Values<std::size_t>(1, 7, 32, 256)),
    [](const ::testing::TestParamInfo<GroupedParam>& info) {
      return "shards" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_gmm" : "_lru") + "_span" +
             std::to_string(std::get<2>(info.param));
    });

TEST(RuntimeApplyBatch, AsyncMissEnqueuesMatchPerAccessRun) {
  // With the decision thread running, its demotions and rescores race the
  // serving stream, so hit/miss sequences are only reproducible when they
  // cannot matter: eviction-only never demotes, and one 64-way set per
  // shard holds all 100 pages, so nothing is ever evicted. What remains
  // deterministic is what the grouped path must keep: every miss offers
  // exactly one rescore to its shard's ring.
  const TrainedGmm& g = trained_gmm();
  runtime::RuntimeConfig rcfg{.cache = test_util::tiny_cache(4, 64),
                              .shards = 4};
  rcfg.async_miss = {.enabled = true, .ring_capacity = 1u << 12};
  const std::vector<runtime::Access> stream =
      make_mixed_stream(test_util::zipf_trace(12000, 100, 0.9, 0xB5));
  const auto make = [&] {
    return g.system->make_runtime(rcfg, cache::GmmStrategy::kEvictionOnly,
                                  g.threshold);
  };

  const auto one_by_one = make();
  for (const runtime::Access& a : stream) {
    one_by_one->access(a.page, a.timestamp, a.is_write);
  }
  one_by_one->drain_deferred();
  const auto grouped = make();
  for (std::size_t i = 0; i < stream.size(); i += 32) {
    grouped->apply_batch(
        {stream.data() + i, std::min<std::size_t>(32, stream.size() - i)});
  }
  grouped->drain_deferred();

  const runtime::RuntimeSnapshot want = one_by_one->snapshot();
  const runtime::RuntimeSnapshot got = grouped->snapshot();
  ASSERT_EQ(want.merged.evictions, 0u) << "a set overflowed; pick fewer pages";
  ASSERT_EQ(want.deferred_dropped, 0u);
  expect_stats_eq(got.merged, want.merged);
  EXPECT_EQ(got.deferred_enqueued, want.deferred_enqueued);
  EXPECT_EQ(got.deferred_dropped, 0u);
  EXPECT_EQ(got.deferred_enqueued, got.deferred_applied);
  EXPECT_EQ(got.deferred_enqueued, got.merged.misses());
  EXPECT_GT(got.deferred_enqueued, 0u);
}

TEST(RuntimeApplyBatch, ShadowCountersMatchPerAccessRun) {
  // Serving is synchronous LRU and each shadow shard replays its own ring
  // in push order, so with rings too large to drop the shadow counters
  // are a pure function of each shard's access sequence — the one thing
  // grouping must not change.
  runtime::RuntimeConfig rcfg{.cache = test_util::tiny_cache(64, 8),
                              .shards = 4};
  rcfg.shadow = {.enabled = true,
                 .policy_factory =
                     [](std::uint32_t) {
                       return std::make_unique<cache::FifoPolicy>();
                     },
                 .policy_name = "fifo",
                 .ring_capacity = 1u << 14};
  const std::vector<runtime::Access> stream =
      make_mixed_stream(test_util::zipf_trace(12000, 2048, 0.9, 0xB6));

  runtime::Runtime one_by_one(rcfg, cache::LruPolicy());
  for (const runtime::Access& a : stream) {
    one_by_one.access(a.page, a.timestamp, a.is_write);
  }
  one_by_one.drain_shadow();
  runtime::Runtime grouped(rcfg, cache::LruPolicy());
  for (std::size_t i = 0; i < stream.size(); i += 32) {
    grouped.apply_batch(
        {stream.data() + i, std::min<std::size_t>(32, stream.size() - i)});
  }
  grouped.drain_shadow();

  const runtime::RuntimeSnapshot want = one_by_one.snapshot();
  const runtime::RuntimeSnapshot got = grouped.snapshot();
  ASSERT_EQ(want.shadow_dropped, 0u);
  EXPECT_EQ(got.shadow_dropped, 0u);
  EXPECT_EQ(got.shadow_accesses, want.shadow_accesses);
  EXPECT_EQ(got.shadow_hits, want.shadow_hits);
  EXPECT_EQ(got.shadow_misses, want.shadow_misses);
  EXPECT_EQ(got.shadow_divergence, want.shadow_divergence);
  EXPECT_EQ(got.shadow_accesses, stream.size());
  EXPECT_GT(got.shadow_divergence, 0u);  // FIFO really differs from LRU
}

TEST(RuntimeApplyBatch, RecorderCapturesArrivalOrderAndReplaysExactly) {
  // The recorder captures each span before it is grouped, so the capture
  // is the arrival stream itself, not the shard-ordered serving sequence.
  runtime::RuntimeConfig rcfg{.cache = test_util::tiny_cache(64, 8),
                              .shards = 4};
  rcfg.record.path = ::testing::TempDir() + "/apply_batch_grouped.icgr";
  rcfg.record.ring_capacity = 1u << 15;  // larger than the stream: no drops
  const std::vector<runtime::Access> stream =
      make_mixed_stream(test_util::zipf_trace(12000, 2048, 0.9, 0xB7));

  runtime::Runtime served(rcfg, cache::LruPolicy());
  for (std::size_t i = 0; i < stream.size(); i += 32) {
    served.apply_batch(
        {stream.data() + i, std::min<std::size_t>(32, stream.size() - i)});
  }
  served.stop();  // finalizes the capture file

  const record::RecordedTrace capture =
      record::read_recorded_file(rcfg.record.path);
  ASSERT_EQ(capture.trace.size(), stream.size());
  std::size_t first_out_of_order = stream.size();
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const trace::Record& r = capture.trace[i];
    if (r.page() != stream[i].page || r.time != stream[i].timestamp ||
        r.is_write() != stream[i].is_write) {
      first_out_of_order = i;
      break;
    }
  }
  EXPECT_EQ(first_out_of_order, stream.size())
      << "capture departs from arrival order at this index";

  runtime::Runtime replayed(
      runtime::RuntimeConfig{.cache = rcfg.cache, .shards = 4},
      cache::LruPolicy());
  runtime::ReplayConfig cfg;
  cfg.threads = 1;
  cfg.raw_timestamps = true;
  cfg.warmup_fraction = 0.0;
  runtime::replay_trace(replayed, capture.trace, cfg);
  expect_stats_eq(replayed.cache().merged_stats(),
                  served.cache().merged_stats());
}

TEST(RuntimeApplyBatch, ConcurrentSpansKeepMergedEqualShardSum) {
  // Two threads drive the grouped path on one 4-shard runtime, one per
  // apply_batch overload, so their shard runs interleave at every lock.
  constexpr std::size_t kPerThread = 20000;
  runtime::Runtime rt(
      runtime::RuntimeConfig{.cache = test_util::tiny_cache(64, 8),
                             .shards = 4},
      cache::LruPolicy());
  const std::vector<runtime::Access> streams[2] = {
      make_mixed_stream(test_util::zipf_trace(kPerThread, 4096, 0.9, 0xC1)),
      make_mixed_stream(test_util::zipf_trace(kPerThread, 4096, 0.9, 0xC2))};
  std::uint64_t hits[2] = {0, 0};

  std::thread with_results([&] {
    const std::vector<runtime::Access>& s = streams[0];
    std::vector<cache::AccessResult> results(32);
    for (std::size_t i = 0; i < s.size(); i += 32) {
      const std::size_t n = std::min<std::size_t>(32, s.size() - i);
      rt.apply_batch({s.data() + i, n}, {results.data(), n});
      for (std::size_t j = 0; j < n; ++j) hits[0] += results[j].hit ? 1 : 0;
    }
  });
  std::thread with_outcome([&] {
    const std::vector<runtime::Access>& s = streams[1];
    for (std::size_t i = 0; i < s.size(); i += 32) {
      runtime::BatchOutcome outcome;
      rt.apply_batch(
          {s.data() + i, std::min<std::size_t>(32, s.size() - i)}, outcome);
      hits[1] += outcome.hits;
    }
  });
  with_results.join();
  with_outcome.join();

  const runtime::RuntimeSnapshot snap = rt.snapshot();
  cache::CacheStats sum;
  for (const cache::CacheStats& s : snap.per_shard) {
    sum.accesses += s.accesses;
    sum.hits += s.hits;
    sum.read_misses += s.read_misses;
    sum.write_misses += s.write_misses;
    sum.fills += s.fills;
    sum.bypasses += s.bypasses;
    sum.evictions += s.evictions;
    sum.dirty_evictions += s.dirty_evictions;
  }
  expect_stats_eq(snap.merged, sum);
  EXPECT_EQ(snap.merged.accesses, 2 * kPerThread);
  EXPECT_EQ(snap.merged.hits + snap.merged.misses(), snap.merged.accesses);
  EXPECT_EQ(snap.merged.fills + snap.merged.bypasses, snap.merged.misses());
  EXPECT_EQ(hits[0] + hits[1], snap.merged.hits);
}

}  // namespace
}  // namespace icgmm
