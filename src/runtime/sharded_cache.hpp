// N independent SetAssociativeCache shards behind per-shard mutexes.
//
// The single-threaded cache model is kept untouched; concurrency comes
// from partitioning the page space across shards with the splitmix router
// so threads serving different pages rarely contend. Each shard owns its
// own ReplacementPolicy (cloned from one prototype or built per shard by
// a factory), its own tag array, and a cache-line-padded block of atomic
// counters mirroring CacheStats — so merged statistics are readable
// lock-free while a request storm is in flight.
//
// Serving takes one lock hold per shard run: access_run() serves a span
// of requests that all route to one shard under a single hold, and
// access() serves one request the same way. Both go through one
// per-request body (cache access, ring pushes, outcome tally).
//
// Consistency: a run tallies its outcome in locals and publishes it to
// the atomic counters (relaxed, one fetch_add per counter that moved)
// while the shard lock is still held, so the mirrors never drift from
// the authoritative per-shard stats — even against a concurrent
// clear_stats(). Readers of merged_stats() take no locks; a mid-flight
// snapshot is per-counter coherent, while identities like hits + misses
// == accesses are guaranteed only at quiescence (e.g. after worker joins).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "cache/cache.hpp"
#include "obs/event_ring.hpp"
#include "runtime/miss_ring.hpp"
#include "runtime/shard_router.hpp"

namespace icgmm::runtime {

struct ShardedCacheConfig {
  /// TOTAL geometry; capacity is split evenly across shards (each shard is
  /// a CacheConfig with capacity_bytes / shards). Must divide cleanly.
  cache::CacheConfig cache;
  std::uint32_t shards = 4;
  /// When non-zero, each shard carries a bounded MissRing of this capacity
  /// and serving enqueues every miss into the owning shard's ring (under
  /// that shard's lock, which is what makes the ring's single-producer
  /// contract hold). Zero = no rings, no per-miss overhead — the default
  /// synchronous mode. Set by Runtime's async miss pipeline.
  std::uint32_t miss_ring_capacity = 0;
  /// When non-zero, each shard carries a bounded ShadowRing of this
  /// capacity and serving enqueues EVERY access (hit or miss, with the
  /// serving verdict) into the owning shard's ring — the feed for the
  /// shadow policy evaluator. Same producer discipline and never-block
  /// overflow contract as the miss ring. Zero = no rings, no per-access
  /// overhead — the default. Set by Runtime's shadow evaluation.
  std::uint32_t shadow_ring_capacity = 0;
  /// Optional flight recorder (not owned; must outlive the cache): a miss
  /// ring dropping a rescore emits kRingDrop with the shard index; a
  /// shadow ring dropping an access emits kShadowRingDrop.
  obs::EventRing* events = nullptr;
};

class ShardedCache {
 public:
  /// Builds shard `i`'s policy. Called once per shard at construction.
  using PolicyFactory =
      std::function<std::unique_ptr<cache::ReplacementPolicy>(std::uint32_t)>;

  /// Throws std::invalid_argument when the total geometry does not split
  /// evenly into `shards` valid per-shard geometries.
  ShardedCache(ShardedCacheConfig cfg, const PolicyFactory& factory);

  /// Convenience: every shard gets prototype.clone().
  ShardedCache(ShardedCacheConfig cfg, const cache::ReplacementPolicy& prototype);

  std::uint32_t shards() const noexcept { return router_.shards(); }
  const cache::CacheConfig& shard_config() const noexcept { return shard_cfg_; }
  const ShardRouter& router() const noexcept { return router_; }

  /// Routes, locks the owning shard, and processes the request — what a
  /// one-element access_run() does, without the span bookkeeping.
  cache::AccessResult access(const cache::AccessContext& ctx);

  /// Serves `run` in order on shard `shard` under one hold of its lock;
  /// out[i] receives run[i]'s outcome. Every page in `run` must route to
  /// `shard` (asserted in debug builds) and `out` must hold at least
  /// run.size() elements. Ring pushes happen per access under the hold,
  /// in run order; the counter mirrors are published once per run.
  void access_run(std::uint32_t shard,
                  std::span<const cache::AccessContext> run,
                  std::span<cache::AccessResult> out);

  /// Lock-free merged statistics (relaxed sums of the per-shard atomics).
  cache::CacheStats merged_stats() const noexcept;

  /// One shard's authoritative CacheStats (takes that shard's lock).
  cache::CacheStats shard_stats(std::uint32_t shard) const;

  /// Runs `fn` on shard `i`'s policy under that shard's lock — read-only
  /// introspection (e.g. per-shard inference counters).
  void with_policy(
      std::uint32_t shard,
      const std::function<void(const cache::ReplacementPolicy&)>& fn) const;

  /// True if `page` is resident in its owning shard (locks that shard).
  bool contains(PageIndex page) const;

  /// Total valid blocks across shards (locks each shard in turn).
  std::uint64_t valid_blocks() const;

  /// Zeroes every shard's counters and the atomic mirrors; cached blocks
  /// and policy state are kept (warm-up discipline, as clear_stats()).
  void clear_stats();

  // --- async miss pipeline hooks -----------------------------------------

 private:
  // Padded so two shards' hot state never share a cache line.
  struct alignas(64) Counters {
    std::atomic<std::uint64_t> accesses{0};
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> read_misses{0};
    std::atomic<std::uint64_t> write_misses{0};
    std::atomic<std::uint64_t> fills{0};
    std::atomic<std::uint64_t> bypasses{0};
    std::atomic<std::uint64_t> evictions{0};
    std::atomic<std::uint64_t> dirty_evictions{0};
  };

  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::unique_ptr<cache::SetAssociativeCache> cache;
    Counters counters;
    std::unique_ptr<MissRing> ring;  ///< null unless miss_ring_capacity > 0
    std::unique_ptr<ShadowRing> shadow;  ///< null unless shadow_ring_capacity > 0
  };

 public:
  /// Shard `i`'s miss ring, or nullptr when miss_ring_capacity was 0.
  /// The decision thread is the only consumer; producers are serving
  /// calls serialized by the shard lock.
  MissRing* miss_ring(std::uint32_t shard) noexcept {
    return shards_[shard]->ring.get();
  }

  /// Shard `i`'s shadow access ring, or nullptr when shadow_ring_capacity
  /// was 0. The ShadowEvaluator is the only consumer; producers are
  /// serving calls serialized by the shard lock.
  ShadowRing* shadow_ring(std::uint32_t shard) noexcept {
    return shards_[shard]->shadow.get();
  }

  /// Mutating view of one shard handed to with_shard_mut's callback. Keeps
  /// the invariant that the lock-free counter mirrors never drift from the
  /// authoritative CacheStats: demote() updates both under the same lock
  /// hold, exactly like serving does.
  class ShardOps {
   public:
    cache::SetAssociativeCache& cache() noexcept { return *shard_.cache; }

    /// Drops `page` if resident, mirroring the eviction into the atomic
    /// counters — the demotion primitive for provisional admissions the
    /// GMM rejected.
    cache::InvalidateResult demote(PageIndex page) noexcept {
      const cache::InvalidateResult r = shard_.cache->invalidate(page);
      if (r.found) {
        publish(shard_.counters, {.evictions = 1,
                                  .dirty_evictions = r.was_dirty ? 1u : 0u});
      }
      return r;
    }

   private:
    friend class ShardedCache;
    explicit ShardOps(Shard& shard) : shard_(shard) {}
    Shard& shard_;
  };

  /// Runs `fn` with mutable access to shard `i` under its lock — the
  /// decision thread's apply path (rescore the set, demote rejects).
  void with_shard_mut(std::uint32_t shard,
                      const std::function<void(ShardOps&)>& fn);

  /// Sums of the per-shard ring counters (0 when rings are disabled).
  /// pushed/dropped are exact once the pushing side is quiescent;
  /// popped once the decision thread has drained.
  std::uint64_t ring_pushed() const noexcept;
  std::uint64_t ring_popped() const noexcept;
  std::uint64_t ring_dropped() const noexcept;

  /// Sums of the per-shard shadow ring counters (0 when shadow rings are
  /// disabled). Same exactness contract as the miss-ring counters.
  std::uint64_t shadow_ring_pushed() const noexcept;
  std::uint64_t shadow_ring_dropped() const noexcept;

 private:
  static cache::CacheConfig split_config(const ShardedCacheConfig& cfg);
  /// Serves one request on `shard` (index `idx`) with its lock held:
  /// the cache access, the ring pushes, and the outcome tallied into
  /// `delta` for publish().
  cache::AccessResult serve(Shard& shard, std::uint32_t idx,
                            const cache::AccessContext& ctx,
                            cache::CacheStats& delta);
  /// Adds `delta` to the atomic mirrors, one relaxed fetch_add per
  /// non-zero counter. Callers hold the shard lock (see the consistency
  /// note). Defined here so the serving path inlines it.
  static void publish(Counters& c, const cache::CacheStats& delta) noexcept {
    const auto add = [](std::atomic<std::uint64_t>& counter,
                        std::uint64_t n) {
      if (n != 0) counter.fetch_add(n, std::memory_order_relaxed);
    };
    add(c.accesses, delta.accesses);
    add(c.hits, delta.hits);
    // An all-hit run (the common case) moved nothing else.
    if (delta.misses() == 0 && delta.evictions == 0) return;
    add(c.read_misses, delta.read_misses);
    add(c.write_misses, delta.write_misses);
    add(c.fills, delta.fills);
    add(c.bypasses, delta.bypasses);
    add(c.evictions, delta.evictions);
    add(c.dirty_evictions, delta.dirty_evictions);
  }

  ShardRouter router_;
  cache::CacheConfig shard_cfg_;
  obs::EventRing* events_ = nullptr;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace icgmm::runtime
