#include "runtime/sharded_cache.hpp"

#include <cassert>
#include <stdexcept>

namespace icgmm::runtime {

cache::CacheConfig ShardedCache::split_config(const ShardedCacheConfig& cfg) {
  if (cfg.shards == 0) {
    throw std::invalid_argument("ShardedCache: shards must be positive");
  }
  if (cfg.cache.capacity_bytes % cfg.shards != 0) {
    throw std::invalid_argument(
        "ShardedCache: capacity not divisible by shard count");
  }
  cache::CacheConfig per_shard = cfg.cache;
  per_shard.capacity_bytes = cfg.cache.capacity_bytes / cfg.shards;
  per_shard.validate();  // throws when the split breaks set geometry
  return per_shard;
}

ShardedCache::ShardedCache(ShardedCacheConfig cfg, const PolicyFactory& factory)
    : router_(cfg.shards), shard_cfg_(split_config(cfg)), events_(cfg.events) {
  if (!factory) throw std::invalid_argument("ShardedCache: null policy factory");
  shards_.reserve(cfg.shards);
  for (std::uint32_t i = 0; i < cfg.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->cache =
        std::make_unique<cache::SetAssociativeCache>(shard_cfg_, factory(i));
    if (cfg.miss_ring_capacity > 0) {
      shard->ring = std::make_unique<MissRing>(cfg.miss_ring_capacity);
    }
    if (cfg.shadow_ring_capacity > 0) {
      shard->shadow = std::make_unique<ShadowRing>(cfg.shadow_ring_capacity);
    }
    shards_.push_back(std::move(shard));
  }
}

ShardedCache::ShardedCache(ShardedCacheConfig cfg,
                           const cache::ReplacementPolicy& prototype)
    : ShardedCache(cfg, [&prototype](std::uint32_t) {
        return prototype.clone();
      }) {}

inline cache::AccessResult ShardedCache::serve(Shard& shard, std::uint32_t idx,
                                               const cache::AccessContext& ctx,
                                               cache::CacheStats& delta) {
  const cache::AccessResult result = shard.cache->access(ctx);
  // Tally the outcome with the same derivation the cache applies
  // internally (see SetAssociativeCache::access); the caller publishes
  // the tally once per lock hold.
  ++delta.accesses;
  if (result.hit) {
    ++delta.hits;
  } else {
    ++(ctx.is_write ? delta.write_misses : delta.read_misses);
    ++(result.admitted ? delta.fills : delta.bypasses);
    if (result.evicted) {
      ++delta.evictions;
      if (result.evicted_dirty) ++delta.dirty_evictions;
    }
  }
  // Async miss pipeline: hand the miss to the decision thread. Pushed
  // under the shard lock, so all producers are serialized — the ring's
  // single-producer contract. A full ring drops (and counts) the rescore
  // rather than stalling the serving path.
  if (!result.hit && shard.ring) {
    if (!shard.ring->try_push({ctx.page, ctx.timestamp}) &&
        events_ != nullptr) {
      events_->emit(obs::EventType::kRingDrop, idx);
    }
  }
  // Shadow evaluation: every access (hit or miss) flows to the shadow
  // policy with the serving verdict attached, under the same lock-held
  // single-producer discipline. The shadow never reads serving state;
  // this push is the entire coupling surface.
  if (shard.shadow) {
    if (!shard.shadow->try_push({.page = ctx.page, .timestamp = ctx.timestamp,
                                 .is_write = ctx.is_write,
                                 .serving_hit = result.hit}) &&
        events_ != nullptr) {
      events_->emit(obs::EventType::kShadowRingDrop, idx);
    }
  }
  return result;
}

cache::AccessResult ShardedCache::access(const cache::AccessContext& ctx) {
  const std::uint32_t idx = router_.route(ctx.page);
  Shard& shard = *shards_[idx];
  std::lock_guard<std::mutex> lock(shard.mu);
  cache::CacheStats delta;
  const cache::AccessResult result = serve(shard, idx, ctx, delta);
  publish(shard.counters, delta);
  return result;
}

void ShardedCache::access_run(std::uint32_t idx,
                              std::span<const cache::AccessContext> run,
                              std::span<cache::AccessResult> out) {
  assert(out.size() >= run.size());
  Shard& shard = *shards_[idx];
  std::lock_guard<std::mutex> lock(shard.mu);
  cache::CacheStats delta;
  for (std::size_t i = 0; i < run.size(); ++i) {
    assert(router_.route(run[i].page) == idx);
    out[i] = serve(shard, idx, run[i], delta);
  }
  publish(shard.counters, delta);
}

cache::CacheStats ShardedCache::merged_stats() const noexcept {
  cache::CacheStats merged;
  for (const auto& shard : shards_) {
    const Counters& c = shard->counters;
    merged.accesses += c.accesses.load(std::memory_order_relaxed);
    merged.hits += c.hits.load(std::memory_order_relaxed);
    merged.read_misses += c.read_misses.load(std::memory_order_relaxed);
    merged.write_misses += c.write_misses.load(std::memory_order_relaxed);
    merged.fills += c.fills.load(std::memory_order_relaxed);
    merged.bypasses += c.bypasses.load(std::memory_order_relaxed);
    merged.evictions += c.evictions.load(std::memory_order_relaxed);
    merged.dirty_evictions += c.dirty_evictions.load(std::memory_order_relaxed);
  }
  return merged;
}

cache::CacheStats ShardedCache::shard_stats(std::uint32_t shard) const {
  const Shard& s = *shards_.at(shard);
  std::lock_guard<std::mutex> lock(s.mu);
  return s.cache->stats();
}

void ShardedCache::with_policy(
    std::uint32_t shard,
    const std::function<void(const cache::ReplacementPolicy&)>& fn) const {
  const Shard& s = *shards_.at(shard);
  std::lock_guard<std::mutex> lock(s.mu);
  fn(s.cache->policy());
}

void ShardedCache::with_shard_mut(
    std::uint32_t shard, const std::function<void(ShardOps&)>& fn) {
  Shard& s = *shards_.at(shard);
  std::lock_guard<std::mutex> lock(s.mu);
  ShardOps ops(s);
  fn(ops);
}

std::uint64_t ShardedCache::ring_pushed() const noexcept {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    if (shard->ring) total += shard->ring->pushed();
  }
  return total;
}

std::uint64_t ShardedCache::ring_popped() const noexcept {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    if (shard->ring) total += shard->ring->popped();
  }
  return total;
}

std::uint64_t ShardedCache::ring_dropped() const noexcept {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    if (shard->ring) total += shard->ring->dropped();
  }
  return total;
}

std::uint64_t ShardedCache::shadow_ring_pushed() const noexcept {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    if (shard->shadow) total += shard->shadow->pushed();
  }
  return total;
}

std::uint64_t ShardedCache::shadow_ring_dropped() const noexcept {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    if (shard->shadow) total += shard->shadow->dropped();
  }
  return total;
}

bool ShardedCache::contains(PageIndex page) const {
  const Shard& s = *shards_[router_.route(page)];
  std::lock_guard<std::mutex> lock(s.mu);
  return s.cache->contains(page);
}

std::uint64_t ShardedCache::valid_blocks() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->cache->valid_blocks();
  }
  return total;
}

void ShardedCache::clear_stats() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->cache->clear_stats();
    Counters& c = shard->counters;
    c.accesses.store(0, std::memory_order_relaxed);
    c.hits.store(0, std::memory_order_relaxed);
    c.read_misses.store(0, std::memory_order_relaxed);
    c.write_misses.store(0, std::memory_order_relaxed);
    c.fills.store(0, std::memory_order_relaxed);
    c.bypasses.store(0, std::memory_order_relaxed);
    c.evictions.store(0, std::memory_order_relaxed);
    c.dirty_evictions.store(0, std::memory_order_relaxed);
  }
}

}  // namespace icgmm::runtime
