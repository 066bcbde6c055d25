// perfbench_probe — the in-process half of the served-cache benchmark.
//
// Every figure here comes from public entry points of the icgmm libraries,
// driven from this file; nothing inside the program is instrumented. The
// request stream is rebuilt exactly as icgmm_loadgen builds it
// (trace::generate + the Algorithm-1 TimestampTransform), and the cache
// geometry, policy, training recipe and threshold are the daemon's, so the
// numbers line up with what the served run sees.
//
//   perfbench_probe replay <stream flags>
//       Single-threaded runtime::replay_trace of the stream: the paper's
//       AMAT (sim::LatencyModel constants) and the reference miss rate the
//       served run is checked against. Deterministic.
//   perfbench_probe layers <stream flags> [--reps R]
//       Layer-peeled timings on the stream: set-up (trace generation, GMM
//       training, threshold), the GMM scorer callbacks, the shard-split
//       SetAssociativeCache, Runtime::apply_batch, and apply_batch scaling
//       from one thread to two.
//   perfbench_probe client <stream flags> --port P --spans FILE
//       Traced client: replays the stream against a running icgmm_serve
//       over protocol v2 (batch 32, pipeline 4), keeps one span per batch
//       keyed by its v2 request id, writes the spans to FILE once at the
//       end, and scrapes STATS and METRICS afterwards.
//
// Stream flags: --benchmark NAME --policy lru|gmm-both --seed S
//   --train-seed S --train-requests N --requests N --flush-at F
//   --cache-mb MB --assoc WAYS --shards N
//
// Each mode prints one JSON object on stdout and exits 0, or prints an
// error on stderr and exits 1.
#include <algorithm>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cache/cache.hpp"
#include "cache/policies/classic.hpp"
#include "cache/policies/gmm_policy.hpp"
#include "core/policy_engine.hpp"
#include "core/threshold.hpp"
#include "gmm/kernel.hpp"
#include "net/client.hpp"
#include "runtime/replay.hpp"
#include "runtime/runtime.hpp"
#include "runtime/shard_router.hpp"
#include "trace/generator.hpp"
#include "trace/timestamp_transform.hpp"

namespace {

using namespace icgmm;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kBatch = 32;    // loadgen --batch
constexpr std::size_t kPipeline = 4;  // loadgen --pipeline

std::int64_t ns_since(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
      .count();
}

struct Args {
  std::string mode;
  std::string benchmark;
  std::string policy = "lru";
  std::uint64_t seed = 1;
  std::uint64_t train_seed = 1;
  std::size_t train_requests = 200000;
  std::size_t requests = 0;
  double flush_at = 0.2;
  std::uint64_t cache_mb = 64;
  std::uint32_t assoc = 8;
  std::uint32_t shards = 4;
  std::uint32_t reps = 3;
  std::uint16_t port = 0;
  std::string spans_path;
};

Args parse(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("usage: perfbench_probe MODE ...");
  Args a;
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value");
      return argv[++i];
    };
    const std::string flag = argv[i];
    if (flag == "--benchmark") a.benchmark = next();
    else if (flag == "--policy") a.policy = next();
    else if (flag == "--seed") a.seed = std::stoull(next());
    else if (flag == "--train-seed") a.train_seed = std::stoull(next());
    else if (flag == "--train-requests") a.train_requests = std::stoull(next());
    else if (flag == "--requests") a.requests = std::stoull(next());
    else if (flag == "--flush-at") a.flush_at = std::stod(next());
    else if (flag == "--cache-mb") a.cache_mb = std::stoull(next());
    else if (flag == "--assoc") a.assoc = static_cast<std::uint32_t>(std::stoul(next()));
    else if (flag == "--shards") a.shards = static_cast<std::uint32_t>(std::stoul(next()));
    else if (flag == "--reps") a.reps = static_cast<std::uint32_t>(std::stoul(next()));
    else if (flag == "--port") a.port = static_cast<std::uint16_t>(std::stoul(next()));
    else if (flag == "--spans") a.spans_path = next();
    else throw std::invalid_argument("unknown flag: " + flag);
  }
  if (a.benchmark.empty() || a.requests == 0) {
    throw std::invalid_argument("--benchmark and --requests are required");
  }
  if (a.policy != "lru" && a.policy != "gmm-both") {
    throw std::invalid_argument("--policy must be lru or gmm-both");
  }
  if (!(a.flush_at > 0.0 && a.flush_at < 1.0)) {
    throw std::invalid_argument("--flush-at must be in (0, 1)");
  }
  if (a.reps == 0) a.reps = 1;
  return a;
}

bool is_gmm(const Args& a) { return a.policy == "gmm-both"; }

/// Index of the warm-up FLUSH, computed as icgmm_loadgen computes it.
std::size_t flush_point(const Args& a, std::size_t n) {
  return static_cast<std::size_t>(a.flush_at * static_cast<double>(n));
}

/// The daemon's total cache geometry.
cache::CacheConfig cache_config(const Args& a) {
  cache::CacheConfig c;
  c.capacity_bytes = a.cache_mb << 20;
  c.associativity = a.assoc;
  return c;
}

/// The trained policy exactly as icgmm_serve builds it at start-up, plus
/// the time each set-up step took.
struct Trained {
  std::optional<core::PolicyEngine> engine;
  double threshold = 0.0;
  double generate_s = 0.0;
  double train_s = 0.0;
  double threshold_s = 0.0;
};

Trained train(const Args& a) {
  Trained t;
  if (!is_gmm(a)) return t;
  auto t0 = Clock::now();
  const trace::Trace history = trace::generate(
      trace::benchmark_from_string(a.benchmark), a.train_requests,
      a.train_seed);
  t.generate_s = static_cast<double>(ns_since(t0)) * 1e-9;
  t0 = Clock::now();
  t.engine.emplace(core::PolicyEngineConfig{});
  t.engine->train(history);
  t.train_s = static_cast<double>(ns_since(t0)) * 1e-9;
  t0 = Clock::now();
  t.threshold = core::threshold_at_percentile(t.engine->training_scores(), 0.05);
  t.threshold_s = static_cast<double>(ns_since(t0)) * 1e-9;
  return t;
}

cache::GmmPolicyConfig gmm_config(const Trained& t) {
  return {.strategy = cache::GmmStrategy::kCachingEviction,
          .threshold = t.threshold,
          .scorer = cache::ScorerBackend::kFloat};
}

std::unique_ptr<runtime::Runtime> make_runtime(const Args& a,
                                               const Trained& t) {
  runtime::RuntimeConfig rcfg;
  rcfg.cache = cache_config(a);
  rcfg.shards = a.shards;
  if (is_gmm(a)) {
    return std::make_unique<runtime::Runtime>(rcfg, t.engine->model(),
                                              gmm_config(t));
  }
  return std::make_unique<runtime::Runtime>(rcfg, cache::LruPolicy());
}

/// The stream icgmm_loadgen sends for the same flags.
std::vector<runtime::Access> build_stream(
    const trace::Trace& t) {
  std::vector<runtime::Access> out;
  out.reserve(t.size());
  trace::TimestampTransform transform;
  for (const trace::Record& r : t) {
    out.push_back({.page = r.page(),
                   .timestamp = transform.next(),
                   .is_write = r.is_write()});
  }
  return out;
}

trace::Trace generate_stream(const Args& a) {
  return trace::generate(trace::benchmark_from_string(a.benchmark),
                         a.requests, a.seed);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Minimal JSON object writer: numbers and nested objects only.
class Json {
 public:
  Json& num(const std::string& key, double v) {
    std::ostringstream s;
    s.precision(17);
    s << v;
    return raw(key, s.str());
  }
  Json& num(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  Json& obj(const std::string& key, const Json& v) { return raw(key, v.str()); }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  Json& raw(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + value;
    return *this;
  }
  std::string body_;
};

// --- replay ---------------------------------------------------------------

int run_replay(const Args& a) {
  const trace::Trace stream = generate_stream(a);
  const Trained t = train(a);
  auto rt = make_runtime(a, t);
  runtime::ReplayConfig cfg;
  cfg.threads = 1;
  cfg.clear_points = {flush_point(a, stream.size())};
  // The served rounds that count run on a warm daemon, which has already
  // served the stream once; so does this replay.
  runtime::replay_trace(*rt, stream, cfg);
  const runtime::ReplayResult r = runtime::replay_trace(*rt, stream, cfg);

  std::unordered_set<PageIndex> pages;
  std::uint64_t writes = 0;
  for (const trace::Record& rec : stream) {
    pages.insert(rec.page());
    writes += rec.is_write() ? 1 : 0;
  }
  const cache::CacheStats& s = r.run.stats;
  std::cout << Json()
                   .num("requests", static_cast<std::uint64_t>(stream.size()))
                   .num("accesses", s.accesses)
                   .num("hits", s.hits)
                   .num("misses", s.misses())
                   .num("miss_rate", s.miss_rate())
                   .num("amat_us", r.run.amat_us())
                   .num("distinct_pages",
                        static_cast<std::uint64_t>(pages.size()))
                   .num("cache_blocks", cache_config(a).blocks())
                   .num("write_share", static_cast<double>(writes) /
                                           static_cast<double>(stream.size()))
                   .str()
            << "\n";
  return 0;
}

// --- layers ---------------------------------------------------------------

/// Mean cost of an empty steady_clock interval: what wrapping one call in
/// two clock reads adds to the measured interval.
double clock_overhead_ns() {
  constexpr int kReads = 200000;
  std::int64_t sum = 0;
  for (int i = 0; i < kReads; ++i) {
    const auto t0 = Clock::now();
    sum += std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                t0)
               .count();
  }
  return static_cast<double>(sum) / kReads;
}

/// One shard's scorer: the ScorerKernel the runtime's InferenceBatcher
/// pins (GaussianMixture::make_kernel), with optional timing of each call.
struct ShardScorer {
  gmm::ScorerKernel kernel;
  bool timed = false;
  std::uint64_t calls = 0;
  std::uint64_t pages = 0;
  std::int64_t ns = 0;
};

/// The runtime's shard split (router + per-shard geometry), with each
/// shard a bare SetAssociativeCache.
struct PeeledCache {
  runtime::ShardRouter router;
  std::vector<std::unique_ptr<ShardScorer>> scorers;
  std::vector<std::unique_ptr<cache::SetAssociativeCache>> shards;

  PeeledCache(const Args& a, const Trained& t, bool timed)
      : router(a.shards) {
    cache::CacheConfig shard_cfg = cache_config(a);
    shard_cfg.capacity_bytes /= a.shards;
    for (std::uint32_t i = 0; i < a.shards; ++i) {
      std::unique_ptr<cache::ReplacementPolicy> policy;
      if (is_gmm(a)) {
        scorers.push_back(std::make_unique<ShardScorer>(
            ShardScorer{.kernel = t.engine->model().make_kernel(),
                        .timed = timed}));
        ShardScorer* s = scorers.back().get();
        auto gmm = std::make_unique<cache::GmmPolicy>(
            [s](PageIndex page, Timestamp ts) {
              ++s->calls;
              ++s->pages;
              if (!s->timed) return s->kernel.score_one(page, ts);
              const auto t0 = Clock::now();
              const double v = s->kernel.score_one(page, ts);
              s->ns += ns_since(t0);
              return v;
            },
            gmm_config(t));
        gmm->set_batch_scorer([s](std::span<const PageIndex> pages,
                                  Timestamp ts, std::span<double> out) {
          ++s->calls;
          s->pages += pages.size();
          if (!s->timed) {
            s->kernel.score_batch(pages, ts, out);
            return;
          }
          const auto t0 = Clock::now();
          s->kernel.score_batch(pages, ts, out);
          s->ns += ns_since(t0);
        });
        policy = std::move(gmm);
      } else {
        policy = std::make_unique<cache::LruPolicy>();
      }
      shards.push_back(std::make_unique<cache::SetAssociativeCache>(
          shard_cfg, std::move(policy)));
    }
  }

  cache::AccessResult access(const runtime::Access& r) {
    return shards[router.route(r.page)]->access(
        {.page = r.page, .timestamp = r.timestamp, .is_write = r.is_write});
  }

  cache::CacheStats merged() const {
    cache::CacheStats m;
    for (const auto& c : shards) {
      const cache::CacheStats& s = c->stats();
      m.accesses += s.accesses;
      m.hits += s.hits;
      m.read_misses += s.read_misses;
      m.write_misses += s.write_misses;
      m.fills += s.fills;
      m.bypasses += s.bypasses;
      m.evictions += s.evictions;
      m.dirty_evictions += s.dirty_evictions;
    }
    return m;
  }

  void clear_stats() {
    for (auto& c : shards) c->clear_stats();
  }
};

/// One pass of the stream through the three single-threaded layers in
/// lockstep: each 32-request batch goes through the untimed peeled cache,
/// the peeled cache with timed scorers, and Runtime::apply_batch in turn,
/// so host interference lands on the layers alike and their difference
/// stays meaningful. Stats clear at the warm-up point, as the served run's
/// FLUSH does.
struct LockstepPass {
  std::int64_t cache_ns = 0;  ///< untimed peeled cache, per-batch sums
  std::int64_t apply_ns = 0;  ///< apply_batch, per-batch sums
  std::uint64_t scored_calls = 0;
  std::uint64_t scored_pages = 0;
  std::int64_t scored_ns = 0;
  cache::CacheStats plain, timed, runtime;  ///< after the warm-up clear
};

LockstepPass run_lockstep_pass(PeeledCache& plain, PeeledCache& timed,
                               runtime::Runtime& rt, const Args& a,
                               const std::vector<runtime::Access>& stream) {
  for (auto& s : timed.scorers) {
    s->calls = 0;
    s->pages = 0;
    s->ns = 0;
  }
  LockstepPass out;
  const std::size_t clear = flush_point(a, stream.size());
  const std::span<const runtime::Access> all(stream);
  runtime::BatchOutcome outcome;
  for (std::size_t i = 0; i < stream.size();) {
    std::size_t end = std::min(i + kBatch, stream.size());
    if (i < clear && end > clear) end = clear;  // exact warm-up boundary
    auto t0 = Clock::now();
    for (std::size_t j = i; j < end; ++j) plain.access(stream[j]);
    out.cache_ns += ns_since(t0);
    for (std::size_t j = i; j < end; ++j) timed.access(stream[j]);
    t0 = Clock::now();
    rt.apply_batch(all.subspan(i, end - i), outcome);
    out.apply_ns += ns_since(t0);
    if (end == clear) {
      plain.clear_stats();
      timed.clear_stats();
      rt.clear_stats();
    }
    i = end;
  }
  out.plain = plain.merged();
  out.timed = timed.merged();
  out.runtime = rt.merged_stats();
  for (const auto& s : timed.scorers) {
    out.scored_calls += s->calls;
    out.scored_pages += s->pages;
    out.scored_ns += s->ns;
  }
  return out;
}

/// `threads` threads share one Runtime, thread k taking every batch whose
/// index is k modulo `threads` — with two, how the daemon's two workers
/// split one connection's pipelined frames. Returns the wall time.
std::int64_t run_threaded_pass(runtime::Runtime& rt,
                               const std::vector<runtime::Access>& stream,
                               std::size_t threads) {
  const std::span<const runtime::Access> all(stream);
  std::barrier sync(static_cast<std::ptrdiff_t>(threads + 1));
  std::vector<std::exception_ptr> failed(threads);
  auto serve = [&](std::size_t k) {
    runtime::BatchOutcome outcome;
    sync.arrive_and_wait();
    try {
      for (std::size_t i = k * kBatch; i < stream.size();
           i += threads * kBatch) {
        rt.apply_batch(all.subspan(i, std::min(kBatch, stream.size() - i)),
                       outcome);
      }
    } catch (...) {
      failed[k] = std::current_exception();
    }
    sync.arrive_and_wait();
  };
  std::vector<std::thread> pool;
  for (std::size_t k = 0; k < threads; ++k) pool.emplace_back(serve, k);
  sync.arrive_and_wait();
  const auto start = Clock::now();
  sync.arrive_and_wait();
  const std::int64_t wall = ns_since(start);
  for (std::thread& t : pool) t.join();
  for (const std::exception_ptr& e : failed) {
    if (e) std::rethrow_exception(e);
  }
  return wall;
}

bool same_counts(const cache::CacheStats& x, const cache::CacheStats& y) {
  return x.accesses == y.accesses && x.hits == y.hits &&
         x.read_misses == y.read_misses && x.write_misses == y.write_misses &&
         x.fills == y.fills && x.bypasses == y.bypasses &&
         x.evictions == y.evictions && x.dirty_evictions == y.dirty_evictions;
}

int run_layers(const Args& a) {
  const Trained t = train(a);
  const trace::Trace raw = generate_stream(a);
  const std::vector<runtime::Access> stream = build_stream(raw);
  const double overhead = clock_overhead_ns();

  // Each instance serves the stream reps + 1 times; the first, cold pass
  // only warms it, like the served run's warm-up round.
  PeeledCache plain_pc(a, t, /*timed=*/false);
  PeeledCache timed_pc(a, t, /*timed=*/true);
  auto rt = make_runtime(a, t);
  // Thread scaling compares two standalone instances, one per thread count.
  auto rt_1t = make_runtime(a, t);
  auto rt_2t = make_runtime(a, t);
  std::vector<double> cache_ns, gmm_ns, apply_ns, wall1, wall2;
  LockstepPass pass;
  for (std::uint32_t rep = 0; rep <= a.reps; ++rep) {
    pass = run_lockstep_pass(plain_pc, timed_pc, *rt, a, stream);
    const std::int64_t one = run_threaded_pass(*rt_1t, stream, 1);
    const std::int64_t two = run_threaded_pass(*rt_2t, stream, 2);
    if (rep == 0) continue;
    cache_ns.push_back(static_cast<double>(pass.cache_ns));
    gmm_ns.push_back(static_cast<double>(pass.scored_ns) -
                     overhead * static_cast<double>(pass.scored_calls));
    apply_ns.push_back(static_cast<double>(pass.apply_ns));
    wall1.push_back(static_cast<double>(one));
    wall2.push_back(static_cast<double>(two));
  }
  // The peeled cache must make exactly the runtime's decisions, or the
  // subtractions made from these figures compare different work.
  if (!same_counts(pass.plain, pass.runtime) ||
      !same_counts(pass.timed, pass.runtime)) {
    std::cerr << "error: peeled cache and runtime disagree on the stream\n";
    return 1;
  }
  const cache::CacheStats& w = pass.runtime;
  std::cout
      << Json()
             .num("requests", static_cast<std::uint64_t>(stream.size()))
             .num("reps", static_cast<std::uint64_t>(a.reps))
             .num("clock_overhead_ns", overhead)
             .num("trace.generate_s", t.generate_s)
             .num("core.train_s", t.train_s)
             .num("core.threshold_s", t.threshold_s)
             .num("gmm.scored_pages", pass.scored_pages)
             .num("gmm.scorer_calls", pass.scored_calls)
             .num("gmm.ns", median(gmm_ns))
             .num("cache.ns", median(cache_ns))
             .num("runtime.apply_ns", median(apply_ns))
             .num("runtime.wall_1t_ns", median(wall1))
             .num("runtime.wall_2t_ns", median(wall2))
             .num("cache.window_accesses", w.accesses)
             .num("cache.window_misses", w.misses())
             .num("cache.window_bypasses", w.bypasses)
             .num("cache.window_dirty_evictions", w.dirty_evictions)
             .str()
      << "\n";
  return 0;
}

// --- client ---------------------------------------------------------------

struct Span {
  std::uint64_t id = 0;
  std::int64_t start_ns = 0;  ///< before send_access, from the run start
  std::int64_t sent_ns = 0;   ///< after send_access returned
  std::int64_t end_ns = 0;    ///< reply taken off the connection
  std::uint32_t count = 0;
  std::uint32_t hits = 0;
};

/// One closed-loop pass of the stream over `client` (batch 32, pipeline
/// 4, FLUSH at the warm-up point after draining, as icgmm_loadgen does).
/// Appends one span per batch to `spans`; returns the requests completed.
std::uint64_t serve_pass(net::Client& client,
                         std::span<const net::WireAccess> all,
                         std::size_t clear, std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> open;
  bool flushed = false;
  std::size_t next = 0;
  std::uint64_t completed = 0;
  const auto t0 = Clock::now();
  while (true) {
    const std::size_t limit = flushed ? all.size() : clear;
    while (open.size() < kPipeline && next < limit) {
      const std::size_t count = std::min(kBatch, limit - next);
      Span s;
      s.start_ns = ns_since(t0);
      s.id = client.send_access(all.subspan(next, count));
      s.sent_ns = ns_since(t0);
      s.count = static_cast<std::uint32_t>(count);
      open.emplace(s.id, spans.size());
      spans.push_back(s);
      next += count;
    }
    if (open.empty()) {
      if (next == clear && !flushed) {
        client.flush();
        flushed = true;
        continue;
      }
      return completed;
    }
    const net::Completion c = client.poll_any();
    const std::int64_t now = ns_since(t0);
    const auto it = open.find(c.id);
    if (c.type != net::MsgType::kAccessReply || it == open.end()) {
      throw std::runtime_error("unexpected completion");
    }
    Span& s = spans[it->second];
    if (c.access.count != s.count) {
      throw std::runtime_error("reply count does not match its batch");
    }
    s.end_ns = now;
    s.hits = c.access.hits;
    completed += c.access.count;
    open.erase(it);
  }
}

std::unordered_map<std::string, std::uint64_t> scrape(net::Client& client) {
  std::unordered_map<std::string, std::uint64_t> out;
  for (const net::MetricsEntry& e : client.metrics().entries) {
    out[e.name] = e.value;
  }
  return out;
}

int run_client(const Args& a) {
  if (a.port == 0 || a.spans_path.empty()) {
    throw std::invalid_argument("client needs --port and --spans");
  }
  const trace::Trace raw = generate_stream(a);
  const std::vector<runtime::Access> stream = build_stream(raw);
  std::vector<net::WireAccess> wire;
  wire.reserve(stream.size());
  for (const runtime::Access& r : stream) {
    wire.push_back(
        {.page = r.page, .timestamp = r.timestamp, .is_write = r.is_write});
  }
  const std::size_t clear = flush_point(a, wire.size());

  net::Client client = net::Client::connect("127.0.0.1", a.port);
  if (client.negotiate() != net::kProtocolV2) {
    throw std::runtime_error("server does not speak protocol v2");
  }
  // A cold pass warms the daemon; the traced pass repeats the stream and
  // its server figures are the METRICS difference across it.
  std::vector<Span> spans;
  spans.reserve(2 * (wire.size() / kBatch + 2));
  serve_pass(client, wire, clear, spans);
  const auto before = scrape(client);
  spans.clear();
  const std::uint64_t completed = serve_pass(client, wire, clear, spans);
  const auto after = scrape(client);
  const net::StatsReply stats = client.stats();

  // Spans stay in memory during the run and are written once here.
  std::ofstream out(a.spans_path);
  out << "id,start_ns,sent_ns,end_ns,count,hits\n";
  std::int64_t span_sum = 0, send_sum = 0;
  for (const Span& s : spans) {
    out << s.id << "," << s.start_ns << "," << s.sent_ns << "," << s.end_ns
        << "," << s.count << "," << s.hits << "\n";
    span_sum += s.end_ns - s.start_ns;
    send_sum += s.sent_ns - s.start_ns;
  }
  out.close();
  if (!out) throw std::runtime_error("cannot write " + a.spans_path);

  // Counters and histogram sums only: quantiles and gauges have no
  // meaningful difference.
  Json server;
  for (const auto& [name, value] : after) {
    const bool counter =
        name.ends_with("_sum") || name.ends_with("_count") ||
        name.starts_with("icgmm_server_requests") ||
        name.starts_with("icgmm_server_writev") ||
        name.starts_with("icgmm_server_protocol") ||
        name.starts_with("icgmm_server_error");
    const auto it = before.find(name);
    if (counter && it != before.end()) server.num(name, value - it->second);
  }
  std::cout << Json()
                   .num("requests", static_cast<std::uint64_t>(wire.size()))
                   .num("completed", completed)
                   .num("batches", static_cast<std::uint64_t>(spans.size()))
                   .num("span_ns", static_cast<std::uint64_t>(span_sum))
                   .num("send_ns", static_cast<std::uint64_t>(send_sum))
                   .num("stats_accesses", stats.accesses)
                   .num("stats_hits", stats.hits)
                   .num("stats_misses", stats.read_misses + stats.write_misses)
                   .obj("metrics", server)
                   .str()
            << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse(argc, argv);
    if (a.mode == "replay") return run_replay(a);
    if (a.mode == "layers") return run_layers(a);
    if (a.mode == "client") return run_client(a);
    throw std::invalid_argument("unknown mode: " + a.mode);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
