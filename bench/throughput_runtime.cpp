// Serving-runtime throughput: aggregate requests/sec as a function of
// serving threads x cache shards, on a Zipf workload, for a classic
// policy (LRU — lock-bound) and the GMM policy (miss-path inference —
// compute-plus-lock-bound).
//
// On multicore hardware this is the scaling artifact for the runtime: at
// >= 4 shards, throughput should rise monotonically from 1 to 4 threads.
// On a single-core host (CI containers) the sweep still runs and reports
// honest numbers, but parallel speedup is not observable — the JSON
// records hardware_concurrency so baselines are interpretable.
//
// --zipf-s runs an additional skew sweep (LRU, 4 shards, 1 and 4
// threads): as skew rises more of the stream lands on the head page's
// owning shard, so this is where lock contention between serving threads
// would show. The cells share the main sweep's JSON schema, tagged by
// their zipf_s.
//
// Usage: throughput_runtime [-n REQUESTS] [--quick] [--json FILE]
//                           [--zipf-s S1,S2,...] [--help]
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "cache/policies/classic.hpp"
#include "common/run_env.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"
#include "core/policy_engine.hpp"
#include "core/threshold.hpp"
#include "runtime/replay.hpp"
#include "trace/zipf.hpp"

namespace {

using namespace icgmm;

/// Zipf-popularity trace over 4x the cache's block count (the usual
/// "working set larger than cache" serving regime), 10% writes. Skew `s`
/// controls how much of the stream one head page absorbs.
trace::Trace make_workload(std::size_t n, const cache::CacheConfig& cache,
                           double s = 0.99) {
  const std::uint64_t pages = cache.blocks() * 4;
  trace::Zipf zipf(pages, s);
  Rng rng(0xbe7c4);
  trace::Trace t("zipf-serving");
  t.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    t.push_back({.addr = addr_of(zipf.sample(rng)),
                 .time = i,
                 .type = rng.chance(0.10) ? AccessType::kWrite
                                          : AccessType::kRead});
  }
  return t;
}

struct Cell {
  std::string policy;
  std::uint32_t shards = 0;
  std::uint32_t threads = 0;
  double zipf_s = 0.99;
  bool async_miss = false;
  /// Fraction of enqueued deferred rescores the bounded ring dropped
  /// (async cells only) — the honesty metric for the async speedup: a
  /// starved decision thread drops work instead of blocking serving.
  double deferred_drop_rate = 0.0;
  double mreq_per_s = 0.0;
  double miss_rate = 0.0;
};

/// "0.8,1.1,1.4" -> {0.8, 1.1, 1.4}; throws on any malformed token so a
/// typo cannot silently truncate the sweep in a captured baseline.
std::vector<double> parse_double_list(const char* arg) {
  std::vector<double> out;
  for (const std::string_view tok : split(arg, ',')) {
    out.push_back(parse_double(trim(tok)));
  }
  return out;
}

}  // namespace

constexpr const char* kUsage =
    "usage: throughput_runtime [-n REQUESTS] [--quick] [--json FILE]\n"
    "                          [--zipf-s S1,S2,...] [--help]\n";

int main(int argc, char** argv) {
  bench::Options opt;
  std::string json_path;
  std::vector<double> zipf_sweep;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      opt.quick = true;
      opt.requests = 300000;
    } else if (std::strcmp(argv[i], "-n") == 0 && i + 1 < argc) {
      opt.requests = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--zipf-s") == 0 && i + 1 < argc) {
      try {
        zipf_sweep = parse_double_list(argv[++i]);
      } catch (const std::exception& e) {
        std::cerr << "error: bad --zipf-s list '" << argv[i] << "': "
                  << e.what() << "\n";
        return 1;
      }
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      bench::exit_usage(kUsage);
    } else {
      bench::exit_usage(kUsage, argv[i]);
    }
  }

  cache::CacheConfig cache_cfg;  // paper geometry: 64 MB / 4 KB / 8-way
  const trace::Trace workload = make_workload(opt.requests, cache_cfg);

  // A small GMM is enough for a throughput (not accuracy) measurement.
  core::PolicyEngineConfig pe_cfg;
  pe_cfg.em.components = 32;
  pe_cfg.train_subsample = 8000;
  core::PolicyEngine engine(pe_cfg);
  engine.train(workload);
  const double threshold =
      core::threshold_at_percentile(engine.training_scores(), 0.05);

  const std::uint32_t shard_sweep[] = {1, 4, 8};
  const std::uint32_t thread_sweep[] = {1, 2, 4};
  std::vector<Cell> cells;

  // The GMM policy runs twice: synchronous (inference inline on every
  // miss, under the shard lock) and through the asynchronous miss
  // pipeline (provisional admission, rescore on the decision thread).
  // The delta between the two GMM rows at equal geometry is the serving
  // cost of inline inference; the async rows also report how much
  // deferred work the bounded ring dropped.
  struct Variant {
    const char* name;
    bool gmm;
    bool async;
  };
  constexpr Variant kVariants[] = {{"LRU", false, false},
                                   {"GMM-caching-eviction", true, false},
                                   {"GMM-async-miss", true, true}};

  runtime::ReplayConfig serve;
  serve.warmup_fraction = 0.0;  // throughput: measure the whole run
  for (const Variant& v : kVariants) {
    for (const std::uint32_t shards : shard_sweep) {
      for (const std::uint32_t threads : thread_sweep) {
        runtime::RuntimeConfig rcfg;
        rcfg.cache = cache_cfg;
        rcfg.shards = shards;
        rcfg.async_miss.enabled = v.async;
        std::unique_ptr<runtime::Runtime> rt;
        if (!v.gmm) {
          rt = std::make_unique<runtime::Runtime>(rcfg, cache::LruPolicy());
          serve.policy_runs_on_miss = false;
        } else {
          rt = std::make_unique<runtime::Runtime>(
              rcfg, engine.model(),
              cache::GmmPolicyConfig{
                  .strategy = cache::GmmStrategy::kCachingEviction,
                  .threshold = threshold});
          // In async mode inference leaves the serving path entirely.
          serve.policy_runs_on_miss = !v.async;
        }
        serve.threads = threads;
        const runtime::ReplayResult r =
            runtime::replay_trace(*rt, workload, serve);
        double drop_rate = 0.0;
        if (v.async) {
          const runtime::RuntimeSnapshot snap = rt->snapshot();
          drop_rate = snap.deferred_enqueued == 0
                          ? 0.0
                          : static_cast<double>(snap.deferred_dropped) /
                                static_cast<double>(snap.deferred_enqueued +
                                                    snap.deferred_dropped);
        }
        cells.push_back({.policy = v.name,
                         .shards = shards,
                         .threads = threads,
                         .async_miss = v.async,
                         .deferred_drop_rate = drop_rate,
                         .mreq_per_s = r.requests_per_second / 1e6,
                         .miss_rate = r.run.stats.miss_rate()});
      }
    }
  }

  // --zipf-s: skew sweep. LRU isolates the shard-mutex serialization (no
  // inference on the miss path); 4 shards so the head page's owning shard
  // is one of several.
  for (const double s : zipf_sweep) {
    const trace::Trace hot = make_workload(opt.requests, cache_cfg, s);
    for (const std::uint32_t threads : {1u, 4u}) {
      runtime::RuntimeConfig rcfg;
      rcfg.cache = cache_cfg;
      rcfg.shards = 4;
      runtime::Runtime rt(rcfg, cache::LruPolicy());
      serve.policy_runs_on_miss = false;
      serve.threads = threads;
      const runtime::ReplayResult r = runtime::replay_trace(rt, hot, serve);
      cells.push_back({.policy = "LRU",
                       .shards = 4,
                       .threads = threads,
                       .zipf_s = s,
                       .mreq_per_s = r.requests_per_second / 1e6,
                       .miss_rate = r.run.stats.miss_rate()});
    }
  }

  std::cout << "serving throughput, " << workload.size() << " requests, "
            << workload.unique_pages() << " pages, hardware threads: "
            << std::thread::hardware_concurrency() << "\n\n";
  Table table({"policy", "zipf s", "shards", "threads", "async", "M req/s",
               "miss rate", "drop rate"});
  for (const Cell& c : cells) {
    table.add_row({c.policy, Table::fmt(c.zipf_s, 2), std::to_string(c.shards),
                   std::to_string(c.threads), c.async_miss ? "on" : "off",
                   Table::fmt(c.mreq_per_s, 2), Table::fmt_percent(c.miss_rate),
                   Table::fmt_percent(c.deferred_drop_rate)});
  }
  std::cout << table.render();

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  " << run_env_json_fields() << ",\n"
        << "  \"bench\": \"runtime_throughput\",\n"
        << "  \"requests\": " << workload.size() << ",\n"
        << "  \"unique_pages\": " << workload.unique_pages()
        << ",\n  \"cells\": [\n";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      out << "    {\"policy\": \"" << c.policy << "\", \"shards\": "
          << c.shards << ", \"threads\": " << c.threads
          << ", \"zipf_s\": " << c.zipf_s << ", \"async_miss\": "
          << (c.async_miss ? "true" : "false")
          << ", \"deferred_drop_rate\": " << c.deferred_drop_rate
          << ", \"mreq_per_s\": " << c.mreq_per_s << ", \"miss_rate\": "
          << c.miss_rate << "}" << (i + 1 < cells.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "\nwrote " << json_path << "\n";
  }
  return 0;
}
