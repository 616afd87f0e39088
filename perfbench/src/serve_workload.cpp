// Serving workload: a terabyte-like DLRM served by a fleet of
// InferenceEngine replicas, one per worker thread, each from its own
// sharded store (hybrid-compressed pages behind a small hot-row cache).
// Two kinds of segment over pre-generated inputs, alternated for
// kServeRounds rounds:
//   closed loop  every worker runs planned batches back to back
//                (capacity, queries/s);
//   open loop    batches are released at the plan's dispatch times for a
//                Poisson stream at a fixed offered rate; each query is
//                timed from its due arrival, so backlog shows.
// The end-to-end figures are fast quartiles over the rounds.

#include <atomic>
#include <cmath>
#include <exception>
#include <filesystem>
#include <memory>
#include <sstream>
#include <thread>

#include "common.hpp"
#include "data/synthetic.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/batch_scheduler.hpp"
#include "serve/inference_engine.hpp"
#include "serve/load_generator.hpp"
#include "serve/router.hpp"
#include "serve/shard_store.hpp"

namespace perfbench {

using namespace dlcomp;

namespace {

/// One planned batch with its inputs generated ahead of timing.
struct PlannedBatch {
  InferenceBatch plan;
  SampleBatch samples;
};

std::vector<PlannedBatch> make_inputs(const Options& o, const SyntheticClickDataset& data,
                                      double qps, std::size_t queries, std::uint64_t tag,
                                      std::uint64_t index_base) {
  LoadGenConfig lg;
  lg.pattern = ArrivalPattern::kPoisson;
  lg.qps = qps;
  lg.num_queries = std::max<std::size_t>(1, queries);
  lg.mean_query_size = kMeanQuerySamples;
  // Clamping the geometric sizes at 2x the mean puts ~13% of queries at
  // exactly the cap, so the open loop's tail reads the latency of capped
  // queries instead of the dozen largest sizes a seed happens to draw.
  lg.max_query_size = 2 * kMeanQuerySamples;
  lg.seed = o.seed * 0x9E3779B97F4A7C15ULL + tag;
  BatchSchedulerConfig bc;
  bc.max_batch_samples = 256;
  bc.max_delay_s = 0.002;
  const SchedulePlan plan = BatchScheduler(bc).plan(LoadGenerator(lg).generate());
  std::vector<PlannedBatch> out;
  out.reserve(plan.batches.size());
  for (std::size_t b = 0; b < plan.batches.size(); ++b) {
    PlannedBatch pb;
    pb.plan = plan.batches[b];
    pb.samples = data.make_batch(pb.plan.total_samples(), index_base + b);
    out.push_back(std::move(pb));
  }
  return out;
}

/// Per-worker state: its store, its engine replica routing into it, and
/// in traced runs a private router behind a LookupProvider that records
/// a span per gather. Every replica owns its store, as replicas on
/// separate hosts would. One store shared by the 4 workers serialises
/// them on its shard mutexes, which are held across page decompression:
/// a vCPU the host preempts while holding one stalls the other workers,
/// and on a shared 4-vCPU VM that moved serving figures by 20-50% from
/// run to run.
struct Worker {
  std::unique_ptr<ShardedEmbeddingStore> store;  // engine and router point into it
  std::unique_ptr<InferenceEngine> engine;
  std::unique_ptr<ShardRouter> router;
  SpanLog log;
  bool tracing = false;
  int id = 0;
  std::uint32_t batch_id = 0;

  SpanLog* active_log() { return tracing ? &log : nullptr; }
};

struct Fleet {
  std::vector<std::unique_ptr<Worker>> workers;
};

/// Store counters summed over the fleet (the worst reconstruction error
/// of any store).
ShardStoreStats fleet_stats(const Fleet& fleet) {
  ShardStoreStats total;
  for (const auto& w : fleet.workers) {
    const ShardStoreStats s = w->store->stats();
    total.hits += s.hits;
    total.misses += s.misses;
    total.pages_loaded += s.pages_loaded;
    total.max_abs_error = std::max(total.max_abs_error, s.max_abs_error);
  }
  return total;
}

bool valid_scores(const std::vector<float>& p, std::size_t expected) {
  if (p.size() != expected) return false;
  return std::all_of(p.begin(), p.end(), [](float v) {
    return std::isfinite(v) && v >= 0.0f && v <= 1.0f;
  });
}

double bce(const std::vector<float>& p, const std::vector<float>& labels) {
  double total = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    const double q = std::clamp(static_cast<double>(p[i]), 1e-7, 1.0 - 1e-7);
    total -= labels[i] > 0.5f ? std::log(q) : std::log(1.0 - q);
  }
  return total;
}

/// Runs one batch on `w`, with a serve span around InferenceEngine::run
/// when tracing. Returns false (scores unusable) on error or bad scores.
bool serve_batch(Worker& w, const PlannedBatch& b, std::vector<float>& scores) {
  try {
    ScopedSpan sp(w.active_log(), Layer::kServeRun, w.id, w.batch_id);
    scores = w.engine->run(b.samples);
  } catch (const std::exception&) {
    return false;
  }
  ++w.batch_id;
  return valid_scores(scores, b.samples.batch_size());
}

struct ClosedLoop {
  double qps = 0.0;              ///< completed / (busy time / workers)
  double mean_service_s = 0.0;
  double busy_s = 0.0;
  std::uint64_t attempted = 0;  ///< queries
  std::uint64_t failed = 0;
};

/// Every worker runs batches [begin, end) of `inputs` back to back, each
/// batch once: a fixed amount of work, so every run of a seed measures
/// the same batches. Capacity is completed queries per second of worker
/// busy time, times the workers: the segment's wall time less the idle
/// tail while the last batches finish, which differs with the batch mix.
ClosedLoop closed_loop(Fleet& fleet, const std::vector<PlannedBatch>& inputs,
                       std::size_t begin, std::size_t end, bool tracing) {
  std::atomic<std::size_t> next{begin};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::int64_t> busy_ns{0};
  std::vector<std::thread> threads;
  for (auto& wp : fleet.workers) {
    Worker& w = *wp;
    w.tracing = tracing;
    threads.emplace_back([&, &w = w] {
      std::vector<float> scores;
      for (std::size_t i = next.fetch_add(1); i < end; i = next.fetch_add(1)) {
        const PlannedBatch& b = inputs[i];
        const auto s0 = Clock::now();
        const bool ok = serve_batch(w, b, scores);
        busy_ns.fetch_add(
            std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - s0).count());
        (ok ? completed : failed).fetch_add(b.plan.queries.size());
      }
    });
  }
  for (auto& t : threads) t.join();
  ClosedLoop out;
  out.busy_s = static_cast<double>(busy_ns.load()) * 1e-9;
  out.qps = out.busy_s > 0.0 ? static_cast<double>(completed.load()) *
                                   static_cast<double>(fleet.workers.size()) / out.busy_s
                             : 0.0;
  out.mean_service_s =
      end > begin ? out.busy_s / static_cast<double>(end - begin) : 0.0;
  out.attempted = completed.load() + failed.load();
  out.failed = failed.load();
  return out;
}

struct OpenLoop {
  std::vector<double> latency_s;   ///< answered queries, from due arrival
  std::vector<double> wait_s;      ///< due arrival -> service start
  std::vector<double> late_s;      ///< dispatch lateness of idle workers
  std::uint64_t offered = 0;
  std::uint64_t failed = 0;
  std::uint64_t within_slo = 0;
  double busy_s = 0.0;
  double wall_s = 0.0;
  std::vector<char> answered;      ///< per batch
  double logloss_sum = 0.0;        ///< over answered samples
  std::uint64_t scored_samples = 0;
  std::uint64_t samples = 0;
  std::uint64_t batches = 0;
};

/// Releases batches at their planned dispatch times; workers take them
/// in order. A worker that is idle waits until the batch is due (its
/// wake-up lateness is the generator's); a busy fleet leaves the batch
/// waiting, which the latency from due arrival includes.
OpenLoop open_loop(Fleet& fleet, const std::vector<PlannedBatch>& inputs,
                   double slo_s, bool tracing) {
  const std::size_t n = inputs.size();
  std::vector<double> batch_start(n, 0.0);
  std::vector<double> batch_end(n, 0.0);
  std::vector<char> batch_ok(n, 0);
  std::vector<double> batch_logloss(n, 0.0);
  std::vector<std::vector<double>> late(fleet.workers.size());
  std::vector<double> busy(fleet.workers.size(), 0.0);
  std::atomic<std::size_t> next{0};
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t wi = 0; wi < fleet.workers.size(); ++wi) {
    Worker& w = *fleet.workers[wi];
    w.tracing = tracing;
    threads.emplace_back([&, wi, &w = w] {
      std::vector<float> scores;
      for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        const PlannedBatch& b = inputs[i];
        const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(b.plan.dispatch_s));
        if (Clock::now() < due) {
          std::this_thread::sleep_until(due);
          late[wi].push_back(seconds_between(due, Clock::now()));
        }
        const auto s0 = Clock::now();
        batch_ok[i] = serve_batch(w, b, scores) ? 1 : 0;
        const auto s1 = Clock::now();
        batch_start[i] = seconds_between(t0, s0);
        batch_end[i] = seconds_between(t0, s1);
        busy[wi] += seconds_between(s0, s1);
        if (batch_ok[i] != 0) batch_logloss[i] = bce(scores, b.samples.labels);
      }
    });
  }
  for (auto& t : threads) t.join();
  OpenLoop out;
  out.wall_s = seconds_between(t0, Clock::now());
  for (std::size_t i = 0; i < n; ++i) {
    const PlannedBatch& b = inputs[i];
    out.batches += 1;
    out.samples += b.plan.total_samples();
    for (const Query& q : b.plan.queries) {
      ++out.offered;
      if (batch_ok[i] == 0) {
        ++out.failed;
        continue;
      }
      const double latency = batch_end[i] - q.arrival_s;
      out.latency_s.push_back(latency);
      out.wait_s.push_back(batch_start[i] - q.arrival_s);
      if (latency <= slo_s) ++out.within_slo;
    }
    if (batch_ok[i] != 0) {
      out.logloss_sum += batch_logloss[i];
      out.scored_samples += b.samples.batch_size();
    }
  }
  out.answered = std::move(batch_ok);
  for (const auto& l : late) out.late_s.insert(out.late_s.end(), l.begin(), l.end());
  for (const double b : busy) out.busy_s += b;
  return out;
}

/// Builds the fleet: engine replicas (weights deterministic in the seed),
/// each with a store compressed from its own tables. `store_build_s`
/// gets the median store constructor time.
Fleet build_fleet(const Options& o, const DatasetSpec& spec, bool traced,
                  double& store_build_s) {
  ShardStoreConfig sc;
  sc.num_shards = kShards;
  sc.rows_per_page = kRowsPerPage;
  sc.cache_budget_bytes = kCacheBytes;
  sc.codec = "hybrid";
  sc.error_bound = kPageErrorBound;
  ThreadPool pool(static_cast<unsigned>(kWorkers));
  std::vector<double> build_s;
  Fleet fleet;
  for (std::size_t r = 0; r < kWorkers; ++r) {
    auto w = std::make_unique<Worker>();
    w->id = static_cast<int>(r);
    w->engine = std::make_unique<InferenceEngine>(spec, DlrmConfig{}, EngineConfig{}, o.seed);
    const auto t0 = Clock::now();
    w->store = std::make_unique<ShardedEmbeddingStore>(spec, w->engine->model().tables(), sc,
                                                       &pool);
    build_s.push_back(seconds_between(t0, Clock::now()));
    fleet.workers.push_back(std::move(w));
  }
  store_build_s = median(build_s);
  for (auto& wp : fleet.workers) {
    Worker& w = *wp;
    if (!traced) {
      w.engine->use_store(w.store.get());
      continue;
    }
    w.router = std::make_unique<ShardRouter>(*w.store);
    w.engine->model().set_lookup_provider(
        [&w](std::size_t table, std::span<const std::uint32_t> indices, Matrix& out) {
          ScopedSpan sp(w.active_log(), Layer::kGather, w.id, w.batch_id);
          w.router->gather(table, indices, out);
        });
  }
  return fleet;
}

}  // namespace

Result run_serve_workload(const Options& o) {
  Result res;
  const DatasetSpec spec = DatasetSpec::criteo_terabyte_like(o.cardinality_cap);

  // Set-up, repeated: engine replicas plus store page compression.
  std::vector<double> setup_s;
  std::vector<double> build_s;
  Fleet fleet;
  for (std::size_t r = 0; r < std::max<std::size_t>(1, o.setup_repeats); ++r) {
    fleet = Fleet{};
    release_free_memory();
    const auto t0 = Clock::now();
    double b = 0.0;
    fleet = build_fleet(o, spec, o.trace, b);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    build_s.push_back(b);
  }

  // Inputs, generated before timing: a saturating stream for the closed
  // loop (full batches), split into a warm-up and one slice per round,
  // and one fixed-rate stream per round for the open loop.
  const SyntheticClickDataset data(spec, o.seed);
  // The closed loop's fixed work is sized to take about kClosedShare of
  // --seconds at kClosedQpsEstimate (and at least a few batches a round
  // in short runs); its first tenth warms the cache.
  const double closed_s = o.seconds * kClosedShare;
  const double open_round_s = (o.seconds - closed_s) / static_cast<double>(kServeRounds);
  const auto closed_inputs = make_inputs(
      o, data, 1e6,
      std::max(static_cast<std::size_t>(kClosedQpsEstimate * closed_s),
               kServeRounds * 4 * kMeanQuerySamples),
      0xC1, 0);
  std::vector<std::vector<PlannedBatch>> open_inputs;
  for (std::size_t r = 0; r < kServeRounds; ++r) {
    open_inputs.push_back(make_inputs(o, data, kOpenQps,
                                      static_cast<std::size_t>(kOpenQps * open_round_s),
                                      0x0E + r, (r + 1) << 20));
  }
  const std::size_t n_closed = closed_inputs.size();
  const std::size_t warm = n_closed / 10;
  const ClosedLoop warmup = closed_loop(fleet, closed_inputs, 0, warm, false);
  res.attempted += warmup.attempted;
  res.failed += warmup.failed;

  // Traced runs trace the closed segments in the order T U U T T U U T, so
  // cache warm-up biases neither side of the tracing-overhead
  // comparison; their open segments are all traced.
  const std::size_t slice = (n_closed - warm) / kServeRounds;
  std::vector<double> capacity;
  std::vector<double> p50;
  std::vector<double> p95;
  std::vector<OpenLoop> opens;
  double traced_closed_busy = 0.0;
  double service[2] = {0.0, 0.0};  // summed mean service: untraced, traced
  for (std::size_t r = 0; r < kServeRounds; ++r) {
    const bool trace_closed = o.trace && (r % 4 == 0 || r % 4 == 3);
    const std::size_t at = warm + r * slice;
    const ClosedLoop c = closed_loop(fleet, closed_inputs, at, at + slice, trace_closed);
    res.attempted += c.attempted;
    res.failed += c.failed;
    capacity.push_back(c.qps);
    service[trace_closed ? 1 : 0] += c.mean_service_s;
    if (trace_closed) traced_closed_busy += c.busy_s;

    opens.push_back(open_loop(fleet, open_inputs[r], kSloMs * 1e-3, o.trace));
    const OpenLoop& op = opens.back();
    res.attempted += op.offered;
    res.failed += op.failed;
    p50.push_back(percentile(op.latency_s, 0.5));
    p95.push_back(percentile(op.latency_s, 0.95));
  }
  const double overhead_pct =
      service[0] > 0.0 ? (service[1] / service[0] - 1.0) * 100.0 : 0.0;
  // Pooled over the rounds' open segments.
  OpenLoop open;
  for (OpenLoop& op : opens) {
    open.latency_s.insert(open.latency_s.end(), op.latency_s.begin(), op.latency_s.end());
    open.wait_s.insert(open.wait_s.end(), op.wait_s.begin(), op.wait_s.end());
    open.late_s.insert(open.late_s.end(), op.late_s.begin(), op.late_s.end());
    open.offered += op.offered;
    open.failed += op.failed;
    open.within_slo += op.within_slo;
    open.busy_s += op.busy_s;
    open.wall_s += op.wall_s;
    open.logloss_sum += op.logloss_sum;
    open.scored_samples += op.scored_samples;
    open.samples += op.samples;
    open.batches += op.batches;
  }

  const ShardStoreStats stats = fleet_stats(fleet);
  res.check("queries_answered", res.failed == 0,
            std::to_string(res.failed) + " of " + std::to_string(res.attempted) +
                " queries failed or scored outside [0, 1]");
  // Same float slack as the codec tests (eb * (1 + 1e-6)).
  std::ostringstream eb_detail;
  eb_detail.precision(9);
  eb_detail << "max_abs_error " << stats.max_abs_error << ", eb " << kPageErrorBound;
  res.check("store_error_bound", stats.max_abs_error <= kPageErrorBound * (1.0 + 1e-6),
            eb_detail.str());
  res.check("open_loop_samples", !open.latency_s.empty(),
            std::to_string(open.latency_s.size()) + " answered open-loop queries");

  const double offered = static_cast<double>(std::max<std::uint64_t>(1, open.offered));
  res.set("throughput_per_s", fast_quartile(capacity, true), "1/s");
  res.set("latency_p50_ms", fast_quartile(p50, false) * 1e3, "ms");
  res.set("latency_tail_ms", fast_quartile(p95, false) * 1e3, "ms");
  // Accuracy guard: log-loss of the served scores relative to exact
  // serving of the same answered batches by the same model (replica 0
  // back on its own uncompressed tables), after timing.
  InferenceEngine& exact = *fleet.workers.front()->engine;
  exact.use_store(nullptr);
  double exact_sum = 0.0;
  for (std::size_t r = 0; r < kServeRounds; ++r) {
    for (std::size_t i = 0; i < open_inputs[r].size(); ++i) {
      const PlannedBatch& b = open_inputs[r][i];
      if (opens[r].answered[i] != 0) exact_sum += bce(exact.run(b.samples), b.samples.labels);
    }
  }
  const double scored = static_cast<double>(std::max<std::uint64_t>(1, open.scored_samples));
  res.set("logloss_ratio", exact_sum > 0.0 ? open.logloss_sum / exact_sum : 0.0, "ratio");
  res.set("serve_logloss", open.logloss_sum / scored, "nats");
  res.set("exact_logloss", exact_sum / scored, "nats");
  res.set("setup_s", median(setup_s), "s");
  res.set("serve.slo_attain", static_cast<double>(open.within_slo) / offered, "fraction");
  res.set("latency_samples", static_cast<double>(open.latency_s.size()), "count");
  res.set("rounds", static_cast<double>(kServeRounds), "count");
  res.set("tail_percentile", 95.0, "%");
  res.set("offered_qps", kOpenQps, "1/s");

  if (!o.trace) return res;

  // Per-layer: spans from the traced closed-loop half and the open loop.
  double run_s = 0.0;
  double gather_s = 0.0;
  std::uint64_t runs = 0;
  std::vector<const SpanLog*> logs;
  for (const auto& wp : fleet.workers) {
    logs.push_back(&wp->log);
    for (const Span& sp : wp->log.spans()) {
      if (sp.layer == Layer::kServeRun) {
        run_s += sp.seconds();
        ++runs;
      } else if (sp.layer == Layer::kGather) {
        gather_s += sp.seconds();
      }
    }
  }
  write_spans((std::filesystem::path(o.scratch) / ("spans-" + o.workload + ".csv")).string(),
              logs);
  const double nb = static_cast<double>(std::max<std::uint64_t>(1, runs));
  const std::uint64_t served_queries = res.attempted;
  res.set("dlrm.forward_ms_per_batch", (run_s - gather_s) / nb * 1e3, "ms");
  res.set("serve.gather_ms_per_batch", gather_s / nb * 1e3, "ms");
  res.set("serve.queue_wait_ms_p50", percentile(open.wait_s, 0.5) * 1e3, "ms");
  res.set("serve.queue_wait_ms_p99", percentile(open.wait_s, 0.99) * 1e3, "ms");
  res.set("serve.cache_hit_rate", stats.hit_rate(), "fraction");
  res.set("serve.pages_per_query",
          static_cast<double>(stats.pages_loaded) /
              static_cast<double>(std::max<std::uint64_t>(1, served_queries)),
          "count");
  res.set("serve.batch_samples_mean",
          static_cast<double>(open.samples) /
              static_cast<double>(std::max<std::uint64_t>(1, open.batches)),
          "count");
  res.set("serve.worker_busy_share",
          open.wall_s > 0.0 ? open.busy_s / (open.wall_s * static_cast<double>(kWorkers)) : 0.0,
          "fraction");
  res.set("serve.generator_late_ms_p99", percentile(open.late_s, 0.99) * 1e3, "ms");
  res.set("serve.store_build_s", median(build_s), "s");
  res.set("obs.trace_overhead_pct", overhead_pct, "%");
  // Share of the traced workers' busy time (timed around each batch)
  // that the engine spans cover.
  const double traced_busy = traced_closed_busy + open.busy_s;
  res.set("obs.span_coverage_pct", traced_busy > 0.0 ? run_s / traced_busy * 100.0 : 0.0, "%");
  return res;
}

}  // namespace perfbench
