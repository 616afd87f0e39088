// Training workloads: train-hybrid (the paper's dual-level compressed
// configuration on the sim transport) and train-raw (the uncompressed
// baseline, 4 ranks as threads over real localhost TCP).
//
// Untraced runs time HybridParallelTrainer::train from outside: the only
// hook is the BatchSource, so a wrapper stamps the first make_batch call
// of every iteration and the step time is the interval between stamps.
// Traced runs replay the trainer's step through the same public calls
// (same chunk shapes, bounds, schedule and cadence) with spans around
// each call, and prove the replay is the timed program by matching the
// trainer's folded wire CRC and simulated makespan exactly.

#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "ckpt/checkpoint.hpp"
#include "comm/communicator.hpp"
#include "comm/tcp_runtime.hpp"
#include "common.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/net.hpp"
#include "compress/registry.hpp"
#include "core/compressed_alltoall.hpp"
#include "core/offline_analyzer.hpp"
#include "core/trainer.hpp"
#include "data/synthetic.hpp"
#include "dlrm/embedding_table.hpp"
#include "dlrm/interaction.hpp"
#include "dlrm/loss.hpp"
#include "dlrm/mlp.hpp"
#include "dlrm/optimizer.hpp"
#include "parallel/thread_pool.hpp"

namespace perfbench {

using namespace dlcomp;

namespace {

constexpr std::size_t kWarmupIters = 2;  // the trainer's grow-event warm-up

/// BatchSource wrapper: stamps the first make_batch call of every
/// iteration (the step boundary seen from outside the trainer) and, when
/// traced, accumulates make_batch wall time and calls.
class TimedSource final : public BatchSource {
 public:
  TimedSource(const BatchSource& inner, std::size_t iterations, bool traced)
      : inner_(inner), stamps_(iterations), traced_(traced) {
    for (auto& s : stamps_) s.store(0, std::memory_order_relaxed);
  }

  [[nodiscard]] const DatasetSpec& spec() const noexcept override {
    return inner_.spec();
  }

  [[nodiscard]] SampleBatch make_batch(std::size_t batch_size,
                                       std::uint64_t index) const override {
    const auto t0 = Clock::now();
    if (index < stamps_.size()) {
      std::int64_t expected = 0;
      stamps_[index].compare_exchange_strong(expected, t0.time_since_epoch().count(),
                                             std::memory_order_relaxed);
    }
    SampleBatch batch = inner_.make_batch(batch_size, index);
    if (traced_) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - t0)
                          .count();
      busy_ns_.fetch_add(ns, std::memory_order_relaxed);
      calls_.fetch_add(1, std::memory_order_relaxed);
    }
    return batch;
  }

  [[nodiscard]] SampleBatch make_eval_batch(std::size_t batch_size,
                                            std::uint64_t index) const override {
    return inner_.make_eval_batch(batch_size, index);
  }

  /// Seconds from `origin` to the first batch call (end of set-up).
  [[nodiscard]] double first_batch_s(Clock::time_point origin) const {
    return seconds_between(origin, at(0));
  }

  /// Walls of iterations [first, iterations - 1): stamp i to stamp i+1.
  /// The last iteration has no closing stamp; its end in the trainer is
  /// the final eval, which under TCP first syncs every table, so it is
  /// not a training step.
  [[nodiscard]] std::vector<double> steady_steps(std::size_t first) const {
    std::vector<double> out;
    for (std::size_t i = first; i + 1 < stamps_.size(); ++i) {
      out.push_back(seconds_between(at(i), at(i + 1)));
    }
    return out;
  }
  [[nodiscard]] double busy_s() const {
    return static_cast<double>(busy_ns_.load()) * 1e-9;
  }
  [[nodiscard]] std::uint64_t calls() const { return calls_.load(); }

 private:
  [[nodiscard]] Clock::time_point at(std::size_t i) const {
    return Clock::time_point(Clock::duration(stamps_[i].load(std::memory_order_relaxed)));
  }

  const BatchSource& inner_;
  mutable std::vector<std::atomic<Clock::rep>> stamps_;
  mutable std::atomic<std::int64_t> busy_ns_{0};
  mutable std::atomic<std::uint64_t> calls_{0};
  bool traced_;
};

/// The workload's fixed inputs: data source, offline-analysis plan and
/// trainer configuration.
struct TrainSetup {
  DatasetSpec spec;
  std::unique_ptr<SyntheticClickDataset> data;
  TrainerConfig config;
  std::vector<double> setup_s;     ///< per repeat: dataset (+ analyzer)
  std::vector<double> analyzer_s;  ///< per repeat (hybrid only)
};

TrainSetup make_setup(const Options& o, bool hybrid) {
  TrainSetup s;
  s.spec = DatasetSpec::criteo_terabyte_like(o.cardinality_cap);
  TrainerConfig& c = s.config;
  c.world = static_cast<int>(kWorld);
  c.global_batch = o.global_batch;
  c.iterations = o.iterations;
  c.seed = o.seed;
  // Record (and barrier) every iteration, so every step has the same
  // structure and the step-time tail is not a count of record steps.
  c.record_every = 1;
  c.overlap = {.forward = true, .backward = true, .pipeline_stages = 2};
  const std::size_t repeats = std::max<std::size_t>(1, o.setup_repeats);
  for (std::size_t r = 0; r < repeats; ++r) {
    const auto t0 = Clock::now();
    s.data = std::make_unique<SyntheticClickDataset>(s.spec, o.seed);
    if (hybrid) {
      const std::vector<EmbeddingTable> tables =
          make_embedding_set(s.spec, o.seed);
      AnalyzerConfig ac;
      ac.sample_batches = 2;
      ac.sampling_eb = 0.005;  // the paper's Terabyte sampling bound
      const auto a0 = Clock::now();
      const AnalysisReport report = OfflineAnalyzer(ac).analyze(*s.data, tables);
      s.analyzer_s.push_back(seconds_between(a0, Clock::now()));
      CompressionPolicy& p = c.compression;
      p.codec = "hybrid";
      p.table_eb = report.table_error_bounds();
      p.table_choice = report.table_choices();
      p.scheduler = {.func = DecayFunc::kStepwise,
                     .initial_scale = 2.0,
                     .decay_end_iter = std::max<std::size_t>(1, o.iterations / 2),
                     .num_steps = 2};
      p.compress_backward = true;
      CheckpointPolicy& k = c.checkpoint;
      k.directory = (std::filesystem::path(o.scratch) / "ckpt").string();
      k.every = o.ckpt_every;
      k.full_every = kCkptFullEvery;
      k.codec = "hybrid";
      k.table_eb = p.table_eb;
    }
    s.setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  if (!hybrid) c.transport.backend = "tcp";
  return s;
}

/// Runs `body(rank, port, listen_fd)` on `world` threads that form a
/// localhost TCP mesh: rank 0 inherits a pre-bound ephemeral listener
/// (listen_fd, -1 elsewhere), the others connect to its port. Rethrows
/// the first rank failure after every thread has joined.
void run_tcp_threads(int world,
                     const std::function<void(int, std::uint16_t, int)>& body) {
  const int listen_fd = net::tcp_listen("127.0.0.1", 0, world);
  const std::uint16_t port = net::bound_port(listen_fd);
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(world));
  std::vector<std::thread> threads;
  for (int r = 0; r < world; ++r) {
    threads.emplace_back([&, r] {
      try {
        body(r, port, r == 0 ? listen_fd : -1);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

/// Runs `body(comm)` for every rank of the config's transport: Cluster
/// threads for "sim", TcpRuntime threads for "tcp".
void run_ranks(const TrainerConfig& config,
               const std::function<void(Communicator&)>& body) {
  if (config.transport.backend != "tcp") {
    Cluster cluster(config.world, config.network);
    cluster.run(body);
    return;
  }
  run_tcp_threads(config.world, [&](int rank, std::uint16_t port, int listen_fd) {
    TcpTransportConfig tc;
    tc.world = config.world;
    tc.rank = rank;
    tc.port = port;
    tc.inherited_listen_fd = listen_fd;
    TcpRuntime runtime(tc, config.network);
    body(runtime.comm());
  });
}

/// One untraced trainer run. Under "tcp" every rank is a thread calling
/// train() as its own process-rank would; rank 0's result carries the
/// aggregates.
TrainingResult run_trainer(const TrainerConfig& config, const BatchSource& source) {
  if (config.transport.backend != "tcp") {
    return HybridParallelTrainer(config).train(source);
  }
  std::vector<TrainingResult> results(static_cast<std::size_t>(config.world));
  run_tcp_threads(config.world, [&](int rank, std::uint16_t port, int listen_fd) {
    TrainerConfig c = config;
    c.transport.rank = rank;
    c.transport.port = port;
    c.transport.inherited_listen_fd = listen_fd;
    results[static_cast<std::size_t>(rank)] = HybridParallelTrainer(std::move(c)).train(source);
  });
  return std::move(results[0]);
}

/// What an untraced trial contributes.
struct Trial {
  TrainingResult result;
  double in_train_setup_s = 0.0;       ///< train() call -> first batch
  std::vector<double> step_s;          ///< steady-state iteration walls
};

Trial run_trial(const TrainSetup& s, const Options& o) {
  std::filesystem::remove_all(std::filesystem::path(o.scratch) / "ckpt");
  release_free_memory();
  const TimedSource source(*s.data, s.config.iterations, false);
  const auto origin = Clock::now();
  Trial trial;
  trial.result = run_trainer(s.config, source);
  trial.in_train_setup_s = source.first_batch_s(origin);
  trial.step_s = source.steady_steps(kWarmupIters);
  return trial;
}

// ------------------------------------------------------------- replay

/// The buffers each rank exposes so receivers can check decompressed
/// values against what was sent. Reads are ordered after the writes by
/// the collectives (see check_forward / check_backward).
struct RankView {
  const std::vector<Matrix>* owned_lookup = nullptr;
  const std::vector<Matrix>* demb = nullptr;
};

/// What one rank of a replay reports.
struct RankReport {
  std::uint32_t wire_crc32 = 0;
  double clock_s = 0.0;
  double encode_s = 0.0;  ///< codec wall, steady steps
  double decode_s = 0.0;
  std::uint64_t bound_violations = 0;
  double worst_excess = 0.0;
  SpanLog log;
};

struct ReplayOutput {
  std::uint32_t wire_crc32 = 0;  ///< rank words folded in rank order
  double makespan_s = 0.0;
  std::vector<RankReport> ranks;
  std::vector<double> save_s;
  std::vector<double> save_mb;
  std::vector<double> step_s;  ///< steady iteration walls (stamps)
  double data_busy_s = 0.0;    ///< make_batch wall, all calls
  std::uint64_t data_calls = 0;
};

std::vector<std::size_t> mlp_dims(std::size_t in, const std::vector<std::size_t>& hidden,
                                  std::size_t out) {
  std::vector<std::size_t> dims{in};
  dims.insert(dims.end(), hidden.begin(), hidden.end());
  dims.push_back(out);
  return dims;
}

Mlp seeded_mlp(const std::vector<std::size_t>& dims, std::uint64_t seed, std::uint64_t tag) {
  Rng rng = Rng(seed).fork({tag});
  return Mlp(dims, rng);
}

/// Run-wide state of one replay: what the trainer builds before its rank
/// threads start. Shared-memory backends share one table set and one
/// codec pool (as the trainer's threads do); a process-per-rank backend
/// gives every rank its own copies.
struct ReplayRun {
  explicit ReplayRun(const TrainSetup& s)
      : cfg(s.config),
        spec(s.spec),
        world(static_cast<std::size_t>(cfg.world)),
        local_batch(cfg.global_batch / world),
        dim(spec.embedding_dim),
        num_tables(spec.num_tables()),
        shared(cfg.transport.backend != "tcp"),
        codec(cfg.compression.codec.empty() ? nullptr
                                            : &get_compressor(cfg.compression.codec)),
        scheduler(cfg.compression.scheduler),
        bdims(mlp_dims(spec.num_dense, cfg.model.bottom_hidden, dim)),
        tdims(mlp_dims(DotInteraction::output_dim(num_tables, dim), cfg.model.top_hidden, 1)),
        init_bottom(seeded_mlp(bdims, cfg.seed, 0xB0)),
        init_top(seeded_mlp(tdims, cfg.seed, 0x70)),
        saving(!cfg.checkpoint.directory.empty() && shared),
        source(*s.data, cfg.iterations, true),
        views(world) {
    // The one trainer configuration the replay reproduces: both overlaps
    // on, a record barrier every iteration, and a backward pass through
    // the same codec as the forward one (or no codec at all).
    DLCOMP_CHECK_MSG(cfg.overlap.forward && cfg.overlap.backward && cfg.record_every == 1 &&
                         (codec == nullptr || cfg.compression.compress_backward),
                     "replay supports only overlapped, every-iteration-recorded runs whose "
                     "backward pass is compressed whenever the forward one is");
    table_eb = cfg.compression.table_eb;
    if (table_eb.empty()) table_eb.assign(num_tables, cfg.compression.global_eb);
    table_choice = cfg.compression.table_choice;
    if (table_choice.empty()) table_choice.assign(num_tables, HybridChoice::kAuto);
    for (std::size_t k = 0; k < (shared ? 1 : world); ++k) {
      tables.push_back(make_embedding_set(spec, cfg.seed));
      optimizers.emplace_back();
      for (std::size_t t = 0; t < num_tables; ++t) {
        optimizers.back().emplace_back(cfg.model.embedding_optimizer, cfg.model.learning_rate);
      }
      pools.push_back(std::make_unique<ThreadPool>(
          std::min<unsigned>(4, std::thread::hardware_concurrency())));
    }
    if (saving) {
      std::filesystem::remove_all(cfg.checkpoint.directory);
      std::filesystem::create_directories(cfg.checkpoint.directory);
      CheckpointOptions co;
      co.codec = cfg.checkpoint.codec;
      co.table_eb = cfg.checkpoint.table_eb;
      co.global_eb = cfg.checkpoint.global_eb;
      co.pool = pools[0].get();
      writer = std::make_unique<CheckpointWriter>(std::move(co));
    }
    out.ranks.resize(world);
  }

  const TrainerConfig& cfg;
  const DatasetSpec& spec;
  const std::size_t world;
  const std::size_t local_batch;
  const std::size_t dim;
  const std::size_t num_tables;
  const bool shared;
  const Compressor* const codec;
  const ErrorBoundScheduler scheduler;
  const std::vector<std::size_t> bdims;
  const std::vector<std::size_t> tdims;
  const Mlp init_bottom;
  const Mlp init_top;
  const bool saving;
  const TimedSource source;
  std::vector<double> table_eb;
  std::vector<HybridChoice> table_choice;
  std::vector<std::vector<EmbeddingTable>> tables;
  std::vector<std::vector<EmbeddingOptimizer>> optimizers;
  std::vector<std::unique_ptr<ThreadPool>> pools;
  std::unique_ptr<CheckpointWriter> writer;  ///< rank 0 only
  std::vector<RankView> views;
  ReplayOutput out;
};

/// One rank of a replay: the trainer's rank body, call for call (same
/// chunk shapes, bounds, simulated-clock charges and schedule), with a
/// span around each call into a library module.
class RankReplay {
 public:
  RankReplay(ReplayRun& run, Communicator& comm)
      : r_(run),
        comm_(comm),
        rank_(static_cast<std::size_t>(comm.rank())),
        me_(run.out.ranks[rank_]),
        tables_(run.tables[run.shared ? 0 : rank_]),
        opts_(run.optimizers[run.shared ? 0 : rank_]),
        bottom_(run.init_bottom),
        top_(run.init_top),
        owned_by_(run.world),
        a2a_(a2a_config()),
        owned_lookup_(run.num_tables),
        local_lookup_(run.num_tables),
        demb_(run.num_tables),
        grad_assembled_(run.num_tables),
        local_dense_(run.local_batch, run.spec.num_dense),
        local_labels_(run.local_batch) {
    for (std::size_t t = rank_; t < r_.num_tables; t += r_.world) owned_.push_back(t);
    for (std::size_t t = 0; t < r_.num_tables; ++t) owned_by_[t % r_.world].push_back(t);
    r_.views[rank_] = RankView{&owned_lookup_, &demb_};
  }

  void run() {
    for (std::size_t iter = 0; iter < r_.cfg.iterations; ++iter) step(iter);
    // The trainer's closing barriers. Its final eval, between them on
    // rank 0, charges no simulated time and is not replayed.
    comm_.barrier();
    comm_.barrier();
    me_.wire_crc32 = crc32_final(crc_);
    me_.clock_s = comm_.clock().now();
  }

 private:
  CompressedAllToAllConfig a2a_config() const {
    CompressedAllToAllConfig c;
    c.codec = r_.codec;
    c.pool = r_.pools[r_.shared ? 0 : rank_].get();
    c.device = r_.cfg.device;
    c.pipeline_stages = std::max<std::size_t>(1, r_.cfg.overlap.pipeline_stages);
    return c;
  }

  ScopedSpan span(Layer layer) {
    return ScopedSpan(&me_.log, layer, static_cast<int>(rank_), iter_);
  }

  void step(std::size_t iter) {
    iter_ = static_cast<std::uint32_t>(iter);
    steady_ = iter >= kWarmupIters;
    const auto step_span = span(Layer::kStep);
    eb_scale_ = r_.scheduler.scale_at(iter);
    load_batch(iter);
    lookup();
    forward_exchange();
    check_forward();
    interaction_and_top();
    backward();
    {
      const auto sp = span(Layer::kMlp);
      bottom_.sgd_step(r_.cfg.model.learning_rate);
      top_.sgd_step(r_.cfg.model.learning_rate);
    }
    bookkeeping(iter);
  }

  void load_batch(std::size_t iter) {
    {
      const auto sp = span(Layer::kData);
      batch_ = r_.source.make_batch(r_.cfg.global_batch, iter);
    }
    const std::size_t row0 = rank_ * r_.local_batch;
    for (std::size_t b = 0; b < r_.local_batch; ++b) {
      for (std::size_t f = 0; f < r_.spec.num_dense; ++f) {
        local_dense_(b, f) = batch_.dense(row0 + b, f);
      }
      local_labels_[b] = batch_.labels[row0 + b];
    }
  }

  void bottom_forward() {
    const auto sp = span(Layer::kMlp);
    z0_ = &bottom_.forward(local_dense_);
    comm_.advance_compute(phases::kBottomMlp,
                          r_.cfg.compute.mlp_seconds(r_.local_batch, r_.bdims));
  }

  void lookup() {
    const auto sp = span(Layer::kLookup);
    std::size_t bytes = 0;
    for (const std::size_t t : owned_) {
      owned_lookup_[t].resize(r_.cfg.global_batch, r_.dim);
      tables_[t].lookup(batch_.indices[t], owned_lookup_[t]);
      bytes += owned_lookup_[t].size() * sizeof(float);
    }
    comm_.advance_compute(phases::kEmbLookup, r_.cfg.compute.memory_bound_seconds(bytes));
  }

  void count_exchange(const A2AStats& stats) {
    crc_ = crc32_update(
        crc_, std::as_bytes(std::span<const std::uint32_t>(&stats.wire_crc32, 1)));
    if (steady_) {
      me_.encode_s += stats.compress_wall_seconds;
      me_.decode_s += stats.decompress_wall_seconds;
    }
  }

  void forward_exchange() {
    const std::size_t chunk = r_.local_batch * r_.dim;
    std::vector<std::vector<A2AChunkSpec>> send(r_.world);
    for (std::size_t d = 0; d < r_.world; ++d) {
      for (const std::size_t t : owned_) {
        A2AChunkSpec c;
        c.data = std::span<const float>(owned_lookup_[t].data() + d * chunk, chunk);
        c.params.error_bound = r_.table_eb[t] * eb_scale_;
        c.params.eb_mode = EbMode::kAbsolute;
        c.params.vector_dim = r_.dim;
        c.params.hybrid_choice = r_.table_choice[t];
        c.tag = static_cast<std::uint32_t>(t);
        send[d].push_back(c);
      }
    }
    std::vector<std::vector<std::span<float>>> recv(r_.world);
    for (std::size_t src = 0; src < r_.world; ++src) {
      for (const std::size_t t : owned_by_[src]) {
        local_lookup_[t].resize(r_.local_batch, r_.dim);
        recv[src].push_back(local_lookup_[t].flat());
      }
    }
    // Overlapped: the bottom MLP runs between begin and finish.
    std::optional<CompressedAllToAll::PendingExchange> pending;
    {
      const auto sp = span(Layer::kA2A);
      pending.emplace(a2a_.exchange_begin(comm_, send, recv, phases::kAllToAllFwd));
    }
    bottom_forward();
    A2AStats stats;
    {
      const auto sp = span(Layer::kA2A);
      stats = pending->finish();
    }
    count_exchange(stats);
  }

  void check_chunk(std::span<const float> sent, std::span<const float> got, double bound) {
    double worst = 0.0;
    for (std::size_t i = 0; i < sent.size(); ++i) {
      worst = std::max(worst, static_cast<double>(std::fabs(sent[i] - got[i])));
    }
    const double limit = bound * (1.0 + 1e-6);  // the codec tests' slack
    if (worst > limit) {
      ++me_.bound_violations;
      me_.worst_excess = std::max(me_.worst_excess, worst - limit);
    }
  }

  /// Source rank `src` rewrites its lookups only after this iteration's
  /// backward exchange, which needs this rank's payload, sent after this
  /// check.
  void check_forward() {
    const auto sp = span(Layer::kCheck);
    const std::size_t chunk = r_.local_batch * r_.dim;
    for (std::size_t src = 0; src < r_.world; ++src) {
      for (const std::size_t t : owned_by_[src]) {
        const Matrix& sent = (*r_.views[src].owned_lookup)[t];
        check_chunk(std::span<const float>(sent.data() + rank_ * chunk, chunk),
                    local_lookup_[t].flat(),
                    r_.codec == nullptr ? 0.0 : r_.table_eb[t] * eb_scale_);
      }
    }
  }

  void interaction_and_top() {
    const std::size_t lb = r_.local_batch;
    feat_.resize(lb, DotInteraction::output_dim(r_.num_tables, r_.dim));
    {
      const auto sp = span(Layer::kInteraction);
      DotInteraction::forward(*z0_, local_lookup_, feat_);
      comm_.advance_compute(phases::kInteraction, r_.cfg.compute.interaction_seconds(
                                                      lb, r_.num_tables, r_.dim));
    }
    {
      const auto sp = span(Layer::kMlp);
      const Matrix& logits = top_.forward(feat_);
      comm_.advance_compute(phases::kTopMlp, r_.cfg.compute.mlp_seconds(lb, r_.tdims));
      Matrix dlogits(lb, 1);
      (void)bce_with_logits(logits.flat(), local_labels_, dlogits.flat());
      dfeat_ = top_.backward(dlogits);
      comm_.advance_compute(phases::kTopMlp, 2.0 * r_.cfg.compute.mlp_seconds(lb, r_.tdims));
    }
    const auto sp = span(Layer::kInteraction);
    dz0_ = Matrix(lb, r_.dim);
    for (std::size_t t = 0; t < r_.num_tables; ++t) demb_[t].resize(lb, r_.dim);
    DotInteraction::backward(*z0_, local_lookup_, dfeat_, dz0_, std::span<Matrix>(demb_));
    comm_.advance_compute(phases::kInteraction, 2.0 * r_.cfg.compute.interaction_seconds(
                                                          lb, r_.num_tables, r_.dim));
  }

  void backward_exchange() {
    const std::size_t chunk = r_.local_batch * r_.dim;
    std::vector<std::vector<A2AChunkSpec>> send(r_.world);
    for (std::size_t d = 0; d < r_.world; ++d) {
      for (const std::size_t t : owned_by_[d]) {
        A2AChunkSpec c;
        c.data = demb_[t].flat();
        c.params.error_bound = r_.cfg.compression.backward_relative_eb;
        c.params.eb_mode = EbMode::kRangeRelative;
        c.params.vector_dim = r_.dim;
        c.params.hybrid_choice = r_.table_choice[t];
        c.tag = static_cast<std::uint32_t>(r_.num_tables + t);
        send[d].push_back(c);
      }
    }
    for (const std::size_t t : owned_) grad_assembled_[t].resize(r_.cfg.global_batch, r_.dim);
    std::vector<std::vector<std::span<float>>> recv(r_.world);
    for (std::size_t src = 0; src < r_.world; ++src) {
      for (const std::size_t t : owned_) {
        recv[src].push_back(std::span<float>(grad_assembled_[t].data() + src * chunk, chunk));
      }
    }
    A2AStats stats;
    {
      const auto sp = span(Layer::kA2A);
      stats = a2a_.exchange(comm_, send, recv, phases::kAllToAllBwd);
    }
    count_exchange(stats);
    check_backward();
  }

  /// A source rewrites its gradients only after next iteration's forward
  /// exchange, which needs this rank's payload, sent after this check.
  void check_backward() {
    const auto sp = span(Layer::kCheck);
    const bool coded = r_.codec != nullptr;
    CompressParams params;
    params.error_bound = r_.cfg.compression.backward_relative_eb;
    params.eb_mode = EbMode::kRangeRelative;
    const std::size_t chunk = r_.local_batch * r_.dim;
    for (std::size_t src = 0; src < r_.world; ++src) {
      for (const std::size_t t : owned_) {
        const std::span<const float> sent = (*r_.views[src].demb)[t].flat();
        check_chunk(sent,
                    std::span<const float>(grad_assembled_[t].data() + src * chunk, chunk),
                    coded ? resolve_error_bound(sent, params) : 0.0);
      }
    }
  }

  void bottom_backward() {
    const auto sp = span(Layer::kMlp);
    (void)bottom_.backward(dz0_);
    comm_.advance_compute(phases::kBottomMlp,
                          2.0 * r_.cfg.compute.mlp_seconds(r_.local_batch, r_.bdims));
  }

  void emb_update() {
    const auto sp = span(Layer::kEmbUpdate);
    std::size_t bytes = 0;
    const float lr_scale = 1.0f / static_cast<float>(r_.world);
    for (const std::size_t t : owned_) {
      opts_[t].apply(tables_[t], batch_.indices[t], grad_assembled_[t], lr_scale);
      bytes += grad_assembled_[t].size() * sizeof(float);
    }
    comm_.advance_compute(phases::kEmbUpdate, r_.cfg.compute.memory_bound_seconds(bytes));
  }

  /// The trainer's MLP gradient all-reduce buffer: every gradient, packed.
  void pack_grads() {
    grad_scratch_.clear();
    for (Mlp* m : {&bottom_, &top_}) {
      for (const auto& v : m->grad_views()) grad_scratch_.insert(grad_scratch_.end(), v.begin(), v.end());
    }
  }

  /// Reduced sums back into the MLPs, averaged by world.
  void unpack_grads() {
    const float inv_world = 1.0f / static_cast<float>(r_.world);
    std::size_t cursor = 0;
    for (Mlp* m : {&bottom_, &top_}) {
      for (auto& v : m->grad_views()) {
        for (std::size_t i = 0; i < v.size(); ++i) v[i] = grad_scratch_[cursor + i] * inv_world;
        cursor += v.size();
      }
    }
  }

  /// Bottom-MLP backward, then the MLP all-reduce in flight while the
  /// backward all-to-all and the embedding update run (the trainer's
  /// overlapped order).
  void backward() {
    bottom_backward();
    pack_grads();
    std::optional<PendingCollective> pending;
    {
      const auto sp = span(Layer::kComm);
      pending.emplace(comm_.all_reduce_sum_async(grad_scratch_, phases::kAllReduce));
    }
    backward_exchange();
    emb_update();
    {
      const auto sp = span(Layer::kComm);
      pending->wait();
    }
    unpack_grads();
  }

  /// The trainer's record/save cadence at record_every = 1: barrier,
  /// rank 0 saves, barrier (eval is off in these workloads).
  void bookkeeping(std::size_t iter) {
    const TrainerConfig& cfg = r_.cfg;
    const bool save_now =
        r_.saving && ((cfg.checkpoint.every > 0 && (iter + 1) % cfg.checkpoint.every == 0) ||
                      iter + 1 == cfg.iterations);
    {
      const auto sp = span(Layer::kComm);
      comm_.barrier();
    }
    if (rank_ == 0 && save_now) save(iter + 1);
    const auto sp = span(Layer::kComm);
    comm_.barrier();
  }

  void save(std::size_t iteration) {
    char name[32];
    std::snprintf(name, sizeof(name), "ckpt_%06llu.dlck",
                  static_cast<unsigned long long>(iteration));
    ModelState snap;
    snap.iteration = iteration;
    snap.seed = r_.cfg.seed;
    snap.bottom = &bottom_;
    snap.top = &top_;
    for (std::size_t t = 0; t < r_.num_tables; ++t) {
      snap.tables.push_back(&tables_[t].weights());
      snap.opt_state.push_back(&opts_[t].accumulator());
    }
    snap.opt_kind = r_.cfg.model.embedding_optimizer;
    const auto t0 = Clock::now();
    std::string written;
    {
      const auto sp = span(Layer::kCkpt);
      written = r_.writer->save(
          (std::filesystem::path(r_.cfg.checkpoint.directory) / name).string(), snap,
          r_.cfg.checkpoint.full_every);
    }
    r_.out.save_s.push_back(seconds_between(t0, Clock::now()));
    r_.out.save_mb.push_back(static_cast<double>(std::filesystem::file_size(written)) / 1e6);
  }

  ReplayRun& r_;
  Communicator& comm_;
  const std::size_t rank_;
  RankReport& me_;
  std::vector<EmbeddingTable>& tables_;
  std::vector<EmbeddingOptimizer>& opts_;
  Mlp bottom_;
  Mlp top_;
  std::vector<std::size_t> owned_;
  std::vector<std::vector<std::size_t>> owned_by_;
  const CompressedAllToAll a2a_;
  std::uint32_t crc_ = crc32_init();

  // Per-iteration state and reused buffers (the trainer's, by name).
  std::uint32_t iter_ = 0;
  bool steady_ = false;
  double eb_scale_ = 1.0;
  SampleBatch batch_;
  const Matrix* z0_ = nullptr;
  std::vector<Matrix> owned_lookup_;    // B_glob x dim (owned only)
  std::vector<Matrix> local_lookup_;    // B_loc x dim (all tables)
  std::vector<Matrix> demb_;            // B_loc x dim
  std::vector<Matrix> grad_assembled_;  // B_glob x dim (owned only)
  Matrix local_dense_;
  std::vector<float> local_labels_;
  Matrix feat_;
  Matrix dfeat_;
  Matrix dz0_;
  std::vector<float> grad_scratch_;
};

/// One traced replay of the configured training run.
ReplayOutput replay(const TrainSetup& s) {
  ReplayRun run(s);
  run_ranks(s.config, [&run](Communicator& comm) { RankReplay(run, comm).run(); });
  ReplayOutput& out = run.out;
  std::uint32_t combined = crc32_init();
  for (const RankReport& r : out.ranks) {
    combined = crc32_update(combined,
                            std::as_bytes(std::span<const std::uint32_t>(&r.wire_crc32, 1)));
    out.makespan_s = std::max(out.makespan_s, r.clock_s);
  }
  out.wire_crc32 = crc32_final(combined);
  out.step_s = run.source.steady_steps(kWarmupIters);
  out.data_busy_s = run.source.busy_s();
  out.data_calls = run.source.calls();
  if (run.saving) std::filesystem::remove_all(s.config.checkpoint.directory);
  return std::move(run.out);
}

bool finite_losses(const TrainingResult& r) {
  if (!std::isfinite(r.final_eval.loss)) return false;
  return std::all_of(r.history.begin(), r.history.end(),
                     [](const IterationRecord& h) { return std::isfinite(h.train_loss); });
}

std::string hex32(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", v);
  return buf;
}

}  // namespace

Result run_train_workload(const Options& o, bool hybrid) {
  Result res;
  TrainSetup setup = make_setup(o, hybrid);
  const TrainerConfig& cfg = setup.config;
  const double iters = static_cast<double>(cfg.iterations);

  // Untraced trials: whole train() runs. The first is the reference
  // every later trial must reproduce exactly, and warm-up: its steps are
  // not timed. Untraced runs repeat trials until the budget is spent;
  // traced runs time one more trial halfway through the replays, as the
  // untraced side of the tracing-overhead comparison.
  std::vector<Trial> trials;
  const auto run_one_trial = [&] {
    res.attempted += cfg.iterations;
    try {
      trials.push_back(run_trial(setup, o));
    } catch (const std::exception& e) {
      res.failed += cfg.iterations;
      res.check("trainer_ran", false, e.what());
      return false;
    }
    const Trial& t = trials.back();
    if (!finite_losses(t.result) || t.result.steady_state_grow_events != 0) {
      res.failed += cfg.iterations;
    }
    return true;
  };
  std::vector<ReplayOutput> replays;
  const auto run_replays = [&](double budget_s) {
    const auto t0 = Clock::now();
    do {
      res.attempted += cfg.iterations;
      try {
        replays.push_back(replay(setup));
      } catch (const std::exception& e) {
        res.failed += cfg.iterations;
        res.check("replay_ran", false, e.what());
        return false;
      }
    } while (seconds_between(t0, Clock::now()) < budget_s);
    return true;
  };
  const auto measure_start = Clock::now();
  bool ran = run_one_trial();
  if (o.trace) {
    ran = ran && run_replays(o.seconds / 2) && run_one_trial() &&
          run_replays(o.seconds / 2);
  } else {
    while (ran && (trials.size() < 2 ||
                   seconds_between(measure_start, Clock::now()) < o.seconds)) {
      ran = run_one_trial();
    }
  }
  std::filesystem::remove_all(std::filesystem::path(o.scratch) / "ckpt");
  if (!ran || trials.size() < 2) return res;

  const TrainingResult& ref = trials.front().result;
  bool finite = true;
  bool deterministic = true;
  std::uint64_t grow = 0;
  std::vector<double> steps;
  // Per timed trial: throughput, step p50 and step p90. The run reports
  // their fast quartiles (see fast_quartile).
  std::vector<double> trial_rate;
  std::vector<double> trial_p50;
  std::vector<double> trial_p90;
  std::vector<double> in_train_setup;
  for (std::size_t k = 0; k < trials.size(); ++k) {
    const Trial& t = trials[k];
    finite = finite && finite_losses(t.result);
    grow += t.result.steady_state_grow_events;
    deterministic = deterministic && t.result.wire_crc32 == ref.wire_crc32 &&
                    t.result.makespan_seconds == ref.makespan_seconds &&
                    t.result.final_eval.loss == ref.final_eval.loss;
    if (k > 0 && !t.step_s.empty()) {
      steps.insert(steps.end(), t.step_s.begin(), t.step_s.end());
      double total = 0.0;
      for (const double x : t.step_s) total += x;
      trial_rate.push_back(static_cast<double>(t.step_s.size() * cfg.global_batch) / total);
      trial_p50.push_back(percentile(t.step_s, 0.5));
      trial_p90.push_back(percentile(t.step_s, 0.9));
    }
    in_train_setup.push_back(t.in_train_setup_s);
  }
  res.check("loss_finite", finite, "final eval loss " + std::to_string(ref.final_eval.loss));
  res.check("grow_events_zero", grow == 0, std::to_string(grow) + " steady-state grow events");
  res.check("trials_deterministic", deterministic,
            std::to_string(trials.size()) + " trials, crc " + hex32(ref.wire_crc32));
  res.check("step_samples", !steps.empty(), std::to_string(steps.size()) + " steady steps");

  const double samples_per_s = fast_quartile(trial_rate, true);
  const double step_p50 = fast_quartile(trial_p50, false) * 1e3;
  const double step_p90 = fast_quartile(trial_p90, false) * 1e3;
  const double setup_s = median(setup.setup_s) + median(in_train_setup);

  res.set("throughput_per_s", samples_per_s, "1/s");
  res.set("latency_p50_ms", step_p50, "ms");
  res.set("latency_tail_ms", step_p90, "ms");
  res.set("eval_logloss", ref.final_eval.loss, "nats");
  if (!o.trace) {
    // Accuracy guard: eval log-loss relative to the same run without
    // lossy compression or checkpoints, on the sim transport (for
    // train-raw that is the TCP run's own sim twin, which must match it
    // bitwise).
    TrainerConfig exact_cfg = cfg;
    exact_cfg.compression = CompressionPolicy{};
    exact_cfg.checkpoint = CheckpointPolicy{};
    exact_cfg.transport = TransportPolicy{};
    const TrainingResult exact = HybridParallelTrainer(exact_cfg).train(*setup.data);
    res.set("logloss_ratio", ref.final_eval.loss / exact.final_eval.loss, "ratio");
    res.set("exact_eval_logloss", exact.final_eval.loss, "nats");
    if (!hybrid) {
      res.check("tcp_matches_sim",
                exact.wire_crc32 == ref.wire_crc32 &&
                    exact.makespan_seconds == ref.makespan_seconds &&
                    exact.final_eval.loss == ref.final_eval.loss,
                "tcp crc " + hex32(ref.wire_crc32) + ", sim crc " + hex32(exact.wire_crc32));
    }
  }
  res.set("setup_s", setup_s, "s");
  res.set("step_samples", static_cast<double>(steps.size()), "count");
  res.set("tail_percentile", 90.0, "%");
  res.set("trials", static_cast<double>(trials.size()), "count");
  res.set("wire_crc32", static_cast<double>(ref.wire_crc32), "crc");
  res.set("core.sim_step_ms", ref.makespan_seconds / iters * 1e3, "sim_ms");

  if (!o.trace) return res;

  // ---- Traced replays: per-layer attribution of the same step.
  bool crc_match = true;
  bool makespan_match = true;
  std::uint64_t violations = 0;
  double worst_excess = 0.0;
  // Per-layer sums over steady iterations and all ranks.
  std::array<double, static_cast<std::size_t>(Layer::kCount)> layer_s{};
  double step_total = 0.0;
  double encode = 0.0;
  double decode = 0.0;
  std::size_t steady_steps = 0;
  std::vector<double> save_s;
  std::vector<double> save_mb;
  std::vector<double> traced_steps;
  double data_busy = 0.0;
  std::uint64_t data_calls = 0;
  std::vector<const SpanLog*> all_logs;
  for (const ReplayOutput& r : replays) {
    crc_match = crc_match && r.wire_crc32 == ref.wire_crc32;
    makespan_match = makespan_match && r.makespan_s == ref.makespan_seconds;
    for (const RankReport& rank : r.ranks) {
      violations += rank.bound_violations;
      worst_excess = std::max(worst_excess, rank.worst_excess);
      encode += rank.encode_s;
      decode += rank.decode_s;
      all_logs.push_back(&rank.log);
      for (const Span& sp : rank.log.spans()) {
        if (sp.step < kWarmupIters) continue;
        (sp.layer == Layer::kStep ? step_total : layer_s[static_cast<std::size_t>(sp.layer)]) +=
            sp.seconds();
      }
    }
    steady_steps += cfg.iterations - kWarmupIters;
    save_s.insert(save_s.end(), r.save_s.begin(), r.save_s.end());
    save_mb.insert(save_mb.end(), r.save_mb.begin(), r.save_mb.end());
    data_busy += r.data_busy_s;
    data_calls += r.data_calls;
    traced_steps.insert(traced_steps.end(), r.step_s.begin(), r.step_s.end());
  }
  res.check("replay_wire_crc_matches", crc_match,
            "trainer " + hex32(ref.wire_crc32) + ", replay " +
                hex32(replays.front().wire_crc32));
  {
    std::ostringstream d;
    d.precision(17);
    d << "trainer " << ref.makespan_seconds << " s, replay "
      << replays.front().makespan_s << " s";
    res.check("replay_makespan_matches", makespan_match, d.str());
  }
  res.check("replay_values_within_bound", violations == 0,
            std::to_string(violations) + " chunks over bound, worst excess " +
                std::to_string(worst_excess));
  const double check_total = layer_s[static_cast<std::size_t>(Layer::kCheck)];
  write_spans((std::filesystem::path(o.scratch) / ("spans-" + o.workload + ".csv")).string(),
              all_logs);

  const double n_steps = static_cast<double>(std::max<std::size_t>(1, steady_steps));
  const auto per_step_ms = [&](Layer l) {
    return layer_s[static_cast<std::size_t>(l)] / n_steps * 1e3;
  };
  const double world = static_cast<double>(cfg.world);
  const double total_calls = static_cast<double>(data_calls);
  const double all_iters = static_cast<double>(replays.size()) * iters;
  res.set("data.batch_calls_per_step", total_calls / all_iters, "count");
  res.set("data.batch_ms_per_step", data_busy / all_iters * 1e3, "ms");
  res.set("dlrm.lookup_ms_per_step", per_step_ms(Layer::kLookup), "ms");
  res.set("dlrm.mlp_ms_per_step", per_step_ms(Layer::kMlp), "ms");
  res.set("dlrm.interaction_ms_per_step", per_step_ms(Layer::kInteraction), "ms");
  res.set("dlrm.emb_update_ms_per_step", per_step_ms(Layer::kEmbUpdate), "ms");
  res.set("compress.fwd_ratio", ref.forward_cr(), "ratio");
  res.set("compress.bwd_ratio", ref.backward_cr(), "ratio");
  res.set("compress.encode_ms_per_step", encode / n_steps * 1e3, "ms");
  res.set("compress.decode_ms_per_step", decode / n_steps * 1e3, "ms");
  res.set("core.a2a_ms_per_step", per_step_ms(Layer::kA2A), "ms");
  res.set("core.exposed_comm_sim_ms_per_step", ref.exposed_comm_seconds() / iters * 1e3,
          "sim_ms");
  res.set("core.hidden_comm_sim_ms_per_step", ref.hidden_comm_seconds() / iters * 1e3,
          "sim_ms");
  res.set("core.grow_events", static_cast<double>(ref.steady_state_grow_events), "count");
  res.set("core.analyzer_s", median(setup.analyzer_s), "s");
  res.set("comm.wire_mb_per_step", static_cast<double>(ref.wire_bytes_sent) / iters / 1e6,
          "MB");
  const CommStats& cs = ref.comm_stats;
  res.set("comm.collectives_per_step",
          static_cast<double>(cs.alltoall_count + cs.allreduce_count + cs.allgather_count +
                              cs.broadcast_count + cs.barrier_count) /
              iters,
          "count");
  // Transport time: direct Communicator calls plus the all-to-all time
  // not spent in the codec (framing, wire and peer waits).
  const double a2a_ms = per_step_ms(Layer::kA2A);
  res.set("comm.transport_ms_per_step",
          per_step_ms(Layer::kComm) +
              std::max(0.0, a2a_ms - (encode + decode) / n_steps * 1e3),
          "ms");
  res.set("ckpt.save_ms", median(save_s) * 1e3, "ms");
  res.set("ckpt.mb_per_save", save_mb.empty() ? 0.0 : median(save_mb), "MB");

  // Validity: tracing overhead on the step (the replay's bound checks
  // are benchmark-only work and are taken out), and the share of the
  // traced ranks' step time the layer spans cover.
  const double check_per_step_s = check_total / n_steps / world;
  const double traced_p50 = std::max(0.0, median(traced_steps) - check_per_step_s);
  res.set("obs.trace_overhead_pct",
          step_p50 > 0.0 ? (traced_p50 * 1e3 / step_p50 - 1.0) * 100.0 : 0.0, "%");
  double covered = 0.0;
  for (std::size_t l = 0; l < layer_s.size(); ++l) {
    const auto layer = static_cast<Layer>(l);
    if (layer != Layer::kStep && layer != Layer::kCheck) covered += layer_s[l];
  }
  const double denom = step_total - check_total;
  res.set("obs.span_coverage_pct", denom > 0.0 ? covered / denom * 100.0 : 0.0, "%");
  res.set("replays", static_cast<double>(replays.size()), "count");
  return res;
}

}  // namespace perfbench
