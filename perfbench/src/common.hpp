#pragma once

/// \file common.hpp
/// Shared vocabulary of the benchmark executable: run options, the
/// result record every workload fills, order statistics, and the span
/// log the traced runs record around calls into the library's modules.
/// Spans live only in this benchmark's code; nothing inside src/ is
/// instrumented for it.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Workload shape constants (fixed by the workload definitions;
/// spec.json explains them).
inline constexpr std::size_t kWorld = 4;           ///< training ranks
inline constexpr std::size_t kWorkers = 4;         ///< serving replicas
inline constexpr std::size_t kShards = 4;
inline constexpr std::size_t kRowsPerPage = 256;
inline constexpr double kPageErrorBound = 0.01;
inline constexpr std::size_t kCacheBytes = 4u << 20;
inline constexpr std::size_t kMeanQuerySamples = 16;
/// Open-loop offered rate (spec.json's rate_note says why this value).
inline constexpr double kOpenQps = 80.0;
/// Latency limit of serve.slo_attain.
inline constexpr double kSloMs = 100.0;
inline constexpr double kClosedShare = 0.3;  ///< of --seconds, closed loop
/// Serving runs alternate closed- and open-loop segments this many
/// times; each round yields its own capacity and latency figures.
inline constexpr std::size_t kServeRounds = 8;
/// Closed-loop capacity at the commit that defined the benchmark (4-core
/// VM); only sizes the closed loop's fixed work, never reported.
inline constexpr double kClosedQpsEstimate = 360.0;
inline constexpr std::size_t kCkptFullEvery = 2;

/// Command-line options: seed, run length, mode, and the sizes the smoke
/// test shrinks. run.py passes the values in perfbench/spec.json.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  std::string scratch = ".bench_build/scratch";

  std::size_t cardinality_cap = 20000;  ///< rows per table at most
  std::size_t setup_repeats = 3;
  std::size_t global_batch = 2048;
  std::size_t iterations = 13;          ///< per train() trial
  std::size_t ckpt_every = 4;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

/// Everything one invocation reports.
struct Result {
  std::map<std::string, Metric> metrics;
  std::vector<Check> checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void check(const std::string& name, bool ok, const std::string& detail) {
    checks.push_back(Check{name, ok, detail});
  }
  [[nodiscard]] bool correct() const {
    return std::all_of(checks.begin(), checks.end(),
                       [](const Check& c) { return c.ok; });
  }
};

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 when
/// empty.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = v.size();
  auto rank = static_cast<std::size_t>(q * static_cast<double>(n) + 0.999999);
  rank = std::clamp<std::size_t>(rank, 1, n);
  return v[rank - 1];
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// What a run reports from the per-round (or per-trial) values of one
/// figure: their quartile at the fast end, the first for a time and the
/// third for a rate. Other work on the host only ever slows a round, and
/// a slow spell of a few seconds slows a few rounds, so this quartile
/// reads the program rather than the spell while still moving with
/// every round when the program itself gets slower.
inline double fast_quartile(std::vector<double> v, bool higher_is_faster) {
  return percentile(std::move(v), higher_is_faster ? 0.75 : 0.25);
}

/// Returns freed heap to the OS, so one trial's peak resident memory
/// does not carry the previous trial's free lists.
void release_free_memory();

/// Layers a traced run attributes time to. The names are the module
/// names of src/ (plus the benchmark's own bookkeeping).
enum class Layer : std::uint8_t {
  kStep,         ///< one training iteration on one rank (parent span)
  kData,         ///< data: BatchSource::make_batch
  kLookup,       ///< dlrm: EmbeddingTable::lookup
  kMlp,          ///< dlrm: Mlp forward/backward/sgd_step (+ loss)
  kInteraction,  ///< dlrm: DotInteraction forward/backward
  kEmbUpdate,    ///< dlrm: EmbeddingOptimizer::apply
  kA2A,          ///< core: CompressedAllToAll exchange / begin / finish
  kComm,         ///< comm: Communicator all-reduce, wait, barrier
  kCkpt,         ///< ckpt: CheckpointWriter::save
  kCheck,        ///< benchmark-only bound checks (excluded from steps)
  kServeRun,     ///< serve: InferenceEngine::run (parent span)
  kGather,       ///< serve: ShardRouter::gather via the LookupProvider
  kCount,
};

const char* layer_name(Layer layer);

struct Span {
  Layer layer = Layer::kStep;
  int rank = 0;
  std::uint32_t step = 0;  ///< iteration or batch id: spans of one step share it
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;

  [[nodiscard]] double seconds() const {
    return static_cast<double>(end_ns - begin_ns) * 1e-9;
  }
};

/// Per-thread span buffer. Not thread-safe: each rank or worker owns
/// one, and they are merged after the threads join.
class SpanLog {
 public:
  SpanLog() { spans_.reserve(1u << 14); }
  void add(Layer layer, int rank, std::uint32_t step, Clock::time_point b,
           Clock::time_point e) {
    spans_.push_back(Span{layer, rank, step, ns(b), ns(e)});
  }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  static std::int64_t ns(Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
  }
  std::vector<Span> spans_;
};

/// RAII span: records [construction, destruction) into `log` when the
/// log is non-null; costs nothing else.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, Layer layer, int rank, std::uint32_t step)
      : log_(log), layer_(layer), rank_(rank), step_(step) {
    if (log_ != nullptr) begin_ = Clock::now();
  }
  ~ScopedSpan() {
    if (log_ != nullptr) log_->add(layer_, rank_, step_, begin_, Clock::now());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  Layer layer_;
  int rank_;
  std::uint32_t step_;
  Clock::time_point begin_;
};

/// Writes every span as CSV (layer,rank,step,begin_ns,end_ns).
void write_spans(const std::string& path, const std::vector<const SpanLog*>& logs);

Result run_train_workload(const Options& options, bool hybrid);
Result run_serve_workload(const Options& options);

}  // namespace perfbench
