// perfbench: runs one benchmark workload through the dlcomp public API
// and prints a JSON record (metrics with units, output checks, operation
// counts, host provenance) as its last line. perfbench/run.py builds and
// drives it; see that file for the command-line contract.
//
//   perfbench --workload train-hybrid|train-raw|serve-store --seed N
//             --seconds S --trace 0|1 [size flags, see usage()]

#include <malloc.h>
#include <sys/resource.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "common.hpp"
#include "common/arg_parser.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "compress/kernels.hpp"
#include "compress/simd.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif

namespace perfbench {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kStep: return "train.step";
    case Layer::kData: return "data.make_batch";
    case Layer::kLookup: return "dlrm.lookup";
    case Layer::kMlp: return "dlrm.mlp";
    case Layer::kInteraction: return "dlrm.interaction";
    case Layer::kEmbUpdate: return "dlrm.emb_update";
    case Layer::kA2A: return "core.a2a";
    case Layer::kComm: return "comm.collective";
    case Layer::kCkpt: return "ckpt.save";
    case Layer::kCheck: return "bench.check";
    case Layer::kServeRun: return "serve.run";
    case Layer::kGather: return "serve.gather";
    case Layer::kCount: break;
  }
  return "?";
}

void release_free_memory() { malloc_trim(0); }

void write_spans(const std::string& path, const std::vector<const SpanLog*>& logs) {
  std::filesystem::create_directories(std::filesystem::path(path).parent_path());
  std::ofstream out(path);
  out << "layer,rank,step,begin_ns,end_ns\n";
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      out << layer_name(s.layer) << ',' << s.rank << ',' << s.step << ','
          << s.begin_ns << ',' << s.end_ns << '\n';
    }
  }
}

}  // namespace perfbench

namespace {

using perfbench::Options;
using perfbench::Result;

const char* kUsage =
    "usage: perfbench --workload train-hybrid|train-raw|serve-store --seed N\n"
    "                 --seconds S --trace 0|1 [--scratch DIR] [--cap ROWS]\n"
    "                 [--setup-repeats N] [--batch N] [--iterations N]\n"
    "                 [--ckpt-every N]\n";

Options parse(int argc, char** argv) {
  const dlcomp::ArgParser a(
      argc, argv, 1,
      {"--workload", "--seed", "--seconds", "--trace", "--scratch", "--cap",
       "--setup-repeats", "--batch", "--iterations", "--ckpt-every"});
  Options o;
  o.workload = a.str("--workload");
  o.seed = a.u64("--seed", o.seed);
  o.seconds = a.num("--seconds", o.seconds);
  o.trace = a.uint("--trace", 0) != 0;
  o.scratch = a.str("--scratch", o.scratch);
  o.cardinality_cap = a.uint("--cap", o.cardinality_cap);
  o.setup_repeats = a.uint("--setup-repeats", o.setup_repeats);
  o.global_batch = a.uint("--batch", o.global_batch);
  o.iterations = a.uint("--iterations", o.iterations);
  o.ckpt_every = a.uint("--ckpt-every", o.ckpt_every);
  DLCOMP_CHECK_MSG(o.seconds > 0.0, "--seconds must be positive");
  DLCOMP_CHECK_MSG(o.iterations >= 4,
                   "--iterations must be at least 4 (the first 2 and the last are not timed)");
  DLCOMP_CHECK_MSG(o.global_batch % perfbench::kWorld == 0,
                   "--batch must divide by the world size");
  return o;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string number(double v) {
  std::ostringstream s;
  s.precision(17);
  s << v;
  return s.str();
}

void print_record(const Options& o, const Result& r) {
  using dlcomp::json_quote;
  std::ostringstream j;
  j << "{\"workload\": " << json_quote(o.workload) << ", \"seed\": " << o.seed
    << ", \"trace\": " << (o.trace ? 1 : 0) << ", \"correct\": "
    << (r.correct() ? "true" : "false") << ", \"attempted\": " << r.attempted
    << ", \"failed\": " << r.failed << ", \"provenance\": {\"nproc\": "
    << std::thread::hardware_concurrency() << ", \"simd\": "
    << json_quote(dlcomp::simd::isa_name(dlcomp::kernels::dispatched_isa()))
    << ", \"compiler\": " << json_quote(compiler()) << ", \"build_type\": "
    << json_quote(PERFBENCH_BUILD_TYPE) << "}, \"checks\": [";
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    const auto& c = r.checks[i];
    j << (i ? ", " : "") << "{\"name\": " << json_quote(c.name)
      << ", \"ok\": " << (c.ok ? "true" : "false")
      << ", \"detail\": " << json_quote(c.detail) << "}";
  }
  j << "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    j << (first ? "" : ", ") << json_quote(name) << ": {\"value\": " << number(m.value)
      << ", \"unit\": " << json_quote(m.unit) << "}";
    first = false;
  }
  j << "}}";
  std::cout << j.str() << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    o = parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n" << kUsage;
    return 2;
  }
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::cerr << "error: refusing to report from a '" << PERFBENCH_BUILD_TYPE
              << "' build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 3;
  }
  Result r;
  try {
    if (o.workload == "train-hybrid") {
      r = perfbench::run_train_workload(o, true);
    } else if (o.workload == "train-raw") {
      r = perfbench::run_train_workload(o, false);
    } else if (o.workload == "serve-store") {
      r = perfbench::run_serve_workload(o);
    } else {
      std::cerr << "error: unknown workload '" << o.workload << "'\n" << kUsage;
      return 2;
    }
  } catch (const std::exception& e) {
    // Still print a record, so the failure is reported as one.
    std::cerr << "error: " << e.what() << "\n";
    r = Result{};
    r.attempted = 1;
    r.failed = 1;
    r.check("workload_ran", false, e.what());
  }
  r.set("peak_rss_mb", peak_rss_mib(), "MiB");
  print_record(o, r);
  return r.correct() ? 0 : 1;
}
