// Shared plumbing of the benchmark harness: run options, the report every
// workload fills, timing and statistics helpers, and the quick ECoST
// training that the policy and serve workloads set up with.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/dataset_builder.hpp"
#include "core/stp.hpp"
#include "mapreduce/eval_cache.hpp"
#include "mapreduce/node_evaluator.hpp"
#include "obs/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;  ///< per-layer run (decorators + spans) instead of e2e
  unsigned pool = 1;   ///< thread-pool participants (workers + caller)
};

/// Everything one benchmark run measured and checked. Metric maps hold
/// (value, unit); `counts` are simulated quantities that are exact on every
/// host, `sim` simulated values that are exact per build, `digests` byte
/// digests of produced artefacts (exact per build).
struct Report {
  using Metrics = std::map<std::string, std::pair<double, std::string>>;
  Metrics end_to_end;
  Metrics per_layer;
  std::map<std::string, std::uint64_t> counts;
  std::map<std::string, double> sim;
  std::map<std::string, std::string> digests;
  std::map<std::string, std::string> info;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
  void e2e(const std::string& name, double v, const char* unit) {
    end_to_end[name] = {v, unit};
  }
  void layer(const std::string& name, double v, const char* unit) {
    per_layer[name] = {v, unit};
  }
};

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v);

/// Nearest-rank quantile of an ascending-sorted series (0 when empty).
double sorted_quantile(const std::vector<double>& sorted, double q);

/// Runs `f`, returns its wall seconds, and records a host-track span named
/// `name` when a recorder is attached.
template <typename F>
double timed(ecost::obs::TraceRecorder* rec, const char* name, F&& f) {
  const double w0 = rec != nullptr ? rec->wall_s() : 0.0;
  const auto t0 = Clock::now();
  f();
  const double s = seconds_since(t0);
  if (rec != nullptr) rec->span(0, 1, name, w0, w0 + s);
  return s;
}

/// Set-up repetitions of the workloads that train in their set-up.
constexpr int kSetupReps = 7;

/// Calls `pass()` at least `min_passes` times, and then again while one
/// more call, as long as the last one, still ends within `seconds`;
/// returns the wall seconds of each call.
template <typename F>
std::vector<double> repeat_for(double seconds, int min_passes, F&& pass) {
  std::vector<double> walls;
  const auto t0 = Clock::now();
  while (static_cast<int>(walls.size()) < min_passes ||
         seconds_since(t0) + walls.back() <= seconds) {
    walls.push_back(pass());
  }
  return walls;
}

/// Reports the end-to-end `setup_s` as the median set-up repetition and
/// `wall_s` as the fastest pass: other tenants of a shared host slow
/// passes by up to half for stretches of seconds to minutes, and the
/// fastest pass tracks the workload's own cost where the median tracks
/// their load. Every pass and the median pass are listed in info.
void report_timings(Report& rep, const std::vector<double>& setups,
                    const std::vector<double>& walls);

/// 64-bit FNV-1a over raw bytes, chained through `h`.
std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n);
std::string hex64(std::uint64_t v);

/// A trained ECoST pipeline: evaluator, the cache the sweep filled, the
/// training data, and the REPTree MLM-STP fitted on it.
struct Trained {
  std::unique_ptr<ecost::mapreduce::NodeEvaluator> eval;
  std::unique_ptr<ecost::mapreduce::EvalCache> cache;
  std::unique_ptr<ecost::core::TrainingData> td;
  std::unique_ptr<ecost::core::MlmStp> stp;
  double build_s = 0.0;
  double fit_s = 0.0;
};

/// The sweep options the serve soak and the scale study train with
/// (ecostd/bench_sweep --quick): one input size, smaller reservoirs.
ecost::core::SweepOptions quick_sweep(std::uint64_t seed);

/// Cold-cache training sweep + REPTree fit under `opts`.
Trained train(const ecost::core::SweepOptions& opts,
              ecost::obs::TraceRecorder* rec);

/// Table 1's metric: REPTree validation MAPE (%), averaged over the class
/// pairs that have both a model and validation rows.
double stp_ape_pct(const ecost::core::TrainingData& td,
                   const ecost::core::MlmStp& stp);

/// Mapreduce-layer metrics: the grid kernel and env solver counters of the
/// process registry since construction, plus the hit rates of one cache.
class MapreduceLayer {
 public:
  MapreduceLayer();
  void report(Report& rep,
              const ecost::mapreduce::EvalCache::Stats& cache) const;

 private:
  std::uint64_t lanes0_ = 0, pair_us0_ = 0, solo_us0_ = 0, iters_n0_ = 0;
  double iters_sum0_ = 0.0;
};

// The four workloads. Each fills `rep` for its mode (end-to-end metrics
// when untraced, per-layer metrics when traced) plus counts and checks.
void run_train_sweep(const RunOptions& opts, Report& rep,
                     ecost::obs::TraceRecorder* rec);
void run_policy_r1024(const RunOptions& opts, Report& rep,
                      ecost::obs::TraceRecorder* rec);
void run_serve(const RunOptions& opts, Report& rep,
               ecost::obs::TraceRecorder* rec);

}  // namespace perfbench
