#include "common.hpp"

#include <algorithm>
#include <cstdio>

#include "ml/metrics.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

using namespace ecost;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double sorted_quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  const auto idx = static_cast<std::size_t>(q * (n - 1.0) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

void report_timings(Report& rep, const std::vector<double>& setups,
                    const std::vector<double>& walls) {
  rep.e2e("setup_s", median(setups), "s");
  rep.e2e("wall_s", *std::min_element(walls.begin(), walls.end()), "s");
  rep.info["wall_median_s"] = std::to_string(median(walls));
  std::string passes;
  for (double w : walls) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.4f", passes.empty() ? "" : " ", w);
    passes += buf;
  }
  rep.info["wall_passes_s"] = passes;
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

core::SweepOptions quick_sweep(std::uint64_t seed) {
  core::SweepOptions opts;
  opts.sizes_gib = {1.0};
  opts.max_rows_per_class_pair = 1000;
  opts.candidates_per_combo = 16;
  opts.seed = seed;
  return opts;
}

Trained train(const core::SweepOptions& opts, obs::TraceRecorder* rec) {
  Trained t;
  t.eval = std::make_unique<mapreduce::NodeEvaluator>();
  t.cache = std::make_unique<mapreduce::EvalCache>(*t.eval);
  t.build_s = timed(rec, "sweep.build", [&] {
    t.td = std::make_unique<core::TrainingData>(
        core::build_training_data(*t.cache, opts));
  });
  t.fit_s = timed(rec, "stp.fit", [&] {
    t.stp = std::make_unique<core::MlmStp>(core::ModelKind::RepTree, *t.td,
                                           t.eval->spec());
  });
  return t;
}

double stp_ape_pct(const core::TrainingData& td, const core::MlmStp& stp) {
  double sum = 0.0;
  int pairs = 0;
  for (const auto& [cp, valid] : td.validation_rows) {
    const ml::Regressor* model = stp.model_for(cp);
    if (model == nullptr || valid.size() == 0) continue;
    std::vector<double> pred;
    pred.reserve(valid.size());
    for (std::size_t i = 0; i < valid.size(); ++i) {
      pred.push_back(model->predict(valid.x.row(i)));
    }
    sum += ml::mape_percent(pred, valid.y);
    ++pairs;
  }
  return pairs == 0 ? 0.0 : sum / pairs;
}

namespace {

obs::Histogram& iters_histogram() {
  return obs::MetricsRegistry::global().histogram("env_solver.iters", {1.0});
}

std::uint64_t counter(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

double ratio(std::uint64_t hits, std::uint64_t misses) {
  const std::uint64_t n = hits + misses;
  return n == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(n);
}

}  // namespace

MapreduceLayer::MapreduceLayer()
    : lanes0_(counter("grid.lanes")),
      pair_us0_(counter("grid.pair_us")),
      solo_us0_(counter("grid.solo_us")),
      iters_n0_(iters_histogram().count()),
      iters_sum0_(iters_histogram().sum()) {}

void MapreduceLayer::report(Report& rep,
                            const mapreduce::EvalCache::Stats& cache) const {
  const auto lanes = static_cast<double>(counter("grid.lanes") - lanes0_);
  const double fill_s =
      static_cast<double>(counter("grid.pair_us") - pair_us0_ +
                          counter("grid.solo_us") - solo_us0_) *
      1e-6;
  const std::uint64_t iters_n = iters_histogram().count() - iters_n0_;
  const double iters_sum = iters_histogram().sum() - iters_sum0_;
  rep.layer("grid.lanes", lanes, "count");
  rep.layer("grid.fill_s", fill_s, "s");
  rep.layer("grid.lanes_per_s", fill_s > 0.0 ? lanes / fill_s : 0.0, "1/s");
  rep.layer("grid.mean_fp_iters",
            iters_n == 0 ? 0.0 : iters_sum / static_cast<double>(iters_n),
            "count");
  rep.layer("grid.hit_rate", ratio(cache.grid_hits, cache.grid_misses),
            "ratio");
  rep.layer("eval_cache.env_hit_rate", ratio(cache.env_hits, cache.env_misses),
            "ratio");
  rep.layer("eval_cache.tail_hit_rate",
            ratio(cache.tail_hits, cache.tail_misses), "ratio");
}

}  // namespace perfbench
