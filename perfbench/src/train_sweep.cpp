// train_sweep: the offline pipeline an operator runs to (re)train ECoST —
// build_training_data on a cold EvalCache, the COLAO oracle over every
// training combo pair, and the REPTree MLM-STP fit. The seed is the sweep's
// RNG seed (feature noise, reservoir sampling, validation split).
#include <algorithm>
#include <array>
#include <cmath>
#include <sstream>

#include "common.hpp"
#include "core/db_io.hpp"
#include "decorators.hpp"
#include "tuning/brute_force.hpp"
#include "workloads/apps.hpp"

namespace perfbench {

using namespace ecost;
using mapreduce::JobSpec;

namespace {

struct Combo {
  const mapreduce::AppProfile* app;
  int size_idx;
  JobSpec job;
};

struct Inputs {
  std::unique_ptr<mapreduce::NodeEvaluator> eval;
  core::SweepOptions opts;
  std::vector<Combo> combos;
  std::vector<std::pair<std::size_t, std::size_t>> pair_idx;  ///< i <= j
  std::vector<std::pair<JobSpec, JobSpec>> pairs;
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  in.eval = std::make_unique<mapreduce::NodeEvaluator>();
  in.opts.seed = seed;
  for (const auto& app : workloads::training_apps()) {
    for (int si = 0; si < static_cast<int>(in.opts.sizes_gib.size()); ++si) {
      in.combos.push_back(
          {&app, si, JobSpec::of_gib(app, in.opts.sizes_gib[si])});
    }
  }
  for (std::size_t i = 0; i < in.combos.size(); ++i) {
    for (std::size_t j = i; j < in.combos.size(); ++j) {
      in.pair_idx.emplace_back(i, j);
      in.pairs.emplace_back(in.combos[i].job, in.combos[j].job);
    }
  }
  return in;
}

struct Pass {
  std::unique_ptr<mapreduce::EvalCache> cache;
  std::unique_ptr<core::TrainingData> td;
  std::unique_ptr<core::MlmStp> stp;
  std::vector<tuning::PairOutcome> oracle;
  double build_s = 0.0, colao_s = 0.0, fit_s = 0.0;

  double wall_s() const { return build_s + colao_s + fit_s; }
};

Pass run_pass(const Inputs& in, obs::TraceRecorder* rec) {
  Pass p;
  p.build_s = timed(rec, "sweep.build", [&] {
    p.cache = std::make_unique<mapreduce::EvalCache>(*in.eval);
    p.td = std::make_unique<core::TrainingData>(
        core::build_training_data(*p.cache, in.opts));
  });
  p.colao_s = timed(rec, "sweep.colao", [&] {
    p.oracle = tuning::BruteForce(*p.cache).colao_batch(in.pairs);
  });
  p.fit_s = timed(rec, "stp.fit", [&] {
    p.stp = std::make_unique<core::MlmStp>(core::ModelKind::RepTree, *p.td,
                                           in.eval->spec());
  });
  return p;
}

/// Digest of the STP regression rows (train + validation, every class pair).
std::uint64_t rows_digest(const core::TrainingData& td) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto* rows : {&td.train_rows, &td.validation_rows}) {
    for (const auto& [cp, ds] : *rows) {
      const std::string key = cp.to_string();
      h = fnv1a(h, key.data(), key.size());
      for (std::size_t r = 0; r < ds.size(); ++r) {
        const auto row = ds.x.row(r);
        h = fnv1a(h, row.data(), row.size_bytes());
      }
      h = fnv1a(h, ds.y.data(), ds.y.size() * sizeof(double));
    }
  }
  return h;
}

/// Digest of the best-config database in its on-disk format.
std::uint64_t db_digest(const core::TrainingData& td) {
  std::ostringstream os;
  core::save_database(os, td.db);
  const std::string s = os.str();
  return fnv1a(0xcbf29ce484222325ULL, s.data(), s.size());
}

/// Counts combos whose oracle EDP is missing or non-finite.
std::uint64_t failed_combos(const Pass& p, std::size_t expected) {
  std::uint64_t failed = expected > p.oracle.size()
                             ? expected - p.oracle.size()
                             : 0;
  for (const auto& o : p.oracle) {
    if (!std::isfinite(o.edp) || o.edp <= 0.0) ++failed;
  }
  return failed;
}

}  // namespace

void run_train_sweep(const RunOptions& opts, Report& rep,
                     obs::TraceRecorder* rec) {
  // Set-up is only the inputs, microseconds: repeat it for a tenth of a
  // second so its median is steady.
  Inputs in;
  const std::vector<double> setups =
      repeat_for(opts.trace ? 0.0 : 0.1, 1, [&] {
        return timed(rec, "setup", [&] { in = make_inputs(opts.seed); });
      });
  rep.info["training"] = "full (sizes 1/5/10 GiB)";

  // The first pass is kept for the output checks below; every later pass
  // must reproduce its training database byte for byte.
  std::uint64_t first_rows = 0, first_db = 0;
  Pass first;
  const MapreduceLayer mapreduce_layer;
  const auto check_pass = [&](Pass& p) {
    rep.attempted += in.pairs.size();
    rep.failed += failed_combos(p, in.pairs.size());
    const std::uint64_t rows = rows_digest(*p.td), db = db_digest(*p.td);
    if (!first.td) {
      first_rows = rows;
      first_db = db;
      mapreduce_layer.report(rep, p.cache->stats());
      first = std::move(p);
    } else {
      rep.check(rows == first_rows && db == first_db,
                "training database digest differs between passes");
    }
  };

  if (!opts.trace) {
    const std::vector<double> walls = repeat_for(opts.seconds, 3, [&] {
      Pass p = run_pass(in, nullptr);
      const double w = p.wall_s();
      check_pass(p);
      return w;
    });
    report_timings(rep, setups, walls);
  } else {
    // Traced and untraced passes alternate; the layer split is the one of
    // the traced pass with the median wall time.
    std::vector<std::array<double, 3>> splits;  ///< build, colao, fit
    std::vector<double> untraced;
    const std::vector<double> walls = repeat_for(opts.seconds, 1, [&] {
      Pass p = run_pass(in, rec);
      const double w = p.wall_s();
      splits.push_back({p.build_s, p.colao_s, p.fit_s});
      check_pass(p);
      Pass q = run_pass(in, nullptr);
      untraced.push_back(q.wall_s());
      check_pass(q);
      return w;
    });
    std::sort(splits.begin(), splits.end(), [](const auto& a, const auto& b) {
      return a[0] + a[1] + a[2] < b[0] + b[1] + b[2];
    });
    const auto& mid = splits[splits.size() / 2];
    rep.layer("sweep.build_s", mid[0], "s");
    rep.layer("sweep.colao_s", mid[1], "s");
    rep.layer("stp.fit_s", mid[2], "s");
    rep.layer("trace.overhead_pct",
              (median(walls) / median(untraced) - 1.0) * 100.0, "%");
  }
  rep.counts["grid.lanes"] =
      static_cast<std::uint64_t>(rep.per_layer["grid.lanes"].first);

  // Outputs of the trained pipeline (identical in every pass, checked above).
  const TimedTuner tuner(*first.stp);
  double energy = 0.0, makespan = 0.0, stp_edp = 0.0, oracle_edp = 0.0;
  std::vector<core::AppInfo> infos;
  for (const Combo& c : in.combos) {
    core::AppInfo info;
    info.job = c.job;
    info.features = first.td->profiles.at({c.app->abbrev, c.size_idx});
    info.cls = first.td->classifier.classify(info.features);
    infos.push_back(std::move(info));
  }
  for (std::size_t k = 0; k < in.pair_idx.size(); ++k) {
    const auto [i, j] = in.pair_idx[k];
    const mapreduce::PairConfig pc = tuner.predict(infos[i], infos[j]);
    const mapreduce::RunResult rr = first.cache->run_pair(
        infos[i].job, pc.first, infos[j].job, pc.second);
    energy += rr.energy_dyn_j;
    makespan += rr.makespan_s;
    stp_edp += rr.edp();
    oracle_edp += first.oracle[k].edp;
  }
  const double ape = stp_ape_pct(*first.td, *first.stp);
  rep.check(std::isfinite(energy) && energy > 0.0,
            "STP-tuned training pairs produced no finite energy");

  if (!opts.trace) {
    rep.e2e("energy_dyn_j", energy, "J");
    rep.e2e("edp_js", stp_edp, "Js");
    rep.e2e("stp_ape_pct", ape, "%");
  } else {
    rep.layer("stp.predict_calls", static_cast<double>(tuner.calls()),
              "count");
    rep.layer("stp.predict_s", tuner.seconds(), "s");
    rep.layer("stp.edp_gap_pct", (stp_edp / oracle_edp - 1.0) * 100.0, "%");
  }
  rep.counts["sweep.combo_pairs"] = in.pairs.size();
  rep.counts["sweep.db_entries"] = first.td->db.size();
  std::uint64_t train_rows = 0, valid_rows = 0;
  for (const auto& [cp, ds] : first.td->train_rows) train_rows += ds.size();
  for (const auto& [cp, ds] : first.td->validation_rows) {
    valid_rows += ds.size();
  }
  rep.counts["sweep.train_rows"] = train_rows;
  rep.counts["sweep.validation_rows"] = valid_rows;
  rep.sim["energy_dyn_j"] = energy;
  rep.sim["makespan_s"] = makespan;
  rep.sim["edp_js"] = stp_edp;
  rep.sim["stp_ape_pct"] = ape;
  rep.digests["training_rows"] = hex64(first_rows);
  rep.digests["config_db"] = hex64(first_db);
}

}  // namespace perfbench
