// policy_r1024: the Figure-9 mapping-policy study scaled to the r1024
// racked topology — WS8's class mix cycled to 256 jobs, all eight policies
// through MappingPolicies, ECoST's STP from the quick training sweep. The
// seed is that sweep's RNG seed; the default (7) reproduces the committed
// scale baseline. (A shuffled job order moves ECoST's makespan on 256 jobs
// by tens of percent, so the order stays WS8's.)
#include <algorithm>
#include <cmath>

#include "common.hpp"
#include "core/mapping_policies.hpp"
#include "decorators.hpp"
#include "obs/metrics.hpp"
#include "sim/topology.hpp"
#include "workloads/scenarios.hpp"

namespace perfbench {

using namespace ecost;

namespace {

constexpr const char* kPolicies[] = {"SM",  "MNM1", "MNM2",  "SNM",
                                     "CBM", "PTM",  "ECoST", "UB"};
constexpr const char* kSpans[] = {
    "policy.SM",  "policy.MNM1", "policy.MNM2",  "policy.SNM",
    "policy.CBM", "policy.PTM",  "policy.ECoST", "policy.UB"};

struct Inputs {
  Trained trained;
  std::unique_ptr<sim::Topology> topo;
  std::vector<mapreduce::JobSpec> jobs;
  double gen_s = 0.0;
};

Inputs make_inputs(std::uint64_t seed, obs::TraceRecorder* rec) {
  Inputs in;
  in.trained = train(quick_sweep(seed), rec);
  in.gen_s = timed(rec, "workloads.gen", [&] {
    in.topo = std::make_unique<sim::Topology>(sim::Topology::preset("r1024"));
    in.jobs = workloads::scenario_by_name("WS8").scaled_jobs(
        1.0, workloads::scaled_job_count(in.topo->nodes()));
  });
  return in;
}

struct Row {
  core::PolicyResult r;
  double wall_s = 0.0;
  std::uint64_t jobs_finished = 0;
};

struct Pass {
  std::vector<Row> rows;
  double wall_s = 0.0;
};

/// One study: a fresh MappingPolicies (its own cold cache), every policy.
Pass run_pass(const Inputs& in, const core::SelfTuner& stp,
              obs::MetricsRegistry& reg, obs::TraceRecorder* rec) {
  Pass p;
  obs::Counter& jobs_done = reg.counter("engine.jobs_finished");
  const auto t0 = Clock::now();
  core::MappingPolicies mp(*in.trained.eval, in.jobs, *in.topo);
  mp.set_obs(nullptr, &reg);
  const core::TrainingData& td = *in.trained.td;
  const auto run = [&](int k, auto&& fn) {
    Row row;
    const std::uint64_t before = jobs_done.value();
    row.wall_s = timed(rec, kSpans[k], [&] { row.r = fn(); });
    row.jobs_finished = jobs_done.value() - before;
    p.rows.push_back(row);
  };
  run(0, [&] { return mp.serial_mapping(); });
  run(1, [&] { return mp.multi_node(2); });
  run(2, [&] { return mp.multi_node(4); });
  run(3, [&] { return mp.single_node(); });
  run(4, [&] { return mp.core_balance(); });
  run(5, [&] { return mp.predict_tuning(td); });
  run(6, [&] { return mp.ecost(td, stp); });
  run(7, [&] { return mp.upper_bound(); });
  p.wall_s = seconds_since(t0);
  return p;
}

bool same_outcome(const core::PolicyResult& a, const core::PolicyResult& b) {
  return a.policy == b.policy && a.events == b.events &&
         a.net_recomputes == b.net_recomputes &&
         a.makespan_s == b.makespan_s && a.energy_dyn_j == b.energy_dyn_j;
}

}  // namespace

void run_policy_r1024(const RunOptions& opts, Report& rep,
                      obs::TraceRecorder* rec) {
  const MapreduceLayer mapreduce_layer;
  Inputs in;
  const std::vector<double> setups =
      repeat_for(0.0, opts.trace ? 1 : kSetupReps, [&] {
        return timed(rec, "setup", [&] { in = make_inputs(opts.seed, rec); });
      });
  rep.info["training"] = "quick (1 GiB, seed " + std::to_string(opts.seed) +
                         ")";

  obs::MetricsRegistry reg;
  Pass first;
  const auto check_pass = [&](const Pass& p) {
    rep.attempted += p.rows.size();
    for (std::size_t k = 0; k < p.rows.size(); ++k) {
      const Row& row = p.rows[k];
      const bool ok = row.r.policy == kPolicies[k] &&
                      row.jobs_finished == in.jobs.size() &&
                      std::isfinite(row.r.makespan_s) &&
                      row.r.makespan_s > 0.0 &&
                      std::isfinite(row.r.energy_dyn_j) &&
                      row.r.energy_dyn_j > 0.0;
      if (!ok) ++rep.failed;
    }
    if (first.rows.empty()) {
      first = p;
      return;
    }
    for (std::size_t k = 0; k < p.rows.size(); ++k) {
      rep.check(same_outcome(p.rows[k].r, first.rows[k].r),
                std::string("policy ") + kPolicies[k] +
                    " outcome differs between passes");
    }
  };

  const core::MlmStp& stp = *in.trained.stp;
  if (!opts.trace) {
    const std::vector<double> walls = repeat_for(opts.seconds, 3, [&] {
      const Pass p = run_pass(in, stp, reg, nullptr);
      check_pass(p);
      return p.wall_s;
    });
    report_timings(rep, setups, walls);
  } else {
    std::vector<Pass> traced;
    std::vector<double> untraced;
    std::uint64_t predict_calls = 0;
    double predict_s = 0.0;
    const std::vector<double> walls = repeat_for(opts.seconds, 1, [&] {
      const TimedTuner tuner(stp);
      Pass p = run_pass(in, tuner, reg, rec);
      check_pass(p);
      if (traced.empty()) {
        mapreduce_layer.report(rep, in.trained.cache->stats());
        predict_calls = tuner.calls();
      }
      predict_s += tuner.seconds();
      traced.push_back(p);
      const Pass q = run_pass(in, stp, reg, nullptr);
      check_pass(q);
      untraced.push_back(q.wall_s);
      return p.wall_s;
    });
    std::sort(traced.begin(), traced.end(), [](const Pass& a, const Pass& b) {
      return a.wall_s < b.wall_s;
    });
    const Pass& mid = traced[traced.size() / 2];
    double run_s = 0.0;
    std::uint64_t events = 0, recomputes = 0;
    for (std::size_t k = 0; k < mid.rows.size(); ++k) {
      const std::string name = std::string("policy.") + kPolicies[k];
      rep.layer(name + ".wall_s", mid.rows[k].wall_s, "s");
      rep.layer(name + ".events", static_cast<double>(mid.rows[k].r.events),
                "count");
      run_s += mid.rows[k].wall_s;
      events += mid.rows[k].r.events;
      recomputes += mid.rows[k].r.net_recomputes;
    }
    rep.layer("engine.events", static_cast<double>(events), "count");
    rep.layer("engine.run_s", run_s, "s");
    rep.layer("net.recomputes", static_cast<double>(recomputes), "count");
    rep.layer("stp.predict_calls", static_cast<double>(predict_calls),
              "count");
    rep.layer("stp.predict_s",
              predict_s / static_cast<double>(traced.size()), "s");
    rep.layer("stp.fit_s", in.trained.fit_s, "s");
    rep.layer("sweep.build_s", in.trained.build_s, "s");
    rep.layer("workloads.gen_s", in.gen_s, "s");
    rep.layer("trace.overhead_pct",
              (median(walls) / median(untraced) - 1.0) * 100.0, "%");
  }

  const core::PolicyResult& ecost_row = first.rows[6].r;
  const double ape = stp_ape_pct(*in.trained.td, stp);
  if (!opts.trace) {
    rep.e2e("energy_dyn_j", ecost_row.energy_dyn_j, "J");
    rep.e2e("edp_js", ecost_row.edp(), "Js");
    rep.e2e("stp_ape_pct", ape, "%");
  }
  std::uint64_t events = 0, recomputes = 0;
  for (const Row& row : first.rows) {
    rep.counts["policy." + row.r.policy + ".events"] = row.r.events;
    rep.counts["policy." + row.r.policy + ".net_recomputes"] =
        row.r.net_recomputes;
    rep.sim["policy." + row.r.policy + ".makespan_s"] = row.r.makespan_s;
    rep.sim["policy." + row.r.policy + ".energy_dyn_j"] = row.r.energy_dyn_j;
    events += row.r.events;
    recomputes += row.r.net_recomputes;
  }
  rep.counts["events"] = events;
  rep.counts["net_recomputes"] = recomputes;
  rep.counts["jobs"] = in.jobs.size();
  rep.sim["stp_ape_pct"] = ape;
}

}  // namespace perfbench
