// serve_r1024 and serve_burst16: a bursty arrival trace replayed through the
// streaming ECoST dispatcher, trained once with the quick sweep (seed 7).
// The seed draws the application of each arrival; the default (2026) is the
// committed soak trace.
//
//   serve_r1024   — 100k jobs, mean gap 2 s, r1024 racked fabric. It never
//                   queues, so per-event cluster scans and the retune sweep
//                   dominate.
//   serve_burst16 — 200k jobs, mean gap 30 s, 16 flat nodes, arrivals
//                   released in 300 s batches like a cron-driven submitter,
//                   so empty nodes see several waiting jobs at once and the
//                   pair, backfill, degraded and deadline rungs all fire.
//
// Untraced passes go through ServeDaemon::run_trace. Traced passes assemble
// the same SubmitQueue + StreamDispatcher + ClusterEngine with the timing
// decorators in between, and must reproduce the daemon's outcome exactly.
#include <algorithm>
#include <cmath>
#include <thread>

#include "common.hpp"
#include "decorators.hpp"
#include "obs/metrics.hpp"
#include "serve/daemon.hpp"
#include "sim/topology.hpp"
#include "workloads/arrivals.hpp"

namespace perfbench {

using namespace ecost;
using serve::StreamDispatcher;

namespace {

constexpr std::uint64_t kTrainingSeed = 7;
constexpr std::uint64_t kTraceSeed = 2026;
constexpr double kBatchPeriodS = 300.0;

struct Inputs {
  Trained trained;
  std::vector<workloads::Arrival> arrivals;
  serve::DaemonOptions dopts;
  double gen_s = 0.0;
};

Inputs make_inputs(const RunOptions& opts, obs::TraceRecorder* rec) {
  Inputs in;
  in.trained = train(quick_sweep(kTrainingSeed), rec);
  const bool r1024 = opts.workload == "serve_r1024";
  in.gen_s = timed(rec, "workloads.gen", [&] {
    const std::size_t n = r1024 ? 100000 : 200000;
    workloads::ArrivalSpec spec = workloads::ArrivalSpec::preset("bursty");
    spec.mean_gap_s = r1024 ? 2.0 : 30.0;
    spec.seed = kTraceSeed;
    in.arrivals = workloads::ArrivalProcess(spec).take(n);
    // The arrival times stay those of the committed trace: its burst phases
    // last tens of minutes, so a re-drawn schedule moves the makespan by
    // tens of percent. The seed re-draws which application each job is.
    spec.seed = opts.seed;
    const std::vector<workloads::Arrival> mix =
        workloads::ArrivalProcess(spec).take(n);
    for (std::size_t i = 0; i < n; ++i) {
      in.arrivals[i].app = mix[i].app;
      if (!r1024) {
        in.arrivals[i].t_s =
            std::ceil(in.arrivals[i].t_s / kBatchPeriodS) * kBatchPeriodS;
      }
    }
  });
  if (r1024) {
    in.dopts.topology = sim::Topology::preset("r1024");
    in.dopts.nodes = in.dopts.topology->nodes();
  } else {
    in.dopts.nodes = 16;
  }
  in.dopts.serve.deadline_s = 600.0;
  in.dopts.serve.tuner_cost_s = 5.0;
  in.dopts.serve.tuner_budget_s = 30.0;
  in.dopts.serve.serve_threads = 1;
  return in;
}

/// What one replay produced, from either path.
struct Pass {
  core::ClusterOutcome outcome;
  StreamDispatcher::Stats stats;
  serve::DecisionCache::Stats memo;
  std::vector<StreamDispatcher::Decision> decisions;
  std::uint64_t producer_blocked = 0;
  double wall_s = 0.0;
};

Pass run_daemon(const Inputs& in) {
  Pass p;
  const auto t0 = Clock::now();
  serve::ServeDaemon daemon(*in.trained.eval, *in.trained.cache,
                            *in.trained.td, *in.trained.stp, in.dopts);
  serve::ServeReport r = daemon.run_trace(in.arrivals);
  p.wall_s = seconds_since(t0);
  p.outcome = std::move(r.outcome);
  p.stats = r.stats;
  p.memo = r.cache;
  p.decisions = std::move(r.decisions);
  p.producer_blocked = r.producer_blocked;
  return p;
}

struct TracedPass {
  Pass pass;
  std::vector<double> plan_s;  ///< sorted
  std::uint64_t retune_calls = 0, retune_useful = 0;
  double retune_s = 0.0, next_arrival_s = 0.0, engine_run_s = 0.0;
  std::uint64_t predict_calls = 0;
  double predict_s = 0.0, classify_s = 0.0;
};

/// ServeDaemon::run_trace's assembly, with the dispatcher and the tuner
/// behind timing decorators.
TracedPass run_traced(const Inputs& in, obs::TraceRecorder* rec) {
  TracedPass tp;
  obs::Counter& classify_us =
      obs::MetricsRegistry::global().counter("serve.classify_us");
  const std::uint64_t classify0 = classify_us.value();
  const auto t0 = Clock::now();
  const TimedTuner tuner(*in.trained.stp);
  serve::SubmitQueue queue(in.dopts.submit_capacity);
  StreamDispatcher disp(*in.trained.eval, *in.trained.cache, *in.trained.td,
                        tuner, queue, in.dopts.serve);
  core::ClusterEngine engine =
      in.dopts.topology.has_value()
          ? core::ClusterEngine(*in.trained.eval, *in.dopts.topology,
                                in.dopts.slots_per_node)
          : core::ClusterEngine(*in.trained.eval, in.dopts.nodes,
                                in.dopts.slots_per_node);
  TimedDispatcher timed_disp(disp);

  std::thread feeder([&queue, &in] {
    std::uint64_t id = 0;
    for (const workloads::Arrival& a : in.arrivals) {
      serve::Submission s;
      s.id = ++id;
      s.arrival_s = a.t_s;
      s.job = mapreduce::JobSpec::of_gib(a.app, a.gib);
      if (!queue.submit(std::move(s))) break;
    }
    queue.close();
  });
  try {
    tp.engine_run_s = timed(rec, "engine.run", [&] {
      tp.pass.outcome = engine.run(timed_disp);
    });
  } catch (...) {
    queue.close();
    feeder.join();
    throw;
  }
  feeder.join();
  tp.pass.wall_s = seconds_since(t0);

  tp.pass.stats = disp.stats();
  tp.pass.memo = disp.cache_stats();
  tp.pass.decisions.assign(disp.decisions().begin(), disp.decisions().end());
  tp.pass.producer_blocked = queue.blocked();
  tp.plan_s = timed_disp.plan_seconds();
  std::sort(tp.plan_s.begin(), tp.plan_s.end());
  tp.retune_calls = timed_disp.retune_calls();
  tp.retune_useful = timed_disp.retune_useful();
  tp.retune_s = timed_disp.retune_seconds_estimate();
  tp.next_arrival_s = timed_disp.next_arrival_seconds();
  tp.predict_calls = tuner.calls();
  tp.predict_s = tuner.seconds();
  tp.classify_s = static_cast<double>(classify_us.value() - classify0) * 1e-6;
  return tp;
}

/// Jobs without exactly one decision and one finish time.
std::uint64_t failed_jobs(const Pass& p, std::size_t jobs) {
  std::vector<std::uint8_t> decided(jobs + 1, 0), finished(jobs + 1, 0);
  for (const auto& d : p.decisions) {
    if (d.job_id >= 1 && d.job_id <= jobs) ++decided[d.job_id];
  }
  for (const auto& [id, t] : p.outcome.finish_times) {
    if (id >= 1 && id <= jobs && std::isfinite(t)) ++finished[id];
  }
  std::uint64_t failed = 0;
  for (std::size_t id = 1; id <= jobs; ++id) {
    if (decided[id] != 1 || finished[id] != 1) ++failed;
  }
  return failed;
}

bool same_outcome(const Pass& a, const Pass& b) {
  const auto& x = a.stats;
  const auto& y = b.stats;
  return x.pairs == y.pairs && x.solos == y.solos &&
         x.backfills == y.backfills && x.degraded == y.degraded &&
         x.deadline_placements == y.deadline_placements &&
         x.deferred == y.deferred && a.outcome.events == b.outcome.events &&
         a.outcome.net_recomputes == b.outcome.net_recomputes &&
         a.outcome.energy_dyn_j == b.outcome.energy_dyn_j &&
         a.outcome.makespan_s == b.outcome.makespan_s;
}

/// Highest of the standard percentiles with at least ten samples beyond it.
double pmax_percent(std::size_t n) {
  double best = 50.0;
  for (double p : {90.0, 99.0, 99.9, 99.99, 99.999}) {
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0) best = p;
  }
  return best;
}

}  // namespace

void run_serve(const RunOptions& opts, Report& rep, obs::TraceRecorder* rec) {
  const MapreduceLayer mapreduce_layer;
  Inputs in;
  const std::vector<double> setups =
      repeat_for(0.0, opts.trace ? 1 : kSetupReps, [&] {
        return timed(rec, "setup", [&] { in = make_inputs(opts, rec); });
      });
  rep.info["training"] = "quick (1 GiB, seed 7)";
  const std::size_t jobs = in.arrivals.size();

  Pass first;
  const auto check_pass = [&](Pass& p) {
    rep.attempted += jobs;
    rep.failed += failed_jobs(p, jobs);
    rep.check(p.stats.decisions() == jobs,
              "decision count differs from the job count");
    if (first.decisions.empty()) {
      first = std::move(p);
    } else {
      rep.check(same_outcome(p, first),
                "serve outcome differs between passes or paths");
    }
  };

  if (!opts.trace) {
    const std::vector<double> walls = repeat_for(opts.seconds, 3, [&] {
      Pass p = run_daemon(in);
      const double w = p.wall_s;
      check_pass(p);
      return w;
    });
    report_timings(rep, setups, walls);
  } else {
    std::vector<TracedPass> traced;
    std::vector<double> untraced;
    const std::vector<double> walls = repeat_for(opts.seconds, 1, [&] {
      TracedPass tp = run_traced(in, rec);
      const double w = tp.pass.wall_s;
      check_pass(tp.pass);  // may move the outcome out; wall_s stays
      if (traced.empty()) {
        mapreduce_layer.report(rep, in.trained.cache->stats());
      }
      traced.push_back(std::move(tp));
      Pass q = run_daemon(in);
      untraced.push_back(q.wall_s);
      check_pass(q);
      return w;
    });
    std::sort(traced.begin(), traced.end(),
              [](const TracedPass& a, const TracedPass& b) {
                return a.pass.wall_s < b.pass.wall_s;
              });
    const TracedPass& mid = traced[traced.size() / 2];
    double plan_total = 0.0;
    for (double s : mid.plan_s) plan_total += s;
    const double pmax = pmax_percent(mid.plan_s.size());
    const auto n_plan = static_cast<double>(mid.plan_s.size());
    rep.layer("serve.plan_calls", n_plan, "count");
    rep.layer("serve.plan_s", plan_total, "s");
    rep.layer("serve.plan_p50_us", sorted_quantile(mid.plan_s, 0.5) * 1e6,
              "us");
    rep.layer("serve.plan_pmax_us",
              sorted_quantile(mid.plan_s, pmax / 100.0) * 1e6, "us");
    rep.layer("serve.plan_pmax_pct", pmax, "%");
    rep.layer("serve.retune_calls", static_cast<double>(mid.retune_calls),
              "count");
    rep.layer("serve.retune_useful_ratio",
              mid.retune_calls == 0
                  ? 0.0
                  : static_cast<double>(mid.retune_useful) /
                        static_cast<double>(mid.retune_calls),
              "ratio");
    rep.layer("serve.retune_s", mid.retune_s, "s");
    rep.layer("serve.next_arrival_s", mid.next_arrival_s, "s");
    rep.layer("serve.classify_s", mid.classify_s, "s");
    rep.layer("stp.predict_calls", static_cast<double>(mid.predict_calls),
              "count");
    rep.layer("stp.predict_s", mid.predict_s, "s");
    rep.layer("engine.run_s", mid.engine_run_s, "s");
    rep.layer("engine.self_s",
              mid.engine_run_s - plan_total - mid.retune_s -
                  mid.next_arrival_s,
              "s");
    rep.layer("stp.fit_s", in.trained.fit_s, "s");
    rep.layer("sweep.build_s", in.trained.build_s, "s");
    rep.layer("workloads.gen_s", in.gen_s, "s");
    rep.layer("trace.overhead_pct",
              (median(walls) / median(untraced) - 1.0) * 100.0, "%");
  }

  // Simulated outcome (identical in every pass and on both paths).
  const auto& st = first.stats;
  std::vector<double> waits;
  waits.reserve(first.decisions.size());
  for (const auto& d : first.decisions) waits.push_back(d.waited_s);
  std::sort(waits.begin(), waits.end());
  const double ape = stp_ape_pct(*in.trained.td, *in.trained.stp);
  if (!opts.trace) {
    rep.e2e("energy_dyn_j", first.outcome.energy_dyn_j, "J");
    rep.e2e("edp_js", first.outcome.edp(), "Js");
    rep.e2e("stp_ape_pct", ape, "%");
  } else {
    rep.layer("serve.memo_hit_rate", first.memo.hit_rate(), "ratio");
    rep.layer("serve.producer_blocked",
              static_cast<double>(first.producer_blocked), "count");
    rep.layer("serve.pairs", static_cast<double>(st.pairs), "count");
    rep.layer("serve.solos", static_cast<double>(st.solos), "count");
    rep.layer("serve.backfills", static_cast<double>(st.backfills), "count");
    rep.layer("serve.degraded", static_cast<double>(st.degraded), "count");
    rep.layer("serve.deadline", static_cast<double>(st.deadline_placements),
              "count");
    rep.layer("serve.deferred", static_cast<double>(st.deferred), "count");
    rep.layer("serve.p99_wait_s", sorted_quantile(waits, 0.99), "s");
    rep.layer("serve.wait_samples", static_cast<double>(waits.size()),
              "count");
    rep.layer("engine.events", static_cast<double>(first.outcome.events),
              "count");
    rep.layer("net.recomputes",
              static_cast<double>(first.outcome.net_recomputes), "count");
  }
  rep.counts["jobs"] = jobs;
  rep.counts["decisions"] = st.decisions();
  rep.counts["pairs"] = st.pairs;
  rep.counts["solos"] = st.solos;
  rep.counts["backfills"] = st.backfills;
  rep.counts["degraded"] = st.degraded;
  rep.counts["deadline_placements"] = st.deadline_placements;
  rep.counts["deferred"] = st.deferred;
  rep.counts["events"] = first.outcome.events;
  rep.counts["net_recomputes"] = first.outcome.net_recomputes;
  rep.sim["energy_dyn_j"] = first.outcome.energy_dyn_j;
  rep.sim["makespan_s"] = first.outcome.makespan_s;
  rep.sim["p50_wait_s"] = sorted_quantile(waits, 0.5);
  rep.sim["p99_wait_s"] = sorted_quantile(waits, 0.99);
  rep.sim["stp_ape_pct"] = ape;
}

}  // namespace perfbench
