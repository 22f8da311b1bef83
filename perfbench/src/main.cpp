// perfbench — the repository benchmark harness.
//
// Usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                  [--trace-out FILE]
//
// Runs one workload (train_sweep, policy_r1024, serve_r1024, serve_burst16)
// for about S seconds and prints a human summary followed by one JSON
// report line: host block, end-to-end metrics (untraced run) or per-layer
// metrics (traced run), exact simulated counts, digests, attempted/failed
// operations and correctness errors. perfbench/run.py builds this binary
// and turns the report into the benchmark's result line.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common.hpp"
#include "mapreduce/env_solver.hpp"
#include "util/thread_pool.hpp"

using namespace perfbench;

namespace {

std::uint64_t default_seed(const std::string& workload) {
  return workload == "serve_r1024" || workload == "serve_burst16" ? 2026 : 7;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid(0x80000000, &regs[0], &regs[1], &regs[2], &regs[3]) != 0 &&
      regs[0] >= 0x80000004) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string s(reinterpret_cast<const char*>(regs), sizeof(regs));
    s.erase(s.find_last_not_of(std::string(" \0", 2)) + 1);
    s.erase(0, s.find_first_not_of(' '));
    return s;
  }
#endif
  return "unknown";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

template <typename Map, typename Fn>
std::string json_object(const Map& m, Fn&& value) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ", ";
    out += json_str(k) + ": " + value(v);
  }
  return out + "}";
}

std::string metrics_json(const Report::Metrics& m) {
  return json_object(m, [](const std::pair<double, std::string>& v) {
    return "{\"value\": " + json_num(v.first) +
           ", \"unit\": " + json_str(v.second) + "}";
  });
}

int usage() {
  std::cerr << "usage: perfbench --workload NAME [--seed N] [--seconds S]"
               " [--trace 0|1] [--trace-out FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opts;
  std::string trace_out;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (flag == "--workload") {
      opts.workload = v;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      opts.seconds = std::atof(v);
    } else if (flag == "--trace") {
      opts.trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--trace-out") {
      trace_out = v;
    } else {
      return usage();
    }
  }
  const bool known = opts.workload == "train_sweep" ||
                     opts.workload == "policy_r1024" ||
                     opts.workload == "serve_r1024" ||
                     opts.workload == "serve_burst16";
  if (!known || !(opts.seconds >= 0.0)) return usage();
  if (!have_seed) opts.seed = default_seed(opts.workload);

  // A fixed pool of one participant (the caller), so reports stay
  // comparable between hosts. A parallel pass waits for its slowest
  // thread: with four participants on a shared 4-vCPU host, train_sweep's
  // median moved by 23 % between two sets of runs as other tenants' load
  // changed, where the single-threaded workloads moved by under 10 %.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  opts.pool = 1;
  ecost::ThreadPool::configure_global(opts.pool - 1);

  ecost::obs::TraceRecorder recorder;
  ecost::obs::TraceRecorder* rec = opts.trace ? &recorder : nullptr;
  if (rec != nullptr) rec->name_lane(0, 1, "perfbench layers");

  Report rep;
  try {
    if (opts.workload == "train_sweep") {
      run_train_sweep(opts, rep, rec);
    } else if (opts.workload == "policy_r1024") {
      run_policy_r1024(opts, rep, rec);
    } else {
      run_serve(opts, rep, rec);
    }
  } catch (const std::exception& e) {
    rep.errors.push_back(std::string("exception: ") + e.what());
  }
  if (!opts.trace) rep.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  rep.check(rep.attempted > 0, "no operation was attempted");
  rep.check(rep.failed == 0, std::to_string(rep.failed) + " of " +
                                 std::to_string(rep.attempted) +
                                 " operations failed");

  if (rec != nullptr && !trace_out.empty()) {
    std::ofstream tf(trace_out);
    rec->export_chrome_json(tf);
    rep.check(tf.good(), "cannot write " + trace_out);
  }

  // Human summary.
  std::cout << "perfbench " << opts.workload << " seed " << opts.seed
            << (opts.trace ? " (traced)" : "") << "\n";
  for (const auto* m : {&rep.end_to_end, &rep.per_layer}) {
    for (const auto& [name, v] : *m) {
      std::cout << "  " << name << " = " << json_num(v.first) << " "
                << v.second << "\n";
    }
  }
  for (const auto& [name, v] : rep.counts) {
    std::cout << "  [count] " << name << " = " << v << "\n";
  }
  for (const auto& [name, v] : rep.digests) {
    std::cout << "  [digest] " << name << " = " << v << "\n";
  }
  for (const auto& e : rep.errors) std::cout << "  ERROR: " << e << "\n";

  std::ostringstream js;
  js << "{\"workload\": " << json_str(opts.workload)
     << ", \"seed\": " << opts.seed
     << ", \"trace\": " << (opts.trace ? "true" : "false")
     << ", \"host\": {\"cpu\": " << json_str(cpu_model())
     << ", \"simd_isa\": "
     << json_str(ecost::mapreduce::solve_lanes_simd_isa())
     << ", \"simd_width\": " << ecost::mapreduce::solve_lanes_simd_width()
     << ", \"nproc\": " << hw << ", \"build_type\": "
     << json_str(PERFBENCH_BUILD_TYPE)
     << ", \"compiler\": " << json_str(PERFBENCH_COMPILER)
     << ", \"pool\": " << opts.pool << "}"
     << ", \"info\": " << json_object(rep.info, json_str)
     << ", \"correct\": " << (rep.errors.empty() ? "true" : "false")
     << ", \"errors\": [";
  for (std::size_t i = 0; i < rep.errors.size(); ++i) {
    js << (i > 0 ? ", " : "") << json_str(rep.errors[i]);
  }
  js << "], \"attempted\": " << rep.attempted << ", \"failed\": " << rep.failed
     << ", \"end_to_end\": " << metrics_json(rep.end_to_end)
     << ", \"per_layer\": " << metrics_json(rep.per_layer)
     << ", \"counts\": "
     << json_object(rep.counts,
                    [](std::uint64_t v) { return std::to_string(v); })
     << ", \"sim\": " << json_object(rep.sim, json_num)
     << ", \"digests\": " << json_object(rep.digests, json_str) << "}";
  std::cout << js.str() << std::endl;
  return rep.errors.empty() ? 0 : 1;
}
