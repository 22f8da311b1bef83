// Timing decorators for the traced runs: they wrap the library's public
// policy interfaces (core::Dispatcher, core::SelfTuner), forward every call
// unchanged, and count and time the calls at that layer boundary.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/cluster_engine.hpp"
#include "core/stp.hpp"

namespace perfbench {

class TimedDispatcher final : public ecost::core::Dispatcher {
 public:
  /// Every retune call is counted, but only one in this many is timed: the
  /// engine calls retune about forty times per calendar event at r1024, and
  /// timing each one made the serve_r1024 pass about half again as long
  /// (sampling keeps the overhead to a few percent).
  static constexpr std::uint64_t kRetuneSample = 64;

  explicit TimedDispatcher(ecost::core::Dispatcher& inner) : inner_(inner) {}

  std::vector<ecost::core::Placement> plan(
      const ecost::core::ClusterView& view, double now_s) override {
    const auto t0 = Clock::now();
    auto out = inner_.plan(view, now_s);
    plan_s_.push_back(seconds_since(t0));
    return out;
  }

  std::optional<ecost::mapreduce::AppConfig> retune(
      const ecost::core::RunningJob& running,
      std::span<const ecost::core::RunningJob> others) override {
    std::optional<ecost::mapreduce::AppConfig> out;
    if (++retune_calls_ % kRetuneSample == 0) {
      const auto t0 = Clock::now();
      out = inner_.retune(running, others);
      retune_sampled_s_ += seconds_since(t0);
      ++retune_sampled_;
    } else {
      out = inner_.retune(running, others);
    }
    if (out.has_value()) ++retune_useful_;
    return out;
  }

  double next_arrival_s(double now_s) const override {
    const auto t0 = Clock::now();
    const double t = inner_.next_arrival_s(now_s);
    next_arrival_s_ += seconds_since(t0);
    return t;
  }

  /// Wall seconds of each plan() call, in call order.
  const std::vector<double>& plan_seconds() const { return plan_s_; }
  std::uint64_t retune_calls() const { return retune_calls_; }
  std::uint64_t retune_useful() const { return retune_useful_; }
  /// Sampled mean retune time scaled to every call.
  double retune_seconds_estimate() const {
    return retune_sampled_ == 0
               ? 0.0
               : retune_sampled_s_ / static_cast<double>(retune_sampled_) *
                     static_cast<double>(retune_calls_);
  }
  double next_arrival_seconds() const { return next_arrival_s_; }

 private:
  ecost::core::Dispatcher& inner_;
  std::vector<double> plan_s_;
  std::uint64_t retune_calls_ = 0;
  std::uint64_t retune_useful_ = 0;
  std::uint64_t retune_sampled_ = 0;
  double retune_sampled_s_ = 0.0;
  mutable double next_arrival_s_ = 0.0;
};

class TimedTuner final : public ecost::core::SelfTuner {
 public:
  explicit TimedTuner(const ecost::core::SelfTuner& inner) : inner_(inner) {}

  ecost::mapreduce::PairConfig predict(
      const ecost::core::AppInfo& a,
      const ecost::core::AppInfo& b) const override {
    const auto t0 = Clock::now();
    auto out = inner_.predict(a, b);
    ns_.fetch_add(static_cast<std::uint64_t>(seconds_since(t0) * 1e9),
                  std::memory_order_relaxed);
    calls_.fetch_add(1, std::memory_order_relaxed);
    return out;
  }
  std::string name() const override { return inner_.name(); }

  std::uint64_t calls() const { return calls_.load(); }
  double seconds() const { return static_cast<double>(ns_.load()) * 1e-9; }

 private:
  const ecost::core::SelfTuner& inner_;
  // Callers may predict from pool threads.
  mutable std::atomic<std::uint64_t> calls_{0};
  mutable std::atomic<std::uint64_t> ns_{0};
};

}  // namespace perfbench
