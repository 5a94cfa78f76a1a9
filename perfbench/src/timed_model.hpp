// Timing decorator around an ml::Model: the traced run hands this to
// SnapTrainer in place of the real model, so every call the core layer
// makes into the ml layer is counted and timed from outside src/.
//
// The trainer calls the model from ThreadPool workers, so the counters
// are relaxed atomics: each call adds its own count and busy
// nanoseconds, and the totals are read after train() has joined every
// parallel region. Results are forwarded untouched, which keeps the
// traced trajectory bitwise the plain one.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <span>
#include <string>

#include "ml/model.hpp"

namespace perfbench {

class TimedModel final : public snap::ml::Model {
 public:
  struct Counter {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> busy_ns{0};

    double busy_s() const noexcept {
      return static_cast<double>(busy_ns.load()) * 1e-9;
    }
  };

  explicit TimedModel(const snap::ml::Model& inner) : inner_(&inner) {}
  TimedModel(const TimedModel&) = delete;
  TimedModel& operator=(const TimedModel&) = delete;

  std::size_t param_count() const noexcept override {
    return inner_->param_count();
  }
  std::string name() const override { return inner_->name(); }

  double loss(const snap::linalg::Vector& params,
              const snap::data::Dataset& data) const override {
    const Span span(loss_);
    return inner_->loss(params, data);
  }

  snap::ml::LossGradient loss_gradient(
      const snap::linalg::Vector& params,
      const snap::data::Dataset& data) const override {
    const Span span(gradient_);
    return inner_->loss_gradient(params, data);
  }

  std::size_t predict(const snap::linalg::Vector& params,
                      std::span<const double> features) const override {
    const Span span(predict_);
    return inner_->predict(params, features);
  }

  snap::linalg::Vector initial_params(snap::common::Rng& rng) const override {
    return inner_->initial_params(rng);
  }

  const Counter& gradient_counter() const noexcept { return gradient_; }
  const Counter& loss_counter() const noexcept { return loss_; }
  const Counter& predict_counter() const noexcept { return predict_; }

  double busy_s() const noexcept {
    return gradient_.busy_s() + loss_.busy_s() + predict_.busy_s();
  }

 private:
  // Adds one call and its wall time to a counter when it goes out of
  // scope (exceptions included).
  class Span {
   public:
    explicit Span(Counter& counter)
        : counter_(counter), start_(std::chrono::steady_clock::now()) {}
    ~Span() {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
      counter_.calls.fetch_add(1, std::memory_order_relaxed);
      counter_.busy_ns.fetch_add(static_cast<std::uint64_t>(ns),
                                 std::memory_order_relaxed);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Counter& counter_;
    std::chrono::steady_clock::time_point start_;
  };

  const snap::ml::Model* inner_;
  mutable Counter gradient_;
  mutable Counter loss_;
  mutable Counter predict_;
};

}  // namespace perfbench
