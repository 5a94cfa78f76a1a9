// Accumulated Parameter Error (APE) control — paper §IV-C, Algorithm 1.
//
// SNAP withholds parameters whose change is below a per-stage threshold.
// The error a receiver accrues from missing updates is bounded by
// eq. (27):  |APE_k| ≤ Σ_l (1 + αG)^l · max_j |Δx^{k−l}|,
// where G bounds the second-order gradient. Algorithm 1 divides training
// into stages: each stage has an APE budget T and a target length I,
// from which the per-iteration send threshold is
//     Δ_max = T / (I · (1 + αG)^I)                    (Algorithm 1, line 4)
// so that even if every iteration withholds the maximum allowed amount,
// the stage's accumulated error stays below T. When the running APE
// estimate reaches T (or the stage runs its I iterations), the budget is
// reduced — the paper's §V policy: T starts at 10% of the mean |param|,
// shrinks by 10% per stage, and filtering stops once T < ε.
//
// Each edge server runs its own controller on purely local state.
#pragma once

#include <cstddef>

namespace snap::core {

struct ApeConfig {
  /// 1 + αG, the per-iteration error growth factor (paper's example and
  /// §V use αG = 0.01).
  double growth_factor = 1.01;
  /// Initial budget as a fraction of the mean |parameter| (§V: 10%).
  double initial_budget_fraction = 0.10;
  /// Multiplicative budget decay between stages (§V: reduce by 10%).
  double budget_decay = 0.90;
  /// Minimum iterations a stage's threshold stays in effect (§V: 10).
  std::size_t stage_iterations = 10;
  /// Hard cap on a stage's length: a stage that never consumes its
  /// budget (training quiesced under the current threshold) still
  /// advances after this many iterations, so the threshold keeps
  /// decaying toward ε and the residual view error keeps draining.
  /// 0 disables the cap.
  std::size_t max_stage_iterations = 12;
  /// Filtering stops once the budget drops below epsilon.
  double epsilon = 1e-4;
};

/// Per-node controller. Construct once the initial parameters are known,
/// then each iteration: read threshold(), filter, and report the largest
/// withheld change via record_iteration().
class ApeController {
 public:
  /// `mean_abs_param` is the node-local mean of |x_p| at start (used for
  /// the initial budget, §V).
  ApeController(const ApeConfig& config, double mean_abs_param);

  /// Current per-parameter send threshold Δ_max. Zero once the budget
  /// has decayed below ε (i.e. behave like SNAP-0).
  double threshold() const noexcept { return threshold_; }

  /// True while filtering is still active (budget ≥ ε).
  bool active() const noexcept { return active_; }

  /// Current stage budget T.
  double budget() const noexcept { return budget_; }

  /// Running APE upper-bound estimate for the current stage.
  double accumulated_error() const noexcept { return accumulated_; }

  /// Stage index (0-based).
  std::size_t stage() const noexcept { return stage_; }

  /// Records the end of an iteration. `max_withheld_change` is
  /// max over withheld parameters of |Δx| (0 when everything was sent).
  /// Advances to the next stage when the APE estimate has consumed the
  /// budget and the stage has run its §V minimum length. Callers should
  /// watch stage() after this call: a stage advance is the paper's cue
  /// to "restart the iteration from the solution derived" so the error
  /// the stage accrued does not stay baked into EXTRA's integral state.
  void record_iteration(double max_withheld_change);

  const ApeConfig& config() const noexcept { return config_; }

  /// Checkpoint codec (common::field) of the controller's mutable state.
  /// The config is reconstruction-time (the trainer re-supplies it); a
  /// load overwrites everything the constructor derived from it.
  template <class Self, class Io>
  static void transfer(Self& self, Io& io) {
    fields(io, self.budget_, self.threshold_, self.accumulated_,
           self.stage_, self.iterations_in_stage_, self.active_);
  }

 private:
  void recompute_threshold();
  void advance_stage();

  ApeConfig config_;
  double budget_;
  double threshold_ = 0.0;
  double accumulated_ = 0.0;
  std::size_t stage_ = 0;
  std::size_t iterations_in_stage_ = 0;
  bool active_ = true;
};

}  // namespace snap::core
