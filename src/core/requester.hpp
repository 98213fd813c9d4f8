// Requester-side model: the feedback weight of Eq. 5, its configuration,
// and the requester's running beliefs about a fleet.
//
//   w_i = rho / |l_i - l̄| - kappa * e_i^mal - gamma * A_i
//
// where |l_i - l̄| is the worker's mean absolute score deviation from expert
// consensus, e_i^mal the estimated maliciousness probability, and A_i the
// number of collusion partners. A floor on the deviation keeps the weight
// finite for perfectly accurate workers, and a cap bounds the requester's
// valuation of any single worker.
//
// RequesterState is the one estimator of §III-B that the simulator and the
// serve ingest session share: EMA estimates of each worker's accuracy and
// maliciousness, updated from one noisy accuracy sample per round, the
// Eq. 5 weight they imply, the design spec a contract is solved for, and
// one wire section that the SCKP and ISES checkpoint formats both carry.
#pragma once

#include <cstddef>
#include <vector>

#include "contract/designer.hpp"
#include "effort/effort_model.hpp"
#include "util/wire.hpp"

namespace ccd::core {

struct RequesterConfig {
  /// Eq. 5 coefficients (paper defaults: kappa = gamma = 0.1).
  double rho = 1.0;
  double kappa = 0.1;
  double gamma = 0.1;
  /// Weight on total compensation in the requester's utility (Eq. 7).
  double mu = 1.0;
  /// Worker effort-cost weight beta (paper default 1).
  double beta = 1.0;
  /// Feedback-influence weight omega attributed to suspected malicious
  /// workers (the paper leaves omega unspecified; swept in ablations).
  double omega_malicious = 0.5;
  /// Number of effort intervals m in each designed contract.
  std::size_t intervals = 20;
  /// Floor on |l_i - l̄| (score stars) to keep 1/deviation finite.
  double accuracy_floor = 0.25;
  /// Cap on any single worker's feedback weight.
  double weight_cap = 4.0;

  void validate() const;
};

/// Eq. 5 with floor and cap applied. `accuracy_distance` is the mean
/// |l_i - l̄| in stars; `malicious_probability` in [0,1]; `partners` = A_i.
double feedback_weight(const RequesterConfig& config, double accuracy_distance,
                       double malicious_probability, std::size_t partners);

class RequesterState {
 public:
  RequesterState() = default;

  /// Neutral starting estimates for `workers` workers: accuracy distance
  /// at config.accuracy_floor, maliciousness 0.05. Throws ccd::Error on an
  /// invalid config or an ema_alpha outside (0, 1].
  RequesterState(const RequesterConfig& config, double ema_alpha,
                 double suspicion_threshold, std::size_t workers);

  /// Resume from saved estimates (both vectors sized to the fleet).
  RequesterState(const RequesterConfig& config, double ema_alpha,
                 double suspicion_threshold, std::vector<double> est_accuracy,
                 std::vector<double> est_malicious);

  /// Fold worker `i`'s accuracy sample (|score - consensus|, >= 0) into
  /// its estimates: an EMA of the sample, and an EMA of the sigmoid
  /// maliciousness signal 1 / (1 + exp(-4 (sample - 0.9))) — biased
  /// workers produce large deviations.
  void observe(std::size_t i, double accuracy_sample);

  /// Eq. 5 weight of worker `i` under the current estimates.
  double weight(std::size_t i, std::size_t partners) const;

  /// The subproblem a contract for worker `i` is designed against: the
  /// given effort curve and cost weight, omega_malicious when the worker is
  /// suspected (est_malicious >= suspicion_threshold) and 0 otherwise, the
  /// Eq. 5 weight, and the config's mu and intervals.
  contract::SubproblemSpec spec(std::size_t i,
                                const effort::QuadraticEffort& psi,
                                double beta, std::size_t partners) const;

  /// Wire section: the config fields, ema_alpha, suspicion_threshold, the
  /// worker count n, then n accuracy and n maliciousness estimates — all
  /// doubles as exact bit patterns. decode throws ccd::DataError on a
  /// truncated or invalid section, and bounds n by the bytes present
  /// before sizing anything from it.
  void encode(util::wire::Writer& w) const;
  static RequesterState decode(util::wire::Reader& r);

  const RequesterConfig& config() const { return config_; }
  double ema_alpha() const { return ema_alpha_; }
  double suspicion_threshold() const { return suspicion_threshold_; }
  std::size_t workers() const { return est_accuracy_.size(); }
  const std::vector<double>& est_accuracy() const { return est_accuracy_; }
  const std::vector<double>& est_malicious() const { return est_malicious_; }

 private:
  RequesterConfig config_;
  double ema_alpha_ = 0.3;
  double suspicion_threshold_ = 0.5;
  std::vector<double> est_accuracy_;
  std::vector<double> est_malicious_;
};

}  // namespace ccd::core
