#include "core/requester.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "util/error.hpp"

namespace ccd::core {

void RequesterConfig::validate() const {
  CCD_CHECK_MSG(rho > 0.0, "rho must be positive");
  CCD_CHECK_MSG(kappa >= 0.0, "kappa must be non-negative");
  CCD_CHECK_MSG(gamma >= 0.0, "gamma must be non-negative");
  CCD_CHECK_MSG(mu > 0.0, "mu must be positive");
  CCD_CHECK_MSG(beta > 0.0, "beta must be positive");
  CCD_CHECK_MSG(omega_malicious >= 0.0, "omega_malicious must be >= 0");
  CCD_CHECK_MSG(intervals >= 1, "intervals must be >= 1");
  CCD_CHECK_MSG(accuracy_floor > 0.0, "accuracy_floor must be positive");
  CCD_CHECK_MSG(weight_cap > 0.0, "weight_cap must be positive");
}

double feedback_weight(const RequesterConfig& config, double accuracy_distance,
                       double malicious_probability, std::size_t partners) {
  CCD_CHECK_MSG(accuracy_distance >= 0.0,
                "accuracy distance must be non-negative");
  CCD_CHECK_MSG(malicious_probability >= 0.0 && malicious_probability <= 1.0,
                "malicious probability must be in [0,1]");
  const double distance = std::max(config.accuracy_floor, accuracy_distance);
  const double weight = config.rho / distance -
                        config.kappa * malicious_probability -
                        config.gamma * static_cast<double>(partners);
  return std::min(config.weight_cap, weight);
}

RequesterState::RequesterState(const RequesterConfig& config, double ema_alpha,
                               double suspicion_threshold, std::size_t workers)
    : RequesterState(config, ema_alpha, suspicion_threshold,
                     std::vector<double>(workers, config.accuracy_floor),
                     std::vector<double>(workers, 0.05)) {}

RequesterState::RequesterState(const RequesterConfig& config, double ema_alpha,
                               double suspicion_threshold,
                               std::vector<double> est_accuracy,
                               std::vector<double> est_malicious)
    : config_(config),
      ema_alpha_(ema_alpha),
      suspicion_threshold_(suspicion_threshold),
      est_accuracy_(std::move(est_accuracy)),
      est_malicious_(std::move(est_malicious)) {
  config_.validate();
  CCD_CHECK_MSG(ema_alpha_ > 0.0 && ema_alpha_ <= 1.0,
                "ema_alpha must be in (0, 1]");
  CCD_CHECK_MSG(est_accuracy_.size() == est_malicious_.size(),
                "requester estimates are sized for different fleets");
}

void RequesterState::observe(std::size_t i, double accuracy_sample) {
  est_accuracy_[i] = (1.0 - ema_alpha_) * est_accuracy_[i] +
                     ema_alpha_ * accuracy_sample;
  const double signal =
      1.0 / (1.0 + std::exp(-4.0 * (accuracy_sample - 0.9)));
  est_malicious_[i] =
      (1.0 - ema_alpha_) * est_malicious_[i] + ema_alpha_ * signal;
}

double RequesterState::weight(std::size_t i, std::size_t partners) const {
  return feedback_weight(config_, est_accuracy_[i], est_malicious_[i],
                         partners);
}

contract::SubproblemSpec RequesterState::spec(
    std::size_t i, const effort::QuadraticEffort& psi, double beta,
    std::size_t partners) const {
  contract::SubproblemSpec spec;
  spec.psi = psi;
  spec.incentives.beta = beta;
  spec.incentives.omega = est_malicious_[i] >= suspicion_threshold_
                              ? config_.omega_malicious
                              : 0.0;
  spec.weight = weight(i, partners);
  spec.mu = config_.mu;
  spec.intervals = config_.intervals;
  return spec;
}

void RequesterState::encode(util::wire::Writer& w) const {
  w.f64(config_.rho);
  w.f64(config_.kappa);
  w.f64(config_.gamma);
  w.f64(config_.mu);
  w.f64(config_.beta);
  w.f64(config_.omega_malicious);
  w.u64(config_.intervals);
  w.f64(config_.accuracy_floor);
  w.f64(config_.weight_cap);
  w.f64(ema_alpha_);
  w.f64(suspicion_threshold_);
  w.u64(workers());
  for (const double x : est_accuracy_) w.f64(x);
  for (const double x : est_malicious_) w.f64(x);
}

RequesterState RequesterState::decode(util::wire::Reader& r) {
  try {
    RequesterConfig config;
    config.rho = r.f64();
    config.kappa = r.f64();
    config.gamma = r.f64();
    config.mu = r.f64();
    config.beta = r.f64();
    config.omega_malicious = r.f64();
    config.intervals = r.u64();
    config.accuracy_floor = r.f64();
    config.weight_cap = r.f64();
    const double ema_alpha = r.f64();
    const double suspicion_threshold = r.f64();
    const std::size_t n = r.count(16);  // two doubles per worker
    std::vector<double> est_accuracy(n);
    std::vector<double> est_malicious(n);
    for (double& x : est_accuracy) x = r.f64();
    for (double& x : est_malicious) x = r.f64();
    return RequesterState(config, ema_alpha, suspicion_threshold,
                          std::move(est_accuracy), std::move(est_malicious));
  } catch (const DataError&) {
    throw;
  } catch (const Error& e) {
    throw DataError(std::string("invalid requester section: ") + e.what());
  }
}

}  // namespace ccd::core
