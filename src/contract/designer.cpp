#include "contract/designer.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace ccd::contract {

double SubproblemSpec::resolved_domain() const {
  return effort_domain > 0.0 ? effort_domain : psi.usable_domain();
}

double SubproblemSpec::delta() const {
  return resolved_domain() / static_cast<double>(intervals);
}

void SubproblemSpec::validate() const {
  CCD_CHECK_MSG(mu > 0.0, "mu must be positive");
  CCD_CHECK_MSG(intervals >= 1, "need at least one effort interval");
  CCD_CHECK_MSG(incentives.beta > 0.0, "beta must be positive");
  CCD_CHECK_MSG(incentives.omega >= 0.0, "omega must be non-negative");
  const double domain = resolved_domain();
  CCD_CHECK_MSG(domain > 0.0, "effort domain must be positive");
  CCD_CHECK_MSG(psi.increasing_on(domain),
                "psi must be strictly increasing on the effort domain");
}

double requester_utility(const SubproblemSpec& spec,
                         const BestResponse& response) {
  return spec.weight * response.feedback - spec.mu * response.compensation;
}

namespace {

/// The zero-contract outcome shared by both exclusion paths (weight <= 0
/// and the max_k utility < 0 fallback).
DesignResult excluded_result(const SubproblemSpec& spec) {
  DesignResult result;
  result.excluded = true;
  result.contract = Contract();
  result.response = best_response(result.contract, spec.psi, spec.incentives);
  result.requester_utility = 0.0;
  return result;
}

}  // namespace

DesignTable build_design_table(const SubproblemSpec& spec) {
  spec.validate();
  const double delta = spec.delta();
  const std::size_t m = spec.intervals;

  // The Eq. 39/40 recurrence never reads k: candidate k's slopes are the
  // prefix alpha_1..alpha_k of one shared sequence, so a single recurrence
  // pass serves the whole sweep. Each candidate materializes as the shared
  // payment prefix plus a flat tail — bitwise-identical to the former
  // per-candidate build_candidate loop, without its O(m^2) recomputation
  // (and without re-evaluating the psi knots m times).
  CandidateRecurrence rec;
  candidate_recurrence(spec.psi, delta, m, m, spec.incentives,
                       /*cap_epsilon=*/true, rec);
  std::vector<double> knots(m + 1);
  for (std::size_t l = 0; l <= m; ++l) {
    knots[l] = spec.psi(delta * static_cast<double>(l));
  }

  DesignTable table;
  table.candidates.reserve(m);
  std::vector<double> response_scratch;
  for (std::size_t k = 1; k <= m; ++k) {
    std::vector<double> payments(m + 1);
    std::copy(rec.pay_prefix.begin(), rec.pay_prefix.begin() + k + 1,
              payments.begin());
    std::fill(payments.begin() + k + 1, payments.end(), rec.pay_prefix[k]);
    CandidateOutcome outcome;
    outcome.contract = Contract(delta, knots, std::move(payments));
    outcome.response = best_response(outcome.contract, spec.psi,
                                     spec.incentives, -1.0, &response_scratch);
    table.candidates.push_back(std::move(outcome));
  }
  return table;
}

DesignResult resolve_design(const SubproblemSpec& spec,
                            const DesignTable& table) {
  spec.validate();

  // Non-positive feedback weight: no payment is worth it; exclude (§V's
  // "automatically eliminated" workers get the zero contract). The
  // requester drops their feedback entirely: zero utility, zero pay.
  if (spec.weight <= 0.0) return excluded_result(spec);

  const std::size_t m = spec.intervals;
  CCD_CHECK_MSG(table.candidates.size() == m,
                "design table does not match spec.intervals");

  DesignResult result;
  result.utility_by_k.assign(m, 0.0);
  result.pay_by_k.assign(m, 0.0);
  bool have_best = false;
  for (std::size_t k = 1; k <= m; ++k) {
    const CandidateOutcome& candidate = table.candidates[k - 1];
    const double utility = requester_utility(spec, candidate.response);
    result.utility_by_k[k - 1] = utility;
    result.pay_by_k[k - 1] = candidate.response.compensation;
    if (!have_best || utility > result.requester_utility) {
      have_best = true;
      result.requester_utility = utility;
      result.k_opt = k;
      result.contract = candidate.contract;
      result.response = candidate.response;
    }
  }

  // §V elimination fallback: when even the best candidate loses the
  // requester money, the zero contract (utility 0) strictly dominates.
  // Keep the per-k diagnostics so callers can see what was rejected.
  if (result.requester_utility < 0.0) {
    DesignResult fallback = excluded_result(spec);
    fallback.utility_by_k = std::move(result.utility_by_k);
    fallback.pay_by_k = std::move(result.pay_by_k);
    return fallback;
  }

  const double delta = spec.delta();
  result.upper_bound =
      theorem41_upper_bound(spec.psi, spec.weight, spec.mu,
                            spec.incentives.beta, delta, m,
                            spec.incentives.omega);
  result.lower_bound = theorem41_lower_bound(
      spec.psi, spec.weight, spec.mu, spec.incentives.beta, delta,
      result.k_opt);
  return result;
}

DesignResult design_contract(const SubproblemSpec& spec) {
  spec.validate();
  if (spec.weight <= 0.0) return excluded_result(spec);
  return resolve_design(spec, build_design_table(spec));
}

}  // namespace ccd::contract
