#include "contract/ksweep.hpp"

#include <algorithm>

#include "contract/bounds.hpp"
#include "util/error.hpp"

namespace ccd::contract {

ClassTableau build_class_tableau(const SubproblemSpec& spec,
                                 const DesignTable& table,
                                 ScratchArena& arena) {
  const std::size_t m = spec.intervals;
  CCD_CHECK_MSG(table.candidates.size() == m,
                "design table does not match spec.intervals");
  const double delta = spec.delta();
  const double beta = spec.incentives.beta;
  const double omega = spec.incentives.omega;

  ClassTableau t;
  t.m = m;
  t.mu = spec.mu;
  double* feedback = arena.doubles(m);
  double* pay = arena.doubles(m);
  double* ub_feedback = arena.doubles(m);
  double* ub_pay = arena.doubles(m);
  double* lb_feedback = arena.doubles(m);
  double* lb_pay = arena.doubles(m);
  for (std::size_t k = 1; k <= m; ++k) {
    const BestResponse& response = table.candidates[k - 1].response;
    feedback[k - 1] = response.feedback;
    pay[k - 1] = response.compensation;
    // Same expressions as theorem41_upper_bound (l-loop operand) and
    // theorem41_lower_bound, so w * column - mu * column reproduces the
    // scalar bounds exactly.
    ub_feedback[k - 1] = spec.psi(delta * static_cast<double>(k));
    ub_pay[k - 1] = lemma43_compensation_lower(spec.psi, beta, delta, k, omega);
    lb_feedback[k - 1] = spec.psi(delta * (static_cast<double>(k) - 1.0));
    lb_pay[k - 1] = lemma42_compensation_upper(spec.psi, beta, delta, k);
  }
  t.feedback = feedback;
  t.pay = pay;
  t.ub_feedback = ub_feedback;
  t.ub_pay = ub_pay;
  t.lb_feedback = lb_feedback;
  t.lb_pay = lb_pay;
  if (omega > 0.0) {
    t.has_free_ride = true;
    const double y_free =
        std::clamp(spec.psi.derivative_inverse(beta / omega), 0.0,
                   spec.psi.y_peak());
    t.free_ride_feedback = spec.psi(y_free);
  }
  return t;
}

void resolve_class(const ClassTableau& tableau, const double* weights,
                   std::size_t count, const ResolveOut& out) {
  // Workers are resolved in fixed blocks with k in the outer loop, so the
  // inner loops run a constant trip count over contiguous lanes and
  // vectorize; a short tail block is padded with zero weights whose lanes
  // are computed and discarded.
  constexpr std::size_t kBlock = 64;
  const std::size_t m = tableau.m;
  const double mu = tableau.mu;
  double w[kBlock];
  double best[kBlock];
  std::size_t best_k[kBlock];
  double ub[kBlock];
  for (std::size_t begin = 0; begin < count; begin += kBlock) {
    const std::size_t n = std::min(kBlock, count - begin);
    std::copy(weights + begin, weights + begin + n, w);
    std::fill(w + n, w + kBlock, 0.0);

    // Eq. 43 argmax with resolve_design's first-max tie break (strictly
    // greater replaces). mu * pay is hoisted per k; the product rounds the
    // same either way.
    const double pay0 = mu * tableau.pay[0];
    for (std::size_t i = 0; i < kBlock; ++i) {
      best[i] = w[i] * tableau.feedback[0] - pay0;
      best_k[i] = 1;
    }
    for (std::size_t j = 1; j < m; ++j) {
      const double feedback = tableau.feedback[j];
      const double pay = mu * tableau.pay[j];
      for (std::size_t i = 0; i < kBlock; ++i) {
        const double utility = w[i] * feedback - pay;
        const bool greater = utility > best[i];
        best[i] = greater ? utility : best[i];
        best_k[i] = greater ? j + 1 : best_k[i];
      }
    }

    // Theorem 4.1 upper bound, mirroring theorem41_upper_bound's reduction
    // (std::max(a, b) is a < b ? b : a, keeping the earlier operand on
    // ties).
    for (std::size_t i = 0; i < kBlock; ++i) ub[i] = -1e300;
    for (std::size_t j = 0; j < m; ++j) {
      const double feedback = tableau.ub_feedback[j];
      const double pay = mu * tableau.ub_pay[j];
      for (std::size_t i = 0; i < kBlock; ++i) {
        const double value = w[i] * feedback - pay;
        ub[i] = ub[i] < value ? value : ub[i];
      }
    }
    if (tableau.has_free_ride) {
      const double feedback = tableau.free_ride_feedback;
      for (std::size_t i = 0; i < kBlock; ++i) {
        const double value = w[i] * feedback;
        ub[i] = ub[i] < value ? value : ub[i];
      }
    }

    std::copy(best_k, best_k + n, out.k_opt + begin);
    std::copy(best, best + n, out.requester_utility + begin);
    std::copy(ub, ub + n, out.upper_bound + begin);
  }
}

}  // namespace ccd::contract
