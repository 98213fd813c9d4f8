// Per-subproblem contract design (§IV-C): build the m candidate contracts
// ξ^(1)..ξ^(m), evaluate the worker's exact best response under each, and
// keep the candidate maximizing the requester's per-worker utility
// w * psi(y*) - mu * pay(psi(y*)) — the text's reading of Eq. 43.
//
// One SubproblemSpec corresponds to one decomposed subproblem of the
// bilevel program: a single worker, or a collusive community treated as a
// meta-worker with the community effort function (Eq. 3). Workers whose
// feedback weight w is non-positive get the zero contract — they are
// "automatically eliminated" (paper §V): no payment can make their feedback
// worth buying. The same elimination rule applies when every candidate
// contract loses the requester money (max_k utility < 0): the requester
// strictly prefers the zero contract's utility of 0.
//
// The k-sweep (build_candidate + best_response per k) depends only on
// (psi, beta, omega, intervals, effort domain) — not on `weight` — so it is
// factored out as build_design_table() and shared across all workers of a
// detected class; resolve_design() scalarizes a table for one worker's
// weight. design_contract() composes the two and is the reference
// sequential path; design_fleet (fleet_soa.hpp) is the batch engine and is
// bitwise-identical to it.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "contract/bounds.hpp"
#include "contract/candidate.hpp"
#include "contract/contract.hpp"
#include "contract/worker_response.hpp"
#include "effort/effort_model.hpp"

namespace ccd::contract {

struct SubproblemSpec {
  effort::QuadraticEffort psi{-1.0, 8.0, 2.0};
  WorkerIncentives incentives{};
  /// Requester's weight on this worker's feedback (Eq. 5 output).
  double weight = 1.0;
  /// Requester's weight on compensation (mu > 0).
  double mu = 1.0;
  /// Number of effort intervals m.
  std::size_t intervals = 20;
  /// Effort-domain cap; <= 0 selects psi.usable_domain() (95% of the peak).
  double effort_domain = -1.0;

  double resolved_domain() const;
  double delta() const;
  void validate() const;
};

struct DesignResult {
  Contract contract;
  /// Selected target interval (0 when the worker is excluded).
  std::size_t k_opt = 0;
  /// Worker's exact best response under the final contract.
  BestResponse response;
  /// Requester per-worker utility at the best response.
  double requester_utility = 0.0;
  /// Theorem 4.1 bounds (0 for excluded workers).
  double upper_bound = 0.0;
  double lower_bound = 0.0;
  /// Requester utility each candidate k would have achieved (diagnostics;
  /// empty for weight-excluded workers, populated — all negative — for
  /// workers excluded by the max_k utility < 0 fallback).
  std::vector<double> utility_by_k;
  /// Compensation each candidate k would have paid (same indexing; feeds
  /// the budget-feasible allocator in contract/budget.hpp).
  std::vector<double> pay_by_k;
  bool excluded = false;
};

/// Requester's per-worker utility for a given response.
double requester_utility(const SubproblemSpec& spec,
                         const BestResponse& response);

/// Candidate contract ξ^(k) together with the worker's exact best response
/// to it — the weight-independent work of one k-sweep step.
struct CandidateOutcome {
  Contract contract;
  BestResponse response;
};

/// The weight-independent slice of design_contract: candidates and best
/// responses for k = 1..spec.intervals. Workers of the same detected class
/// share (psi, beta, omega, mu, intervals, domain) and differ only in
/// weight, so one table serves the whole class (see design_cache.hpp).
struct DesignTable {
  std::vector<CandidateOutcome> candidates;  ///< indexed by k - 1
};

/// Run the k-sweep for a spec (ignores spec.weight).
DesignTable build_design_table(const SubproblemSpec& spec);

/// Scalarize a precomputed table for one worker's weight:
/// argmax_k (weight * feedback_k - mu * pay_k), Theorem 4.1 bounds, and
/// the §V exclusion fallback. Bitwise-identical to design_contract(spec)
/// when the table was built from the same spec. The table is only read
/// when spec.weight > 0, so weight-excluded workers may pass an empty one.
DesignResult resolve_design(const SubproblemSpec& spec,
                            const DesignTable& table);

/// Solve one subproblem end to end (build_design_table + resolve_design).
DesignResult design_contract(const SubproblemSpec& spec);

}  // namespace ccd::contract
