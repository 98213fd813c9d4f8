// Per-class worker resolve for the fleet design path — the one resolve
// kernel every batch design runs.
//
// Every worker of one spec class shares the same weight-independent
// DesignTable; resolving a worker is then three per-k reductions over the
// class's tables — the Eq. 43 argmax of w * feedback_k - mu * pay_k, the
// Theorem 4.1 upper-bound max, and a gather for the lower bound at k_opt.
// With the class's per-k columns laid out contiguously (ClassTableau) and
// the workers' weights contiguous (FleetSoA), resolve_class runs k in the
// outer loop and workers in the inner loop, over fixed-size blocks, so the
// compiler can vectorize the worker loops for the build's target ISA
// (GCC 12 on baseline x86-64 vectorizes the bound reductions; the argmax
// select needs a blend instruction, e.g. -mavx2).
//
// The kernel evaluates exactly the expressions of resolve_design and
// theorem41_{upper,lower}_bound (multiplies, subtracts, strict-greater
// argmax, std::max reductions) and the library is built with
// -ffp-contract=off, so its results are bitwise-identical to the
// per-worker reference design_contract on every build.
#pragma once

#include <cstddef>

#include "contract/arena.hpp"
#include "contract/designer.hpp"

namespace ccd::contract {

/// Weight-independent per-class columns the resolve reads, arena-backed
/// and contiguous per k. Valid until the arena is reset.
struct ClassTableau {
  std::size_t m = 0;   ///< intervals
  double mu = 0.0;     ///< compensation weight (key field, per class)
  const double* feedback = nullptr;     ///< response feedback per k
  const double* pay = nullptr;          ///< response compensation per k
  const double* ub_feedback = nullptr;  ///< psi(l delta), l = 1..m
  const double* ub_pay = nullptr;       ///< lemma43 lower pay, l = 1..m
  const double* lb_feedback = nullptr;  ///< psi((k-1) delta), k = 1..m
  const double* lb_pay = nullptr;       ///< lemma42 upper pay, k = 1..m
  bool has_free_ride = false;           ///< omega > 0
  double free_ride_feedback = 0.0;      ///< psi(y_free) when omega > 0
};

/// Build the tableau for one class from its design table. `spec` is any
/// spec of the class (weight is ignored). Columns are computed with the
/// same expressions as resolve_design / theorem41_{upper,lower}_bound so
/// the kernel reproduces the reference values.
ClassTableau build_class_tableau(const SubproblemSpec& spec,
                                 const DesignTable& table,
                                 ScratchArena& arena);

/// Caller-allocated per-worker outputs of resolve_class (length >= count).
/// k_opt is the 1-based Eq. 43 argmax; exclusion (weight <= 0, or
/// requester_utility < 0) is applied by the caller.
struct ResolveOut {
  std::size_t* k_opt = nullptr;
  double* requester_utility = nullptr;
  double* upper_bound = nullptr;
};

/// Resolve `count` workers of one class (weights contiguous) against the
/// tableau.
void resolve_class(const ClassTableau& tableau, const double* weights,
                   std::size_t count, const ResolveOut& out);

}  // namespace ccd::contract
