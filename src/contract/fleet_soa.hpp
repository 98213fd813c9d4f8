// Structure-of-arrays fleet layout and the batch contract-design engine.
//
// FleetSoA buckets workers by spec class (the weight-excluded
// DesignCacheKey — same canonicalization, so a class is exactly a cache
// entry) with the per-class scalar fields in contiguous arrays and the
// per-worker weights gathered contiguously per class (CSR). design_fleet
// then designs each class with a single k-sweep and one resolve_class pass
// over its weight slice (see ksweep.hpp), writing SoA output arrays with
// no per-worker heap allocation. Classes run in parallel on the pool only
// when two or more of them need a k-sweep (their table is not cached yet);
// otherwise the same per-class body runs inline on the calling thread,
// because resolving cached classes costs less than a pool round trip.
//
// design_fleet is the only batch design engine: design_contracts_batch,
// the pipeline's solve stage, the simulator's BiP policy and serve
// sessions all run it. Its results are bitwise-identical to
// design_contract on every worker. Failures are isolated per worker: an
// invalid spec fails its class, a throwing k-sweep fails the class's
// positive-weight workers, and an injected "contract.design" fault fails
// one worker; each failed worker carries its error in
// FleetDesignResult::error and is left unresolved, while every other
// worker is designed normally.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <vector>

#include "contract/design_cache.hpp"
#include "contract/designer.hpp"
#include "util/metrics.hpp"

namespace ccd::util {
class CancellationToken;
class ThreadPool;
}

namespace ccd::contract {

/// Fleet of design subproblems grouped by spec class, stored as contiguous
/// arrays. Build with from_specs(); all invariants below hold afterwards.
/// Class fields store the *canonical* key values (-0.0 normalized to +0.0,
/// domain resolved), so sign-of-zero twins land in one class; per-worker
/// weights are stored verbatim.
struct FleetSoA {
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  // Per-class scalar fields (length = classes()), indexed by class id in
  // first-occurrence order over the input specs.
  std::vector<double> r2, r1, r0;        ///< psi coefficients
  std::vector<double> beta, omega;       ///< worker incentives
  std::vector<double> mu;                ///< requester compensation weight
  std::vector<std::size_t> intervals;    ///< m
  std::vector<double> domain;            ///< resolved effort domain (> 0)
  /// First worker (original index) of the class with weight > 0, or npos
  /// when every member is weight-excluded (no table needed: §V zero
  /// contract for all of them).
  std::vector<std::size_t> first_positive;

  // CSR worker grouping.
  std::vector<std::size_t> class_begin;  ///< length classes() + 1
  /// Grouped position -> original worker index. Workers of class c occupy
  /// order[class_begin[c] .. class_begin[c + 1]), in input order.
  std::vector<std::size_t> order;
  /// Weights gathered into grouped order (parallel to `order`) — the
  /// contiguous slice resolve_class reads.
  std::vector<double> grouped_weight;

  // Per-worker fields in original order (length = workers()).
  std::vector<double> weight;
  std::vector<std::size_t> class_of;

  std::size_t workers() const { return weight.size(); }
  std::size_t classes() const { return intervals.size(); }

  /// Group specs. Does not validate: design_fleet checks each class once
  /// and reports an invalid one per worker.
  static FleetSoA from_specs(const std::vector<SubproblemSpec>& specs);

  /// Reconstruct the class's spec with weight 1. Equal (as values) to any
  /// member spec of the class; bitwise-equal except where canonicalization
  /// flipped a -0.0 field or resolved a defaulted domain.
  SubproblemSpec class_spec(std::size_t c) const;

  /// class_spec(class_of[i]) with the worker's own weight.
  SubproblemSpec worker_spec(std::size_t i) const;
};

struct FleetOptions {
  /// Pool for the per-class fan-out, used only when two or more classes
  /// need a k-sweep; null uses util::shared_pool().
  util::ThreadPool* pool = nullptr;
  /// Cache reused across calls; null gives the call a private cache.
  DesignCache* cache = nullptr;
  /// When non-null, each class's k-sweep records its wall time here.
  util::metrics::Histogram* sweep_histogram = nullptr;
  /// Cooperative cancellation: polled between sweeps and between classes
  /// during resolve. Workers skipped by cancellation have resolved[i] == 0
  /// and no error.
  const util::CancellationToken* cancel = nullptr;
};

/// Fleet design output, SoA. All per-worker arrays are indexed by the
/// *original* worker index and have length fleet.workers(). Excluded
/// workers (weight <= 0, or §V fallback when max_k utility < 0) carry the
/// zero contract: k_opt 0, utility/bounds 0, the zero-contract best
/// response, excluded 1.
struct FleetDesignResult {
  std::vector<std::size_t> k_opt;  ///< 1-based; 0 when excluded
  std::vector<double> requester_utility;
  std::vector<double> upper_bound;
  std::vector<double> lower_bound;
  // Worker best-response fields (BestResponse scalarized).
  std::vector<double> effort;
  std::vector<double> worker_utility;
  std::vector<double> feedback;
  std::vector<double> compensation;
  std::vector<std::size_t> response_interval;
  std::vector<std::uint8_t> excluded;
  /// 1 iff the worker was actually designed (all-ones unless cancelled or
  /// failed).
  std::vector<std::uint8_t> resolved;
  /// Why worker i failed (null when it did not); a failed worker is
  /// unresolved. Workers of one failed class share one exception object.
  std::vector<std::exception_ptr> error;
  /// Per-class design tables (null for all-excluded, invalid and cancelled
  /// classes and for classes whose sweep threw). Contracts are not materialized per worker:
  /// worker i's contract is tables[fleet.class_of[i]]->candidates
  /// [k_opt[i] - 1].contract, shared across the class.
  std::vector<std::shared_ptr<const DesignTable>> tables;

  std::size_t workers() const { return k_opt.size(); }

  /// Worker i as the AoS DesignResult, read from the SoA outputs and the
  /// class table (the per-k utility_by_k / pay_by_k are rebuilt with
  /// resolve_design's expressions). Bitwise-identical to
  /// design_contract(fleet.worker_spec(i)). Rethrows error[i] for a
  /// failed worker; requires resolved[i] otherwise.
  DesignResult result_at(const FleetSoA& fleet, std::size_t i) const;

  /// Worker i's posted contract: its class table's k_opt[i] candidate, or
  /// the zero contract when excluded. Requires resolved[i].
  const Contract& contract_at(const FleetSoA& fleet, std::size_t i) const;

  /// Rethrow the error of the lowest-index failed worker, if any.
  void rethrow_first_error() const;
};

/// Design the whole fleet: per-class k-sweeps through the cache, then one
/// resolve_class pass per class straight into SoA outputs. Distinct
/// classes run in parallel on options.pool when two or more need a sweep,
/// and inline on the caller otherwise (no pool task at all). Results are
/// bitwise-identical to design_contract on each worker_spec. Never throws
/// for a worker's failure: see FleetDesignResult::error. `stats`, when
/// non-null, receives this call's cache counters: lookups = resolved
/// workers with weight > 0, misses = sweeps run.
FleetDesignResult design_fleet(const FleetSoA& fleet,
                               const FleetOptions& options = {},
                               DesignCacheStats* stats = nullptr);

}  // namespace ccd::contract
