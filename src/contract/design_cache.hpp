// Spec-keyed memoization of the contract designer's k-sweep, and the AoS
// batch front end for fleet-scale design.
//
// The pipeline's decomposition (§IV-B) hands every worker of the same
// detected class an identical (psi, beta, omega, mu, intervals, domain)
// subproblem — only the Eq. 5 weight differs. The k-sweep
// (build_candidate + best_response per k) is weight-independent, so the
// cache holds one DesignTable per distinct spec and each worker resolves
// as a cheap argmax_k (weight * feedback_k - mu * pay_k) over the cached
// per-k table. Table construction is independent of thread count:
// parallelism only reorders which spec computes its table first, never
// what the table contains.
//
// design_contracts_batch is a thin array-of-structs adapter over
// design_fleet (fleet_soa.hpp), the one batch design engine.
//
// Keys compare doubles bitwise. That is deliberate: the sharing pattern we
// exploit is "same class fit object copied into many specs", which is
// exact; a near-miss spec simply misses and computes its own table.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "contract/designer.hpp"
#include "util/metrics.hpp"

namespace ccd::util {
class CancellationToken;
class ThreadPool;
}

namespace ccd::contract {

struct FleetSoA;
struct FleetOptions;
struct FleetDesignResult;

/// Canonical cache key: every SubproblemSpec field the k-sweep reads —
/// i.e. everything except `weight`. The effort domain is stored resolved,
/// so an explicit domain equal to psi.usable_domain() shares a table with
/// the default.
struct DesignCacheKey {
  double r2 = 0.0;  ///< psi coefficients
  double r1 = 0.0;
  double r0 = 0.0;
  double beta = 0.0;
  double omega = 0.0;
  double mu = 0.0;
  std::uint64_t intervals = 0;
  double domain = 0.0;  ///< resolved effort domain

  /// Canonicalizes the double fields: -0.0 normalizes to +0.0, so the
  /// documented "same class fit copied into many specs" sharing survives a
  /// sign-of-zero difference (e.g. omega = -0.0 vs 0.0).
  static DesignCacheKey of(const SubproblemSpec& spec);

  /// Equality is *bitwise* (per field, on the bit patterns), matching
  /// DesignCacheKeyHash. A defaulted (value) equality would violate the
  /// unordered_map invariant "equal keys hash equally": -0.0 == +0.0
  /// compares true but the bit patterns hash differently (duplicate tables
  /// and missed hits), and a NaN field would compare unequal to itself so
  /// such a key could never be found again.
  bool operator==(const DesignCacheKey& other) const;
};

struct DesignCacheKeyHash {
  std::size_t operator()(const DesignCacheKey& key) const;
};

/// Counters describing how much k-sweep work the cache absorbed. A
/// "lookup" is one cacheable resolution (spec.weight > 0; weight-excluded
/// workers never touch the cache). One k-sweep is `intervals` candidate
/// builds + best responses, so the uncached path would have run
/// `lookups` sweeps where the cache ran `misses`.
///
/// These per-cache (or per-call) stats are snapshots taken under the cache
/// mutex / after the batch joins — safe to read single-threaded. The
/// authoritative process-wide counters are the atomic `ccd.cache.*`
/// registry metrics (see util/metrics.hpp), which every cache mirrors its
/// increments into; hot paths must never bump plain fields concurrently.
struct DesignCacheStats {
  std::size_t lookups = 0;
  std::size_t hits = 0;
  std::size_t misses = 0;
  /// Candidate evaluations actually run (sum of intervals over misses).
  std::size_t sweep_steps_computed = 0;
  /// Candidate evaluations served from cache (sum of intervals over hits).
  std::size_t sweep_steps_avoided = 0;

  DesignCacheStats& operator+=(const DesignCacheStats& other);
};

/// Thread-safe table cache. Lookup and insertion hold a mutex; table
/// construction runs outside it, so concurrent misses on *different* specs
/// proceed in parallel. Two threads missing the same spec may both build
/// it — the first insert wins and both use that table, keeping results
/// deterministic.
class DesignCache {
 public:
  /// Fetch (or compute and insert) the table for a spec. `was_hit`, when
  /// non-null, reports whether the table already existed.
  std::shared_ptr<const DesignTable> table_for(const SubproblemSpec& spec,
                                               bool* was_hit = nullptr);

  DesignCacheStats stats() const;
  std::size_t size() const;
  /// Drops tables and resets the per-cache counters (the dropped-table
  /// count is added to the `ccd.cache.evictions` registry counter).
  void clear();

 private:
  friend FleetDesignResult design_fleet(const FleetSoA&, const FleetOptions&,
                                        DesignCacheStats*);

  void record(const DesignCacheStats& delta);

  mutable std::mutex mutex_;
  std::unordered_map<DesignCacheKey, std::shared_ptr<const DesignTable>,
                     DesignCacheKeyHash>
      tables_;
  DesignCacheStats stats_;
};

/// Not read by the library: BatchOptions::kernel below is still set by the
/// frozen perfbench sources, which is the only reason this type exists.
enum class SweepKernel { kScalar };

struct BatchOptions {
  /// Pool for the fan-out; null uses util::shared_pool().
  util::ThreadPool* pool = nullptr;
  /// Cache reused across calls (e.g. across pipeline rounds); null gives
  /// the call a private cache.
  DesignCache* cache = nullptr;
  /// Cooperative cancellation (null runs to completion). Polled between
  /// k-sweeps and between classes; after cancellation the batch returns
  /// with the remaining results left default-constructed. Callers use
  /// `resolved` to tell completed entries apart.
  const util::CancellationToken* cancel = nullptr;
  /// When non-null, resized to specs.size(); (*resolved)[i] is 1 iff
  /// results[i] was actually designed (always all-ones unless cancelled).
  std::vector<std::uint8_t>* resolved = nullptr;
  /// Ignored; kept only because the frozen perfbench sources assign it.
  SweepKernel kernel = SweepKernel::kScalar;
};

/// Design contracts for a whole fleet through design_fleet and return them
/// as AoS DesignResults (per-k utility_by_k / pay_by_k included). Output
/// order matches `specs`, and results[i] is bitwise-identical to
/// design_contract(specs[i]) regardless of thread count or cache state.
/// When any worker fails (invalid spec, throwing sweep, injected fault),
/// the error of the lowest-index failed worker is rethrown after the call.
/// `stats`, when non-null, receives this call's counters (prior contents
/// overwritten).
std::vector<DesignResult> design_contracts_batch(
    const std::vector<SubproblemSpec>& specs,
    const BatchOptions& options = {}, DesignCacheStats* stats = nullptr);

}  // namespace ccd::contract
