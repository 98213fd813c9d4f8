#include "contract/fleet_soa.hpp"

#include <atomic>
#include <bit>
#include <unordered_map>
#include <utility>

#include "contract/ksweep.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"
#include "util/thread_pool.hpp"

namespace ccd::contract {

FleetSoA FleetSoA::from_specs(const std::vector<SubproblemSpec>& specs) {
  FleetSoA fleet;
  const std::size_t n = specs.size();
  fleet.weight.resize(n);
  fleet.class_of.resize(n);

  std::unordered_map<DesignCacheKey, std::size_t, DesignCacheKeyHash>
      class_of_key;
  std::vector<std::size_t> counts;
  for (std::size_t i = 0; i < n; ++i) {
    const DesignCacheKey key = DesignCacheKey::of(specs[i]);
    const auto [it, inserted] = class_of_key.emplace(key, fleet.classes());
    if (inserted) {
      fleet.r2.push_back(key.r2);
      fleet.r1.push_back(key.r1);
      fleet.r0.push_back(key.r0);
      fleet.beta.push_back(key.beta);
      fleet.omega.push_back(key.omega);
      fleet.mu.push_back(key.mu);
      fleet.intervals.push_back(static_cast<std::size_t>(key.intervals));
      fleet.domain.push_back(key.domain);
      fleet.first_positive.push_back(npos);
      counts.push_back(0);
    }
    const std::size_t c = it->second;
    fleet.class_of[i] = c;
    fleet.weight[i] = specs[i].weight;
    ++counts[c];
    if (specs[i].weight > 0.0 && fleet.first_positive[c] == npos) {
      fleet.first_positive[c] = i;
    }
  }

  const std::size_t classes = fleet.classes();
  fleet.class_begin.assign(classes + 1, 0);
  for (std::size_t c = 0; c < classes; ++c) {
    fleet.class_begin[c + 1] = fleet.class_begin[c] + counts[c];
  }
  fleet.order.resize(n);
  fleet.grouped_weight.resize(n);
  std::vector<std::size_t> cursor(fleet.class_begin.begin(),
                                  fleet.class_begin.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t pos = cursor[fleet.class_of[i]]++;
    fleet.order[pos] = i;
    fleet.grouped_weight[pos] = fleet.weight[i];
  }
  return fleet;
}

SubproblemSpec FleetSoA::class_spec(std::size_t c) const {
  SubproblemSpec spec;
  spec.psi = effort::QuadraticEffort(r2[c], r1[c], r0[c]);
  spec.incentives.beta = beta[c];
  spec.incentives.omega = omega[c];
  spec.weight = 1.0;
  spec.mu = mu[c];
  spec.intervals = intervals[c];
  spec.effort_domain = domain[c];  // stored resolved, always > 0
  return spec;
}

SubproblemSpec FleetSoA::worker_spec(std::size_t i) const {
  SubproblemSpec spec = class_spec(class_of[i]);
  spec.weight = weight[i];
  return spec;
}

namespace {

// Scatter a worker's BestResponse fields into the SoA output.
void write_response(FleetDesignResult& out, std::size_t i,
                    const BestResponse& response) {
  out.effort[i] = response.effort;
  out.worker_utility[i] = response.utility;
  out.feedback[i] = response.feedback;
  out.compensation[i] = response.compensation;
  out.response_interval[i] = response.interval;
}

/// Stable per-worker key for the "contract.design" fault site: a
/// deterministic mix over the bit patterns of every field that
/// distinguishes one subproblem from another (psi, beta, omega, weight,
/// mu, intervals, effort domain), so the per-class fits of one fleet can
/// be targeted independently.
std::uint64_t fault_key(const SubproblemSpec& spec) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
  };
  const auto mix_double = [&mix](double value) {
    mix(std::bit_cast<std::uint64_t>(value));
  };
  mix_double(spec.psi.r2());
  mix_double(spec.psi.r1());
  mix_double(spec.psi.r0());
  mix_double(spec.incentives.beta);
  mix_double(spec.incentives.omega);
  mix_double(spec.weight);
  mix_double(spec.mu);
  mix(static_cast<std::uint64_t>(spec.intervals));
  mix_double(spec.effort_domain);
  return h;
}

// The call's cache accounting, computed from the fleet arrays. Returns the
// per-call snapshot and the `extra` delta recorded into the cache for
// per-worker resolutions served without touching the map (one lookup per
// resolved positive-weight worker, of which the class's own table_for
// already counted one).
struct FleetCallStats {
  DesignCacheStats call;
  DesignCacheStats extra;
};

FleetCallStats fleet_call_stats(const FleetSoA& fleet,
                                const FleetDesignResult& out,
                                std::size_t sweeps_computed,
                                std::size_t sweep_steps_computed) {
  std::size_t cacheable = 0;
  std::size_t cacheable_steps = 0;
  for (std::size_t i = 0; i < fleet.workers(); ++i) {
    if (fleet.weight[i] <= 0.0 || !out.resolved[i]) continue;
    ++cacheable;
    cacheable_steps += fleet.intervals[fleet.class_of[i]];
  }

  FleetCallStats stats;
  stats.call.lookups = cacheable;
  stats.call.misses = sweeps_computed;
  stats.call.hits = stats.call.lookups > stats.call.misses
                        ? stats.call.lookups - stats.call.misses : 0;
  stats.call.sweep_steps_computed = sweep_steps_computed;
  stats.call.sweep_steps_avoided =
      cacheable_steps > sweep_steps_computed
          ? cacheable_steps - sweep_steps_computed : 0;

  std::size_t classes_ran = 0;
  std::size_t classes_ran_steps = 0;
  for (std::size_t c = 0; c < fleet.classes(); ++c) {
    if (out.tables[c] == nullptr) continue;  // excluded, failed or cancelled
    ++classes_ran;
    classes_ran_steps += fleet.intervals[c];
  }
  stats.extra.lookups = cacheable > classes_ran ? cacheable - classes_ran : 0;
  stats.extra.hits = stats.extra.lookups;
  stats.extra.sweep_steps_avoided =
      cacheable_steps > classes_ran_steps
          ? cacheable_steps - classes_ran_steps : 0;
  return stats;
}

}  // namespace

DesignResult FleetDesignResult::result_at(const FleetSoA& fleet,
                                          std::size_t i) const {
  if (error[i] != nullptr) std::rethrow_exception(error[i]);
  CCD_CHECK_MSG(resolved[i] != 0,
                "result_at: worker was not designed (cancelled)");
  DesignResult result;
  result.excluded = excluded[i] != 0;
  result.response = BestResponse{effort[i], worker_utility[i], feedback[i],
                                 compensation[i], response_interval[i]};
  const double w = fleet.weight[i];
  // Weight exclusion carries no per-k diagnostics (as resolve_design).
  if (w <= 0.0) return result;

  const std::size_t c = fleet.class_of[i];
  const std::vector<CandidateOutcome>& candidates = tables[c]->candidates;
  const std::size_t m = candidates.size();
  const double mu = fleet.mu[c];
  result.utility_by_k.resize(m);
  result.pay_by_k.resize(m);
  for (std::size_t k = 0; k < m; ++k) {
    const BestResponse& response = candidates[k].response;
    result.utility_by_k[k] = w * response.feedback - mu * response.compensation;
    result.pay_by_k[k] = response.compensation;
  }
  // The §V fallback keeps the diagnostics but posts the zero contract.
  if (result.excluded) return result;

  result.k_opt = k_opt[i];
  result.contract = candidates[k_opt[i] - 1].contract;
  result.requester_utility = requester_utility[i];
  result.upper_bound = upper_bound[i];
  result.lower_bound = lower_bound[i];
  return result;
}

void FleetDesignResult::rethrow_first_error() const {
  for (const std::exception_ptr& e : error) {
    if (e != nullptr) std::rethrow_exception(e);
  }
}

FleetDesignResult design_fleet(const FleetSoA& fleet,
                               const FleetOptions& options,
                               DesignCacheStats* stats) {
  DesignCache local_cache;
  DesignCache& cache = options.cache ? *options.cache : local_cache;
  util::ThreadPool& pool = options.pool ? *options.pool : util::shared_pool();
  const std::size_t n = fleet.workers();
  const std::size_t classes = fleet.classes();

  FleetDesignResult out;
  out.k_opt.assign(n, 0);
  out.requester_utility.assign(n, 0.0);
  out.upper_bound.assign(n, 0.0);
  out.lower_bound.assign(n, 0.0);
  out.effort.assign(n, 0.0);
  out.worker_utility.assign(n, 0.0);
  out.feedback.assign(n, 0.0);
  out.compensation.assign(n, 0.0);
  out.response_interval.assign(n, 0);
  out.excluded.assign(n, 0);
  out.resolved.assign(n, 0);
  out.error.assign(n, nullptr);
  out.tables.assign(classes, nullptr);

  // One task per class, distinct classes in parallel (classes write
  // disjoint output indices): a k-sweep through the cache when the class
  // has a positive-weight worker, one resolve_class pass over the class's
  // contiguous weight slice, then a scatter into the SoA outputs.
  std::atomic<std::size_t> computed{0};
  std::atomic<std::size_t> steps_computed{0};
  util::FaultInjector& injector = util::FaultInjector::instance();
  pool.parallel_for(classes, [&](std::size_t c) {
    const std::size_t begin = fleet.class_begin[c];
    const std::size_t count = fleet.class_begin[c + 1] - begin;
    const std::size_t* members = fleet.order.data() + begin;
    const double* weights = fleet.grouped_weight.data() + begin;
    const SubproblemSpec cls = fleet.class_spec(c);

    // design_contract validates before its weight shortcut, so an invalid
    // spec fails every member of its class. The zero-contract response
    // (the §V exclusion outcome) is weight-independent: one per class.
    BestResponse zero;
    try {
      cls.validate();
      zero = best_response(Contract(), cls.psi, cls.incentives);
    } catch (...) {
      const std::exception_ptr error = std::current_exception();
      for (std::size_t j = 0; j < count; ++j) out.error[members[j]] = error;
      return;
    }

    // Per-thread scratch, reset per class: steady-state calls allocate
    // nothing here. The class body never re-enters the pool, so no other
    // class can reset it while these spans are live.
    thread_local ScratchArena arena;
    thread_local std::vector<std::size_t> k_opt;
    arena.reset();
    ClassTableau tableau;
    double* utility = nullptr;
    double* upper = nullptr;
    // A throwing sweep fails the class's positive-weight workers only.
    std::exception_ptr sweep_failure;
    if (fleet.first_positive[c] != FleetSoA::npos) {
      try {
        bool was_hit = false;
        {
          // A cache hit records the cheap lookup instead of a sweep.
          util::metrics::ScopedTimer timer(options.sweep_histogram);
          out.tables[c] = cache.table_for(
              fleet.worker_spec(fleet.first_positive[c]), &was_hit);
        }
        if (!was_hit) {
          computed.fetch_add(1, std::memory_order_relaxed);
          steps_computed.fetch_add(fleet.intervals[c],
                                   std::memory_order_relaxed);
        }
        tableau = build_class_tableau(cls, *out.tables[c], arena);
        k_opt.resize(count);
        utility = arena.doubles(count);
        upper = arena.doubles(count);
        resolve_class(tableau, weights, count,
                      ResolveOut{k_opt.data(), utility, upper});
      } catch (...) {
        sweep_failure = std::current_exception();
      }
    }
    const std::shared_ptr<const DesignTable>& table = out.tables[c];

    for (std::size_t j = 0; j < count; ++j) {
      const std::size_t i = members[j];
      const double w = weights[j];
      if (w <= 0.0) {
        write_response(out, i, zero);
        out.excluded[i] = 1;
        out.resolved[i] = 1;
        continue;
      }
      if (sweep_failure != nullptr) {
        out.error[i] = sweep_failure;
        continue;
      }
      if (injector.armed()) {
        try {
          CCD_FAULT_POINT("contract.design", fault_key(fleet.worker_spec(i)),
                          ContractError);
        } catch (...) {
          out.error[i] = std::current_exception();
          continue;
        }
      }
      if (utility[j] < 0.0) {
        // §V fallback: even the best candidate loses the requester money.
        write_response(out, i, zero);
        out.excluded[i] = 1;
      } else {
        const std::size_t k = k_opt[j];
        write_response(out, i, table->candidates[k - 1].response);
        out.k_opt[i] = k;
        out.requester_utility[i] = utility[j];
        out.upper_bound[i] = upper[j];
        out.lower_bound[i] = w * tableau.lb_feedback[k - 1] -
                             tableau.mu * tableau.lb_pay[k - 1];
      }
      out.resolved[i] = 1;
    }
  }, options.cancel);

  const FleetCallStats fcs =
      fleet_call_stats(fleet, out, computed.load(), steps_computed.load());
  if (stats) *stats = fcs.call;
  cache.record(fcs.extra);
  return out;
}

std::vector<DesignResult> design_contracts_batch(
    const std::vector<SubproblemSpec>& specs, const BatchOptions& options,
    DesignCacheStats* stats) {
  const FleetSoA fleet = FleetSoA::from_specs(specs);
  FleetOptions fleet_options;
  fleet_options.pool = options.pool;
  fleet_options.cache = options.cache;
  fleet_options.cancel = options.cancel;
  const FleetDesignResult designed = design_fleet(fleet, fleet_options, stats);
  designed.rethrow_first_error();

  std::vector<DesignResult> results(specs.size());
  util::ThreadPool& pool = options.pool ? *options.pool : util::shared_pool();
  pool.parallel_for(specs.size(), [&](std::size_t i) {
    if (designed.resolved[i]) results[i] = designed.result_at(fleet, i);
  });
  if (options.resolved) *options.resolved = designed.resolved;
  return results;
}

}  // namespace ccd::contract
