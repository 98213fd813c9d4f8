#include "contract/fleet_soa.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "contract/arena.hpp"
#include "contract/design_cache.hpp"
#include "contract/ksweep.hpp"
#include "util/cancellation.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace ccd::contract {
namespace {

// Same sharing pattern as the pipeline: a few distinct weight-independent
// specs, weights spanning excluded (<= 0), fallback-tiny, and normal.
std::vector<SubproblemSpec> random_fleet(std::size_t n, std::uint64_t seed) {
  const struct {
    double r2, r1, r0, beta, omega, mu;
    std::size_t intervals;
  } classes[] = {
      {-1.0, 8.0, 2.0, 1.0, 0.0, 1.0, 20},
      {-0.8, 6.0, 1.5, 1.2, 0.3, 1.0, 20},
      {-1.2, 9.0, 2.5, 0.9, 0.5, 1.5, 16},
      {-0.9, 7.0, 1.0, 1.0, 0.2, 0.8, 24},
      {-1.1, 8.5, 0.5, 1.4, 0.0, 2.0, 12},
  };
  constexpr std::size_t kClasses = sizeof(classes) / sizeof(classes[0]);
  util::Rng rng(seed);
  std::vector<SubproblemSpec> specs;
  specs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& cls = classes[rng.next_u64() % kClasses];
    SubproblemSpec spec;
    spec.psi = effort::QuadraticEffort(cls.r2, cls.r1, cls.r0);
    spec.incentives = {cls.beta, cls.omega};
    spec.mu = cls.mu;
    spec.intervals = cls.intervals;
    spec.weight = rng.uniform(-0.2, 3.0);
    specs.push_back(spec);
  }
  return specs;
}

// Specs exercising the bit-pattern corners of the cache key: -0.0 omega /
// r0 (canonicalized into the +0.0 class) and a denormal r0.
std::vector<SubproblemSpec> tricky_specs() {
  std::vector<SubproblemSpec> specs;
  SubproblemSpec a;
  a.psi = effort::QuadraticEffort(-1.0, 8.0, 0.0);
  a.incentives = {1.0, 0.0};
  a.weight = 1.5;
  specs.push_back(a);

  SubproblemSpec b = a;  // sign-of-zero twin of `a`
  b.psi = effort::QuadraticEffort(-1.0, 8.0, -0.0);
  b.incentives.omega = -0.0;  // passes omega >= 0
  b.weight = 0.7;
  specs.push_back(b);

  SubproblemSpec c = a;  // denormal r0: its own class
  c.psi = effort::QuadraticEffort(
      -1.0, 8.0, std::numeric_limits<double>::denorm_min());
  c.weight = 2.0;
  specs.push_back(c);

  SubproblemSpec d = a;  // weight-excluded member of a's class
  d.weight = -0.0;
  specs.push_back(d);
  return specs;
}

void expect_fleet_matches_reference(const FleetSoA& fleet,
                                    const FleetDesignResult& result,
                                    const std::vector<SubproblemSpec>& specs) {
  ASSERT_EQ(result.workers(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const DesignResult reference = design_contract(specs[i]);
    EXPECT_EQ(result.resolved[i], 1) << "worker " << i;
    EXPECT_EQ(result.excluded[i] != 0, reference.excluded) << "worker " << i;
    EXPECT_EQ(result.k_opt[i], reference.k_opt) << "worker " << i;
    EXPECT_EQ(result.requester_utility[i], reference.requester_utility)
        << "worker " << i;
    EXPECT_EQ(result.upper_bound[i], reference.upper_bound) << "worker " << i;
    EXPECT_EQ(result.lower_bound[i], reference.lower_bound) << "worker " << i;
    EXPECT_EQ(result.effort[i], reference.response.effort) << "worker " << i;
    EXPECT_EQ(result.worker_utility[i], reference.response.utility)
        << "worker " << i;
    EXPECT_EQ(result.feedback[i], reference.response.feedback)
        << "worker " << i;
    EXPECT_EQ(result.compensation[i], reference.response.compensation)
        << "worker " << i;
    EXPECT_EQ(result.response_interval[i], reference.response.interval)
        << "worker " << i;
  }
  (void)fleet;
}

TEST(ScratchArenaTest, PointersStableAndCapacityRetained) {
  ScratchArena arena;
  double* a = arena.doubles(100);
  a[0] = 1.0;
  a[99] = 2.0;
  // A block-spilling allocation must not move the first span.
  double* b = arena.zeroed_doubles(10000);
  EXPECT_EQ(a[0], 1.0);
  EXPECT_EQ(a[99], 2.0);
  EXPECT_EQ(b[0], 0.0);
  EXPECT_EQ(b[9999], 0.0);
  const std::size_t capacity = arena.capacity();
  EXPECT_GE(capacity, 10100u);

  arena.reset();
  // Same demand after reset reuses the blocks: capacity unchanged.
  arena.doubles(100);
  arena.doubles(10000);
  EXPECT_EQ(arena.capacity(), capacity);
  EXPECT_EQ(arena.doubles(0), nullptr);
}

TEST(FleetSoATest, GroupsWorkersByCanonicalClass) {
  const std::vector<SubproblemSpec> specs = tricky_specs();
  const FleetSoA fleet = FleetSoA::from_specs(specs);
  ASSERT_EQ(fleet.workers(), 4u);
  // a, b, d share the canonical class (b only via -0.0 normalization);
  // the denormal-r0 spec is its own class.
  ASSERT_EQ(fleet.classes(), 2u);
  EXPECT_EQ(fleet.class_of[0], 0u);
  EXPECT_EQ(fleet.class_of[1], 0u);
  EXPECT_EQ(fleet.class_of[2], 1u);
  EXPECT_EQ(fleet.class_of[3], 0u);
  // Canonical fields: the -0.0s are stored as +0.0.
  EXPECT_FALSE(std::signbit(fleet.omega[0]));
  EXPECT_FALSE(std::signbit(fleet.r0[0]));
  EXPECT_EQ(fleet.first_positive[0], 0u);
  EXPECT_EQ(fleet.first_positive[1], 2u);
  // CSR: class 0 holds workers {0, 1, 3} in input order, class 1 holds {2}.
  ASSERT_EQ(fleet.class_begin.size(), 3u);
  EXPECT_EQ(fleet.class_begin[1] - fleet.class_begin[0], 3u);
  EXPECT_EQ(fleet.order[0], 0u);
  EXPECT_EQ(fleet.order[1], 1u);
  EXPECT_EQ(fleet.order[2], 3u);
  EXPECT_EQ(fleet.order[3], 2u);
  EXPECT_EQ(fleet.grouped_weight[2], specs[3].weight);
  // worker_spec round-trips the per-worker view.
  EXPECT_EQ(fleet.worker_spec(1).weight, specs[1].weight);
  EXPECT_EQ(fleet.worker_spec(1).intervals, specs[1].intervals);
}

TEST(FleetSoATest, AllExcludedClassHasNoRepresentative) {
  std::vector<SubproblemSpec> specs = tricky_specs();
  for (SubproblemSpec& spec : specs) {
    if (spec.intervals == specs[2].intervals &&
        spec.psi.r0() == specs[2].psi.r0()) {
      spec.weight = -1.0;
    }
  }
  specs[2].weight = 0.0;
  const FleetSoA fleet = FleetSoA::from_specs(specs);
  EXPECT_EQ(fleet.first_positive[fleet.class_of[2]], FleetSoA::npos);
}

TEST(FleetDesignTest, ResultAtMatchesDesignContract) {
  const std::vector<SubproblemSpec> specs = random_fleet(60, 45);
  const FleetSoA fleet = FleetSoA::from_specs(specs);
  const FleetDesignResult result = design_fleet(fleet);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const DesignResult scalarized = result.result_at(fleet, i);
    const DesignResult reference = design_contract(fleet.worker_spec(i));
    EXPECT_EQ(scalarized.k_opt, reference.k_opt) << "worker " << i;
    EXPECT_EQ(scalarized.requester_utility, reference.requester_utility)
        << "worker " << i;
    EXPECT_EQ(scalarized.utility_by_k, reference.utility_by_k)
        << "worker " << i;
    EXPECT_EQ(scalarized.pay_by_k, reference.pay_by_k) << "worker " << i;
    EXPECT_EQ(scalarized.excluded, reference.excluded) << "worker " << i;
  }
}

TEST(FleetDesignTest, StatsMatchBatchAccounting) {
  const std::vector<SubproblemSpec> specs = random_fleet(120, 46);
  DesignCacheStats batch_stats;
  design_contracts_batch(specs, {}, &batch_stats);
  DesignCacheStats fleet_stats;
  design_fleet(FleetSoA::from_specs(specs), {}, &fleet_stats);
  EXPECT_EQ(fleet_stats.lookups, batch_stats.lookups);
  EXPECT_EQ(fleet_stats.hits, batch_stats.hits);
  EXPECT_EQ(fleet_stats.misses, batch_stats.misses);
  EXPECT_EQ(fleet_stats.sweep_steps_computed,
            batch_stats.sweep_steps_computed);
  EXPECT_EQ(fleet_stats.sweep_steps_avoided, batch_stats.sweep_steps_avoided);
}

// Every class shape the blocked resolve kernel and the fleet epilogue
// treat specially: class sizes 1, block - 1, block and block + 1 (the
// kernel resolves 64 workers per block), -0.0 and denormal fields,
// weights <= 0 (including -0.0 and a denormal), a class where every
// candidate loses money (the §V all-negative exclusion), omega > 0 (the
// free-ride upper bound) and more intervals than a block holds.
std::vector<SubproblemSpec> edge_fleet(std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<SubproblemSpec> specs;
  const auto add_class = [&](const SubproblemSpec& base, std::size_t size) {
    for (std::size_t j = 0; j < size; ++j) {
      SubproblemSpec spec = base;
      spec.weight = rng.uniform(-0.2, 3.0);
      specs.push_back(spec);
    }
  };
  SubproblemSpec base;
  base.psi = effort::QuadraticEffort(-1.0, 8.0, 2.0);
  base.incentives = {1.0, 0.0};
  for (const std::size_t size : {1u, 63u, 64u, 65u}) {
    base.incentives.beta = 1.0 + 0.01 * static_cast<double>(size);
    add_class(base, size);
  }

  SubproblemSpec free_ride = base;  // omega > 0, m beyond one block
  free_ride.incentives = {1.1, 0.4};
  free_ride.intervals = 130;
  add_class(free_ride, 65);

  SubproblemSpec losing = base;  // every candidate loses money
  losing.mu = 1000.0;
  add_class(losing, 40);

  SubproblemSpec zeros = base;  // -0.0 fields, canonicalized into +0.0
  zeros.psi = effort::QuadraticEffort(-1.0, 8.0, -0.0);
  zeros.incentives.omega = -0.0;
  add_class(zeros, 3);
  zeros.psi = effort::QuadraticEffort(-1.0, 8.0, 0.0);
  zeros.incentives.omega = 0.0;
  add_class(zeros, 3);

  SubproblemSpec denormal = base;  // denormal r0 and omega
  denormal.psi = effort::QuadraticEffort(
      -1.0, 8.0, std::numeric_limits<double>::denorm_min());
  denormal.incentives.omega = std::numeric_limits<double>::denorm_min();
  add_class(denormal, 5);

  // Weight corners on existing classes.
  for (const double weight :
       {0.0, -0.0, -1.0, std::numeric_limits<double>::denorm_min(), 1e-9}) {
    SubproblemSpec spec = base;
    spec.weight = weight;
    specs.push_back(spec);
  }

  // Shuffle so class members interleave in input order.
  for (std::size_t i = specs.size(); i > 1; --i) {
    std::swap(specs[i - 1], specs[rng.next_u64() % i]);
  }
  return specs;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_same_design(const DesignResult& a, const DesignResult& b,
                        const std::string& where) {
  EXPECT_EQ(a.excluded, b.excluded) << where;
  EXPECT_EQ(a.k_opt, b.k_opt) << where;
  EXPECT_TRUE(same_bits(a.requester_utility, b.requester_utility)) << where;
  EXPECT_TRUE(same_bits(a.upper_bound, b.upper_bound)) << where;
  EXPECT_TRUE(same_bits(a.lower_bound, b.lower_bound)) << where;
  EXPECT_TRUE(same_bits(a.response.effort, b.response.effort)) << where;
  EXPECT_TRUE(same_bits(a.response.utility, b.response.utility)) << where;
  EXPECT_TRUE(same_bits(a.response.feedback, b.response.feedback)) << where;
  EXPECT_TRUE(same_bits(a.response.compensation, b.response.compensation))
      << where;
  EXPECT_EQ(a.response.interval, b.response.interval) << where;
  ASSERT_EQ(a.utility_by_k.size(), b.utility_by_k.size()) << where;
  ASSERT_EQ(a.pay_by_k.size(), b.pay_by_k.size()) << where;
  for (std::size_t k = 0; k < a.utility_by_k.size(); ++k) {
    EXPECT_TRUE(same_bits(a.utility_by_k[k], b.utility_by_k[k]))
        << where << " k " << k;
    EXPECT_TRUE(same_bits(a.pay_by_k[k], b.pay_by_k[k]))
        << where << " k " << k;
  }
  ASSERT_EQ(a.contract.is_zero(), b.contract.is_zero()) << where;
  ASSERT_EQ(a.contract.intervals(), b.contract.intervals()) << where;
  if (a.contract.is_zero()) return;
  for (std::size_t l = 0; l <= a.contract.intervals(); ++l) {
    EXPECT_TRUE(same_bits(a.contract.payment(l), b.contract.payment(l)))
        << where << " knot " << l;
  }
}

// The randomized property the batch engine rests on: design_fleet (SoA
// outputs and result_at), design_contracts_batch, and the cached
// per-worker resolve_design agree bitwise with the uncached
// design_contract for every worker, with a shared cache and a pool of
// several threads.
TEST(FleetDesignTest, CachedUncachedAndBatchedAgreeProperty) {
  util::ThreadPool pool(3);
  for (const std::uint64_t seed : {1ull, 7ull, 1234ull}) {
    std::vector<SubproblemSpec> specs = random_fleet(80, seed);
    const std::vector<SubproblemSpec> tricky = tricky_specs();
    specs.insert(specs.end(), tricky.begin(), tricky.end());
    const std::vector<SubproblemSpec> edges = edge_fleet(seed);
    specs.insert(specs.end(), edges.begin(), edges.end());

    DesignCache cache;
    BatchOptions batch_options;
    batch_options.pool = &pool;
    batch_options.cache = &cache;
    const std::vector<DesignResult> batched =
        design_contracts_batch(specs, batch_options);

    const FleetSoA fleet = FleetSoA::from_specs(specs);
    FleetOptions fleet_options;
    fleet_options.pool = &pool;
    fleet_options.cache = &cache;
    const FleetDesignResult soa = design_fleet(fleet, fleet_options);
    expect_fleet_matches_reference(fleet, soa, specs);

    for (std::size_t i = 0; i < specs.size(); ++i) {
      const std::string where =
          "seed " + std::to_string(seed) + " worker " + std::to_string(i);
      const DesignResult uncached = design_contract(specs[i]);
      const DesignResult cached =
          specs[i].weight > 0.0
              ? resolve_design(specs[i], *cache.table_for(specs[i]))
              : uncached;
      expect_same_design(cached, uncached, where + " (cached)");
      expect_same_design(batched[i], uncached, where + " (batch)");
      expect_same_design(soa.result_at(fleet, i), uncached,
                         where + " (result_at)");
      EXPECT_TRUE(same_bits(soa.requester_utility[i],
                            uncached.requester_utility)) << where;
      EXPECT_TRUE(same_bits(soa.upper_bound[i], uncached.upper_bound))
          << where;
      EXPECT_TRUE(same_bits(soa.lower_bound[i], uncached.lower_bound))
          << where;
    }
  }
}

TEST(FleetDesignTest, EdgeFleetCoversExclusionAndFreeRide) {
  // Guards the property above against a generator that drifts away from
  // its corners: the edge fleet must contain §V all-negative exclusions,
  // weight exclusions, and designed workers with a free-ride upper bound.
  const std::vector<SubproblemSpec> specs = edge_fleet(1);
  std::size_t all_negative = 0;
  std::size_t weight_excluded = 0;
  std::size_t free_ride = 0;
  for (const SubproblemSpec& spec : specs) {
    const DesignResult d = design_contract(spec);
    if (spec.weight <= 0.0) {
      ++weight_excluded;
    } else if (d.excluded) {
      ++all_negative;
    } else if (spec.incentives.omega > 0.0) {
      ++free_ride;
    }
  }
  EXPECT_GT(all_negative, 20u);
  EXPECT_GT(weight_excluded, 10u);
  EXPECT_GT(free_ride, 40u);
}

// Failures are isolated per worker: an invalid spec fails its class, an
// injected "contract.design" fault fails one worker, every other worker is
// designed exactly as design_contract would, and design_contracts_batch
// rethrows the lowest-index error.
TEST(FleetDesignTest, FailuresStayWithTheirWorkers) {
  std::vector<SubproblemSpec> specs = random_fleet(60, 47);
  SubproblemSpec bad = specs[0];
  bad.mu = 0.0;  // invalid: mu must be positive
  for (const std::size_t at : {5u, 30u}) {
    specs.insert(specs.begin() + static_cast<std::ptrdiff_t>(at), bad);
  }
  specs[30].weight = -1.0;  // weight-excluded members fail validation too

  const FleetSoA fleet = FleetSoA::from_specs(specs);
  const FleetDesignResult result = design_fleet(fleet);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].mu == 0.0) {
      EXPECT_NE(result.error[i], nullptr) << "worker " << i;
      EXPECT_EQ(result.resolved[i], 0) << "worker " << i;
      EXPECT_THROW(design_contract(specs[i]), Error) << "worker " << i;
      continue;
    }
    ASSERT_EQ(result.error[i], nullptr) << "worker " << i;
    expect_same_design(result.result_at(fleet, i), design_contract(specs[i]),
                       "worker " + std::to_string(i));
  }
  try {
    design_contracts_batch(specs);
    FAIL() << "batch should rethrow the invalid spec's error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("mu must be positive"),
              std::string::npos) << e.what();
  }

  struct InjectorGuard {  // leaves the process-wide injector disarmed
    ~InjectorGuard() { util::FaultInjector::instance().disable(); }
  } guard;
  util::FaultInjectorConfig chaos;
  chaos.enabled = true;
  chaos.seed = 3;
  chaos.site_rates["contract.design"] = 0.3;
  util::FaultInjector::instance().configure(chaos);
  const std::vector<SubproblemSpec> clean = random_fleet(200, 48);
  const FleetSoA clean_fleet = FleetSoA::from_specs(clean);
  const FleetDesignResult faulted = design_fleet(clean_fleet);
  const std::size_t fired =
      util::FaultInjector::instance().injected("contract.design");
  EXPECT_THROW(design_contracts_batch(clean), ContractError);
  util::FaultInjector::instance().disable();

  std::size_t failed = 0;
  for (std::size_t i = 0; i < clean.size(); ++i) {
    if (faulted.error[i] != nullptr) {
      ++failed;
      EXPECT_GT(clean[i].weight, 0.0) << "worker " << i;
      EXPECT_EQ(faulted.resolved[i], 0) << "worker " << i;
      EXPECT_THROW(faulted.result_at(clean_fleet, i), ContractError);
      continue;
    }
    expect_same_design(faulted.result_at(clean_fleet, i),
                       design_contract(clean[i]),
                       "worker " + std::to_string(i));
  }
  EXPECT_EQ(failed, fired);
  EXPECT_GT(failed, 0u);
  EXPECT_LT(failed, clean.size());
}

// Both exclusion routes (weight <= 0 and the §V all-negative fallback)
// post the zero contract with the worker's zero-contract best response,
// whatever design_contract's own implementation does.
TEST(FleetDesignTest, ExcludedWorkersGetTheZeroContract) {
  const std::vector<SubproblemSpec> specs = edge_fleet(5);
  const FleetSoA fleet = FleetSoA::from_specs(specs);
  const FleetDesignResult result = design_fleet(fleet);
  std::size_t by_weight = 0;
  std::size_t by_utility = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (!result.excluded[i]) continue;
    (specs[i].weight <= 0.0 ? by_weight : by_utility) += 1;
    const std::string where = "worker " + std::to_string(i);
    EXPECT_EQ(result.resolved[i], 1) << where;
    EXPECT_EQ(result.k_opt[i], 0u) << where;
    EXPECT_EQ(result.requester_utility[i], 0.0) << where;
    EXPECT_EQ(result.upper_bound[i], 0.0) << where;
    EXPECT_EQ(result.lower_bound[i], 0.0) << where;
    const BestResponse zero =
        best_response(Contract(), specs[i].psi, specs[i].incentives);
    EXPECT_TRUE(same_bits(result.effort[i], zero.effort)) << where;
    EXPECT_TRUE(same_bits(result.worker_utility[i], zero.utility)) << where;
    EXPECT_TRUE(same_bits(result.feedback[i], zero.feedback)) << where;
    EXPECT_TRUE(same_bits(result.compensation[i], zero.compensation))
        << where;
    EXPECT_EQ(result.response_interval[i], zero.interval) << where;
    EXPECT_TRUE(result.result_at(fleet, i).contract.is_zero()) << where;
  }
  EXPECT_GT(by_weight, 0u);
  EXPECT_GT(by_utility, 0u);
}

// A designed worker's contract is its class table's k_opt candidate: one
// table per class, shared by every member, none for a class without a
// positive-weight worker.
TEST(FleetDesignTest, DesignedWorkersShareTheirClassTable) {
  std::vector<SubproblemSpec> specs = random_fleet(50, 49);
  SubproblemSpec idle = specs[0];  // a class whose only worker is excluded
  idle.intervals = 7;
  idle.weight = 0.0;
  specs.push_back(idle);
  const FleetSoA fleet = FleetSoA::from_specs(specs);
  const FleetDesignResult result = design_fleet(fleet);
  ASSERT_EQ(result.tables.size(), fleet.classes());
  for (std::size_t c = 0; c < fleet.classes(); ++c) {
    EXPECT_EQ(result.tables[c] == nullptr,
              fleet.first_positive[c] == FleetSoA::npos) << "class " << c;
  }
  EXPECT_EQ(result.tables[fleet.class_of.back()], nullptr);

  std::size_t designed = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (result.excluded[i]) continue;
    ++designed;
    const std::shared_ptr<const DesignTable>& table =
        result.tables[fleet.class_of[i]];
    ASSERT_NE(table, nullptr) << "worker " << i;
    ASSERT_EQ(table->candidates.size(), specs[i].intervals) << "worker " << i;
    const Contract& posted = table->candidates[result.k_opt[i] - 1].contract;
    const Contract contract = result.result_at(fleet, i).contract;
    ASSERT_EQ(contract.intervals(), posted.intervals()) << "worker " << i;
    for (std::size_t l = 0; l <= posted.intervals(); ++l) {
      EXPECT_TRUE(same_bits(contract.payment(l), posted.payment(l)))
          << "worker " << i << " knot " << l;
    }
  }
  EXPECT_GT(designed, fleet.classes());
}

// A cache shared across calls serves the second call without any sweep,
// and the served tables design every worker exactly as the first call.
TEST(FleetDesignTest, SharedCacheServesSecondCallWithoutSweeps) {
  const std::vector<SubproblemSpec> specs = random_fleet(90, 50);
  const FleetSoA fleet = FleetSoA::from_specs(specs);
  DesignCache cache;
  FleetOptions options;
  options.cache = &cache;
  DesignCacheStats first_stats;
  const FleetDesignResult first = design_fleet(fleet, options, &first_stats);
  DesignCacheStats second_stats;
  const FleetDesignResult second = design_fleet(fleet, options, &second_stats);

  EXPECT_GT(first_stats.misses, 0u);
  EXPECT_EQ(first_stats.misses, cache.size());
  EXPECT_EQ(second_stats.misses, 0u);
  EXPECT_EQ(second_stats.sweep_steps_computed, 0u);
  EXPECT_EQ(second_stats.lookups, first_stats.lookups);
  EXPECT_EQ(second_stats.hits, second_stats.lookups);
  EXPECT_EQ(cache.size(), first_stats.misses);
  for (std::size_t c = 0; c < fleet.classes(); ++c) {
    EXPECT_EQ(first.tables[c], second.tables[c]) << "class " << c;
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    expect_same_design(second.result_at(fleet, i), first.result_at(fleet, i),
                       "worker " + std::to_string(i));
  }
}

// A token cancelled before the call skips every class: no worker is
// resolved, none carries an error, and result_at refuses to read them.
TEST(FleetDesignTest, CancelledTokenLeavesWorkersUnresolved) {
  const std::vector<SubproblemSpec> specs = random_fleet(40, 51);
  const FleetSoA fleet = FleetSoA::from_specs(specs);
  util::CancellationToken token;
  token.request_cancel();
  FleetOptions options;
  options.cancel = &token;
  DesignCacheStats stats;
  const FleetDesignResult result = design_fleet(fleet, options, &stats);
  ASSERT_EQ(result.workers(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(result.resolved[i], 0) << "worker " << i;
    EXPECT_EQ(result.error[i], nullptr) << "worker " << i;
    EXPECT_THROW(result.result_at(fleet, i), Error) << "worker " << i;
  }
  for (const auto& table : result.tables) EXPECT_EQ(table, nullptr);
  EXPECT_EQ(stats.lookups, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_NO_THROW(result.rethrow_first_error());
}

// sweep_histogram times one table lookup per class that has a
// positive-weight worker, hit or miss, and nothing for all-excluded
// classes.
TEST(FleetDesignTest, SweepHistogramTimesEachClassLookup) {
  std::vector<SubproblemSpec> specs = random_fleet(70, 52);
  SubproblemSpec idle = specs[0];
  idle.intervals = 9;
  idle.weight = -1.0;
  specs.push_back(idle);
  const FleetSoA fleet = FleetSoA::from_specs(specs);
  std::size_t lookups = 0;
  for (std::size_t c = 0; c < fleet.classes(); ++c) {
    if (fleet.first_positive[c] != FleetSoA::npos) ++lookups;
  }
  ASSERT_LT(lookups, fleet.classes());

  const bool recording =
      util::metrics::compiled_in() && util::metrics::enabled();
  util::metrics::Histogram histogram;
  DesignCache cache;
  FleetOptions options;
  options.cache = &cache;
  options.sweep_histogram = &histogram;
  design_fleet(fleet, options);
  EXPECT_EQ(histogram.count(), recording ? lookups : 0u);
  design_fleet(fleet, options);  // all hits: still one sample per class
  EXPECT_EQ(histogram.count(), recording ? 2 * lookups : 0u);
}

TEST(FleetDesignTest, EmptyFleetDesignsNothing) {
  const FleetSoA fleet = FleetSoA::from_specs({});
  EXPECT_EQ(fleet.workers(), 0u);
  EXPECT_EQ(fleet.classes(), 0u);
  DesignCacheStats stats;
  stats.lookups = 99;  // overwritten with the call's (zero) counters
  const FleetDesignResult result = design_fleet(fleet, {}, &stats);
  EXPECT_EQ(result.workers(), 0u);
  EXPECT_TRUE(result.tables.empty());
  EXPECT_EQ(stats.lookups, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_NO_THROW(result.rethrow_first_error());
  EXPECT_TRUE(design_contracts_batch({}).empty());
}

// Classes fan out over the pool, but each class is designed by one task
// with per-thread scratch: the outputs do not depend on the pool size.
TEST(FleetDesignTest, ResultsDoNotDependOnPoolSize) {
  std::vector<SubproblemSpec> specs = random_fleet(150, 53);
  const std::vector<SubproblemSpec> edges = edge_fleet(53);
  specs.insert(specs.end(), edges.begin(), edges.end());
  const FleetSoA fleet = FleetSoA::from_specs(specs);
  util::ThreadPool one(1);
  util::ThreadPool four(4);
  FleetOptions serial;
  serial.pool = &one;
  FleetOptions parallel;
  parallel.pool = &four;
  const FleetDesignResult a = design_fleet(fleet, serial);
  const FleetDesignResult b = design_fleet(fleet, parallel);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::string where = "worker " + std::to_string(i);
    EXPECT_EQ(a.resolved[i], b.resolved[i]) << where;
    EXPECT_EQ(a.excluded[i], b.excluded[i]) << where;
    EXPECT_EQ(a.k_opt[i], b.k_opt[i]) << where;
    EXPECT_TRUE(same_bits(a.requester_utility[i], b.requester_utility[i]))
        << where;
    EXPECT_TRUE(same_bits(a.upper_bound[i], b.upper_bound[i])) << where;
    EXPECT_TRUE(same_bits(a.lower_bound[i], b.lower_bound[i])) << where;
    EXPECT_TRUE(same_bits(a.effort[i], b.effort[i])) << where;
    EXPECT_TRUE(same_bits(a.compensation[i], b.compensation[i])) << where;
  }
}

TEST(KSweepTest, ResolveClassMatchesResolveDesign) {
  // Direct kernel-level check on one class against resolve_design over a
  // weight sweep spanning two full resolve blocks plus a tail.
  SubproblemSpec spec;
  spec.psi = effort::QuadraticEffort(-1.0, 8.0, 2.0);
  spec.incentives = {1.0, 0.4};
  spec.mu = 1.0;
  spec.intervals = 24;
  const DesignTable table = build_design_table(spec);

  std::vector<double> weights;
  for (int i = 0; i < 131; ++i) {
    weights.push_back(0.01 + 0.035 * static_cast<double>(i));
  }
  ScratchArena arena;
  const ClassTableau tableau = build_class_tableau(spec, table, arena);
  std::vector<std::size_t> k_opt(weights.size());
  std::vector<double> utility(weights.size());
  std::vector<double> upper(weights.size());
  resolve_class(tableau, weights.data(), weights.size(),
                ResolveOut{k_opt.data(), utility.data(), upper.data()});
  for (std::size_t i = 0; i < weights.size(); ++i) {
    SubproblemSpec worker = spec;
    worker.weight = weights[i];
    const DesignResult reference = resolve_design(worker, table);
    if (reference.excluded) {
      EXPECT_LT(utility[i], 0.0) << "worker " << i;
    } else {
      EXPECT_EQ(k_opt[i], reference.k_opt) << "worker " << i;
      EXPECT_EQ(utility[i], reference.requester_utility) << "worker " << i;
      EXPECT_EQ(upper[i], reference.upper_bound) << "worker " << i;
    }
  }
}

// A hand-built four-candidate tableau with dyadic values, so every
// utility below is exact: w * feedback_k - mu * pay_k with mu = 2 is
//   w = 0.5: 0.5, 0, -0.5, -2     -> k 1
//   w = 1:   1, 1, 1, 0           -> k 1 (three-way tie)
//   w = 2:   2, 3, 4, 4           -> k 3 (tie with k 4)
//   w = 3:   3, 5, 7, 8           -> k 4
// and the Theorem 4.1 upper-bound terms w * ub_feedback_l - mu * ub_pay_l
//   w = 0.5: 1, 0.5, 0, -1.5      -> 1
//   w = 1:   2, 2, 2, 1           -> 2
//   w = 2:   4, 5, 6, 6           -> 6
//   w = 3:   6, 8, 10, 11         -> 11
struct HandTableau {
  double feedback[4] = {1.0, 2.0, 3.0, 4.0};
  double pay[4] = {0.0, 0.5, 1.0, 2.0};
  double ub_feedback[4] = {2.0, 3.0, 4.0, 5.0};
  double ub_pay[4] = {0.0, 0.5, 1.0, 2.0};
  double lb_feedback[4] = {0.0, 1.0, 2.0, 3.0};
  double lb_pay[4] = {0.0, 0.0, 0.5, 1.0};
  std::vector<double> weights = {0.5, 1.0, 2.0, 3.0};

  ClassTableau tableau() const {
    ClassTableau t;
    t.m = 4;
    t.mu = 2.0;
    t.feedback = feedback;
    t.pay = pay;
    t.ub_feedback = ub_feedback;
    t.ub_pay = ub_pay;
    t.lb_feedback = lb_feedback;
    t.lb_pay = lb_pay;
    return t;
  }
};

TEST(KSweepTest, ResolveClassTieKeepsLowestK) {
  const HandTableau hand;
  const std::size_t n = hand.weights.size();
  std::vector<std::size_t> k_opt(n);
  std::vector<double> utility(n);
  std::vector<double> upper(n);
  resolve_class(hand.tableau(), hand.weights.data(), n,
                ResolveOut{k_opt.data(), utility.data(), upper.data()});
  EXPECT_EQ(k_opt, (std::vector<std::size_t>{1, 1, 3, 4}));
  EXPECT_EQ(utility, (std::vector<double>{0.5, 1.0, 4.0, 8.0}));
  EXPECT_EQ(upper, (std::vector<double>{1.0, 2.0, 6.0, 11.0}));
}

// With omega > 0 the upper bound also considers the free-ride term
// w * psi(y_free); it wins for w = 0.5 and w = 1, ties for w = 2 and
// loses for w = 3. The argmax does not see it.
TEST(KSweepTest, ResolveClassUpperBoundTakesFreeRide) {
  const HandTableau hand;
  ClassTableau tableau = hand.tableau();
  tableau.has_free_ride = true;
  tableau.free_ride_feedback = 3.0;
  const std::size_t n = hand.weights.size();
  std::vector<std::size_t> k_opt(n);
  std::vector<double> utility(n);
  std::vector<double> upper(n);
  resolve_class(tableau, hand.weights.data(), n,
                ResolveOut{k_opt.data(), utility.data(), upper.data()});
  EXPECT_EQ(k_opt, (std::vector<std::size_t>{1, 1, 3, 4}));
  EXPECT_EQ(utility, (std::vector<double>{0.5, 1.0, 4.0, 8.0}));
  EXPECT_EQ(upper, (std::vector<double>{1.5, 3.0, 6.0, 11.0}));
}

// The kernel pads a short tail block internally but writes exactly
// `count` outputs: entries past it keep whatever the caller put there.
TEST(KSweepTest, ResolveClassWritesExactlyCountOutputs) {
  const HandTableau hand;
  constexpr std::size_t kSlack = 5;
  constexpr std::size_t kExpectedK[] = {1, 1, 3, 4};
  for (const std::size_t count : {0u, 1u, 63u, 64u, 65u, 130u}) {
    std::vector<double> weights(count + kSlack);
    for (std::size_t i = 0; i < weights.size(); ++i) {
      weights[i] = hand.weights[i % hand.weights.size()];
    }
    std::vector<std::size_t> k_opt(count + kSlack, 777);
    std::vector<double> utility(count + kSlack, -5.0);
    std::vector<double> upper(count + kSlack, -6.0);
    resolve_class(hand.tableau(), weights.data(), count,
                  ResolveOut{k_opt.data(), utility.data(), upper.data()});
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t lane = i % hand.weights.size();
      EXPECT_EQ(k_opt[i], kExpectedK[lane])
          << "count " << count << " worker " << i;
    }
    for (std::size_t i = count; i < count + kSlack; ++i) {
      EXPECT_EQ(k_opt[i], 777u) << "count " << count << " slot " << i;
      EXPECT_EQ(utility[i], -5.0) << "count " << count << " slot " << i;
      EXPECT_EQ(upper[i], -6.0) << "count " << count << " slot " << i;
    }
  }
}

}  // namespace
}  // namespace ccd::contract
