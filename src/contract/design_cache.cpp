#include "contract/design_cache.hpp"

#include <bit>
#include <utility>

namespace ccd::contract {
namespace {

// Process-wide atomic mirrors of every cache's counters (`ccd.cache.*`).
// Handles are resolved once; increments are lock-free and disarm to a
// branch (or compile out entirely under -DCCD_NO_METRICS).
struct CacheMetrics {
  util::metrics::Counter& lookups;
  util::metrics::Counter& hits;
  util::metrics::Counter& misses;
  util::metrics::Counter& sweep_steps_computed;
  util::metrics::Counter& sweep_steps_avoided;
  util::metrics::Counter& evictions;

  static CacheMetrics& get() {
    static CacheMetrics* const m = [] {
      util::metrics::MetricsRegistry& reg = util::metrics::registry();
      return new CacheMetrics{reg.counter("ccd.cache.lookups"),
                              reg.counter("ccd.cache.hits"),
                              reg.counter("ccd.cache.misses"),
                              reg.counter("ccd.cache.sweep_steps_computed"),
                              reg.counter("ccd.cache.sweep_steps_avoided"),
                              reg.counter("ccd.cache.evictions")};
    }();
    return *m;
  }

  void add(const DesignCacheStats& delta) {
    lookups.add(delta.lookups);
    hits.add(delta.hits);
    misses.add(delta.misses);
    sweep_steps_computed.add(delta.sweep_steps_computed);
    sweep_steps_avoided.add(delta.sweep_steps_avoided);
  }
};

}  // namespace

namespace {

// -0.0 -> +0.0; every other value (including NaN payloads) unchanged.
// Keys canonicalize zeros so bitwise equality still delivers the intended
// sharing for sign-of-zero twins.
double canonical_zero(double value) { return value == 0.0 ? 0.0 : value; }

}  // namespace

DesignCacheKey DesignCacheKey::of(const SubproblemSpec& spec) {
  DesignCacheKey key;
  key.r2 = canonical_zero(spec.psi.r2());
  key.r1 = canonical_zero(spec.psi.r1());
  key.r0 = canonical_zero(spec.psi.r0());
  key.beta = canonical_zero(spec.incentives.beta);
  key.omega = canonical_zero(spec.incentives.omega);
  key.mu = canonical_zero(spec.mu);
  key.intervals = spec.intervals;
  key.domain = canonical_zero(spec.resolved_domain());
  return key;
}

bool DesignCacheKey::operator==(const DesignCacheKey& other) const {
  const auto same = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };
  return same(r2, other.r2) && same(r1, other.r1) && same(r0, other.r0) &&
         same(beta, other.beta) && same(omega, other.omega) &&
         same(mu, other.mu) && intervals == other.intervals &&
         same(domain, other.domain);
}

std::size_t DesignCacheKeyHash::operator()(const DesignCacheKey& key) const {
  // boost::hash_combine-style mix over the bit patterns; doubles hash by
  // representation to mirror the key's bitwise equality.
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
  const auto mix = [&h](std::uint64_t v) {
    v *= 0xff51afd7ed558ccdull;
    v ^= v >> 33;
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  mix(std::bit_cast<std::uint64_t>(key.r2));
  mix(std::bit_cast<std::uint64_t>(key.r1));
  mix(std::bit_cast<std::uint64_t>(key.r0));
  mix(std::bit_cast<std::uint64_t>(key.beta));
  mix(std::bit_cast<std::uint64_t>(key.omega));
  mix(std::bit_cast<std::uint64_t>(key.mu));
  mix(key.intervals);
  mix(std::bit_cast<std::uint64_t>(key.domain));
  return static_cast<std::size_t>(h);
}

DesignCacheStats& DesignCacheStats::operator+=(const DesignCacheStats& other) {
  lookups += other.lookups;
  hits += other.hits;
  misses += other.misses;
  sweep_steps_computed += other.sweep_steps_computed;
  sweep_steps_avoided += other.sweep_steps_avoided;
  return *this;
}

std::shared_ptr<const DesignTable> DesignCache::table_for(
    const SubproblemSpec& spec, bool* was_hit) {
  CacheMetrics& cm = CacheMetrics::get();
  const DesignCacheKey key = DesignCacheKey::of(spec);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = tables_.find(key);
    if (it != tables_.end()) {
      ++stats_.lookups;
      ++stats_.hits;
      stats_.sweep_steps_avoided += spec.intervals;
      if (was_hit) *was_hit = true;
      cm.lookups.add(1);
      cm.hits.add(1);
      cm.sweep_steps_avoided.add(spec.intervals);
      return it->second;
    }
  }
  auto table = std::make_shared<const DesignTable>(build_design_table(spec));
  std::shared_ptr<const DesignTable> winner;
  bool inserted;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.lookups;
    const auto [it, fresh] = tables_.emplace(key, std::move(table));
    inserted = fresh;
    if (inserted) {
      ++stats_.misses;
      stats_.sweep_steps_computed += spec.intervals;
    } else {
      // Lost a race to another thread building the same spec: count as a
      // hit and use the winner's (identical) table.
      ++stats_.hits;
      stats_.sweep_steps_avoided += spec.intervals;
    }
    winner = it->second;
  }
  cm.lookups.add(1);
  if (inserted) {
    cm.misses.add(1);
    cm.sweep_steps_computed.add(spec.intervals);
  } else {
    cm.hits.add(1);
    cm.sweep_steps_avoided.add(spec.intervals);
  }
  if (was_hit) *was_hit = !inserted;
  return winner;
}

DesignCacheStats DesignCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t DesignCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return tables_.size();
}

void DesignCache::clear() {
  std::size_t dropped;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    dropped = tables_.size();
    tables_.clear();
    stats_ = DesignCacheStats{};
  }
  CacheMetrics::get().evictions.add(dropped);
}

void DesignCache::record(const DesignCacheStats& delta) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stats_ += delta;
  }
  CacheMetrics::get().add(delta);
}

// design_contracts_batch lives in fleet_soa.cpp, next to design_fleet.

}  // namespace ccd::contract
