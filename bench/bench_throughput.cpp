// Fleet design throughput gate: workers designed per second by
// design_fleet (the batch design engine) and by design_contracts_batch
// (its AoS adapter), against the reference per-worker resolve_design over
// the same cached class tables, on a steady-state fleet whose tables are
// cached before any timed run — the serve/stackelberg redesign hot path.
// Gated: design_fleet / reference >= min_ratio, reference >= min_scalar_wps,
// and fleet and batch bitwise-identical to design_contract on a subsample.
//
// This binary *refuses to publish numbers from non-Release builds*: the
// library it links must have been compiled with CMAKE_BUILD_TYPE=Release
// (CCD_BUILD_TYPE is stamped in by CMake at compile time). Debug or
// RelWithDebInfo throughput is not comparable and has repeatedly polluted
// tracking history in other projects; exit code 3 makes CI fail loudly
// instead. `force=1` overrides for local poking; the JSON still records
// the real build type so a forced run can never masquerade as a gate.
//
// Exit codes: 0 gate passed, 1 gate failed (ratio/floor/bitwise check),
// 2 bad usage, 3 non-release build.
//
// Usage: bench_throughput [workers=20000] [classes=6] [intervals=20]
//                         [min_ratio=2.0] [min_scalar_wps=0]
//                         [out=BENCH_throughput.json] [force=0]
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "contract/design_cache.hpp"
#include "contract/designer.hpp"
#include "contract/fleet_soa.hpp"
#include "util/thread_pool.hpp"

#ifndef CCD_BUILD_TYPE
#define CCD_BUILD_TYPE "unknown"
#endif

namespace {

using namespace ccd;

std::vector<contract::SubproblemSpec> fleet_specs(std::size_t n,
                                                  std::size_t classes,
                                                  std::size_t intervals) {
  std::vector<contract::SubproblemSpec> specs;
  specs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = i % classes;
    const double t = static_cast<double>(c);
    contract::SubproblemSpec spec;
    spec.psi = effort::QuadraticEffort(-1.0 - 0.1 * t, 8.0 - 0.5 * t,
                                       2.0 + 0.25 * t);
    spec.incentives.beta = 1.0 + 0.05 * t;
    spec.incentives.omega = (c % 2 == 0) ? 0.0 : 0.1 * t;
    spec.weight =
        0.2 + 0.8 * static_cast<double>(i) / static_cast<double>(n);
    spec.mu = 1.0;
    spec.intervals = intervals;
    specs.push_back(spec);
  }
  return specs;
}

/// Best workers/second over repeated runs (>= 3 reps and >= 0.3 s total).
template <typename Fn>
double best_wps(std::size_t workers, Fn&& run) {
  double best = 0.0;
  double total_seconds = 0.0;
  for (int rep = 0; rep < 3 || total_seconds < 0.3; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    run();
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    total_seconds += elapsed.count();
    best = std::max(best,
                    static_cast<double>(workers) / elapsed.count());
    if (rep > 100) break;
  }
  return best;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t workers = 20000;
  std::size_t classes = 6;
  std::size_t intervals = 20;
  double min_ratio = 2.0;
  double min_scalar_wps = 0.0;
  std::string out_path = "BENCH_throughput.json";
  bool force = false;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    const auto eq = arg.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "bad argument (want key=value): %s\n", argv[a]);
      return 2;
    }
    const std::string key = arg.substr(0, eq);
    const std::string value = arg.substr(eq + 1);
    if (key == "workers") workers = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "classes") classes = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "intervals") intervals = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "min_ratio") min_ratio = std::strtod(value.c_str(), nullptr);
    else if (key == "min_scalar_wps") min_scalar_wps = std::strtod(value.c_str(), nullptr);
    else if (key == "out") out_path = value;
    else if (key == "force") force = value != "0";
    else { std::fprintf(stderr, "unknown key: %s\n", key.c_str()); return 2; }
  }

  const std::string build_type = CCD_BUILD_TYPE;
  if (build_type != "release" && !force) {
    std::fprintf(stderr,
                 "bench_throughput: library_build_type is \"%s\", not "
                 "\"release\"; refusing to publish throughput numbers "
                 "(rebuild with -DCMAKE_BUILD_TYPE=Release, or pass force=1 "
                 "for a local, non-gating run)\n",
                 build_type.c_str());
    return 3;
  }

  const std::vector<contract::SubproblemSpec> specs =
      fleet_specs(workers, classes, intervals);
  util::ThreadPool pool(1);  // single-thread numbers: gate kernel speed,
                             // not core count
  contract::DesignCache cache;
  const contract::FleetSoA fleet = contract::FleetSoA::from_specs(specs);

  // Steady state: all class tables cached before any timed run.
  std::vector<std::shared_ptr<const contract::DesignTable>> tables;
  for (std::size_t c = 0; c < fleet.classes(); ++c) {
    tables.push_back(cache.table_for(fleet.class_spec(c)));
  }

  // Reference: one resolve_design per worker over its class's table.
  std::vector<contract::DesignResult> reference_results(workers);
  const double reference_wps = best_wps(workers, [&] {
    for (std::size_t i = 0; i < workers; ++i) {
      reference_results[i] =
          contract::resolve_design(specs[i], *tables[fleet.class_of[i]]);
    }
  });

  contract::FleetOptions fleet_opts;
  fleet_opts.pool = &pool;
  fleet_opts.cache = &cache;
  contract::FleetDesignResult fleet_result;
  const double fleet_wps = best_wps(workers, [&] {
    fleet_result = contract::design_fleet(fleet, fleet_opts);
  });

  contract::BatchOptions batch_opts;
  batch_opts.pool = &pool;
  batch_opts.cache = &cache;
  std::vector<contract::DesignResult> batch_results;
  const double batch_wps = best_wps(workers, [&] {
    batch_results = contract::design_contracts_batch(specs, batch_opts);
  });

  // Self-check on a subsample: the reference, the fleet SoA outputs and
  // the batch results must all be bitwise-identical to the uncached
  // design_contract.
  const auto same_design = [](const contract::DesignResult& a,
                              const contract::DesignResult& b) {
    return a.k_opt == b.k_opt &&
           same_bits(a.requester_utility, b.requester_utility) &&
           same_bits(a.upper_bound, b.upper_bound) &&
           same_bits(a.lower_bound, b.lower_bound) &&
           same_bits(a.response.effort, b.response.effort) &&
           same_bits(a.response.compensation, b.response.compensation);
  };
  bool bitwise = true;
  const std::size_t stride = std::max<std::size_t>(1, workers / 64);
  for (std::size_t i = 0; i < workers; i += stride) {
    const contract::DesignResult reference =
        contract::design_contract(specs[i]);
    bitwise = bitwise && same_design(reference_results[i], reference) &&
              same_design(batch_results[i], reference) &&
              fleet_result.resolved[i] != 0 &&
              same_design(fleet_result.result_at(fleet, i), reference) &&
              same_bits(fleet_result.requester_utility[i],
                        reference.requester_utility) &&
              same_bits(fleet_result.compensation[i],
                        reference.response.compensation);
  }

  const double ratio = reference_wps > 0.0 ? fleet_wps / reference_wps : 0.0;
  const bool ratio_ok = ratio >= min_ratio;
  const bool floor_ok = reference_wps >= min_scalar_wps;
  const bool release = build_type == "release";
  const bool pass = release && ratio_ok && floor_ok && bitwise;

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 2;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"library_build_type\": \"%s\",\n", build_type.c_str());
  std::fprintf(out, "  \"workers\": %zu,\n", workers);
  std::fprintf(out, "  \"classes\": %zu,\n", classes);
  std::fprintf(out, "  \"intervals\": %zu,\n", intervals);
  std::fprintf(out, "  \"reference_wps\": %.1f,\n", reference_wps);
  std::fprintf(out, "  \"fleet_wps\": %.1f,\n", fleet_wps);
  std::fprintf(out, "  \"batch_wps\": %.1f,\n", batch_wps);
  std::fprintf(out, "  \"fleet_over_reference_ratio\": %.3f,\n", ratio);
  std::fprintf(out, "  \"min_ratio\": %.3f,\n", min_ratio);
  std::fprintf(out, "  \"min_scalar_wps\": %.1f,\n", min_scalar_wps);
  std::fprintf(out, "  \"bitwise_vs_reference\": %s,\n",
               bitwise ? "true" : "false");
  std::fprintf(out, "  \"pass\": %s\n", pass ? "true" : "false");
  std::fprintf(out, "}\n");
  std::fclose(out);

  std::printf(
      "bench_throughput (%s): reference %.0f w/s, fleet %.0f w/s, batch "
      "%.0f w/s, ratio %.2fx (need >= %.2fx), bitwise %s -> %s\n",
      build_type.c_str(), reference_wps, fleet_wps, batch_wps, ratio,
      min_ratio, bitwise ? "ok" : "FAIL", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
