// Golden-shape regression harness over the paper's evaluation shapes: the
// executable form of bench_fig6_bounds, bench_table2_communities, and
// bench_fig8c_vs_baseline. The benches print tables for humans; these tests
// pin the shapes those tables are expected to show, so a regression in the
// designer, the generator, or the clustering trips CI instead of silently
// bending a figure.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>

#include "contract/baselines.hpp"
#include "contract/designer.hpp"
#include "contract/fleet_soa.hpp"
#include "core/pipeline.hpp"
#include "data/generator.hpp"
#include "detect/collusion.hpp"
#include "effort/effort_model.hpp"

namespace ccd {
namespace {

// Fig. 6 — designed requester utility vs the Theorem 4.1 bounds for a
// single honest worker as the effort partition densifies.
class Fig6Regression : public ::testing::Test {
 protected:
  static contract::SubproblemSpec spec() {
    contract::SubproblemSpec s;
    s.psi = effort::QuadraticEffort(-1.0, 8.0, 2.0);
    s.incentives = {1.0, 0.0};
    s.weight = 1.0;
    s.mu = 1.0;
    return s;
  }
};

TEST_F(Fig6Regression, DesignedUtilityIsMonotoneInPartitionDensity) {
  contract::SubproblemSpec s = spec();
  double prev = -std::numeric_limits<double>::infinity();
  for (const std::size_t m : {2ul, 4ul, 8ul, 16ul, 32ul, 64ul, 128ul}) {
    s.intervals = m;
    const contract::DesignResult d = contract::design_contract(s);
    // Densifying the partition only adds candidate contracts, so the
    // designed utility must not decrease (the paper's Fig. 6 shape).
    EXPECT_GE(d.requester_utility, prev - 1e-12) << "m=" << m;
    EXPECT_LE(d.requester_utility, d.upper_bound + 1e-9) << "m=" << m;
    EXPECT_GE(d.requester_utility, d.lower_bound - 1e-9) << "m=" << m;
    prev = d.requester_utility;
  }
}

TEST_F(Fig6Regression, ConvergesToFineGridOracleAtM128) {
  contract::SubproblemSpec s = spec();
  s.intervals = 128;
  const contract::DesignResult d = contract::design_contract(s);
  const contract::OracleOutcome oracle = contract::oracle_optimal(s);
  ASSERT_GT(oracle.requester_utility, 0.0);
  // Theorem 4.1: the gap to the unrestricted optimum vanishes as m grows.
  // At m = 128 the designed utility is within 0.1% of the oracle.
  EXPECT_NEAR(d.requester_utility, oracle.requester_utility,
              1e-3 * oracle.requester_utility);
}

// Table II — the amazon2015 preset reproduces the paper's collusive
// community census exactly on the default seed.
TEST(Table2Regression, Amazon2015CensusIsExactOnDefaultSeed) {
  const data::ReviewTrace trace =
      data::generate_trace(data::GeneratorParams::amazon2015());
  const detect::CollusionResult truth =
      detect::cluster_ground_truth_malicious(trace);
  const detect::CommunityCensus c = detect::census(truth);
  EXPECT_EQ(c.communities, 47u);
  EXPECT_EQ(c.workers, 212u);

  // Both clustering backends must agree on the census.
  const detect::CollusionResult dfs = detect::cluster_ground_truth_malicious(
      trace, detect::ClusterBackend::kDfsGraph);
  const detect::CommunityCensus cd = detect::census(dfs);
  EXPECT_EQ(cd.communities, c.communities);
  EXPECT_EQ(cd.workers, c.workers);
  EXPECT_DOUBLE_EQ(cd.pct_size2, c.pct_size2);
  EXPECT_DOUBLE_EQ(cd.pct_size10plus, c.pct_size10plus);
}

// Fig. 8(c) — the designed (dynamic) contract beats the fixed-payment
// baseline on the same trace for every evaluated mu.
TEST(Fig8cRegression, DynamicBeatsFixedPaymentAcrossMu) {
  const data::ReviewTrace trace =
      data::generate_trace(data::GeneratorParams::medium());
  for (const double mu : {1.0, 0.9, 0.8}) {
    core::PipelineConfig dynamic;
    dynamic.requester.mu = mu;
    core::PipelineConfig fixed = dynamic;
    fixed.strategy = core::PricingStrategy::kFixedPayment;
    fixed.fixed_payment = 2.0;
    fixed.fixed_threshold_effort = 1.0;

    const double u_dynamic =
        core::run_pipeline(trace, dynamic).total_requester_utility;
    const double u_fixed =
        core::run_pipeline(trace, fixed).total_requester_utility;
    EXPECT_GT(u_dynamic, u_fixed) << "mu=" << mu;
  }
}

// design_fleet, the batch engine behind the pipeline, the simulator and
// serve sessions, must reproduce the golden Fig. 6 shape from its SoA
// outputs, not just match design_contract on random fleets.
TEST_F(Fig6Regression, FleetPathReproducesMonotoneShape) {
  contract::SubproblemSpec s = spec();
  double prev = -std::numeric_limits<double>::infinity();
  for (const std::size_t m : {2ul, 4ul, 8ul, 16ul, 32ul, 64ul, 128ul}) {
    s.intervals = m;
    const contract::FleetSoA fleet = contract::FleetSoA::from_specs({s});
    const contract::FleetDesignResult d = contract::design_fleet(fleet);
    ASSERT_EQ(d.workers(), 1u);
    ASSERT_EQ(d.resolved[0], 1) << "m=" << m;
    EXPECT_EQ(d.excluded[0], 0) << "m=" << m;
    EXPECT_GE(d.requester_utility[0], prev - 1e-12) << "m=" << m;
    EXPECT_LE(d.requester_utility[0], d.upper_bound[0] + 1e-9) << "m=" << m;
    EXPECT_GE(d.requester_utility[0], d.lower_bound[0] - 1e-9) << "m=" << m;
    prev = d.requester_utility[0];
  }
}

}  // namespace
}  // namespace ccd
