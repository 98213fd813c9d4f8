#include "core/requester.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/wire.hpp"

namespace ccd::core {
namespace {

TEST(RequesterConfigTest, DefaultsValidate) {
  EXPECT_NO_THROW(RequesterConfig{}.validate());
}

TEST(RequesterConfigTest, CatchesBadFields) {
  RequesterConfig c;
  c.rho = 0.0;
  EXPECT_THROW(c.validate(), Error);
  c = {};
  c.mu = -1.0;
  EXPECT_THROW(c.validate(), Error);
  c = {};
  c.beta = 0.0;
  EXPECT_THROW(c.validate(), Error);
  c = {};
  c.intervals = 0;
  EXPECT_THROW(c.validate(), Error);
  c = {};
  c.accuracy_floor = 0.0;
  EXPECT_THROW(c.validate(), Error);
}

TEST(FeedbackWeightTest, MatchesEq5) {
  RequesterConfig c;
  c.rho = 1.0;
  c.kappa = 0.1;
  c.gamma = 0.1;
  c.weight_cap = 100.0;
  // w = 1/0.5 - 0.1*0.4 - 0.1*3 = 2 - 0.04 - 0.3.
  EXPECT_NEAR(feedback_weight(c, 0.5, 0.4, 3), 1.66, 1e-12);
}

TEST(FeedbackWeightTest, FloorsAccuracyDistance) {
  RequesterConfig c;
  c.accuracy_floor = 0.25;
  c.weight_cap = 100.0;
  EXPECT_DOUBLE_EQ(feedback_weight(c, 0.0, 0.0, 0),
                   feedback_weight(c, 0.25, 0.0, 0));
}

TEST(FeedbackWeightTest, CapsWeight) {
  RequesterConfig c;
  c.weight_cap = 4.0;
  EXPECT_DOUBLE_EQ(feedback_weight(c, 0.25, 0.0, 0), 4.0);
}

TEST(FeedbackWeightTest, PenaltiesReduceWeight) {
  RequesterConfig c;
  const double base = feedback_weight(c, 1.0, 0.0, 0);
  EXPECT_LT(feedback_weight(c, 1.0, 1.0, 0), base);
  EXPECT_LT(feedback_weight(c, 1.0, 0.0, 5), base);
  EXPECT_LT(feedback_weight(c, 1.0, 1.0, 5),
            feedback_weight(c, 1.0, 1.0, 1));
}

TEST(FeedbackWeightTest, CanGoNegativeForBadWorkers) {
  RequesterConfig c;
  c.gamma = 0.2;
  // Very inaccurate with many partners: weight below zero => exclusion.
  EXPECT_LT(feedback_weight(c, 4.0, 1.0, 10), 0.0);
}

TEST(FeedbackWeightTest, ValidatesArguments) {
  const RequesterConfig c;
  EXPECT_THROW(feedback_weight(c, -1.0, 0.0, 0), Error);
  EXPECT_THROW(feedback_weight(c, 1.0, -0.1, 0), Error);
  EXPECT_THROW(feedback_weight(c, 1.0, 1.1, 0), Error);
}

RequesterConfig custom_config() {
  RequesterConfig c;
  c.rho = 1.5;
  c.kappa = 0.2;
  c.gamma = 0.05;
  c.mu = 0.8;
  c.beta = 1.2;
  c.omega_malicious = 0.4;
  c.intervals = 12;
  c.accuracy_floor = 0.2;
  c.weight_cap = 3.0;
  return c;
}

std::string section(const RequesterState& state) {
  util::wire::Writer w;
  state.encode(w);
  return w.take();
}

TEST(RequesterStateTest, StartsAtNeutralEstimates) {
  const RequesterConfig c = custom_config();
  const RequesterState state(c, 0.3, 0.5, 4);
  EXPECT_EQ(state.workers(), 4u);
  EXPECT_EQ(state.est_accuracy(), std::vector<double>(4, c.accuracy_floor));
  EXPECT_EQ(state.est_malicious(), std::vector<double>(4, 0.05));
  EXPECT_EQ(state.ema_alpha(), 0.3);
  EXPECT_EQ(state.suspicion_threshold(), 0.5);
}

TEST(RequesterStateTest, RefusesAnEmaRateOutsideTheUnitInterval) {
  EXPECT_THROW(RequesterState(RequesterConfig{}, 0.0, 0.5, 1), Error);
  EXPECT_THROW(RequesterState(RequesterConfig{}, 1.5, 0.5, 1), Error);
  RequesterConfig bad;
  bad.mu = 0.0;
  EXPECT_THROW(RequesterState(bad, 0.3, 0.5, 1), Error);
}

TEST(RequesterStateTest, ObserveIsTheEmaAndSigmoidUpdateBitForBit) {
  const RequesterConfig c = custom_config();
  const double alpha = 0.37;
  RequesterState state(c, alpha, 0.5, 2);
  double accuracy = c.accuracy_floor;
  double malicious = 0.05;
  for (const double sample : {0.3, 1.7, 0.0, 2.4, 0.9, 0.05}) {
    state.observe(1, sample);
    accuracy = (1.0 - alpha) * accuracy + alpha * sample;
    const double signal = 1.0 / (1.0 + std::exp(-4.0 * (sample - 0.9)));
    malicious = (1.0 - alpha) * malicious + alpha * signal;
    EXPECT_EQ(state.est_accuracy()[1], accuracy);
    EXPECT_EQ(state.est_malicious()[1], malicious);
    EXPECT_EQ(state.weight(1, 2), feedback_weight(c, accuracy, malicious, 2));
  }
  // Other workers' estimates do not move.
  EXPECT_EQ(state.est_accuracy()[0], c.accuracy_floor);
  EXPECT_EQ(state.est_malicious()[0], 0.05);
}

TEST(RequesterStateTest, SpecSuspectsAtTheThresholdItself) {
  const RequesterConfig c = custom_config();
  const double threshold = 0.5;
  const RequesterState state(
      c, 0.3, threshold, {0.6, 0.6},
      {threshold, std::nextafter(threshold, 0.0)});
  const effort::QuadraticEffort psi(-0.8, 6.0, 1.5);

  const contract::SubproblemSpec suspected = state.spec(0, psi, 1.1, 3);
  EXPECT_EQ(suspected.incentives.omega, c.omega_malicious);
  EXPECT_EQ(suspected.psi.r2(), psi.r2());
  EXPECT_EQ(suspected.psi.r1(), psi.r1());
  EXPECT_EQ(suspected.psi.r0(), psi.r0());
  EXPECT_EQ(suspected.incentives.beta, 1.1);
  EXPECT_EQ(suspected.weight, state.weight(0, 3));
  EXPECT_EQ(suspected.mu, c.mu);
  EXPECT_EQ(suspected.intervals, c.intervals);

  const contract::SubproblemSpec trusted = state.spec(1, psi, 1.1, 3);
  EXPECT_EQ(trusted.incentives.omega, 0.0);
}

TEST(RequesterStateTest, SectionRoundTripsBitwise) {
  RequesterState state(custom_config(), 0.37, 0.45, 3);
  for (std::size_t i = 0; i < 3; ++i) {
    state.observe(i, 0.4 * static_cast<double>(i) + 0.1);
  }
  const std::string bytes = section(state);
  util::wire::Reader r(bytes);
  const RequesterState back = RequesterState::decode(r);
  r.finish();
  EXPECT_EQ(section(back), bytes);

  const RequesterConfig& a = state.config();
  const RequesterConfig& b = back.config();
  EXPECT_EQ(b.rho, a.rho);
  EXPECT_EQ(b.kappa, a.kappa);
  EXPECT_EQ(b.gamma, a.gamma);
  EXPECT_EQ(b.mu, a.mu);
  EXPECT_EQ(b.beta, a.beta);
  EXPECT_EQ(b.omega_malicious, a.omega_malicious);
  EXPECT_EQ(b.intervals, a.intervals);
  EXPECT_EQ(b.accuracy_floor, a.accuracy_floor);
  EXPECT_EQ(b.weight_cap, a.weight_cap);
  EXPECT_EQ(back.ema_alpha(), state.ema_alpha());
  EXPECT_EQ(back.suspicion_threshold(), state.suspicion_threshold());
  EXPECT_EQ(back.est_accuracy(), state.est_accuracy());
  EXPECT_EQ(back.est_malicious(), state.est_malicious());
}

TEST(RequesterStateTest, TruncatedOrLyingSectionsAreDataErrors) {
  const std::string bytes = section(RequesterState(custom_config(), 0.3, 0.5, 3));
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    SCOPED_TRACE("keep=" + std::to_string(keep));
    const std::string cut = bytes.substr(0, keep);
    util::wire::Reader r(cut);
    EXPECT_THROW(RequesterState::decode(r), DataError);
  }

  // The worker count follows nine config fields, ema_alpha and the
  // suspicion threshold. A count far beyond the bytes present is refused
  // before any estimate vector is sized from it (sizing one would throw
  // std::bad_alloc or std::length_error, not DataError).
  constexpr std::size_t kCountOffset = 11 * 8;
  for (const std::uint64_t lie :
       {std::uint64_t{4}, std::uint64_t{1} << 40, ~std::uint64_t{0}}) {
    SCOPED_TRACE("workers=" + std::to_string(lie));
    std::string lying = bytes;
    for (std::size_t b = 0; b < 8; ++b) {
      lying[kCountOffset + b] = static_cast<char>(lie >> (8 * b));
    }
    util::wire::Reader r(lying);
    EXPECT_THROW(RequesterState::decode(r), DataError);
  }

  // A section whose config fails validation is corrupt data too.
  std::string bad_alpha = bytes;
  const double zero = 0.0;
  std::memcpy(&bad_alpha[9 * 8], &zero, sizeof zero);
  util::wire::Reader r(bad_alpha);
  EXPECT_THROW(RequesterState::decode(r), DataError);
}

}  // namespace
}  // namespace ccd::core
