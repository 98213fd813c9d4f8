// Canary for the -ffp-contract=off build property (src/util/CMakeLists.txt).
//
// The design kernels promise results bitwise-identical to the reference
// design_contract. A compiler allowed to contract `x * y + z` into a fused
// multiply-add rounds once instead of twice and breaks that promise on any
// target with FMA instructions. The operands below make the two roundings
// visible: x * y = 1 - 2^-60 rounds to 1.0, so the unfused sum is exactly 0
// while a fused one keeps the -2^-60.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

namespace {

TEST(FpContractTest, MultiplyAddIsNotFused) {
  volatile double vx = 1.0 + std::ldexp(1.0, -30);
  volatile double vy = 1.0 - std::ldexp(1.0, -30);
  volatile double vz = -1.0;

  // Each volatile read is a fresh load, so the compiler cannot reuse the
  // rounded product below for this expression.
  const double x = vx;
  const double y = vy;
  const double z = vz;
  const double expression = x * y + z;

  volatile double product = vx * vy;  // stored, so rounded before the add
  const double unfused = product + vz;
  ASSERT_EQ(unfused, 0.0);
  ASSERT_NE(std::fma(vx, vy, vz), unfused);  // the operands tell them apart

  EXPECT_EQ(std::bit_cast<std::uint64_t>(expression),
            std::bit_cast<std::uint64_t>(unfused))
      << "x * y + z was fused into an FMA: build with -ffp-contract=off";
}

}  // namespace
