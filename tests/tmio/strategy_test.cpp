#include "tmio/strategy.hpp"

#include <gtest/gtest.h>

#include "util/check.hpp"

namespace iobts::tmio {
namespace {

TEST(Strategy, NamesRoundTrip) {
  EXPECT_EQ(parseStrategy("none"), StrategyKind::None);
  EXPECT_EQ(parseStrategy("direct"), StrategyKind::Direct);
  EXPECT_EQ(parseStrategy("up-only"), StrategyKind::UpOnly);
  EXPECT_EQ(parseStrategy("adaptive"), StrategyKind::Adaptive);
  EXPECT_THROW(parseStrategy("bogus"), CheckError);
  // One spelling per strategy: the old "uponly" alias is gone.
  EXPECT_THROW(parseStrategy("uponly"), CheckError);
  EXPECT_STREQ(strategyName(StrategyKind::UpOnly), "up-only");
  for (const StrategyKind kind :
       {StrategyKind::None, StrategyKind::Direct, StrategyKind::UpOnly,
        StrategyKind::Adaptive, StrategyKind::Mfu}) {
    EXPECT_EQ(parseStrategy(strategyName(kind)), kind);
  }
}

TEST(Strategy, NoneNeverLimits) {
  auto s = makeStrategy(StrategyKind::None, {});
  EXPECT_FALSE(s->nextLimit(1e9).has_value());
  EXPECT_FALSE(s->nextLimit(5e9).has_value());
}

TEST(Strategy, DirectScalesByTolerance) {
  StrategyParams params;
  params.tolerance = 2.0;
  auto s = makeStrategy(StrategyKind::Direct, params);
  EXPECT_DOUBLE_EQ(s->nextLimit(100.0).value(), 200.0);
  // Direct follows B down again (aggressive).
  EXPECT_DOUBLE_EQ(s->nextLimit(50.0).value(), 100.0);
}

TEST(Strategy, DirectRespectsMinLimit) {
  StrategyParams params;
  params.tolerance = 1.1;
  params.min_limit = 10.0;
  auto s = makeStrategy(StrategyKind::Direct, params);
  EXPECT_DOUBLE_EQ(s->nextLimit(0.0).value(), 10.0);
}

TEST(Strategy, UpOnlyNeverDecreases) {
  StrategyParams params;
  params.tolerance = 1.1;
  auto s = makeStrategy(StrategyKind::UpOnly, params);
  EXPECT_DOUBLE_EQ(s->nextLimit(100.0).value(), 110.0);
  EXPECT_DOUBLE_EQ(s->nextLimit(200.0).value(), 220.0);
  // Lower requirement: limit sticks at its high-water mark.
  EXPECT_DOUBLE_EQ(s->nextLimit(50.0).value(), 220.0);
  EXPECT_DOUBLE_EQ(s->nextLimit(300.0).value(), 330.0);
}

TEST(Strategy, AdaptiveTracksWithPiTerm) {
  StrategyParams params;
  params.tolerance = 1.0;
  params.adaptive_gain = 0.5;
  auto s = makeStrategy(StrategyKind::Adaptive, params);
  // First call: no history -> pure proportional.
  EXPECT_DOUBLE_EQ(s->nextLimit(100.0).value(), 100.0);
  // Rising B: limit overshoots (softer approach to the new level).
  EXPECT_DOUBLE_EQ(s->nextLimit(200.0).value(), 200.0 + 0.5 * 100.0);
  // Falling B: undershoots.
  EXPECT_DOUBLE_EQ(s->nextLimit(150.0).value(), 150.0 - 0.5 * 50.0);
}

TEST(Strategy, AdaptiveClampsAtMinLimit) {
  StrategyParams params;
  params.tolerance = 1.0;
  params.adaptive_gain = 10.0;
  params.min_limit = 5.0;
  auto s = makeStrategy(StrategyKind::Adaptive, params);
  s->nextLimit(1000.0);
  // Steep drop: raw PI value goes negative -> clamped.
  EXPECT_DOUBLE_EQ(s->nextLimit(10.0).value(), 5.0);
}

TEST(Strategy, InvalidParamsThrow) {
  StrategyParams params;
  params.tolerance = 0.0;
  EXPECT_THROW(makeStrategy(StrategyKind::Direct, params), CheckError);
  params.tolerance = 1.0;
  params.min_limit = 0.0;
  EXPECT_THROW(makeStrategy(StrategyKind::UpOnly, params), CheckError);
}

TEST(Strategy, KindAccessor) {
  EXPECT_EQ(makeStrategy(StrategyKind::Direct, {})->kind(),
            StrategyKind::Direct);
  EXPECT_EQ(makeStrategy(StrategyKind::Adaptive, {})->kind(),
            StrategyKind::Adaptive);
}


TEST(Strategy, MfuWarmupActsLikeDirect) {
  StrategyParams params;
  params.tolerance = 1.1;
  params.mfu_warmup = 2;
  auto s = makeStrategy(StrategyKind::Mfu, params);
  EXPECT_NEAR(s->nextLimit(100.0).value(), 110.0, 1e-9);
  EXPECT_NEAR(s->nextLimit(100.0).value(), 110.0, 1e-9);
}

TEST(Strategy, MfuTracksTheDominantBandwidth) {
  StrategyParams params;
  params.tolerance = 1.0;
  params.mfu_warmup = 0;
  auto s = makeStrategy(StrategyKind::Mfu, params);
  // Nine phases around 100, one outlier at 5: the table must keep ~100.
  std::optional<BytesPerSec> last;
  for (int i = 0; i < 9; ++i) last = s->nextLimit(100.0 + i * 0.5);
  last = s->nextLimit(5.0);  // outlier phase
  ASSERT_TRUE(last.has_value());
  EXPECT_NEAR(*last, 102.0, 5.0);
}

TEST(Strategy, MfuOutlierRobustnessBeatsDirect) {
  // The paper's motivation for the "most frequently used table": a single
  // straggler phase must not collapse the next limit.
  StrategyParams params;
  params.tolerance = 1.1;
  params.mfu_warmup = 0;
  auto mfu = makeStrategy(StrategyKind::Mfu, params);
  auto direct = makeStrategy(StrategyKind::Direct, params);
  double mfu_limit = 0.0;
  double direct_limit = 0.0;
  for (int i = 0; i < 10; ++i) {
    const double b = (i == 9) ? 1.0 : 200.0;  // last phase is an outlier
    mfu_limit = mfu->nextLimit(b).value();
    direct_limit = direct->nextLimit(b).value();
  }
  EXPECT_LT(direct_limit, 2.0);    // direct collapsed
  EXPECT_GT(mfu_limit, 150.0);     // MFU held the dominant level
}

TEST(Strategy, MfuNamesAndValidation) {
  EXPECT_EQ(parseStrategy("mfu"), StrategyKind::Mfu);
  EXPECT_STREQ(strategyName(StrategyKind::Mfu), "mfu");
  StrategyParams params;
  params.mfu_bucket_factor = 1.0;
  EXPECT_THROW(makeStrategy(StrategyKind::Mfu, params), CheckError);
  params.mfu_bucket_factor = 1.25;
  params.mfu_warmup = -1;
  EXPECT_THROW(makeStrategy(StrategyKind::Mfu, params), CheckError);
}

// Property: up-only dominates direct for the same B sequence (it is the
// "safer" strategy in the paper's ordering).
class StrategyOrdering : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StrategyOrdering, UpOnlyDominatesDirect) {
  StrategyParams params;
  params.tolerance = 1.1;
  auto direct = makeStrategy(StrategyKind::Direct, params);
  auto up_only = makeStrategy(StrategyKind::UpOnly, params);
  std::uint64_t x = GetParam() * 2654435761u + 1;
  for (int i = 0; i < 50; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const double required = static_cast<double>(x % 1000000) + 1.0;
    const double d = direct->nextLimit(required).value();
    const double u = up_only->nextLimit(required).value();
    EXPECT_GE(u, d - 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StrategyOrdering,
                         ::testing::Range<std::uint64_t>(0, 8));

}  // namespace
}  // namespace iobts::tmio
