#include "throttle/pacer.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "util/check.hpp"

namespace iobts::throttle {
namespace {

std::vector<Bytes> chunksOf(const Pacer& pacer, Bytes total) {
  std::vector<Bytes> chunks;
  for (const Bytes chunk : pacer.subrequests(total)) chunks.push_back(chunk);
  return chunks;
}

TEST(Pacer, UnlimitedNeverSplitsNorSleeps) {
  Pacer pacer;
  EXPECT_FALSE(pacer.limited());
  const auto chunks = chunksOf(pacer, 100 * kMiB);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0], 100 * kMiB);
  EXPECT_DOUBLE_EQ(pacer.onSubrequestDone(100 * kMiB, 0.001), 0.0);
  EXPECT_DOUBLE_EQ(pacer.requiredTime(kMiB), 0.0);
}

TEST(Pacer, SplitRespectsSubrequestSize) {
  Pacer pacer(PacerConfig{.subrequest_size = 4 * kMiB});
  pacer.setLimit(1e9);
  const auto chunks = chunksOf(pacer, 10 * kMiB);
  ASSERT_EQ(chunks.size(), 3u);
  EXPECT_EQ(chunks[0], 4 * kMiB);
  EXPECT_EQ(chunks[1], 4 * kMiB);
  EXPECT_EQ(chunks[2], 2 * kMiB);
  EXPECT_EQ(std::accumulate(chunks.begin(), chunks.end(), Bytes{0}),
            10 * kMiB);
}

TEST(Pacer, SmallRequestExecutedWhole) {
  // Paper: "If the request is smaller than that value, then it's just
  // executed."
  Pacer pacer(PacerConfig{.subrequest_size = 4 * kMiB});
  pacer.setLimit(1e9);
  const auto chunks = chunksOf(pacer, kMiB);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0], kMiB);
}

TEST(Pacer, SplitIsFixedWhenTheRangeIsMade) {
  // The engine splits a request when it picks it up; a limit change while
  // the request is in flight (the tracer's strategies do this) must not
  // re-split the remaining sub-requests.
  Pacer pacer(PacerConfig{.subrequest_size = 4 * kMiB});
  pacer.setLimit(1e9);
  std::vector<Bytes> chunks;
  for (const Bytes chunk : pacer.subrequests(10 * kMiB)) {
    chunks.push_back(chunk);
    pacer.setLimit(std::nullopt);
  }
  EXPECT_EQ(chunks, (std::vector<Bytes>{4 * kMiB, 4 * kMiB, 2 * kMiB}));
}

TEST(Pacer, SplitZeroIsEmpty) {
  Pacer pacer;
  pacer.setLimit(1e9);
  EXPECT_TRUE(chunksOf(pacer, 0).empty());
}

TEST(Pacer, RequiredTimeFromLimit) {
  Pacer pacer;
  pacer.setLimit(100.0);  // 100 B/s
  EXPECT_DOUBLE_EQ(pacer.requiredTime(250), 2.5);
}

TEST(Pacer, CaseASleepsTheRemainder) {
  Pacer pacer;
  pacer.setLimit(100.0);
  // 200 B at 100 B/s -> required 2 s; executed in 0.5 s -> sleep 1.5 s.
  EXPECT_DOUBLE_EQ(pacer.onSubrequestDone(200, 0.5), 1.5);
  EXPECT_DOUBLE_EQ(pacer.deficit(), 0.0);
}

TEST(Pacer, CaseBAccumulatesDeficit) {
  Pacer pacer;
  pacer.setLimit(100.0);
  // required 1 s, took 3 s -> no sleep, 2 s banked.
  EXPECT_DOUBLE_EQ(pacer.onSubrequestDone(100, 3.0), 0.0);
  EXPECT_DOUBLE_EQ(pacer.deficit(), 2.0);
}

TEST(Pacer, DeficitReducesLaterSleep) {
  Pacer pacer;
  pacer.setLimit(100.0);
  pacer.onSubrequestDone(100, 3.0);  // bank 2 s
  // required 2 s, took 0.5 s -> raw sleep 1.5 s, fully absorbed by deficit.
  EXPECT_DOUBLE_EQ(pacer.onSubrequestDone(200, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(pacer.deficit(), 0.5);
  // Next fast sub-request: raw sleep 1.0, 0.5 remains banked -> sleep 0.5.
  EXPECT_DOUBLE_EQ(pacer.onSubrequestDone(100, 0.0), 0.5);
  EXPECT_DOUBLE_EQ(pacer.deficit(), 0.0);
}

TEST(Pacer, ExactTimingNeitherSleepsNorBanks) {
  Pacer pacer;
  pacer.setLimit(100.0);
  EXPECT_DOUBLE_EQ(pacer.onSubrequestDone(100, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(pacer.deficit(), 0.0);
}

TEST(Pacer, SetLimitClearsDeficit) {
  Pacer pacer;
  pacer.setLimit(100.0);
  pacer.onSubrequestDone(100, 5.0);
  EXPECT_GT(pacer.deficit(), 0.0);
  pacer.setLimit(200.0);
  EXPECT_DOUBLE_EQ(pacer.deficit(), 0.0);
}

TEST(Pacer, InvalidInputsThrow) {
  Pacer pacer;
  EXPECT_THROW(pacer.setLimit(0.0), CheckError);
  EXPECT_THROW(pacer.setLimit(-5.0), CheckError);
  pacer.setLimit(10.0);
  EXPECT_THROW(pacer.onSubrequestDone(10, -1.0), CheckError);
  EXPECT_THROW(Pacer(PacerConfig{.subrequest_size = 0}), CheckError);
}

// Property: for any execution-time pattern not slower on average than the
// limit, total elapsed (exec + sleep) over a request is >= bytes/limit, and
// equal when the transfer is never the bottleneck.
class PacerPacing : public ::testing::TestWithParam<double> {};

TEST_P(PacerPacing, TotalTimeMatchesLimit) {
  const double exec_fraction = GetParam();  // exec time as fraction of required
  Pacer pacer(PacerConfig{.subrequest_size = kMiB});
  const BytesPerSec limit = 64.0 * kMiB;
  pacer.setLimit(limit);
  const Bytes total = 10 * kMiB;
  double elapsed = 0.0;
  for (const Bytes chunk : pacer.subrequests(total)) {
    const double required = static_cast<double>(chunk) / limit;
    const double exec = required * exec_fraction;
    elapsed += exec + pacer.onSubrequestDone(chunk, exec);
  }
  const double target = static_cast<double>(total) / limit;
  if (exec_fraction <= 1.0) {
    EXPECT_NEAR(elapsed, target, 1e-9);
  } else {
    EXPECT_NEAR(elapsed, target * exec_fraction, 1e-9);  // I/O-bound
  }
}

INSTANTIATE_TEST_SUITE_P(ExecFractions, PacerPacing,
                         ::testing::Values(0.0, 0.1, 0.5, 0.9, 1.0, 1.5, 3.0));

TEST(Pacer, AlternatingFastSlowConverges) {
  // Slow/fast alternation: deficit accounting keeps the long-run average at
  // the limit when the mean execution rate can sustain it.
  Pacer pacer(PacerConfig{.subrequest_size = kMiB});
  const BytesPerSec limit = 1.0 * kMiB;  // 1 MiB/s -> required 1 s per chunk
  pacer.setLimit(limit);
  double elapsed = 0.0;
  Bytes moved = 0;
  for (int i = 0; i < 100; ++i) {
    const double exec = (i % 2 == 0) ? 1.6 : 0.2;  // mean 0.9 < 1.0
    elapsed += exec + pacer.onSubrequestDone(kMiB, exec);
    moved += kMiB;
  }
  const double achieved = static_cast<double>(moved) / elapsed;
  EXPECT_NEAR(achieved, limit, limit * 0.01);
}

}  // namespace
}  // namespace iobts::throttle
