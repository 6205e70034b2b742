#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <thread>
#include <vector>

#include "util/check.hpp"
#include "util/log.hpp"

namespace iobts {
namespace {

class LogCapture {
 public:
  LogCapture() { log::setSink(&stream_); }
  ~LogCapture() {
    log::setSink(nullptr);
    log::setLevel(log::Level::Warn);
  }
  std::string text() const { return stream_.str(); }

 private:
  std::ostringstream stream_;
};

TEST(Log, LevelNamesRoundTrip) {
  EXPECT_EQ(log::parseLevel("trace"), log::Level::Trace);
  EXPECT_EQ(log::parseLevel("debug"), log::Level::Debug);
  EXPECT_EQ(log::parseLevel("info"), log::Level::Info);
  EXPECT_EQ(log::parseLevel("warn"), log::Level::Warn);
  EXPECT_EQ(log::parseLevel("error"), log::Level::Error);
  EXPECT_EQ(log::parseLevel("off"), log::Level::Off);
  EXPECT_EQ(log::parseLevel("bogus"), log::Level::Warn);  // fallback
  EXPECT_STREQ(log::levelName(log::Level::Info), "INFO");
}

TEST(Log, EnvLevelReadsLogLevel) {
  // levelFromEnv() consults IOBTS_LOG_LEVEL, then defaults to Warn. It
  // reads the environment afresh on every call, so the cached global level
  // is unaffected.
  ::unsetenv("IOBTS_LOG_LEVEL");
  EXPECT_EQ(log::levelFromEnv(), log::Level::Warn);

  ::setenv("IOBTS_LOG_LEVEL", "debug", 1);
  EXPECT_EQ(log::levelFromEnv(), log::Level::Debug);

  ::unsetenv("IOBTS_LOG_LEVEL");
}

TEST(Log, MessagesBelowLevelSuppressed) {
  LogCapture capture;
  log::setLevel(log::Level::Warn);
  IOBTS_LOG_DEBUG() << "hidden";
  IOBTS_LOG_WARN() << "visible";
  const std::string out = capture.text();
  EXPECT_EQ(out.find("hidden"), std::string::npos);
  EXPECT_NE(out.find("visible"), std::string::npos);
}

TEST(Log, SuppressedMessageDoesNotEvaluateArguments) {
  LogCapture capture;
  log::setLevel(log::Level::Error);
  int evaluations = 0;
  auto expensive = [&] {
    ++evaluations;
    return 42;
  };
  IOBTS_LOG_DEBUG() << expensive();
  EXPECT_EQ(evaluations, 0);
  IOBTS_LOG_ERROR() << expensive();
  EXPECT_EQ(evaluations, 1);
}

TEST(Log, LineCarriesLevelAndLocation) {
  LogCapture capture;
  log::setLevel(log::Level::Info);
  IOBTS_LOG_INFO() << "marker";
  const std::string out = capture.text();
  EXPECT_NE(out.find("[INFO]"), std::string::npos);
  EXPECT_NE(out.find("log_check_test.cpp"), std::string::npos);
  EXPECT_NE(out.find("marker"), std::string::npos);
}

TEST(Log, ConcurrentEmissionsDoNotInterleave) {
  LogCapture capture;
  log::setLevel(log::Level::Info);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < 50; ++i) {
        IOBTS_LOG_INFO() << "thread" << t << "-line" << i << "-end";
      }
    });
  }
  for (auto& th : threads) th.join();
  // Every line must be complete: starts with '[' and ends with "-end".
  std::istringstream in(capture.text());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    EXPECT_EQ(line.front(), '[');
    EXPECT_EQ(line.substr(line.size() - 4), "-end");
    ++lines;
  }
  EXPECT_EQ(lines, 200);
}

TEST(Check, PassingConditionIsSilent) {
  EXPECT_NO_THROW(IOBTS_CHECK(1 + 1 == 2, "math works"));
}

TEST(Check, FailureCarriesExpressionAndMessage) {
  try {
    IOBTS_CHECK(false, "the context message");
    FAIL() << "must throw";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("false"), std::string::npos);
    EXPECT_NE(what.find("the context message"), std::string::npos);
    EXPECT_NE(what.find("log_check_test.cpp"), std::string::npos);
  }
}

TEST(Check, CheckErrorIsLogicError) {
  EXPECT_THROW(IOBTS_CHECK(false, ""), std::logic_error);
}

}  // namespace
}  // namespace iobts
