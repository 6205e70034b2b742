#include "tmio/strategy.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <map>
#include <string>

#include "util/check.hpp"

namespace iobts::tmio {

namespace {

struct StrategySpelling {
  StrategyKind kind;
  const char* name;
};

/// The one table of strategy names.
constexpr StrategySpelling kStrategyNames[] = {
    {StrategyKind::None, "none"},         {StrategyKind::Direct, "direct"},
    {StrategyKind::UpOnly, "up-only"},    {StrategyKind::Adaptive, "adaptive"},
    {StrategyKind::Mfu, "mfu"}};

}  // namespace

const char* strategyName(StrategyKind kind) noexcept {
  for (const StrategySpelling& entry : kStrategyNames) {
    if (entry.kind == kind) return entry.name;
  }
  return "?";
}

StrategyKind parseStrategy(std::string_view name) {
  for (const StrategySpelling& entry : kStrategyNames) {
    if (name == entry.name) return entry.kind;
  }
  std::string expected;
  for (std::size_t i = 0; i < std::size(kStrategyNames); ++i) {
    if (i > 0) expected += i + 1 == std::size(kStrategyNames) ? " or " : ", ";
    expected += kStrategyNames[i].name;
  }
  IOBTS_CHECK(false, "unknown strategy '" + std::string(name) +
                         "' (expected " + expected + ")");
  return StrategyKind::None;  // unreachable
}

namespace {

class NoneStrategy final : public LimitStrategy {
 public:
  StrategyKind kind() const noexcept override { return StrategyKind::None; }
  std::optional<BytesPerSec> nextLimit(BytesPerSec) override {
    return std::nullopt;
  }
};

class DirectStrategy final : public LimitStrategy {
 public:
  explicit DirectStrategy(const StrategyParams& params) : params_(params) {}
  StrategyKind kind() const noexcept override { return StrategyKind::Direct; }
  std::optional<BytesPerSec> nextLimit(BytesPerSec required) override {
    return std::max(params_.min_limit, required * params_.tolerance);
  }

 private:
  StrategyParams params_;
};

class UpOnlyStrategy final : public LimitStrategy {
 public:
  explicit UpOnlyStrategy(const StrategyParams& params) : params_(params) {}
  StrategyKind kind() const noexcept override { return StrategyKind::UpOnly; }
  std::optional<BytesPerSec> nextLimit(BytesPerSec required) override {
    const BytesPerSec candidate =
        std::max(params_.min_limit, required * params_.tolerance);
    best_ = std::max(best_, candidate);
    return best_;
  }

 private:
  StrategyParams params_;
  BytesPerSec best_ = 0.0;
};

class AdaptiveStrategy final : public LimitStrategy {
 public:
  explicit AdaptiveStrategy(const StrategyParams& params) : params_(params) {}
  StrategyKind kind() const noexcept override {
    return StrategyKind::Adaptive;
  }
  std::optional<BytesPerSec> nextLimit(BytesPerSec required) override {
    const double previous = have_previous_ ? previous_ : required;
    const double limit = required * params_.tolerance +
                         (required - previous) * params_.adaptive_gain;
    previous_ = required;
    have_previous_ = true;
    return std::max(params_.min_limit, limit);
  }

 private:
  StrategyParams params_;
  double previous_ = 0.0;
  bool have_previous_ = false;
};

/// "Most frequently used table of accesses" (paper Sec. VI-B, future
/// work): bucket the observed required bandwidths on a log scale and limit
/// to the most frequent bucket's running mean. A single anomalous phase
/// (e.g. a straggler-stretched window that yields a tiny B) cannot drag the
/// limit down the way it does under the direct strategy.
class MfuStrategy final : public LimitStrategy {
 public:
  explicit MfuStrategy(const StrategyParams& params) : params_(params) {}
  StrategyKind kind() const noexcept override { return StrategyKind::Mfu; }

  std::optional<BytesPerSec> nextLimit(BytesPerSec required) override {
    const double floored = std::max(params_.min_limit, required);
    const long bucket = static_cast<long>(std::floor(
        std::log(floored) / std::log(params_.mfu_bucket_factor)));
    Entry& e = table_[bucket];
    ++e.count;
    e.mean += (floored - e.mean) / static_cast<double>(e.count);
    ++observed_;

    if (observed_ <= params_.mfu_warmup) {
      // Warm-up: behave like direct until the table carries signal.
      return std::max(params_.min_limit, floored * params_.tolerance);
    }
    const Entry* best = nullptr;
    for (const auto& [key, entry] : table_) {
      (void)key;
      if (!best || entry.count > best->count) best = &entry;
    }
    return std::max(params_.min_limit, best->mean * params_.tolerance);
  }

 private:
  struct Entry {
    long count = 0;
    double mean = 0.0;
  };
  StrategyParams params_;
  std::map<long, Entry> table_;
  int observed_ = 0;
};

}  // namespace

std::unique_ptr<LimitStrategy> makeStrategy(StrategyKind kind,
                                            const StrategyParams& params) {
  IOBTS_CHECK(params.tolerance > 0.0, "tolerance must be positive");
  IOBTS_CHECK(params.min_limit > 0.0, "min limit must be positive");
  switch (kind) {
    case StrategyKind::None: return std::make_unique<NoneStrategy>();
    case StrategyKind::Direct: return std::make_unique<DirectStrategy>(params);
    case StrategyKind::UpOnly: return std::make_unique<UpOnlyStrategy>(params);
    case StrategyKind::Adaptive:
      return std::make_unique<AdaptiveStrategy>(params);
    case StrategyKind::Mfu:
      IOBTS_CHECK(params.mfu_bucket_factor > 1.0,
                  "MFU bucket factor must exceed 1");
      IOBTS_CHECK(params.mfu_warmup >= 0, "MFU warmup must be >= 0");
      return std::make_unique<MfuStrategy>(params);
  }
  IOBTS_CHECK(false, "unhandled strategy kind");
  return nullptr;  // unreachable
}

}  // namespace iobts::tmio
