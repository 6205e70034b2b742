#include "fault/plan.hpp"

#include <cmath>

#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"

namespace iobts::fault {

void FaultPlan::validateWindow(const TimeWindow& window) {
  IOBTS_CHECK(std::isfinite(window.begin) && window.begin >= 0.0,
              strfmt("fault window [%g, %g) must begin at a finite, "
                     "non-negative time",
                     window.begin, window.end));
  IOBTS_CHECK(!std::isnan(window.end) && window.end > window.begin,
              strfmt("fault window [%g, %g) must be non-empty (end > begin)",
                     window.begin, window.end));
}

FaultPlan& FaultPlan::degradeChannel(pfs::Channel channel, double factor,
                                     TimeWindow window) {
  validateWindow(window);
  IOBTS_CHECK(factor > 0.0 && factor <= 1.0,
              strfmt("degradation factor must lie in (0, 1], got %g (a full "
                     "outage is a blackout)",
                     factor));
  degradations_.push_back(DegradationEvent{channel, factor, window});
  return *this;
}

FaultPlan& FaultPlan::addTransferFault(TransferFaultRule rule) {
  validateWindow(rule.window);
  IOBTS_CHECK(rule.probability >= 0.0 && rule.probability <= 1.0 &&
                  !std::isnan(rule.probability),
              strfmt("transfer fault probability must lie in [0, 1], got %g",
                     rule.probability));
  faults_.push_back(rule);
  return *this;
}

FaultPlan& FaultPlan::addBlackout(TimeWindow window) {
  validateWindow(window);
  for (const BlackoutEvent& existing : blackouts_) {
    IOBTS_CHECK(!window.overlaps(existing.window),
                strfmt("blackout window [%g, %g) overlaps the blackout "
                       "[%g, %g); blackouts must not overlap",
                       window.begin, window.end, existing.window.begin,
                       existing.window.end));
  }
  blackouts_.push_back(BlackoutEvent{window});
  return *this;
}

FaultPlan& FaultPlan::addOutage(double fraction, TimeWindow window) {
  validateWindow(window);
  IOBTS_CHECK(fraction > 0.0 && fraction <= 1.0 && !std::isnan(fraction),
              strfmt("outage fraction must lie in (0, 1], got %g", fraction));
  outages_.push_back(OutageEvent{fraction, window});
  return *this;
}

bool FaultPlan::faultVerdict(pfs::Channel channel, std::uint64_t serial,
                             sim::Time completion) const noexcept {
  for (std::size_t i = 0; i < faults_.size(); ++i) {
    const TransferFaultRule& rule = faults_[i];
    if (rule.channel && *rule.channel != channel) continue;
    if (!rule.window.contains(completion)) continue;
    if (rule.probability >= 1.0) return true;
    if (rule.probability <= 0.0) continue;
    // Counter-based draw: hash (seed, serial, rule index) to a uniform in
    // [0, 1). Stateless, so the verdict is independent of how many other
    // transfers were examined before this one.
    std::uint64_t x = seed_;
    x ^= 0x9e3779b97f4a7c15ULL * (serial + 1);
    x ^= 0xc2b2ae3d27d4eb4fULL * (static_cast<std::uint64_t>(i) + 1);
    const double u =
        static_cast<double>(splitmix64(x) >> 11) * 0x1.0p-53;
    if (u < rule.probability) return true;
  }
  return false;
}

void FaultPlan::annotate(obs::TraceSink& sink) const {
  const auto edge = [&sink](const char* name, std::uint32_t tid, sim::Time t,
                            double value) {
    if (std::isfinite(t)) {
      sink.instant("fault", name, obs::track::kLink, tid, t, value);
    }
  };
  for (const DegradationEvent& ev : degradations_) {
    const auto tid = static_cast<std::uint32_t>(ev.channel);
    edge("fault.plan.degrade.begin", tid, ev.window.begin, ev.factor);
    edge("fault.plan.degrade.end", tid, ev.window.end, ev.factor);
  }
  for (const BlackoutEvent& ev : blackouts_) {
    for (std::uint32_t tid = 0; tid < pfs::kChannels; ++tid) {
      edge("fault.plan.blackout.begin", tid, ev.window.begin, 0.0);
      edge("fault.plan.blackout.end", tid, ev.window.end, 0.0);
    }
  }
  for (const OutageEvent& ev : outages_) {
    for (std::uint32_t tid = 0; tid < pfs::kChannels; ++tid) {
      edge("fault.plan.outage.begin", tid, ev.window.begin, ev.fraction);
      edge("fault.plan.outage.end", tid, ev.window.end, ev.fraction);
    }
  }
}

}  // namespace iobts::fault
