// perfbench -- the repository benchmark.
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--scale full|tiny] [--scratch DIR] [--spans FILE]
//             [--pin-digest HEX]
//
// Runs one workload in-process, repeatedly, for --seconds and prints its
// metrics; the last stdout line is one JSON object. --trace 0 prints the
// end-to-end metrics of untraced cases; --trace 1 runs traced cases (host
// spans around every call into a layer, plus the comparison runs) and
// prints the per-layer metrics. Every case passes the correctness gate:
// its canonical digest must equal the pinned digest (when one is pinned for
// the seed) and the first case's digest, and its invariants must hold. Any
// failure counts in error_rate and makes the exit code 1.
//
// perfbench/run.py builds this program and is the command to use; see
// perfbench/README.md.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "cases.hpp"
#include "spans.hpp"

using namespace perfbench;

namespace {

const char* const kWorkloads[] = {"hacc_9216", "wacomm_dsl_recorded",
                                  "hacc_noisy", "sweep_sharded"};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Scale scale = Scale::Full;
  std::string scratch_dir = ".";
  std::string spans_path;
  std::optional<std::uint64_t> pin_override;
};

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload hacc_9216|wacomm_dsl_recorded|"
               "hacc_noisy|sweep_sharded\n"
               "                 [--seed N] [--seconds S] [--trace 0|1] "
               "[--scale full|tiny]\n"
               "                 [--scratch DIR] [--spans FILE] "
               "[--pin-digest HEX]\n",
               message);
  std::exit(2);
}

std::uint64_t parseUnsigned(const char* text, int base, const char* flag) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, base);
  if (end == text || *end != '\0' || text[0] == '-') {
    usage((std::string("bad value for ") + flag).c_str());
  }
  return value;
}

Options parseOptions(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = parseUnsigned(value, 10, "--seed");
    } else if (flag == "--seconds") {
      char* end = nullptr;
      opt.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(opt.seconds > 0.0)) {
        usage("bad value for --seconds");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        usage("--trace takes 0 or 1");
      }
      opt.trace = value[0] == '1';
    } else if (flag == "--scale") {
      if (std::strcmp(value, "full") == 0) {
        opt.scale = Scale::Full;
      } else if (std::strcmp(value, "tiny") == 0) {
        opt.scale = Scale::Tiny;
      } else {
        usage("--scale takes full or tiny");
      }
    } else if (flag == "--scratch") {
      opt.scratch_dir = value;
    } else if (flag == "--spans") {
      opt.spans_path = value;
    } else if (flag == "--pin-digest") {
      opt.pin_override = parseUnsigned(value, 16, "--pin-digest");
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (std::find_if(std::begin(kWorkloads), std::end(kWorkloads),
                   [&](const char* w) { return opt.workload == w; }) ==
      std::end(kWorkloads)) {
    usage(("unknown workload '" + opt.workload + "'").c_str());
  }
  return opt;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

double peakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The correctness gate: every case of one configuration must hash to the
/// pinned digest (when pinned) and to the first case's digest.
class Gate {
 public:
  explicit Gate(std::optional<std::uint64_t> pinned) : pinned_(pinned) {}

  /// `compare_state`: also require the first case's ckpt run digests (off
  /// for cases that have no scenario instance, or run one on a different
  /// kind of simulation).
  void check(CaseResult& result, const char* label,
             bool compare_state = true) {
    if (pinned_ && result.digest != *pinned_) {
      result.failures.push_back(hex("digest", result.digest) + " != pinned " +
                                hex("", *pinned_));
    }
    if (attempted_ == 0) {
      first_digest_ = result.digest;
      first_state_digests_ = result.state_digests;
    } else {
      if (result.digest != first_digest_) {
        result.failures.push_back(hex("digest", result.digest) +
                                  " differs from the first case's " +
                                  hex("", first_digest_));
      }
      if (compare_state && result.state_digests != first_state_digests_) {
        result.failures.push_back(
            "ckpt run digest differs from the first case's");
      }
    }
    ++attempted_;
    if (!result.failures.empty()) ++failed_;
    std::printf("case %-22s wall %.4f s  setup %.4f s  cpu %.4f s  digest "
                "0x%016llx  %s\n",
                label, result.wall_s, result.setup_s, result.cpu_s,
                static_cast<unsigned long long>(result.digest),
                result.failures.empty() ? "ok" : "FAILED");
    for (const std::string& f : result.failures) {
      std::printf("  failure: %s\n", f.c_str());
    }
  }

  /// A failure found after the case was gated (the recorded-trace re-read).
  void lateFailure(const CaseResult& result, std::size_t failures_before) {
    for (std::size_t i = failures_before; i < result.failures.size(); ++i) {
      std::printf("  failure: %s\n", result.failures[i].c_str());
    }
    if (failures_before == 0 && !result.failures.empty()) ++failed_;
  }

  int attempted() const { return attempted_; }
  int failed() const { return failed_; }

 private:
  static std::string hex(const char* what, std::uint64_t value) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%s%s0x%016llx", what, *what ? " " : "",
                  static_cast<unsigned long long>(value));
    return buf;
  }

  std::optional<std::uint64_t> pinned_;
  std::uint64_t first_digest_ = 0;
  std::vector<std::uint64_t> first_state_digests_;
  int attempted_ = 0;
  int failed_ = 0;
};

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

void printResult(const std::vector<Metric>& metrics, const Gate& gate) {
  for (const Metric& m : metrics) {
    std::printf("metric %-26s %.15g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("metric %-26s %.9g ratio (%d of %d cases failed)\n",
              "error_rate", ratio(gate.failed(), gate.attempted()),
              gate.failed(), gate.attempted());
  std::string json = "{\"correct\": ";
  json += gate.failed() == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(gate.attempted());
  json += ", \"failed\": " + std::to_string(gate.failed());
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            buf + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

/// One untraced end-to-end case of the workload.
CaseResult runMain(const std::string& workload, const CaseConfig& config) {
  if (workload == "hacc_9216") return runHacc(config, false);
  if (workload == "wacomm_dsl_recorded") {
    return runWacomm(config, WacommVariant::Recorded);
  }
  if (workload == "hacc_noisy") return runHaccNoisy(config);
  return runSweep(config, SweepVariant::Sharded);
}

/// The strict re-read of the recorded binlog, once per run: it is a check,
/// not part of the workload, so it runs after the cases and the peak-RSS
/// sample.
void rereadRecorded(CaseResult& result, Gate& gate) {
  if (result.trace_path.empty()) return;
  const std::size_t before = result.failures.size();
  const Clock::time_point start = Clock::now();
  checkRecordedTrace(result);
  std::printf("recorded trace re-read: %llu events in %.3f s\n",
              static_cast<unsigned long long>(result.layer.obs_events),
              secondsBetween(start, Clock::now()));
  gate.lateFailure(result, before);
}

constexpr std::size_t kMinCases = 3;

/// --trace 0: untraced cases until --seconds have passed (at least
/// kMinCases), reported as medians.
std::vector<Metric> endToEnd(const Options& opt, const CaseConfig& config,
                             Gate& gate) {
  std::vector<CaseResult> cases;
  const Clock::time_point start = Clock::now();
  while (cases.size() < kMinCases ||
         secondsBetween(start, Clock::now()) < opt.seconds) {
    cases.push_back(runMain(opt.workload, config));
    gate.check(cases.back(), opt.workload.c_str());
  }
  const double peak_rss = peakRssMiB();
  rereadRecorded(cases.back(), gate);
  auto med = [&](double CaseResult::*field) {
    std::vector<double> values;
    for (const CaseResult& c : cases) values.push_back(c.*field);
    return median(values);
  };
  std::printf("samples %zu (medians below)\n", cases.size());
  return {{"wall_s", "s", med(&CaseResult::wall_s)},
          {"setup_s", "s", med(&CaseResult::setup_s)},
          {"cpu_s", "s", med(&CaseResult::cpu_s)},
          {"peak_rss_mib", "MiB", peak_rss}};
}

/// One round of the traced run: an untraced case (the overhead baseline),
/// the traced case, and the workload's comparison cases.
struct Round {
  CaseResult untraced;
  CaseResult traced;
  std::optional<CaseResult> unrecorded;  // wacomm: recorder off
  std::optional<CaseResult> twin;        // wacomm: hand-coded twin
  std::optional<CaseResult> serial;      // sweep: each point alone
};

Round tracedRound(const Options& opt, const CaseConfig& untraced_cfg,
                  const CaseConfig& traced_cfg, Gate& gate) {
  Round round;
  const std::string& w = opt.workload;
  round.untraced = runMain(w, untraced_cfg);
  gate.check(round.untraced, "untraced");
  if (w == "hacc_9216") {
    round.traced = runHacc(traced_cfg, true);
  } else {
    round.traced = runMain(w, traced_cfg);
  }
  gate.check(round.traced, "traced");
  if (w == "wacomm_dsl_recorded") {
    // The same configuration without the recorder, and as the hand-coded
    // twin: all three must produce the same canonical digest.
    round.unrecorded = runWacomm(traced_cfg, WacommVariant::Unrecorded);
    gate.check(*round.unrecorded, "traced_unrecorded");
    round.twin = runWacomm(traced_cfg, WacommVariant::HandCoded);
    gate.check(*round.twin, "traced_hand_coded_twin", false);
  }
  if (w == "sweep_sharded") {
    // Plain Simulations carry no shard gauges into the ckpt digest, so
    // only the canonical digests are comparable.
    round.serial = runSweep(traced_cfg, SweepVariant::SerialPoints);
    gate.check(*round.serial, "traced_serial_points", false);
  }
  return round;
}

/// --trace 1: a warm-up case, then traced rounds until --seconds have
/// passed (at least one); times are medians over rounds, counts come from
/// the last round (they repeat exactly).
std::vector<Metric> perLayer(const Options& opt, const CaseConfig& untraced_cfg,
                             const CaseConfig& traced_cfg, Gate& gate) {
  // The first case of a process pays for thread start-up and fresh pages;
  // run it before the rounds so it does not skew bench.trace_overhead.
  CaseResult warm_up = runMain(opt.workload, untraced_cfg);
  gate.check(warm_up, "warm_up");
  std::vector<Round> rounds;
  const Clock::time_point start = Clock::now();
  while (rounds.empty() || secondsBetween(start, Clock::now()) < opt.seconds) {
    rounds.push_back(tracedRound(opt, untraced_cfg, traced_cfg, gate));
  }
  rereadRecorded(rounds.back().traced, gate);
  auto med = [&](auto pick) {
    std::vector<double> values;
    for (const Round& r : rounds) values.push_back(pick(r));
    return median(values);
  };
  auto layer = [&](double LayerStats::*field) {
    return med([&](const Round& r) { return r.traced.layer.*field; });
  };
  const LayerStats& last = rounds.back().traced.layer;
  auto count = [&](std::uint64_t LayerStats::*field) {
    return static_cast<double>(last.*field);
  };
  const std::string& w = opt.workload;
  const double run_s = layer(&LayerStats::run_s);

  double twin_ratio = 0.0;
  double record_s = 0.0;
  if (w == "wacomm_dsl_recorded") {
    const double unrecorded =
        med([](const Round& r) { return r.unrecorded->layer.run_s; });
    twin_ratio = ratio(unrecorded,
                       med([](const Round& r) { return r.twin->layer.run_s; }));
    record_s = run_s - unrecorded;
  }
  double serial_s = 0.0;
  double efficiency = 0.0;
  if (w == "sweep_sharded") {
    serial_s = med([](const Round& r) { return r.serial->layer.run_s; });
    efficiency = ratio(serial_s, sweepWorkers() * run_s);
  }
  const double trace_overhead =
      ratio(med([](const Round& r) { return r.traced.wall_s; }),
            med([](const Round& r) { return r.untraced.wall_s; })) -
      1.0;
  std::printf("rounds %zu (times are medians over rounds)\n", rounds.size());
  return {
      {"scenario.parse_s", "s", layer(&LayerStats::parse_s)},
      {"scenario.compile_s", "s", layer(&LayerStats::compile_s)},
      {"scenario.ops", "count", count(&LayerStats::ops)},
      {"scenario.twin_ratio", "ratio", twin_ratio},
      {"sim.run_s", "s", run_s},
      {"sim.events", "count", count(&LayerStats::events)},
      {"sim.ns_per_event", "ns",
       1e9 * ratio(run_s, count(&LayerStats::events))},
      {"sim.sharded.serial_s", "s", serial_s},
      {"sim.sharded.efficiency", "ratio", efficiency},
      {"sim.sharded.window_stalls", "count", count(&LayerStats::window_stalls)},
      {"mpisim.launch_s", "s", layer(&LayerStats::launch_s)},
      {"mpisim.requests", "count", count(&LayerStats::requests)},
      {"mpisim.subrequests", "count", count(&LayerStats::subrequests)},
      {"mpisim.pace_sleeps", "count", count(&LayerStats::pace_sleeps)},
      {"mpisim.io_retries", "count", count(&LayerStats::io_retries)},
      {"mpisim.io_failures", "count", count(&LayerStats::io_failures)},
      {"pfs.resolves", "count", count(&LayerStats::resolves)},
      {"pfs.resolves_skipped", "count", count(&LayerStats::resolves_skipped)},
      {"pfs.full_solves", "count", count(&LayerStats::full_solves)},
      {"pfs.us_per_solve", "us",
       w == "hacc_noisy" ? 1e6 * ratio(run_s, count(&LayerStats::full_solves))
                         : 0.0},
      {"pfs.bytes_moved", "bytes", count(&LayerStats::bytes_moved)},
      {"tmio.hook_calls", "count", count(&LayerStats::hook_calls)},
      {"tmio.hooks_s", "s", layer(&LayerStats::hooks_s)},
      {"tmio.phases", "count", count(&LayerStats::phases)},
      {"tmio.limit_changes", "count", count(&LayerStats::limit_changes)},
      {"tmio.report_s", "s", layer(&LayerStats::report_s)},
      {"obs.events", "count", count(&LayerStats::obs_events)},
      {"obs.bytes_per_event", "B",
       ratio(count(&LayerStats::obs_bytes), count(&LayerStats::obs_events))},
      {"obs.close_s", "s", layer(&LayerStats::close_s)},
      {"obs.record_s", "s", record_s},
      {"bench.trace_overhead", "ratio", trace_overhead},
  };
}

}  // namespace

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  const Options opt = parseOptions(argc, argv);
  CaseConfig config;
  config.scale = opt.scale;
  config.seed = opt.seed;
  config.scratch_dir = opt.scratch_dir;
  const std::optional<std::uint64_t> pinned =
      opt.pin_override ? opt.pin_override
                       : pinnedDigest(opt.workload, opt.scale, opt.seed);
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d scale=%s "
              "sweep_workers=%u pinned_digest=%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0,
              opt.scale == Scale::Full ? "full" : "tiny", sweepWorkers(),
              pinned ? "yes" : "no");
  Gate gate(pinned);
  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics = endToEnd(opt, config, gate);
  } else {
    SpanLog spans;
    CaseConfig traced = config;
    traced.spans = &spans;
    {
      Scope root(&spans, "perfbench");
      metrics = perLayer(opt, config, traced, gate);
    }
    if (!opt.spans_path.empty() && !spans.write(opt.spans_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   opt.spans_path.c_str());
      return 1;
    }
  }
  printResult(metrics, gate);
  std::fflush(stdout);
  return gate.failed() == 0 ? 0 : 1;
}
