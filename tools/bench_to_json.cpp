// Merge benchmark results into the tracked BENCH_hotpath.json trajectory.
//
// Usage:
//   bench_to_json --out BENCH_hotpath.json --label before|after
//                 [--mode quick|full]
//                 [--bench <name>=<google-benchmark-json-report>]...
//                 [--wall <name>=<seconds>]...
//                 [--parallel <micro_parallel-json-report>]
//
// Each --bench argument points at a report produced with
// `--benchmark_format=json`; the relevant per-benchmark numbers (real time,
// items/s) are extracted. Each --wall argument records an end-to-end
// wall-clock number (the fig10/fig13 harness runs). The output file keeps one
// object per label, so running with --label before and later --label after
// yields the before/after pair; when both are present a derived "speedup"
// section is recomputed. tools/run_hotpath_bench.sh drives this binary.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "util/check.hpp"
#include "util/json.hpp"

namespace {

using iobts::Json;
using iobts::JsonObject;

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  IOBTS_CHECK(in.good(), "cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Extract {benchmark name -> {real_time_ns, items_per_second}} from a
/// google-benchmark JSON report.
Json extractBenchmarks(const std::string& report_path) {
  const Json report = Json::parse(readFile(report_path));
  IOBTS_CHECK(report.isObject(), report_path + ": report is not an object");
  const auto& obj = report.asObject();
  const auto it = obj.find("benchmarks");
  IOBTS_CHECK(it != obj.end() && it->second.isArray(),
              report_path + ": no benchmarks array");
  JsonObject out;
  for (const Json& bench : it->second.asArray()) {
    if (!bench.isObject()) continue;
    const auto& b = bench.asObject();
    const auto name_it = b.find("name");
    if (name_it == b.end() || !name_it->second.isString()) continue;
    // Repetition handling: a `median` aggregate row is recorded under its
    // base name (stripping the "_median" suffix) and wins over per-rep
    // rows -- medians of interleaved repetitions are what make recorded
    // comparisons on noisy machines meaningful. Other aggregates
    // (mean/stddev/cv) are skipped.
    std::string name = name_it->second.asString();
    if (const auto agg = b.find("aggregate_name"); agg != b.end()) {
      if (!agg->second.isString() || agg->second.asString() != "median") {
        continue;
      }
      const std::string suffix = "_median";
      if (name.size() > suffix.size() &&
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
              0) {
        name.resize(name.size() - suffix.size());
      }
    } else if (out.count(name) != 0) {
      continue;  // a median (or an earlier rep) already claimed this name
    }
    JsonObject entry;
    if (const auto t = b.find("real_time"); t != b.end() && t->second.isNumber()) {
      double ns = t->second.asNumber();
      if (const auto u = b.find("time_unit");
          u != b.end() && u->second.isString()) {
        const std::string& unit = u->second.asString();
        if (unit == "us") ns *= 1e3;
        else if (unit == "ms") ns *= 1e6;
        else if (unit == "s") ns *= 1e9;
      }
      entry["real_time_ns"] = Json(ns);
    }
    if (const auto ips = b.find("items_per_second");
        ips != b.end() && ips->second.isNumber()) {
      entry["items_per_second"] = ips->second;
    }
    // User counters land as top-level numeric fields; the on-disk encoding
    // density is the one the binlog benches report.
    if (const auto bpe = b.find("bytes_per_event");
        bpe != b.end() && bpe->second.isNumber()) {
      entry["bytes_per_event"] = bpe->second;
    }
    out[name] = Json(std::move(entry));
  }
  return Json(std::move(out));
}

/// Build the top-level "parallel" section from a micro_parallel report:
/// per-benchmark real times plus thread-count speedups derived from the
/// benchmarks that carry a `threads` counter (real time at threads=1 over
/// real time at threads=N for the same benchmark family). The section is
/// label-independent -- it describes thread scaling of the current tree on
/// the current machine, so `cores` is recorded alongside to make the
/// numbers interpretable (on fewer cores than threads the "speedup" is
/// legitimately <= 1).
Json extractParallel(const std::string& report_path) {
  const Json report = Json::parse(readFile(report_path));
  IOBTS_CHECK(report.isObject(), report_path + ": report is not an object");
  const auto& obj = report.asObject();
  const auto it = obj.find("benchmarks");
  IOBTS_CHECK(it != obj.end() && it->second.isArray(),
              report_path + ": no benchmarks array");
  JsonObject benches;
  double cores = 0.0;
  for (const Json& bench : it->second.asArray()) {
    if (!bench.isObject()) continue;
    const auto& b = bench.asObject();
    const auto name_it = b.find("name");
    if (name_it == b.end() || !name_it->second.isString()) continue;
    if (b.count("aggregate_name") != 0) continue;
    JsonObject entry;
    if (const auto t = b.find("real_time");
        t != b.end() && t->second.isNumber()) {
      double ns = t->second.asNumber();
      if (const auto u = b.find("time_unit");
          u != b.end() && u->second.isString()) {
        const std::string& unit = u->second.asString();
        if (unit == "us") ns *= 1e3;
        else if (unit == "ms") ns *= 1e6;
        else if (unit == "s") ns *= 1e9;
      }
      entry["real_time_ns"] = Json(ns);
    }
    if (const auto th = b.find("threads");
        th != b.end() && th->second.isNumber()) {
      entry["threads"] = th->second;
    }
    if (const auto c = b.find("cores"); c != b.end() && c->second.isNumber()) {
      cores = c->second.asNumber();
    }
    benches[name_it->second.asString()] = Json(std::move(entry));
  }

  // Threads=1 baseline per benchmark family ("BM_Foo/4/..." -> "BM_Foo").
  auto family = [](const std::string& name) {
    const auto slash = name.find('/');
    return slash == std::string::npos ? name : name.substr(0, slash);
  };
  auto metric = [](const JsonObject& entry, const char* key) {
    const auto m = entry.find(key);
    return m != entry.end() && m->second.isNumber() ? m->second.asNumber()
                                                    : 0.0;
  };
  JsonObject speedup;
  for (const auto& [name, entry_val] : benches) {
    if (!entry_val.isObject()) continue;
    const auto& entry = entry_val.asObject();
    const double threads = metric(entry, "threads");
    const double rt = metric(entry, "real_time_ns");
    if (threads <= 1.0 || rt <= 0.0) continue;
    for (const auto& [base_name, base_val] : benches) {
      if (!base_val.isObject() || family(base_name) != family(name)) continue;
      const auto& base = base_val.asObject();
      if (metric(base, "threads") != 1.0) continue;
      const double base_rt = metric(base, "real_time_ns");
      if (base_rt > 0.0) speedup[name] = Json(base_rt / rt);
      break;
    }
  }

  JsonObject out;
  out["benchmarks"] = Json(std::move(benches));
  if (cores > 0.0) out["cores"] = Json(cores);
  out["speedup_vs_1_thread"] = Json(std::move(speedup));
  return Json(std::move(out));
}

double benchMetric(const Json& section, const std::string& suite,
                   const std::string& bench, const char* metric) {
  if (!section.isObject()) return 0.0;
  const auto& s = section.asObject();
  const auto suite_it = s.find(suite);
  if (suite_it == s.end() || !suite_it->second.isObject()) return 0.0;
  const auto& benches = suite_it->second.asObject();
  const auto bench_it = benches.find(bench);
  if (bench_it == benches.end() || !bench_it->second.isObject()) return 0.0;
  const auto& entry = bench_it->second.asObject();
  const auto m = entry.find(metric);
  return m != entry.end() && m->second.isNumber() ? m->second.asNumber() : 0.0;
}

/// Derived speedups once both labels exist: items/s ratios per benchmark and
/// wall-clock ratios per harness ( > 1.0 means "after" is faster).
Json computeSpeedups(const Json& before, const Json& after) {
  JsonObject out;
  if (!before.isObject() || !after.isObject()) return Json(std::move(out));
  for (const auto& [suite, suite_val] : after.asObject()) {
    if (suite_val.isNumber()) {
      // wall-clock entry: seconds, lower is better.
      const auto& b = before.asObject();
      const auto it = b.find(suite);
      if (it != b.end() && it->second.isNumber() &&
          suite_val.asNumber() > 0.0) {
        out[suite] = Json(it->second.asNumber() / suite_val.asNumber());
      }
      continue;
    }
    if (!suite_val.isObject()) continue;
    for (const auto& [bench, entry] : suite_val.asObject()) {
      (void)entry;
      const double before_ips =
          benchMetric(before, suite, bench, "items_per_second");
      const double after_ips =
          benchMetric(after, suite, bench, "items_per_second");
      if (before_ips > 0.0 && after_ips > 0.0) {
        out[suite + "/" + bench] = Json(after_ips / before_ips);
      }
    }
  }
  return Json(std::move(out));
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  std::string label;
  std::string schema = "iobts-bench-hotpath-v1";
  std::string mode = "quick";
  std::string parallel_report;
  std::vector<std::pair<std::string, std::string>> bench_args;
  std::vector<std::pair<std::string, double>> wall_args;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      IOBTS_CHECK(i + 1 < argc, arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--out") {
      out_path = next();
    } else if (arg == "--label") {
      label = next();
    } else if (arg == "--schema") {
      schema = next();
    } else if (arg == "--mode") {
      mode = next();
    } else if (arg == "--parallel") {
      parallel_report = next();
    } else if (arg == "--bench" || arg == "--wall") {
      const std::string value = next();
      const auto eq = value.find('=');
      IOBTS_CHECK(eq != std::string::npos, arg + " expects name=value");
      const std::string name = value.substr(0, eq);
      const std::string rest = value.substr(eq + 1);
      if (arg == "--bench") {
        bench_args.emplace_back(name, rest);
      } else {
        char* end = nullptr;
        const double seconds = std::strtod(rest.c_str(), &end);
        if (end == rest.c_str() || *end != '\0') {
          std::fprintf(stderr, "--wall %s: '%s' is not a number\n",
                       name.c_str(), rest.c_str());
          return 2;
        }
        wall_args.emplace_back(name, seconds);
      }
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }
  if (out_path.empty() || label.empty()) {
    std::fprintf(stderr,
                 "usage: bench_to_json --out FILE --label LABEL "
                 "[--schema NAME] [--mode quick|full] "
                 "[--bench name=report.json]... "
                 "[--wall name=seconds]... [--parallel report.json]\n");
    return 2;
  }

  try {
    JsonObject root;
    if (std::ifstream probe(out_path); probe.good()) {
      probe.close();
      const Json existing = Json::parse(readFile(out_path));
      if (existing.isObject()) root = existing.asObject();
    }
    root["schema"] = Json(schema);
    root["mode"] = Json(mode);

    // Merge into any existing section for this label so partial captures
    // (e.g. adding full-scale wall timings after a quick run) accumulate.
    JsonObject section;
    if (const auto it = root.find(label);
        it != root.end() && it->second.isObject()) {
      section = it->second.asObject();
    }
    for (const auto& [name, path] : bench_args) {
      section[name] = extractBenchmarks(path);
    }
    for (const auto& [name, seconds] : wall_args) {
      section[name] = Json(seconds);
    }
    root[label] = Json(std::move(section));

    if (!parallel_report.empty()) {
      root["parallel"] = extractParallel(parallel_report);
    }

    if (root.count("before") != 0 && root.count("after") != 0) {
      root["speedup_after_vs_before"] =
          computeSpeedups(root["before"], root["after"]);
    }

    std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
    IOBTS_CHECK(out.good(), "cannot write " + out_path);
    out << Json(std::move(root)).pretty() << "\n";
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_to_json: %s\n", e.what());
    return 1;
  }
  return 0;
}
