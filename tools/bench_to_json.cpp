// Merge google-benchmark JSON reports into a tracked benchmark JSON file.
//
// Usage:
//   bench_to_json --out FILE --label LABEL --schema NAME
//                 --bench <name>=<google-benchmark-json-report>...
//
// Each --bench argument points at a report produced with
// `--benchmark_out_format=json`; the relevant per-benchmark numbers (real
// time, items/s, bytes/event) are extracted and stored under
// <LABEL>.<name>. Other labels and keys already in FILE are kept.
// tools/run_obs_bench.sh drives this binary to record
// BENCH_obs_overhead.json.
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/file_io.hpp"
#include "util/json.hpp"

namespace {

using iobts::Json;
using iobts::JsonObject;

Json parseFile(const std::string& path) {
  const std::optional<std::string> bytes = iobts::readFile(path);
  IOBTS_CHECK(bytes.has_value(), "cannot open " + path);
  return Json::parse(*bytes);
}

/// Extract {benchmark name -> {real_time_ns, items_per_second}} from a
/// google-benchmark JSON report.
Json extractBenchmarks(const std::string& report_path) {
  const Json report = parseFile(report_path);
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

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  std::string label;
  std::string schema;
  std::vector<std::pair<std::string, std::string>> bench_args;

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
    } else if (arg == "--bench") {
      const std::string value = next();
      const auto eq = value.find('=');
      IOBTS_CHECK(eq != std::string::npos, arg + " expects name=value");
      bench_args.emplace_back(value.substr(0, eq), value.substr(eq + 1));
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }
  if (out_path.empty() || label.empty() || schema.empty() ||
      bench_args.empty()) {
    std::fprintf(stderr,
                 "usage: bench_to_json --out FILE --label LABEL "
                 "--schema NAME --bench name=report.json...\n");
    return 2;
  }

  try {
    JsonObject root;
    if (const std::optional<std::string> existing = iobts::readFile(out_path)) {
      const Json parsed = Json::parse(*existing);
      if (parsed.isObject()) root = parsed.asObject();
    }
    root["schema"] = Json(schema);

    // Merge into any existing section for this label so reports recorded
    // by separate runs accumulate.
    JsonObject section;
    if (const auto it = root.find(label);
        it != root.end() && it->second.isObject()) {
      section = it->second.asObject();
    }
    for (const auto& [name, path] : bench_args) {
      section[name] = extractBenchmarks(path);
    }
    root[label] = Json(std::move(section));

    std::string error;
    if (!iobts::publishFile(out_path, Json(std::move(root)).pretty() + "\n",
                            &error)) {
      std::fprintf(stderr, "bench_to_json: %s\n", error.c_str());
      return 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_to_json: %s\n", e.what());
    return 1;
  }
  return 0;
}
