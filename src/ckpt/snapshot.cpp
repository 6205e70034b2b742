#include "ckpt/snapshot.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>

#include "ckpt/capture.hpp"
#include "util/hash.hpp"

namespace iobts::ckpt {
namespace {

std::string formatHex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return buf;
}

[[noreturn]] void malformedMeta(const std::string& origin,
                                const std::string& detail) {
  throw CheckpointError(ErrorKind::Malformed,
                        origin + ": malformed meta section: " + detail);
}

/// Parse the meta payload into a key -> value map; strict one `key=value`
/// per line, no duplicates.
std::map<std::string, std::string> parseMeta(const std::string& payload,
                                             const std::string& origin) {
  std::map<std::string, std::string> out;
  std::size_t pos = 0;
  while (pos < payload.size()) {
    std::size_t eol = payload.find('\n', pos);
    if (eol == std::string::npos) {
      malformedMeta(origin, "final line lacks a newline");
    }
    const std::string line = payload.substr(pos, eol - pos);
    pos = eol + 1;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos || eq == 0) {
      malformedMeta(origin, "line '" + line + "' is not key=value");
    }
    const std::string key = line.substr(0, eq);
    if (!out.emplace(key, line.substr(eq + 1)).second) {
      malformedMeta(origin, "duplicate key '" + key + "'");
    }
  }
  return out;
}

const std::string& requireKey(const std::map<std::string, std::string>& meta,
                              const char* key, const std::string& origin) {
  const auto it = meta.find(key);
  if (it == meta.end()) malformedMeta(origin, std::string("missing key '") + key + "'");
  return it->second;
}

std::uint64_t parseU64(const std::string& value, const char* key,
                       const std::string& origin) {
  if (value.empty()) malformedMeta(origin, std::string("empty value for '") + key + "'");
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(value.c_str(), &end, 0);
  if (errno != 0 || end != value.c_str() + value.size()) {
    malformedMeta(origin, "value '" + value + "' for '" + key +
                              "' is not an unsigned integer");
  }
  return static_cast<std::uint64_t>(v);
}

sim::Time parseTime(const std::string& value, const char* key,
                    const std::string& origin) {
  if (value.empty()) malformedMeta(origin, std::string("empty value for '") + key + "'");
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(value.c_str(), &end);
  if (errno != 0 || end != value.c_str() + value.size()) {
    malformedMeta(origin,
                  "value '" + value + "' for '" + key + "' is not a number");
  }
  return v;
}

}  // namespace

CheckpointFile encodeSnapshot(const Snapshot& snapshot) {
  SectionBuilder meta;
  meta.raw("scenario_name=" + snapshot.scenario_name + "\n");
  meta.hex("scenario_digest", snapshot.scenario_digest);
  meta.kv("watermark", snapshot.watermark);
  // Every checkpoint is taken mid-run; the key stays so the bytes do not
  // change.
  meta.kv("finished", false);

  CheckpointFile file;
  file.sections.push_back({"meta", meta.take()});
  file.sections.push_back({"scenario", snapshot.scenario_text});
  for (const Section& s : snapshot.state) file.sections.push_back(s);
  return file;
}

Snapshot decodeSnapshot(const CheckpointFile& file,
                        const std::string& origin) {
  const auto require = [&](const char* name) -> const Section& {
    const Section* s = file.find(name);
    if (s == nullptr) {
      throw CheckpointError(ErrorKind::MissingSection,
                            origin + ": checkpoint is missing required "
                                     "section '" +
                                name + "'");
    }
    return *s;
  };
  const Section& meta_section = require("meta");
  const Section& scenario_section = require("scenario");
  const auto meta = parseMeta(meta_section.payload, origin);
  for (const auto& [key, value] : meta) {
    (void)value;
    if (key != "scenario_name" && key != "scenario_digest" &&
        key != "watermark" && key != "finished") {
      malformedMeta(origin, "unknown key '" + key + "'");
    }
  }

  Snapshot snapshot;
  snapshot.scenario_name = requireKey(meta, "scenario_name", origin);
  snapshot.scenario_digest =
      parseU64(requireKey(meta, "scenario_digest", origin), "scenario_digest",
               origin);
  snapshot.watermark =
      parseTime(requireKey(meta, "watermark", origin), "watermark", origin);
  // Restore replays to the watermark and resumes from there; nothing
  // could verify a claim that the run had already finished.
  const std::string& finished = requireKey(meta, "finished", origin);
  if (finished != "0") {
    malformedMeta(origin, "finished must be 0, got '" + finished + "'");
  }
  if (!(snapshot.watermark >= 0.0)) {
    malformedMeta(origin, "watermark must be non-negative");
  }

  snapshot.scenario_text = scenario_section.payload;
  const std::uint64_t text_digest = hashName(snapshot.scenario_text);
  if (text_digest != snapshot.scenario_digest) {
    throw CheckpointError(
        ErrorKind::ScenarioMismatch,
        origin + ": embedded scenario text (digest " + formatHex64(text_digest) +
            ") does not match the scenario this checkpoint declares (" +
            formatHex64(snapshot.scenario_digest) +
            ") -- the checkpoint belongs to a different scenario");
  }

  for (const Section& s : file.sections) {
    if (s.name == "meta" || s.name == "scenario") continue;
    if (s.name.rfind(kStatePrefix, 0) != 0) {
      throw CheckpointError(ErrorKind::Malformed,
                            origin + ": unexpected section '" + s.name + "'");
    }
    snapshot.state.push_back(s);
  }
  if (snapshot.state.empty()) {
    throw CheckpointError(ErrorKind::MissingSection,
                          origin + ": checkpoint carries no state sections");
  }
  return snapshot;
}

}  // namespace iobts::ckpt
