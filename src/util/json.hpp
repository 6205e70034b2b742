// Minimal JSON value + serializer + parser.
//
// TMIO emits its trace records as JSON Lines (one object per record), the
// format the paper's plotting scripts consume. The parser exists for our own
// tooling (tools/bench_to_json merges google-benchmark JSON reports into the
// tracked BENCH_obs_overhead.json); it handles standard JSON and is not
// hardened against adversarial input.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace iobts {

class Json;
using JsonArray = std::vector<Json>;
// std::map keeps keys sorted -> deterministic output for golden tests.
using JsonObject = std::map<std::string, Json>;

class Json {
 public:
  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double d) : value_(d) {}
  Json(int i) : value_(static_cast<double>(i)) {}
  Json(unsigned i) : value_(static_cast<double>(i)) {}
  Json(long i) : value_(static_cast<double>(i)) {}
  Json(unsigned long i) : value_(static_cast<double>(i)) {}
  Json(long long i) : value_(static_cast<double>(i)) {}
  Json(unsigned long long i) : value_(static_cast<double>(i)) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(std::string_view s) : value_(std::string(s)) {}
  Json(JsonArray a) : value_(std::move(a)) {}
  Json(JsonObject o) : value_(std::move(o)) {}
  // Out of line: inlined, GCC 12 reports the variant's inactive members as
  // maybe-uninitialized at every copy or move site.
  Json(const Json& other);
  Json(Json&& other) noexcept;
  Json& operator=(const Json& other);
  Json& operator=(Json&& other) noexcept;
  ~Json();

  bool isNull() const noexcept { return std::holds_alternative<std::nullptr_t>(value_); }
  bool isBool() const noexcept { return std::holds_alternative<bool>(value_); }
  bool isNumber() const noexcept { return std::holds_alternative<double>(value_); }
  bool isString() const noexcept { return std::holds_alternative<std::string>(value_); }
  bool isArray() const noexcept { return std::holds_alternative<JsonArray>(value_); }
  bool isObject() const noexcept { return std::holds_alternative<JsonObject>(value_); }

  bool asBool() const { return std::get<bool>(value_); }
  double asNumber() const { return std::get<double>(value_); }
  const std::string& asString() const { return std::get<std::string>(value_); }
  const JsonArray& asArray() const { return std::get<JsonArray>(value_); }
  const JsonObject& asObject() const { return std::get<JsonObject>(value_); }
  JsonArray& asArray() { return std::get<JsonArray>(value_); }
  JsonObject& asObject() { return std::get<JsonObject>(value_); }

  /// Compact single-line serialization (suitable for JSONL).
  std::string dump() const;

  /// Pretty serialization with two-space indentation.
  std::string pretty() const;

  /// Parse a complete JSON document. Throws CheckError on malformed input or
  /// trailing non-whitespace.
  static Json parse(std::string_view text);

 private:
  void dumpTo(std::string& out, int indent, int depth) const;
  static void escapeTo(std::string& out, const std::string& s);

  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      value_;
};

}  // namespace iobts
