#include "spans.hpp"

#include <cstdio>
#include <fstream>

namespace perfbench {

SpanLog::Id SpanLog::open(std::string name, Clock::time_point start) {
  const Id parent = open_.empty() ? 0 : open_.back();
  spans_.push_back({std::move(name), parent, secondsBetween(origin_, start)});
  open_.push_back(spans_.size());
  return spans_.size();
}

void SpanLog::close(Id id, Clock::time_point end) {
  // Scopes are RAII-nested, so `id` is always the innermost open span.
  open_.pop_back();
  spans_[id - 1].end_s = secondsBetween(origin_, end);
}

void SpanLog::addAggregate(std::string name, std::uint64_t count,
                           double total_s) {
  aggregates_.push_back(
      {std::move(name), open_.empty() ? 0 : open_.back(), count, total_s});
}

namespace {

// Span names are fixed identifiers chosen by the benchmark (letters,
// digits, '.', '_'), so they need no JSON escaping.
std::string jsonNumber(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9f", value);
  return buf;
}

}  // namespace

bool SpanLog::write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  out << "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "  {\"id\": " << i + 1
        << ", \"name\": \"" << s.name << "\", \"parent\": " << s.parent
        << ", \"start_s\": " << jsonNumber(s.start_s)
        << ", \"end_s\": " << jsonNumber(s.end_s) << "}";
  }
  out << "\n], \"aggregates\": [";
  for (std::size_t i = 0; i < aggregates_.size(); ++i) {
    const Aggregate& a = aggregates_[i];
    out << (i == 0 ? "\n" : ",\n") << "  {\"name\": \"" << a.name
        << "\", \"parent\": " << a.parent << ", \"count\": " << a.count
        << ", \"total_s\": " << jsonNumber(a.total_s) << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
