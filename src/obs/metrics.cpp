#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>

namespace iobts::obs {

void Histogram::observe(double value) {
  std::size_t i = 0;
  while (i < bounds.size() && value > bounds[i]) ++i;
  if (counts.size() != bounds.size() + 1) counts.resize(bounds.size() + 1, 0);
  ++counts[i];
  ++total;
  sum += value;
}

void MetricsRegistry::addCounter(const std::string& name,
                                 std::uint64_t delta) {
  counters_[name] += delta;
}

void MetricsRegistry::setGauge(const std::string& name, double value) {
  gauges_[name] = value;
}

void MetricsRegistry::observe(const std::string& name, double value,
                              const std::vector<double>& bounds) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    Histogram h;
    h.bounds = bounds;
    h.counts.assign(bounds.size() + 1, 0);
    it = histograms_.emplace(name, std::move(h)).first;
  }
  it->second.observe(value);
}

std::uint64_t MetricsRegistry::counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double MetricsRegistry::gauge(const std::string& name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

const Histogram* MetricsRegistry::histogram(const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

std::string MetricsRegistry::dumpText() const {
  std::string out;
  char buf[64];
  for (const auto& [name, value] : counters_) {
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(value));
    out += "counter ";
    out += name;
    out += " = ";
    out += buf;
    out += '\n';
  }
  for (const auto& [name, value] : gauges_) {
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out += "gauge ";
    out += name;
    out += " = ";
    out += buf;
    out += '\n';
  }
  for (const auto& [name, h] : histograms_) {
    out += "histogram ";
    out += name;
    std::snprintf(buf, sizeof(buf), " total=%llu sum=%.17g buckets=[",
                  static_cast<unsigned long long>(h.total), h.sum);
    out += buf;
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      if (i) out += ' ';
      if (i < h.bounds.size()) {
        std::snprintf(buf, sizeof(buf), "le%.17g:%llu", h.bounds[i],
                      static_cast<unsigned long long>(h.counts[i]));
      } else {
        std::snprintf(buf, sizeof(buf), "inf:%llu",
                      static_cast<unsigned long long>(h.counts[i]));
      }
      out += buf;
    }
    out += "]\n";
  }
  return out;
}

Json MetricsRegistry::toJson() const {
  JsonObject counters;
  for (const auto& [name, value] : counters_) counters[name] = Json(value);
  JsonObject gauges;
  for (const auto& [name, value] : gauges_) gauges[name] = Json(value);
  JsonObject histograms;
  for (const auto& [name, h] : histograms_) {
    JsonArray bounds;
    for (double b : h.bounds) bounds.push_back(Json(b));
    JsonArray counts;
    for (std::uint64_t c : h.counts) counts.push_back(Json(c));
    histograms[name] = Json(JsonObject{
        {"bounds", Json(std::move(bounds))},
        {"counts", Json(std::move(counts))},
        {"total", Json(h.total)},
        {"sum", Json(h.sum)},
    });
  }
  return Json(JsonObject{
      {"counters", Json(std::move(counters))},
      {"gauges", Json(std::move(gauges))},
      {"histograms", Json(std::move(histograms))},
  });
}

}  // namespace iobts::obs
