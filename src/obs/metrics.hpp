// Unified metrics registry.
//
// Every layer of the simulator keeps local stats structs on its hot paths
// (pfs::ResolveStats, mpisim::AdioEngine::Stats, cluster::JobResult
// counters, rtio::OpStats ...) -- those stay, because a plain struct
// increment is the cheapest possible instrumentation. What was missing is
// one place to *collect* them: each component exposes an
// `exportMetrics(MetricsRegistry&)` that publishes its counters under a
// stable dotted name, and the registry renders everything as a
// deterministic text table or JSON document.
//
// Names are stored in std::map, so iteration (and therefore every dump) is
// sorted and reproducible. Registration/update allocates; this is a
// collection-time API, not a per-event one.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace iobts::obs {

/// Fixed-bucket histogram: `bounds` are the inclusive upper edges of the
/// first N buckets; one overflow bucket catches everything above the last
/// bound. Bucket layout is fixed at registration so merging and dumping
/// stay trivially deterministic.
struct Histogram {
  std::vector<double> bounds;        // ascending upper edges
  std::vector<std::uint64_t> counts; // bounds.size() + 1 entries
  std::uint64_t total = 0;
  double sum = 0.0;

  void observe(double value);
};

class MetricsRegistry {
 public:
  /// Add `delta` to the named monotonic counter (created at zero).
  void addCounter(const std::string& name, std::uint64_t delta);
  /// Set the named gauge to `value` (last write wins).
  void setGauge(const std::string& name, double value);
  /// Record `value` into the named histogram; on first use the histogram
  /// is created with `bounds` as its bucket edges. Later calls ignore
  /// `bounds` (the layout is fixed).
  void observe(const std::string& name, double value,
               const std::vector<double>& bounds);

  std::uint64_t counter(const std::string& name) const;
  double gauge(const std::string& name) const;
  const Histogram* histogram(const std::string& name) const;

  const std::map<std::string, std::uint64_t>& counters() const {
    return counters_;
  }
  const std::map<std::string, double>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  /// Human-readable sorted dump, one metric per line.
  std::string dumpText() const;
  /// {"counters": {...}, "gauges": {...}, "histograms": {...}}, all keys
  /// sorted (Json objects are std::map-backed).
  Json toJson() const;

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace iobts::obs
