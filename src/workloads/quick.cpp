#include "workloads/quick.hpp"

#include <cmath>

namespace iobts::workloads {

pfs::LinkConfig lichtenbergLinkConfig() {
  pfs::LinkConfig cfg;
  cfg.write_capacity = 106e9;
  cfg.read_capacity = 120e9;
  cfg.client_rate_cap = 1.5e9;
  return cfg;
}

pfs::LinkConfig fig10QuickLinkConfig() {
  pfs::LinkConfig cfg = lichtenbergLinkConfig();
  cfg.congestion_gamma = 2e-4;
  return cfg;
}

WacommConfig fig10QuickWacommConfig() {
  WacommConfig cfg;
  cfg.bytes_per_particle = 2048;
  cfg.iteration_compute_core_seconds = 48.0;
  cfg.iteration_fixed_seconds = 2.2;
  cfg.iterations = 6;
  return cfg;
}

HaccIoConfig paperScaledHaccConfig(int ranks) {
  HaccIoConfig cfg;
  const double scale = std::pow(static_cast<double>(ranks), 0.55);
  cfg.compute_seconds = 0.30 * scale;
  cfg.verify_seconds = 0.25 * scale;
  cfg.requests_per_write = 9;
  return cfg;
}

HaccIoConfig fig13QuickHaccConfig() {
  HaccIoConfig cfg = paperScaledHaccConfig(kFig13QuickRanks);
  cfg.loops = 2;
  return cfg;
}

tmio::TracerConfig quickTracerConfig(tmio::StrategyKind strategy) {
  tmio::TracerConfig cfg;
  cfg.strategy = strategy;
  cfg.params.tolerance = 1.1;
  return cfg;
}

}  // namespace iobts::workloads
