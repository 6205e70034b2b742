// Equivalence suite for the incremental SharedLink resolve and the
// scratch-buffer fair-share solver.
//
// The hot-path overhaul must be observationally invisible: the incremental
// resolve (LinkConfig::force_full_resolve = false, the default) must produce
// the same transfer timings, byte accounting, rate series, and simulation
// event count as the always-full re-solve, and fairShareInto must produce
// bit-identical allocations to the convenience fairShare wrapper. These tests
// drive both configurations through randomized scenarios (seeded via
// util/rng, so failures replay exactly) and compare.
//
// The scenarios also inject randomized poke() calls -- resolves at arbitrary
// times, including strictly before the channel's next-interesting-time bound
// -- so the lazy-settle skip is exercised against the full-resolve reference,
// and both modes must report identical executed/skipped resolve counters
// (the skip decision is shared, only what a "skipped" resolve computes
// differs).
//
// The equivalence tests compare two modes of one build, so a change that
// moves both modes alike passes them. ResolveEquivalence.LinkBitsArePinned
// closes that gap: it hashes the exact bits of the same scenarios against a
// recorded constant.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "pfs/fair_share.hpp"
#include "pfs/shared_link.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

namespace iobts::pfs {
namespace {

// ---------------------------------------------------------------------------
// fairShareInto vs fairShare: bit-identical allocations on random inputs.

TEST(FairShareEquivalence, ScratchOverloadMatchesOwningOverloadBitExact) {
  Rng rng(2024, "fair-share-equiv");
  FairShareScratch scratch;  // reused across cases on purpose
  std::vector<BytesPerSec> into_alloc;
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + rng.uniformInt(64);
    std::vector<FairShareItem> items(n);
    for (auto& item : items) {
      item.weight = rng.uniform(0.0, 8.0);
      if (rng.uniform() < 0.6) item.cap = rng.uniform(0.0, 200.0);
    }
    const BytesPerSec capacity = rng.uniform(0.0, 500.0);

    const FairShareResult owning = fairShare(items, capacity);
    const FairShareStats stats =
        fairShareInto(items, capacity, scratch, into_alloc);

    ASSERT_EQ(owning.allocation.size(), into_alloc.size());
    for (std::size_t i = 0; i < into_alloc.size(); ++i) {
      // Bit-identical, not just close: same arithmetic, same order.
      EXPECT_EQ(owning.allocation[i], into_alloc[i])
          << "trial " << trial << " item " << i;
    }
    EXPECT_EQ(owning.total, stats.total) << "trial " << trial;
    EXPECT_EQ(owning.fill_level, stats.fill_level) << "trial " << trial;
  }
}

TEST(FairShareEquivalence, DirtyScratchAndOutputBuffersAreFullyOverwritten) {
  FairShareScratch scratch;
  std::vector<BytesPerSec> alloc{1e30, -5.0, 7.0, 9.0, 11.0};  // stale junk
  scratch.order = {9, 9, 9, 9, 9, 9, 9, 9};
  scratch.ratio = {-1.0, -1.0};
  const std::vector<FairShareItem> items{{1.0, std::nullopt},
                                         {1.0, 10.0}};
  const FairShareStats stats = fairShareInto(items, 100.0, scratch, alloc);
  ASSERT_EQ(alloc.size(), 2u);
  EXPECT_DOUBLE_EQ(alloc[0], 90.0);
  EXPECT_DOUBLE_EQ(alloc[1], 10.0);
  EXPECT_DOUBLE_EQ(stats.total, 100.0);
}

// ---------------------------------------------------------------------------
// Incremental vs full resolve on randomized SharedLink scenarios.

struct ScenarioResult {
  std::vector<TransferResult> transfers;
  // Each transfer's channel and stream, by transfer index.
  std::vector<Channel> channels;
  std::vector<StreamId> streams;
  std::vector<Bytes> stream_bytes;
  Bytes bytes_moved[kChannels] = {0, 0};
  sim::Time end_time = 0.0;
  std::uint64_t events_processed = 0;
  // totalRateSeries resampled on a fixed grid (point lists may differ --
  // the short-circuit skips re-adding unchanged values -- but the step
  // function they describe must not).
  std::vector<double> total_rate_samples[kChannels];
  std::vector<double> stream0_rate_samples;
  // The raw step-series points, for the exact-bits pin.
  std::vector<std::pair<double, double>> total_rate_points[kChannels];
  std::vector<std::pair<double, double>> stream0_rate_points[kChannels];
  std::uint64_t resolves_executed[kChannels] = {0, 0};
  std::uint64_t resolves_skipped[kChannels] = {0, 0};
  // Solves of both channels, and those the all-saturating rule decided.
  std::uint64_t full_solves = 0;
  std::uint64_t all_saturating_solves = 0;
};

struct ScenarioParams {
  std::uint64_t seed = 1;
  bool force_full_resolve = false;
  double noise_sigma = 0.0;
  double congestion_gamma = 0.0;
  sim::Time recompute_quantum = 0.0;
  BytesPerSec client_rate_cap = 0.0;
};

// One transfer per coroutine frame; parameters are copied into the frame.
sim::Task<void> delayedTransfer(sim::Simulation& sim, SharedLink& link,
                                Channel ch, StreamId stream, Bytes bytes,
                                sim::Time at, TransferResult& out) {
  co_await sim.delay(at);
  out = co_await link.transfer(ch, stream, bytes);
}

sim::Task<void> capChange(sim::Simulation& sim, SharedLink& link, StreamId s,
                          sim::Time at, std::optional<BytesPerSec> cap) {
  co_await sim.delay(at);
  link.setStreamCap(s, cap);
}

sim::Task<void> weightChange(sim::Simulation& sim, SharedLink& link,
                             StreamId s, sim::Time at, double weight) {
  co_await sim.delay(at);
  link.setStreamWeight(s, weight);
}

sim::Task<void> pokeAt(sim::Simulation& sim, SharedLink& link, Channel ch,
                       sim::Time at) {
  co_await sim.delay(at);
  link.poke(ch);
}

ScenarioResult runScenario(const ScenarioParams& p) {
  // All randomness below derives from p.seed only, never from
  // force_full_resolve, so both configurations see the identical op stream.
  Rng rng(p.seed, "resolve-equiv-scenario");

  LinkConfig cfg;
  cfg.read_capacity = 120.0;
  cfg.write_capacity = 106.0;
  cfg.noise_sigma = p.noise_sigma;
  cfg.congestion_gamma = p.congestion_gamma;
  cfg.recompute_quantum = p.recompute_quantum;
  cfg.client_rate_cap = p.client_rate_cap;
  cfg.seed = p.seed;
  cfg.record_total = true;
  cfg.force_full_resolve = p.force_full_resolve;

  sim::Simulation sim;
  SharedLink link(sim, cfg);

  const std::size_t n_streams = 2 + rng.uniformInt(6);
  std::vector<StreamId> streams;
  for (std::size_t i = 0; i < n_streams; ++i) {
    streams.push_back(
        link.createStream(std::string("s").append(std::to_string(i)),
                          rng.uniform(0.5, 4.0)));
  }
  link.setRecordStream(streams[0], true);

  ScenarioResult result;
  const std::size_t n_transfers = 8 + rng.uniformInt(24);
  result.transfers.resize(n_transfers);
  for (std::size_t i = 0; i < n_transfers; ++i) {
    const Channel ch = rng.uniform() < 0.5 ? Channel::Read : Channel::Write;
    const StreamId s = streams[rng.uniformInt(streams.size())];
    const Bytes bytes = 1 + rng.uniformInt(5000);
    const sim::Time at = rng.uniform(0.0, 40.0);
    result.channels.push_back(ch);
    result.streams.push_back(s);
    sim.spawn(
        delayedTransfer(sim, link, ch, s, bytes, at, result.transfers[i]));
  }
  // Mid-run cap and weight churn (including while transfers are active).
  const std::size_t n_changes = rng.uniformInt(8);
  for (std::size_t i = 0; i < n_changes; ++i) {
    const StreamId s = streams[rng.uniformInt(streams.size())];
    const sim::Time at = rng.uniform(0.0, 50.0);
    if (rng.uniform() < 0.5) {
      std::optional<BytesPerSec> cap;
      if (rng.uniform() < 0.7) cap = rng.uniform(1.0, 80.0);
      sim.spawn(capChange(sim, link, s, at, cap));
    } else {
      sim.spawn(weightChange(sim, link, s, at, rng.uniform(0.5, 4.0)));
    }
  }
  // Input-free resolves at random times: most land while the channel is
  // quiescent (mid-drain or idle), i.e. strictly before the
  // next-interesting-time bound, exercising the lazy skip against the
  // full-resolve reference.
  const std::size_t n_pokes = rng.uniformInt(24);
  for (std::size_t i = 0; i < n_pokes; ++i) {
    const Channel ch = rng.uniform() < 0.5 ? Channel::Read : Channel::Write;
    sim.spawn(pokeAt(sim, link, ch, rng.uniform(0.0, 60.0)));
  }

  result.end_time = sim.run();
  result.events_processed = sim.eventsProcessed();
  for (const StreamId s : streams) {
    result.stream_bytes.push_back(link.streamBytes(s));
  }
  for (std::size_t c = 0; c < kChannels; ++c) {
    const auto ch = static_cast<Channel>(c);
    result.bytes_moved[c] = link.bytesMoved(ch);
    const SharedLink::ResolveStats stats = link.resolveStats(ch);
    result.resolves_executed[c] = stats.executed;
    result.resolves_skipped[c] = stats.lazy_skipped;
    result.full_solves += stats.full_solves;
    result.all_saturating_solves += stats.all_saturating_solves;
    const auto& series = link.totalRateSeries(ch);
    for (double t = 0.0; t <= result.end_time + 1.0; t += 0.25) {
      result.total_rate_samples[c].push_back(series.at(t));
    }
    result.total_rate_points[c] = series.points();
    result.stream0_rate_points[c] =
        link.streamRateSeries(streams[0], ch).points();
  }
  const auto& s0 = link.streamRateSeries(streams[0], Channel::Write);
  for (double t = 0.0; t <= result.end_time + 1.0; t += 0.25) {
    result.stream0_rate_samples.push_back(s0.at(t));
  }
  return result;
}

void expectEquivalent(const ScenarioResult& full,
                      const ScenarioResult& incremental) {
  // Event ordering equivalence: same virtual end time and the same number of
  // processed events (the short-circuit changes what a resolve computes, not
  // which events exist).
  EXPECT_EQ(full.end_time, incremental.end_time);
  EXPECT_EQ(full.events_processed, incremental.events_processed);
  // The lazy-skip decision is shared between the modes, so the counters must
  // agree exactly -- a divergence means one mode saw a different resolve
  // sequence or a different next-interesting-time bound.
  for (std::size_t c = 0; c < kChannels; ++c) {
    EXPECT_EQ(full.resolves_executed[c], incremental.resolves_executed[c])
        << "channel " << c;
    EXPECT_EQ(full.resolves_skipped[c], incremental.resolves_skipped[c])
        << "channel " << c;
  }

  ASSERT_EQ(full.transfers.size(), incremental.transfers.size());
  for (std::size_t i = 0; i < full.transfers.size(); ++i) {
    EXPECT_NEAR(full.transfers[i].start, incremental.transfers[i].start, 1e-9)
        << "transfer " << i;
    EXPECT_NEAR(full.transfers[i].end, incremental.transfers[i].end, 1e-9)
        << "transfer " << i;
    EXPECT_EQ(full.transfers[i].bytes, incremental.transfers[i].bytes);
  }
  EXPECT_EQ(full.stream_bytes, incremental.stream_bytes);
  for (std::size_t c = 0; c < kChannels; ++c) {
    EXPECT_EQ(full.bytes_moved[c], incremental.bytes_moved[c]);
    ASSERT_EQ(full.total_rate_samples[c].size(),
              incremental.total_rate_samples[c].size());
    for (std::size_t i = 0; i < full.total_rate_samples[c].size(); ++i) {
      EXPECT_NEAR(full.total_rate_samples[c][i],
                  incremental.total_rate_samples[c][i], 1e-9)
          << "channel " << c << " sample " << i;
    }
  }
  ASSERT_EQ(full.stream0_rate_samples.size(),
            incremental.stream0_rate_samples.size());
  for (std::size_t i = 0; i < full.stream0_rate_samples.size(); ++i) {
    EXPECT_NEAR(full.stream0_rate_samples[i],
                incremental.stream0_rate_samples[i], 1e-9)
        << "sample " << i;
  }
}

TEST(ResolveEquivalence, RandomizedScenariosExactMode) {
  std::uint64_t total_skipped = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    ScenarioParams p;
    p.seed = seed;
    p.force_full_resolve = true;
    const ScenarioResult full = runScenario(p);
    p.force_full_resolve = false;
    const ScenarioResult incremental = runScenario(p);
    SCOPED_TRACE("seed " + std::to_string(seed));
    expectEquivalent(full, incremental);
    for (std::size_t c = 0; c < kChannels; ++c) {
      total_skipped += incremental.resolves_skipped[c];
    }
  }
  // The randomized pokes must actually drive the lazy-skip path, otherwise
  // the equivalence above proves nothing about it.
  EXPECT_GT(total_skipped, 0u);
}

TEST(ResolveEquivalence, RandomizedScenariosWithNoise) {
  for (std::uint64_t seed = 100; seed < 106; ++seed) {
    ScenarioParams p;
    p.seed = seed;
    p.noise_sigma = 0.6;
    p.force_full_resolve = true;
    const ScenarioResult full = runScenario(p);
    p.force_full_resolve = false;
    const ScenarioResult incremental = runScenario(p);
    SCOPED_TRACE("seed " + std::to_string(seed));
    expectEquivalent(full, incremental);
  }
}

TEST(ResolveEquivalence, RandomizedScenariosWithCongestionAndClientCap) {
  for (std::uint64_t seed = 200; seed < 206; ++seed) {
    ScenarioParams p;
    p.seed = seed;
    p.congestion_gamma = 0.2;
    p.client_rate_cap = 30.0;
    p.force_full_resolve = true;
    const ScenarioResult full = runScenario(p);
    p.force_full_resolve = false;
    const ScenarioResult incremental = runScenario(p);
    SCOPED_TRACE("seed " + std::to_string(seed));
    expectEquivalent(full, incremental);
  }
}

TEST(ResolveEquivalence, RandomizedScenariosQuantizedMode) {
  // The recompute quantum is where no-change resolves actually occur (a
  // deferred dirty notification can land after a sweep already re-solved),
  // so this exercises the short-circuit path hardest.
  for (std::uint64_t seed = 300; seed < 306; ++seed) {
    ScenarioParams p;
    p.seed = seed;
    p.recompute_quantum = 0.5;
    p.force_full_resolve = true;
    const ScenarioResult full = runScenario(p);
    p.force_full_resolve = false;
    const ScenarioResult incremental = runScenario(p);
    SCOPED_TRACE("seed " + std::to_string(seed));
    expectEquivalent(full, incremental);
  }
}

// ---------------------------------------------------------------------------
// Exact bits of the link, pinned against a recorded value.

// The four setups of the equivalence tests above, in the incremental mode.
std::vector<ScenarioParams> pinnedSetups() {
  std::vector<ScenarioParams> setups(4);
  setups[1].noise_sigma = 0.6;
  setups[2].congestion_gamma = 0.2;
  setups[2].client_rate_cap = 30.0;
  setups[3].recompute_quantum = 0.5;
  return setups;
}

void appendBits(std::string& out, double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a\n", value);
  out += buf;
}

// Virtual time during which some stream of a channel holds two or more
// active transfers (`shared`), and during which transfers are active but no
// stream holds two (`unshared`), summed over both channels. A transfer is
// active on [start, end).
struct SharingSpans {
  double shared = 0.0;
  double unshared = 0.0;
};

void addSharingSpans(const ScenarioResult& r, SharingSpans& spans) {
  for (std::size_t c = 0; c < kChannels; ++c) {
    // (time, +1 join / -1 leave, stream); leaves sort before joins.
    std::vector<std::tuple<double, int, StreamId>> edges;
    for (std::size_t i = 0; i < r.transfers.size(); ++i) {
      if (static_cast<std::size_t>(r.channels[i]) != c) continue;
      edges.emplace_back(r.transfers[i].start, 1, r.streams[i]);
      edges.emplace_back(r.transfers[i].end, -1, r.streams[i]);
    }
    std::sort(edges.begin(), edges.end());
    std::vector<int> per_stream(r.stream_bytes.size(), 0);
    int active = 0;
    int shared_streams = 0;
    for (std::size_t e = 0; e < edges.size(); ++e) {
      const auto [t, delta, stream] = edges[e];
      const int before = per_stream[stream];
      per_stream[stream] += delta;
      active += delta;
      if (before < 2 && per_stream[stream] >= 2) ++shared_streams;
      if (before >= 2 && per_stream[stream] < 2) --shared_streams;
      if (e + 1 == edges.size() || active == 0) continue;
      const double span = std::get<0>(edges[e + 1]) - t;
      (shared_streams > 0 ? spans.shared : spans.unshared) += span;
    }
  }
}

// hashName over the hexfloat bits of every transfer's start and end, every
// stream's bytes, and every point of both channels' total-rate series and of
// stream 0's rate series: seeds 1-12 under each of the four setups.
// Recorded on the link before its flat transfer table and grouping-free
// solve, so both sides of that change give these bits. The noise setup's
// caps go through the C library's exp and log, whose last bits other libms
// may round differently; the constant is checked against glibc only.
constexpr std::uint64_t kLinkBitsDigest = 0x5b6f11d8c475c570ULL;

TEST(ResolveEquivalence, LinkBitsArePinned) {
  std::string folded;
  SharingSpans spans;
  std::uint64_t solves = 0;
  std::uint64_t saturating = 0;
  for (const ScenarioParams& setup : pinnedSetups()) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      ScenarioParams p = setup;
      p.seed = seed;
      const ScenarioResult r = runScenario(p);
      for (const TransferResult& t : r.transfers) {
        appendBits(folded, t.start);
        appendBits(folded, t.end);
      }
      for (const Bytes b : r.stream_bytes) {
        appendBits(folded, static_cast<double>(b));
      }
      for (std::size_t c = 0; c < kChannels; ++c) {
        for (const auto& [t, v] : r.total_rate_points[c]) {
          appendBits(folded, t);
          appendBits(folded, v);
        }
        for (const auto& [t, v] : r.stream0_rate_points[c]) {
          appendBits(folded, t);
          appendBits(folded, v);
        }
      }
      addSharingSpans(r, spans);
      solves += r.full_solves;
      saturating += r.all_saturating_solves;
    }
  }
  // The corpus drives both selections of the solve: spans where a stream
  // holds two transfers (the grouped solve) and spans where none does. It
  // also has level-1 solves on both sides of the all-saturating rule (256
  // of 2,249 solves are decided by it; the rest, which include the solves
  // of an emptied table, are not).
  EXPECT_GT(spans.shared, 0.0);
  EXPECT_GT(spans.unshared, 0.0);
  EXPECT_GT(saturating, 0u);
  EXPECT_LT(saturating, solves);
#if defined(__GLIBC__)
  EXPECT_EQ(hashName(folded), kLinkBitsDigest)
      << std::hex << "0x" << hashName(folded);
#endif
}

// ---------------------------------------------------------------------------
// Deterministic lazy-skip behaviour.

sim::Task<void> pokeTrain(sim::Simulation& sim, SharedLink& link, Channel ch,
                          int count, sim::Time spacing,
                          std::uint64_t& before_bound) {
  co_await sim.delay(1.0);
  for (int k = 0; k < count; ++k) {
    if (sim.now() < link.nextInterestingTime(ch)) ++before_bound;
    link.poke(ch);
    co_await sim.delay(spacing);
  }
}

sim::Task<void> oneTransfer(sim::Simulation& sim, SharedLink& link, Channel ch,
                            StreamId s, Bytes bytes, TransferResult& out) {
  out = co_await link.transfer(ch, s, bytes);
  (void)sim;
}

TEST(ResolveEquivalence, PokesStrictlyBeforeBoundAreLazySkips) {
  // One 10000-byte transfer at 100 B/s drains at t = 100; pokes every 10 s
  // from t = 1 all land strictly before the next-interesting-time bound
  // (~99.995 s) and must be skipped without perturbing the completion.
  TransferResult results[2];
  std::uint64_t skipped[2] = {0, 0};
  std::uint64_t executed[2] = {0, 0};
  for (int mode = 0; mode < 2; ++mode) {
    LinkConfig cfg;
    cfg.read_capacity = 100.0;
    cfg.write_capacity = 100.0;
    cfg.force_full_resolve = mode == 0;
    sim::Simulation sim;
    SharedLink link(sim, cfg);
    const StreamId s = link.createStream("s0");
    std::uint64_t before_bound = 0;
    sim.spawn(oneTransfer(sim, link, Channel::Write, s, 10000, results[mode]));
    sim.spawn(pokeTrain(sim, link, Channel::Write, 9, 10.0, before_bound));
    sim.run();
    EXPECT_EQ(before_bound, 9u) << "mode " << mode;
    const SharedLink::ResolveStats stats = link.resolveStats(Channel::Write);
    skipped[mode] = stats.lazy_skipped;
    executed[mode] = stats.executed;
    EXPECT_GE(stats.lazy_skipped, 9u) << "mode " << mode;
    EXPECT_LE(stats.full_solves, stats.executed) << "mode " << mode;
    EXPECT_NEAR(results[mode].end, 100.0, 1e-9) << "mode " << mode;
  }
  EXPECT_EQ(results[0].end, results[1].end);
  EXPECT_EQ(skipped[0], skipped[1]);
  EXPECT_EQ(executed[0], executed[1]);
}

TEST(ResolveEquivalence, PokeOnIdleChannelThenSkips) {
  // First poke on a never-used channel executes (there is no bound yet);
  // after it the bound is +inf (nothing active) and further pokes skip.
  sim::Simulation sim;
  LinkConfig cfg;
  SharedLink link(sim, cfg);
  link.poke(Channel::Read);
  sim.run();
  SharedLink::ResolveStats stats = link.resolveStats(Channel::Read);
  EXPECT_EQ(stats.executed, 1u);
  EXPECT_EQ(stats.lazy_skipped, 0u);
  EXPECT_EQ(link.nextInterestingTime(Channel::Read),
            std::numeric_limits<double>::infinity());
  link.poke(Channel::Read);
  sim.run();
  stats = link.resolveStats(Channel::Read);
  EXPECT_EQ(stats.executed, 1u);
  EXPECT_EQ(stats.lazy_skipped, 1u);
}

TEST(ResolveEquivalence, SweepAtDrainTimeIsNeverSkipped) {
  // The completion sweep targets remaining / rate while the bound targets
  // (remaining - epsilon) / rate, so the sweep lands at-or-after the bound
  // and must always execute -- a lazily skipped sweep would strand the
  // transfer forever.
  sim::Simulation sim;
  LinkConfig cfg;
  cfg.write_capacity = 64.0;
  SharedLink link(sim, cfg);
  const StreamId s = link.createStream("s0");
  TransferResult result;
  sim.spawn(oneTransfer(sim, link, Channel::Write, s, 4096, result));
  const sim::Time end = sim.run();
  EXPECT_NEAR(result.end, 64.0, 1e-9);
  EXPECT_EQ(end, result.end);
  EXPECT_EQ(link.activeTransfers(Channel::Write), 0u);
}

}  // namespace
}  // namespace iobts::pfs
