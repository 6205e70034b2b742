// Hot-path micro-benchmarks: the event-kernel callback path, the
// observability plane's recording cost, and the SharedLink fair-share
// re-solve under contention.
//
// A plain google-benchmark binary, run by hand to look at one path in
// isolation. tools/run_obs_bench.sh records the BM_DispatchTracing* and
// BM_BinaryWriterDrain medians into BENCH_obs_overhead.json; end-to-end and
// per-layer performance is recorded by perfbench (see perfbench/README.md).
// The zero-allocation steady-state claims these paths make are asserted by
// tests/alloc/alloc_test.cpp, not here.
//
// The benchmarks deliberately use only the stable public API so the same
// source measures any revision of the kernel/PFS internals.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/binlog.hpp"
#include "obs/trace.hpp"
#include "pfs/fair_share.hpp"
#include "pfs/shared_link.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace iobts {
namespace {

// --- Event kernel ----------------------------------------------------------

// Posted callbacks with a capture larger than std::function's inline buffer
// (16 bytes on libstdc++): the allocation cost of the callback path.
void BM_PostCallbackChurn(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    std::uint64_t acc = 0;
    for (int i = 0; i < n; ++i) {
      const double a = static_cast<double>(i);
      const double b = a * 2.0;
      const std::uint64_t c = static_cast<std::uint64_t>(i);
      sim.post(static_cast<sim::Time>(i % 64),
               [&acc, a, b, c] { acc += c + static_cast<std::uint64_t>(a + b); });
    }
    sim.run();
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PostCallbackChurn)->Arg(10000)->Arg(100000);

// Sustained queue churn: a rolling window of pending callbacks, so event
// storage is continually acquired and released (pool-reuse steady state).
void BM_RollingCallbackWindow(benchmark::State& state) {
  const int window = static_cast<int>(state.range(0));
  constexpr int kTotal = 100000;
  for (auto _ : state) {
    sim::Simulation sim;
    std::uint64_t fired = 0;
    // Each callback re-posts itself until kTotal events have fired, keeping
    // `window` events pending at all times.
    struct Reposter {
      sim::Simulation* sim;
      std::uint64_t* fired;
      int remaining;
      double pad[3] = {0, 0, 0};  // push capture past any 16-byte SSO
      void operator()() {
        ++*fired;
        if (remaining > 0) {
          Reposter next = *this;
          --next.remaining;
          sim->post(1.0, next);
        }
      }
    };
    for (int w = 0; w < window; ++w) {
      sim.post(1.0, Reposter{&sim, &fired, kTotal / window});
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * kTotal);
}
BENCHMARK(BM_RollingCallbackWindow)->Arg(64)->Arg(4096);

// --- Observability overhead ------------------------------------------------

// The identical rolling-window dispatch churn, run with tracing off (the
// default single null-check) and with a TraceSink installed (every dispatch
// records a span and a heap-depth counter into the ring). The items/s ratio
// of the two is the per-event cost of the observability plane, tracked in
// BENCH_obs_overhead.json via tools/run_obs_bench.sh.
void dispatchChurn(int total) {
  sim::Simulation sim;
  std::uint64_t fired = 0;
  struct Reposter {
    sim::Simulation* sim;
    std::uint64_t* fired;
    int remaining;
    double pad[3] = {0, 0, 0};  // push capture past any 16-byte SSO
    void operator()() {
      ++*fired;
      if (remaining > 0) {
        Reposter next = *this;
        --next.remaining;
        sim->post(1.0, next);
      }
    }
  };
  constexpr int kWindow = 64;
  for (int w = 0; w < kWindow; ++w) {
    sim.post(1.0, Reposter{&sim, &fired, total / kWindow});
  }
  sim.run();
  benchmark::DoNotOptimize(fired);
}

void BM_DispatchTracingOff(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) dispatchChurn(n);
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DispatchTracingOff)->Arg(100000);

void BM_DispatchTracingOn(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  obs::TraceSink sink;  // ring allocated once, outside the timed region
  obs::ScopedTraceSink install(sink);
  for (auto _ : state) dispatchChurn(n);
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DispatchTracingOn)->Arg(100000);

// Same churn with the binary flight recorder attached: the ring drains at
// half occupancy, inside the timed region, into delta-encoded chunks
// (interned strings, varint records) whose bytes are counted and
// discarded. The gap to BM_DispatchTracingOn is the cost of recording.
void BM_DispatchTracingBinary(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  obs::TraceSink sink;
  obs::BinaryTraceWriter writer(sink, static_cast<std::string*>(nullptr));
  obs::ScopedTraceSink install(sink);
  for (auto _ : state) dispatchChurn(n);
  writer.close();
  benchmark::DoNotOptimize(writer.events());
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DispatchTracingBinary)->Arg(100000);

// Pure serialization throughput of the binary writer, no simulation in the
// loop: fill a detached ring with representative events, then time one
// drain-and-encode pass per iteration. This is the ceiling
// BM_DispatchTracingBinary is bounded by; the on-disk bytes_per_event it
// achieves for this event stream is recorded into BENCH_obs_overhead.json.
void BM_BinaryWriterDrain(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  obs::TraceSinkConfig cfg;
  cfg.capacity = static_cast<std::size_t>(n);
  obs::TraceSink sink(cfg);
  std::uint64_t encoded = 0;
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    for (int i = 0; i < n; ++i) {
      sink.complete("sim", "dispatch", obs::track::kKernel, 0,
                    static_cast<double>(i), 0.5, static_cast<double>(i));
    }
    obs::BinaryTraceWriter writer(sink, static_cast<std::string*>(nullptr));
    state.ResumeTiming();
    writer.drain();
    writer.close();
    encoded += writer.events();
    bytes += writer.bytesWritten();
  }
  state.SetItemsProcessed(state.iterations() * n);
  const double bytes_per_event =
      encoded > 0
          ? static_cast<double>(bytes) / static_cast<double>(encoded)
          : 0.0;
  state.counters["bytes_per_event"] = benchmark::Counter(bytes_per_event);
}
BENCHMARK(BM_BinaryWriterDrain)->Arg(100000);

// --- SharedLink resolve ----------------------------------------------------

sim::Task<void> oneTransfer(pfs::SharedLink& link, pfs::StreamId stream,
                            Bytes bytes) {
  co_await link.transfer(pfs::Channel::Write, stream, bytes);
}

// Staggered completions: n streams with distinct transfer sizes, so every
// completion lands at a distinct instant and triggers its own re-solve over
// the remaining actives -- O(n) resolves of O(n) streams each.
void BM_ContendedResolveStaggered(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    pfs::LinkConfig cfg;
    cfg.write_capacity = 100e9;
    cfg.read_capacity = 100e9;
    cfg.record_total = false;
    pfs::SharedLink link(sim, cfg);
    for (int i = 0; i < n; ++i) {
      const auto s = link.createStream(
          std::string("s").append(std::to_string(i)));
      sim.spawn(oneTransfer(link, s, static_cast<Bytes>(i + 1) * 4 * kMiB));
    }
    sim.run();
    benchmark::DoNotOptimize(link.bytesMoved(pfs::Channel::Write));
  }
  // Items = resolves performed (one per join batch + one per completion).
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ContendedResolveStaggered)->Arg(96)->Arg(512)->Arg(1536);

// Same-instant batch drain: n equal transfers all complete in one sweep.
// Guards the completion path's complexity (the seed erased from the middle
// of the active vector, turning batch drains quadratic).
void BM_SameInstantDrain(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    pfs::LinkConfig cfg;
    cfg.write_capacity = 100e9;
    cfg.read_capacity = 100e9;
    cfg.record_total = false;
    pfs::SharedLink link(sim, cfg);
    for (int i = 0; i < n; ++i) {
      const auto s = link.createStream(
          std::string("s").append(std::to_string(i)));
      sim.spawn(oneTransfer(link, s, 16 * kMiB));
    }
    sim.run();
    benchmark::DoNotOptimize(link.bytesMoved(pfs::Channel::Write));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SameInstantDrain)->Arg(1024)->Arg(10000);

// Cap churn on long-lived transfers: re-solves triggered by setStreamCap
// while membership stays constant (the cluster contention monitor's usage
// pattern).
void BM_CapChurnResolve(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  constexpr int kChanges = 512;
  for (auto _ : state) {
    sim::Simulation sim;
    pfs::LinkConfig cfg;
    cfg.write_capacity = 100e9;
    cfg.read_capacity = 100e9;
    cfg.record_total = false;
    pfs::SharedLink link(sim, cfg);
    std::vector<pfs::StreamId> streams;
    streams.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      const auto s = link.createStream(
          std::string("s").append(std::to_string(i)));
      streams.push_back(s);
      sim.spawn(oneTransfer(link, s, static_cast<Bytes>(1) * kGiB));
    }
    auto churn = [&]() -> sim::Task<void> {
      Rng rng(11, "cap-churn");
      for (int c = 0; c < kChanges; ++c) {
        co_await sim.delay(1e-3);
        const auto s = streams[rng.uniformInt(streams.size())];
        link.setStreamCap(s, rng.uniform(0.5e9, 2.0e9));
      }
    };
    sim.spawn(churn());
    sim.run();
    benchmark::DoNotOptimize(link.bytesMoved(pfs::Channel::Write));
  }
  state.SetItemsProcessed(state.iterations() * kChanges);
}
BENCHMARK(BM_CapChurnResolve)->Arg(96)->Arg(1536);

// Lazy-skip resolve throughput: resolves requested strictly before the
// channel's next-interesting-time bound (poke() while a large drain is in
// flight) must cost O(1) regardless of the active-transfer count.
void BM_QuiescentPokeResolve(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  constexpr int kPokes = 4096;
  for (auto _ : state) {
    sim::Simulation sim;
    pfs::LinkConfig cfg;
    cfg.write_capacity = 100e9;
    cfg.read_capacity = 100e9;
    cfg.record_total = false;
    pfs::SharedLink link(sim, cfg);
    for (int i = 0; i < n; ++i) {
      const auto s = link.createStream(
          std::string("s").append(std::to_string(i)));
      sim.spawn(oneTransfer(link, s, 1 * kGiB));
    }
    // All-equal transfers drain together; every poke lands mid-drain.
    const double t_end = static_cast<double>(n) * (1.0 * kGiB) / 100e9;
    auto poker = [&]() -> sim::Task<void> {
      const double dt = t_end / (kPokes + 2);
      for (int k = 0; k < kPokes; ++k) {
        co_await sim.delay(dt);
        link.poke(pfs::Channel::Write);
      }
    };
    sim.spawn(poker());
    sim.run();
    benchmark::DoNotOptimize(link.bytesMoved(pfs::Channel::Write));
  }
  state.SetItemsProcessed(state.iterations() * kPokes);
}
BENCHMARK(BM_QuiescentPokeResolve)->Arg(1536)->Arg(9216);

// --- fairShare solver ------------------------------------------------------

// Raw solver throughput at figure scale (9216 items mirrors the largest
// rank count in the paper's evaluation).
void BM_FairShareLarge(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(7, "bench-hotpath-fairshare");
  std::vector<pfs::FairShareItem> items(n);
  for (auto& item : items) {
    item.weight = rng.uniform(0.5, 4.0);
    if (rng.uniform() < 0.5) item.cap = rng.uniform(1.0, 100.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(pfs::fairShare(items, 1000.0));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FairShareLarge)->Arg(9216);

}  // namespace
}  // namespace iobts

BENCHMARK_MAIN();
