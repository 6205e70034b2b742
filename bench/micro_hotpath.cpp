// Hot-path micro-benchmarks: the event-kernel callback path and the
// SharedLink fair-share re-solve under contention.
//
// Every figure harness drives these two paths millions of times (9216-rank
// runs re-solve the allocation on each join/completion/cap change), so this
// suite tracks them explicitly. Results are recorded into BENCH_hotpath.json
// via tools/run_hotpath_bench.sh; see DESIGN.md "Hot-path architecture".
//
// The benchmarks deliberately use only the stable public API so the same
// source measures any revision of the kernel/PFS internals.
//
// The binary also *asserts* the zero-allocation steady-state claim: global
// operator new/delete are replaced with counting versions, and main() runs
// steady-state probes of the event-kernel and resolve paths (including the
// lazy poke skip) that fail hard if a single allocation lands inside the
// probe window, plus scenario-interpreter and MPI-IO request probes whose
// whole-run allocation counts must not grow with the number of statements
// or requests executed. Throughput can mask an added allocation; the
// counter cannot.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "mpisim/world.hpp"
#include "obs/binlog.hpp"
#include "obs/trace.hpp"
#include "pfs/fair_share.hpp"
#include "pfs/file_store.hpp"
#include "pfs/shared_link.hpp"
#include "scenario/instance.hpp"
#include "scenario/scenario.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

// --- Counting allocator ----------------------------------------------------

// The helpers are kept out of line so the compiler never sees an inlined
// malloc in operator new meet an inlined free in operator delete (GCC's
// -Wmismatched-new-delete would flag every such pair).
namespace {
std::atomic<std::uint64_t> g_allocations{0};

[[gnu::noinline]] void* countedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size != 0 ? size : 1);
}

[[gnu::noinline]] void countedFree(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t size) {
  void* p = countedAlloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return countedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return countedAlloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  const std::size_t alignment =
      std::max(sizeof(void*), static_cast<std::size_t>(align));
  if (posix_memalign(&p, alignment, size != 0 ? size : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { countedFree(p); }
void operator delete[](void* p) noexcept { countedFree(p); }
void operator delete(void* p, std::size_t) noexcept { countedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { countedFree(p); }
void operator delete(void* p, std::align_val_t) noexcept { countedFree(p); }
void operator delete[](void* p, std::align_val_t) noexcept { countedFree(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  countedFree(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  countedFree(p);
}

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

// Flow-emitting churn under journey sampling: each dispatch opens and
// closes a journey flow the way the ADIO engine does, gated through
// obs::sampledJourney(). Arg(1) = record every journey (the former
// fixed cost); larger strides drop (stride-1)/stride of the flow traffic
// at the price of one modulo per dispatch -- the knob
// IOBTS_TRACE_JOURNEY_SAMPLE exposes to fleet runs.
void flowChurn(int total) {
  sim::Simulation sim;
  std::uint64_t fired = 0;
  struct FlowReposter {
    sim::Simulation* sim;
    std::uint64_t* fired;
    int remaining;
    std::uint64_t id;
    void operator()() {
      ++*fired;
      if (obs::TraceSink* const sink = obs::traceSink()) {
        const std::uint64_t journey = obs::sampledJourney(id);
        if (journey != 0) {
          sink->flowStart("journey", "io", obs::track::kAdio, 0,
                          sim->now(), journey);
          sink->flowEnd("journey", "io", obs::track::kAdio, 0, sim->now(),
                        journey);
        }
      }
      if (remaining > 0) {
        FlowReposter next = *this;
        --next.remaining;
        next.id += 64;  // one slot per window lane, like rank-striped ids
        sim->post(1.0, next);
      }
    }
  };
  constexpr int kWindow = 64;
  for (int w = 0; w < kWindow; ++w) {
    sim.post(1.0, FlowReposter{&sim, &fired, total / kWindow,
                               static_cast<std::uint64_t>(w + 1)});
  }
  sim.run();
  benchmark::DoNotOptimize(fired);
}

void BM_DispatchTracingSampled(benchmark::State& state) {
  const int n = 100000;
  const auto stride = static_cast<std::uint64_t>(state.range(0));
  obs::TraceSink sink;
  obs::ScopedTraceSink install(sink);
  obs::setJourneySampleStride(stride);
  for (auto _ : state) flowChurn(n);
  obs::setJourneySampleStride(0);
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DispatchTracingSampled)->Arg(1)->Arg(8)->Arg(64);

// --- SharedLink resolve ----------------------------------------------------

sim::Task<void> oneTransfer(pfs::SharedLink& link, pfs::StreamId stream,
                            Bytes bytes) {
  co_await link.transfer(pfs::Channel::Write, stream, bytes);
}

// Staggered completions: n streams with distinct transfer sizes, so every
// completion lands at a distinct instant and triggers its own re-solve over
// the remaining actives -- O(n) resolves of O(n) streams each. This is the
// "contended-resolve throughput" number tracked in BENCH_hotpath.json.
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
      const auto s = link.createStream("s" + std::to_string(i));
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
      const auto s = link.createStream("s" + std::to_string(i));
      sim.spawn(oneTransfer(link, s, 16 * kMiB));
    }
    sim.run();
    benchmark::DoNotOptimize(link.bytesMoved(pfs::Channel::Write));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SameInstantDrain)->Arg(1024)->Arg(10000);

// Cap churn on long-lived transfers: re-solves triggered by setStreamCap
// while membership stays constant (the cluster coordinator's usage pattern).
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
      const auto s = link.createStream("s" + std::to_string(i));
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
      const auto s = link.createStream("s" + std::to_string(i));
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

// --- Zero-allocation steady-state assertions -------------------------------

std::uint64_t allocationsNow() {
  return g_allocations.load(std::memory_order_relaxed);
}

bool expectZeroDelta(const char* what, std::uint64_t before) {
  const std::uint64_t delta = allocationsNow() - before;
  if (delta != 0) {
    std::fprintf(stderr,
                 "ALLOCATION CHECK FAILED: %s performed %llu allocations in "
                 "its steady-state window (expected 0)\n",
                 what, static_cast<unsigned long long>(delta));
    return false;
  }
  std::printf("allocation check: %-24s 0 allocations in steady state\n", what);
  return true;
}

// Event kernel: a rolling window of re-posting callbacks past the SBO size,
// so event slots and callback storage are continually recycled.
bool checkKernelSteadyState(const char* what = "event-kernel churn") {
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
  constexpr int kTotal = 20000;
  for (int w = 0; w < kWindow; ++w) {
    sim.post(1.0, Reposter{&sim, &fired, kTotal / kWindow});
  }
  sim.runUntil(10.0);  // warm the pools
  const std::uint64_t before = allocationsNow();
  sim.runUntil(200.0);
  const bool ok = expectZeroDelta(what, before);
  sim.run();
  return ok;
}

// The same kernel probe with a TraceSink installed: recording is POD stores
// into the preallocated ring, so the steady state must stay allocation-free
// with tracing *on*, not just off.
bool checkKernelSteadyStateTraced() {
  obs::TraceSink sink;  // ring allocated here, before the probe window
  obs::ScopedTraceSink install(sink);
  bool ok = checkKernelSteadyState("event-kernel churn traced");
  if (sink.recorded() == 0) {
    std::fprintf(stderr,
                 "ALLOCATION CHECK FAILED: traced kernel probe recorded no "
                 "events (instrumentation missing?)\n");
    ok = false;
  }
  return ok;
}

// Resolve path: long-lived contended transfers under deterministic cap churn
// (saturating and non-saturating caps, so both fair-share pre-pass branches
// run) interleaved with quiescent pokes (the lazy-skip path). The steady
// state is phase-to-phase: one full phase (transfers + churn + drain) warms
// every pool to its peak -- each input change orphans the previous far-future
// completion sweep, so the pending-event population legitimately grows within
// a phase, bounded by the churn count -- and an identical second phase must
// then allocate nothing at all.
bool checkResolveSteadyState() {
  sim::Simulation sim;
  pfs::LinkConfig cfg;
  cfg.write_capacity = 100e9;
  cfg.read_capacity = 100e9;
  cfg.record_total = false;
  pfs::SharedLink link(sim, cfg);
  constexpr int kStreams = 128;
  std::vector<pfs::StreamId> streams;
  streams.reserve(kStreams);
  for (int i = 0; i < kStreams; ++i) {
    streams.push_back(link.createStream("s" + std::to_string(i)));
  }
  auto spawnTransfers = [&] {
    for (const auto s : streams) {
      // Large enough that nothing drains while the churn runs.
      sim.spawn(oneTransfer(link, s, 1000000 * kGiB));
    }
  };
  auto churn = [&]() -> sim::Task<void> {
    // 0.5e9 sits below the uniform fill level 100e9 / 128, so saturating
    // instances (the stable_sort fallback) occur throughout.
    constexpr double kCaps[4] = {0.5e9, 0.9e9, 1.3e9, 1.7e9};
    for (int c = 0; c < 2000; ++c) {
      co_await sim.delay(1e-3);
      if (c % 2 == 0) {
        link.setStreamCap(streams[c % kStreams], kCaps[(c / 2) % 4]);
      } else {
        link.poke(pfs::Channel::Write);
      }
    }
  };

  // Phase 1 (warm-up): full churn, then drain to completion.
  spawnTransfers();
  sim.spawn(churn());
  sim.run();

  // Phase 2 (probe): identical workload; snapshot after the joins so the
  // per-transfer setup (frames, Transfer objects) stays outside the window.
  const sim::Time t0 = sim.now();
  const std::uint64_t skipped_before =
      link.resolveStats(pfs::Channel::Write).lazy_skipped;
  spawnTransfers();
  sim.spawn(churn());
  sim.runUntil(t0 + 0.1);
  const std::uint64_t before = allocationsNow();
  sim.runUntil(t0 + 1.9);
  bool ok = expectZeroDelta("resolve+poke churn", before);
  if (link.resolveStats(pfs::Channel::Write).lazy_skipped == skipped_before) {
    std::fprintf(stderr,
                 "ALLOCATION CHECK FAILED: no lazy-skipped resolve inside "
                 "the probe window (poke pattern broken?)\n");
    ok = false;
  }
  sim.run();
  return ok;
}

// Scenario interpreter: allocations of one whole one-rank run, parse through
// sim.run(). The loop body binds, branches and binds again without creating
// events, so only per-statement interpreter allocations can grow with N.
std::uint64_t scenarioRunAllocations(int iterations) {
  const std::string text =
      "scenario \"alloc\"\nworld main { ranks = 1 }\nprogram main {\n"
      "  loop i : " + std::to_string(iterations) +
      " { let x = i * 3  if x % 2 == 0 { let y = x } }\n}\n";
  const std::uint64_t before = allocationsNow();
  {
    sim::Simulation sim;
    scenario::Instance instance(sim, scenario::parseScenario(text));
    instance.launch();
    sim.run();
  }
  return allocationsNow() - before;
}

bool checkScenarioInterpreter() {
  scenarioRunAllocations(1);  // warm-up: the parser's static keyword tables
  const std::uint64_t small = scenarioRunAllocations(1'000);
  const std::uint64_t large = scenarioRunAllocations(100'000);
  if (small != large) {
    std::fprintf(stderr,
                 "ALLOCATION CHECK FAILED: scenario interpreter performed "
                 "%llu allocations at N=1000 but %llu at N=100000 (expected "
                 "equal)\n",
                 static_cast<unsigned long long>(small),
                 static_cast<unsigned long long>(large));
    return false;
  }
  std::printf("allocation check: %-24s %llu allocations at N=1000 and "
              "N=100000\n",
              "scenario interpreter", static_cast<unsigned long long>(small));
  return true;
}

// MPI-IO request path: allocations of one whole one-rank run, construction
// through teardown, with no hooks. Each iteration submits a 9 MiB
// iwrite_at and waits for it; odd iterations compute first, so waits on
// already-completed and on in-flight requests both occur. A `paced` run
// caps the rank at 1 GB/s, which splits every request into three
// sub-requests. Only per-request allocations can grow with N.
std::uint64_t mpiIoRunAllocations(int iterations, bool paced) {
  const std::uint64_t before = allocationsNow();
  {
    sim::Simulation sim;
    pfs::LinkConfig link_config;
    link_config.record_total = false;
    pfs::SharedLink link(sim, link_config);
    pfs::FileStore store;
    mpisim::World world(sim, link, store, mpisim::WorldConfig{});
    if (paced) world.setRankLimit(0, 1e9);
    world.launch([iterations](mpisim::RankCtx& ctx) -> sim::Task<void> {
      mpisim::File file = ctx.open("/pfs/probe");
      for (int i = 0; i < iterations; ++i) {
        const auto tag = static_cast<pfs::ContentTag>(i);
        mpisim::Request request = co_await file.iwriteAt(0, 9 * kMiB, tag);
        if (i % 2 == 1) co_await ctx.compute(0.01);
        co_await ctx.wait(request);
      }
    });
    sim.run();
  }
  return allocationsNow() - before;
}

bool checkMpiIoSteadyState(bool paced) {
  const char* what = paced ? "mpi-io request paced" : "mpi-io request";
  mpiIoRunAllocations(1, paced);  // warm-up: first-use statics
  const std::uint64_t small = mpiIoRunAllocations(1'000, paced);
  const std::uint64_t large = mpiIoRunAllocations(101'000, paced);
  if (small != large) {
    std::fprintf(stderr,
                 "ALLOCATION CHECK FAILED: %s performed %llu allocations at "
                 "N=1000 but %llu at N=101000 (expected equal)\n",
                 what, static_cast<unsigned long long>(small),
                 static_cast<unsigned long long>(large));
    return false;
  }
  std::printf("allocation check: %-24s %llu allocations at N=1000 and "
              "N=101000\n",
              what, static_cast<unsigned long long>(small));
  return true;
}

bool runAllocationChecks() {
  const bool kernel_ok = checkKernelSteadyState();
  const bool traced_ok = checkKernelSteadyStateTraced();
  const bool resolve_ok = checkResolveSteadyState();
  const bool scenario_ok = checkScenarioInterpreter();
  const bool mpiio_ok = checkMpiIoSteadyState(/*paced=*/false);
  const bool mpiio_paced_ok = checkMpiIoSteadyState(/*paced=*/true);
  return kernel_ok && traced_ok && resolve_ok && scenario_ok && mpiio_ok &&
         mpiio_paced_ok;
}

}  // namespace
}  // namespace iobts

int main(int argc, char** argv) {
  // The assertions run before the benchmarks so an allocation regression
  // fails the bench run outright instead of hiding in a throughput shift.
  if (!iobts::runAllocationChecks()) return 1;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
