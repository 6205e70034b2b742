#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace iobts::sim {
namespace {

TEST(Simulation, ClockStartsAtZero) {
  Simulation sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
}

TEST(Simulation, DelayAdvancesVirtualTime) {
  Simulation sim;
  Time seen = kNoTime;
  auto proc = [&]() -> Task<void> {
    co_await sim.delay(2.5);
    seen = sim.now();
  };
  sim.spawn(proc());
  sim.run();
  EXPECT_DOUBLE_EQ(seen, 2.5);
  EXPECT_DOUBLE_EQ(sim.now(), 2.5);
}

TEST(Simulation, EventsRunInTimestampOrder) {
  Simulation sim;
  std::vector<int> order;
  auto proc = [&](int id, Time dt) -> Task<void> {
    co_await sim.delay(dt);
    order.push_back(id);
  };
  sim.spawn(proc(3, 3.0));
  sim.spawn(proc(1, 1.0));
  sim.spawn(proc(2, 2.0));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulation, EqualTimestampsFifo) {
  Simulation sim;
  std::vector<int> order;
  auto proc = [&](int id) -> Task<void> {
    co_await sim.delay(1.0);
    order.push_back(id);
  };
  for (int i = 0; i < 8; ++i) sim.spawn(proc(i));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(Simulation, ZeroDelayYields) {
  Simulation sim;
  std::vector<int> order;
  auto a = [&]() -> Task<void> {
    order.push_back(1);
    co_await sim.delay(0.0);
    order.push_back(3);
  };
  auto b = [&]() -> Task<void> {
    order.push_back(2);
    co_return;
  };
  sim.spawn(a());
  sim.spawn(b());
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulation, NegativeDelayThrows) {
  Simulation sim;
  auto proc = [&]() -> Task<void> { co_await sim.delay(-1.0); };
  sim.spawn(proc());
  EXPECT_THROW(sim.run(), CheckError);
}

TEST(Simulation, EventTimeThatOverflowsToInfinityThrows) {
  // Each delay is finite but now + dt rounds to +inf: the kernel refuses
  // the event time, for resumes and callbacks alike, instead of parking the
  // clock at infinity.
  const auto expectOverflow = [](Simulation& sim) {
    try {
      sim.run();
      ADD_FAILURE() << "run() finished at t=" << sim.now();
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("virtual clock overflow"),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(sim.now(), 1e308);
  };
  Simulation resumes;
  auto proc = [&]() -> Task<void> {
    co_await resumes.delay(1e308);
    co_await resumes.delay(1e308);
  };
  resumes.spawn(proc());
  expectOverflow(resumes);

  Simulation callbacks;
  callbacks.post(1e308, [&callbacks] { callbacks.post(1e308, [] {}); });
  expectOverflow(callbacks);
}

TEST(Simulation, RunUntilStopsAtLimit) {
  Simulation sim;
  int fired = 0;
  auto proc = [&](Time dt) -> Task<void> {
    co_await sim.delay(dt);
    ++fired;
  };
  sim.spawn(proc(1.0));
  sim.spawn(proc(5.0));
  sim.runUntil(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Simulation, SpawnedProcessErrorRethrownFromRun) {
  Simulation sim;
  auto proc = []() -> Task<void> {
    throw std::runtime_error("boom");
    co_return;
  };
  sim.spawn(proc());
  EXPECT_THROW(sim.run(), std::runtime_error);
}

TEST(Simulation, NonFatalErrorObservedViaJoin) {
  Simulation sim;
  auto failing = []() -> Task<void> {
    throw std::runtime_error("expected");
    co_return;
  };
  auto handle = sim.spawn(failing(), {.fatal_errors = false});
  bool caught = false;
  auto watcher = [&]() -> Task<void> {
    try {
      co_await handle.join();
    } catch (const std::runtime_error&) {
      caught = true;
    }
  };
  sim.spawn(watcher());
  sim.run();
  EXPECT_TRUE(caught);
  EXPECT_TRUE(handle.finished());
  EXPECT_TRUE(handle.failed());
}

TEST(Simulation, JoinWaitsForCompletion) {
  Simulation sim;
  Time join_time = kNoTime;
  auto worker = [&]() -> Task<void> { co_await sim.delay(4.0); };
  auto handle = sim.spawn(worker(), {.name = "worker"});
  auto waiter = [&]() -> Task<void> {
    co_await handle.join();
    join_time = sim.now();
  };
  sim.spawn(waiter());
  sim.run();
  EXPECT_DOUBLE_EQ(join_time, 4.0);
  EXPECT_EQ(handle.name(), "worker");
}

TEST(Simulation, JoinAfterCompletionReturnsImmediately) {
  Simulation sim;
  auto worker = [&]() -> Task<void> { co_return; };
  auto handle = sim.spawn(worker());
  sim.run();
  EXPECT_TRUE(handle.finished());
  bool joined = false;
  auto waiter = [&]() -> Task<void> {
    co_await handle.join();
    joined = true;
  };
  sim.spawn(waiter());
  sim.run();
  EXPECT_TRUE(joined);
}

TEST(Simulation, LiveProcessesReaped) {
  Simulation sim;
  auto proc = [&]() -> Task<void> { co_await sim.delay(1.0); };
  sim.spawn(proc());
  sim.spawn(proc());
  EXPECT_EQ(sim.liveProcesses(), 2u);
  sim.run();
  EXPECT_EQ(sim.liveProcesses(), 0u);
}

TEST(Simulation, EventsProcessedCounter) {
  Simulation sim;
  auto proc = [&]() -> Task<void> {
    co_await sim.delay(1.0);
    co_await sim.delay(1.0);
  };
  sim.spawn(proc());
  sim.run();
  // spawn resume + two delay resumes
  EXPECT_EQ(sim.eventsProcessed(), 3u);
}

TEST(Simulation, DestructionWithPendingProcessesIsClean) {
  // Destroying the simulation with suspended coroutines must not leak or
  // crash (ASAN-friendly).
  auto sim = std::make_unique<Simulation>();
  auto proc = [&]() -> Task<void> {
    co_await sim->delay(1000.0);
    ADD_FAILURE() << "must not resume";
  };
  sim->spawn(proc());
  sim->runUntil(1.0);
  sim.reset();  // no crash
  SUCCEED();
}

TEST(Simulation, SequenceRunsTasksInOrder) {
  Simulation sim;
  std::vector<int> order;
  auto step = [&](int id, Time dt) -> Task<void> {
    co_await sim.delay(dt);
    order.push_back(id);
  };
  std::vector<Task<void>> tasks;
  tasks.push_back(step(1, 3.0));
  tasks.push_back(step(2, 1.0));
  auto root = [&]() -> Task<void> { co_await sequence(std::move(tasks)); };
  sim.spawn(root());
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_DOUBLE_EQ(sim.now(), 4.0);  // sequential: 3 + 1
}

TEST(Simulation, AllOfRunsConcurrently) {
  Simulation sim;
  int done = 0;
  auto step = [&](Time dt) -> Task<void> {
    co_await sim.delay(dt);
    ++done;
  };
  std::vector<Task<void>> tasks;
  tasks.push_back(step(3.0));
  tasks.push_back(step(1.0));
  auto root = [&]() -> Task<void> { co_await allOf(sim, std::move(tasks)); };
  sim.spawn(root());
  sim.run();
  EXPECT_EQ(done, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);  // concurrent: max(3, 1)
}

TEST(Simulation, AllOfPropagatesFirstFailureAfterAllFinish) {
  Simulation sim;
  int completed = 0;
  auto good = [&]() -> Task<void> {
    co_await sim.delay(5.0);
    ++completed;
  };
  auto bad = [&]() -> Task<void> {
    co_await sim.delay(1.0);
    throw std::runtime_error("bad");
  };
  std::vector<Task<void>> tasks;
  tasks.push_back(good());
  tasks.push_back(bad());
  bool caught = false;
  auto root = [&]() -> Task<void> {
    try {
      co_await allOf(sim, std::move(tasks));
    } catch (const std::runtime_error&) {
      caught = true;
    }
  };
  sim.spawn(root());
  sim.run();
  EXPECT_TRUE(caught);
  EXPECT_EQ(completed, 1);  // the good task still ran to completion
}

TEST(Simulation, ManyProcessesScale) {
  Simulation sim;
  int done = 0;
  auto proc = [&](int i) -> Task<void> {
    co_await sim.delay(0.001 * i);
    ++done;
  };
  constexpr int kN = 10000;
  for (int i = 0; i < kN; ++i) sim.spawn(proc(i));
  sim.run();
  EXPECT_EQ(done, kN);
}

TEST(Simulation, LargeCaptureCallbackUsesHeapPathCorrectly) {
  // Captures beyond SmallCallback::kInlineCapacity (48 bytes) go through the
  // heap fallback; values must survive the round trip and destructors must
  // run exactly once (checked implicitly by ASan in the Sanitize build).
  Simulation sim;
  struct Big {
    double values[16];  // 128 bytes -- well past the inline buffer
  };
  Big big{};
  for (int i = 0; i < 16; ++i) big.values[i] = i * 1.5;
  double sum = 0.0;
  sim.post(1.0, [big, &sum] {
    for (const double v : big.values) sum += v;
  });
  sim.run();
  EXPECT_DOUBLE_EQ(sum, 1.5 * (15 * 16 / 2));
}

TEST(Simulation, MoveOnlyCaptureCallback) {
  Simulation sim;
  auto payload = std::make_unique<int>(41);
  int seen = 0;
  sim.post(0.5, [p = std::move(payload), &seen] { seen = *p + 1; });
  sim.run();
  EXPECT_EQ(seen, 42);
}

TEST(Simulation, CallbackPostingCallbacksFromInsideCallback) {
  // The event kernel reuses callback slots; a callback that posts more
  // callbacks (the SharedLink resolve/sweep pattern) must not invalidate the
  // one currently executing.
  Simulation sim;
  std::vector<int> order;
  sim.post(1.0, [&] {
    order.push_back(1);
    sim.post(1.0, [&] {
      order.push_back(3);
      sim.post(1.0, [&] { order.push_back(4); });
    });
    sim.post(0.5, [&] { order.push_back(2); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulation, RandomizedPostsRunInTimeThenFifoOrder) {
  // Specification of the event queue's total order: ascending time, and FIFO
  // (posting order) among equal times. Exercised with a randomized schedule
  // large enough to force many heap rebalances.
  Simulation sim;
  struct Record {
    Time t;
    int post_index;
  };
  std::vector<Record> executed;
  std::uint64_t rng_state = 12345;
  constexpr int kN = 2000;
  for (int i = 0; i < kN; ++i) {
    // Coarse 16-bucket times so equal timestamps are common.
    const Time t = static_cast<Time>(splitmix64(rng_state) % 16);
    sim.post(t, [&executed, t, i] { executed.push_back({t, i}); });
  }
  sim.run();
  ASSERT_EQ(executed.size(), static_cast<std::size_t>(kN));
  for (std::size_t i = 1; i < executed.size(); ++i) {
    const bool time_ascends = executed[i - 1].t < executed[i].t;
    const bool fifo_within_time = executed[i - 1].t == executed[i].t &&
                                  executed[i - 1].post_index < executed[i].post_index;
    EXPECT_TRUE(time_ascends || fifo_within_time)
        << "event " << i << ": (" << executed[i - 1].t << ", "
        << executed[i - 1].post_index << ") before (" << executed[i].t << ", "
        << executed[i].post_index << ")";
  }
}

// Reference model of the event queue: every pending (t, seq) in a sorted set.
// Each probe event checks, when the kernel dispatches it, that it is the
// model's minimum, then re-posts a random mix of events at the current
// instant, at future times that are already pending, and at fresh times.
std::uint64_t bitsOf(Time t) {
  std::uint64_t bits;
  std::memcpy(&bits, &t, sizeof(bits));
  return bits;
}

struct QueueOracle {
  static constexpr Time kGrid = 0.25;  // dyadic times: every sum is exact

  Simulation sim;
  std::set<std::pair<Time, std::uint64_t>> pending;
  std::vector<std::uint64_t> dispatched;  // seqs in kernel order
  std::vector<std::uint64_t> expected;    // seqs in model order
  std::uint64_t rng = 0x5eed;
  int reposts_left = 40000;
  Time next_fresh = 5000.0;

  struct Probe {
    QueueOracle* oracle;
    Time t;
    std::uint64_t seq;
    void operator()() const { oracle->onDispatch(t, seq); }
  };

  void post(Time dt) {
    const Time t = sim.now() + dt;
    const std::uint64_t seq = sim.nextSequence();
    pending.emplace(t, seq);
    sim.post(dt, Probe{this, t, seq});
  }

  /// A grid time after now; most of them are already pending.
  Time gridTimeFromNow(int span) {
    const auto first = static_cast<std::uint64_t>(sim.now() / kGrid) + 1;
    return static_cast<Time>(first + splitmix64(rng) % span) * kGrid;
  }

  void onDispatch(Time t, std::uint64_t seq) {
    dispatched.push_back(seq);
    expected.push_back(pending.empty() ? ~0ULL : pending.begin()->second);
    EXPECT_EQ(bitsOf(sim.now()), bitsOf(t)) << "seq " << seq;
    pending.erase({t, seq});
    while (reposts_left > 0 && splitmix64(rng) % 4 != 0) {
      --reposts_left;
      switch (splitmix64(rng) % 3) {
        case 0: post(0.0); break;
        case 1: post(gridTimeFromNow(64) - sim.now()); break;
        default: {
          const Time fresh = std::max(next_fresh, sim.now() + kGrid);
          post(fresh - sim.now());
          next_fresh = fresh + kGrid / 2;
        }
      }
    }
  }

  /// Pending-schedule digest computed from the model, as the kernel defines
  /// it: FNV-1a over (time bits, seq) in (time, seq) order.
  std::uint64_t digest() const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](std::uint64_t bits) {
      for (int i = 0; i < 8; ++i) {
        h ^= (bits >> (8 * i)) & 0xffULL;
        h *= 0x100000001b3ULL;
      }
    };
    for (const auto& [t, seq] : pending) {
      mix(bitsOf(t));
      mix(seq);
    }
    return h;
  }

  void expectAgrees(const char* when) {
    SCOPED_TRACE(when);
    for (std::size_t i = 0; i < dispatched.size(); ++i) {
      if (dispatched[i] != expected[i]) {
        ADD_FAILURE() << "dispatch #" << i << " ran seq " << dispatched[i]
                      << " but the model's minimum was seq " << expected[i];
        break;
      }
    }
    EXPECT_EQ(sim.pendingEvents(), pending.size());
    EXPECT_EQ(bitsOf(sim.nextEventTime()),
              bitsOf(pending.empty() ? kInfiniteTime : pending.begin()->first));
    EXPECT_EQ(sim.pendingEventsDigest(), digest());
  }
};

struct ResumeAt {
  Simulation* sim;
  Time t;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) { sim->scheduleResumeAt(t, h); }
  void await_resume() const noexcept {}
};

// Resumes itself at -0.0 and +0.0 beside the +0.0 probes: both zeros share a
// bucket key, yet each event keeps the sign it was scheduled with.
Task<void> signedZeroProcess(QueueOracle& oracle, std::uint64_t spawn_seq) {
  oracle.onDispatch(0.0, spawn_seq);
  for (const Time t : {-0.0, 0.0, -0.0}) {
    const std::uint64_t seq = oracle.sim.nextSequence();
    oracle.pending.emplace(t, seq);
    co_await ResumeAt{&oracle.sim, t};
    oracle.onDispatch(t, seq);
  }
}

TEST(Simulation, BucketedQueueMatchesSortedReferenceModel) {
  QueueOracle oracle;
  constexpr int kDistinct = 3 * static_cast<int>(Simulation::kQueueSlots);

  // Batch 1 at t = 0: signed-zero resumes, then more distinct pending times
  // than the bucket table has slots (buckets collide and lose their slots),
  // then posts onto times that are already pending.
  for (int i = 0; i < 16; ++i) {
    const std::uint64_t seq = oracle.sim.nextSequence();  // the spawn event
    oracle.pending.emplace(0.0, seq);
    oracle.sim.spawn(signedZeroProcess(oracle, seq));
    oracle.post(0.0);
  }
  for (int k = kDistinct; k >= 1; --k) oracle.post(k * QueueOracle::kGrid);
  for (int i = 0; i < 4000; ++i) {
    oracle.post(oracle.gridTimeFromNow(kDistinct) - oracle.sim.now());
  }
  std::set<Time> distinct;
  for (const auto& [t, seq] : oracle.pending) distinct.insert(t);
  ASSERT_GT(distinct.size(), Simulation::kQueueSlots);
  oracle.expectAgrees("after posting batch 1");

  // Park between grid points after each batch, then add more from outside.
  Time limit = 0.0;
  for (int batch = 1; batch <= 8; ++batch) {
    limit += 96.0 + QueueOracle::kGrid / 2;
    oracle.sim.runUntil(limit);
    EXPECT_EQ(oracle.sim.now(), limit);
    if (!oracle.pending.empty()) {
      EXPECT_GT(oracle.pending.begin()->first, limit);
    }
    oracle.expectAgrees(("after batch " + std::to_string(batch)).c_str());
    for (int i = 0; i < 500; ++i) {
      oracle.post(oracle.gridTimeFromNow(512) - oracle.sim.now());
    }
  }
  oracle.sim.run();
  oracle.expectAgrees("after the final run");
  EXPECT_TRUE(oracle.pending.empty());
  EXPECT_EQ(oracle.reposts_left, 0) << "the repost budget was not spent";
}

}  // namespace
}  // namespace iobts::sim
