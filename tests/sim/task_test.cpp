#include "sim/task.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>

#include "sim/simulation.hpp"

namespace iobts::sim {
namespace {

TEST(Task, LazyUntilAwaited) {
  bool started = false;
  auto make = [&]() -> Task<void> {
    started = true;
    co_return;
  };
  {
    const Task<void> t = make();
    EXPECT_FALSE(started);
    EXPECT_TRUE(t.valid());
  }
  // Destroying an unstarted task must not run its body.
  EXPECT_FALSE(started);
}

TEST(Task, ValueResultPropagates) {
  Simulation sim;
  int got = 0;
  auto child = []() -> Task<int> { co_return 41; };
  auto parent = [&]() -> Task<void> {
    got = co_await child() + 1;
  };
  sim.spawn(parent());
  sim.run();
  EXPECT_EQ(got, 42);
}

TEST(Task, MoveOnlyResultWorks) {
  Simulation sim;
  std::unique_ptr<int> got;
  auto child = []() -> Task<std::unique_ptr<int>> {
    co_return std::make_unique<int>(7);
  };
  auto parent = [&]() -> Task<void> { got = co_await child(); };
  sim.spawn(parent());
  sim.run();
  ASSERT_TRUE(got);
  EXPECT_EQ(*got, 7);
}

TEST(Task, ExceptionPropagatesToAwaiter) {
  Simulation sim;
  bool caught = false;
  auto child = []() -> Task<void> {
    throw std::runtime_error("io failed");
    co_return;
  };
  auto parent = [&]() -> Task<void> {
    try {
      co_await child();
    } catch (const std::runtime_error& e) {
      caught = std::string(e.what()) == "io failed";
    }
  };
  sim.spawn(parent());
  sim.run();
  EXPECT_TRUE(caught);
}

TEST(Task, DeepChainDoesNotOverflowStack) {
  Simulation sim;
  // 100k-deep recursive awaits: symmetric transfer must keep the stack flat.
  struct Rec {
    static Task<int> count(int n) {
      if (n == 0) co_return 0;
      co_return 1 + co_await count(n - 1);
    }
  };
  int result = 0;
  auto root = [&]() -> Task<void> { result = co_await Rec::count(100000); };
  sim.spawn(root());
  sim.run();
  EXPECT_EQ(result, 100000);
}

TEST(Task, SequentialChildrenRunInOrder) {
  Simulation sim;
  std::vector<int> order;
  auto child = [&](int id) -> Task<void> {
    order.push_back(id);
    co_return;
  };
  auto parent = [&]() -> Task<void> {
    co_await child(1);
    co_await child(2);
    co_await child(3);
  };
  sim.spawn(parent());
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Task, MoveTransfersOwnership) {
  auto make = []() -> Task<void> { co_return; };
  Task<void> a = make();
  Task<void> b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  a = std::move(b);
  EXPECT_TRUE(a.valid());
  EXPECT_FALSE(b.valid());
}

TEST(Task, FrameOutlivesTheThreadThatCreatedIt) {
  // Frames come from a per-thread cache. This one is allocated on a thread
  // that has cached a frame of its own (so its cache drains at exit), then
  // run and destroyed here after that thread is gone: the release joins
  // this thread's cache, and the Simulation's teardown trims it.
  auto make = [](int v) -> Task<int> { co_return v; };
  Task<int> task;
  std::thread maker([&] {
    { const Task<int> recycled = make(1); }
    task = make(7);
  });
  maker.join();
  int got = 0;
  {
    Simulation sim;
    auto runner = [&]() -> Task<void> { got = co_await std::move(task); };
    sim.spawn(runner());
    sim.run();
    task = Task<int>();
  }
  EXPECT_EQ(got, 7);
  EXPECT_EQ(FrameCache::cachedBlocks(), 0u);
}

}  // namespace
}  // namespace iobts::sim
