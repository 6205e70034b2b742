#include "sim/sync.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace iobts::sim {
namespace {

TEST(Trigger, WaitBeforeFire) {
  Simulation sim;
  Trigger trig(sim);
  Time woke = kNoTime;
  auto waiter = [&]() -> Task<void> {
    co_await trig.wait();
    woke = sim.now();
  };
  auto firer = [&]() -> Task<void> {
    co_await sim.delay(3.0);
    trig.fire();
  };
  sim.spawn(waiter());
  sim.spawn(firer());
  sim.run();
  EXPECT_DOUBLE_EQ(woke, 3.0);
  EXPECT_TRUE(trig.fired());
}

TEST(Trigger, WaitAfterFireIsImmediate) {
  Simulation sim;
  Trigger trig(sim);
  trig.fire();
  bool resumed = false;
  auto waiter = [&]() -> Task<void> {
    co_await trig.wait();
    resumed = true;
  };
  sim.spawn(waiter());
  sim.run();
  EXPECT_TRUE(resumed);
}

TEST(Trigger, BroadcastsToAllWaiters) {
  Simulation sim;
  Trigger trig(sim);
  int woke = 0;
  auto waiter = [&]() -> Task<void> {
    co_await trig.wait();
    ++woke;
  };
  for (int i = 0; i < 5; ++i) sim.spawn(waiter());
  auto firer = [&]() -> Task<void> {
    co_await sim.delay(1.0);
    trig.fire();
  };
  sim.spawn(firer());
  sim.run();
  EXPECT_EQ(woke, 5);
}

TEST(Trigger, WaitersResumeInArrivalOrder) {
  // The first waiter is held inline and later ones queue behind it; five
  // waiters straddle that split. They are spawned out of arrival order so
  // spawn order cannot explain the result.
  Simulation sim;
  Trigger trig(sim);
  std::vector<int> order;
  auto waiter = [&](int id) -> Task<void> {
    co_await sim.delay(0.5 * id);
    co_await trig.wait();
    order.push_back(id);
  };
  for (const int id : {3, 0, 4, 1, 2}) sim.spawn(waiter(id));
  sim.post(5.0, [&] { trig.fire(); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Trigger, DoubleFireIsIdempotent) {
  Simulation sim;
  Trigger trig(sim);
  trig.fire();
  trig.fire();
  EXPECT_TRUE(trig.fired());
}

TEST(Semaphore, AcquireDecrements) {
  Simulation sim;
  Semaphore sem(sim, 2);
  int held = 0;
  auto proc = [&]() -> Task<void> {
    co_await sem.acquire();
    ++held;
  };
  sim.spawn(proc());
  sim.spawn(proc());
  sim.run();
  EXPECT_EQ(held, 2);
  EXPECT_EQ(sem.available(), 0u);
}

TEST(Semaphore, BlocksWhenExhausted) {
  Simulation sim;
  Semaphore sem(sim, 1);
  std::vector<int> order;
  auto holder = [&]() -> Task<void> {
    co_await sem.acquire();
    order.push_back(1);
    co_await sim.delay(5.0);
    sem.release();
    order.push_back(2);
  };
  auto blocked = [&]() -> Task<void> {
    co_await sim.delay(1.0);  // ensure holder grabbed it first
    co_await sem.acquire();
    order.push_back(3);
  };
  sim.spawn(holder());
  sim.spawn(blocked());
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Semaphore, FifoWakeOrder) {
  Simulation sim;
  Semaphore sem(sim, 0);
  std::vector<int> order;
  auto waiter = [&](int id) -> Task<void> {
    co_await sem.acquire();
    order.push_back(id);
  };
  for (int i = 0; i < 4; ++i) sim.spawn(waiter(i));
  auto releaser = [&]() -> Task<void> {
    co_await sim.delay(1.0);
    sem.release(4);
  };
  sim.spawn(releaser());
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Semaphore, WaitersBypassNotAllowed) {
  // A new acquirer must not jump the queue while others wait, even if a
  // release just made a slot available.
  Simulation sim;
  Semaphore sem(sim, 0);
  std::vector<int> order;
  auto first = [&]() -> Task<void> {
    co_await sem.acquire();
    order.push_back(1);
  };
  auto second = [&]() -> Task<void> {
    co_await sim.delay(1.0);
    sem.release();
    co_await sem.acquire();  // must queue behind `first`... release woke first
    order.push_back(2);
  };
  auto releaser = [&]() -> Task<void> {
    co_await sim.delay(2.0);
    sem.release();
  };
  sim.spawn(first());
  sim.spawn(second());
  sim.spawn(releaser());
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Mailbox, SendThenRecv) {
  Simulation sim;
  Mailbox<int> box(sim);
  box.send(42);
  int got = 0;
  auto proc = [&]() -> Task<void> { got = co_await box.recv(); };
  sim.spawn(proc());
  sim.run();
  EXPECT_EQ(got, 42);
}

TEST(Mailbox, RecvBlocksUntilSend) {
  Simulation sim;
  Mailbox<std::string> box(sim);
  std::string got;
  Time when = kNoTime;
  auto receiver = [&]() -> Task<void> {
    got = co_await box.recv();
    when = sim.now();
  };
  auto sender = [&]() -> Task<void> {
    co_await sim.delay(2.0);
    box.send("hello");
  };
  sim.spawn(receiver());
  sim.spawn(sender());
  sim.run();
  EXPECT_EQ(got, "hello");
  EXPECT_DOUBLE_EQ(when, 2.0);
}

TEST(Mailbox, MessagesDeliveredInOrder) {
  Simulation sim;
  Mailbox<int> box(sim);
  std::vector<int> got;
  auto receiver = [&]() -> Task<void> {
    for (int i = 0; i < 3; ++i) got.push_back(co_await box.recv());
  };
  auto sender = [&]() -> Task<void> {
    box.send(1);
    co_await sim.delay(1.0);
    box.send(2);
    box.send(3);
  };
  sim.spawn(receiver());
  sim.spawn(sender());
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
}

TEST(Mailbox, TryRecvNonBlocking) {
  Simulation sim;
  Mailbox<int> box(sim);
  EXPECT_FALSE(box.tryRecv().has_value());
  box.send(9);
  const auto v = box.tryRecv();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 9);
  EXPECT_TRUE(box.empty());
}

TEST(Mailbox, MoveOnlyPayload) {
  Simulation sim;
  Mailbox<std::unique_ptr<int>> box(sim);
  box.send(std::make_unique<int>(5));
  std::unique_ptr<int> got;
  auto proc = [&]() -> Task<void> { got = co_await box.recv(); };
  sim.spawn(proc());
  sim.run();
  ASSERT_TRUE(got);
  EXPECT_EQ(*got, 5);
}

TEST(Mailbox, FifoAcrossRingGrowthWithWrappedHead) {
  // Send 6, receive 4, send 20: the ring's head has wrapped when it grows,
  // and growth must relocate the queued values in send order.
  Simulation sim;
  Mailbox<int> box(sim);
  std::vector<int> got;
  for (int v = 0; v < 6; ++v) box.send(v);
  for (int i = 0; i < 4; ++i) got.push_back(*box.tryRecv());
  for (int v = 6; v < 26; ++v) box.send(v);
  EXPECT_EQ(box.size(), 22u);
  auto receiver = [&]() -> Task<void> {
    while (!box.empty()) got.push_back(co_await box.recv());
  };
  sim.spawn(receiver());
  sim.run();
  std::vector<int> expected(26);
  for (int v = 0; v < 26; ++v) expected[v] = v;
  EXPECT_EQ(got, expected);
}

TEST(Mailbox, ReceivedPayloadIsNotPinnedByItsSlot) {
  // A payload whose moved-from husk still holds its reference: only
  // destroying the ring slot on receipt releases it.
  struct Sticky {
    explicit Sticky(std::shared_ptr<int> r) : ref(std::move(r)) {}
    Sticky(Sticky&& other) noexcept : ref(other.ref) {}
    Sticky(const Sticky&) = delete;
    Sticky& operator=(const Sticky&) = delete;
    std::shared_ptr<int> ref;
  };
  Simulation sim;
  Mailbox<Sticky> box(sim);
  const auto tracked = std::make_shared<int>(7);
  box.send(Sticky(tracked));
  box.send(Sticky(tracked));
  EXPECT_EQ(tracked.use_count(), 3);
  {
    const std::optional<Sticky> got = box.tryRecv();
    EXPECT_EQ(tracked.use_count(), 3);  // `got` and the queued second
  }
  EXPECT_EQ(tracked.use_count(), 2);
  auto receiver = [&]() -> Task<void> {
    const Sticky got = co_await box.recv();
    EXPECT_EQ(tracked.use_count(), 2);  // `got` only
  };
  sim.spawn(receiver());
  sim.run();
  EXPECT_EQ(tracked.use_count(), 1);
}

TEST(Barrier, ReleasesWhenAllArrive) {
  Simulation sim;
  Barrier barrier(sim, 3);
  std::vector<Time> release_times;
  auto party = [&](Time dt) -> Task<void> {
    co_await sim.delay(dt);
    co_await barrier.arriveAndWait();
    release_times.push_back(sim.now());
  };
  sim.spawn(party(1.0));
  sim.spawn(party(2.0));
  sim.spawn(party(3.0));
  sim.run();
  ASSERT_EQ(release_times.size(), 3u);
  for (const Time t : release_times) EXPECT_DOUBLE_EQ(t, 3.0);
}

TEST(Barrier, Reusable) {
  Simulation sim;
  Barrier barrier(sim, 2);
  std::vector<Time> times;
  auto party = [&](Time pause) -> Task<void> {
    for (int round = 0; round < 3; ++round) {
      co_await sim.delay(pause);
      co_await barrier.arriveAndWait();
      times.push_back(sim.now());
    }
  };
  sim.spawn(party(1.0));
  sim.spawn(party(2.0));
  sim.run();
  ASSERT_EQ(times.size(), 6u);
  // Rounds complete at the slower party's pace: 2, 4, 6.
  EXPECT_DOUBLE_EQ(times[0], 2.0);
  EXPECT_DOUBLE_EQ(times[2], 4.0);
  EXPECT_DOUBLE_EQ(times[4], 6.0);
}

TEST(Barrier, SinglePartyNeverBlocks) {
  Simulation sim;
  Barrier barrier(sim, 1);
  bool done = false;
  auto party = [&]() -> Task<void> {
    co_await barrier.arriveAndWait();
    co_await barrier.arriveAndWait();
    done = true;
  };
  sim.spawn(party());
  sim.run();
  EXPECT_TRUE(done);
}

TEST(Barrier, ZeroPartiesThrows) {
  Simulation sim;
  EXPECT_THROW(Barrier(sim, 0), CheckError);
}

}  // namespace
}  // namespace iobts::sim
