// Deterministic discrete-event simulation kernel.
//
// The Simulation owns a virtual clock and an event queue of coroutine
// resumptions. All synchronization primitives (Trigger, Semaphore, Mailbox)
// route resumptions through this queue, which gives:
//
//   * determinism -- events at equal timestamps run in FIFO scheduling order
//     (stable sequence numbers), independent of allocator or hash ordering;
//   * bounded stacks -- no primitive ever resumes a coroutine inline from
//     another coroutine's context.
//
// Root activities are started with spawn(); run() drives the queue to
// exhaustion and rethrows the first uncaught exception from any spawned
// process (unless that process opted out).
//
// Hot-path design (see DESIGN.md "Hot-path architecture"): the steady-state
// scheduling path is allocation-free. Posted callbacks are stored in a
// SmallCallback (inline storage for captures up to kInlineCapacity bytes;
// heap only for larger ones), callback slots are pooled and reused, and the
// queue itself is a 4-ary min-heap of 32-byte POD entries ordered by
// (time, seq) -- identical ordering semantics to the previous
// std::priority_queue<Event> implementation.
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <exception>
#include <functional>
#include <list>
#include <memory>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/task.hpp"
#include "sim/time.hpp"
#include "util/check.hpp"

namespace iobts::obs {
class MetricsRegistry;
}  // namespace iobts::obs

namespace iobts::sim {

class Simulation;
class ShardedSimulation;

/// Identifies one shard of a ShardedSimulation. Shard 0 is the only shard of
/// a plain (unsharded) Simulation.
using ShardId = std::uint32_t;

/// Move-only callable with small-buffer optimization, used for posted events.
/// Callables whose decayed type fits kInlineCapacity bytes (and is nothrow
/// move constructible) live inline in the event slot; larger ones fall back
/// to a single heap allocation. Unlike std::function this also accepts
/// move-only captures.
class SmallCallback {
 public:
  static constexpr std::size_t kInlineCapacity = 48;

  SmallCallback() noexcept = default;
  SmallCallback(SmallCallback&& other) noexcept { moveFrom(other); }
  SmallCallback& operator=(SmallCallback&& other) noexcept {
    if (this != &other) {
      reset();
      moveFrom(other);
    }
    return *this;
  }
  SmallCallback(const SmallCallback&) = delete;
  SmallCallback& operator=(const SmallCallback&) = delete;
  ~SmallCallback() { reset(); }

  template <class F, class D = std::decay_t<F>,
            class = std::enable_if_t<!std::is_same_v<D, SmallCallback> &&
                                     std::is_invocable_r_v<void, D&>>>
  SmallCallback(F&& fn) {  // NOLINT(google-explicit-constructor)
    if constexpr (kFitsInline<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(fn));
      ops_ = &kInlineOps<D>;
    } else {
      *reinterpret_cast<D**>(storage_) = new D(std::forward<F>(fn));
      ops_ = &kHeapOps<D>;
    }
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void operator()() {
    IOBTS_DCHECK(ops_ != nullptr, "invoking an empty SmallCallback");
    ops_->invoke(storage_);
  }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    /// Move-construct into dst from src, then destroy src's callable.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <class D>
  static constexpr bool kFitsInline =
      sizeof(D) <= kInlineCapacity &&
      alignof(D) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<D>;

  template <class D>
  static constexpr Ops kInlineOps{
      [](void* storage) { (*static_cast<D*>(storage))(); },
      [](void* dst, void* src) noexcept {
        if constexpr (std::is_trivially_copyable_v<D>) {
          std::memcpy(dst, src, sizeof(D));
        } else {
          D* from = static_cast<D*>(src);
          ::new (dst) D(std::move(*from));
          from->~D();
        }
      },
      [](void* storage) noexcept { static_cast<D*>(storage)->~D(); },
  };

  template <class D>
  static constexpr Ops kHeapOps{
      [](void* storage) { (**reinterpret_cast<D**>(storage))(); },
      [](void* dst, void* src) noexcept {
        std::memcpy(dst, src, sizeof(D*));
      },
      [](void* storage) noexcept { delete *reinterpret_cast<D**>(storage); },
  };

  void moveFrom(SmallCallback& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineCapacity];
  const Ops* ops_ = nullptr;
};

/// One-shot broadcast event: any number of coroutines can wait; fire()
/// resumes them all (through the event queue, at the current time, in
/// arrival order). The first waiter is held inline, so the common
/// single-waiter trigger (a transfer's completion, a blocking MPI_Wait)
/// never allocates.
class Trigger {
 public:
  explicit Trigger(Simulation& simulation) : sim_(&simulation) {}
  Trigger(const Trigger&) = delete;
  Trigger& operator=(const Trigger&) = delete;

  bool fired() const noexcept { return fired_; }
  void fire();

  /// Awaitable: resumes immediately if already fired.
  auto wait() noexcept {
    struct Awaiter {
      Trigger* trigger;
      bool await_ready() const noexcept { return trigger->fired_; }
      void await_suspend(std::coroutine_handle<> h) {
        if (!trigger->first_waiter_) {
          trigger->first_waiter_ = h;
        } else {
          trigger->later_waiters_.push_back(h);
        }
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

 private:
  Simulation* sim_;
  bool fired_ = false;
  std::coroutine_handle<> first_waiter_{};
  std::vector<std::coroutine_handle<>> later_waiters_;
};

/// Handle to a spawned process; outlives the process itself.
class ProcessHandle {
 public:
  struct State {
    explicit State(Simulation& simulation, std::string process_name)
        : done(simulation), name(std::move(process_name)) {}
    Trigger done;
    std::string name;
    std::exception_ptr error{};
    bool finished = false;
  };

  ProcessHandle() = default;
  explicit ProcessHandle(std::shared_ptr<State> state)
      : state_(std::move(state)) {}

  bool valid() const noexcept { return static_cast<bool>(state_); }
  bool finished() const noexcept { return state_ && state_->finished; }
  bool failed() const noexcept {
    return state_ && static_cast<bool>(state_->error);
  }
  const std::string& name() const { return state_->name; }
  std::exception_ptr error() const { return state_ ? state_->error : nullptr; }

  /// Await completion; rethrows the process's exception, if any.
  Task<void> join() const {
    auto state = state_;
    IOBTS_CHECK(state != nullptr, "joining an empty ProcessHandle");
    co_await state->done.wait();
    if (state->error) std::rethrow_exception(state->error);
  }

 private:
  std::shared_ptr<State> state_;
};

struct SpawnOptions {
  std::string name{};
  /// If true (default) an uncaught exception in this process aborts run().
  /// Failure-injection tests set this to false and inspect join()/error().
  bool fatal_errors = true;
};

class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;
  ~Simulation();

  Time now() const noexcept { return now_; }

  /// Schedule `h` to resume at now + dt (dt >= 0).
  void scheduleResume(Time dt, std::coroutine_handle<> h);

  /// Schedule `h` to resume at absolute time t (t >= now).
  void scheduleResumeAt(Time t, std::coroutine_handle<> h);

  /// Schedule a plain callback at now + dt. Callbacks interleave with
  /// coroutine resumptions in the same deterministic (time, seq) order.
  /// Accepts any void() callable, including move-only ones; captures up to
  /// SmallCallback::kInlineCapacity bytes are stored without allocating.
  template <class F,
            class = std::enable_if_t<
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  void post(Time dt, F&& fn) {
    IOBTS_CHECK(dt >= 0.0, "cannot schedule into the past");
    pushCallback(now_ + dt, SmallCallback(std::forward<F>(fn)));
  }
  void post(Time dt, std::nullptr_t) {
    IOBTS_CHECK(dt >= 0.0, "cannot schedule into the past");
    IOBTS_CHECK(false, "cannot post a null callback");
  }

  /// Awaitable pause of `dt` virtual seconds (dt >= 0; 0 yields through the
  /// queue, preserving FIFO fairness).
  auto delay(Time dt) noexcept {
    struct Awaiter {
      Simulation* sim;
      Time dt;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        sim->scheduleResume(dt, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, dt};
  }

  /// Start a root activity. The body begins at the current time (through the
  /// event queue). Returns a handle usable for join().
  ProcessHandle spawn(Task<void> task, SpawnOptions options = {});

  /// Run until the event queue drains. Rethrows the first fatal process
  /// error. Returns the final virtual time.
  Time run();

  /// Run events with timestamp <= t_limit; the clock ends at exactly t_limit
  /// if the queue still has later events.
  Time runUntil(Time t_limit);

  /// Execute a single event; returns false if the queue is empty.
  bool step();

  /// Timestamp of the earliest pending event, or +infinity when the queue
  /// is empty. The checkpoint runner uses this to find its next park point.
  Time nextEventTime() const noexcept {
    return heap_.empty() ? kInfiniteTime : heap_.top().t;
  }

  /// Shard identity: a plain Simulation is shard 0 and not sharded; a
  /// ShardedSimulation stamps each member with its id. The hot path never
  /// reads these -- they only label per-shard metrics.
  ShardId shardId() const noexcept { return shard_id_; }
  bool isSharded() const noexcept { return sharded_; }

  std::size_t pendingEvents() const noexcept { return heap_.size(); }
  std::size_t liveProcesses() const noexcept { return processes_.size(); }
  std::uint64_t eventsProcessed() const noexcept { return events_processed_; }
  /// Sequence number the next scheduled event will receive. Part of the
  /// checkpoint watermark: two runs in the same state have scheduled exactly
  /// the same events, so their next_seq values must agree.
  std::uint64_t nextSequence() const noexcept { return next_seq_; }

  /// FNV-1a digest over the (time, seq) pairs of every pending event, in
  /// (time, seq) order. The callbacks themselves are native code and cannot
  /// be serialized -- but their *schedule* can, and because dispatch order is
  /// a pure function of (time, seq), two runs whose schedules digest equal
  /// will dispatch identically. This is the event-heap leg of the
  /// checkpoint/restore exactness proof (see src/ckpt).
  std::uint64_t pendingEventsDigest() const;

  /// Publish kernel totals (events processed, queue depth, pooled slots)
  /// into `registry` under "sim.*".
  void exportMetrics(obs::MetricsRegistry& registry) const;

 private:
  friend class Trigger;
  friend class ShardedSimulation;  // stamps shard_id_ / sharded_

  struct Process {
    Task<void> task;
    std::shared_ptr<ProcessHandle::State> state;
    std::function<void()> on_done;
    bool fatal_errors = true;
  };
  using ProcessList = std::list<std::unique_ptr<Process>>;

  /// Heap entry: 32-byte POD. Exactly one of handle / slot is meaningful:
  /// a non-null handle marks a coroutine resumption; otherwise `slot` indexes
  /// the pooled SmallCallback in callback_slots_.
  struct HeapEntry {
    Time t;
    std::uint64_t seq;
    std::coroutine_handle<> handle;
    std::uint32_t slot;
  };

  /// 4-ary min-heap on (t, seq): shallower than a binary heap (fewer cache
  /// misses per reschedule) and entries are PODs, so sifting is memcpy-cheap.
  class EventHeap {
   public:
    bool empty() const noexcept { return entries_.empty(); }
    std::size_t size() const noexcept { return entries_.size(); }
    const HeapEntry& top() const noexcept { return entries_.front(); }
    const std::vector<HeapEntry>& entries() const noexcept { return entries_; }

    void push(const HeapEntry& entry) {
      entries_.push_back(entry);
      siftUp(entries_.size() - 1);
    }

    HeapEntry pop() {
      const HeapEntry result = entries_.front();
      const HeapEntry last = entries_.back();
      entries_.pop_back();
      if (!entries_.empty()) {
        entries_.front() = last;
        siftDown(0);
      }
      return result;
    }

   private:
    static bool less(const HeapEntry& a, const HeapEntry& b) noexcept {
      if (a.t != b.t) return a.t < b.t;
      return a.seq < b.seq;  // FIFO among equal times
    }

    void siftUp(std::size_t i) noexcept {
      const HeapEntry moving = entries_[i];
      while (i > 0) {
        const std::size_t parent = (i - 1) / 4;
        if (!less(moving, entries_[parent])) break;
        entries_[i] = entries_[parent];
        i = parent;
      }
      entries_[i] = moving;
    }

    void siftDown(std::size_t i) noexcept {
      const std::size_t n = entries_.size();
      const HeapEntry moving = entries_[i];
      while (true) {
        const std::size_t first_child = 4 * i + 1;
        if (first_child >= n) break;
        std::size_t best = first_child;
        const std::size_t last_child = std::min(first_child + 4, n);
        for (std::size_t c = first_child + 1; c < last_child; ++c) {
          if (less(entries_[c], entries_[best])) best = c;
        }
        if (!less(entries_[best], moving)) break;
        entries_[i] = entries_[best];
        i = best;
      }
      entries_[i] = moving;
    }

    std::vector<HeapEntry> entries_;
  };

  void pushCallback(Time t, SmallCallback cb);
  void reapFinished();

  Time now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  EventHeap heap_;
  /// Pooled callback storage; free_slots_ recycles indices so steady-state
  /// post() never allocates.
  std::vector<SmallCallback> callback_slots_;
  std::vector<std::uint32_t> free_slots_;
  ProcessList processes_;
  std::vector<ProcessList::iterator> reap_list_;
  std::exception_ptr fatal_error_{};
  /// Cold shard identity (see shardId()); never read on the hot path.
  ShardId shard_id_ = 0;
  bool sharded_ = false;
};

/// Await completion of all given tasks, sequentially awaiting each. Because
/// tasks are lazy this runs them one after another; use spawn() for
/// concurrency.
Task<void> sequence(std::vector<Task<void>> tasks);

/// Spawn all tasks as concurrent processes and await their completion.
/// Rethrows the first failure (after all complete).
Task<void> allOf(Simulation& sim, std::vector<Task<void>> tasks);

}  // namespace iobts::sim
