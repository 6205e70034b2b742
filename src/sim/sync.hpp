// Coroutine synchronization primitives on top of the Simulation queue.
//
// Semaphore -- counting semaphore with FIFO waiters (deterministic).
// Mailbox<T> -- unbounded MPSC-style channel with awaitable receive.
// Barrier   -- n-party reusable barrier (used by the mini-MPI collectives).
#pragma once

#include <coroutine>
#include <cstddef>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>

#include "sim/simulation.hpp"
#include "util/check.hpp"

namespace iobts::sim {

namespace detail {

/// Grow-only FIFO ring. Capacity doubles when full and never shrinks, so a
/// queue that has reached its peak depth stops allocating (std::deque keeps
/// allocating and freeing chunks as its window slides). pop_front destroys
/// the element at once: no payload outlives its receipt in a stale slot.
template <class T>
class Ring {
  static_assert(std::is_nothrow_move_constructible_v<T>,
                "ring growth relocates elements");

 public:
  Ring() = default;
  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;
  ~Ring() {
    while (!empty()) pop_front();
    if (slots_ != nullptr) std::allocator<T>().deallocate(slots_, capacity_);
  }

  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }
  T& front() noexcept { return slots_[head_]; }

  void push_back(T value) {
    if (size_ == capacity_) grow();
    std::construct_at(slots_ + ((head_ + size_) & (capacity_ - 1)),
                      std::move(value));
    ++size_;
  }

  void pop_front() noexcept {
    std::destroy_at(slots_ + head_);
    head_ = (head_ + 1) & (capacity_ - 1);
    --size_;
  }

 private:
  void grow() {
    const std::size_t capacity = capacity_ == 0 ? 4 : 2 * capacity_;
    T* const slots = std::allocator<T>().allocate(capacity);
    for (std::size_t i = 0; i < size_; ++i) {
      T* const from = slots_ + ((head_ + i) & (capacity_ - 1));
      std::construct_at(slots + i, std::move(*from));
      std::destroy_at(from);
    }
    if (slots_ != nullptr) std::allocator<T>().deallocate(slots_, capacity_);
    slots_ = slots;
    capacity_ = capacity;
    head_ = 0;
  }

  T* slots_ = nullptr;
  std::size_t capacity_ = 0;  // zero or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace detail

/// Counting semaphore; acquire suspends when the count is zero. Waiters wake
/// in FIFO order through the event queue.
class Semaphore {
 public:
  Semaphore(Simulation& simulation, std::size_t initial)
      : sim_(&simulation), count_(initial) {}
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  std::size_t available() const noexcept { return count_; }
  std::size_t waiting() const noexcept { return waiters_.size(); }

  auto acquire() noexcept {
    struct Awaiter {
      Semaphore* sem;
      bool await_ready() const noexcept {
        if (sem->count_ > 0 && sem->waiters_.empty()) {
          --sem->count_;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        sem->waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  void release(std::size_t n = 1) {
    count_ += n;
    while (count_ > 0 && !waiters_.empty()) {
      --count_;
      sim_->scheduleResume(0.0, waiters_.front());
      waiters_.pop_front();
    }
  }

 private:
  Simulation* sim_;
  std::size_t count_;
  detail::Ring<std::coroutine_handle<>> waiters_;
};

/// Unbounded channel. Multiple senders; receivers wake FIFO. A message is
/// handed to exactly one receiver.
template <class T>
class Mailbox {
 public:
  explicit Mailbox(Simulation& simulation) : sim_(&simulation) {}
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  std::size_t size() const noexcept { return values_.size(); }
  bool empty() const noexcept { return values_.empty(); }

  void send(T value) {
    values_.push_back(std::move(value));
    if (!receivers_.empty()) {
      sim_->scheduleResume(0.0, receivers_.front());
      receivers_.pop_front();
    }
  }

  /// Awaitable receive. Values are delivered in send order.
  auto recv() noexcept {
    struct Awaiter {
      Mailbox* box;
      bool await_ready() const noexcept {
        return !box->values_.empty() && box->receivers_.empty();
      }
      void await_suspend(std::coroutine_handle<> h) {
        box->receivers_.push_back(h);
      }
      T await_resume() {
        // A value may have been consumed by an earlier-queued receiver if we
        // were woken spuriously; in this design wakeups are 1:1 with sends,
        // so a value must exist.
        IOBTS_CHECK(!box->values_.empty(), "mailbox woke without a value");
        T v = std::move(box->values_.front());
        box->values_.pop_front();
        return v;
      }
    };
    return Awaiter{this};
  }

  /// Non-blocking receive.
  std::optional<T> tryRecv() {
    if (values_.empty()) return std::nullopt;
    T v = std::move(values_.front());
    values_.pop_front();
    return v;
  }

 private:
  Simulation* sim_;
  detail::Ring<T> values_;
  detail::Ring<std::coroutine_handle<>> receivers_;
};

/// Reusable n-party barrier. The n-th arrival releases everyone; the barrier
/// then resets for the next round (generation counter).
class Barrier {
 public:
  Barrier(Simulation& simulation, std::size_t parties)
      : sim_(&simulation), parties_(parties) {
    IOBTS_CHECK(parties_ > 0, "barrier needs at least one party");
  }
  Barrier(const Barrier&) = delete;
  Barrier& operator=(const Barrier&) = delete;

  std::size_t parties() const noexcept { return parties_; }
  std::size_t arrived() const noexcept { return arrived_; }

  auto arriveAndWait() noexcept {
    struct Awaiter {
      Barrier* barrier;
      bool await_ready() const noexcept {
        return barrier->parties_ == 1;  // degenerate: never blocks
      }
      void await_suspend(std::coroutine_handle<> h) {
        Barrier& b = *barrier;
        ++b.arrived_;
        if (b.arrived_ == b.parties_) {
          b.arrived_ = 0;
          for (const auto w : b.waiters_) b.sim_->scheduleResume(0.0, w);
          b.waiters_.clear();
          b.sim_->scheduleResume(0.0, h);  // the releasing party also yields
        } else {
          b.waiters_.push_back(h);
        }
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

 private:
  Simulation* sim_;
  std::size_t parties_;
  std::size_t arrived_ = 0;
  std::vector<std::coroutine_handle<>> waiters_;
};

}  // namespace iobts::sim
