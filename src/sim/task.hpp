// Lazy coroutine task with symmetric transfer.
//
// Task<T> is the return type of every simulated activity:
//
//   sim::Task<void> rank(mpisim::RankCtx& ctx) {
//     co_await ctx.compute(1.5);
//     auto req = co_await file.iwriteAt(off, bytes);
//     co_await ctx.compute(1.5);
//     co_await req.wait();
//   }
//
// Properties:
//  * Lazy: the body does not start until the task is awaited (or spawned
//    onto a Simulation).
//  * Symmetric transfer: awaiting a child suspends the parent and resumes the
//    child without growing the stack; completion resumes the parent the same
//    way.
//  * Exceptions propagate to the awaiter; a spawned root task's exception is
//    captured by the Simulation and rethrown from run().
//  * Move-only; the Task object owns the coroutine frame.
//  * Frames are recycled through the per-thread FrameCache (see
//    frame_cache.hpp), so a steady-state await chain does not touch the
//    global allocator.
#pragma once

#include <coroutine>
#include <exception>
#include <functional>
#include <optional>
#include <utility>

#include "sim/frame_cache.hpp"
#include "util/check.hpp"

namespace iobts::sim {

template <class T>
class Task;

namespace detail {

struct PromiseBase {
  std::coroutine_handle<> continuation{};
  std::exception_ptr exception{};
  // Root-task completion hook installed by Simulation::spawn. Runs in
  // final_suspend, after the result/exception is stored.
  std::function<void()>* on_done = nullptr;

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    template <class Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept {
      PromiseBase& p = h.promise();
      if (p.on_done) (*p.on_done)();
      return p.continuation ? p.continuation : std::noop_coroutine();
    }
    void await_resume() const noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }

  void unhandled_exception() noexcept { exception = std::current_exception(); }
};

template <class T>
struct Promise : PromiseBase, CacheAllocated<Promise<T>> {
  std::optional<T> result;

  Task<T> get_return_object() noexcept;
  template <class U>
  void return_value(U&& value) {
    result.emplace(std::forward<U>(value));
  }
};

template <>
struct Promise<void> : PromiseBase, CacheAllocated<Promise<void>> {
  Task<void> get_return_object() noexcept;
  void return_void() noexcept {}
};

}  // namespace detail

template <class T>
class [[nodiscard]] Task {
 public:
  using promise_type = detail::Promise<T>;

  Task() noexcept = default;
  explicit Task(std::coroutine_handle<promise_type> h) noexcept : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const noexcept { return static_cast<bool>(handle_); }
  bool done() const noexcept { return handle_ && handle_.done(); }

  /// Awaiting a task starts it (symmetric transfer) and resumes the awaiter
  /// when the task completes, yielding the result / rethrowing.
  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> handle;
      bool await_ready() const noexcept { return !handle || handle.done(); }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> awaiting) noexcept {
        handle.promise().continuation = awaiting;
        return handle;
      }
      T await_resume() {
        auto& p = handle.promise();
        if (p.exception) std::rethrow_exception(p.exception);
        if constexpr (!std::is_void_v<T>) {
          IOBTS_CHECK(p.result.has_value(), "task finished without a value");
          return std::move(*p.result);
        }
      }
    };
    return Awaiter{handle_};
  }

  /// For the Simulation runtime only: raw handle access.
  std::coroutine_handle<promise_type> handle() const noexcept { return handle_; }
  std::coroutine_handle<promise_type> release() noexcept {
    return std::exchange(handle_, {});
  }

 private:
  void destroy() noexcept {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  std::coroutine_handle<promise_type> handle_{};
};

namespace detail {

template <class T>
Task<T> Promise<T>::get_return_object() noexcept {
  return Task<T>(std::coroutine_handle<Promise<T>>::from_promise(*this));
}

inline Task<void> Promise<void>::get_return_object() noexcept {
  return Task<void>(std::coroutine_handle<Promise<void>>::from_promise(*this));
}

}  // namespace detail
}  // namespace iobts::sim
