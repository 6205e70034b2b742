#include "sim/simulation.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"

namespace iobts::sim {

void Trigger::fire() {
  if (fired_) return;
  fired_ = true;
  // Resume through the queue so firing order is deterministic and no
  // coroutine runs inline inside another's context.
  if (!first_waiter_) return;
  sim_->scheduleResume(0.0, std::exchange(first_waiter_, {}));
  for (const auto h : later_waiters_) sim_->scheduleResume(0.0, h);
  later_waiters_.clear();
}

Simulation::~Simulation() {
  // Destroy still-suspended process frames before the queue (handles inside
  // the queue may point into those frames; they are never resumed again).
  // Pending callback slots release their captures via ~SmallCallback.
  processes_.clear();
  callback_slots_.clear();
  // The run is over: hand this thread's cached frames back to the global
  // allocator instead of pinning them (and fragmenting the heap the next
  // run allocates from) until the thread exits.
  FrameCache::trim();
}

void Simulation::scheduleResume(Time dt, std::coroutine_handle<> h) {
  IOBTS_CHECK(dt >= 0.0, "cannot schedule into the past");
  scheduleResumeAt(now_ + dt, h);
}

void Simulation::scheduleResumeAt(Time t, std::coroutine_handle<> h) {
  IOBTS_CHECK(t >= now_, "cannot schedule into the past");
  IOBTS_CHECK(t < kInfiniteTime, "virtual clock overflow");
  IOBTS_CHECK(static_cast<bool>(h), "cannot schedule a null handle");
  queue_.push(t, next_seq_++, h, 0);
}

void Simulation::pushCallback(Time t, SmallCallback cb) {
  // post() already rejected a negative dt, but now + dt can still overflow.
  IOBTS_CHECK(t < kInfiniteTime, "virtual clock overflow");
  IOBTS_CHECK(static_cast<bool>(cb), "cannot post a null callback");
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(callback_slots_.size());
    callback_slots_.push_back(std::move(cb));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    callback_slots_[slot] = std::move(cb);
  }
  queue_.push(t, next_seq_++, {}, slot);
}

ProcessHandle Simulation::spawn(Task<void> task, SpawnOptions options) {
  IOBTS_CHECK(task.valid(), "cannot spawn an empty task");
  auto state = std::make_shared<ProcessHandle::State>(
      *this, options.name.empty()
                 ? "proc#" + std::to_string(processes_.size())
                 : std::move(options.name));

  auto process = std::make_unique<Process>();
  process->task = std::move(task);
  process->state = state;
  process->fatal_errors = options.fatal_errors;
  processes_.push_back(std::move(process));
  const auto it = std::prev(processes_.end());

  Process& proc = **it;
  auto handle = proc.task.handle();
  proc.on_done = [this, it]() {
    Process& p = **it;
    p.state->finished = true;
    p.state->error = p.task.handle().promise().exception;
    if (p.state->error) {
      if (p.fatal_errors && !fatal_error_) fatal_error_ = p.state->error;
      IOBTS_LOG_DEBUG() << "process '" << p.state->name
                        << "' finished with exception";
    }
    p.state->done.fire();
    // Defer frame destruction: we are inside final_suspend right now.
    reap_list_.push_back(it);
  };
  handle.promise().on_done = &proc.on_done;

  scheduleResume(0.0, handle);
  return ProcessHandle(state);
}

void Simulation::reapFinished() {
  for (const auto it : reap_list_) processes_.erase(it);
  reap_list_.clear();
}

bool Simulation::step() {
  if (queue_.empty()) return false;
  const Event ev = queue_.pop();
  IOBTS_DCHECK(ev.t >= now_, "event queue went backwards");
  now_ = ev.t;
  ++events_processed_;
  // Tracing: one relaxed load; with no sink installed this is the only cost.
  obs::TraceSink* const sink = obs::traceSink();
  const std::uint64_t wall_start = sink != nullptr ? sink->wallNowNs() : 0;
  const bool is_resume = static_cast<bool>(ev.handle);
  if (ev.handle) {
    ev.handle.resume();
  } else {
    // Move the callback out of its slot and release the slot *before*
    // invoking: the callback may post new events, growing callback_slots_.
    SmallCallback cb = std::move(callback_slots_[ev.slot]);
    free_slots_.push_back(ev.slot);
    cb();
  }
  if (sink != nullptr) {
    // Dispatch spans have zero *virtual* duration (the clock does not
    // advance inside synchronous code); real cost, when wall capture is on,
    // rides along in wall_ns, and the post-dispatch pending-event count in
    // value (the counter keeps its historical "heap_depth" name).
    const auto pending = static_cast<double>(queue_.size());
    sink->complete("sim", is_resume ? "dispatch.resume" : "dispatch.callback",
                   obs::track::kKernel, 0, ev.t, 0.0, pending,
                   sink->wallNowNs() - wall_start);
    sink->counter("sim", "heap_depth", obs::track::kKernel, 0, ev.t, pending);
  }
  reapFinished();
  return true;
}

std::uint64_t Simulation::pendingEventsDigest() const {
  // Copy out (t, seq) pairs and order them canonically: the queue's layout
  // depends on insertion history, but the *schedule* it represents is the
  // sorted sequence.
  std::vector<std::pair<Time, std::uint64_t>> schedule;
  schedule.reserve(queue_.size());
  queue_.forEach([&schedule](const Event& event) {
    schedule.emplace_back(event.t, event.seq);
  });
  std::sort(schedule.begin(), schedule.end());
  WordDigest digest;
  for (const auto& [t, seq] : schedule) {
    digest.mix(t);
    digest.mix(seq);
  }
  return digest.value();
}

void Simulation::exportMetrics(obs::MetricsRegistry& registry) const {
  registry.addCounter("sim.events_processed", events_processed_);
  registry.setGauge("sim.pending_events",
                    static_cast<double>(pendingEvents()));
  registry.setGauge("sim.live_processes",
                    static_cast<double>(liveProcesses()));
  registry.setGauge("sim.callback_slots",
                    static_cast<double>(callback_slots_.size()));
}

Time Simulation::run() {
  while (!fatal_error_ && step()) {
  }
  if (fatal_error_) {
    const auto error = std::exchange(fatal_error_, nullptr);
    std::rethrow_exception(error);
  }
  return now_;
}

Time Simulation::runUntil(Time t_limit) {
  while (!fatal_error_ && !queue_.empty() && queue_.front().t <= t_limit) {
    step();
  }
  if (fatal_error_) {
    const auto error = std::exchange(fatal_error_, nullptr);
    std::rethrow_exception(error);
  }
  if (now_ < t_limit) now_ = t_limit;
  return now_;
}

Task<void> sequence(std::vector<Task<void>> tasks) {
  for (auto& t : tasks) co_await std::move(t);
}

Task<void> allOf(Simulation& sim, std::vector<Task<void>> tasks) {
  std::vector<ProcessHandle> handles;
  handles.reserve(tasks.size());
  for (auto& t : tasks) {
    handles.push_back(sim.spawn(std::move(t), {.fatal_errors = false}));
  }
  std::exception_ptr first_error{};
  for (const auto& h : handles) {
    try {
      co_await h.join();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace iobts::sim
