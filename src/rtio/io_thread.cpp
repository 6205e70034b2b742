#include "rtio/io_thread.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace iobts::rtio {

struct OpHandle::State {
  mutable std::mutex mutex;
  mutable std::condition_variable cv;
  bool done = false;
  OpStats stats;
};

bool OpHandle::test() const {
  IOBTS_CHECK(state_ != nullptr, "test() on an empty handle");
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->done;
}

void OpHandle::wait() const {
  IOBTS_CHECK(state_ != nullptr, "wait() on an empty handle");
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->cv.wait(lock, [&] { return state_->done; });
}

bool OpHandle::waitFor(std::chrono::duration<double> timeout) const {
  IOBTS_CHECK(state_ != nullptr, "waitFor() on an empty handle");
  IOBTS_CHECK(timeout.count() >= 0.0, "waitFor() timeout must be >= 0");
  std::unique_lock<std::mutex> lock(state_->mutex);
  return state_->cv.wait_for(lock, timeout, [&] { return state_->done; });
}

OpStats OpHandle::stats() const {
  IOBTS_CHECK(state_ != nullptr, "stats() on an empty handle");
  std::lock_guard<std::mutex> lock(state_->mutex);
  IOBTS_CHECK(state_->done, "stats() before completion");
  return state_->stats;
}

struct IoThread::Op {
  Bytes bytes = 0;
  FallibleSubrequestFn fn;
  std::shared_ptr<OpHandle::State> state;
  std::uint64_t serial = 0;  // seeds the per-op retry jitter stream
};

IoThread::IoThread(throttle::PacerConfig pacer_config,
                   throttle::RetryPolicy retry_policy)
    : pacer_config_(pacer_config),
      retry_policy_(retry_policy),
      epoch_(std::chrono::steady_clock::now()),
      worker_([this] { serve(); }) {
  retry_policy_.validate();
}

IoThread::~IoThread() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  worker_.join();
}

void IoThread::setLimit(std::optional<BytesPerSec> limit) {
  IOBTS_CHECK(!limit || *limit > 0.0, "limit must be positive");
  std::lock_guard<std::mutex> lock(mutex_);
  limit_ = limit;
}

std::optional<BytesPerSec> IoThread::limit() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return limit_;
}

OpHandle IoThread::submit(Bytes bytes, SubrequestFn fn) {
  IOBTS_CHECK(static_cast<bool>(fn), "submit() needs a sub-request callback");
  return submitFallible(bytes, [f = std::move(fn)](Bytes offset, Bytes size) {
    f(offset, size);
    return true;
  });
}

OpHandle IoThread::submitFallible(Bytes bytes, FallibleSubrequestFn fn) {
  IOBTS_CHECK(static_cast<bool>(fn), "submit() needs a sub-request callback");
  auto state = std::make_shared<OpHandle::State>();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    IOBTS_CHECK(!stopping_, "submit() after shutdown began");
    queue_.push_back(Op{bytes, std::move(fn), state, next_serial_++});
  }
  cv_.notify_all();
  return OpHandle(state);
}

std::size_t IoThread::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

void IoThread::serve() {
  throttle::Pacer pacer(pacer_config_);
  std::optional<BytesPerSec> active_limit;

  while (true) {
    Op op;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) break;  // stopping and drained
      op = std::move(queue_.front());
      queue_.pop_front();
    }

    OpStats stats;
    stats.bytes = op.bytes;
    stats.start = std::chrono::steady_clock::now();
    throttle::RetryState retry(retry_policy_,
                               op.serial ^ 0x9e3779b97f4a7c15ULL);

    Bytes offset = 0;
    // Re-read the limit before each sub-request so setLimit() mid-operation
    // behaves like the paper's implementation (the I/O thread polls the
    // shared limit variable).
    while (offset < op.bytes || op.bytes == 0) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (limit_ != active_limit) {
          active_limit = limit_;
          pacer.setLimit(active_limit);
        }
      }
      const Bytes chunk =
          op.bytes == 0
              ? 0
              : std::min<Bytes>(op.bytes - offset,
                                pacer.limited()
                                    ? pacer.config().subrequest_size
                                    : op.bytes - offset);
      bool chunk_done = false;
      while (!chunk_done) {
        const auto t0 = std::chrono::steady_clock::now();
        const bool ok = op.fn(offset, chunk);
        const double actual =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count();
        ++stats.subrequests;
        if (ok) {
          const Seconds sleep = pacer.onSubrequestDone(chunk, actual);
          if (sleep > 0.0) {
            const auto s0 = std::chrono::steady_clock::now();
            std::this_thread::sleep_for(std::chrono::duration<double>(sleep));
            const double slept = std::chrono::duration<double>(
                                     std::chrono::steady_clock::now() - s0)
                                     .count();
            stats.slept_seconds += slept;
            // sleep_for overshoots at sub-millisecond granularity; bank the
            // overshoot as Case-B deficit so the long-run rate stays on
            // target.
            if (slept > sleep) pacer.onSubrequestDone(0, slept - sleep);
          }
          chunk_done = true;
          continue;
        }
        // Failed attempt: no payload moved, so its wire time -- and the
        // backoff below -- are pure Case-B debt against future sleeps
        // (same accounting as the simulated engine).
        pacer.onSubrequestDone(0, actual);
        const double elapsed = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() -
                                   stats.start)
                                   .count();
        const std::optional<Seconds> backoff = retry.nextBackoff(elapsed);
        if (!backoff) {
          stats.failed = true;
          break;
        }
        ++stats.retries;
        if (obs::TraceSink* const sink = obs::traceSink()) {
          sink->instant(
              "rtio", "rtio.retry", obs::track::kRtio,
              static_cast<std::uint32_t>(op.serial),
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            epoch_)
                  .count(),
              static_cast<double>(stats.retries));
        }
        if (*backoff > 0.0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(*backoff));
          pacer.onSubrequestDone(0, *backoff);
        }
      }
      if (stats.failed) break;
      offset += chunk;
      if (op.bytes == 0) break;
    }

    stats.end = std::chrono::steady_clock::now();
    if (obs::TraceSink* const sink = obs::traceSink()) {
      // rtio spans live on the wall clock (seconds since this thread's
      // construction): the real I/O thread has no virtual time.
      const sim::Time op_start =
          std::chrono::duration<double>(stats.start - epoch_).count();
      const sim::Time op_dur =
          std::chrono::duration<double>(stats.end - stats.start).count();
      sink->complete(
          "rtio",
          stats.failed ? "rtio.op.failed" : "rtio.op", obs::track::kRtio,
          static_cast<std::uint32_t>(op.serial), op_start, op_dur,
          static_cast<double>(stats.bytes));
      // Real-clock ops carry journeys too; the high bit keeps their id
      // space disjoint from the simulated engine's journeyOf() values.
      const std::uint64_t journey = (1ULL << 63) | op.serial;
      sink->flowStart("journey", "io", obs::track::kRtio,
                      static_cast<std::uint32_t>(op.serial), op_start,
                      journey);
      sink->flowEnd("journey", "io", obs::track::kRtio,
                    static_cast<std::uint32_t>(op.serial), op_start + op_dur,
                    journey);
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++totals_.ops;
      if (stats.failed) ++totals_.failed_ops;
      totals_.bytes += stats.bytes;
      totals_.subrequests += stats.subrequests;
      totals_.retries += stats.retries;
      totals_.slept_seconds += stats.slept_seconds;
    }
    {
      std::lock_guard<std::mutex> lock(op.state->mutex);
      op.state->stats = stats;
      op.state->done = true;
    }
    op.state->cv.notify_all();
  }
}

IoThread::Totals IoThread::totals() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return totals_;
}

void IoThread::exportMetrics(obs::MetricsRegistry& registry) const {
  const Totals t = totals();
  registry.addCounter("rtio.ops", t.ops);
  registry.addCounter("rtio.failed_ops", t.failed_ops);
  registry.addCounter("rtio.bytes", t.bytes);
  registry.addCounter("rtio.subrequests", t.subrequests);
  registry.addCounter("rtio.retries", t.retries);
  registry.setGauge("rtio.slept_seconds", t.slept_seconds);
}

}  // namespace iobts::rtio
