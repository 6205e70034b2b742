#include "mpisim/adio_engine.hpp"

#include "obs/trace.hpp"
#include "util/check.hpp"

namespace iobts::mpisim {

AdioEngine::AdioEngine(sim::Simulation& simulation, pfs::SharedLink& link,
                       pfs::FileStore& store, pfs::StreamId stream,
                       throttle::PacerConfig pacer_config, IoHooks* hooks,
                       pfs::BurstBuffer* burst_buffer,
                       throttle::RetryPolicy retry_policy)
    : sim_(simulation),
      link_(link),
      store_(store),
      stream_(stream),
      burst_buffer_(burst_buffer),
      pacers_{throttle::Pacer(pacer_config), throttle::Pacer(pacer_config)},
      retry_policy_(retry_policy),
      hooks_(hooks),
      mailbox_(simulation) {
  retry_policy_.validate();
}

void AdioEngine::submit(Job job) {
  IOBTS_CHECK(!stopping_, "submit after stop");
  IOBTS_CHECK(job.request != nullptr, "cannot submit a null request");
  mailbox_.send(std::move(job));
}

void AdioEngine::requestStop() {
  if (stopping_) return;
  stopping_ = true;
  mailbox_.send(Job{});  // stop marker drains behind queued work
}

void AdioEngine::abort() {
  // Fail everything still queued. A pre-existing stop marker (requestStop
  // racing an abort) is simply dropped; a fresh one is sent below either
  // way. The waiters are released through the queue like any completion,
  // but hooks are not fired: the cancelled operations never reached the
  // I/O thread, so the tracer must not see them.
  while (std::optional<Job> job = mailbox_.tryRecv()) {
    if (!job->request) continue;
    RequestInfo& info = job->request->info;
    info.error = IoError::Cancelled;
    info.completed = true;
    ++stats_.cancelled;
    job->request->done.fire();
  }
  stopping_ = true;
  mailbox_.send(Job{});  // terminate serve() ahead of any new work
}

sim::Task<void> AdioEngine::serve() {
  while (true) {
    Job job = co_await mailbox_.recv();
    if (!job.request) break;  // stop marker
    co_await execute(job);
  }
}

sim::Task<void> AdioEngine::execute(Job& job) {
  detail::RequestState& state = *job.request;
  RequestInfo& info = state.info;
  info.io_start = sim_.now();

  const std::uint64_t journey = journeyOf(info.rank, info.id);
  if (obs::TraceSink* const sink = obs::traceSink()) {
    // Queue span: MPI call entry (submit) to the engine picking the job up.
    // The flow chain starts here, inside this span.
    const sim::Time queued =
        info.submit_time == sim::kNoTime ? info.io_start : info.submit_time;
    sink->complete("adio", "adio.queue", obs::track::kAdio, stream_, queued,
                   info.io_start - queued, static_cast<double>(info.bytes));
    if (journey != 0) {
      sink->flowStart("journey", "io", obs::track::kAdio, stream_, queued,
                      journey);
    }
  }

  const pfs::Channel channel = channelOf(info.op);
  throttle::Pacer& pacer_ = pacer(channel);
  // Per-operation retry bookkeeping, seeded deterministically from the
  // request identity so jittered backoff schedules are reproducible and
  // independent of concurrent operations.
  throttle::RetryState retry(
      retry_policy_,
      (static_cast<std::uint64_t>(info.rank + 1) * 0x9e3779b97f4a7c15ULL) ^
          (static_cast<std::uint64_t>(stream_) << 32) ^ info.id);
  const sim::Time first_attempt = sim_.now();
  bool failed = false;

  if (burst_buffer_ != nullptr && isWrite(info.op)) {
    // Burst-buffer path: absorb at node-local speed; the background drain
    // (with its drain_limit) replaces the per-request pacing. Faults hit
    // the drain's PFS transfers, not this node-local copy.
    co_await burst_buffer_->write(info.bytes);
  } else if (isAsync(info.op)) {
    // Steps 1-3 of the paper's limiting algorithm: split, execute blocking,
    // sleep/bank per sub-request. Only *asynchronous* MPI-IO is limited --
    // a blocking operation's duration feeds straight into the runtime, so
    // pacing it would only hurt (Sec. II).
    for (const Bytes chunk : pacer_.subrequests(info.bytes)) {
      bool chunk_done = false;
      while (!chunk_done) {
        const sim::Time t0 = sim_.now();
        const pfs::TransferResult r =
            co_await link_.transfer(channel, stream_, chunk, journey);
        const Seconds actual = sim_.now() - t0;
        if (obs::TraceSink* const sink = obs::traceSink()) {
          sink->complete("adio", "adio.subreq", obs::track::kAdio, stream_,
                         t0, actual, static_cast<double>(chunk));
          if (journey != 0) {
            sink->flowStep("journey", "io", obs::track::kAdio, stream_, t0,
                           journey);
          }
        }
        if (r.ok()) {
          const Seconds sleep = pacer_.onSubrequestDone(chunk, actual);
          if (sleep > 0.0) {
            const sim::Time sleep_start = sim_.now();
            co_await sim_.delay(sleep);
            if (obs::TraceSink* const sink = obs::traceSink()) {
              sink->complete("adio", "adio.pace", obs::track::kAdio, stream_,
                             sleep_start, sleep, pacer_.deficit());
              if (journey != 0) {
                sink->flowStep("journey", "io", obs::track::kAdio, stream_,
                               sleep_start, journey);
              }
            }
          }
          chunk_done = true;
          continue;
        }
        // Faulted attempt: the wire time was spent but no payload moved.
        // Bank it -- and, in retryStep, the backoff sleep -- as Case-B
        // deficit so the paced elapsed time stays ~max(required, actual)
        // across the retry instead of paying the pacing sleep on top.
        pacer_.onSubrequestDone(0, actual);
        const bool again =
            co_await retryStep(retry, first_attempt, journey, &pacer_);
        if (!again) {
          failed = true;
          break;
        }
      }
      if (failed) break;
    }
  } else {
    // Blocking operations retry too -- unpaced, so no deficit to keep.
    while (true) {
      const pfs::TransferResult r =
          co_await link_.transfer(channel, stream_, info.bytes, journey);
      if (r.ok()) break;
      const bool again =
          co_await retryStep(retry, first_attempt, journey, nullptr);
      if (!again) {
        failed = true;
        break;
      }
    }
  }
  info.retries = retry.retriesUsed();

  if (failed) {
    info.error = IoError::RetriesExhausted;
    ++stats_.failures;
  } else if (isWrite(info.op)) {
    store_.write(job.file, info.offset, info.bytes, job.tag);
  }

  info.io_end = sim_.now();
  info.completed = true;
  if (obs::TraceSink* const sink = obs::traceSink()) {
    // The whole request as one span on the rank's stream track: admission
    // to completion, including pacing sleeps, retries, and backoffs.
    sink->complete("adio",
                   failed ? "adio.request.failed"
                          : (isWrite(info.op) ? "adio.request.write"
                                              : "adio.request.read"),
                   obs::track::kAdio, stream_, info.io_start,
                   info.io_end - info.io_start,
                   static_cast<double>(info.bytes));
    // End of the journey: the request span's closing edge. The walker (and
    // Perfetto's "bp":"e" binding) treats span bounds as inclusive.
    if (journey != 0) {
      sink->flowEnd("journey", "io", obs::track::kAdio, stream_, info.io_end,
                    journey);
    }
  }
  if (hooks_) hooks_->onComplete(info);
  state.done.fire();  // MPI_Grequest_complete
}

sim::Task<bool> AdioEngine::retryStep(throttle::RetryState& retry,
                                      sim::Time first_attempt,
                                      std::uint64_t journey,
                                      throttle::Pacer* pacer) {
  const std::optional<Seconds> backoff =
      retry.nextBackoff(sim_.now() - first_attempt);
  if (!backoff) co_return false;
  ++stats_.retries;
  if (obs::TraceSink* const sink = obs::traceSink()) {
    sink->instant("adio", "adio.retry", obs::track::kAdio, stream_,
                  sim_.now(), static_cast<double>(retry.retriesUsed()));
  }
  if (*backoff > 0.0) {
    const sim::Time backoff_start = sim_.now();
    co_await sim_.delay(*backoff);
    if (pacer != nullptr) pacer->onSubrequestDone(0, *backoff);
    if (obs::TraceSink* const sink = obs::traceSink()) {
      sink->complete("adio", "adio.backoff", obs::track::kAdio, stream_,
                     backoff_start, *backoff,
                     static_cast<double>(retry.retriesUsed()));
      if (journey != 0) {
        sink->flowStep("journey", "io", obs::track::kAdio, stream_,
                       backoff_start, journey);
      }
    }
  }
  co_return true;
}

}  // namespace iobts::mpisim
