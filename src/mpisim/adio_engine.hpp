// The per-rank I/O thread (the paper's ADIO server).
//
// The MPICH extension redirects every read/write ADIO call to a dedicated
// thread through a client/server scheme; the thread executes the operations
// *synchronously*, one at a time, while the application overlaps its compute
// phase -- and it is this thread that enforces the bandwidth limit by
// splitting requests into sub-requests and pacing them (throttle::Pacer).
//
// Here the "thread" is a coroutine process per rank; the mailbox is the
// client/server queue; completion is signalled through the request's trigger
// (the generalized-request mechanism).
//
// Resilience: transfers that come back Faulted (see fault::FaultPlan) are
// retried under a throttle::RetryPolicy -- the failed attempt's wire time
// and the backoff sleep are banked as pacing deficit so the paced schedule
// survives the retry. An exhausted budget fails the request MPI-style
// (error-in-status; blocking calls translate it to an IoFailure throw at the
// World layer). abort() cancels still-queued requests for failed-job
// teardown.
#pragma once

#include <optional>

#include "mpisim/hooks.hpp"
#include "mpisim/request.hpp"
#include "pfs/burst_buffer.hpp"
#include "pfs/file_store.hpp"
#include "pfs/shared_link.hpp"
#include "sim/sync.hpp"
#include "throttle/pacer.hpp"
#include "throttle/retry.hpp"

namespace iobts::mpisim {

class AdioEngine {
 public:
  struct Job {
    std::shared_ptr<detail::RequestState> request;  // null = stop marker
    pfs::FileStore::Handle file;  // resolved once, at RankCtx::open
    pfs::ContentTag tag = 0;
  };

  AdioEngine(sim::Simulation& simulation, pfs::SharedLink& link,
             pfs::FileStore& store, pfs::StreamId stream,
             throttle::PacerConfig pacer_config, IoHooks* hooks,
             pfs::BurstBuffer* burst_buffer = nullptr,
             throttle::RetryPolicy retry_policy = {});

  /// Enqueue a request for the I/O thread (FIFO).
  void submit(Job job);

  /// Drain outstanding jobs, then terminate serve().
  void requestStop();

  /// Fail every still-queued request with IoError::Cancelled (waiters are
  /// released; hooks are NOT fired -- the operations never ran), then
  /// terminate serve(). The in-flight operation, if any, runs to completion
  /// first. Used for failed-job teardown; further submits are rejected.
  void abort();

  /// User-level bandwidth control (the paper's MPI extension knob). Read
  /// and write throughput are limited independently: their phases have
  /// different overlap windows, so one shared limit would oscillate.
  void setLimit(pfs::Channel channel, std::optional<BytesPerSec> limit) {
    pacer(channel).setLimit(limit);
  }
  std::optional<BytesPerSec> limit(pfs::Channel channel) const noexcept {
    return pacers_[static_cast<int>(channel)].limit();
  }

  std::size_t queuedJobs() const noexcept { return mailbox_.size(); }

  /// Resilience counters for this rank's I/O thread.
  struct Stats {
    std::uint64_t retries = 0;    // faulted transfer attempts retried
    std::uint64_t failures = 0;   // requests failed (budget exhausted)
    std::uint64_t cancelled = 0;  // requests cancelled by abort()
  };
  const Stats& stats() const noexcept { return stats_; }

  /// Lifetime pacing totals for one channel's Pacer (observability).
  const throttle::PacerStats& pacerStats(pfs::Channel channel) const noexcept {
    return pacers_[static_cast<int>(channel)].stats();
  }

  const throttle::RetryPolicy& retryPolicy() const noexcept {
    return retry_policy_;
  }

  /// The I/O thread body; the World spawns this as a process.
  sim::Task<void> serve();

 private:
  sim::Task<void> execute(Job& job);
  /// One retry after a faulted attempt: draw the backoff, count and trace
  /// the retry, sleep the backoff off (a paced request banks it in its
  /// `pacer`). Yields false when the request is out of retries.
  sim::Task<bool> retryStep(throttle::RetryState& retry,
                            sim::Time first_attempt, std::uint64_t journey,
                            throttle::Pacer* pacer);

  throttle::Pacer& pacer(pfs::Channel channel) noexcept {
    return pacers_[static_cast<int>(channel)];
  }

  sim::Simulation& sim_;
  pfs::SharedLink& link_;
  pfs::FileStore& store_;
  pfs::StreamId stream_;
  pfs::BurstBuffer* burst_buffer_;  // optional; owned by the RankCtx
  throttle::Pacer pacers_[pfs::kChannels];
  throttle::RetryPolicy retry_policy_{};
  IoHooks* hooks_;
  sim::Mailbox<Job> mailbox_;
  bool stopping_ = false;
  Stats stats_{};
};

}  // namespace iobts::mpisim
