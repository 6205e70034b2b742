// Batch-cluster simulator (the paper's Fig. 1/2 ElastiSim experiment).
//
// Models a cluster in the Lichtenberg configuration: N exclusive nodes, an
// FCFS scheduler, and one shared PFS. Each job runs a HACC-IO-like loop
// (compute phase, then a write burst) with one mini-MPI rank per node; all
// ranks of a job share a single PFS stream whose weight equals the job's
// node count, so an unrestricted link distributes bandwidth "fairly
// according to the number of nodes" exactly as in the paper.
//
// The paper's policy is available per async job via
// enableContentionLimiting(): a monitor watches the link; while it is
// contended the job's stream is capped at tolerance x its required
// bandwidth (estimated online by an attached TMIO tracer); when contention
// clears, the cap is lifted. Under a fault plan (ClusterConfig::fault_plan)
// the monitor re-estimates against the link's *effective* (degraded)
// capacity, and a job whose ranks exhaust their retry budget fails with a
// JobResult failure state -- optionally requeued by the FCFS scheduler up
// to JobSpec::max_resubmits times.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fault/plan.hpp"
#include "mpisim/world.hpp"
#include "pfs/file_store.hpp"
#include "pfs/shared_link.hpp"
#include "sim/sync.hpp"
#include "throttle/retry.hpp"
#include "tmio/tracer.hpp"

namespace iobts::obs {
class MetricsRegistry;
}  // namespace iobts::obs

namespace iobts::cluster {

struct ClusterConfig {
  int nodes = 500;           // Lichtenberg-like (Sec. II)
  int cores_per_node = 96;
  pfs::LinkConfig pfs{};     // Fig. 1 uses a 120 GB/s PFS
  std::uint64_t seed = 1;
  /// Retry/backoff policy handed to every job's I/O threads.
  throttle::RetryPolicy retry{};
  /// Optional fault plan installed on the PFS link at start(); must outlive
  /// the cluster. Straggler stream ids refer to job streams, which are
  /// created in submit() order (use jobStream() to look them up).
  const fault::FaultPlan* fault_plan = nullptr;
};

enum class JobIo : int { Sync, Async };

struct JobSpec {
  std::string name;
  int nodes = 16;
  sim::Time submit_time = 0.0;
  JobIo io = JobIo::Sync;

  // HACC-IO-like phase structure per node-rank.
  int loops = 5;
  Bytes write_bytes_per_node = 4 * kGB;
  Seconds compute_seconds = 20.0;

  /// Times a job that fails (ranks exhausting their I/O retry budget) is
  /// put back on the FCFS queue before the failure becomes final.
  int max_resubmits = 0;

  /// Application-level checkpoint cadence, in loops (0 = never). Every
  /// `checkpoint_interval` completed loops the job drains its in-flight
  /// burst, barriers, and records its progress; a requeued attempt then
  /// resumes from the last recorded checkpoint instead of loop 0. With the
  /// default 0 the rank program is byte-identical to the uncheckpointed
  /// one (the golden cluster digests do not move).
  int checkpoint_interval = 0;
};

using JobId = std::size_t;

struct JobResult {
  sim::Time submit = sim::kNoTime;
  sim::Time start = sim::kNoTime;  // of the final attempt
  sim::Time end = sim::kNoTime;
  /// Final outcome: true when the last permitted attempt still had ranks
  /// fail their I/O past the retry budget.
  bool failed = false;
  /// Failed ranks of the final attempt.
  int failed_ranks = 0;
  /// Resubmits consumed (<= JobSpec::max_resubmits).
  int resubmits = 0;
  /// Loops covered by the job's last recorded application checkpoint; a
  /// requeued attempt starts here (0 with checkpointing disabled).
  int checkpointed_loops = 0;
  /// Transfer retries summed over all ranks and attempts.
  std::uint64_t io_retries = 0;

  bool started() const noexcept { return start >= 0.0; }
  bool finished() const noexcept { return end >= 0.0; }
  bool succeeded() const noexcept { return finished() && !failed; }
  Seconds runtime() const noexcept { return end - start; }
};

class Cluster {
 public:
  Cluster(sim::Simulation& simulation, ClusterConfig config);
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;
  ~Cluster();

  /// Register a job (before start()).
  JobId submit(JobSpec spec);

  /// Apply the paper's limit-during-contention policy to an async job:
  /// while the write channel is contended, cap the job's stream at
  /// tolerance x its (TMIO-estimated) required bandwidth.
  void enableContentionLimiting(JobId job, double tolerance = 1.1,
                                sim::Time poll_interval = 0.25);

  /// Spawn the scheduler; drive with Simulation::run().
  void start();

  /// Await completion of every submitted job.
  sim::Task<void> join();

  const JobResult& result(JobId job) const;
  const JobSpec& spec(JobId job) const;
  std::size_t jobCount() const noexcept { return jobs_.size(); }

  /// The job's allocated write bandwidth over time (Fig. 2 per-job series).
  const StepSeries& jobWriteRateSeries(JobId job) const;

  /// The TMIO tracer observing an async job (nullptr for sync jobs or jobs
  /// that have not started); used by the GlobalCoordinator.
  const tmio::Tracer* jobTracer(JobId job) const;
  pfs::StreamId jobStream(JobId job) const;
  bool allFinished() const noexcept { return all_done_.fired(); }

  pfs::SharedLink& link() noexcept { return *link_; }
  sim::Simulation& sim() noexcept { return sim_; }
  const ClusterConfig& config() const noexcept { return config_; }
  int freeNodes() const noexcept { return free_nodes_; }

  /// Publish scheduler totals (jobs finished/failed, requeues, retries)
  /// into `registry` under "cluster.*".
  void exportMetrics(obs::MetricsRegistry& registry) const;

 private:
  struct Job;

  sim::Task<void> schedulerLoop();
  sim::Task<void> submitter(JobId id);
  sim::Task<void> jobWatcher(JobId id);
  sim::Task<void> contentionMonitor(JobId id, double tolerance,
                                    sim::Time poll_interval);
  void tryStartJobs();
  mpisim::World::RankProgram makeProgram(JobId id);

  sim::Simulation& sim_;
  ClusterConfig config_;
  std::unique_ptr<pfs::SharedLink> link_;
  pfs::FileStore store_;
  std::vector<std::unique_ptr<Job>> jobs_;
  std::vector<JobId> pending_queue_;  // FCFS order of submitted, unstarted
  int free_nodes_ = 0;
  bool started_ = false;
  int finished_jobs_ = 0;
  sim::Trigger all_done_;
};

}  // namespace iobts::cluster
