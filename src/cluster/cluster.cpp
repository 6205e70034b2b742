#include "cluster/cluster.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace iobts::cluster {

struct Cluster::Job {
  JobSpec spec;
  JobResult result;
  pfs::StreamId stream = 0;
  std::unique_ptr<tmio::Tracer> tracer;  // async jobs only (estimates B)
  std::unique_ptr<mpisim::World> world;
  bool limiting_enabled = false;
  double limit_tolerance = 1.1;
  sim::Time limit_poll = 0.25;
  // Policy bookkeeping: latest per-rank required bandwidth.
  std::vector<double> last_required;
  std::size_t records_consumed = 0;
};

Cluster::Cluster(sim::Simulation& simulation, ClusterConfig config)
    : sim_(simulation), config_(config), all_done_(simulation) {
  IOBTS_CHECK(config_.nodes > 0, "cluster needs nodes");
  link_ = std::make_unique<pfs::SharedLink>(sim_, config_.pfs);
  free_nodes_ = config_.nodes;
}

Cluster::~Cluster() = default;

JobId Cluster::submit(JobSpec spec) {
  IOBTS_CHECK(!started_, "submit() before start()");
  IOBTS_CHECK(spec.nodes > 0 && spec.nodes <= config_.nodes,
              "job node count must fit the cluster");
  IOBTS_CHECK(spec.loops > 0, "job needs at least one loop");
  auto job = std::make_unique<Job>();
  job->spec = std::move(spec);
  job->result.submit = job->spec.submit_time;
  // One stream per job, weighted by its node count (paper: fair bandwidth
  // distribution according to the number of nodes).
  job->stream = link_->createStream("job." + job->spec.name,
                                    static_cast<double>(job->spec.nodes));
  link_->setRecordStream(job->stream, true);
  jobs_.push_back(std::move(job));
  const JobId id = jobs_.size() - 1;
  if (obs::TraceSink* const sink = obs::traceSink()) {
    sink->setProcessName(obs::track::kCluster, "cluster scheduler");
    sink->setThreadName(obs::track::kCluster, static_cast<std::uint32_t>(id),
                        jobs_.back()->spec.name);
  }
  return id;
}

void Cluster::enableContentionLimiting(JobId id, double tolerance,
                                       sim::Time poll_interval) {
  IOBTS_CHECK(id < jobs_.size(), "unknown job");
  IOBTS_CHECK(!started_, "configure before start()");
  Job& job = *jobs_[id];
  IOBTS_CHECK(job.spec.io == JobIo::Async,
              "contention limiting targets asynchronous jobs");
  IOBTS_CHECK(tolerance > 0.0 && poll_interval > 0.0, "bad policy params");
  job.limiting_enabled = true;
  job.limit_tolerance = tolerance;
  job.limit_poll = poll_interval;
}

void Cluster::start() {
  IOBTS_CHECK(!started_, "start() may only be called once");
  started_ = true;
  if (jobs_.empty()) {
    all_done_.fire();
    return;
  }
  for (JobId id = 0; id < jobs_.size(); ++id) {
    sim_.spawn(submitter(id), {.name = "submit." + jobs_[id]->spec.name});
  }
}

sim::Task<void> Cluster::join() { co_await all_done_.wait(); }

sim::Task<void> Cluster::submitter(JobId id) {
  Job& job = *jobs_[id];
  if (job.spec.submit_time > 0.0) co_await sim_.delay(job.spec.submit_time);
  pending_queue_.push_back(id);
  tryStartJobs();
}

void Cluster::tryStartJobs() {
  // Strict FCFS, no backfill: the head of the queue blocks smaller jobs.
  while (!pending_queue_.empty()) {
    const JobId id = pending_queue_.front();
    Job& job = *jobs_[id];
    if (job.spec.nodes > free_nodes_) break;
    pending_queue_.erase(pending_queue_.begin());
    free_nodes_ -= job.spec.nodes;
    job.result.start = sim_.now();
    if (obs::TraceSink* const sink = obs::traceSink()) {
      sink->instant("cluster", "job.start", obs::track::kCluster,
                    static_cast<std::uint32_t>(id), sim_.now(),
                    static_cast<double>(job.spec.nodes));
    }

    mpisim::WorldConfig wcfg;
    wcfg.ranks = job.spec.nodes;  // one aggregated rank per node
    wcfg.name = "job." + job.spec.name;
    wcfg.shared_stream = job.stream;
    wcfg.seed = config_.seed ^ hashName(job.spec.name);
    if (job.spec.io == JobIo::Async) {
      tmio::TracerConfig tcfg;
      tcfg.strategy = tmio::StrategyKind::None;  // observe only
      tcfg.apply_limits = false;
      tcfg.overhead = {};  // the cluster study ignores tracer overhead
      tcfg.overhead.intercept_per_call = 0.0;
      tcfg.overhead.finalize_base = 0.0;
      tcfg.overhead.finalize_per_stage = 0.0;
      tcfg.overhead.finalize_per_record = 0.0;
      tcfg.overhead.finalize_per_rank = 0.0;
      job.tracer = std::make_unique<tmio::Tracer>(tcfg);
      job.last_required.assign(job.spec.nodes, 0.0);
    }
    job.world = std::make_unique<mpisim::World>(
        sim_, *link_, store_, wcfg, job.tracer.get());
    if (job.tracer) job.tracer->attach(*job.world);
    job.world->launch(makeProgram(id));
    IOBTS_LOG_DEBUG() << "job " << job.spec.name << " started on "
                      << job.spec.nodes << " nodes at t=" << sim_.now();

    sim_.spawn(jobWatcher(id), {.name = "watch." + job.spec.name});
    if (job.limiting_enabled) {
      sim_.spawn(contentionMonitor(id, job.limit_tolerance, job.limit_poll),
                 {.name = "limit." + job.spec.name});
    }
  }
}

sim::Task<void> Cluster::jobWatcher(JobId id) {
  Job& job = *jobs_[id];
  co_await job.world->join();
  free_nodes_ += job.spec.nodes;
  link_->setStreamCap(job.stream, std::nullopt);  // drop any leftover cap
  job.result.end = sim_.now();
  if (obs::TraceSink* const sink = obs::traceSink()) {
    // Job lifetime as a genuine virtual-time span.
    sink->complete("cluster", "job", obs::track::kCluster,
                   static_cast<std::uint32_t>(id), job.result.start,
                   job.result.end - job.result.start,
                   static_cast<double>(job.spec.nodes));
  }
  tryStartJobs();
  if (++finished_jobs_ == static_cast<int>(jobs_.size())) all_done_.fire();
}

sim::Task<void> Cluster::contentionMonitor(JobId id, double tolerance,
                                           sim::Time poll_interval) {
  Job& job = *jobs_[id];
  bool capped = false;
  while (!job.result.finished()) {
    co_await sim_.delay(poll_interval);
    if (job.result.finished() || job.tracer == nullptr) break;

    // Fold new tracer records into the per-rank estimates.
    const auto& records = job.tracer->phaseRecords();
    for (; job.records_consumed < records.size(); ++job.records_consumed) {
      const tmio::PhaseRecord& rec = records[job.records_consumed];
      job.last_required[rec.rank] = rec.required;
    }
    double estimate = 0.0;
    for (const double b : job.last_required) estimate += b;

    const bool contended = link_->contended(pfs::Channel::Write);
    if (contended && estimate > 0.0) {
      const BytesPerSec cap = estimate * tolerance;
      link_->setStreamCap(job.stream, cap);
      if (!capped) {
        IOBTS_LOG_DEBUG() << "capping job " << job.spec.name << " at "
                          << formatBandwidth(cap);
        if (obs::TraceSink* const sink = obs::traceSink()) {
          sink->instant("cluster", "job.cap", obs::track::kCluster,
                        static_cast<std::uint32_t>(id), sim_.now(), cap);
        }
      }
      capped = true;
    } else if (capped && !contended) {
      link_->setStreamCap(job.stream, std::nullopt);
      capped = false;
      if (obs::TraceSink* const sink = obs::traceSink()) {
        sink->instant("cluster", "job.uncap", obs::track::kCluster,
                      static_cast<std::uint32_t>(id), sim_.now(), 0.0);
      }
    }
  }
}

mpisim::World::RankProgram Cluster::makeProgram(JobId id) {
  const JobSpec& spec = jobs_[id]->spec;
  const std::string prefix = "/pfs/" + spec.name + ".out";
  return [spec, prefix](mpisim::RankCtx& ctx) -> sim::Task<void> {
    auto file = ctx.open(prefix + "." + std::to_string(ctx.rank()));
    mpisim::Request pending;
    for (int loop = 0; loop < spec.loops; ++loop) {
      co_await ctx.compute(spec.compute_seconds);
      if (pending.valid()) {
        co_await ctx.wait(pending);
        pending = {};
      }
      std::uint64_t tag_seed = static_cast<std::uint64_t>(loop) + 1;
      const pfs::ContentTag tag = splitmix64(tag_seed);
      if (spec.io == JobIo::Async) {
        // Write the burst in the background of the next compute phase.
        pending = co_await file.iwriteAt(0, spec.write_bytes_per_node, tag);
      } else {
        co_await file.writeAt(0, spec.write_bytes_per_node, tag);
      }
    }
    if (pending.valid()) co_await ctx.wait(pending);
  };
}

const JobResult& Cluster::result(JobId id) const {
  IOBTS_CHECK(id < jobs_.size(), "unknown job");
  return jobs_[id]->result;
}

const JobSpec& Cluster::spec(JobId id) const {
  IOBTS_CHECK(id < jobs_.size(), "unknown job");
  return jobs_[id]->spec;
}

const StepSeries& Cluster::jobWriteRateSeries(JobId id) const {
  IOBTS_CHECK(id < jobs_.size(), "unknown job");
  return link_->streamRateSeries(jobs_[id]->stream, pfs::Channel::Write);
}

pfs::StreamId Cluster::jobStream(JobId id) const {
  IOBTS_CHECK(id < jobs_.size(), "unknown job");
  return jobs_[id]->stream;
}

void Cluster::exportMetrics(obs::MetricsRegistry& registry) const {
  std::uint64_t finished = 0;
  for (const auto& job : jobs_) {
    if (job->result.finished()) ++finished;
  }
  registry.addCounter("cluster.jobs", jobs_.size());
  registry.addCounter("cluster.jobs_finished", finished);
  registry.setGauge("cluster.free_nodes", static_cast<double>(free_nodes_));
  registry.setGauge("cluster.pending_jobs",
                    static_cast<double>(pending_queue_.size()));
  if (sim_.isSharded()) {
    registry.setGauge("cluster.shard", static_cast<double>(sim_.shardId()));
  }
}

}  // namespace iobts::cluster
