#include "mpisim/world.hpp"

#include <cmath>
#include <limits>

#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/log.hpp"
#include "util/string_util.hpp"

namespace iobts::mpisim {

// ---------------------------------------------------------------------------
// RankCtx

RankCtx::RankCtx(World& world, int rank)
    : world_(world),
      sim_(world.sim_),
      rank_(rank),
      stream_(world.config_.shared_stream
                  ? *world.config_.shared_stream
                  : world.link_.createStream(world.config_.name + ".rank" +
                                             std::to_string(rank))),
      jitter_rng_(world.config_.seed,
                  "jitter/" + world.config_.name + "/" + std::to_string(rank)) {
  if (world.config_.burst_buffer) {
    burst_buffer_ = std::make_unique<pfs::BurstBuffer>(
        sim_, world.link_, stream_, *world.config_.burst_buffer);
  }
  engine_ = std::make_unique<AdioEngine>(
      sim_, world.link_, world.store_, stream_, world.config_.pacer,
      world.hooks_, burst_buffer_.get(), world.config_.retry);
}

int RankCtx::size() const noexcept { return world_.config_.ranks; }

sim::Time RankCtx::now() const noexcept { return sim_.now(); }

sim::Task<void> RankCtx::compute(Seconds duration) {
  IOBTS_CHECK(duration >= 0.0, "compute duration must be non-negative");
  Seconds d = duration;
  if (world_.config_.compute_jitter_sigma > 0.0) {
    d *= jitter_rng_.lognormalFactor(world_.config_.compute_jitter_sigma);
  }
  const sim::Time t0 = sim_.now();
  co_await sim_.delay(d);
  times_.compute += sim_.now() - t0;
}

sim::Task<void> RankCtx::collective(Bytes bytes, int stages) {
  const sim::Time t0 = sim_.now();
  co_await world_.barrier_->arriveAndWait();
  const Seconds cost =
      static_cast<double>(stages) *
      (world_.config_.collective_alpha +
       static_cast<double>(bytes) * world_.config_.collective_beta_per_byte);
  if (cost > 0.0) co_await sim_.delay(cost);
  times_.comm += sim_.now() - t0;
}

sim::Task<void> RankCtx::barrier() {
  return collective(0, treeStages(size()));
}

sim::Task<void> RankCtx::bcast(Bytes bytes) {
  return collective(bytes, treeStages(size()));
}

sim::Task<void> RankCtx::allreduce(Bytes bytes) {
  return collective(bytes, 2 * treeStages(size()));
}

sim::Task<void> RankCtx::recv(sim::Semaphore& channel) {
  const sim::Time t0 = sim_.now();
  co_await channel.acquire();
  times_.comm += sim_.now() - t0;
}

File RankCtx::open(const std::string& path) {
  return File(this, world_.store_.open(path));
}

sim::Task<void> RankCtx::chargeIntercept() {
  if (world_.hooks_ == nullptr) co_return;
  const Seconds overhead = world_.hooks_->interceptOverhead();
  if (overhead > 0.0) {
    times_.overhead_peri += overhead;
    co_await sim_.delay(overhead);
  }
}

sim::Task<Request> RankCtx::submitIo(pfs::FileStore::Handle file, IoOp op,
                                     Bytes offset, Bytes len,
                                     pfs::ContentTag tag) {
  auto state = detail::makeRequestState(sim_);
  RequestInfo& info = state->info;
  info.id = next_request_id_++;
  info.rank = rank_;
  info.op = op;
  info.bytes = len;
  info.offset = offset;
  info.submit_time = sim_.now();

  co_await chargeIntercept();
  if (world_.hooks_) world_.hooks_->onSubmit(info);
  engine_->submit(AdioEngine::Job{state, file, tag});
  co_return Request(state);
}

sim::Task<void> RankCtx::blockingIo(pfs::FileStore::Handle file, IoOp op,
                                    Bytes offset, Bytes len,
                                    pfs::ContentTag tag) {
  auto state = detail::makeRequestState(sim_);
  RequestInfo& info = state->info;
  info.id = next_request_id_++;
  info.rank = rank_;
  info.op = op;
  info.bytes = len;
  info.offset = offset;
  info.submit_time = sim_.now();

  const sim::Time t0 = sim_.now();
  co_await chargeIntercept();
  if (world_.hooks_) world_.hooks_->onSyncStart(info);
  engine_->submit(AdioEngine::Job{state, file, tag});
  co_await state->done.wait();
  times_.sync_io += sim_.now() - t0;
  if (world_.hooks_) world_.hooks_->onSyncEnd(info);
  if (!info.ok()) throw IoFailure(info);
}

sim::Task<void> RankCtx::wait(Request& request) {
  IOBTS_CHECK(request.valid(), "MPI_Wait on an invalid request");
  detail::RequestState& state = request.state();
  if (world_.hooks_) world_.hooks_->onWaitEnter(state.info);
  co_await chargeIntercept();
  const sim::Time t0 = sim_.now();
  if (!state.info.completed) {
    co_await state.done.wait();
  }
  const Seconds blocked = sim_.now() - t0;
  times_.wait_blocked += blocked;
  if (world_.hooks_) world_.hooks_->onWaitExit(state.info, blocked);
}

sim::Task<void> RankCtx::waitAll(std::span<Request> requests) {
  for (auto& request : requests) {
    if (!request.valid()) continue;
    co_await wait(request);
  }
}

void RankCtx::setIoLimit(std::optional<BytesPerSec> limit) {
  engine_->setLimit(pfs::Channel::Read, limit);
  engine_->setLimit(pfs::Channel::Write, limit);
}

void RankCtx::setIoLimit(pfs::Channel channel,
                         std::optional<BytesPerSec> limit) {
  engine_->setLimit(channel, limit);
}

std::optional<BytesPerSec> RankCtx::ioLimit(pfs::Channel channel) const {
  return engine_->limit(channel);
}

const AdioEngine::Stats& RankCtx::ioStats() const noexcept {
  return engine_->stats();
}

sim::Task<void> RankCtx::finalize(bool aborted) {
  if (aborted) {
    engine_->abort();  // cancel queued I/O; nobody is left to wait on it
  } else {
    engine_->requestStop();
  }
  co_await engine_proc_.join();
  if (burst_buffer_) {
    // Drain the node-local buffer before declaring the rank done.
    co_await burst_buffer_->flush();
    burst_buffer_->requestStop();
    co_await drain_proc_.join();
  }
  if (world_.hooks_) {
    const Seconds post = world_.hooks_->onFinalize(rank_);
    if (post > 0.0) {
      times_.overhead_post += post;
      co_await sim_.delay(post);
    }
  }
}

// ---------------------------------------------------------------------------
// File

sim::Task<void> File::writeAt(Bytes offset, Bytes len, pfs::ContentTag tag) {
  IOBTS_CHECK(ctx_ != nullptr, "operation on a default-constructed File");
  return ctx_->blockingIo(file_, IoOp::WriteAt, offset, len, tag);
}

sim::Task<void> File::readAt(Bytes offset, Bytes len) {
  IOBTS_CHECK(ctx_ != nullptr, "operation on a default-constructed File");
  return ctx_->blockingIo(file_, IoOp::ReadAt, offset, len, 0);
}

sim::Task<Request> File::iwriteAt(Bytes offset, Bytes len,
                                  pfs::ContentTag tag) {
  IOBTS_CHECK(ctx_ != nullptr, "operation on a default-constructed File");
  return ctx_->submitIo(file_, IoOp::IWriteAt, offset, len, tag);
}

sim::Task<Request> File::ireadAt(Bytes offset, Bytes len) {
  IOBTS_CHECK(ctx_ != nullptr, "operation on a default-constructed File");
  return ctx_->submitIo(file_, IoOp::IReadAt, offset, len, 0);
}

bool File::verify(Bytes offset, Bytes len, pfs::ContentTag tag) const {
  IOBTS_CHECK(ctx_ != nullptr, "operation on a default-constructed File");
  return ctx_->world_.store().verify(file_, offset, len, tag);
}

Bytes File::size() const {
  IOBTS_CHECK(ctx_ != nullptr, "operation on a default-constructed File");
  return ctx_->world_.store().size(file_);
}

// ---------------------------------------------------------------------------
// World

void checkWorldConfig(const WorldConfig& config) {
  const double max_jitter = std::log(std::numeric_limits<double>::max()) /
                            std::sqrt(106.0 * std::log(2.0));
  IOBTS_CHECK(config.ranks > 0, "world needs at least one rank");
  IOBTS_CHECK(config.compute_jitter_sigma >= 0.0,
              "compute jitter must be non-negative");
  IOBTS_CHECK(config.compute_jitter_sigma <= max_jitter,
              strfmt("compute jitter must be finite and at most %g (a larger "
                     "sigma can overflow a compute phase to infinity)",
                     max_jitter));
}

World::World(sim::Simulation& simulation, pfs::SharedLink& link,
             pfs::FileStore& store, WorldConfig config, IoHooks* hooks)
    : sim_(simulation),
      link_(link),
      store_(store),
      config_(std::move(config)),
      hooks_(hooks),
      done_(simulation) {
  checkWorldConfig(config_);
  barrier_ = std::make_unique<sim::Barrier>(
      sim_, static_cast<std::size_t>(config_.ranks));
  ranks_.reserve(static_cast<std::size_t>(config_.ranks));
  for (int r = 0; r < config_.ranks; ++r) {
    // Not make_unique: RankCtx's constructor is private to World.
    ranks_.emplace_back(std::unique_ptr<RankCtx>(new RankCtx(*this, r)));
  }
}

World::~World() = default;

void World::launch(RankProgram program) {
  IOBTS_CHECK(!launched_, "launch() may only be called once");
  IOBTS_CHECK(static_cast<bool>(program), "program must be callable");
  launched_ = true;
  launch_time_ = sim_.now();
  for (int r = 0; r < config_.ranks; ++r) {
    RankCtx& ctx = *ranks_[r];
    if (ctx.burst_buffer_) {
      ctx.drain_proc_ = sim_.spawn(
          ctx.burst_buffer_->drainLoop(),
          {.name = config_.name + ".bb" + std::to_string(r)});
    }
    ctx.engine_proc_ = sim_.spawn(
        ctx.engine_->serve(),
        {.name = config_.name + ".io" + std::to_string(r)});
    sim_.spawn(rankMain(r, program),
               {.name = config_.name + ".rank" + std::to_string(r)});
  }
}

sim::Task<void> World::rankMain(int rank, RankProgram program) {
  RankCtx& ctx = *ranks_[rank];
  ctx.times_.start = sim_.now();
  try {
    co_await program(ctx);
  } catch (const IoFailure& failure) {
    // A blocking MPI-IO call failed past its retry budget: the rank's
    // program is over (MPI's errors-are-fatal default), but the world keeps
    // running -- the rank still finalizes (cancelling queued async I/O) so
    // join() completes and failedRanks() counts the rank.
    IOBTS_LOG_WARN() << config_.name << ".rank" << rank
                     << " failed: " << failure.what();
    ctx.failed_ = true;
    ++failed_ranks_;
  }
  co_await ctx.finalize(/*aborted=*/ctx.failed_);
  ctx.times_.end = sim_.now();
  if (++finished_ranks_ == config_.ranks) {
    finish_time_ = sim_.now();
    done_.fire();
    IOBTS_LOG_DEBUG() << config_.name << " finished at t=" << finish_time_;
  }
}

sim::Task<void> World::join() {
  IOBTS_CHECK(launched_, "join() before launch()");
  co_await done_.wait();
}

RankCtx& World::rankCtx(int rank) {
  IOBTS_CHECK(rank >= 0 && rank < config_.ranks, "rank out of range");
  return *ranks_[rank];
}

const RankTimes& World::rankTimes(int rank) const {
  IOBTS_CHECK(rank >= 0 && rank < config_.ranks, "rank out of range");
  return ranks_[rank]->times_;
}

void World::setRankLimit(int rank, std::optional<BytesPerSec> limit) {
  IOBTS_CHECK(rank >= 0 && rank < config_.ranks, "rank out of range");
  ranks_[rank]->setIoLimit(limit);
}

void World::setRankLimit(int rank, pfs::Channel channel,
                         std::optional<BytesPerSec> limit) {
  IOBTS_CHECK(rank >= 0 && rank < config_.ranks, "rank out of range");
  ranks_[rank]->setIoLimit(channel, limit);
}

Seconds World::elapsed() const {
  IOBTS_CHECK(done_.fired(), "elapsed() before completion");
  return finish_time_ - launch_time_;
}

AdioEngine::Stats World::ioStats() const {
  AdioEngine::Stats total;
  for (const auto& ctx : ranks_) {
    const AdioEngine::Stats& s = ctx->ioStats();
    total.retries += s.retries;
    total.failures += s.failures;
    total.cancelled += s.cancelled;
  }
  return total;
}

void World::exportMetrics(obs::MetricsRegistry& registry) const {
  const AdioEngine::Stats io = ioStats();
  registry.addCounter("mpisim.io.retries", io.retries);
  registry.addCounter("mpisim.io.failures", io.failures);
  registry.addCounter("mpisim.io.cancelled", io.cancelled);
  registry.setGauge("mpisim.ranks", static_cast<double>(config_.ranks));
  registry.setGauge("mpisim.failed_ranks",
                    static_cast<double>(failed_ranks_));
  if (sim_.isSharded()) {
    registry.setGauge("mpisim.world.shard",
                      static_cast<double>(sim_.shardId()));
  }
  throttle::PacerStats pacing[pfs::kChannels];
  for (const auto& ctx : ranks_) {
    for (std::size_t c = 0; c < pfs::kChannels; ++c) {
      const throttle::PacerStats& s =
          ctx->engine_->pacerStats(static_cast<pfs::Channel>(c));
      pacing[c].subrequests += s.subrequests;
      pacing[c].sleeps += s.sleeps;
      pacing[c].slept += s.slept;
      pacing[c].deficit_banked += s.deficit_banked;
      pacing[c].paced_bytes += s.paced_bytes;
    }
  }
  for (std::size_t c = 0; c < pfs::kChannels; ++c) {
    const std::string prefix = std::string("mpisim.pacer.") +
                               pfs::channelName(static_cast<pfs::Channel>(c));
    registry.addCounter(prefix + ".subrequests", pacing[c].subrequests);
    registry.addCounter(prefix + ".sleeps", pacing[c].sleeps);
    registry.addCounter(prefix + ".paced_bytes", pacing[c].paced_bytes);
    registry.setGauge(prefix + ".slept_seconds", pacing[c].slept);
    registry.setGauge(prefix + ".deficit_banked_seconds",
                      pacing[c].deficit_banked);
  }
}

}  // namespace iobts::mpisim
