// The mini-MPI runtime: ranks, collectives, MPI-IO.
//
// A World runs `ranks` rank programs as concurrent coroutine processes over
// a shared SharedLink (the PFS) and FileStore. It reproduces the structure
// the paper's stack relies on:
//
//   application code             -> RankCtx / File (MPI & MPI-IO calls)
//   PMPI interception (TMIO)     -> IoHooks
//   ROMIO/ADIO + I/O thread      -> AdioEngine (+ throttle::Pacer)
//   the parallel file system     -> pfs::SharedLink / pfs::FileStore
//
// Rank programs are plain coroutines:
//
//   sim::Task<void> program(mpisim::RankCtx& ctx) {
//     auto file = ctx.open("/pfs/out." + std::to_string(ctx.rank()));
//     co_await ctx.compute(1.5);
//     auto req = co_await file.iwriteAt(0, 38 * kMB, /*tag=*/1);
//     co_await ctx.compute(1.5);
//     co_await ctx.wait(req);
//   }
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "mpisim/adio_engine.hpp"
#include "mpisim/hooks.hpp"
#include "mpisim/request.hpp"
#include "mpisim/types.hpp"
#include "pfs/burst_buffer.hpp"
#include "pfs/file_store.hpp"
#include "pfs/shared_link.hpp"
#include "sim/sync.hpp"
#include "util/rng.hpp"

namespace iobts::obs {
class MetricsRegistry;
}  // namespace iobts::obs

namespace iobts::mpisim {

class World;
class RankCtx;

struct WorldConfig {
  int ranks = 1;
  /// Alpha-beta collective cost model: a tree collective over n ranks costs
  /// ceil(log2 n) * (alpha + bytes * beta) after synchronization.
  Seconds collective_alpha = 5e-6;
  Seconds collective_beta_per_byte = 5e-11;  // ~20 GB/s injection
  /// Lognormal jitter on compute-phase durations (0 = deterministic).
  double compute_jitter_sigma = 0.0;
  /// ADIO sub-request size for the limiting I/O thread.
  throttle::PacerConfig pacer{};
  /// Retry/backoff policy for faulted transfers (see fault::FaultPlan); the
  /// default fails fast (no retries) -- faults then surface on the first
  /// attempt.
  throttle::RetryPolicy retry{};
  /// Optional node-local burst buffer per rank: writes are absorbed locally
  /// and drained to the PFS in the background (the paper's future-work
  /// setting for synchronous I/O). When set, the per-rank write limiter is
  /// bypassed -- the buffer's drain_limit takes its role.
  std::optional<pfs::BurstBufferConfig> burst_buffer{};
  /// If set, all ranks share this single PFS stream instead of creating one
  /// each -- the cluster simulator uses one stream per *job* so the link's
  /// fair share (and a QoS cap) applies job-wide.
  std::optional<pfs::StreamId> shared_stream{};
  std::uint64_t seed = 1;
  /// Prefix used for stream names (diagnostics only).
  std::string name = "world";
};

/// The world's value rules, which the World constructor runs: at least one
/// rank, and a compute jitter sigma in [0, ln(DBL_MAX) / sqrt(106 ln 2)
/// ~= 82.8]. Jitter scales each compute phase by exp(sigma * z) with z from
/// Rng::normal, Box-Muller over 53-bit uniforms, so |z| <= sqrt(106 ln 2)
/// ~= 8.57; a larger sigma can overflow a compute phase to infinity, and
/// the run would never end. Throws CheckError naming the value at fault.
void checkWorldConfig(const WorldConfig& config);

/// Wall-clock (virtual) breakdown of one rank's run; the raw material of the
/// paper's Figs. 6, 7 and 11.
struct RankTimes {
  sim::Time start = 0.0;
  sim::Time end = 0.0;
  Seconds compute = 0.0;        // inside compute()
  Seconds comm = 0.0;           // inside collectives
  Seconds sync_io = 0.0;        // blocked in write_at/read_at
  Seconds wait_blocked = 0.0;   // blocked in MPI_Wait* ("async lost")
  Seconds overhead_peri = 0.0;  // intercept overhead charged while running
  Seconds overhead_post = 0.0;  // finalize-time overhead (TMIO gather)

  Seconds total() const noexcept { return end - start; }
};

/// Handle to an open (simulated) file with an individual file pointer.
class File {
 public:
  File() = default;

  /// MPI_File_write_at: blocking write of `len` bytes at `offset` whose
  /// content is summarized by `tag` (see pfs::FileStore).
  sim::Task<void> writeAt(Bytes offset, Bytes len, pfs::ContentTag tag);

  /// MPI_File_read_at: blocking read.
  sim::Task<void> readAt(Bytes offset, Bytes len);

  /// MPI_File_iwrite_at: non-blocking write; complete with RankCtx::wait.
  sim::Task<Request> iwriteAt(Bytes offset, Bytes len, pfs::ContentTag tag);

  /// MPI_File_iread_at: non-blocking read.
  sim::Task<Request> ireadAt(Bytes offset, Bytes len);

  /// Check that [offset, offset+len) holds data written with `tag` (the
  /// workload-side verify block; not an MPI call, no I/O cost).
  bool verify(Bytes offset, Bytes len, pfs::ContentTag tag) const;

  Bytes size() const;

 private:
  friend class RankCtx;
  File(RankCtx* ctx, pfs::FileStore::Handle file) : ctx_(ctx), file_(file) {}

  RankCtx* ctx_ = nullptr;
  pfs::FileStore::Handle file_;
};

class RankCtx {
 public:
  int rank() const noexcept { return rank_; }
  int size() const noexcept;
  sim::Simulation& sim() noexcept { return sim_; }
  sim::Time now() const noexcept;

  /// A compute phase of nominal duration `duration` (jittered if the world
  /// configures compute_jitter_sigma).
  sim::Task<void> compute(Seconds duration);

  /// MPI_Barrier analog.
  sim::Task<void> barrier();

  /// MPI_Bcast analog (cost model only; payload is synthetic).
  sim::Task<void> bcast(Bytes bytes = 8);

  /// MPI_Allreduce analog.
  sim::Task<void> allreduce(Bytes bytes = 8);

  /// MPI_File_open analog (no cost; metadata only). Resolves `path` in the
  /// world's FileStore once, creating the file if it is missing.
  File open(const std::string& path);

  /// Block on an external rendezvous channel (the scenario compiler's
  /// streaming `recv`; an MPI_Recv-shaped point-to-point stand-in). Blocked
  /// time is charged to comm, like a collective.
  sim::Task<void> recv(sim::Semaphore& channel);

  /// MPI_Wait analog; completes (and is intercepted for) one request.
  sim::Task<void> wait(Request& request);

  /// MPI_Waitall analog.
  sim::Task<void> waitAll(std::span<Request> requests);

  /// User-level control of this rank's I/O-thread bandwidth limits (the MPI
  /// extension's knob; TMIO's strategies call this). Read and write limits
  /// are independent; the channel-less overload sets both.
  void setIoLimit(std::optional<BytesPerSec> limit);
  void setIoLimit(pfs::Channel channel, std::optional<BytesPerSec> limit);
  std::optional<BytesPerSec> ioLimit(
      pfs::Channel channel = pfs::Channel::Write) const;

  const RankTimes& times() const noexcept { return times_; }
  pfs::StreamId stream() const noexcept { return stream_; }

  /// True once an IoFailure escaped this rank's program (the rank was torn
  /// down early; queued async I/O was cancelled).
  bool failed() const noexcept { return failed_; }

  /// This rank's I/O-thread resilience counters (retries/failures/cancels).
  const AdioEngine::Stats& ioStats() const noexcept;

  /// Direct engine access (tests and teardown paths).
  AdioEngine& engine() noexcept { return *engine_; }

 private:
  friend class World;
  friend class File;

  RankCtx(World& world, int rank);

  sim::Task<Request> submitIo(pfs::FileStore::Handle file, IoOp op,
                              Bytes offset, Bytes len, pfs::ContentTag tag);
  sim::Task<void> blockingIo(pfs::FileStore::Handle file, IoOp op,
                             Bytes offset, Bytes len, pfs::ContentTag tag);
  sim::Task<void> chargeIntercept();
  sim::Task<void> collective(Bytes bytes, int stages);
  /// Aborted teardown cancels still-queued I/O instead of draining it.
  sim::Task<void> finalize(bool aborted);

  World& world_;
  sim::Simulation& sim_;
  int rank_;
  pfs::StreamId stream_;
  std::unique_ptr<pfs::BurstBuffer> burst_buffer_;
  sim::ProcessHandle drain_proc_;
  std::unique_ptr<AdioEngine> engine_;
  sim::ProcessHandle engine_proc_;
  Rng jitter_rng_;
  std::uint64_t next_request_id_ = 0;
  RankTimes times_;
  bool failed_ = false;
};

class World {
 public:
  using RankProgram = std::function<sim::Task<void>(RankCtx&)>;

  World(sim::Simulation& simulation, pfs::SharedLink& link,
        pfs::FileStore& store, WorldConfig config, IoHooks* hooks = nullptr);
  World(const World&) = delete;
  World& operator=(const World&) = delete;
  ~World();

  /// Start every rank running `program` (call once). Ranks begin at the
  /// current virtual time.
  void launch(RankProgram program);

  /// Await completion of all ranks (usable from other coroutines, e.g. the
  /// cluster scheduler).
  sim::Task<void> join();

  bool finished() const noexcept { return done_.fired(); }

  const WorldConfig& config() const noexcept { return config_; }
  sim::Simulation& sim() noexcept { return sim_; }
  pfs::SharedLink& link() noexcept { return link_; }
  pfs::FileStore& store() noexcept { return store_; }
  IoHooks* hooks() const noexcept { return hooks_; }

  RankCtx& rankCtx(int rank);
  const RankTimes& rankTimes(int rank) const;

  /// External user-level limit control (what TMIO drives per rank).
  void setRankLimit(int rank, std::optional<BytesPerSec> limit);
  void setRankLimit(int rank, pfs::Channel channel,
                    std::optional<BytesPerSec> limit);

  /// Virtual elapsed time from launch to the last rank's finalize. Only
  /// valid after completion.
  Seconds elapsed() const;

  /// Ranks whose program was terminated by an escaping IoFailure.
  int failedRanks() const noexcept { return failed_ranks_; }

  /// Resilience counters summed over every rank's I/O thread.
  AdioEngine::Stats ioStats() const;

  /// Publish run totals (ranks, failures, retries, pacing sums) into
  /// `registry` under "mpisim.*".
  void exportMetrics(obs::MetricsRegistry& registry) const;

 private:
  friend class RankCtx;

  sim::Task<void> rankMain(int rank, RankProgram program);

  sim::Simulation& sim_;
  pfs::SharedLink& link_;
  pfs::FileStore& store_;
  WorldConfig config_;
  IoHooks* hooks_;
  std::vector<std::unique_ptr<RankCtx>> ranks_;
  std::unique_ptr<sim::Barrier> barrier_;
  sim::Trigger done_;
  int finished_ranks_ = 0;
  int failed_ranks_ = 0;
  bool launched_ = false;
  sim::Time launch_time_ = 0.0;
  sim::Time finish_time_ = 0.0;
};

}  // namespace iobts::mpisim
