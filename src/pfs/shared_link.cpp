#include "pfs/shared_link.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pfs/fair_share.hpp"
#include "sim/frame_cache.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace iobts::pfs {

namespace {
// A transfer is "drained" when less than half a byte remains (floating-point
// residue from rate * dt settlement).
constexpr double kDrainEpsilonBytes = 0.5;
}  // namespace

// Recycled through the per-thread FrameCache together with the transfer()
// frame that owns it: a steady-state transfer allocates nothing.
struct SharedLink::Transfer : sim::CacheAllocated<SharedLink::Transfer> {
  explicit Transfer(sim::Simulation& simulation) : done(simulation) {}

  StreamId stream = 0;
  Bytes total = 0;
  double remaining = 0.0;
  sim::Time start = 0.0;
  sim::Time last_settle = 0.0;
  double rate = 0.0;
  std::optional<BytesPerSec> noise_cap{};
  /// Monotone per-link id; keys the deterministic fault verdict.
  std::uint64_t serial = 0;
  /// Caller's journey id (0 = none); ties the settled span into the
  /// request's flow chain.
  std::uint64_t journey = 0;
  /// Points into the awaiting transfer() frame's TransferResult.status. The
  /// frame is suspended at done.wait() until fire() resumes it through the
  /// event queue, so the sink outlives this Transfer object (which is
  /// destroyed at the end of the completion sweep, before resumption).
  TransferStatus* status_sink = nullptr;
  sim::Trigger done;
};

struct SharedLink::Stream {
  std::string name;
  double weight = 1.0;
  std::optional<BytesPerSec> cap{};
  Bytes bytes_moved = 0;
  bool record = false;
  StepSeries rate_series[kChannels];
  std::size_t active[kChannels] = {0, 0};
};

struct SharedLink::ChannelState {
  Channel ch = Channel::Read;
  BytesPerSec capacity = 0.0;
  std::vector<std::unique_ptr<Transfer>> active;
  bool dirty_scheduled = false;
  sim::Time last_resolve = -1.0;
  bool ever_resolved = false;
  std::uint64_t sweep_generation = 0;
  Bytes bytes_moved = 0;
  StepSeries total_series;
  StepSeries active_series;
  bool contended = false;

  // --- Fault-plane bookkeeping -------------------------------------------
  // Compound factor of the degradation/blackout windows active right now
  // (product; 1.0 = healthy, 0.0 = blackout). Recomputed from scratch at
  // every window edge so it is fp-exact and order-independent.
  double degrade_factor = 1.0;
  std::uint64_t faulted_transfers = 0;
  std::uint64_t capacity_edges = 0;

  // --- Lazy-settle bookkeeping ------------------------------------------
  // Earliest virtual time at which any active transfer could cross the
  // drain threshold (remaining <= kDrainEpsilonBytes) under current rates.
  // Re-derived on every executed resolve from the same loop that schedules
  // the completion sweep. A resolve strictly before this bound with
  // input_version == solved_version cannot change anything. -inf until the
  // first resolve so the bound never suppresses it.
  sim::Time next_interesting = -std::numeric_limits<double>::infinity();
  std::uint64_t resolves_executed = 0;
  std::uint64_t resolves_skipped = 0;
  std::uint64_t full_solves = 0;

  // --- Incremental-resolve bookkeeping ----------------------------------
  // The solve inputs (stream membership, caps, weights, noise caps) are
  // versioned; a resolve whose inputs match the last solved version only
  // settles progress and reschedules the sweep (rates cannot have changed).
  std::uint64_t input_version = 1;
  std::uint64_t solved_version = 0;

  // Persistent scratch for the two-level solve. The stream->group slot map
  // is epoch-stamped so it is valid without an O(total streams) clear per
  // resolve; all other buffers are reused across resolves (allocation-free
  // once warm).
  std::uint32_t grouping_epoch = 0;
  std::vector<std::uint32_t> slot_epoch;    // per stream id
  std::vector<std::uint32_t> slot;          // per stream id -> group index
  std::vector<StreamId> group_streams;      // group index -> stream id
  std::vector<std::uint32_t> group_count;   // transfers per group
  std::vector<std::uint32_t> group_offset;  // prefix offsets into `grouped`
  std::vector<Transfer*> grouped;           // transfers, grouped by stream
  std::vector<FairShareItem> level1;
  std::vector<BytesPerSec> level1_alloc;
  std::vector<FairShareItem> level2;
  std::vector<BytesPerSec> level2_alloc;
  FairShareScratch fair_share_scratch;
  std::vector<std::unique_ptr<Transfer>> completed_scratch;
};

SharedLink::SharedLink(sim::Simulation& simulation, LinkConfig config)
    : sim_(simulation),
      config_(config),
      noise_rng_(config.seed, "pfs-noise") {
  IOBTS_CHECK(config_.read_capacity > 0.0 &&
                  std::isfinite(config_.read_capacity),
              "read capacity must be positive and finite");
  IOBTS_CHECK(config_.write_capacity > 0.0 &&
                  std::isfinite(config_.write_capacity),
              "write capacity must be positive and finite");
  IOBTS_CHECK(config_.noise_sigma >= 0.0 && !std::isnan(config_.noise_sigma),
              "noise sigma must be non-negative");
  IOBTS_CHECK(config_.noise_reference_rate >= 0.0 &&
                  !std::isnan(config_.noise_reference_rate),
              "noise reference rate must be non-negative");
  IOBTS_CHECK(config_.congestion_gamma >= 0.0 &&
                  !std::isnan(config_.congestion_gamma),
              "congestion gamma must be non-negative");
  IOBTS_CHECK(config_.recompute_quantum >= 0.0,
              "recompute quantum must be non-negative");
  IOBTS_CHECK(config_.client_rate_cap >= 0.0,
              "client rate cap must be non-negative");
  for (std::size_t c = 0; c < kChannels; ++c) {
    channels_[c] = std::make_unique<ChannelState>();
    channels_[c]->ch = static_cast<Channel>(c);
  }
  channels_[static_cast<int>(Channel::Read)]->capacity = config_.read_capacity;
  channels_[static_cast<int>(Channel::Write)]->capacity =
      config_.write_capacity;
  if (obs::TraceSink* const sink = obs::traceSink()) {
    sink->setProcessName(obs::track::kLink, "pfs link");
    sink->setThreadName(obs::track::kLink, 0, "read");
    sink->setThreadName(obs::track::kLink, 1, "write");
    sink->setProcessName(obs::track::kStreams, "pfs streams");
  }
}

SharedLink::~SharedLink() = default;

SharedLink::ChannelState& SharedLink::chan(Channel channel) noexcept {
  return *channels_[static_cast<int>(channel)];
}

const SharedLink::ChannelState& SharedLink::chan(
    Channel channel) const noexcept {
  return *channels_[static_cast<int>(channel)];
}

StreamId SharedLink::createStream(std::string name, double weight) {
  IOBTS_CHECK(weight > 0.0, "stream weight must be positive");
  IOBTS_CHECK(!std::isnan(weight), "stream weight must not be NaN");
  auto stream = std::make_unique<Stream>();
  stream->name = std::move(name);
  stream->weight = weight;
  streams_.push_back(std::move(stream));
  const StreamId id = static_cast<StreamId>(streams_.size() - 1);
  if (obs::TraceSink* const sink = obs::traceSink()) {
    sink->setThreadName(obs::track::kStreams, id, streams_.back()->name);
  }
  return id;
}

void SharedLink::noteSolveInputChanged(Channel channel) {
  ++chan(channel).input_version;
}

void SharedLink::setStreamCap(StreamId stream,
                              std::optional<BytesPerSec> cap) {
  IOBTS_CHECK(stream < streams_.size(), "unknown stream");
  IOBTS_CHECK(!cap || *cap >= 0.0, "cap must be non-negative");
  IOBTS_CHECK(!cap || !std::isnan(*cap), "cap must not be NaN");
  streams_[stream]->cap = cap;
  for (std::size_t c = 0; c < kChannels; ++c) {
    if (streams_[stream]->active[c] > 0) {
      noteSolveInputChanged(static_cast<Channel>(c));
      markDirty(static_cast<Channel>(c));
    }
  }
}

std::optional<BytesPerSec> SharedLink::streamCap(StreamId stream) const {
  IOBTS_CHECK(stream < streams_.size(), "unknown stream");
  return streams_[stream]->cap;
}

void SharedLink::setStreamWeight(StreamId stream, double weight) {
  IOBTS_CHECK(stream < streams_.size(), "unknown stream");
  IOBTS_CHECK(weight > 0.0, "stream weight must be positive");
  IOBTS_CHECK(!std::isnan(weight), "stream weight must not be NaN");
  streams_[stream]->weight = weight;
  for (std::size_t c = 0; c < kChannels; ++c) {
    if (streams_[stream]->active[c] > 0) {
      noteSolveInputChanged(static_cast<Channel>(c));
      markDirty(static_cast<Channel>(c));
    }
  }
}

double SharedLink::streamWeight(StreamId stream) const {
  IOBTS_CHECK(stream < streams_.size(), "unknown stream");
  return streams_[stream]->weight;
}

const std::string& SharedLink::streamName(StreamId stream) const {
  IOBTS_CHECK(stream < streams_.size(), "unknown stream");
  return streams_[stream]->name;
}

void SharedLink::setRecordStream(StreamId stream, bool record) {
  IOBTS_CHECK(stream < streams_.size(), "unknown stream");
  streams_[stream]->record = record;
  auto& recorded = recorded_streams_;
  const auto it = std::find(recorded.begin(), recorded.end(), stream);
  if (record && it == recorded.end()) {
    recorded.push_back(stream);
  } else if (!record && it != recorded.end()) {
    recorded.erase(it);
  }
}

sim::Task<TransferResult> SharedLink::transfer(Channel channel,
                                               StreamId stream, Bytes bytes,
                                               std::uint64_t journey) {
  IOBTS_CHECK(stream < streams_.size(), "unknown stream");
  TransferResult result;
  result.start = sim_.now();
  result.end = sim_.now();
  result.bytes = bytes;
  if (bytes == 0) co_return result;

  ChannelState& cs = chan(channel);

  auto transfer_obj = std::make_unique<Transfer>(sim_);
  Transfer& t = *transfer_obj;
  t.stream = stream;
  t.total = bytes;
  t.remaining = static_cast<double>(bytes);
  t.start = sim_.now();
  t.last_settle = sim_.now();
  t.serial = next_transfer_serial_++;
  t.journey = journey;
  t.status_sink = &result.status;
  if (config_.noise_sigma > 0.0) {
    const double factor =
        std::min(1.0, noise_rng_.lognormalFactor(config_.noise_sigma));
    const BytesPerSec reference = config_.noise_reference_rate > 0.0
                                      ? config_.noise_reference_rate
                                      : cs.capacity;
    t.noise_cap = std::min(cs.capacity, reference * factor);
  }
  cs.active.push_back(std::move(transfer_obj));
  ++streams_[stream]->active[static_cast<int>(channel)];
  noteSolveInputChanged(channel);
  markDirty(channel);

  co_await t.done.wait();
  result.end = sim_.now();
  co_return result;
}

void SharedLink::markDirty(Channel channel) {
  ChannelState& cs = chan(channel);
  if (cs.dirty_scheduled) return;
  cs.dirty_scheduled = true;
  sim::Time at = 0.0;
  if (cs.ever_resolved && config_.recompute_quantum > 0.0) {
    at = std::max(0.0, cs.last_resolve + config_.recompute_quantum -
                           sim_.now());
  }
  sim_.post(at, [this, channel] {
    chan(channel).dirty_scheduled = false;
    resolve(channel);
  });
}

void SharedLink::resolve(Channel channel) {
  ChannelState& cs = chan(channel);
  const sim::Time now = sim_.now();
  cs.last_resolve = now;
  cs.ever_resolved = true;

  // 0. Lazy settle: with unchanged solve inputs and `now` strictly before
  // the next-interesting-time bound, no transfer can have crossed the drain
  // threshold and no rate can change, so settle, solve, and sweep
  // rescheduling are all provable no-ops. The skip must not settle even in
  // force_full_resolve mode -- settling at an extra instant re-rounds
  // `remaining` and would break exact equivalence between the modes --
  // so the reference mode instead *verifies* the no-op claim without
  // mutating anything: project every transfer forward and check none could
  // have drained before the bound.
  obs::TraceSink* const sink = obs::traceSink();
  const std::uint32_t trace_tid = static_cast<std::uint32_t>(channel);
  const bool quiescent =
      cs.input_version == cs.solved_version && now < cs.next_interesting;
  if (quiescent) {
    ++cs.resolves_skipped;
    if (sink != nullptr) {
      sink->instant("pfs", "resolve.skip", obs::track::kLink, trace_tid, now,
                    static_cast<double>(cs.active.size()));
    }
    if (config_.force_full_resolve) {
      for (const auto& t : cs.active) {
        const double projected =
            t->remaining - t->rate * (now - t->last_settle);
        // Tiny slack: the bound and this projection round differently, so a
        // resolve landing within ULPs of the bound may disagree by ULPs.
        IOBTS_CHECK(projected > kDrainEpsilonBytes * (1.0 - 1e-9),
                    "lazy-skip bound violated: a transfer would have drained "
                    "before the next-interesting-time bound");
      }
    }
    return;
  }
  ++cs.resolves_executed;
  const std::uint64_t wall_start = sink != nullptr ? sink->wallNowNs() : 0;

  // 1. Settle progress since each transfer's last settlement.
  for (auto& t : cs.active) {
    const sim::Time dt = now - t->last_settle;
    if (dt > 0.0 && t->rate > 0.0) {
      t->remaining = std::max(0.0, t->remaining - t->rate * dt);
    }
    t->last_settle = now;
  }

  // 2. Complete drained transfers: stable in-place compaction of the
  // survivors (O(n) even when thousands drain in the same sweep; the
  // previous erase-from-the-middle made batch drains quadratic). Completed
  // transfers are collected and fired in their original active order so the
  // (time, seq) resume order of waiting coroutines is unchanged.
  //
  // A transfer also counts as drained when its drain time is at most one
  // ULP of `now`: at large virtual times and high rates remaining / rate can
  // exceed the byte epsilon yet round to zero when added to `now`, and a
  // sweep posted there would land back on `now`, settle nothing, and repost
  // forever. A survivor has remaining > rate * ulp, so its sweep lands
  // strictly after `now`. rate * ulp exceeds the epsilon only once `now`
  // is large (at 1.2e11 B/s, from 2^15 s on).
  const double ulp =
      std::nextafter(now, std::numeric_limits<double>::infinity()) - now;
  auto& active = cs.active;
  std::size_t write_pos = 0;
  for (std::size_t read_pos = 0; read_pos < active.size(); ++read_pos) {
    const Transfer& t = *active[read_pos];
    if (t.remaining <= kDrainEpsilonBytes || t.remaining <= t.rate * ulp) {
      cs.completed_scratch.push_back(std::move(active[read_pos]));
    } else {
      if (write_pos != read_pos) active[write_pos] = std::move(active[read_pos]);
      ++write_pos;
    }
  }
  if (!cs.completed_scratch.empty()) {
    active.resize(write_pos);
    const bool judge = fault_plan_ && fault_plan_->hasTransferFaults();
    for (const auto& t : cs.completed_scratch) {
      cs.bytes_moved += t->total;
      Stream& s = *streams_[t->stream];
      s.bytes_moved += t->total;
      --s.active[static_cast<int>(channel)];
      // Fault verdict at settle time: the transfer ran to its full
      // fair-share duration and consumed bandwidth either way, but a faulted
      // one reports an EIO-class error to its waiter. The verdict is written
      // through status_sink before fire() so the awaiting frame observes it
      // on resumption.
      bool faulted = false;
      if (judge &&
          fault_plan_->faultVerdict(channel, t->stream, t->serial, now)) {
        *t->status_sink = TransferStatus::Faulted;
        ++cs.faulted_transfers;
        faulted = true;
      }
      if (sink != nullptr) {
        // Transfers are genuine virtual-time spans: start at admission, end
        // at the completing sweep. One track per stream; bytes in value.
        sink->complete("pfs",
                       faulted ? "transfer.faulted"
                               : (channel == Channel::Read ? "transfer.read"
                                                           : "transfer.write"),
                       obs::track::kStreams, t->stream, t->start,
                       now - t->start, static_cast<double>(t->total));
        if (t->journey != 0) {
          sink->flowStep("journey", "io", obs::track::kStreams, t->stream,
                         t->start, t->journey);
        }
      }
      t->done.fire();
    }
    cs.completed_scratch.clear();
    ++cs.input_version;
  }

  // 3. Re-solve the two-level allocation -- but only if the solve inputs
  // (membership, caps, weights) changed since the last solve. A resolve
  // with unchanged inputs (e.g. a coalesced dirty notification arriving
  // right after a sweep already resolved at this instant) cannot change any
  // rate, so settle + sweep rescheduling is sufficient.
  if (cs.input_version != cs.solved_version || config_.force_full_resolve) {
    solveRates(cs, channel, now);
    cs.solved_version = cs.input_version;
    ++cs.full_solves;
    if (sink != nullptr) {
      sink->instant("pfs", "solve", obs::track::kLink, trace_tid, now,
                    static_cast<double>(cs.group_streams.size()));
    }
  }

  // 4. Schedule the next completion sweep and re-derive the
  // next-interesting-time bound. Invalidate any in-flight sweep first; we
  // repost below. The sweep targets full drain (remaining / rate) while the
  // bound targets the drain threshold ((remaining - epsilon) / rate), so
  // the bound never exceeds the sweep time and the sweep itself is never
  // lazily skipped.
  ++cs.sweep_generation;
  sim::Time next = std::numeric_limits<double>::infinity();
  sim::Time interesting = std::numeric_limits<double>::infinity();
  for (const auto& t : cs.active) {
    if (t->rate > 0.0) {
      next = std::min(next, t->remaining / t->rate);
      interesting =
          std::min(interesting, (t->remaining - kDrainEpsilonBytes) / t->rate);
    }
  }
  cs.next_interesting = std::isfinite(interesting)
                            ? now + std::max(0.0, interesting)
                            : std::numeric_limits<double>::infinity();
  if (std::isfinite(next)) {
    const std::uint64_t gen = cs.sweep_generation;
    sim_.post(next, [this, channel, gen] {
      if (chan(channel).sweep_generation == gen) resolve(channel);
    });
  } else if (!cs.active.empty() && cs.degrade_factor != 0.0) {
    // Zero aggregate rate during a blackout window is the intended stall,
    // not an anomaly: the end-of-window edge event re-solves and the
    // transfers resume.
    IOBTS_LOG_WARN() << "channel " << channelName(channel) << " has "
                     << cs.active.size()
                     << " active transfers but zero aggregate rate";
  }
  if (sink != nullptr) {
    sink->complete("pfs", "resolve", obs::track::kLink, trace_tid, now, 0.0,
                   static_cast<double>(cs.active.size()),
                   sink->wallNowNs() - wall_start);
  }
}

void SharedLink::solveRates(ChannelState& cs, Channel channel,
                            sim::Time now) {
  // Group active transfers by stream, first-appearance order, using the
  // epoch-stamped slot map (no per-resolve O(total streams) clear) and flat
  // reused buffers (no per-resolve vector-of-vectors).
  //    Level 1: streams (weight = stream weight, cap = stream cap combined
  //    with the sum of its transfers' noise caps).
  //    Level 2: a stream's transfers split its allocation equally, subject
  //    to per-transfer noise caps.
  const std::uint32_t epoch = ++cs.grouping_epoch;
  if (cs.slot_epoch.size() < streams_.size()) {
    cs.slot_epoch.resize(streams_.size(), 0);
    cs.slot.resize(streams_.size(), 0);
  }
  cs.group_streams.clear();
  cs.group_count.clear();
  for (const auto& t : cs.active) {
    if (cs.slot_epoch[t->stream] != epoch) {
      cs.slot_epoch[t->stream] = epoch;
      cs.slot[t->stream] = static_cast<std::uint32_t>(cs.group_streams.size());
      cs.group_streams.push_back(t->stream);
      cs.group_count.push_back(0);
    }
    ++cs.group_count[cs.slot[t->stream]];
  }
  const std::size_t n_groups = cs.group_streams.size();
  cs.group_offset.resize(n_groups + 1);
  cs.group_offset[0] = 0;
  for (std::size_t k = 0; k < n_groups; ++k) {
    cs.group_offset[k + 1] = cs.group_offset[k] + cs.group_count[k];
  }
  cs.grouped.resize(cs.active.size());
  {
    // group_count doubles as the per-group fill cursor during placement.
    std::fill(cs.group_count.begin(), cs.group_count.end(), 0u);
    for (const auto& t : cs.active) {
      const std::uint32_t g = cs.slot[t->stream];
      cs.grouped[cs.group_offset[g] + cs.group_count[g]++] = t.get();
    }
  }

  // Degradation/blackout windows scale the deliverable capacity. Guarded so
  // a healthy link's arithmetic stays bit-identical to the pre-fault-plane
  // solve (the golden-digest gate depends on it).
  double effective_capacity = cs.capacity;
  if (cs.degrade_factor != 1.0) effective_capacity *= cs.degrade_factor;
  // Congestion: aggregate efficiency drops with concurrent writers.
  if (config_.congestion_gamma > 0.0 && cs.active.size() > 1) {
    effective_capacity /=
        1.0 + config_.congestion_gamma *
                  static_cast<double>(cs.active.size() - 1);
  }

  double total_rate = 0.0;
  double total_demand = 0.0;
  if (n_groups > 0) {
    cs.level1.resize(n_groups);
    for (std::size_t k = 0; k < n_groups; ++k) {
      const Stream& s = *streams_[cs.group_streams[k]];
      cs.level1[k].weight = s.weight;
      std::optional<BytesPerSec> cap = s.cap;
      if (config_.client_rate_cap > 0.0) {
        const BytesPerSec client_cap = config_.client_rate_cap * s.weight;
        cap = cap ? std::min(*cap, client_cap) : client_cap;
      }
      // Straggler windows cap the afflicted stream at a fraction of the base
      // channel capacity. The vector is empty on a fault-free link, so this
      // costs nothing (and performs no float ops) in the common case.
      if (!straggler_factor_.empty()) {
        const StreamId sid = cs.group_streams[k];
        if (sid < straggler_factor_.size() && straggler_factor_[sid] != 1.0) {
          const BytesPerSec straggler_cap =
              cs.capacity * straggler_factor_[sid];
          cap = cap ? std::min(*cap, straggler_cap) : straggler_cap;
        }
      }
      if (config_.noise_sigma > 0.0) {
        double noise_sum = 0.0;
        for (std::uint32_t j = cs.group_offset[k]; j < cs.group_offset[k + 1];
             ++j) {
          noise_sum += cs.grouped[j]->noise_cap.value_or(cs.capacity);
        }
        cap = cap ? std::min(*cap, noise_sum) : noise_sum;
      }
      cs.level1[k].cap = cap;
      total_demand += cap ? std::min(*cap, cs.capacity) : cs.capacity;
    }
    fairShareInto(cs.level1, effective_capacity, cs.fair_share_scratch,
                  cs.level1_alloc);

    for (std::size_t k = 0; k < n_groups; ++k) {
      const std::uint32_t begin = cs.group_offset[k];
      const std::uint32_t count = cs.group_offset[k + 1] - begin;
      BytesPerSec stream_rate = 0.0;
      if (count == 1) {
        // A lone transfer takes its stream's whole allocation up to its
        // noise cap: the level-2 solve's exact bits without running it.
        Transfer& t = *cs.grouped[begin];
        t.rate = fairShareSingle(t.noise_cap, cs.level1_alloc[k]);
        stream_rate = t.rate;
      } else {
        cs.level2.resize(count);
        for (std::uint32_t j = 0; j < count; ++j) {
          cs.level2[j].weight = 1.0;
          cs.level2[j].cap = cs.grouped[begin + j]->noise_cap;
        }
        stream_rate = fairShareInto(cs.level2, cs.level1_alloc[k],
                                    cs.fair_share_scratch, cs.level2_alloc)
                          .total;
        for (std::uint32_t j = 0; j < count; ++j) {
          cs.grouped[begin + j]->rate = cs.level2_alloc[j];
        }
      }
      total_rate += stream_rate;
      Stream& s = *streams_[cs.group_streams[k]];
      if (s.record) {
        s.rate_series[static_cast<int>(channel)].add(now, stream_rate);
      }
    }
  }
  // Opted-in streams with no active transfers drop to zero in the record.
  for (const StreamId sid : recorded_streams_) {
    Stream& s = *streams_[sid];
    if (s.active[static_cast<int>(channel)] == 0) {
      auto& series = s.rate_series[static_cast<int>(channel)];
      if (!series.empty() && series.points().back().second != 0.0) {
        series.add(now, 0.0);
      }
    }
  }

  // Contention is judged against what the link can actually deliver: a
  // degradation window can push an otherwise-uncontended load over the edge
  // (graceful degradation: the cluster limiter re-estimates against this).
  BytesPerSec contention_capacity = cs.capacity;
  if (cs.degrade_factor != 1.0) contention_capacity *= cs.degrade_factor;
  cs.contended =
      n_groups >= 2 && total_demand > contention_capacity * 1.000001;
  if (config_.record_total) {
    cs.total_series.add(now, total_rate);
    // Backlog twin of the rate series: how many transfers were live at each
    // solve point. Feeds the run-summary timeline (utilization vs. backlog).
    if (cs.active_series.empty() ||
        cs.active_series.points().back().second !=
            static_cast<double>(cs.active.size())) {
      cs.active_series.add(now, static_cast<double>(cs.active.size()));
    }
  }
}

// --- Fault plane -----------------------------------------------------------

void SharedLink::refreshChannelFactor(Channel channel, sim::Time now) {
  ChannelState& cs = chan(channel);
  double factor = 1.0;
  for (const fault::DegradationEvent& ev :
       degradations_[static_cast<int>(channel)]) {
    if (ev.window.contains(now)) factor *= ev.factor;
  }
  if (factor != cs.degrade_factor) {
    cs.degrade_factor = factor;
    ++cs.capacity_edges;
    if (obs::TraceSink* const sink = obs::traceSink()) {
      sink->instant("pfs", "fault.capacity_edge", obs::track::kLink,
                    static_cast<std::uint32_t>(channel), now, factor);
    }
    noteSolveInputChanged(channel);
    markDirty(channel);
  }
}

void SharedLink::refreshStragglerFactor(StreamId stream, sim::Time now) {
  if (straggler_factor_.size() < streams_.size()) {
    straggler_factor_.resize(streams_.size(), 1.0);
  }
  double factor = 1.0;
  for (const fault::StragglerEvent& ev : stragglers_) {
    if (ev.stream == stream && ev.window.contains(now)) {
      factor *= ev.multiplier;
    }
  }
  if (factor != straggler_factor_[stream]) {
    straggler_factor_[stream] = factor;
    for (std::size_t c = 0; c < kChannels; ++c) {
      if (streams_[stream]->active[c] > 0) {
        noteSolveInputChanged(static_cast<Channel>(c));
        markDirty(static_cast<Channel>(c));
      }
    }
  }
}

void SharedLink::scheduleDegradationEdges(Channel channel,
                                          fault::TimeWindow window) {
  const sim::Time now = sim_.now();
  sim_.post(std::max(0.0, window.begin - now), [this, channel] {
    refreshChannelFactor(channel, sim_.now());
  });
  if (std::isfinite(window.end)) {
    sim_.post(std::max(0.0, window.end - now), [this, channel] {
      refreshChannelFactor(channel, sim_.now());
    });
  }
}

void SharedLink::scheduleStragglerEdges(StreamId stream,
                                        fault::TimeWindow window) {
  const sim::Time now = sim_.now();
  sim_.post(std::max(0.0, window.begin - now), [this, stream] {
    refreshStragglerFactor(stream, sim_.now());
  });
  if (std::isfinite(window.end)) {
    sim_.post(std::max(0.0, window.end - now), [this, stream] {
      refreshStragglerFactor(stream, sim_.now());
    });
  }
}

void SharedLink::applyDegradation(Channel channel, double factor,
                                  fault::TimeWindow window) {
  IOBTS_CHECK(factor > 0.0 && factor <= 1.0 && !std::isnan(factor),
              "degradation factor must lie in (0, 1]; use applyBlackout for "
              "a full outage");
  IOBTS_CHECK(window.end > window.begin, "degradation window must be non-empty");
  IOBTS_CHECK(window.begin >= sim_.now(),
              "degradation window must not start in the past");
  degradations_[static_cast<int>(channel)].push_back(
      fault::DegradationEvent{channel, factor, window});
  scheduleDegradationEdges(channel, window);
}

void SharedLink::applyStraggler(StreamId stream, double multiplier,
                                fault::TimeWindow window) {
  IOBTS_CHECK(stream < streams_.size(), "unknown stream");
  IOBTS_CHECK(multiplier > 0.0 && multiplier <= 1.0 && !std::isnan(multiplier),
              "straggler multiplier must lie in (0, 1]");
  IOBTS_CHECK(window.end > window.begin, "straggler window must be non-empty");
  IOBTS_CHECK(window.begin >= sim_.now(),
              "straggler window must not start in the past");
  stragglers_.push_back(fault::StragglerEvent{stream, multiplier, window});
  if (straggler_factor_.size() < streams_.size()) {
    straggler_factor_.resize(streams_.size(), 1.0);
  }
  scheduleStragglerEdges(stream, window);
}

void SharedLink::applyBlackout(fault::TimeWindow window) {
  IOBTS_CHECK(window.end > window.begin, "blackout window must be non-empty");
  IOBTS_CHECK(window.begin >= sim_.now(),
              "blackout window must not start in the past");
  // A blackout is a factor-0 degradation on both channels; the compound
  // product then collapses to 0 for the window's duration.
  for (std::size_t c = 0; c < kChannels; ++c) {
    const Channel channel = static_cast<Channel>(c);
    degradations_[c].push_back(fault::DegradationEvent{channel, 0.0, window});
    scheduleDegradationEdges(channel, window);
  }
}

void SharedLink::applyOutage(double fraction, fault::TimeWindow window) {
  IOBTS_CHECK(fraction > 0.0 && fraction <= 1.0 && !std::isnan(fraction),
              "outage fraction must lie in (0, 1]");
  IOBTS_CHECK(window.end > window.begin, "outage window must be non-empty");
  IOBTS_CHECK(window.begin >= sim_.now(),
              "outage window must not start in the past");
  // The surviving fraction is a plain degradation factor applied to both
  // channels with identical edges, so the loss is correlated by
  // construction (fraction 1 collapses to the blackout factor 0).
  const double factor = 1.0 - fraction;
  for (std::size_t c = 0; c < kChannels; ++c) {
    const Channel channel = static_cast<Channel>(c);
    degradations_[c].push_back(
        fault::DegradationEvent{channel, factor, window});
    scheduleDegradationEdges(channel, window);
  }
}

void SharedLink::installFaultPlan(const fault::FaultPlan& plan) {
  IOBTS_CHECK(fault_plan_ == nullptr, "a fault plan is already installed");
  fault_plan_ = &plan;
  if (obs::TraceSink* const sink = obs::traceSink()) plan.annotate(*sink);
  for (const fault::DegradationEvent& ev : plan.degradations()) {
    applyDegradation(ev.channel, ev.factor, ev.window);
  }
  for (const fault::StragglerEvent& ev : plan.stragglers()) {
    applyStraggler(ev.stream, ev.multiplier, ev.window);
  }
  for (const fault::BlackoutEvent& ev : plan.blackouts()) {
    applyBlackout(ev.window);
  }
  for (const fault::OutageEvent& ev : plan.outages()) {
    applyOutage(ev.fraction, ev.window);
  }
}

BytesPerSec SharedLink::effectiveCapacity(Channel channel) const noexcept {
  const ChannelState& cs = chan(channel);
  return cs.degrade_factor != 1.0 ? cs.capacity * cs.degrade_factor
                                  : cs.capacity;
}

BytesPerSec SharedLink::capacity(Channel channel) const noexcept {
  return chan(channel).capacity;
}

std::size_t SharedLink::activeTransfers(Channel channel) const noexcept {
  return chan(channel).active.size();
}

Bytes SharedLink::bytesMoved(Channel channel) const noexcept {
  return chan(channel).bytes_moved;
}

Bytes SharedLink::streamBytes(StreamId stream) const {
  IOBTS_CHECK(stream < streams_.size(), "unknown stream");
  return streams_[stream]->bytes_moved;
}

std::size_t SharedLink::streamCount() const noexcept {
  return streams_.size();
}

const StepSeries& SharedLink::totalRateSeries(Channel channel) const {
  return chan(channel).total_series;
}

const StepSeries& SharedLink::activeTransferSeries(Channel channel) const {
  return chan(channel).active_series;
}

const StepSeries& SharedLink::streamRateSeries(StreamId stream,
                                               Channel channel) const {
  IOBTS_CHECK(stream < streams_.size(), "unknown stream");
  return streams_[stream]->rate_series[static_cast<int>(channel)];
}

bool SharedLink::contended(Channel channel) const noexcept {
  return chan(channel).contended;
}

void SharedLink::poke(Channel channel) { markDirty(channel); }

SharedLink::ResolveStats SharedLink::resolveStats(
    Channel channel) const noexcept {
  const ChannelState& cs = chan(channel);
  return ResolveStats{.executed = cs.resolves_executed,
                      .lazy_skipped = cs.resolves_skipped,
                      .full_solves = cs.full_solves,
                      .faulted_transfers = cs.faulted_transfers,
                      .capacity_edges = cs.capacity_edges};
}

sim::Time SharedLink::nextInterestingTime(Channel channel) const noexcept {
  return chan(channel).next_interesting;
}

void SharedLink::exportMetrics(obs::MetricsRegistry& registry) const {
  for (std::size_t c = 0; c < kChannels; ++c) {
    const Channel channel = static_cast<Channel>(c);
    const ChannelState& cs = chan(channel);
    const std::string prefix = std::string("pfs.") + channelName(channel);
    registry.addCounter(prefix + ".resolves_executed", cs.resolves_executed);
    registry.addCounter(prefix + ".resolves_skipped", cs.resolves_skipped);
    registry.addCounter(prefix + ".full_solves", cs.full_solves);
    registry.addCounter(prefix + ".faulted_transfers", cs.faulted_transfers);
    registry.addCounter(prefix + ".capacity_edges", cs.capacity_edges);
    registry.addCounter(prefix + ".bytes_moved", cs.bytes_moved);
    registry.setGauge(prefix + ".active_transfers",
                      static_cast<double>(cs.active.size()));
    registry.setGauge(prefix + ".effective_capacity",
                      effectiveCapacity(channel));
    registry.setGauge(prefix + ".contended", cs.contended ? 1.0 : 0.0);
  }
  registry.setGauge("pfs.streams", static_cast<double>(streams_.size()));
  if (sim_.isSharded()) {
    registry.setGauge("pfs.link.shard", static_cast<double>(sim_.shardId()));
  }
}

}  // namespace iobts::pfs
