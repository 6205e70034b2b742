#include "pfs/shared_link.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pfs/fair_share.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace iobts::pfs {

namespace {
// A transfer is "drained" when less than half a byte remains (floating-point
// residue from rate * dt settlement).
constexpr double kDrainEpsilonBytes = 0.5;
// The transfer table's encoding of "no noise cap". A real noise cap never
// exceeds the (finite) channel capacity.
constexpr double kNoNoiseCap = std::numeric_limits<double>::infinity();

// A stream weight scales a fair share, so it must be a positive real: an
// infinite one would only surface later, from inside a resolve.
void checkStreamWeight(double weight) {
  IOBTS_CHECK(weight > 0.0, "stream weight must be positive");
  IOBTS_CHECK(std::isfinite(weight), "stream weight must be finite");
}
}  // namespace

// A transfer's cold record: what only admission and completion read. It is a
// local of the transfer() coroutine, so it lives in that suspended frame and
// costs no allocation of its own. The frame stays suspended at done.wait()
// until the completing resolve has fired `done` (which resumes it through
// the event queue, never inline) and dropped the table row that points here.
struct SharedLink::TransferRecord {
  explicit TransferRecord(sim::Simulation& simulation) : done(simulation) {}

  Bytes total = 0;
  sim::Time start = 0.0;
  /// Monotone per-link id; keys the deterministic fault verdict.
  std::uint64_t serial = 0;
  /// Caller's journey id (0 = none); ties the settled span into the
  /// request's flow chain.
  std::uint64_t journey = 0;
  /// Written by the completing resolve before `done` fires.
  TransferStatus status = TransferStatus::Ok;
  sim::Trigger done;
};

// One row of a channel's transfer table: the fields a resolve touches.
struct SharedLink::Transfer {
  double remaining = 0.0;
  double rate = 0.0;
  sim::Time last_settle = 0.0;
  /// Private lognormal cap, or kNoNoiseCap on a noise-free link.
  BytesPerSec noise_cap = kNoNoiseCap;
  StreamId stream = 0;
  TransferRecord* record = nullptr;
};

// The next completion sweep and the next-interesting-time bound of a set of
// rows under their current rates: the earliest full drain
// (remaining / rate) and the earliest crossing of the drain threshold
// ((remaining - epsilon) / rate), folded in table order. A row without rate
// never drains.
struct SharedLink::SweepBounds {
  sim::Time next = std::numeric_limits<double>::infinity();
  sim::Time interesting = std::numeric_limits<double>::infinity();

  void add(double remaining, double rate) {
    if (rate > 0.0) {
      next = std::min(next, remaining / rate);
      interesting =
          std::min(interesting, (remaining - kDrainEpsilonBytes) / rate);
    }
  }

  static SweepBounds of(const std::vector<Transfer>& rows) {
    SweepBounds bounds;
    for (const Transfer& t : rows) bounds.add(t.remaining, t.rate);
    return bounds;
  }
};

// A stream's solve inputs, flat beside streams_ so the level-1 pass reads one
// contiguous array instead of chasing each Stream.
struct SharedLink::StreamInputs {
  double weight = 1.0;
  BytesPerSec cap = 0.0;  // meaningful when `capped`
  bool capped = false;
  bool record = false;
};

struct SharedLink::Stream {
  std::string name;
  Bytes bytes_moved = 0;
  StepSeries rate_series[kChannels];
  std::size_t active[kChannels] = {0, 0};
};

struct SharedLink::ChannelState {
  Channel ch = Channel::Read;
  BytesPerSec capacity = 0.0;
  /// The transfer table: every active transfer of the channel, in admission
  /// order. A resolve compacts it in place and keeps that order.
  std::vector<Transfer> active;
  /// Streams holding two or more of `active`'s transfers. While it is 0
  /// every stream appears at most once in the table, and the solve takes the
  /// table rows themselves as its level-1 items.
  std::size_t shared_streams = 0;
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
  std::uint64_t all_saturating_solves = 0;

  // --- Incremental-resolve bookkeeping ----------------------------------
  // The solve inputs (stream membership, caps, weights, noise caps) are
  // versioned; a resolve whose inputs match the last solved version only
  // settles progress and reschedules the sweep (rates cannot have changed).
  std::uint64_t input_version = 1;
  std::uint64_t solved_version = 0;

  // Persistent scratch for the two-level solve. The stream->group slot map
  // is epoch-stamped so it is valid without an O(total streams) clear per
  // resolve; all other buffers are reused across resolves (allocation-free
  // once warm). The grouping buffers are touched only while some stream
  // holds two transfers.
  std::uint32_t grouping_epoch = 0;
  std::vector<std::uint32_t> slot_epoch;    // per stream id
  std::vector<std::uint32_t> slot;          // per stream id -> group index
  std::vector<StreamId> group_streams;      // group index -> stream id
  std::vector<std::uint32_t> group_count;   // transfers per group
  std::vector<std::uint32_t> group_offset;  // prefix offsets into `grouped`
  std::vector<std::uint32_t> grouped;       // table rows, grouped by stream
  std::vector<FairShareItem> level1;
  std::vector<BytesPerSec> level1_alloc;
  std::vector<FairShareItem> level2;
  std::vector<BytesPerSec> level2_alloc;
  FairShareScratch fair_share_scratch;
};

void checkLinkConfig(const LinkConfig& config) {
  const auto nonNegative = [](double value) {
    return value >= 0.0 && std::isfinite(value);
  };
  IOBTS_CHECK(config.read_capacity > 0.0 &&
                  std::isfinite(config.read_capacity),
              "read capacity must be positive and finite");
  IOBTS_CHECK(config.write_capacity > 0.0 &&
                  std::isfinite(config.write_capacity),
              "write capacity must be positive and finite");
  IOBTS_CHECK(nonNegative(config.noise_sigma),
              "noise sigma must be non-negative and finite");
  IOBTS_CHECK(nonNegative(config.noise_reference_rate),
              "noise reference rate must be non-negative and finite");
  IOBTS_CHECK(nonNegative(config.congestion_gamma),
              "congestion gamma must be non-negative and finite");
  IOBTS_CHECK(nonNegative(config.recompute_quantum),
              "recompute quantum must be non-negative and finite");
  IOBTS_CHECK(nonNegative(config.client_rate_cap),
              "client rate cap must be non-negative and finite");
}

SharedLink::SharedLink(sim::Simulation& simulation, LinkConfig config)
    : sim_(simulation),
      config_(config),
      noise_rng_(config.seed, "pfs-noise") {
  checkLinkConfig(config_);
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

// Touches no transfer record: the records live in suspended transfer()
// frames, which the Simulation may destroy first (a moved-over RestoredRun
// drops its old simulation before its old link).
SharedLink::~SharedLink() = default;

SharedLink::ChannelState& SharedLink::chan(Channel channel) noexcept {
  return *channels_[static_cast<int>(channel)];
}

const SharedLink::ChannelState& SharedLink::chan(
    Channel channel) const noexcept {
  return *channels_[static_cast<int>(channel)];
}

StreamId SharedLink::createStream(std::string name, double weight) {
  checkStreamWeight(weight);
  auto stream = std::make_unique<Stream>();
  stream->name = std::move(name);
  streams_.push_back(std::move(stream));
  stream_inputs_.push_back(StreamInputs{.weight = weight});
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
  stream_inputs_[stream].capped = cap.has_value();
  stream_inputs_[stream].cap = cap.value_or(0.0);
  for (std::size_t c = 0; c < kChannels; ++c) {
    if (streams_[stream]->active[c] > 0) {
      noteSolveInputChanged(static_cast<Channel>(c));
      markDirty(static_cast<Channel>(c));
    }
  }
}

std::optional<BytesPerSec> SharedLink::streamCap(StreamId stream) const {
  IOBTS_CHECK(stream < streams_.size(), "unknown stream");
  const StreamInputs& in = stream_inputs_[stream];
  return in.capped ? std::optional<BytesPerSec>(in.cap) : std::nullopt;
}

void SharedLink::setStreamWeight(StreamId stream, double weight) {
  IOBTS_CHECK(stream < streams_.size(), "unknown stream");
  checkStreamWeight(weight);
  stream_inputs_[stream].weight = weight;
  for (std::size_t c = 0; c < kChannels; ++c) {
    if (streams_[stream]->active[c] > 0) {
      noteSolveInputChanged(static_cast<Channel>(c));
      markDirty(static_cast<Channel>(c));
    }
  }
}

double SharedLink::streamWeight(StreamId stream) const {
  IOBTS_CHECK(stream < streams_.size(), "unknown stream");
  return stream_inputs_[stream].weight;
}

const std::string& SharedLink::streamName(StreamId stream) const {
  IOBTS_CHECK(stream < streams_.size(), "unknown stream");
  return streams_[stream]->name;
}

void SharedLink::setRecordStream(StreamId stream, bool record) {
  IOBTS_CHECK(stream < streams_.size(), "unknown stream");
  stream_inputs_[stream].record = record;
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
  // The cold record lives in this frame; the table row points at it until
  // the completing resolve fires `done`.
  TransferRecord record(sim_);
  record.total = bytes;
  record.start = sim_.now();
  record.serial = next_transfer_serial_++;
  record.journey = journey;
  BytesPerSec noise_cap = kNoNoiseCap;
  if (config_.noise_sigma > 0.0) {
    const double factor =
        std::min(1.0, noise_rng_.lognormalFactor(config_.noise_sigma));
    const BytesPerSec reference = config_.noise_reference_rate > 0.0
                                      ? config_.noise_reference_rate
                                      : cs.capacity;
    noise_cap = std::min(cs.capacity, reference * factor);
  }
  if (++streams_[stream]->active[static_cast<int>(channel)] == 2) {
    ++cs.shared_streams;
  }
  noteSolveInputChanged(channel);
  markDirty(channel);
  // Appended last, so a throw above leaves no row pointing into this frame.
  cs.active.push_back(Transfer{.remaining = static_cast<double>(bytes),
                               .last_settle = sim_.now(),
                               .noise_cap = noise_cap,
                               .stream = stream,
                               .record = &record});

  co_await record.done.wait();
  result.end = sim_.now();
  result.status = record.status;
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
      for (const Transfer& t : cs.active) {
        const double projected = t.remaining - t.rate * (now - t.last_settle);
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

  // 1-2. One pass over the table settles progress since each transfer's
  // last settlement, completes drained transfers and compacts the survivors
  // in place, keeping their order (O(n) even when thousands drain in the
  // same sweep). Completions happen in table order, so triggers fire -- and
  // the (time, seq) resume order of waiting coroutines follows -- in
  // admission order.
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
  const bool judge = fault_plan_ && fault_plan_->hasTransferFaults();
  const auto complete = [&](const Transfer& t) {
    TransferRecord& record = *t.record;
    cs.bytes_moved += record.total;
    Stream& s = *streams_[t.stream];
    s.bytes_moved += record.total;
    if (s.active[static_cast<int>(channel)]-- == 2) --cs.shared_streams;
    // Fault verdict at settle time: the transfer ran to its full fair-share
    // duration and consumed bandwidth either way, but a faulted one reports
    // an EIO-class error to its waiter. The verdict is written into the
    // record before fire() so the awaiting frame observes it on resumption.
    bool faulted = false;
    if (judge && fault_plan_->faultVerdict(channel, record.serial, now)) {
      record.status = TransferStatus::Faulted;
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
                     obs::track::kStreams, t.stream, record.start,
                     now - record.start, static_cast<double>(record.total));
      if (record.journey != 0) {
        sink->flowStep("journey", "io", obs::track::kStreams, t.stream,
                       record.start, record.journey);
      }
    }
    record.done.fire();
  };
  // The settled fields are written once, into the survivor's final slot; a
  // shifted row copies its untouched fields one by one (copying the whole
  // row would reload the fields just stored through wider loads, a
  // store-forwarding stall per row).
  auto& active = cs.active;
  std::size_t write_pos = 0;
  for (std::size_t read_pos = 0; read_pos < active.size(); ++read_pos) {
    const Transfer& t = active[read_pos];
    double remaining = t.remaining;
    const sim::Time dt = now - t.last_settle;
    if (dt > 0.0 && t.rate > 0.0) {
      remaining = std::max(0.0, remaining - t.rate * dt);
    }
    if (remaining <= kDrainEpsilonBytes || remaining <= t.rate * ulp) {
      complete(t);
      continue;
    }
    Transfer& survivor = active[write_pos++];
    if (&survivor != &t) {
      survivor.rate = t.rate;
      survivor.noise_cap = t.noise_cap;
      survivor.stream = t.stream;
      survivor.record = t.record;
    }
    survivor.remaining = remaining;
    survivor.last_settle = now;
  }
  if (write_pos != active.size()) {
    active.resize(write_pos);
    ++cs.input_version;
  }

  // 3. Re-solve the two-level allocation -- but only if the solve inputs
  // (membership, caps, weights) changed since the last solve. A resolve
  // with unchanged inputs (e.g. a coalesced dirty notification arriving
  // right after a sweep already resolved at this instant) cannot change any
  // rate, so settle + sweep rescheduling is sufficient. The solve derives
  // the sweep bounds of step 4 from the rates it writes; a resolve that
  // settles without solving derives them from the rates it kept.
  SweepBounds bounds;
  if (cs.input_version != cs.solved_version || config_.force_full_resolve) {
    const std::size_t groups = solveRates(cs, channel, now, bounds);
    cs.solved_version = cs.input_version;
    ++cs.full_solves;
    if (sink != nullptr) {
      sink->instant("pfs", "solve", obs::track::kLink, trace_tid, now,
                    static_cast<double>(groups));
    }
  } else {
    bounds = SweepBounds::of(cs.active);
  }

  // 4. Schedule the next completion sweep and re-derive the
  // next-interesting-time bound. Invalidate any in-flight sweep first; we
  // repost below. The sweep targets full drain (remaining / rate) while the
  // bound targets the drain threshold ((remaining - epsilon) / rate), so
  // the bound never exceeds the sweep time and the sweep itself is never
  // lazily skipped.
  ++cs.sweep_generation;
  cs.next_interesting = std::isfinite(bounds.interesting)
                            ? now + std::max(0.0, bounds.interesting)
                            : std::numeric_limits<double>::infinity();
  if (std::isfinite(bounds.next)) {
    const std::uint64_t gen = cs.sweep_generation;
    sim_.post(bounds.next, [this, channel, gen] {
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

std::size_t SharedLink::solveRates(ChannelState& cs, Channel channel,
                                   sim::Time now, SweepBounds& bounds) {
  //    Level 1: streams (weight = stream weight, cap = stream cap combined
  //    with the sum of its transfers' noise caps).
  //    Level 2: a stream's transfers split its allocation equally, subject
  //    to per-transfer noise caps.

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
  const BytesPerSec channel_capacity = cs.capacity;
  const BytesPerSec client_rate_cap = config_.client_rate_cap;
  const bool noisy = config_.noise_sigma > 0.0;
  // Writes level-1 item k for a stream with inputs `in` whose transfers'
  // noise caps sum to `noise_sum` (read only with noise on), adds its
  // demand, and returns its (capped, cap) pair. The cap is carried as that
  // pair and the item is written field by field: assembling a
  // std::optional temporary and copying it in reloads two narrow stores as
  // one wide load, a store-forwarding stall on every item.
  const auto writeItem = [&](std::size_t k, const StreamInputs& in,
                             double noise_sum) {
    bool capped = in.capped;
    BytesPerSec cap = in.cap;
    if (client_rate_cap > 0.0) {
      const BytesPerSec client_cap = client_rate_cap * in.weight;
      cap = capped ? std::min(cap, client_cap) : client_cap;
      capped = true;
    }
    if (noisy) {
      // With noise on, every transfer carries a noise cap.
      cap = capped ? std::min(cap, noise_sum) : noise_sum;
      capped = true;
    }
    FairShareItem& item = cs.level1[k];
    item.weight = in.weight;
    if (capped) {
      item.cap = cap;
    } else {
      item.cap.reset();
    }
    total_demand +=
        capped ? std::min(cap, channel_capacity) : channel_capacity;
    return std::pair{capped, cap};
  };
  const auto noiseCap = [](const Transfer& t) {
    return t.noise_cap != kNoNoiseCap ? std::optional<BytesPerSec>(t.noise_cap)
                                      : std::nullopt;
  };
  const auto recordRate = [&](StreamId sid, BytesPerSec rate) {
    streams_[sid]->rate_series[static_cast<int>(channel)].add(now, rate);
  };

  std::size_t n_groups = cs.active.size();
  if (cs.shared_streams == 0) {
    // Every stream holds at most one of the table's transfers, so the
    // grouping is the table itself: level-1 item k is row k, and each
    // level-2 solve is a lone transfer's. Two walks. The first writes the
    // items and folds in the demand and fairShareAllocate's validation scan
    // (FairShareClass); the second writes the rates and folds in their
    // total and the sweep bounds. A lone transfer takes its stream's whole
    // allocation up to its noise cap: fairShareSingle gives the level-2
    // solve's exact bits without running it. Every floating-point chain
    // keeps the operands and order of the separate loops it replaces.
    cs.level1.resize(n_groups);
    FairShareClass scan;  // a local, so its sums stay out of memory
    for (std::size_t k = 0; k < n_groups; ++k) {
      const Transfer& t = cs.active[k];
      const StreamInputs& in = stream_inputs_[t.stream];
      // A one-row group's noise sum, 0.0 + noise_cap, is noise_cap: noise
      // caps are never -0.0.
      const auto [capped, cap] = writeItem(k, in, t.noise_cap);
      scan.add(in.weight, capped, cap);
    }
    const FairShareClass classification = scan;
    // Stream weights are positive, so when the all-saturating rule holds
    // every item is capped and its allocation is its cap: no allocation
    // vector, no total. Otherwise the classification goes straight to the
    // allocation step.
    const bool saturated = classification.allSaturating(effective_capacity);
    if (saturated) {
      ++cs.all_saturating_solves;
    } else {
      fairShareAllocate(cs.level1, effective_capacity, classification,
                        cs.fair_share_scratch, cs.level1_alloc);
    }
    const bool recording = !recorded_streams_.empty();
    SweepBounds found;  // a local, so the minima stay out of memory
    for (std::size_t k = 0; k < n_groups; ++k) {
      Transfer& t = cs.active[k];
      const BytesPerSec rate = fairShareSingle(
          noiseCap(t), saturated ? *cs.level1[k].cap : cs.level1_alloc[k]);
      t.rate = rate;
      total_rate += rate;
      if (recording && stream_inputs_[t.stream].record) {
        recordRate(t.stream, rate);
      }
      found.add(t.remaining, rate);
    }
    bounds = found;
  } else {
    // Group k is a stream and holds the table rows member(begin(k)) ..
    // member(begin(k + 1) - 1), groups in order of first appearance in the
    // table, grouped through the epoch-stamped slot map (no per-resolve
    // O(total streams) clear) into flat reused buffers (no per-resolve
    // vector-of-vectors).
    const std::uint32_t epoch = ++cs.grouping_epoch;
    if (cs.slot_epoch.size() < streams_.size()) {
      cs.slot_epoch.resize(streams_.size(), 0);
      cs.slot.resize(streams_.size(), 0);
    }
    cs.group_streams.clear();
    cs.group_count.clear();
    for (const Transfer& t : cs.active) {
      if (cs.slot_epoch[t.stream] != epoch) {
        cs.slot_epoch[t.stream] = epoch;
        cs.slot[t.stream] = static_cast<std::uint32_t>(cs.group_streams.size());
        cs.group_streams.push_back(t.stream);
        cs.group_count.push_back(0);
      }
      ++cs.group_count[cs.slot[t.stream]];
    }
    n_groups = cs.group_streams.size();
    cs.group_offset.resize(n_groups + 1);
    cs.group_offset[0] = 0;
    for (std::size_t k = 0; k < n_groups; ++k) {
      cs.group_offset[k + 1] = cs.group_offset[k] + cs.group_count[k];
    }
    cs.grouped.resize(cs.active.size());
    // group_count doubles as the per-group fill cursor during placement.
    std::fill(cs.group_count.begin(), cs.group_count.end(), 0u);
    for (std::uint32_t i = 0; i < cs.active.size(); ++i) {
      const std::uint32_t g = cs.slot[cs.active[i].stream];
      cs.grouped[cs.group_offset[g] + cs.group_count[g]++] = i;
    }
    const auto begin = [&](std::size_t k) { return cs.group_offset[k]; };
    const auto member = [&](std::uint32_t j) -> Transfer& {
      return cs.active[cs.grouped[j]];
    };

    cs.level1.resize(n_groups);
    for (std::size_t k = 0; k < n_groups; ++k) {
      double noise_sum = 0.0;
      if (noisy) {
        for (std::uint32_t j = begin(k); j < begin(k + 1); ++j) {
          noise_sum += member(j).noise_cap;
        }
      }
      writeItem(k, stream_inputs_[cs.group_streams[k]], noise_sum);
    }
    if (fairShareInto(cs.level1, effective_capacity, cs.fair_share_scratch,
                      cs.level1_alloc)
            .all_saturating) {
      ++cs.all_saturating_solves;
    }

    for (std::size_t k = 0; k < n_groups; ++k) {
      const std::uint32_t first = begin(k);
      const std::uint32_t count = begin(k + 1) - first;
      BytesPerSec stream_rate = 0.0;
      if (count == 1) {
        // A lone transfer: the level-2 solve's exact bits without running
        // it, as above.
        Transfer& t = member(first);
        t.rate = fairShareSingle(noiseCap(t), cs.level1_alloc[k]);
        stream_rate = t.rate;
      } else {
        cs.level2.resize(count);
        for (std::uint32_t j = 0; j < count; ++j) {
          cs.level2[j].weight = 1.0;
          cs.level2[j].cap = noiseCap(member(first + j));
        }
        stream_rate = fairShareInto(cs.level2, cs.level1_alloc[k],
                                    cs.fair_share_scratch, cs.level2_alloc)
                          .total;
        for (std::uint32_t j = 0; j < count; ++j) {
          member(first + j).rate = cs.level2_alloc[j];
        }
      }
      total_rate += stream_rate;
      const StreamId sid = cs.group_streams[k];
      if (stream_inputs_[sid].record) recordRate(sid, stream_rate);
    }
    bounds = SweepBounds::of(cs.active);
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
  // degradation window can push an otherwise-uncontended load over the edge.
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
  return n_groups;
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

void SharedLink::addDegradation(Channel channel, double factor,
                                fault::TimeWindow window) {
  degradations_[static_cast<int>(channel)].push_back(
      fault::DegradationEvent{channel, factor, window});
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

void SharedLink::installFaultPlan(const fault::FaultPlan& plan) {
  IOBTS_CHECK(fault_plan_ == nullptr, "a fault plan is already installed");
  // The plan validated its factors and windows when it was built; only the
  // install time is unknown to it. Checked before anything is scheduled.
  const sim::Time now = sim_.now();
  bool in_past = false;
  for (const auto& ev : plan.degradations()) in_past |= ev.window.begin < now;
  for (const auto& ev : plan.blackouts()) in_past |= ev.window.begin < now;
  for (const auto& ev : plan.outages()) in_past |= ev.window.begin < now;
  IOBTS_CHECK(!in_past, "fault window must not start in the past");
  fault_plan_ = &plan;
  if (obs::TraceSink* const sink = obs::traceSink()) plan.annotate(*sink);
  for (const fault::DegradationEvent& ev : plan.degradations()) {
    addDegradation(ev.channel, ev.factor, ev.window);
  }
  // A blackout is a factor-0 window on both channels: the compound product
  // collapses to 0 for the window's duration.
  for (const fault::BlackoutEvent& ev : plan.blackouts()) {
    for (std::size_t c = 0; c < kChannels; ++c) {
      addDegradation(static_cast<Channel>(c), 0.0, ev.window);
    }
  }
  // An outage keeps the surviving fraction on both channels with identical
  // edges, so the loss is correlated by construction (fraction 1 collapses
  // to the blackout factor 0).
  for (const fault::OutageEvent& ev : plan.outages()) {
    for (std::size_t c = 0; c < kChannels; ++c) {
      addDegradation(static_cast<Channel>(c), 1.0 - ev.fraction, ev.window);
    }
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
                      .all_saturating_solves = cs.all_saturating_solves,
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
