#include "tmio/tracer.hpp"

#include <algorithm>
#include <cmath>
#include <initializer_list>

#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/file_io.hpp"
#include "util/json.hpp"
#include "util/log.hpp"

namespace iobts::tmio {

namespace {

Json toJson(const PhaseRecord& p) {
  JsonObject obj;
  obj["kind"] = "phase";
  obj["rank"] = p.rank;
  obj["phase"] = p.phase;
  obj["channel"] = pfs::channelName(p.channel);
  obj["ts"] = p.ts;
  obj["te"] = p.te;
  obj["bytes"] = static_cast<double>(p.bytes);
  obj["requests"] = p.requests;
  obj["B"] = p.required;
  if (p.applied_limit) obj["B_L"] = *p.applied_limit;
  return Json(obj);
}

Json toJson(const ThroughputRecord& t) {
  JsonObject obj;
  obj["kind"] = "throughput";
  obj["rank"] = t.rank;
  obj["channel"] = pfs::channelName(t.channel);
  obj["start"] = t.start;
  obj["end"] = t.end;
  obj["bytes"] = static_cast<double>(t.bytes);
  obj["T"] = t.throughput;
  return Json(obj);
}

Json toJson(const LimitChange& c) {
  JsonObject obj;
  obj["kind"] = "limit";
  obj["rank"] = c.rank;
  obj["time"] = c.time;
  if (c.limit) obj["limit"] = *c.limit;
  return Json(obj);
}

// Guard for degenerate windows (wait reached in the same instant as submit):
// the required bandwidth is effectively unbounded; clamp the window instead
// of dividing by zero.
constexpr double kMinWindow = 1e-9;
}  // namespace

/// Requests of one in-flight bandwidth phase.
struct Tracer::OpenPhase {
  int index = -1;
  pfs::Channel channel = pfs::Channel::Write;
  sim::Time ts = sim::kNoTime;
  Bytes bytes = 0;
  std::optional<BytesPerSec> applied_limit{};
  struct Req {
    std::uint64_t id;
    sim::Time ts;
    Bytes bytes;
  };
  std::vector<Req> requests;
  std::size_t waits_pending = 0;  // requests whose wait has not been reached
  bool closed = false;            // B computed (FirstWait mode)
};

struct Tracer::RankState {
  explicit RankState(const TracerConfig& config) {
    for (auto& s : strategy) s = makeStrategy(config.strategy, config.params);
  }

  // One strategy/limit per channel: read and write phases have different
  // overlap windows, so a shared limit would oscillate between them.
  std::unique_ptr<LimitStrategy> strategy[pfs::kChannels];
  std::optional<BytesPerSec> current_limit[pfs::kChannels]{};

  // Bandwidth-monitoring queue. Retired phases wait in spare_phases with
  // their request vectors' capacity, so steady-state phases never allocate.
  std::unique_ptr<OpenPhase> open_phase;
  std::vector<std::unique_ptr<OpenPhase>> draining_phases;  // closed, waits pending
  std::vector<std::unique_ptr<OpenPhase>> spare_phases;
  int next_phase_index = 0;

  std::unique_ptr<OpenPhase> takeSparePhase() {
    if (spare_phases.empty()) return std::make_unique<OpenPhase>();
    std::unique_ptr<OpenPhase> phase = std::move(spare_phases.back());
    spare_phases.pop_back();
    return phase;
  }

  /// Recycle a phase whose waits have all been reached.
  void retirePhase(std::unique_ptr<OpenPhase> phase) {
    phase->bytes = 0;
    phase->requests.clear();  // keeps its capacity for the next phase
    phase->waits_pending = 0;
    phase->closed = false;
    spare_phases.push_back(std::move(phase));
  }

  // Throughput-monitoring queue (Eq. 2 window).
  int tput_outstanding = 0;
  sim::Time tput_start = sim::kNoTime;
  Bytes tput_bytes = 0;
  pfs::Channel tput_channel = pfs::Channel::Write;

  // Per-request bookkeeping for exploit/lost classification, in id order
  // (onFinalize sums in that order). The runtime numbers a rank's requests
  // upwards, so a submit appends; an id already live is ignored.
  struct LiveRequest {
    std::uint64_t id = 0;
    sim::Time io_start = sim::kNoTime;
    sim::Time io_end = sim::kNoTime;
    pfs::Channel channel = pfs::Channel::Write;
    bool completed = false;
  };
  std::vector<LiveRequest> live;

  /// First live request whose id is not below `id`.
  std::vector<LiveRequest>::iterator liveFrom(std::uint64_t id) {
    return std::lower_bound(
        live.begin(), live.end(), id,
        [](const LiveRequest& r, std::uint64_t key) { return r.id < key; });
  }
  std::vector<LiveRequest>::iterator findLive(std::uint64_t id) {
    const auto it = liveFrom(id);
    return it != live.end() && it->id == id ? it : live.end();
  }

  AsyncTimeSplit split;
  std::size_t intercepted_calls = 0;
};

Tracer::Tracer(TracerConfig config) : config_(config) {}

Tracer::~Tracer() = default;

void Tracer::attach(mpisim::World& world) {
  IOBTS_CHECK(world.hooks() == this,
              "tracer must be passed as the world's hooks");
  world_ = &world;
  ranks_.clear();
  ranks_.reserve(static_cast<std::size_t>(world.config().ranks));
  for (int r = 0; r < world.config().ranks; ++r) {
    ranks_.push_back(std::make_unique<RankState>(config_));
  }
  if (obs::TraceSink* const sink = obs::traceSink()) {
    sink->setProcessName(obs::track::kTmio, "tmio tracer (B_req per phase)");
  }
}

Tracer::RankState& Tracer::state(int rank) {
  IOBTS_CHECK(world_ != nullptr, "tracer not attached to a world");
  IOBTS_CHECK(rank >= 0 && rank < static_cast<int>(ranks_.size()),
              "rank out of range");
  return *ranks_[rank];
}

sim::Time Tracer::now() const { return world_->sim().now(); }

Seconds Tracer::interceptOverhead() const {
  return config_.overhead.intercept_per_call;
}

void Tracer::onSubmit(const mpisim::RequestInfo& info) {
  RankState& rs = state(info.rank);
  ++rs.intercepted_calls;
  if (!mpisim::isAsync(info.op)) return;

  // Bandwidth queue: open a phase if none is accepting requests.
  const pfs::Channel channel = mpisim::channelOf(info.op);
  if (!rs.open_phase) {
    rs.open_phase = rs.takeSparePhase();
    rs.open_phase->index = rs.next_phase_index++;
    rs.open_phase->channel = channel;
    rs.open_phase->ts = info.submit_time;
    rs.open_phase->applied_limit = rs.current_limit[static_cast<int>(channel)];
  }
  OpenPhase& phase = *rs.open_phase;
  phase.bytes += info.bytes;
  phase.requests.push_back({info.id, info.submit_time, info.bytes});
  ++phase.waits_pending;

  // Throughput queue: window opens with the first outstanding request.
  if (rs.tput_outstanding == 0) {
    rs.tput_start = info.submit_time;
    rs.tput_bytes = 0;
    rs.tput_channel = channel;
  }
  ++rs.tput_outstanding;
  rs.tput_bytes += info.bytes;

  const auto at = rs.liveFrom(info.id);  // end() unless ids arrive out of order
  if (at == rs.live.end() || at->id != info.id) {
    RankState::LiveRequest request;
    request.id = info.id;
    request.channel = channel;
    rs.live.insert(at, request);
  }
}

void Tracer::onComplete(const mpisim::RequestInfo& info) {
  if (!mpisim::isAsync(info.op)) return;
  RankState& rs = state(info.rank);

  const auto it = rs.findLive(info.id);
  if (it != rs.live.end()) {
    it->io_start = info.io_start;
    it->io_end = info.io_end;
    it->completed = true;
  }

  // Throughput queue drains on completion.
  IOBTS_CHECK(rs.tput_outstanding > 0, "completion without submission");
  if (--rs.tput_outstanding == 0) {
    ThroughputRecord record;
    record.rank = info.rank;
    record.channel = rs.tput_channel;
    record.start = rs.tput_start;
    record.end = info.io_end;
    record.bytes = rs.tput_bytes;
    const double window = std::max(kMinWindow, record.end - record.start);
    record.throughput = static_cast<double>(record.bytes) / window;
    throughputs_.push_back(record);
    if (config_.publisher) config_.publisher->publish(toJson(record));
  }
}

void Tracer::closePhase(RankState& rs, OpenPhase& phase, int rank) {
  phase.closed = true;
  const sim::Time te = now();

  PhaseRecord record;
  record.rank = rank;
  record.phase = phase.index;
  record.channel = phase.channel;
  record.ts = phase.ts;
  record.te = te;
  record.bytes = phase.bytes;
  record.requests = static_cast<int>(phase.requests.size());
  record.applied_limit = phase.applied_limit;

  // Eq. 1, summed over the phase's requests (the paper's choice: the sum
  // yields higher B_ij than the average).
  double required = 0.0;
  for (const OpenPhase::Req& req : phase.requests) {
    const double window = std::max(kMinWindow, te - req.ts);
    required += static_cast<double>(req.bytes) / window;
  }
  record.required = required;

  // Live B_req telemetry: each closed phase publishes its required
  // bandwidth (Eq. 1) as a counter sample at the phase end, one series per
  // (channel, rank) -- the online signal an FTIO-style consumer would read.
  if (obs::TraceSink* const sink = obs::traceSink()) {
    sink->counter("tmio",
                  phase.channel == pfs::Channel::Read ? "tmio.breq.read"
                                                      : "tmio.breq.write",
                  obs::track::kTmio, static_cast<std::uint32_t>(rank), te,
                  record.required);
  }

  // Strategy: limit for the next phase on this channel (Sec. IV-B).
  const int chan = static_cast<int>(phase.channel);
  const std::optional<BytesPerSec> limit =
      rs.strategy[chan]->nextLimit(required);
  phases_.push_back(record);
  if (config_.publisher) config_.publisher->publish(toJson(record));

  if (config_.apply_limits && limit.has_value()) {
    rs.current_limit[chan] = limit;
  }
}

void Tracer::onWaitEnter(const mpisim::RequestInfo& info) {
  RankState& rs = state(info.rank);
  ++rs.intercepted_calls;
  if (!mpisim::isAsync(info.op)) return;

  auto handle_phase = [&](OpenPhase& phase) -> bool {
    auto req_it = std::find_if(
        phase.requests.begin(), phase.requests.end(),
        [&](const OpenPhase::Req& r) { return r.id == info.id; });
    if (req_it == phase.requests.end()) return false;

    const bool is_first_wait = phase.waits_pending ==
                               phase.requests.size();
    --phase.waits_pending;
    const bool should_close =
        !phase.closed &&
        ((config_.phase_end == PhaseEndMode::FirstWait && is_first_wait) ||
         (config_.phase_end == PhaseEndMode::LastWait &&
          phase.waits_pending == 0));
    if (should_close) {
      closePhase(rs, phase, info.rank);
      const int chan = static_cast<int>(phase.channel);
      if (config_.apply_limits && rs.current_limit[chan].has_value()) {
        // Push the new limit to the MPI extension now -- it governs the next
        // phase's I/O on this channel (Sec. IV-B).
        world_->setRankLimit(info.rank, phase.channel,
                             rs.current_limit[chan]);
        limit_changes_.push_back(
            LimitChange{info.rank, now(), rs.current_limit[chan]});
        if (config_.publisher) {
          config_.publisher->publish(toJson(limit_changes_.back()));
        }
      }
    }
    return true;
  };

  if (rs.open_phase && handle_phase(*rs.open_phase)) {
    if (rs.open_phase->closed) {
      // Phase is measured; keep it around only while waits are pending.
      if (rs.open_phase->waits_pending == 0) {
        rs.retirePhase(std::move(rs.open_phase));
      } else {
        rs.draining_phases.push_back(std::move(rs.open_phase));
      }
    }
    return;
  }
  for (auto it = rs.draining_phases.begin(); it != rs.draining_phases.end();
       ++it) {
    if (handle_phase(**it)) {
      if ((*it)->waits_pending == 0) {
        rs.retirePhase(std::move(*it));
        rs.draining_phases.erase(it);
      }
      return;
    }
  }
  // A wait for a request we never saw submitted (e.g. tracer attached late):
  // ignore, like PMPI tools do.
}

void Tracer::onWaitExit(const mpisim::RequestInfo& info, Seconds blocked) {
  if (!mpisim::isAsync(info.op)) return;
  RankState& rs = state(info.rank);
  const bool write = mpisim::isWrite(info.op);
  if (write) {
    rs.split.write_lost += blocked;
  } else {
    rs.split.read_lost += blocked;
  }

  const auto it = rs.findLive(info.id);
  if (it != rs.live.end()) {
    const RankState::LiveRequest& live = *it;
    if (live.completed) {
      const sim::Time wait_reached = now() - blocked;
      const Seconds io_time = live.io_end - live.io_start;
      const Seconds visible = std::max(0.0, live.io_end - wait_reached);
      const Seconds exploited = std::max(0.0, io_time - visible);
      if (write) {
        rs.split.write_exploit += exploited;
      } else {
        rs.split.read_exploit += exploited;
      }
    }
    rs.live.erase(it);
  }
}

void Tracer::onSyncStart(const mpisim::RequestInfo& info) {
  RankState& rs = state(info.rank);
  ++rs.intercepted_calls;
}

void Tracer::onSyncEnd(const mpisim::RequestInfo& info) {
  RankState& rs = state(info.rank);
  const Seconds duration = now() - info.submit_time;
  if (mpisim::isWrite(info.op)) {
    rs.split.sync_write += duration;
  } else {
    rs.split.sync_read += duration;
  }
}

Seconds Tracer::onFinalize(int rank) {
  RankState& rs = state(rank);
  // Requests drained without a wait: their I/O ran entirely in the
  // background; count it as exploited time on the request's channel.
  for (const RankState::LiveRequest& live : rs.live) {
    if (!live.completed) continue;
    const Seconds io_time = live.io_end - live.io_start;
    if (live.channel == pfs::Channel::Write) {
      rs.split.write_exploit += io_time;
    } else {
      rs.split.read_exploit += io_time;
    }
  }
  rs.live.clear();

  const OverheadModel& model = config_.overhead;
  const int ranks = world_->config().ranks;
  const double records =
      static_cast<double>(rs.intercepted_calls);
  return model.finalize_base +
         model.finalize_per_stage * mpisim::treeStages(ranks) +
         model.finalize_per_record * records +
         model.finalize_per_rank * static_cast<double>(ranks);
}

sim::Time Tracer::firstLimitTime() const noexcept {
  sim::Time first = sim::kNoTime;
  for (const LimitChange& change : limit_changes_) {
    if (first < 0.0 || change.time < first) first = change.time;
  }
  return first;
}

const AsyncTimeSplit& Tracer::rankSplit(int rank) const {
  IOBTS_CHECK(rank >= 0 && rank < static_cast<int>(ranks_.size()),
              "rank out of range");
  return ranks_[rank]->split;
}

StepSeries Tracer::appRequiredSeries(
    std::optional<pfs::Channel> channel) const {
  std::vector<Interval> intervals;
  intervals.reserve(phases_.size());
  for (const PhaseRecord& p : phases_) {
    if (channel && p.channel != *channel) continue;
    intervals.push_back({p.ts, p.te, p.required});
  }
  return sweepRegions(std::move(intervals));
}

StepSeries Tracer::appThroughputSeries(
    std::optional<pfs::Channel> channel) const {
  std::vector<Interval> intervals;
  intervals.reserve(throughputs_.size());
  for (const ThroughputRecord& t : throughputs_) {
    if (channel && t.channel != *channel) continue;
    intervals.push_back({t.start, t.end, t.throughput});
  }
  return sweepRegions(std::move(intervals));
}

StepSeries Tracer::appLimitSeries(std::optional<pfs::Channel> channel) const {
  std::vector<Interval> intervals;
  for (const PhaseRecord& p : phases_) {
    if (channel && p.channel != *channel) continue;
    if (!p.applied_limit) continue;
    intervals.push_back({p.ts, p.te, *p.applied_limit});
  }
  return sweepRegions(std::move(intervals));
}

BytesPerSec Tracer::minimalRequiredBandwidth() const {
  return appRequiredSeries().maxValue();
}

bool Tracer::writeJsonl(const std::string& path) const {
  std::string text;
  for (const PhaseRecord& p : phases_) text += toJson(p).dump() + '\n';
  for (const ThroughputRecord& t : throughputs_) {
    text += toJson(t).dump() + '\n';
  }
  for (const LimitChange& c : limit_changes_) text += toJson(c).dump() + '\n';
  return publishFile(path, text);
}

bool Tracer::writeCsv(const std::string& prefix) const {
  // Every field is a number or a channel name, so none needs CSV quoting.
  const auto row = [](std::string& out,
                      std::initializer_list<std::string> fields) {
    for (const std::string& field : fields) (out += field) += ',';
    out.back() = '\n';
  };
  std::string phases = "rank,phase,channel,ts,te,bytes,requests,B,B_L\n";
  for (const PhaseRecord& p : phases_) {
    row(phases, {std::to_string(p.rank), std::to_string(p.phase),
                 pfs::channelName(p.channel), std::to_string(p.ts),
                 std::to_string(p.te), std::to_string(p.bytes),
                 std::to_string(p.requests), std::to_string(p.required),
                 p.applied_limit ? std::to_string(*p.applied_limit) : ""});
  }
  std::string throughput = "rank,channel,start,end,bytes,T\n";
  for (const ThroughputRecord& t : throughputs_) {
    row(throughput, {std::to_string(t.rank), pfs::channelName(t.channel),
                     std::to_string(t.start), std::to_string(t.end),
                     std::to_string(t.bytes), std::to_string(t.throughput)});
  }
  return publishFile(prefix + "_phases.csv", phases) &&
         publishFile(prefix + "_throughput.csv", throughput);
}

}  // namespace iobts::tmio
