#include "obs/binlog.hpp"

// GCC needs the vectorizer cranked up for the checksum's lane scan to turn
// into packed shift/xor; everything else in this file is fine at -O2.
#if defined(__GNUC__) && !defined(__clang__)
#define IOBTS_VECTOR_SCAN __attribute__((optimize("O3,unroll-loops")))
#else
#define IOBTS_VECTOR_SCAN
#endif

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <numeric>

namespace iobts::obs {
namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;
// Lane seeds: lane i starts at kFnvOffset perturbed by i times the golden
// ratio, so no two lanes ever share a state.
constexpr std::uint64_t kFnvGolden = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t fnvLaneSeed(unsigned lane) {
  return kFnvOffset ^ (kFnvGolden * lane);
}

constexpr std::uint64_t rotl1(std::uint64_t v) noexcept {
  return (v << 1) | (v >> 63);
}

std::uint64_t fnvWordStep(std::uint64_t h, std::uint64_t word) noexcept {
  h ^= word;
  h *= kFnvPrime;
  return h;
}

// On little-endian hosts the wire layout *is* the in-memory layout, and the
// memcpy forms compile to single loads/stores -- the byte-shift fallbacks
// keep big-endian hosts correct.
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
constexpr bool kHostLittleEndian = true;
#else
constexpr bool kHostLittleEndian = false;
#endif

void putU32(char* out, std::uint32_t v) noexcept {
  if constexpr (kHostLittleEndian) {
    std::memcpy(out, &v, sizeof(v));
  } else {
    for (int i = 0; i < 4; ++i) {
      out[i] = static_cast<char>((v >> (8 * i)) & 0xffU);
    }
  }
}

void putU64(char* out, std::uint64_t v) noexcept {
  if constexpr (kHostLittleEndian) {
    std::memcpy(out, &v, sizeof(v));
  } else {
    for (int i = 0; i < 8; ++i) {
      out[i] = static_cast<char>((v >> (8 * i)) & 0xffU);
    }
  }
}

void putF64(char* out, double v) noexcept {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  putU64(out, bits);
}

void appendU32(std::string& out, std::uint32_t v) {
  char buf[4];
  putU32(buf, v);
  out.append(buf, sizeof(buf));
}

void appendU64(std::string& out, std::uint64_t v) {
  char buf[8];
  putU64(buf, v);
  out.append(buf, sizeof(buf));
}

std::uint32_t readU32(const char* data) noexcept {
  if constexpr (kHostLittleEndian) {
    std::uint32_t out;
    std::memcpy(&out, data, sizeof(out));
    return out;
  } else {
    std::uint32_t out = 0;
    for (int i = 0; i < 4; ++i) {
      out |= static_cast<std::uint32_t>(static_cast<unsigned char>(data[i]))
             << (8 * i);
    }
    return out;
  }
}

std::uint64_t readU64(const char* data) noexcept {
  if constexpr (kHostLittleEndian) {
    std::uint64_t out;
    std::memcpy(&out, data, sizeof(out));
    return out;
  } else {
    std::uint64_t out = 0;
    for (int i = 0; i < 8; ++i) {
      out |= static_cast<std::uint64_t>(static_cast<unsigned char>(data[i]))
             << (8 * i);
    }
    return out;
  }
}

double readF64(const char* data) noexcept {
  const std::uint64_t bits = readU64(data);
  double out;
  std::memcpy(&out, &bits, sizeof(out));
  return out;
}

std::uint64_t f64Bits(double v) noexcept {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double f64FromBits(std::uint64_t bits) noexcept {
  double out;
  std::memcpy(&out, &bits, sizeof(out));
  return out;
}

/// Strict little-endian cursor over the container bytes. Running out of
/// file bytes is Truncated with the offset and what was being read.
class FileReader {
 public:
  FileReader(const std::string& bytes, const std::string& origin)
      : bytes_(bytes), origin_(origin) {}

  std::size_t offset() const noexcept { return pos_; }
  std::size_t remaining() const noexcept { return bytes_.size() - pos_; }

  const char* take(std::size_t n, const char* what) {
    if (remaining() < n) {
      throw BinlogError(
          BinlogErrorKind::Truncated,
          origin_ + ": truncated trace: need " + std::to_string(n) +
              " byte(s) for " + what + " at offset " + std::to_string(pos_) +
              ", only " + std::to_string(remaining()) + " left");
    }
    const char* out = bytes_.data() + pos_;
    pos_ += n;
    return out;
  }

  std::uint32_t u32(const char* what) { return readU32(take(4, what)); }
  std::uint64_t u64(const char* what) { return readU64(take(8, what)); }

 private:
  const std::string& bytes_;
  const std::string& origin_;
  std::size_t pos_ = 0;
};

/// Cursor over one chunk's payload. The payload length was already
/// satisfied at file level, so running out of bytes *inside* it means the
/// chunk's internal structure lies about itself: Malformed, not Truncated.
class PayloadReader {
 public:
  PayloadReader(const char* data, std::size_t size, const std::string& origin,
                const char* chunk)
      : data_(data), size_(size), origin_(origin), chunk_(chunk) {}

  std::size_t remaining() const noexcept { return size_ - pos_; }

  const char* take(std::size_t n, const char* what) {
    if (remaining() < n) {
      throw BinlogError(
          BinlogErrorKind::Malformed,
          origin_ + ": " + chunk_ + " chunk: need " + std::to_string(n) +
              " byte(s) for " + what + ", only " +
              std::to_string(remaining()) + " left in the payload");
    }
    const char* out = data_ + pos_;
    pos_ += n;
    return out;
  }

  void requireDrained() const {
    if (remaining() != 0) {
      throw BinlogError(BinlogErrorKind::Malformed,
                        origin_ + ": " + chunk_ + " chunk has " +
                            std::to_string(remaining()) +
                            " trailing payload byte(s)");
    }
  }

  std::uint32_t u32(const char* what) { return readU32(take(4, what)); }
  std::uint64_t u64(const char* what) { return readU64(take(8, what)); }

  /// LEB128 varint; must terminate within 64 bits.
  std::uint64_t varint(const char* what) {
    std::uint64_t out = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
      const auto b = static_cast<unsigned char>(*take(1, what));
      out |= static_cast<std::uint64_t>(b & 0x7fU) << shift;
      if ((b & 0x80U) == 0) {
        if (shift == 63 && (b & 0x7eU) != 0) break;  // bits beyond 64 lost
        return out;
      }
    }
    throw BinlogError(BinlogErrorKind::Malformed,
                      origin_ + ": " + chunk_ + " chunk: varint for " +
                          std::string(what) +
                          " does not terminate within 64 bits");
  }

 private:
  const char* data_;
  std::size_t size_;
  const std::string& origin_;
  const char* chunk_;
  std::size_t pos_ = 0;
};

std::uint64_t readPaddedWord(const char* data, std::size_t n) noexcept {
  char buf[8] = {};
  std::memcpy(buf, data, n);
  return readU64(buf);
}

// --- Delta record encoding --------------------------------------------------

/// Worst-case bytes of one delta-encoded event record (flags byte plus up
/// to nine varints) and the smallest one (a flags byte and five 1-byte
/// varints).
constexpr std::size_t kMaxRecordBytes = 72;
constexpr std::size_t kMinRecordBytes = 6;

/// Per-open-chunk delta state: the previous record's bit patterns the next
/// record's deltas are taken against, and the chunk's running time cover.
/// Resets at every chunk seal so chunks decode independently.
struct DeltaState {
  std::uint64_t ts_bits = 0;
  std::uint64_t wall = 0;
  std::uint64_t dur_bits = 0;
  std::uint64_t value_bits = 0;
  double t_min = 0.0;
  double t_max = 0.0;
  std::uint64_t count = 0;
};

char* putVarint(char* dst, std::uint64_t v) noexcept {
  while (v >= 0x80) {
    *dst++ = static_cast<char>(v | 0x80U);
    v >>= 7;
  }
  *dst++ = static_cast<char>(v);
  return dst;
}

/// Zigzag of the wraparound delta new - prev: small bit-pattern movements in
/// either direction become small varints.
std::uint64_t zigzagDelta(std::uint64_t now, std::uint64_t prev) noexcept {
  const auto d = static_cast<std::int64_t>(now - prev);
  return (static_cast<std::uint64_t>(d) << 1) ^
         static_cast<std::uint64_t>(d >> 63);
}

/// Inverse: the u64 delta to add (with wraparound) to the previous value.
std::uint64_t unzigzag(std::uint64_t v) noexcept {
  return (v >> 1) ^ (0 - (v & 1));
}

/// Fold one event's virtual-time span into the open chunk's cover.
void coverEvent(DeltaState& st, double ts, double dur) noexcept {
  const double lo = ts;
  const double hi = ts + (dur > 0.0 ? dur : 0.0);
  if (st.count == 0) {
    st.t_min = lo;
    st.t_max = hi;
  } else {
    if (lo < st.t_min) st.t_min = lo;
    if (hi > st.t_max) st.t_max = hi;
  }
  ++st.count;
}

// Record flag bits (bits 0-2 are the phase).
constexpr unsigned kFlagDur = 0x08;
constexpr unsigned kFlagValue = 0x10;
constexpr unsigned kFlagFlow = 0x20;
constexpr unsigned kFlagWall = 0x40;
constexpr unsigned kFlagReserved = 0x80;

/// Encode one event against the chunk's delta state. Writes at most
/// kMaxRecordBytes; returns the advanced cursor.
char* encodeDeltaRecord(char* dst, const TraceEvent& e,
                        std::uint32_t category_id, std::uint32_t name_id,
                        DeltaState& st) noexcept {
  const std::uint64_t ts_bits = f64Bits(e.ts);
  const std::uint64_t dur_bits = f64Bits(e.dur);
  const std::uint64_t value_bits = f64Bits(e.value);
  const bool has_dur = dur_bits != st.dur_bits;
  const bool has_value = value_bits != st.value_bits;
  const bool has_flow = e.flow != 0;
  const bool has_wall = e.wall_ns != st.wall;
  unsigned flags = static_cast<unsigned>(e.phase) & 0x7U;
  if (has_dur) flags |= kFlagDur;
  if (has_value) flags |= kFlagValue;
  if (has_flow) flags |= kFlagFlow;
  if (has_wall) flags |= kFlagWall;
  *dst++ = static_cast<char>(flags);
  dst = putVarint(dst, e.pid);
  dst = putVarint(dst, e.tid);
  dst = putVarint(dst, category_id);
  dst = putVarint(dst, name_id);
  dst = putVarint(dst, zigzagDelta(ts_bits, st.ts_bits));
  if (has_wall) dst = putVarint(dst, zigzagDelta(e.wall_ns, st.wall));
  if (has_dur) dst = putVarint(dst, zigzagDelta(dur_bits, st.dur_bits));
  if (has_value) dst = putVarint(dst, zigzagDelta(value_bits, st.value_bits));
  if (has_flow) dst = putVarint(dst, e.flow);
  st.ts_bits = ts_bits;
  st.wall = e.wall_ns;
  st.dur_bits = dur_bits;
  st.value_bits = value_bits;
  coverEvent(st, e.ts, e.dur);
  return dst;
}

/// True when the event's span [ts, ts + max(dur, 0)] intersects the window.
bool eventInWindow(const BinEvent& e, const TraceWindow& w) noexcept {
  const double hi = e.ts + (e.dur > 0.0 ? e.dur : 0.0);
  return e.ts <= w.to && hi >= w.from;
}

/// Meta-chunk payload from a sink's registered track names (empty tables
/// for a null sink).
std::string buildMetaPayload(const TraceSink* sink) {
  std::string meta;
  if (sink == nullptr) {
    appendU32(meta, 0);
    appendU32(meta, 0);
    return meta;
  }
  const auto processes = sink->processNames();
  appendU32(meta, static_cast<std::uint32_t>(processes.size()));
  for (const auto& [pid, name] : processes) {
    appendU32(meta, pid);
    appendU32(meta, static_cast<std::uint32_t>(name.size()));
    meta += name;
  }
  const auto threads = sink->threadNames();
  appendU32(meta, static_cast<std::uint32_t>(threads.size()));
  for (const auto& [key, name] : threads) {
    appendU32(meta, key.first);
    appendU32(meta, key.second);
    appendU32(meta, static_cast<std::uint32_t>(name.size()));
    meta += name;
  }
  return meta;
}

}  // namespace

IOBTS_VECTOR_SCAN
std::uint64_t binlogChecksum(const char* data, std::size_t size) noexcept {
  // Four rotate-xor lanes compressed with FNV-1a at the end. Word j feeds
  // lane j % 4 as lane = rotl(lane, 1) ^ word: the lane pass is pure
  // shift/xor with no multiplies or cross-word dependencies, so it runs
  // near memory speed. Every payload bit lands in a lane (flips are always
  // detected; the rotation count position-stamps each word within its
  // lane), the combine step is
  // genuine FNV-1a over the four lanes, and the payload length is bound
  // last -- a final partial word is zero-padded, which the bound length
  // disambiguates.
  std::uint64_t lanes[4];
  for (unsigned i = 0; i < 4; ++i) lanes[i] = fnvLaneSeed(i);
  std::size_t i = 0;
  for (; i + 32 <= size; i += 32) {
    for (unsigned w = 0; w < 4; ++w) {
      lanes[w] = rotl1(lanes[w]) ^ readU64(data + i + 8 * w);
    }
  }
  unsigned lane = 0;
  for (; i + 8 <= size; i += 8, ++lane) {
    lanes[lane] = rotl1(lanes[lane]) ^ readU64(data + i);
  }
  if (i < size) {
    lanes[lane] = rotl1(lanes[lane]) ^ readPaddedWord(data + i, size - i);
  }
  std::uint64_t h = kFnvOffset;
  for (unsigned w = 0; w < 4; ++w) h = fnvWordStep(h, lanes[w]);
  return fnvWordStep(h, size);
}

std::uint64_t binlogTrailerDigest(const char* data, std::size_t size) {
  if (size < sizeof(kBinlogMagic) + 4) {
    throw BinlogError(BinlogErrorKind::Truncated,
                      "<trailer digest>: body of " + std::to_string(size) +
                          " byte(s) is shorter than the file header");
  }
  std::uint64_t h = kFnvOffset;
  h = fnvWordStep(h, readU64(data));
  h = fnvWordStep(h, readU32(data + sizeof(kBinlogMagic)));
  std::size_t pos = sizeof(kBinlogMagic) + 4;
  while (pos < size) {
    if (size - pos < 12) {
      throw BinlogError(BinlogErrorKind::Truncated,
                        "<trailer digest>: chunk header truncated at offset " +
                            std::to_string(pos));
    }
    const std::uint32_t kind = readU32(data + pos);
    const std::uint64_t len = readU64(data + pos + 4);
    if (size - pos - 12 < 8 || len > size - pos - 12 - 8) {
      throw BinlogError(BinlogErrorKind::Truncated,
                        "<trailer digest>: chunk payload truncated at offset " +
                            std::to_string(pos));
    }
    const std::uint64_t sum = readU64(data + pos + 12 + len);
    h = fnvWordStep(h, kind);
    h = fnvWordStep(h, len);
    h = fnvWordStep(h, sum);
    pos += 12 + len + 8;
  }
  return h;
}

const char* binlogErrorKindName(BinlogErrorKind kind) noexcept {
  switch (kind) {
    case BinlogErrorKind::Io: return "io";
    case BinlogErrorKind::Truncated: return "truncated";
    case BinlogErrorKind::BadMagic: return "bad_magic";
    case BinlogErrorKind::BadVersion: return "bad_version";
    case BinlogErrorKind::ChunkChecksum: return "chunk_checksum";
    case BinlogErrorKind::FileChecksum: return "file_checksum";
    case BinlogErrorKind::Malformed: return "malformed";
    case BinlogErrorKind::MissingFooter: return "missing_footer";
    case BinlogErrorKind::BadStringRef: return "bad_string_ref";
    case BinlogErrorKind::BadIndex: return "bad_index";
    case BinlogErrorKind::BadShard: return "bad_shard";
  }
  return "unknown";
}

TraceEvent BinaryTrace::event(std::size_t i) const {
  const BinEvent& e = events.at(i);
  TraceEvent out;
  out.ts = e.ts;
  out.dur = e.dur;
  out.category = strings.at(e.category).c_str();
  out.name = strings.at(e.name).c_str();
  out.pid = e.pid;
  out.tid = e.tid;
  out.phase = e.phase;
  out.value = e.value;
  out.wall_ns = e.wall_ns;
  out.flow = e.flow;
  return out;
}

// --- Decoding ---------------------------------------------------------------

namespace {

/// Verify one chunk's stored checksum; every reader reports a mismatch
/// with the same diagnostic.
void requireChunkChecksum(const std::string& origin, std::uint32_t kind,
                          const char* payload, std::uint64_t len,
                          std::uint64_t want) {
  const std::uint64_t got = binlogChecksum(payload, len);
  if (got != want) {
    char buf[112];
    std::snprintf(buf, sizeof(buf),
                  ": chunk kind %u payload checksum mismatch "
                  "(stored 0x%016llx, computed 0x%016llx)",
                  static_cast<unsigned>(kind),
                  static_cast<unsigned long long>(want),
                  static_cast<unsigned long long>(got));
    throw BinlogError(BinlogErrorKind::ChunkChecksum, origin + buf);
  }
}

/// Verify the stored trailer digest against the one folded while parsing.
void requireFileChecksum(const std::string& origin, std::uint64_t want,
                         std::uint64_t got) {
  if (got != want) {
    char buf[112];
    std::snprintf(buf, sizeof(buf),
                  ": file checksum mismatch "
                  "(stored 0x%016llx, computed 0x%016llx)",
                  static_cast<unsigned long long>(want),
                  static_cast<unsigned long long>(got));
    throw BinlogError(BinlogErrorKind::FileChecksum, origin + buf);
  }
}

void requireVersion(std::uint32_t version, const std::string& origin) {
  if (version != kBinlogVersion) {
    throw BinlogError(BinlogErrorKind::BadVersion,
                      origin + ": binary trace format version " +
                          std::to_string(version) +
                          " is not supported (this build reads version " +
                          std::to_string(kBinlogVersion) + ")");
  }
}

/// The chunk-sequence decoder shared by the strict whole-file reader, the
/// index-seeking windowed reader, and the --follow tail reader. Callers
/// verify each chunk's checksum, then hand the payload to consumeChunk();
/// finalize() produces the canonically merged BinaryTrace.
///
/// strict mode (whole-file + tail reader): chunk order is enforced
/// (nothing after the index chunk but the footer), the index chunk is
/// cross-checked entry-by-entry against the chunks actually decoded, and
/// the footer's counts are verified. The windowed reader runs non-strict:
/// it feeds footer and index *first* and deliberately skips events chunks,
/// so those cross-checks cannot apply (it re-checks decoded chunks against
/// their index entries itself).
class ContainerDecoder {
 public:
  ContainerDecoder(std::string origin, bool strict)
      : origin_(std::move(origin)), strict_(strict) {}

  bool footerSeen() const noexcept { return footer_seen_; }
  bool indexSeen() const noexcept { return index_seen_; }
  std::uint64_t indexOffset() const noexcept { return index_offset_; }
  std::uint64_t chunksConsumed() const noexcept { return chunks_; }
  std::uint64_t eventsDecoded() const noexcept { return events_.size(); }
  const std::vector<BinlogIndexEntry>& observedIndex() const noexcept {
    return observed_;
  }
  const std::vector<BinlogIndexEntry>& declaredIndex() const noexcept {
    return declared_index_;
  }

  /// Decode one checksum-verified chunk. Returns what the index *should*
  /// say about it (kind, shard, offset, payload length, event count, time
  /// cover) -- the windowed reader compares this against the index entry
  /// it seeked by.
  BinlogIndexEntry consumeChunk(std::uint32_t kind, const char* payload,
                                std::uint64_t len, std::uint64_t offset) {
    BinlogIndexEntry entry;
    entry.kind = kind;
    entry.offset = offset;
    entry.payload_len = len;
    ++chunks_;
    switch (kind) {
      case binchunk::kStrings: {
        requirePreIndex("strings");
        PayloadReader p(payload, len, origin_, "strings");
        const std::uint32_t shard = p.u32("shard id");
        checkShard(shard, "strings chunk");
        entry.shard = shard;
        auto& table = shards_[shard].strings;
        const std::uint32_t count = p.u32("string count");
        for (std::uint32_t i = 0; i < count; ++i) {
          const std::uint32_t slen = p.u32("string length");
          const char* data = p.take(slen, "string bytes");
          table.emplace_back(data, slen);
        }
        p.requireDrained();
        break;
      }
      case binchunk::kEvents: {
        requirePreIndex("events");
        ++events_chunks_;
        decodeEvents(payload, len, entry);
        break;
      }
      case binchunk::kMeta: {
        requirePreIndex("meta");
        PayloadReader p(payload, len, origin_, "meta");
        const std::uint32_t processes = p.u32("process-name count");
        for (std::uint32_t i = 0; i < processes; ++i) {
          const std::uint32_t pid = p.u32("process id");
          const std::uint32_t slen = p.u32("process name length");
          const char* data = p.take(slen, "process name");
          process_names_[pid] = std::string(data, slen);
        }
        const std::uint32_t threads = p.u32("thread-name count");
        for (std::uint32_t i = 0; i < threads; ++i) {
          const std::uint32_t pid = p.u32("thread process id");
          const std::uint32_t tid = p.u32("thread id");
          const std::uint32_t slen = p.u32("thread name length");
          const char* data = p.take(slen, "thread name");
          thread_names_[{pid, tid}] = std::string(data, slen);
        }
        p.requireDrained();
        break;
      }
      case binchunk::kIndex: {
        decodeIndex(payload, len);
        index_chunk_offset_ = offset;
        break;
      }
      case binchunk::kFooter: {
        decodeFooter(payload, len);
        footer_seen_ = true;
        break;
      }
      default:
        throw BinlogError(BinlogErrorKind::Malformed,
                          origin_ + ": unknown chunk kind " +
                              std::to_string(kind));
    }
    if (kind == binchunk::kStrings || kind == binchunk::kEvents ||
        kind == binchunk::kMeta) {
      observed_.push_back(entry);
    }
    return entry;
  }

  /// The canonically merged trace from everything consumed so far.
  BinaryTrace finalize() const {
    BinaryTrace t;
    std::uint32_t max_shard_plus1 = 0;
    for (const auto& [shard, state] : shards_) {
      max_shard_plus1 = std::max(max_shard_plus1, shard + 1);
    }
    t.shard_count = std::max({declared_shard_count_, max_shard_plus1, 1U});
    t.process_names = process_names_;
    t.thread_names = thread_names_;
    t.totals = totals_;
    t.index = declared_index_;
    if (shards_.size() <= 1) {
      // Single recording stream: file order *is* canonical order and the
      // shard's local string ids are already global.
      if (!shards_.empty()) t.strings = shards_.begin()->second.strings;
      t.events = events_;
    } else {
      std::vector<std::size_t> perm(events_.size());
      std::iota(perm.begin(), perm.end(), std::size_t{0});
      std::sort(perm.begin(), perm.end(),
                [this](std::size_t a, std::size_t b) {
                  const BinEvent& ea = events_[a];
                  const BinEvent& eb = events_[b];
                  // NaN timestamps compare false both ways and fall through
                  // to the (shard, seq) tiebreak -- still a total order.
                  if (ea.ts < eb.ts) return true;
                  if (eb.ts < ea.ts) return false;
                  if (ea.shard != eb.shard) return ea.shard < eb.shard;
                  return seqs_[a] < seqs_[b];
                });
      // Global string ids: content-deduplicated, in merged first-use order
      // -- a pure function of the merged event stream, not of how shard
      // chunks interleaved in the file.
      std::map<std::string, std::uint32_t> by_content;
      std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint32_t> remap;
      auto globalId = [&](std::uint32_t shard, std::uint32_t local) {
        const auto key = std::make_pair(shard, local);
        auto it = remap.find(key);
        if (it != remap.end()) return it->second;
        const std::string& content = shards_.at(shard).strings.at(local);
        auto [cit, inserted] =
            by_content.try_emplace(content, 0U);
        if (inserted) {
          cit->second = static_cast<std::uint32_t>(t.strings.size());
          t.strings.push_back(content);
        }
        remap.emplace(key, cit->second);
        return cit->second;
      };
      t.events.reserve(events_.size());
      for (const std::size_t i : perm) {
        BinEvent e = events_[i];
        e.category = globalId(e.shard, e.category);
        e.name = globalId(e.shard, e.name);
        t.events.push_back(e);
      }
      // Interned strings no event references still belong in the table
      // (the footer's string count was checked against the shard tables):
      // deterministic (shard, local id) order after all referenced ones.
      for (const auto& [shard, state] : shards_) {
        const auto n = static_cast<std::uint32_t>(state.strings.size());
        for (std::uint32_t local = 0; local < n; ++local) {
          globalId(shard, local);
        }
      }
    }
    t.stats.chunks_total = chunks_;
    t.stats.events_chunks_decoded = events_chunks_;
    t.stats.events_decoded = events_.size();
    t.stats.events_in_window = t.events.size();
    return t;
  }

 private:
  struct ShardState {
    std::vector<std::string> strings;
    std::uint64_t seq = 0;  ///< per-shard recording sequence (merge tiebreak)
  };

  void checkShard(std::uint32_t shard, const char* what) const {
    if (shard >= kBinlogMaxShards) {
      throw BinlogError(BinlogErrorKind::BadShard,
                        origin_ + ": " + what + " carries shard id " +
                            std::to_string(shard) + " (limit " +
                            std::to_string(kBinlogMaxShards) + ")");
    }
  }

  void requirePreIndex(const char* what) const {
    if (strict_ && index_seen_) {
      throw BinlogError(BinlogErrorKind::Malformed,
                        origin_ + ": " + what +
                            " chunk after the index chunk");
    }
  }

  void decodeEvents(const char* payload, std::uint64_t len,
                    BinlogIndexEntry& entry) {
    PayloadReader p(payload, len, origin_, "events");
    const std::uint32_t shard = p.u32("shard id");
    checkShard(shard, "events chunk");
    entry.shard = shard;
    const std::uint32_t count = p.u32("event count");
    // The count sizes a reservation: bound it by what the payload can hold
    // before trusting it.
    if (count > p.remaining() / kMinRecordBytes) {
      throw BinlogError(BinlogErrorKind::Malformed,
                        origin_ + ": events chunk declares " +
                            std::to_string(count) + " event(s) but its " +
                            std::to_string(p.remaining()) +
                            "-byte payload holds at most " +
                            std::to_string(p.remaining() /
                                           kMinRecordBytes));
    }
    auto& state = shards_[shard];
    DeltaState d;
    events_.reserve(events_.size() + count);
    auto varintU32 = [this, &p](const char* what) {
      const std::uint64_t v = p.varint(what);
      if (v > 0xffffffffULL) {
        throw BinlogError(BinlogErrorKind::Malformed,
                          origin_ + ": event " + std::to_string(events_.size()) +
                              ": varint for " + what + " (" +
                              std::to_string(v) + ") overflows 32 bits");
      }
      return static_cast<std::uint32_t>(v);
    };
    for (std::uint32_t i = 0; i < count; ++i) {
      const auto flags =
          static_cast<unsigned char>(*p.take(1, "event flags"));
      if ((flags & kFlagReserved) != 0) {
        throw BinlogError(BinlogErrorKind::Malformed,
                          origin_ + ": event " +
                              std::to_string(events_.size()) +
                              " has reserved flag bit 7 set");
      }
      const unsigned phase = flags & 0x7U;
      if (phase > static_cast<unsigned>(Phase::FlowEnd)) {
        throw BinlogError(BinlogErrorKind::Malformed,
                          origin_ + ": event " +
                              std::to_string(events_.size()) +
                              " has unknown phase " + std::to_string(phase));
      }
      BinEvent e;
      e.phase = static_cast<Phase>(phase);
      e.shard = shard;
      e.pid = varintU32("pid");
      e.tid = varintU32("tid");
      e.category = varintU32("category id");
      e.name = varintU32("name id");
      d.ts_bits += unzigzag(p.varint("ts delta"));
      if ((flags & kFlagWall) != 0) {
        d.wall += unzigzag(p.varint("wall delta"));
      }
      if ((flags & kFlagDur) != 0) {
        d.dur_bits += unzigzag(p.varint("dur delta"));
      }
      if ((flags & kFlagValue) != 0) {
        d.value_bits += unzigzag(p.varint("value delta"));
      }
      e.flow = (flags & kFlagFlow) != 0 ? p.varint("flow id") : 0;
      e.ts = f64FromBits(d.ts_bits);
      e.dur = f64FromBits(d.dur_bits);
      e.value = f64FromBits(d.value_bits);
      e.wall_ns = d.wall;
      const auto table = static_cast<std::uint32_t>(state.strings.size());
      if (e.category >= table || e.name >= table) {
        const std::uint32_t bad = e.category >= table ? e.category : e.name;
        throw BinlogError(
            BinlogErrorKind::BadStringRef,
            origin_ + ": event " + std::to_string(events_.size()) +
                " references string id " + std::to_string(bad) +
                " but only " + std::to_string(table) +
                " string(s) are defined for shard " + std::to_string(shard) +
                " at this point");
      }
      coverEvent(d, e.ts, e.dur);
      events_.push_back(e);
      seqs_.push_back(state.seq++);
    }
    p.requireDrained();
    entry.event_count = count;
    entry.t_min = d.t_min;
    entry.t_max = d.t_max;
  }

  void decodeIndex(const char* payload, std::uint64_t len) {
    if (index_seen_) {
      throw BinlogError(BinlogErrorKind::BadIndex,
                        origin_ + ": duplicate index chunk");
    }
    index_seen_ = true;
    if (len < 8) {
      throw BinlogError(BinlogErrorKind::BadIndex,
                        origin_ + ": index chunk payload of " +
                            std::to_string(len) +
                            " byte(s) is shorter than its 8-byte header");
    }
    const std::uint32_t entry_count = readU32(payload);
    declared_shard_count_ = readU32(payload + 4);
    if (len != 8 + std::uint64_t{kBinlogIndexEntryBytes} * entry_count) {
      throw BinlogError(
          BinlogErrorKind::BadIndex,
          origin_ + ": index chunk declares " + std::to_string(entry_count) +
              " index entries but the payload is " + std::to_string(len) +
              " byte(s)");
    }
    declared_index_.reserve(entry_count);
    for (std::uint32_t i = 0; i < entry_count; ++i) {
      const char* r = payload + 8 + kBinlogIndexEntryBytes * i;
      BinlogIndexEntry e;
      e.kind = readU32(r);
      e.shard = readU32(r + 4);
      checkShard(e.shard, "index entry");
      e.offset = readU64(r + 8);
      e.payload_len = readU64(r + 16);
      e.event_count = readU64(r + 24);
      e.t_min = readF64(r + 32);
      e.t_max = readF64(r + 40);
      declared_index_.push_back(e);
    }
    if (strict_) crossCheckIndex();
  }

  void crossCheckIndex() const {
    if (declared_index_.size() != observed_.size()) {
      throw BinlogError(BinlogErrorKind::BadIndex,
                        origin_ + ": index chunk lists " +
                            std::to_string(declared_index_.size()) +
                            " chunk(s) but " +
                            std::to_string(observed_.size()) +
                            " were decoded before it");
    }
    for (std::size_t i = 0; i < declared_index_.size(); ++i) {
      const BinlogIndexEntry& a = declared_index_[i];
      const BinlogIndexEntry& b = observed_[i];
      auto bad = [this, i](const std::string& what) {
        throw BinlogError(BinlogErrorKind::BadIndex,
                          origin_ + ": index entry " + std::to_string(i) +
                              " " + what);
      };
      if (a.kind != b.kind) {
        bad("declares chunk kind " + std::to_string(a.kind) +
            " but the chunk has kind " + std::to_string(b.kind));
      }
      if (a.shard != b.shard) {
        bad("declares shard " + std::to_string(a.shard) +
            " but the chunk is tagged shard " + std::to_string(b.shard));
      }
      if (a.offset != b.offset) {
        bad("declares file offset " + std::to_string(a.offset) +
            " but the chunk is at offset " + std::to_string(b.offset));
      }
      if (a.payload_len != b.payload_len) {
        bad("declares payload length " + std::to_string(a.payload_len) +
            " but the chunk's is " + std::to_string(b.payload_len));
      }
      if (a.event_count != b.event_count) {
        bad("declares " + std::to_string(a.event_count) +
            " event(s) but the chunk holds " + std::to_string(b.event_count));
      }
      if (f64Bits(a.t_min) != f64Bits(b.t_min) ||
          f64Bits(a.t_max) != f64Bits(b.t_max)) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "declares time range [%.17g, %.17g] but the chunk "
                      "covers [%.17g, %.17g]",
                      a.t_min, a.t_max, b.t_min, b.t_max);
        bad(buf);
      }
    }
  }

  void decodeFooter(const char* payload, std::uint64_t len) {
    if (len != kBinlogFooterBytes) {
      throw BinlogError(BinlogErrorKind::Malformed,
                        origin_ + ": footer chunk payload is " +
                            std::to_string(len) + " byte(s), expected " +
                            std::to_string(kBinlogFooterBytes));
    }
    const std::uint64_t event_count = readU64(payload);
    const std::uint64_t string_count = readU64(payload + 8);
    totals_.recorded = readU64(payload + 16);
    totals_.dropped = readU64(payload + 24);
    totals_.streamed = readU64(payload + 32);
    index_offset_ = readU64(payload + 40);
    if (!strict_) return;
    if (!index_seen_) {
      throw BinlogError(BinlogErrorKind::BadIndex,
                        origin_ + ": footer arrived without an index chunk");
    }
    if (index_offset_ != index_chunk_offset_) {
      throw BinlogError(BinlogErrorKind::BadIndex,
                        origin_ + ": footer declares index offset " +
                            std::to_string(index_offset_) +
                            " but the index chunk is at offset " +
                            std::to_string(index_chunk_offset_));
    }
    if (event_count != events_.size()) {
      throw BinlogError(BinlogErrorKind::Malformed,
                        origin_ + ": footer declares " +
                            std::to_string(event_count) + " event(s) but " +
                            std::to_string(events_.size()) +
                            " were decoded");
    }
    std::uint64_t total_strings = 0;
    for (const auto& [shard, state] : shards_) {
      total_strings += state.strings.size();
    }
    if (string_count != total_strings) {
      throw BinlogError(BinlogErrorKind::Malformed,
                        origin_ + ": footer declares " +
                            std::to_string(string_count) + " string(s) but " +
                            std::to_string(total_strings) +
                            " were decoded");
    }
  }

  std::string origin_;
  bool strict_;
  std::map<std::uint32_t, ShardState> shards_;
  std::vector<BinEvent> events_;  // category/name are shard-local ids here
  std::vector<std::uint64_t> seqs_;
  std::map<std::uint32_t, std::string> process_names_;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::string> thread_names_;
  BinlogTotals totals_;
  std::vector<BinlogIndexEntry> declared_index_;
  std::vector<BinlogIndexEntry> observed_;
  std::uint32_t declared_shard_count_ = 0;
  std::uint64_t index_offset_ = 0;        // as the footer declares it
  std::uint64_t index_chunk_offset_ = 0;  // where the index chunk really is
  std::uint64_t chunks_ = 0;
  std::uint64_t events_chunks_ = 0;
  bool index_seen_ = false;
  bool footer_seen_ = false;
};

}  // namespace

BinaryTrace decodeBinaryTrace(const std::string& bytes,
                              const std::string& origin) {
  FileReader reader(bytes, origin);
  const char* magic = reader.take(sizeof(kBinlogMagic), "file magic");
  if (std::memcmp(magic, kBinlogMagic, sizeof(kBinlogMagic)) != 0) {
    throw BinlogError(BinlogErrorKind::BadMagic,
                      origin + ": not a binary trace file (bad magic)");
  }
  const std::uint32_t version = reader.u32("format version");
  requireVersion(version, origin);
  ContainerDecoder decoder(origin, /*strict=*/true);
  std::uint64_t trailer = kFnvOffset;
  trailer = fnvWordStep(trailer, readU64(bytes.data()));
  trailer = fnvWordStep(trailer, version);
  while (!decoder.footerSeen()) {
    if (reader.remaining() == 0) {
      throw BinlogError(BinlogErrorKind::MissingFooter,
                        origin + ": file ends after " +
                            std::to_string(reader.offset()) +
                            " byte(s) without a footer chunk");
    }
    const std::uint64_t chunk_offset = reader.offset();
    const std::uint32_t kind = reader.u32("chunk kind");
    const std::uint64_t payload_len = reader.u64("chunk payload length");
    const char* payload = reader.take(payload_len, "chunk payload");
    const std::uint64_t want = reader.u64("chunk checksum");
    requireChunkChecksum(origin, kind, payload, payload_len, want);
    trailer = fnvWordStep(trailer, kind);
    trailer = fnvWordStep(trailer, payload_len);
    trailer = fnvWordStep(trailer, want);
    decoder.consumeChunk(kind, payload, payload_len, chunk_offset);
  }
  requireFileChecksum(origin, reader.u64("file checksum"), trailer);
  if (reader.remaining() != 0) {
    throw BinlogError(BinlogErrorKind::Malformed,
                      origin + ": " + std::to_string(reader.remaining()) +
                          " trailing byte(s) after the file checksum");
  }
  return decoder.finalize();
}

BinaryTrace readBinaryTrace(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw BinlogError(BinlogErrorKind::Io,
                      path + ": cannot open binary trace for reading");
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad()) {
    throw BinlogError(BinlogErrorKind::Io, path + ": binary trace read failed");
  }
  return decodeBinaryTrace(bytes, path);
}

// --- Windowed (index-seeking) reading ---------------------------------------

namespace {

/// Random-access byte source for the seeking reader: a file opened once or
/// an in-memory container image.
class ByteSource {
 public:
  virtual ~ByteSource() = default;
  virtual std::uint64_t size() = 0;
  /// Read exactly n bytes at `offset` (caller bounds-checks against size()).
  virtual void read(std::uint64_t offset, char* dst, std::size_t n) = 0;
};

class MemorySource final : public ByteSource {
 public:
  explicit MemorySource(const std::string& bytes) : bytes_(bytes) {}
  std::uint64_t size() override { return bytes_.size(); }
  void read(std::uint64_t offset, char* dst, std::size_t n) override {
    std::memcpy(dst, bytes_.data() + offset, n);
  }

 private:
  const std::string& bytes_;
};

class FileSource final : public ByteSource {
 public:
  FileSource(const std::string& path, std::ifstream in)
      : path_(path), in_(std::move(in)) {}
  std::uint64_t size() override {
    in_.clear();
    in_.seekg(0, std::ios::end);
    const auto end = in_.tellg();
    if (end < 0) {
      throw BinlogError(BinlogErrorKind::Io,
                        path_ + ": binary trace read failed");
    }
    return static_cast<std::uint64_t>(end);
  }
  void read(std::uint64_t offset, char* dst, std::size_t n) override {
    in_.clear();
    in_.seekg(static_cast<std::streamoff>(offset));
    in_.read(dst, static_cast<std::streamsize>(n));
    if (!in_ || static_cast<std::size_t>(in_.gcount()) != n) {
      throw BinlogError(BinlogErrorKind::Io,
                        path_ + ": binary trace read failed");
    }
  }

 private:
  std::string path_;
  std::ifstream in_;
};

/// Drop events outside the window; refresh the in-window count. The string
/// table is untouched (ids stay valid).
void applyWindowFilter(BinaryTrace& trace, const TraceWindow& window) {
  trace.events.erase(
      std::remove_if(trace.events.begin(), trace.events.end(),
                     [&window](const BinEvent& e) {
                       return !eventInWindow(e, window);
                     }),
      trace.events.end());
  trace.stats.events_in_window = trace.events.size();
}

BinaryTrace windowedDecode(ByteSource& src, const std::string& origin,
                           const TraceWindow& window) {
  const std::uint64_t fsize = src.size();
  if (fsize < sizeof(kBinlogMagic) + 4) {
    throw BinlogError(BinlogErrorKind::Truncated,
                      origin + ": truncated trace: need " +
                          std::to_string(sizeof(kBinlogMagic) + 4) +
                          " byte(s) for the file header, only " +
                          std::to_string(fsize) + " in the file");
  }
  char header[sizeof(kBinlogMagic) + 4];
  src.read(0, header, sizeof(header));
  if (std::memcmp(header, kBinlogMagic, sizeof(kBinlogMagic)) != 0) {
    throw BinlogError(BinlogErrorKind::BadMagic,
                      origin + ": not a binary trace file (bad magic)");
  }
  requireVersion(readU32(header + sizeof(kBinlogMagic)), origin);
  if (fsize < sizeof(header) + kBinlogTailBytes) {
    throw BinlogError(BinlogErrorKind::Truncated,
                      origin + ": truncated trace: need " +
                          std::to_string(kBinlogTailBytes) +
                          " byte(s) for the fixed file tail, only " +
                          std::to_string(fsize - sizeof(header)) +
                          " past the header");
  }
  // The footer chunk is the fixed-size file tail: seek it directly.
  char tail[kBinlogTailBytes];
  src.read(fsize - kBinlogTailBytes, tail, sizeof(tail));
  const std::uint32_t tail_kind = readU32(tail);
  if (tail_kind != binchunk::kFooter) {
    throw BinlogError(BinlogErrorKind::MissingFooter,
                      origin + ": no footer chunk at the fixed file tail "
                               "(still being written? try --follow)");
  }
  const std::uint64_t tail_len = readU64(tail + 4);
  if (tail_len != kBinlogFooterBytes) {
    throw BinlogError(BinlogErrorKind::Malformed,
                      origin + ": footer chunk payload is " +
                          std::to_string(tail_len) + " byte(s), expected " +
                          std::to_string(kBinlogFooterBytes));
  }
  requireChunkChecksum(origin, tail_kind, tail + 12, kBinlogFooterBytes,
                       readU64(tail + 12 + kBinlogFooterBytes));
  ContainerDecoder decoder(origin, /*strict=*/false);
  decoder.consumeChunk(binchunk::kFooter, tail + 12, kBinlogFooterBytes,
                       fsize - kBinlogTailBytes);
  // Offsets and lengths come from the file: every bound below subtracts
  // from the file size instead of adding to the untrusted value, so a value
  // near 2^64 cannot wrap past the check.
  const std::uint64_t index_offset = decoder.indexOffset();
  if (index_offset < sizeof(header) ||
      index_offset > fsize - kBinlogTailBytes - 8) {
    throw BinlogError(BinlogErrorKind::BadIndex,
                      origin + ": footer index offset " +
                          std::to_string(index_offset) +
                          " lies outside the file");
  }
  char ihdr[12];
  src.read(index_offset, ihdr, sizeof(ihdr));
  const std::uint32_t ikind = readU32(ihdr);
  if (ikind != binchunk::kIndex) {
    throw BinlogError(
        BinlogErrorKind::BadIndex,
        origin + ": footer index offset does not point at an index chunk");
  }
  const std::uint64_t ilen = readU64(ihdr + 4);
  if (ilen > fsize - index_offset - 12 - 8) {
    throw BinlogError(BinlogErrorKind::BadIndex,
                      origin + ": index chunk at offset " +
                          std::to_string(index_offset) +
                          " runs past the end of the file");
  }
  std::string ibuf(static_cast<std::size_t>(ilen) + 8, '\0');
  src.read(index_offset + 12, ibuf.data(), ibuf.size());
  requireChunkChecksum(origin, ikind, ibuf.data(), ilen, readU64(ibuf.data() + ilen));
  decoder.consumeChunk(binchunk::kIndex, ibuf.data(), ilen, index_offset);

  BinlogReadStats stats;
  stats.used_index = true;
  // index + footer themselves, plus every chunk the index lists.
  stats.chunks_total = decoder.declaredIndex().size() + 2;
  // Decode in file-offset order (string definitions precede their uses);
  // events chunks whose time cover misses the window are skipped unread.
  std::vector<BinlogIndexEntry> selected = decoder.declaredIndex();
  std::sort(selected.begin(), selected.end(),
            [](const BinlogIndexEntry& a, const BinlogIndexEntry& b) {
              return a.offset < b.offset;
            });
  std::string chunk;
  for (std::size_t i = 0; i < selected.size(); ++i) {
    const BinlogIndexEntry& entry = selected[i];
    const bool is_events = entry.kind == binchunk::kEvents;
    // NaN covers compare false on both sides and are decoded (never
    // silently dropped).
    const bool outside =
        entry.t_max < window.from || entry.t_min > window.to;
    if (is_events && outside) {
      ++stats.events_chunks_skipped;
      stats.payload_bytes_skipped += entry.payload_len;
      continue;
    }
    if (entry.offset < sizeof(header) || entry.offset > fsize - 12 - 8 ||
        entry.payload_len > fsize - entry.offset - 12 - 8) {
      throw BinlogError(BinlogErrorKind::BadIndex,
                        origin + ": index entry " + std::to_string(i) +
                            " lies outside the file");
    }
    char chdr[12];
    src.read(entry.offset, chdr, sizeof(chdr));
    const std::uint32_t kind = readU32(chdr);
    const std::uint64_t len = readU64(chdr + 4);
    if (kind != entry.kind) {
      throw BinlogError(BinlogErrorKind::BadIndex,
                        origin + ": index entry " + std::to_string(i) +
                            " declares chunk kind " +
                            std::to_string(entry.kind) +
                            " but the file has kind " + std::to_string(kind) +
                            " at offset " + std::to_string(entry.offset));
    }
    if (len != entry.payload_len) {
      throw BinlogError(BinlogErrorKind::BadIndex,
                        origin + ": index entry " + std::to_string(i) +
                            " declares payload length " +
                            std::to_string(entry.payload_len) +
                            " but the chunk at offset " +
                            std::to_string(entry.offset) + " declares " +
                            std::to_string(len));
    }
    chunk.resize(static_cast<std::size_t>(len) + 8);
    src.read(entry.offset + 12, chunk.data(), chunk.size());
    requireChunkChecksum(origin, kind, chunk.data(), len,
                         readU64(chunk.data() + len));
    const BinlogIndexEntry observed =
        decoder.consumeChunk(kind, chunk.data(), len, entry.offset);
    if (is_events) {
      ++stats.events_chunks_decoded;
      auto bad = [&origin, i](const std::string& what) {
        throw BinlogError(BinlogErrorKind::BadIndex,
                          origin + ": index entry " + std::to_string(i) +
                              " " + what);
      };
      if (observed.shard != entry.shard) {
        bad("declares shard " + std::to_string(entry.shard) +
            " but the chunk is tagged shard " +
            std::to_string(observed.shard));
      }
      if (observed.event_count != entry.event_count) {
        bad("declares " + std::to_string(entry.event_count) +
            " event(s) but the chunk holds " +
            std::to_string(observed.event_count));
      }
      if (f64Bits(observed.t_min) != f64Bits(entry.t_min) ||
          f64Bits(observed.t_max) != f64Bits(entry.t_max)) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "declares time range [%.17g, %.17g] but the chunk "
                      "covers [%.17g, %.17g]",
                      entry.t_min, entry.t_max, observed.t_min,
                      observed.t_max);
        bad(buf);
      }
    }
  }
  BinaryTrace trace = decoder.finalize();
  stats.events_decoded = trace.stats.events_decoded;
  trace.stats = stats;
  applyWindowFilter(trace, window);
  return trace;
}

}  // namespace

BinaryTrace decodeBinaryTraceWindow(const std::string& bytes,
                                    const std::string& origin,
                                    const TraceWindow& window) {
  MemorySource src(bytes);
  return windowedDecode(src, origin, window);
}

BinaryTrace readBinaryTraceWindow(const std::string& path,
                                  const TraceWindow& window) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw BinlogError(BinlogErrorKind::Io,
                      path + ": cannot open binary trace for reading");
  }
  FileSource src(path, std::move(in));
  return windowedDecode(src, path, window);
}

// --- Container emitter ------------------------------------------------------

namespace detail {

/// The shared chunk-emitting backend: file/memory staging, trailer digest,
/// and the index ledger. BinaryTraceWriter owns one; ShardedBinaryWriter
/// funnels every shard's chunks through one.
struct BinlogContainer {
  std::size_t flush_bytes;
  std::ofstream file;
  bool file_mode = false;
  bool file_ok = true;
  bool finished = false;
  std::string* out = nullptr;
  std::string staged;
  std::uint64_t trailer_fnv = 0;
  std::uint64_t bytes_written = 0;
  std::vector<BinlogIndexEntry> index;

  BinlogContainer(const std::string& path, std::size_t flush)
      : flush_bytes(flush),
        file(path, std::ios::binary | std::ios::trunc),
        file_mode(true) {
    file_ok = static_cast<bool>(file);
    staged.reserve(flush_bytes + (flush_bytes >> 2));
    writeHeader();
  }

  BinlogContainer(std::string* o, std::size_t flush)
      : flush_bytes(flush), out(o) {
    writeHeader();
  }

  bool good() const { return !file_mode || file_ok; }

  void writeHeader() {
    char header[sizeof(kBinlogMagic) + 4];
    std::memcpy(header, kBinlogMagic, sizeof(kBinlogMagic));
    putU32(header + sizeof(kBinlogMagic), kBinlogVersion);
    emitRaw(header, sizeof(header));
    trailer_fnv = kFnvOffset;
    trailer_fnv = fnvWordStep(trailer_fnv, readU64(header));
    trailer_fnv = fnvWordStep(trailer_fnv, kBinlogVersion);
  }

  void emitRaw(const char* data, std::size_t size) {
    bytes_written += size;
    if (file_mode) {
      staged.append(data, size);
    } else if (out != nullptr) {
      out->append(data, size);
    }
  }

  /// Emit one complete chunk; returns the file offset of its kind word.
  std::uint64_t emitChunk(std::uint32_t kind, const char* data,
                          std::size_t size) {
    const std::uint64_t offset = bytes_written;
    const std::uint64_t checksum = binlogChecksum(data, size);
    char header[12];
    putU32(header, kind);
    putU64(header + 4, size);
    emitRaw(header, sizeof(header));
    emitRaw(data, size);
    char sum[8];
    putU64(sum, checksum);
    emitRaw(sum, sizeof(sum));
    trailer_fnv = fnvWordStep(trailer_fnv, kind);
    trailer_fnv = fnvWordStep(trailer_fnv, size);
    trailer_fnv = fnvWordStep(trailer_fnv, checksum);
    return offset;
  }

  /// Emit a strings/events/meta chunk and record the ledger entry (shard
  /// tag, event count, time cover) that finish() pins into the index.
  void emitIndexed(std::uint32_t kind, const char* data, std::size_t size,
                   std::uint32_t shard, std::uint64_t event_count = 0,
                   double t_min = 0.0, double t_max = 0.0) {
    const std::uint64_t offset = emitChunk(kind, data, size);
    index.push_back(BinlogIndexEntry{kind, shard, offset, size, event_count,
                                     t_min, t_max});
  }

  void flushFile(bool force) {
    if (!file_mode) return;
    if (!file_ok) {
      staged.clear();
      return;
    }
    if (!force && staged.size() < flush_bytes) return;
    if (!staged.empty()) {
      file.write(staged.data(),
                 static_cast<std::streamsize>(staged.size()));
      // Push whole chunks to the OS now: staged always ends at a chunk
      // boundary, so a --follow reader tailing the file sees a clean
      // prefix of complete chunks rather than a torn one.
      file.flush();
      if (!file) file_ok = false;
      staged.clear();
    }
  }

  /// Meta + index + footer + trailer digest; closes the file. Idempotent.
  bool finish(const TraceSink* names, std::uint64_t event_count,
              std::uint64_t string_count, const BinlogTotals& totals,
              std::uint32_t shard_count) {
    if (finished) return good();
    // Meta chunk last among the indexed ones: every track name registered
    // during the run is known by now.
    const std::string meta = buildMetaPayload(names);
    emitIndexed(binchunk::kMeta, meta.data(), meta.size(), 0);
    std::string ip;
    appendU32(ip, static_cast<std::uint32_t>(index.size()));
    appendU32(ip, shard_count);
    for (const BinlogIndexEntry& e : index) {
      char buf[kBinlogIndexEntryBytes];
      putU32(buf, e.kind);
      putU32(buf + 4, e.shard);
      putU64(buf + 8, e.offset);
      putU64(buf + 16, e.payload_len);
      putU64(buf + 24, e.event_count);
      putF64(buf + 32, e.t_min);
      putF64(buf + 40, e.t_max);
      ip.append(buf, sizeof(buf));
    }
    const std::uint64_t index_offset =
        emitChunk(binchunk::kIndex, ip.data(), ip.size());
    std::string footer;
    appendU64(footer, event_count);
    appendU64(footer, string_count);
    appendU64(footer, totals.recorded);
    appendU64(footer, totals.dropped);
    appendU64(footer, totals.streamed);
    appendU64(footer, index_offset);
    emitChunk(binchunk::kFooter, footer.data(), footer.size());
    // The trailer digest already covers the header and every chunk summary
    // (folded as each chunk was emitted); it is not part of its own hash.
    char tail[8];
    putU64(tail, trailer_fnv);
    emitRaw(tail, sizeof(tail));
    if (file_mode) {
      flushFile(true);
      file.close();
      if (!file) file_ok = false;
    }
    finished = true;
    return good();
  }
};

// --- Encoder ----------------------------------------------------------------

/// The event encoder for one recording stream: string interning, delta
/// records and chunk sealing, emitting finished chunks into a container.
/// BinaryTraceWriter runs one; ShardedBinaryWriter runs one per shard
/// against a shared container. The owner serializes every call.
class BinlogEncoder {
 public:
  BinlogEncoder(BinlogContainer& container, std::uint32_t shard)
      : container_(container),
        shard_(shard),
        flush_bytes_(container.flush_bytes) {
    growPending(flush_bytes_ + kMaxRecordBytes + 8);
    resetPending();
    pending_strings_.assign(8, '\0');
  }
  // Drains hand the encoder's address to the sink as callback context.
  BinlogEncoder(const BinlogEncoder&) = delete;
  BinlogEncoder& operator=(const BinlogEncoder&) = delete;

  /// TraceSink::DrainSegmentFn adapter: `ctx` is the encoder. Runs under
  /// the sink lock from drainSegments, with the owner's lock already held.
  static void segmentThunk(void* ctx, const TraceEvent* events,
                           std::size_t count) {
    static_cast<BinlogEncoder*>(ctx)->append(events, count);
  }

  void append(const TraceEvent* events, std::size_t count) {
    // Seal inside the loop, not once per drain: a drain can deliver far
    // more than flush_bytes at once (the ring watermark, not the chunk
    // size, decides drain cadence), and bounded chunks are what give the
    // footer index time-local entries worth seeking by. The seal point is
    // a pure function of the encoded byte stream, so chunk boundaries stay
    // deterministic (and thread-count-invariant per shard). The
    // constructor sized the buffer past flush_bytes + one max record, so
    // the grow check almost never fires.
    for (std::size_t i = 0; i < count; ++i) {
      const TraceEvent& e = events[i];
      std::uint32_t category_id;
      std::uint32_t name_id;
      if (!probeSlot(e.category, category_id)) {
        category_id = intern(e.category);
      }
      if (!probeSlot(e.name, name_id)) {
        name_id = intern(e.name);
      }
      if (pending_size_ + kMaxRecordBytes > pending_cap_) {
        growPending(pending_size_ + kMaxRecordBytes);
      }
      char* dst = encodeDeltaRecord(pending_.get() + pending_size_, e,
                                    category_id, name_id, delta_);
      pending_size_ = static_cast<std::size_t>(dst - pending_.get());
      if (pending_size_ >= flush_bytes_) {
        seal();
      }
    }
    events_written_ += count;
  }

  /// Emit the pending string-table entries and the open events chunk.
  void seal() {
    if (pending_string_count_ > 0) {
      putU32(pending_strings_.data(), shard_);
      putU32(pending_strings_.data() + 4, pending_string_count_);
      container_.emitIndexed(binchunk::kStrings, pending_strings_.data(),
                             pending_strings_.size(), shard_);
      pending_strings_.assign(8, '\0');
      pending_string_count_ = 0;
    }
    if (delta_.count > 0) {
      putU32(pending_.get(), shard_);
      putU32(pending_.get() + 4, static_cast<std::uint32_t>(delta_.count));
      container_.emitIndexed(binchunk::kEvents, pending_.get(), pending_size_,
                             shard_, delta_.count, delta_.t_min,
                             delta_.t_max);
      resetPending();
    }
    container_.flushFile(false);
  }

  std::uint64_t events() const noexcept { return events_written_; }
  std::uint32_t strings() const noexcept { return next_string_id_; }

 private:
  static std::size_t slotOf(const char* text) noexcept {
    const auto key = reinterpret_cast<std::uintptr_t>(text);
    return static_cast<std::size_t>(
               (static_cast<std::uint64_t>(key) * 0x9e3779b97f4a7c15ULL) >>
               32) &
           (kInternSlots - 1);
  }

  bool probeSlot(const char* text, std::uint32_t& id) const noexcept {
    std::size_t i = slotOf(text);
    for (std::size_t probe = 0; probe < kInternSlots; ++probe) {
      const InternSlot& slot = intern_slots_[i];
      if (slot.ptr == text) {
        id = slot.id;
        return true;
      }
      if (slot.ptr == nullptr) return false;
      i = (i + 1) & (kInternSlots - 1);
    }
    return false;
  }

  std::uint32_t intern(const char* text) {
    std::size_t i = slotOf(text);
    InternSlot* claim = nullptr;
    for (std::size_t probe = 0; probe < kInternSlots; ++probe) {
      InternSlot& slot = intern_slots_[i];
      if (slot.ptr == text) return slot.id;
      if (slot.ptr == nullptr) {
        claim = &slot;
        break;
      }
      i = (i + 1) & (kInternSlots - 1);
    }
    // Slow path: resolve by content so two distinct literals with equal
    // text share one id (ids then depend only on the event stream, not on
    // linker layout).
    std::string content(text);
    auto [it, inserted] = intern_by_content_.try_emplace(content, 0);
    if (inserted) {
      it->second = next_string_id_++;
      appendU32(pending_strings_, static_cast<std::uint32_t>(content.size()));
      pending_strings_ += content;
      ++pending_string_count_;
    }
    if (claim != nullptr) {
      claim->ptr = text;
      claim->id = it->second;
    }
    return it->second;
  }

  void resetPending() {
    // Reserve the u32 shard + u32 count chunk prologue; patched at seal.
    std::memset(pending_.get(), 0, 8);
    pending_size_ = 8;
    delta_ = DeltaState{};
  }

  void growPending(std::size_t need) {
    std::size_t cap = pending_cap_ == 0 ? (std::size_t{1} << 16) : pending_cap_;
    while (cap < need) cap *= 2;
    auto grown = std::make_unique<char[]>(cap);
    if (pending_size_ > 0) std::memcpy(grown.get(), pending_.get(), pending_size_);
    pending_ = std::move(grown);
    pending_cap_ = cap;
  }

  BinlogContainer& container_;
  const std::uint32_t shard_;
  const std::size_t flush_bytes_;  // events-chunk seal threshold
  // Records of the open events chunk. A raw buffer, not a std::string: the
  // hot loop encodes records in place with no per-record size/capacity
  // bookkeeping. The first 8 bytes hold the shard/count chunk prologue.
  std::unique_ptr<char[]> pending_;
  std::size_t pending_size_ = 0;
  std::size_t pending_cap_ = 0;
  std::string pending_strings_;  // new string-table entries not yet emitted
  std::uint32_t pending_string_count_ = 0;
  DeltaState delta_;
  // String interning: a pointer-keyed open-addressing fast path in front of
  // a content-keyed map (the slow path unifies distinct literals with equal
  // contents, so ids depend only on the event stream).
  static constexpr std::size_t kInternSlots = 512;
  struct InternSlot {
    const char* ptr = nullptr;
    std::uint32_t id = 0;
  };
  InternSlot intern_slots_[kInternSlots] = {};
  std::map<std::string, std::uint32_t> intern_by_content_;
  std::uint32_t next_string_id_ = 0;
  std::uint64_t events_written_ = 0;
};

}  // namespace detail

// --- Writer -----------------------------------------------------------------

BinaryTraceWriter::BinaryTraceWriter(TraceSink& sink, const std::string& path,
                                     BinaryTraceWriterConfig config)
    : BinaryTraceWriter(sink, std::make_unique<detail::BinlogContainer>(
                                  path, config.flush_bytes)) {}

BinaryTraceWriter::BinaryTraceWriter(TraceSink& sink, std::string* out,
                                     BinaryTraceWriterConfig config)
    : BinaryTraceWriter(sink, std::make_unique<detail::BinlogContainer>(
                                  out, config.flush_bytes)) {}

BinaryTraceWriter::BinaryTraceWriter(
    TraceSink& sink, std::unique_ptr<detail::BinlogContainer> container)
    : sink_(sink),
      container_(std::move(container)),
      encoder_(std::make_unique<detail::BinlogEncoder>(*container_, 0)) {
  sink_.setDrainHook(&BinaryTraceWriter::drainThunk, this);
}

BinaryTraceWriter::~BinaryTraceWriter() { close(); }

void BinaryTraceWriter::drainThunk(void* ctx) {
  static_cast<BinaryTraceWriter*>(ctx)->drain();
}

void BinaryTraceWriter::drainLocked() {
  if (sink_.drainSegments(&detail::BinlogEncoder::segmentThunk,
                          encoder_.get()) > 0) {
    ++batches_;
  }
}

void BinaryTraceWriter::drain() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!closed_) drainLocked();
}

bool BinaryTraceWriter::close() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (closed_) return container_->good();
  sink_.clearDrainHook();
  drainLocked();
  encoder_->seal();
  closed_ = true;
  return container_->finish(
      &sink_, encoder_->events(), encoder_->strings(),
      BinlogTotals{sink_.recorded(), sink_.dropped(), sink_.streamed()}, 1);
}

bool BinaryTraceWriter::good() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return container_->good();
}

std::uint64_t BinaryTraceWriter::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return encoder_->events();
}

std::uint64_t BinaryTraceWriter::batches() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return batches_;
}

std::uint64_t BinaryTraceWriter::bytesWritten() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return container_->bytes_written;
}

// --- Sharded direct recording -----------------------------------------------

struct ShardedBinaryWriter::Impl {
  /// One shard's encoder and its currently attached staging sink. Chunks
  /// from different shards interleave freely in the file; the shard tag on
  /// every chunk lets the reader regroup them.
  struct ShardStream {
    ShardStream(Impl* o, std::uint32_t shard)
        : owner(o), encoder(o->container, shard) {}
    Impl* owner;
    TraceSink* sink = nullptr;
    detail::BinlogEncoder encoder;
  };

  mutable std::mutex mutex;
  detail::BinlogContainer container;
  std::map<std::uint32_t, std::unique_ptr<ShardStream>> streams;
  const TraceSink* name_source = nullptr;
  BinlogTotals totals;
  bool closed = false;

  Impl(const std::string& path, BinaryTraceWriterConfig cfg)
      : container(path, cfg.flush_bytes) {}
  Impl(std::string* out, BinaryTraceWriterConfig cfg)
      : container(out, cfg.flush_bytes) {}

  static void hookThunk(void* ctx) {
    ShardStream& s = *static_cast<ShardStream*>(ctx);
    std::lock_guard<std::mutex> lock(s.owner->mutex);
    if (s.owner->closed || s.sink == nullptr) return;
    s.sink->drainSegments(&detail::BinlogEncoder::segmentThunk, &s.encoder);
  }

  void detachAllLocked() {
    for (auto& [shard, stream] : streams) {
      ShardStream& s = *stream;
      if (s.sink == nullptr) continue;
      s.sink->clearDrainHook();
      s.sink->drainSegments(&detail::BinlogEncoder::segmentThunk, &s.encoder);
      // Staging sinks are fresh per run() call, so their lifetime
      // counters sum without double counting.
      totals.recorded += s.sink->recorded();
      totals.dropped += s.sink->dropped();
      totals.streamed += s.sink->streamed();
      s.sink = nullptr;
    }
  }

  std::uint64_t eventsLocked() const {
    std::uint64_t n = 0;
    for (const auto& [shard, stream] : streams) n += stream->encoder.events();
    return n;
  }

  bool close() {
    std::lock_guard<std::mutex> lock(mutex);
    if (closed) return container.good();
    detachAllLocked();
    std::uint64_t string_count = 0;
    for (auto& [shard, stream] : streams) {
      stream->encoder.seal();
      string_count += stream->encoder.strings();
    }
    const std::uint32_t shard_count =
        streams.empty() ? 1u : streams.rbegin()->first + 1u;
    closed = true;
    return container.finish(name_source, eventsLocked(), string_count,
                            totals, shard_count);
  }
};

ShardedBinaryWriter::ShardedBinaryWriter(const std::string& path,
                                         BinaryTraceWriterConfig config)
    : impl_(std::make_unique<Impl>(path, config)) {}

ShardedBinaryWriter::ShardedBinaryWriter(std::string* out,
                                         BinaryTraceWriterConfig config)
    : impl_(std::make_unique<Impl>(out, config)) {}

ShardedBinaryWriter::~ShardedBinaryWriter() { close(); }

void ShardedBinaryWriter::attachShard(std::uint32_t shard, TraceSink& sink) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  if (shard >= kBinlogMaxShards) {
    throw BinlogError(
        BinlogErrorKind::BadShard,
        "shard id " + std::to_string(shard) + " exceeds the format limit " +
            std::to_string(kBinlogMaxShards));
  }
  auto& slot = impl_->streams[shard];
  if (!slot) slot = std::make_unique<Impl::ShardStream>(impl_.get(), shard);
  if (slot->sink != nullptr) {
    slot->sink->clearDrainHook();
  }
  slot->sink = &sink;
  sink.setDrainHook(&Impl::hookThunk, slot.get());
}

void ShardedBinaryWriter::detachAll() {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  if (!impl_->closed) impl_->detachAllLocked();
}

void ShardedBinaryWriter::setNameSource(const TraceSink& sink) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->name_source = &sink;
}

bool ShardedBinaryWriter::close() { return impl_->close(); }

bool ShardedBinaryWriter::good() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->container.good();
}

std::uint64_t ShardedBinaryWriter::events() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->eventsLocked();
}

std::uint64_t ShardedBinaryWriter::bytesWritten() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->container.bytes_written;
}

// --- Live tailing -----------------------------------------------------------

struct BinlogTailReader::Impl {
  std::string origin;
  std::string buffer;
  std::uint64_t base_offset = 0;  // absolute file offset of buffer[0]
  bool header_seen = false;
  bool footer_seen = false;
  bool trailer_done = false;
  std::uint64_t trailer_fnv = kFnvOffset;
  std::uint64_t chunks = 0;
  ContainerDecoder decoder;

  explicit Impl(std::string o)
      : origin(std::move(o)), decoder(origin, /*strict=*/true) {}

  void feed(const char* data, std::size_t size) {
    buffer.append(data, size);
    std::size_t pos = 0;
    for (;;) {
      const std::size_t avail = buffer.size() - pos;
      if (!header_seen) {
        if (avail < sizeof(kBinlogMagic) + 4) break;
        const char* h = buffer.data() + pos;
        if (std::memcmp(h, kBinlogMagic, sizeof(kBinlogMagic)) != 0) {
          throw BinlogError(BinlogErrorKind::BadMagic,
                            origin + ": not a binary trace file (bad magic)");
        }
        const std::uint32_t version = readU32(h + sizeof(kBinlogMagic));
        requireVersion(version, origin);
        trailer_fnv = fnvWordStep(trailer_fnv, readU64(h));
        trailer_fnv = fnvWordStep(trailer_fnv, version);
        header_seen = true;
        pos += sizeof(kBinlogMagic) + 4;
        continue;
      }
      if (trailer_done) {
        if (avail > 0) {
          throw BinlogError(BinlogErrorKind::Malformed,
                            origin + ": " + std::to_string(avail) +
                                " trailing byte(s) after the file checksum");
        }
        break;
      }
      if (footer_seen) {
        if (avail < 8) break;
        requireFileChecksum(origin, readU64(buffer.data() + pos),
                            trailer_fnv);
        pos += 8;
        trailer_done = true;
        continue;
      }
      if (avail < 12) break;
      const char* ch = buffer.data() + pos;
      const std::uint32_t kind = readU32(ch);
      const std::uint64_t len = readU64(ch + 4);
      if (len > (std::uint64_t{1} << 62)) {
        throw BinlogError(BinlogErrorKind::Malformed,
                          origin + ": chunk declares an absurd length " +
                              std::to_string(len));
      }
      if (avail < 12 + len + 8) break;  // partial chunk: wait for more bytes
      const char* payload = ch + 12;
      const std::uint64_t want = readU64(payload + len);
      requireChunkChecksum(origin, kind, payload, len, want);
      trailer_fnv = fnvWordStep(trailer_fnv, kind);
      trailer_fnv = fnvWordStep(trailer_fnv, len);
      trailer_fnv = fnvWordStep(trailer_fnv, want);
      decoder.consumeChunk(kind, payload, len, base_offset + pos);
      ++chunks;
      if (kind == binchunk::kFooter) footer_seen = true;
      pos += 12 + len + 8;
    }
    base_offset += pos;
    buffer.erase(0, pos);
  }
};

BinlogTailReader::BinlogTailReader(std::string origin)
    : impl_(std::make_unique<Impl>(std::move(origin))) {}

BinlogTailReader::~BinlogTailReader() = default;

void BinlogTailReader::feed(const char* data, std::size_t size) {
  impl_->feed(data, size);
}

bool BinlogTailReader::headerSeen() const noexcept {
  return impl_->header_seen;
}

bool BinlogTailReader::finished() const noexcept {
  return impl_->trailer_done;
}

std::uint64_t BinlogTailReader::chunksConsumed() const noexcept {
  return impl_->chunks;
}

std::uint64_t BinlogTailReader::eventsDecoded() const noexcept {
  return impl_->decoder.eventsDecoded();
}

std::uint64_t BinlogTailReader::bufferedBytes() const noexcept {
  return impl_->buffer.size();
}

const std::vector<BinlogIndexEntry>& BinlogTailReader::liveIndex()
    const noexcept {
  return impl_->decoder.observedIndex();
}

BinaryTrace BinlogTailReader::snapshot() const {
  return impl_->decoder.finalize();
}

}  // namespace iobts::obs
