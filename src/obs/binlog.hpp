// Flight-recorder binary trace container ("binlog").
//
// Chrome trace JSON is great to *look at* and terrible to *stream*: every
// event costs a Json object allocation plus ~200 bytes of text. The binlog
// is the one format events leave a run in -- a versioned,
// length-prefixed, checksummed chunk container built on the artifact codec
// it shares with src/ckpt (util/hash.hpp FNV-1a, util/le_bytes.hpp
// little-endian I/O, util/file_io.hpp reads); Chrome JSON is derived from
// it offline (chromeJsonFromBinaryTrace, `iobts_profile --to-chrome`):
//
//   magic[8]  = "IOBTRCE\n"
//   u32       format version (little-endian; 2)
//   chunks, in order; per chunk:
//     u32     chunk kind (strings / events / meta / index / footer)
//     u64     payload length, then payload bytes
//     u64     binlogChecksum() of the payload bytes
//   (the footer chunk is always last)
//   u64       trailer digest: FNV-1a over the words
//             [magic, version, then per chunk: kind, length, checksum]
//
// Checksums (binlogChecksum) are four rotate-xor lanes over little-endian
// 64-bit words -- word j feeds lane j % 4 as lane = rotl(lane, 1) ^ word,
// the lanes are compressed with FNV-1a and the payload length bound last,
// and a final partial word is zero-padded. Byte-wise FNV is a serial
// xor-multiply chain at ~4 cycles per *byte*; the lane pass has no
// multiplies at all. The trailer seals the chunk *sequence* rather than
// re-hashing every file byte: payload integrity is already sealed per
// chunk, so the trailer only needs to bind the header and each chunk's
// (kind, length, checksum) summary -- O(1) per chunk instead of a second
// full pass over the event stream.
//
// Chunk payloads (all integers little-endian, doubles as raw IEEE-754 bit
// patterns, so the encoding is identical on every host and round-trips
// exactly; see DESIGN.md for the full diagram):
//
//   strings:  u32 shard (always 0), u32 count, then per string u32
//             length + bytes. Ids are assigned implicitly in file order;
//             an event may only reference ids from *earlier* chunks.
//   events:   u32 shard (always 0), u32 count, then delta-encoded
//             records: a flags byte (bits 0-2 phase, bit 3 dur differs
//             from the previous record's, bit 4 value differs, bit 5
//             flow != 0, bit 6 wall_ns differs) followed by varints: pid,
//             tid, category id, name id, zigzag(ts bit-pattern delta),
//             then the optional fields the flags declare (zigzag
//             bit-pattern deltas for wall/dur/value, plain varint for
//             flow). Delta state resets per chunk, so every chunk decodes
//             independently -- what makes the index seekable.
//   meta:     u32 process-name count, per entry u32 pid + u32 len + bytes;
//             u32 thread-name count, per entry u32 pid + u32 tid +
//             u32 len + bytes.
//   index:    (kind 5, emitted after meta, right before the footer) u32
//             entry count, u32 shard count (always 1), then one 48-byte
//             entry per preceding chunk -- u32 kind, u32 shard (always 0),
//             u64 file offset (of the chunk's kind word), u64 payload
//             length, u64 event count, f64 t_min, f64 t_max (virtual-time
//             cover of the chunk's events, ts..ts+dur). A windowed reader
//             seeks the footer, then the index, then only the chunks whose
//             [t_min, t_max] intersect the window.
//   footer:   u64 event count, u64 string count, u64 recorded,
//             u64 dropped, u64 streamed (the sink's counters at close),
//             u64 index chunk offset. The footer chunk is therefore always
//             the fixed 76-byte file tail (12-byte chunk header + 48-byte
//             payload + 8-byte checksum + 8-byte trailer), which is what
//             lets a reader find it without scanning.
//
// The writer hangs off TraceSink's drain hook and drains through
// TraceSink::drainSegments -- events are encoded straight out of the ring
// with no staging vector and no per-event allocation. Its cost over an
// installed sink with no recorder is BM_DispatchTracingBinary vs
// BM_DispatchTracingOn in BENCH_obs_overhead.json.
//
// A binlog holds one recording stream: the events of one TraceSink in
// recording order (a sharded run drains its shards into that sink one after
// another). The shard words are kept so the version-2 layout is unchanged;
// every reader rejects a shard tag other than 0, or an index shard count
// other than 1, as BadShard.
//
// One chunk walk reads the file sequentially: the header, then each chunk
// (length bounds-checked, checksum verified before the payload is
// surfaced, folded into the trailer digest, decoded), then the trailer
// and nothing after it. BinlogTailReader runs it over bytes as they
// arrive; decodeBinaryTrace runs it in place over the whole input to the
// end of input, where a unit cut short is Truncated and a clean end
// without a footer is MissingFooter. String references are validated
// against the table defined so far, the index chunk is cross-checked
// entry-by-entry against the chunks actually decoded (and the footer's
// index offset against where the index chunk really is), and every
// failure carries a BinlogError::Kind naming the *first* defect. The
// strict, windowed and tail readers share one header check. The
// corrupt-trace corpus under traces/invalid/ pins one diagnostic per kind.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace iobts::obs {

/// The container format version this build reads and writes. Files of any
/// other version (including the retired fixed-record version 1) fail with
/// BinlogErrorKind::BadVersion.
inline constexpr std::uint32_t kBinlogVersion = 2;

/// The 8-byte file magic.
inline constexpr char kBinlogMagic[8] = {'I', 'O', 'B', 'T', 'R', 'C', 'E',
                                         '\n'};

/// Fixed sizes: one index entry, the footer payload, and the complete
/// fixed file tail (footer chunk + trailer digest).
inline constexpr std::size_t kBinlogIndexEntryBytes = 48;
inline constexpr std::size_t kBinlogFooterBytes = 48;
inline constexpr std::size_t kBinlogTailBytes = 12 + kBinlogFooterBytes + 8 + 8;

/// Chunk kind tags (the u32 leading each chunk). Exposed so the corrupt-
/// corpus generator and structural tests can build containers by hand.
namespace binchunk {
inline constexpr std::uint32_t kStrings = 1;
inline constexpr std::uint32_t kEvents = 2;
inline constexpr std::uint32_t kMeta = 3;
inline constexpr std::uint32_t kFooter = 4;
inline constexpr std::uint32_t kIndex = 5;
}  // namespace binchunk

/// Everything that can be wrong with a binary trace, from the outside in.
/// The reader never continues past a defect.
enum class BinlogErrorKind : int {
  Io,             ///< cannot open / read / write the file at all
  Truncated,      ///< file ends before a declared length is satisfied
  BadMagic,       ///< first 8 bytes are not "IOBTRCE\n"
  BadVersion,     ///< container version this build does not speak
  ChunkChecksum,  ///< a chunk payload fails its FNV checksum
  FileChecksum,   ///< the whole-file trailer checksum fails
  Malformed,      ///< structurally invalid (unknown chunk kind, bad counts,
                  ///< payload size mismatch, trailing bytes)
  MissingFooter,  ///< file ends cleanly but no footer chunk was seen
  BadStringRef,   ///< an event references a string id not yet defined
  BadIndex,       ///< index chunk absent/corrupt or contradicting the chunks
  BadShard,       ///< a chunk or index entry tagged with a shard other
                  ///< than 0, or an index shard count other than 1
};

/// Stable lowercase name for a BinlogErrorKind ("truncated", "bad_magic",
/// ...). The invalid-corpus sweep keys on these.
const char* binlogErrorKindName(BinlogErrorKind kind) noexcept;

/// The container's checksum: four rotate-xor lanes over little-endian
/// 64-bit words compressed with FNV-1a, final partial word zero-padded
/// (see the format comment above). Exposed so the corrupt-corpus generator
/// and structural tests can build and repair containers by hand.
std::uint64_t binlogChecksum(const char* data, std::size_t size) noexcept;
inline std::uint64_t binlogChecksum(const std::string& bytes) noexcept {
  return binlogChecksum(bytes.data(), bytes.size());
}

/// Recompute the trailer digest for a complete container body (everything
/// up to but excluding the trailing 8-byte digest) by walking its chunk
/// sequence. Throws BinlogError (Truncated) if the body is not a whole
/// number of chunks. Corpus generation and tamper-and-repair tests use
/// this; the reader folds the same digest incrementally while it parses.
std::uint64_t binlogTrailerDigest(const char* data, std::size_t size);
inline std::uint64_t binlogTrailerDigest(const std::string& body) {
  return binlogTrailerDigest(body.data(), body.size());
}

class BinlogError : public std::runtime_error {
 public:
  BinlogError(BinlogErrorKind kind, std::string message)
      : std::runtime_error(std::move(message)), kind_(kind) {}

  BinlogErrorKind kind() const noexcept { return kind_; }
  const char* kindName() const noexcept { return binlogErrorKindName(kind_); }

 private:
  BinlogErrorKind kind_;
};

/// Sink accounting snapshot stored in the footer -- the three totals
/// chromeJsonFromBinaryTrace writes into the Chrome document's "otherData".
struct BinlogTotals {
  std::uint64_t recorded = 0;
  std::uint64_t dropped = 0;
  std::uint64_t streamed = 0;
};

/// One decoded index entry (also what the writer pins into the index
/// chunk): which chunk, where in the file, and what virtual time range its
/// events cover.
struct BinlogIndexEntry {
  std::uint32_t kind = 0;
  std::uint64_t offset = 0;  ///< file offset of the chunk's kind word
  std::uint64_t payload_len = 0;
  std::uint64_t event_count = 0;
  double t_min = 0.0;
  double t_max = 0.0;
};

/// Virtual-time window for the seeking reader. An event is inside the
/// window when its span [ts, ts + max(dur, 0)] intersects [from, to].
struct TraceWindow {
  double from = -std::numeric_limits<double>::infinity();
  double to = std::numeric_limits<double>::infinity();
};

/// Decode accounting: how much of the file the (windowed) reader actually
/// touched. The --from/--to acceptance gate asserts on these counters.
struct BinlogReadStats {
  bool used_index = false;  ///< true when the windowed reader seeked
  std::uint64_t chunks_total = 0;
  std::uint64_t events_chunks_decoded = 0;
  std::uint64_t events_chunks_skipped = 0;
  std::uint64_t payload_bytes_skipped = 0;
  std::uint64_t events_decoded = 0;
  std::uint64_t events_in_window = 0;
};

/// One decoded event: a TraceEvent with the string pointers replaced by
/// indices into BinaryTrace::strings.
struct BinEvent {
  sim::Time ts = 0.0;
  sim::Time dur = 0.0;
  std::uint32_t category = 0;
  std::uint32_t name = 0;
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;
  Phase phase = Phase::Instant;
  double value = 0.0;
  std::uint64_t wall_ns = 0;
  std::uint64_t flow = 0;
};

/// A decoded binary trace: events in file (= recording) order plus the
/// interned string table, track names, and footer totals.
struct BinaryTrace {
  std::vector<std::string> strings;
  std::vector<BinEvent> events;
  std::map<std::uint32_t, std::string> process_names;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::string> thread_names;
  BinlogTotals totals;
  /// The decoded index chunk.
  std::vector<BinlogIndexEntry> index;
  /// What the reader touched to produce this trace.
  BinlogReadStats stats;

  /// Materialize event `i` as a TraceEvent whose category/name point into
  /// `strings`. Valid while this BinaryTrace (and its string table) lives
  /// and is not mutated.
  TraceEvent event(std::size_t i) const;
};

/// Strict parse of container bytes, in place (the chunk walk run to the
/// end of input); `origin` names the source (file path or "<memory>") in
/// diagnostics. Throws BinlogError.
BinaryTrace decodeBinaryTrace(const std::string& bytes,
                              const std::string& origin);

/// Read + decodeBinaryTrace. Throws BinlogError (Io if unreadable).
BinaryTrace readBinaryTrace(const std::string& path);

/// Windowed decode: seek the footer, then the index, then only the chunks
/// whose time range intersects `window` (strings and meta chunks are
/// always decoded -- events reference them). Events outside the window
/// inside a decoded chunk are filtered out. The whole-file trailer
/// and the footer's count cross-checks are deliberately *not* verified on
/// this path -- skipped chunks were never read; per-chunk checksums and
/// the index cross-checks still gate everything that was.
BinaryTrace readBinaryTraceWindow(const std::string& path,
                                  const TraceWindow& window);
BinaryTrace decodeBinaryTraceWindow(const std::string& bytes,
                                    const std::string& origin,
                                    const TraceWindow& window);

namespace detail {
struct BinlogContainer;
class BinlogEncoder;
}  // namespace detail

struct BinaryTraceWriterConfig {
  /// Finished chunks accumulate in memory and flush to the file once the
  /// staging buffer exceeds this size (and at close). Doubles as the
  /// events-chunk seal threshold, so small values make the file grow in
  /// small independently-decodable chunks -- what --follow tails. The
  /// writer rejects a value outside [kMinFlushBytes, kMaxFlushBytes] with
  /// CheckError: it allocates buffers of about this size up front.
  std::size_t flush_bytes = 1 << 20;

  static constexpr std::size_t kMinFlushBytes = 1;
  static constexpr std::size_t kMaxFlushBytes = std::size_t{1} << 24;
};

/// Incremental binary exporter bound to one TraceSink. Construction
/// installs the sink's drain hook (one writer per sink at a time);
/// close()/destruction drains the remainder, appends the meta, index and
/// footer chunks plus the file checksum, and uninstalls the hook.
///
/// Determinism: the byte stream is a pure function of the recorded events
/// and the sink's registered track names, so with wall capture off two
/// identical runs produce byte-identical binlogs at any thread count (a
/// ShardedSimulation feeds a global sink from one thread, in shard order).
class BinaryTraceWriter {
 public:
  /// File mode: stream the container to `path`. Check good() after
  /// construction for open failures.
  BinaryTraceWriter(TraceSink& sink, const std::string& path,
                    BinaryTraceWriterConfig config = {});
  /// Memory mode: append the container bytes to `*out`. A null `out`
  /// discards the bytes after accounting -- the benchmark configuration,
  /// measuring encode cost without unbounded retention.
  BinaryTraceWriter(TraceSink& sink, std::string* out,
                    BinaryTraceWriterConfig config = {});
  ~BinaryTraceWriter();

  BinaryTraceWriter(const BinaryTraceWriter&) = delete;
  BinaryTraceWriter& operator=(const BinaryTraceWriter&) = delete;

  /// Drain whatever the ring currently holds (also called by the sink's
  /// watermark trigger). Safe from any thread.
  void drain();

  /// Final drain + meta/index/footer chunks + file checksum + hook
  /// removal. Idempotent. Returns false if any file write failed (memory
  /// mode always returns true).
  bool close();

  bool good() const;
  /// Events encoded so far.
  std::uint64_t events() const;
  /// Drain batches delivered so far.
  std::uint64_t batches() const;
  /// Container bytes emitted so far (finished chunks; excludes the open
  /// events chunk still being buffered).
  std::uint64_t bytesWritten() const;

 private:
  BinaryTraceWriter(TraceSink& sink,
                    std::unique_ptr<detail::BinlogContainer> container);
  static void drainThunk(void* ctx);
  void drainLocked();

  TraceSink& sink_;
  mutable std::mutex mutex_;
  bool closed_ = false;
  std::unique_ptr<detail::BinlogContainer> container_;
  std::unique_ptr<detail::BinlogEncoder> encoder_;
  std::uint64_t batches_ = 0;
};

/// Incremental reader for a *growing* container -- the engine behind
/// `iobts_profile --follow`. feed() runs the chunk walk over the bytes
/// that arrived: every complete, checksum-valid chunk is consumed in place
/// and only the incomplete tail is buffered; a complete chunk failing its
/// checksum (or a bad header) is real corruption and throws, and so does a
/// chunk length no file could reach. The index is rebuilt on the fly from
/// the chunks actually seen (liveIndex()); when the file's own index chunk
/// arrives it is cross-checked against it. After the footer chunk the 8
/// trailer bytes are verified. decodeBinaryTrace is the same walk run to
/// the end of input, so snapshot() of a fully-fed file equals it and the
/// follow report converges to the offline one by construction.
class BinlogTailReader {
 public:
  explicit BinlogTailReader(std::string origin = "<follow>");
  ~BinlogTailReader();

  BinlogTailReader(const BinlogTailReader&) = delete;
  BinlogTailReader& operator=(const BinlogTailReader&) = delete;

  /// Consume the next `size` bytes of the stream. Throws BinlogError on
  /// any defect in a *complete* unit (header, chunk, trailer).
  void feed(const char* data, std::size_t size);
  void feed(const std::string& bytes) { feed(bytes.data(), bytes.size()); }

  bool headerSeen() const noexcept;
  /// Footer chunk decoded *and* trailer digest verified: the stream is a
  /// complete, self-consistent container.
  bool finished() const noexcept;
  std::uint64_t chunksConsumed() const noexcept;
  std::uint64_t eventsDecoded() const noexcept;
  /// Bytes buffered waiting for the rest of a partial chunk.
  std::uint64_t bufferedBytes() const noexcept;
  /// The index as rebuilt from consumed chunks.
  const std::vector<BinlogIndexEntry>& liveIndex() const noexcept;

  /// Everything consumed so far, decoded.
  BinaryTrace snapshot() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace iobts::obs
