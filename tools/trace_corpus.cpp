// trace_corpus -- (re)generate the checked-in invalid binary-trace corpus.
//
//   trace_corpus OUTPUT_DIR
//
// Builds one valid binary flight-recorder trace (a small deterministic
// event set written through obs::BinaryTraceWriter), then derives corrupted
// variants. Each file is named after the binlogErrorKindName() the reader
// must report for it, optionally followed by a '-' qualifier:
// `bad_index-truncated.bin` and `bad_index-range.bin` are two distinct
// "bad_index" defects. tests/obs/binlog_test.cpp sweeps the directory and
// keys its expectations on exactly those stems, so the corpus and the
// sweep can never drift apart silently. The *valid* pin `valid_v2.bin`,
// the bit-lossless read-back fixture, lands next to OUTPUT_DIR.
// `bad_version-v1.bin` in the same directory is not generated here: it is a
// recording in the retired version-1 format, kept so that old files stay
// diagnosed as bad_version. The corpus under traces/ is a checked-in
// artifact -- rerun this tool and commit the result only when the container
// format evolves.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "obs/binlog.hpp"
#include "obs/trace.hpp"
#include "util/file_io.hpp"
#include "util/le_bytes.hpp"

using namespace iobts;

namespace {

void writeBytes(const std::string& path, const std::string& bytes) {
  std::string error;
  if (!publishFile(path, bytes, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    std::exit(1);
  }
  std::printf("wrote %s (%zu bytes)\n", path.c_str(), bytes.size());
}

using le::appendU32;
using le::appendU64;
using le::putU32;
using le::putU64;
using le::readU32;
using le::readU64;

/// Append one chunk (kind + length + payload + payload checksum).
void putChunk(std::string& out, std::uint32_t kind,
              const std::string& payload) {
  appendU32(out, kind);
  appendU64(out, payload.size());
  out += payload;
  appendU64(out, obs::binlogChecksum(payload));
}

struct ChunkRef {
  std::uint32_t kind = 0;
  std::size_t payload = 0;  ///< offset of the payload's first byte
  std::size_t len = 0;
};

/// Walk the container's chunk sequence (no validation -- the input is the
/// tool's own valid trace).
std::vector<ChunkRef> scanChunks(const std::string& bytes) {
  std::vector<ChunkRef> chunks;
  std::size_t pos = sizeof(obs::kBinlogMagic) + 4;
  while (pos + 12 <= bytes.size() - 8) {
    ChunkRef c;
    c.kind = readU32(bytes.data() + pos);
    c.len = static_cast<std::size_t>(readU64(bytes.data() + pos + 4));
    c.payload = pos + 12;
    chunks.push_back(c);
    pos = c.payload + c.len + 8;
  }
  return chunks;
}

const ChunkRef& chunkOfKind(const std::vector<ChunkRef>& chunks,
                            std::uint32_t kind) {
  for (const ChunkRef& c : chunks) {
    if (c.kind == kind) return c;
  }
  std::fprintf(stderr, "valid trace lacks a chunk of kind %u\n", kind);
  std::exit(1);
}

/// Re-derive the tampered chunk's stored checksum and the whole-file
/// trailer digest, so only the intended defect remains.
void repair(std::string& bytes, const ChunkRef& chunk) {
  putU64(bytes.data() + chunk.payload + chunk.len,
         obs::binlogChecksum(bytes.data() + chunk.payload, chunk.len));
  putU64(bytes.data() + bytes.size() - 8,
         obs::binlogTrailerDigest(bytes.data(), bytes.size() - 8));
}

/// The valid base trace: a handful of deterministic events through the
/// real writer, so the corpus tracks the writer's actual byte layout.
std::string validTrace() {
  obs::TraceSink sink;
  sink.setProcessName(obs::track::kStreams, "pfs streams");
  sink.setThreadName(obs::track::kStreams, 0, "stream 0");
  std::string bytes;
  {
    obs::BinaryTraceWriter writer(sink, &bytes);
    sink.complete("pfs", "transfer.write", obs::track::kStreams, 0, 0.5, 0.25,
                  4096.0);
    sink.complete("pfs", "transfer.read", obs::track::kStreams, 0, 1.0, 0.5,
                  8192.0);
    sink.counter("tmio", "tmio.app.breq.write", obs::track::kTmio, 1, 1.5,
                 1.0e9);
    sink.flowStart("journey", "io", obs::track::kAdio, 0, 0.5, 42);
    sink.flowEnd("journey", "io", obs::track::kStreams, 0, 0.75, 42);
    writer.close();
  }
  return bytes;
}

std::string headerOnly() {
  std::string bytes;
  bytes.append(obs::kBinlogMagic, sizeof(obs::kBinlogMagic));
  appendU32(bytes, obs::kBinlogVersion);
  return bytes;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s OUTPUT_DIR\n", argv[0]);
    return 2;
  }
  const std::string dir = argv[1];
  std::filesystem::create_directories(dir);
  std::filesystem::path parent = std::filesystem::path(dir).parent_path();
  if (parent.empty()) parent = ".";

  const std::string valid_v2 = validTrace();
  const std::vector<ChunkRef> v2_chunks = scanChunks(valid_v2);

  // The valid pin: later readers must still decode it byte-for-byte (tests
  // compare every decoded field).
  writeBytes((parent / "valid_v2.bin").string(), valid_v2);

  // truncated: cut mid-chunk.
  writeBytes(dir + "/truncated.bin", valid_v2.substr(0, valid_v2.size() / 2));

  // bad_magic: first byte wrong.
  {
    std::string bytes = valid_v2;
    bytes[0] = 'X';
    writeBytes(dir + "/bad_magic.bin", bytes);
  }

  // bad_version: container claims a future version (little-endian u32 at
  // offset 8).
  {
    std::string bytes = valid_v2;
    bytes[8] = 99;
    writeBytes(dir + "/bad_version.bin", bytes);
  }

  // chunk_checksum: one payload bit flipped (stored checksums untouched, so
  // the trailer digest stays valid and the chunk check is what fires).
  {
    std::string bytes = valid_v2;
    bytes[v2_chunks.front().payload] ^= 0x01;
    writeBytes(dir + "/chunk_checksum.bin", bytes);
  }

  // file_checksum: trailer bit flipped.
  {
    std::string bytes = valid_v2;
    bytes[bytes.size() - 1] ^= 0x01;
    writeBytes(dir + "/file_checksum.bin", bytes);
  }

  // malformed: an events chunk whose payload cannot hold its own header
  // (3 bytes where the u32 shard id should be). Checksums all valid,
  // structure wrong.
  {
    std::string bytes = headerOnly();
    putChunk(bytes, obs::binchunk::kEvents, "xyz");
    appendU64(bytes, obs::binlogTrailerDigest(bytes));
    writeBytes(dir + "/malformed.bin", bytes);
  }

  // malformed-count: the events chunk declares 2^32-1 events, far more
  // than its payload can hold (checksums repaired). The reader must refuse
  // the count before it sizes any allocation by it.
  {
    std::string bytes = valid_v2;
    const ChunkRef& events = chunkOfKind(v2_chunks, obs::binchunk::kEvents);
    putU32(bytes.data() + events.payload + 4, 0xffffffffU);
    repair(bytes, events);
    writeBytes(dir + "/malformed-count.bin", bytes);
  }

  // missing_footer: clean EOF after the header, before any footer chunk
  // (what a crash between flushes leaves behind).
  writeBytes(dir + "/missing_footer.bin", headerOnly());

  // bad_string_ref: the first event's interned name id retargeted past the
  // string table, checksums repaired so only the dangling reference is
  // wrong. The record layout pins the id's offset: chunk header (u32
  // shard, u32 count), then flags byte, then 1-byte varints for pid, tid,
  // category id (0), name id (1).
  {
    std::string bytes = valid_v2;
    const ChunkRef& events = chunkOfKind(v2_chunks, obs::binchunk::kEvents);
    const std::size_t name_at = events.payload + 8 + 1 + 1 + 1 + 1;
    if (bytes[events.payload + 8 + 1 + 1 + 1] != 0 || bytes[name_at] != 1) {
      std::fprintf(stderr, "event record layout drifted\n");
      return 1;
    }
    bytes[name_at] = 7;
    repair(bytes, events);
    writeBytes(dir + "/bad_string_ref.bin", bytes);
  }

  // bad_index-truncated: the index chunk claims one more entry than its
  // payload holds (both checksums repaired -- the structural check fires).
  {
    std::string bytes = valid_v2;
    const ChunkRef& index = chunkOfKind(v2_chunks, obs::binchunk::kIndex);
    putU32(bytes.data() + index.payload,
           readU32(bytes.data() + index.payload) + 1);
    repair(bytes, index);
    writeBytes(dir + "/bad_index-truncated.bin", bytes);
  }

  // bad_index-range: an index entry's time cover disagrees with the chunk
  // it points at (t_max of the first events entry nudged).
  {
    std::string bytes = valid_v2;
    const ChunkRef& index = chunkOfKind(v2_chunks, obs::binchunk::kIndex);
    const std::uint32_t entries = readU32(bytes.data() + index.payload);
    std::size_t tampered = 0;
    for (std::uint32_t i = 0; i < entries; ++i) {
      const std::size_t entry =
          index.payload + 8 +
          static_cast<std::size_t>(i) * obs::kBinlogIndexEntryBytes;
      if (readU32(bytes.data() + entry) != obs::binchunk::kEvents) continue;
      bytes[entry + 40] ^= 0x01;  // low mantissa byte of t_max
      tampered = entry;
      break;
    }
    if (tampered == 0) {
      std::fprintf(stderr, "no events entry in the index\n");
      return 1;
    }
    repair(bytes, index);
    writeBytes(dir + "/bad_index-range.bin", bytes);
  }

  // bad_index-footer: the footer's index offset points nowhere near the
  // index chunk (2^64-1; footer checksum and trailer repaired). Every reader
  // must compare it against where the index really is -- and the seeking
  // reader must not wrap its bounds check on it.
  {
    std::string bytes = valid_v2;
    const ChunkRef& footer = chunkOfKind(v2_chunks, obs::binchunk::kFooter);
    putU64(bytes.data() + footer.payload + 40, ~std::uint64_t{0});
    repair(bytes, footer);
    writeBytes(dir + "/bad_index-footer.bin", bytes);
  }

  // bad_shard: an events chunk tagged with shard id 65536 (checksums
  // repaired). A binlog holds one stream, so any tag but 0 is bad_shard.
  {
    std::string bytes = valid_v2;
    const ChunkRef& events = chunkOfKind(v2_chunks, obs::binchunk::kEvents);
    putU32(bytes.data() + events.payload, 1u << 16);
    repair(bytes, events);
    writeBytes(dir + "/bad_shard.bin", bytes);
  }

  // bad_shard-nonzero: every strings and events chunk, and its index
  // entry, consistently retagged as shard 1 (checksums repaired) -- what a
  // second recording stream in one file would look like.
  {
    std::string bytes = valid_v2;
    const ChunkRef& index = chunkOfKind(v2_chunks, obs::binchunk::kIndex);
    for (const ChunkRef& c : v2_chunks) {
      if (c.kind != obs::binchunk::kStrings &&
          c.kind != obs::binchunk::kEvents) {
        continue;
      }
      putU32(bytes.data() + c.payload, 1);
      repair(bytes, c);
    }
    const std::uint32_t entries = readU32(bytes.data() + index.payload);
    for (std::uint32_t i = 0; i < entries; ++i) {
      const std::size_t entry =
          index.payload + 8 +
          static_cast<std::size_t>(i) * obs::kBinlogIndexEntryBytes;
      const std::uint32_t kind = readU32(bytes.data() + entry);
      if (kind == obs::binchunk::kStrings || kind == obs::binchunk::kEvents) {
        putU32(bytes.data() + entry + 4, 1);
      }
    }
    repair(bytes, index);
    writeBytes(dir + "/bad_shard-nonzero.bin", bytes);
  }

  return 0;
}
