// Binary flight-recorder container tests: exact field round-trips through
// the delta-encoded record, content-keyed string interning, byte-identity
// across identical runs and across file/memory modes, chunk sealing under
// tiny flush thresholds, strict-reader rejection of every corruption kind
// (in-memory mutations plus the checked-in traces/invalid/ corpus), and
// the lossless Chrome conversion pinned byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "../support/mutation.hpp"
#include "obs/binlog.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace iobts::obs {
namespace {

namespace fs = std::filesystem;
using testsupport::loadU64;
using testsupport::storeU32;
using testsupport::storeU64;

/// A deterministic event mix covering every phase, value/wall_ns payloads,
/// and journey ids above 2^53 (the doubles-can't-hold-this range).
void recordMixedEvents(TraceSink& sink) {
  sink.setProcessName(track::kStreams, "pfs streams");
  sink.setProcessName(track::kAdio, "adio");
  sink.setThreadName(track::kStreams, 0, "stream 0");
  sink.complete("pfs", "transfer.write", track::kStreams, 0, 0.5, 0.25,
                4096.0, /*wall_ns=*/1234);
  sink.complete("pfs", "transfer.read", track::kStreams, 1, 1.0, 0.5, 8192.0);
  sink.instant("adio", "adio.retry", track::kAdio, 0, 1.25, 3.0);
  sink.counter("tmio", "tmio.app.breq.write", track::kTmio, 1, 1.5, 1.0e9);
  sink.flowStart("journey", "io", track::kAdio, 0, 0.5,
                 0xdeadbeefcafe0042ULL);
  sink.flowStep("journey", "io", track::kStreams, 0, 0.6,
                0xdeadbeefcafe0042ULL);
  sink.flowEnd("journey", "io", track::kStreams, 0, 0.75,
               0xdeadbeefcafe0042ULL);
}

std::string writtenTrace(BinaryTraceWriterConfig config = {}) {
  TraceSink sink;
  std::string bytes;
  {
    BinaryTraceWriter writer(sink, &bytes, config);
    recordMixedEvents(sink);
    EXPECT_TRUE(writer.close());
    EXPECT_EQ(writer.events(), 7u);
  }
  return bytes;
}

TEST(Binlog, RoundTripPreservesEveryField) {
  const std::string bytes = writtenTrace();
  const BinaryTrace trace = decodeBinaryTrace(bytes, "<memory>");
  ASSERT_EQ(trace.events.size(), 7u);
  EXPECT_EQ(trace.totals.recorded, 7u);
  EXPECT_EQ(trace.totals.dropped, 0u);
  EXPECT_EQ(trace.totals.streamed, 7u);

  const TraceEvent first = trace.event(0);
  EXPECT_DOUBLE_EQ(first.ts, 0.5);
  EXPECT_DOUBLE_EQ(first.dur, 0.25);
  EXPECT_STREQ(first.category, "pfs");
  EXPECT_STREQ(first.name, "transfer.write");
  EXPECT_EQ(first.pid, track::kStreams);
  EXPECT_EQ(first.tid, 0u);
  EXPECT_EQ(first.phase, Phase::Complete);
  EXPECT_DOUBLE_EQ(first.value, 4096.0);
  EXPECT_EQ(first.wall_ns, 1234u);

  const TraceEvent counter = trace.event(3);
  EXPECT_EQ(counter.phase, Phase::Counter);
  EXPECT_STREQ(counter.name, "tmio.app.breq.write");
  EXPECT_DOUBLE_EQ(counter.value, 1.0e9);

  // Journey ids round-trip exactly, including bits a double would round.
  for (const std::size_t i : {4u, 5u, 6u}) {
    EXPECT_EQ(trace.events[i].flow, 0xdeadbeefcafe0042ULL) << "event " << i;
  }
  EXPECT_EQ(trace.events[4].phase, Phase::FlowStart);
  EXPECT_EQ(trace.events[5].phase, Phase::FlowStep);
  EXPECT_EQ(trace.events[6].phase, Phase::FlowEnd);

  EXPECT_EQ(trace.process_names.at(track::kStreams), "pfs streams");
  EXPECT_EQ(trace.thread_names.at({track::kStreams, 0}), "stream 0");
}

TEST(Binlog, StringInterningIsByContentNotByPointer) {
  TraceSink sink;
  std::string bytes;
  {
    BinaryTraceWriter writer(sink, &bytes);
    // Two distinct heap strings with equal contents: the table must carry
    // "pfs" and "transfer.write" exactly once each.
    const std::string cat_a = "pfs";
    const std::string cat_b = "pfs";
    const std::string name_a = "transfer.write";
    const std::string name_b = "transfer.write";
    sink.complete(cat_a.c_str(), name_a.c_str(), 1, 0, 0.0, 0.1);
    sink.complete(cat_b.c_str(), name_b.c_str(), 1, 0, 0.2, 0.1);
    writer.close();
  }
  const BinaryTrace trace = decodeBinaryTrace(bytes, "<memory>");
  ASSERT_EQ(trace.events.size(), 2u);
  EXPECT_EQ(trace.strings.size(), 2u);
  EXPECT_EQ(trace.events[0].category, trace.events[1].category);
  EXPECT_EQ(trace.events[0].name, trace.events[1].name);
  EXPECT_EQ(std::count(trace.strings.begin(), trace.strings.end(), "pfs"), 1);
}

TEST(Binlog, TwoIdenticalRunsAreByteIdentical) {
  const std::string first = writtenTrace();
  const std::string second = writtenTrace();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(Binlog, FileModeMatchesMemoryModeByteForByte) {
  const std::string memory = writtenTrace();
  const std::string path = ::testing::TempDir() + "/binlog_filemode.bin";
  {
    TraceSink sink;
    BinaryTraceWriter writer(sink, path);
    ASSERT_TRUE(writer.good());
    recordMixedEvents(sink);
    ASSERT_TRUE(writer.close());
  }
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), memory);
}

TEST(Binlog, FlushBytesOutsideTheWriterRangeThrowsBeforeTheFileOpens) {
  // The writer holds the range rule the CLI's --trace-flush-bytes applies:
  // a threshold it would have to allocate is rejected up front, and no file
  // is created for it.
  const std::string path = ::testing::TempDir() + "/binlog_bad_flush.bin";
  for (const std::size_t flush :
       {std::size_t{0}, BinaryTraceWriterConfig::kMaxFlushBytes + 1,
        ~std::size_t{0}}) {
    SCOPED_TRACE(flush);
    fs::remove(path);
    TraceSink sink;
    BinaryTraceWriterConfig cfg;
    cfg.flush_bytes = flush;
    std::string bytes;
    EXPECT_THROW(BinaryTraceWriter(sink, &bytes, cfg), CheckError);
    EXPECT_THROW(BinaryTraceWriter(sink, path, cfg), CheckError);
    EXPECT_FALSE(fs::exists(path));
  }
  for (const std::size_t flush : {BinaryTraceWriterConfig::kMinFlushBytes,
                                  BinaryTraceWriterConfig::kMaxFlushBytes}) {
    TraceSink sink;
    BinaryTraceWriterConfig cfg;
    cfg.flush_bytes = flush;
    std::string bytes;
    BinaryTraceWriter writer(sink, &bytes, cfg);
    sink.complete("cat", "span", 1, 0, 0.0, 0.5, 1.0);
    EXPECT_TRUE(writer.close());
    EXPECT_EQ(decodeBinaryTrace(bytes, "<memory>").events.size(), 1u);
  }
}

TEST(Binlog, TinyRingAndFlushThresholdSealManyChunksThatStillRoundTrip) {
  // A 8-slot ring drains every 4 events; a 64-byte flush threshold seals an
  // events chunk on nearly every drain. The reader must reassemble the
  // multi-chunk container into the same event sequence.
  TraceSinkConfig sink_cfg;
  sink_cfg.capacity = 8;
  TraceSink sink(sink_cfg);
  BinaryTraceWriterConfig cfg;
  cfg.flush_bytes = 64;
  std::string bytes;
  {
    BinaryTraceWriter writer(sink, &bytes, cfg);
    for (int i = 0; i < 100; ++i) {
      sink.complete("cat", i % 2 == 0 ? "even" : "odd", 1, 0, i * 0.001,
                    0.0005, static_cast<double>(i));
    }
    EXPECT_TRUE(writer.close());
    EXPECT_GT(writer.batches(), 10u);
  }
  EXPECT_EQ(sink.dropped(), 0u);
  const BinaryTrace trace = decodeBinaryTrace(bytes, "<memory>");
  ASSERT_EQ(trace.events.size(), 100u);
  EXPECT_EQ(trace.strings.size(), 3u);  // cat, even, odd
  for (int i = 0; i < 100; ++i) {
    const BinEvent& e = trace.events[static_cast<std::size_t>(i)];
    EXPECT_DOUBLE_EQ(e.ts, i * 0.001);
    EXPECT_DOUBLE_EQ(e.value, static_cast<double>(i));
    EXPECT_EQ(trace.strings[e.name], i % 2 == 0 ? "even" : "odd");
  }
}

TEST(Binlog, ChromeConversionIsByteIdenticalToLiveStreamerFile) {
  // The run recorded through a tiny ring (several watermark drains over 7
  // events) and converted offline. The literal is the file the retired
  // live file-mode JSON streamer wrote for this same run -- the conversion
  // was proven byte-identical to it while both existed -- so these bytes
  // pin the Chrome document: ",\n" joints, metadata after the events, and
  // the otherData totals.
  static constexpr char kExpected[] =
      "{\"traceEvents\":[\n"
      "{\"args\":{\"value\":4096,\"wall_ns\":1234},\"cat\":\"pfs\","
      "\"dur\":250000,\"name\":\"transfer.write\",\"ph\":\"X\",\"pid\":3,"
      "\"tid\":0,\"ts\":500000},\n"
      "{\"args\":{\"value\":8192},\"cat\":\"pfs\",\"dur\":500000,"
      "\"name\":\"transfer.read\",\"ph\":\"X\",\"pid\":3,\"tid\":1,"
      "\"ts\":1000000},\n"
      "{\"args\":{\"value\":3},\"cat\":\"adio\",\"name\":\"adio.retry\","
      "\"ph\":\"i\",\"pid\":4,\"s\":\"t\",\"tid\":0,\"ts\":1250000},\n"
      "{\"args\":{\"value\":1000000000},\"cat\":\"tmio\","
      "\"name\":\"tmio.app.breq.write\",\"ph\":\"C\",\"pid\":7,\"tid\":1,"
      "\"ts\":1500000},\n"
      "{\"cat\":\"journey\",\"id\":\"0xdeadbeefcafe0042\",\"name\":\"io\","
      "\"ph\":\"s\",\"pid\":4,\"tid\":0,\"ts\":500000},\n"
      "{\"cat\":\"journey\",\"id\":\"0xdeadbeefcafe0042\",\"name\":\"io\","
      "\"ph\":\"t\",\"pid\":3,\"tid\":0,\"ts\":600000},\n"
      "{\"bp\":\"e\",\"cat\":\"journey\",\"id\":\"0xdeadbeefcafe0042\","
      "\"name\":\"io\",\"ph\":\"f\",\"pid\":3,\"tid\":0,\"ts\":750000},\n"
      "{\"args\":{\"name\":\"pfs streams\"},\"name\":\"process_name\","
      "\"ph\":\"M\",\"pid\":3},\n"
      "{\"args\":{\"name\":\"adio\"},\"name\":\"process_name\",\"ph\":\"M\","
      "\"pid\":4},\n"
      "{\"args\":{\"name\":\"stream 0\"},\"name\":\"thread_name\","
      "\"ph\":\"M\",\"pid\":3,\"tid\":0}\n"
      "],\n"
      "\"displayTimeUnit\":\"ms\",\n"
      "\"otherData\":{\"clock\":\"virtual (1 us trace time = 1 us "
      "simulated)\",\"dropped\":0,\"recorded\":7,\"streamed\":7}}\n";
  TraceSinkConfig sink_cfg;
  sink_cfg.capacity = 4;
  TraceSink sink(sink_cfg);
  std::string bytes;
  {
    BinaryTraceWriter writer(sink, &bytes);
    recordMixedEvents(sink);
    ASSERT_TRUE(writer.close());
    EXPECT_GT(writer.batches(), 1u);
  }
  const BinaryTrace trace = decodeBinaryTrace(bytes, "<memory>");
  EXPECT_EQ(chromeJsonFromBinaryTrace(trace), kExpected);
}

// --- Corruption: in-memory mutations, one per reader defect kind ------------

BinlogError decodeError(const std::string& bytes) {
  try {
    decodeBinaryTrace(bytes, "mutant");
  } catch (const BinlogError& e) {
    return e;
  }
  ADD_FAILURE() << "corrupt container decoded cleanly";
  return BinlogError(BinlogErrorKind::Io, "not reached");
}

TEST(BinlogCorruption, TruncatedFileReportsOffsetAndNeed) {
  const std::string bytes = writtenTrace();
  const BinlogError e = decodeError(bytes.substr(0, bytes.size() / 2));
  EXPECT_EQ(e.kind(), BinlogErrorKind::Truncated);
  EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos);
}

TEST(BinlogCorruption, BadMagicAndBadVersionAreDistinguished) {
  std::string bad_magic = writtenTrace();
  bad_magic[0] = 'X';
  EXPECT_EQ(decodeError(bad_magic).kind(), BinlogErrorKind::BadMagic);

  std::string bad_version = writtenTrace();
  bad_version[8] = 99;
  const BinlogError e = decodeError(bad_version);
  EXPECT_EQ(e.kind(), BinlogErrorKind::BadVersion);
  EXPECT_NE(std::string(e.what()).find("version 99"), std::string::npos);
}

TEST(BinlogCorruption, FlippedPayloadBitFailsTheChunkChecksum) {
  std::string bytes = writtenTrace();
  bytes[12 + 4 + 8] ^= 0x01;  // first byte of the first chunk's payload
  const BinlogError e = decodeError(bytes);
  EXPECT_EQ(e.kind(), BinlogErrorKind::ChunkChecksum);
  EXPECT_NE(std::string(e.what()).find("stored 0x"), std::string::npos);
  EXPECT_NE(std::string(e.what()).find("computed 0x"), std::string::npos);
}

TEST(BinlogCorruption, FlippedTrailerBitFailsTheFileChecksum) {
  std::string bytes = writtenTrace();
  bytes[bytes.size() - 1] ^= 0x01;
  EXPECT_EQ(decodeError(bytes).kind(), BinlogErrorKind::FileChecksum);
}

TEST(BinlogCorruption, CleanEofWithoutFooterIsMissingFooter) {
  std::string bytes;
  bytes.append(kBinlogMagic, sizeof(kBinlogMagic));
  char version[4] = {};
  version[0] = static_cast<char>(kBinlogVersion);
  bytes.append(version, sizeof(version));
  EXPECT_EQ(decodeError(bytes).kind(), BinlogErrorKind::MissingFooter);
}

TEST(BinlogCorruption, FooterEventCountMismatchIsMalformed) {
  // Tamper with the footer's event count and repair both checksums: the
  // structural cross-check (footer vs. decoded events) must still fire.
  std::string bytes = writtenTrace();
  // The footer chunk is last: 12-byte header + 48-byte v2 payload + 8-byte
  // checksum + 8-byte file trailer.
  const std::size_t payload = bytes.size() - 8 - 8 - kBinlogFooterBytes;
  bytes[payload] = static_cast<char>(bytes[payload] + 1);
  const std::uint64_t chunk_sum =
      binlogChecksum(bytes.data() + payload, kBinlogFooterBytes);
  for (int i = 0; i < 8; ++i) {
    bytes[payload + kBinlogFooterBytes + static_cast<std::size_t>(i)] =
        static_cast<char>((chunk_sum >> (8 * i)) & 0xff);
  }
  const std::uint64_t file_sum =
      binlogTrailerDigest(bytes.data(), bytes.size() - 8);
  for (int i = 0; i < 8; ++i) {
    bytes[bytes.size() - 8 + static_cast<std::size_t>(i)] =
        static_cast<char>((file_sum >> (8 * i)) & 0xff);
  }
  const BinlogError e = decodeError(bytes);
  EXPECT_EQ(e.kind(), BinlogErrorKind::Malformed);
  EXPECT_NE(std::string(e.what()).find("footer declares"), std::string::npos);
}

TEST(BinlogCorruption, UnreadableFileIsIo) {
  try {
    readBinaryTrace(::testing::TempDir() + "/does_not_exist.bin");
    ADD_FAILURE() << "missing file opened";
  } catch (const BinlogError& e) {
    EXPECT_EQ(e.kind(), BinlogErrorKind::Io);
    EXPECT_STREQ(e.kindName(), "io");
  }
  // A directory opens but cannot be read: Io too, not a stream exception.
  try {
    readBinaryTrace(::testing::TempDir());
    ADD_FAILURE() << "directory decoded";
  } catch (const BinlogError& e) {
    EXPECT_EQ(e.kind(), BinlogErrorKind::Io);
  }
}

// --- Corruption: the checked-in corpus sweep --------------------------------

std::vector<fs::path> listCorpus() {
  std::vector<fs::path> files;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(fs::path(IOBTS_TRACE_DIR) / "invalid")) {
    if (entry.is_regular_file() && entry.path().extension() == ".bin") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(BinlogCorpus, EveryInvalidTraceIsRejectedWithItsNamedKind) {
  const std::vector<fs::path> files = listCorpus();
  // At least one file per reportable defect kind (Io cannot be a checked-in
  // file), plus the bad_index and malformed flavors and the retired
  // version-1 recording.
  ASSERT_GE(files.size(), 14u);

  std::set<std::string> kinds_seen;
  std::map<std::string, std::string> diagnostics;
  for (const fs::path& file : files) {
    SCOPED_TRACE(file.string());
    // The stem up to the first '-' is the expected kind; the rest is a
    // qualifier (`bad_version-v1.bin` = a version-1 container,
    // `bad_index-range.bin` = a specific bad_index defect).
    std::string expected_kind = file.stem().string();
    expected_kind = expected_kind.substr(0, expected_kind.find('-'));
    try {
      readBinaryTrace(file.string());
      ADD_FAILURE() << "invalid trace decoded cleanly";
    } catch (const BinlogError& e) {
      EXPECT_STREQ(e.kindName(), expected_kind.c_str()) << e.what();
      const std::string msg = e.what();
      // Diagnostics name the offending file...
      EXPECT_NE(msg.find(file.filename().string()), std::string::npos) << msg;
      // ...and are distinct per defect, not one generic "bad trace".
      for (const auto& [other, other_msg] : diagnostics) {
        EXPECT_NE(msg, other_msg) << "same diagnostic as " << other;
      }
      diagnostics[file.filename().string()] = msg;
      kinds_seen.insert(e.kindName());
    }
  }
  for (const char* kind :
       {"truncated", "bad_magic", "bad_version", "chunk_checksum",
        "file_checksum", "malformed", "missing_footer", "bad_string_ref",
        "bad_index", "bad_shard"}) {
    EXPECT_TRUE(kinds_seen.count(kind))
        << "corpus lacks a " << kind << " specimen";
  }
}

TEST(BinlogCorpus, DefectSpecificDetailInDiagnostics) {
  const fs::path dir = fs::path(IOBTS_TRACE_DIR) / "invalid";
  const auto messageOf = [&](const char* name) -> std::string {
    try {
      readBinaryTrace((dir / name).string());
    } catch (const BinlogError& e) {
      return e.what();
    }
    return {};
  };
  EXPECT_NE(messageOf("truncated.bin").find("offset"), std::string::npos);
  EXPECT_NE(messageOf("chunk_checksum.bin").find("stored 0x"),
            std::string::npos);
  EXPECT_NE(messageOf("file_checksum.bin").find("computed 0x"),
            std::string::npos);
  EXPECT_NE(messageOf("bad_version.bin").find("version 99"),
            std::string::npos);
  EXPECT_NE(messageOf("bad_string_ref.bin").find("string id 7"),
            std::string::npos);
  EXPECT_NE(messageOf("bad_version-v1.bin").find("version 1 is not"),
            std::string::npos);
  EXPECT_NE(messageOf("malformed.bin").find("shard id"), std::string::npos);
  EXPECT_NE(messageOf("malformed-count.bin").find("declares 4294967295"),
            std::string::npos);
  EXPECT_NE(messageOf("missing_footer.bin").find("without a footer"),
            std::string::npos);
  EXPECT_NE(messageOf("bad_index-truncated.bin").find("index entries"),
            std::string::npos);
  EXPECT_NE(messageOf("bad_index-range.bin").find("time range"),
            std::string::npos);
  EXPECT_NE(messageOf("bad_index-footer.bin").find("index offset"),
            std::string::npos);
  EXPECT_NE(messageOf("bad_shard.bin").find("shard id 65536"),
            std::string::npos);
}

/// The error kind every reader reports for the container at `path`:
/// windowed (memory, file), strict, tail -- or "decoded cleanly".
std::vector<std::string> kindsFromEveryReader(const std::string& path) {
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    bytes = ss.str();
  }
  EXPECT_FALSE(bytes.empty()) << path;
  const auto kindOf = [](const auto& read) -> std::string {
    try {
      read();
    } catch (const BinlogError& e) {
      return e.kindName();
    }
    return "decoded cleanly";
  };
  const TraceWindow all;
  return {kindOf([&] { decodeBinaryTraceWindow(bytes, "<mem>", all); }),
          kindOf([&] { readBinaryTraceWindow(path, all); }),
          kindOf([&] { decodeBinaryTrace(bytes, "<mem>"); }),
          kindOf([&] {
            BinlogTailReader tail;
            tail.feed(bytes);
          })};
}

TEST(BinlogCorpus, FooterIndexOffsetIsBadIndexForEveryReader) {
  // bad_index-footer.bin: a footer index offset of 2^64-1. The strict and
  // tail readers compare it with where the index chunk really is; the
  // seeking readers bounds-check it without wrapping (it must not reach a
  // read, let alone one before the buffer).
  EXPECT_EQ(kindsFromEveryReader((fs::path(IOBTS_TRACE_DIR) / "invalid" /
                                  "bad_index-footer.bin")
                                     .string()),
            std::vector<std::string>(4, "bad_index"));
}

TEST(BinlogCorpus, SecondShardIsBadShardForEveryReader) {
  // A binlog holds one recording stream. bad_shard-nonzero.bin tags every
  // strings and events chunk, and its index entry, consistently as shard 1;
  // the strict and tail readers stop at the first chunk, the seeking
  // readers at the index.
  EXPECT_EQ(kindsFromEveryReader((fs::path(IOBTS_TRACE_DIR) / "invalid" /
                                  "bad_shard-nonzero.bin")
                                     .string()),
            std::vector<std::string>(4, "bad_shard"));

  // A written trace whose index declares two shards (checksums repaired):
  // rejected before any index entry is trusted.
  std::string bytes = writtenTrace();
  const std::size_t footer = bytes.size() - 8 - 8 - kBinlogFooterBytes;
  const auto index = static_cast<std::size_t>(loadU64(bytes, footer + 40));
  const std::uint64_t len = loadU64(bytes, index + 4);
  const std::size_t payload = index + 12;
  storeU32(bytes, payload + 4, 2);
  storeU64(bytes, payload + len, binlogChecksum(bytes.data() + payload, len));
  storeU64(bytes, bytes.size() - 8,
           binlogTrailerDigest(bytes.data(), bytes.size() - 8));
  const std::string path = ::testing::TempDir() + "/two_shard_index.bin";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  EXPECT_EQ(kindsFromEveryReader(path),
            std::vector<std::string>(4, "bad_shard"));
}

TEST(BinlogCorpus, ValidPinDecodesLosslessly) {
  // traces/valid_v2.bin is a checked-in output of the trace_corpus tool:
  // five known events. Later readers must keep decoding it to exactly
  // these fields.
  const BinaryTrace t =
      readBinaryTrace((fs::path(IOBTS_TRACE_DIR) / "valid_v2.bin").string());
  ASSERT_EQ(t.events.size(), 5u);
  EXPECT_EQ(t.totals.recorded, 5u);
  EXPECT_EQ(t.totals.dropped, 0u);
  EXPECT_EQ(t.process_names.at(track::kStreams), "pfs streams");
  EXPECT_EQ(t.thread_names.at({track::kStreams, 0}), "stream 0");
  struct Want {
    double ts, dur, value;
    std::uint32_t pid;
    Phase phase;
    const char* category;
    const char* name;
    std::uint64_t flow;
  };
  const Want want[] = {
      {0.5, 0.25, 4096.0, track::kStreams, Phase::Complete, "pfs",
       "transfer.write", 0},
      {1.0, 0.5, 8192.0, track::kStreams, Phase::Complete, "pfs",
       "transfer.read", 0},
      {1.5, 0.0, 1.0e9, track::kTmio, Phase::Counter, "tmio",
       "tmio.app.breq.write", 0},
      {0.5, 0.0, 0.0, track::kAdio, Phase::FlowStart, "journey", "io", 42},
      {0.75, 0.0, 0.0, track::kStreams, Phase::FlowEnd, "journey", "io", 42},
  };
  for (std::size_t i = 0; i < t.events.size(); ++i) {
    SCOPED_TRACE(i);
    const BinEvent& e = t.events[i];
    EXPECT_EQ(e.ts, want[i].ts);
    EXPECT_EQ(e.dur, want[i].dur);
    EXPECT_EQ(e.value, want[i].value);
    EXPECT_EQ(e.pid, want[i].pid);
    EXPECT_EQ(e.phase, want[i].phase);
    EXPECT_EQ(t.strings[e.category], want[i].category);
    EXPECT_EQ(t.strings[e.name], want[i].name);
    EXPECT_EQ(e.flow, want[i].flow);
    EXPECT_EQ(e.wall_ns, 0u);
  }
}

}  // namespace
}  // namespace iobts::obs
