// Container-format strictness: every ErrorKind the reader can report is
// produced here by programmatic corruption of a valid encoding, and the
// diagnostics name the first defect (offset / section / stored-vs-computed
// checksum). The checked-in checkpoints/invalid/ corpus pins the same kinds
// end-to-end through real files; this suite owns the in-memory layer.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>

#include "ckpt/format.hpp"
#include "ckpt/runner.hpp"
#include "ckpt/snapshot.hpp"
#include "scenario/instance.hpp"
#include "scenario/scenario.hpp"
#include "sim/simulation.hpp"
#include "util/hash.hpp"

namespace iobts::ckpt {
namespace {

CheckpointFile sampleFile() {
  CheckpointFile file;
  file.sections.push_back({"meta", "watermark=0x1p+3\nshards=1\n"});
  file.sections.push_back({"scenario", "scenario \"demo\"\n"});
  file.sections.push_back({"state.sim", "events_processed=42\n"});
  return file;
}

ErrorKind decodeKind(const std::string& bytes) {
  try {
    decodeCheckpoint(bytes, "<memory>");
  } catch (const CheckpointError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "decode unexpectedly succeeded";
  return ErrorKind::Io;
}

TEST(CkptFormat, RoundTripPreservesSectionsInOrder) {
  const CheckpointFile file = sampleFile();
  const CheckpointFile back = decodeCheckpoint(encodeCheckpoint(file), "<m>");
  ASSERT_EQ(back.sections.size(), file.sections.size());
  for (std::size_t i = 0; i < file.sections.size(); ++i) {
    EXPECT_EQ(back.sections[i].name, file.sections[i].name);
    EXPECT_EQ(back.sections[i].payload, file.sections[i].payload);
  }
}

TEST(CkptFormat, RoundTripSurvivesBinaryPayloads) {
  CheckpointFile file;
  std::string blob;
  for (int i = 0; i < 256; ++i) blob.push_back(static_cast<char>(i));
  file.sections.push_back({"state.blob", blob});
  file.sections.push_back({"state.empty", ""});
  const CheckpointFile back = decodeCheckpoint(encodeCheckpoint(file), "<m>");
  EXPECT_EQ(back.sections[0].payload, blob);
  EXPECT_EQ(back.sections[1].payload, "");
}

TEST(CkptFormat, FindAndRequire) {
  const CheckpointFile file = sampleFile();
  EXPECT_NE(file.find("meta"), nullptr);
  EXPECT_EQ(file.find("absent"), nullptr);
  EXPECT_EQ(file.require("scenario").payload, "scenario \"demo\"\n");
  try {
    file.require("absent");
    FAIL() << "require should throw";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::MissingSection);
    EXPECT_NE(std::string(e.what()).find("absent"), std::string::npos);
  }
}

TEST(CkptFormat, TruncationAtEveryBoundaryIsTruncated) {
  const std::string bytes = encodeCheckpoint(sampleFile());
  // Any strict prefix must report Truncated -- never BadMagic for an
  // empty file tail, never a checksum kind for a half-read length.
  for (const std::size_t cut :
       {std::size_t{0}, std::size_t{4}, std::size_t{8}, std::size_t{13},
        std::size_t{17}, bytes.size() / 2, bytes.size() - 1}) {
    EXPECT_EQ(decodeKind(bytes.substr(0, cut)), ErrorKind::Truncated)
        << "cut at " << cut;
  }
}

TEST(CkptFormat, WrongMagicIsBadMagic) {
  std::string bytes = encodeCheckpoint(sampleFile());
  bytes[0] = 'X';
  EXPECT_EQ(decodeKind(bytes), ErrorKind::BadMagic);
}

TEST(CkptFormat, UnknownVersionIsBadVersion) {
  std::string bytes = encodeCheckpoint(sampleFile());
  bytes[8] = static_cast<char>(kFormatVersion + 1);  // little-endian u32
  EXPECT_EQ(decodeKind(bytes), ErrorKind::BadVersion);
}

TEST(CkptFormat, PayloadBitFlipIsSectionChecksum) {
  const CheckpointFile file = sampleFile();
  std::string bytes = encodeCheckpoint(file);
  // Flip one bit inside the first section's payload ("watermark..."). The
  // payload starts after magic(8) + version(4) + count(4) + name_len(4) +
  // name(4) + payload_len(8).
  const std::size_t payload_at = 8 + 4 + 4 + 4 + 4 + 8;
  ASSERT_EQ(bytes[payload_at], 'w');
  bytes[payload_at] ^= 0x01;
  EXPECT_EQ(decodeKind(bytes), ErrorKind::SectionChecksum);
}

TEST(CkptFormat, TrailerBitFlipIsFileChecksum) {
  std::string bytes = encodeCheckpoint(sampleFile());
  bytes[bytes.size() - 1] ^= 0x01;
  EXPECT_EQ(decodeKind(bytes), ErrorKind::FileChecksum);
}

TEST(CkptFormat, TrailingGarbageIsMalformed) {
  std::string bytes = encodeCheckpoint(sampleFile());
  bytes += '\0';
  EXPECT_EQ(decodeKind(bytes), ErrorKind::Malformed);
}

TEST(CkptFormat, DuplicateSectionNameIsMalformed) {
  CheckpointFile file;
  file.sections.push_back({"meta", "a\n"});
  file.sections.push_back({"meta", "b\n"});
  EXPECT_EQ(decodeKind(encodeCheckpoint(file)), ErrorKind::Malformed);
}

TEST(CkptFormat, EmptySectionNameIsMalformed) {
  CheckpointFile file;
  file.sections.push_back({"", "a\n"});
  EXPECT_EQ(decodeKind(encodeCheckpoint(file)), ErrorKind::Malformed);
}

TEST(CkptFormat, DiagnosticsNameTheDefect) {
  std::string bytes = encodeCheckpoint(sampleFile());
  bytes[bytes.size() - 1] ^= 0x01;
  try {
    decodeCheckpoint(bytes, "bench.ckpt");
    FAIL();
  } catch (const CheckpointError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("bench.ckpt"), std::string::npos) << msg;
    EXPECT_NE(msg.find("0x"), std::string::npos) << msg;  // stored/computed
  }
}

TEST(CkptFormat, ErrorKindNamesAreStableAndDistinct) {
  const ErrorKind kinds[] = {
      ErrorKind::Io,              ErrorKind::Truncated,
      ErrorKind::BadMagic,        ErrorKind::BadVersion,
      ErrorKind::SectionChecksum, ErrorKind::FileChecksum,
      ErrorKind::Malformed,       ErrorKind::MissingSection,
      ErrorKind::ScenarioMismatch, ErrorKind::StateDivergence,
  };
  for (std::size_t i = 0; i < std::size(kinds); ++i) {
    for (std::size_t j = i + 1; j < std::size(kinds); ++j) {
      EXPECT_STRNE(errorKindName(kinds[i]), errorKindName(kinds[j]));
    }
  }
  EXPECT_STREQ(errorKindName(ErrorKind::Truncated), "truncated");
  EXPECT_STREQ(errorKindName(ErrorKind::BadMagic), "bad_magic");
  EXPECT_STREQ(errorKindName(ErrorKind::StateDivergence), "state_divergence");
}

TEST(CkptFormat, Fig13QuickCheckpointBytesArePinned) {
  // The encoder's byte pin: fig13_quick parked inside its first write
  // burst (32 write transfers in flight), captured, encoded. Any drift in
  // the container layout, the checksums or the canonical state text moves
  // this hash.
  std::ifstream in(IOBTS_SCENARIO_DIR "/fig13_quick.scn", std::ios::binary);
  ASSERT_TRUE(in) << "cannot read fig13_quick.scn";
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  sim::Simulation sim;
  scenario::Instance instance(sim, scenario::parseScenario(text));
  instance.launch();
  constexpr double kWatermark = 2.03;
  sim.runUntil(kWatermark);
  const std::string bytes = encodeCheckpoint(
      encodeSnapshot(captureSnapshot(instance, text, kWatermark)));
  EXPECT_EQ(bytes.size(), 4673u);
  EXPECT_EQ(hashName(bytes), 0xe2fa22ff9586d9b5ULL)
      << std::hex << "0x" << hashName(bytes);
}

TEST(CkptFormat, ReadFileReportsIoForMissingPath) {
  try {
    readCheckpointFile("/nonexistent/dir/x.ckpt");
    FAIL();
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Io);
  }
  // A directory opens but cannot be read: Io too, not a stream exception.
  try {
    readCheckpointFile(::testing::TempDir());
    FAIL();
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Io);
  }
}

}  // namespace
}  // namespace iobts::ckpt
