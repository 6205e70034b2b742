// Invalid-checkpoint corpus sweep, the checkpoint twin of
// scenarios/invalid/: every file under checkpoints/invalid/ must be
// rejected by the full restore pipeline (read -> decode -> snapshot ->
// replay-verify) with exactly the CheckpointError kind its filename stem
// names (up to the first '-'; the rest qualifies the defect), and every
// diagnostic must carry the file path plus a defect-specific message.
// tools/ckpt_corpus.cpp regenerates the corpus; the stem <-> kind contract
// keeps the two in lockstep.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "ckpt/format.hpp"
#include "ckpt/runner.hpp"
#include "ckpt/snapshot.hpp"

namespace iobts::ckpt {
namespace {

namespace fs = std::filesystem;

std::vector<fs::path> listCorpus() {
  std::vector<fs::path> files;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(fs::path(IOBTS_CHECKPOINT_DIR) / "invalid")) {
    if (entry.is_regular_file() && entry.path().extension() == ".ckpt") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(CkptCorpus, EveryInvalidCheckpointIsRejectedWithItsNamedKind) {
  const std::vector<fs::path> files = listCorpus();
  // One file per reportable defect kind (Io cannot be a checked-in file),
  // plus the oversized section count.
  ASSERT_GE(files.size(), 10u);

  std::set<std::string> kinds_seen;
  std::map<std::string, std::string> diagnostics;
  for (const fs::path& file : files) {
    SCOPED_TRACE(file.string());
    // `malformed-count.ckpt` = a malformed file whose defect is its count.
    std::string expected_kind = file.stem().string();
    expected_kind = expected_kind.substr(0, expected_kind.find('-'));
    try {
      // The full pipeline a real --resume would run.
      restoreScenarioCheckpoint(file.string());
      ADD_FAILURE() << "invalid checkpoint restored cleanly";
    } catch (const CheckpointError& e) {
      EXPECT_STREQ(e.kindName(), expected_kind.c_str()) << e.what();
      const std::string msg = e.what();
      // Diagnostics name the offending file...
      EXPECT_NE(msg.find(file.filename().string()), std::string::npos) << msg;
      // ...and are distinct per defect, not one generic "bad checkpoint".
      for (const auto& [other, other_msg] : diagnostics) {
        EXPECT_NE(msg, other_msg) << "same diagnostic as " << other;
      }
      diagnostics[file.filename().string()] = msg;
      kinds_seen.insert(e.kindName());
    }
  }
  // The corpus must cover every kind the reader can report for a file.
  for (const char* kind :
       {"truncated", "bad_magic", "bad_version", "section_checksum",
        "file_checksum", "malformed", "missing_section", "scenario_mismatch",
        "state_divergence"}) {
    EXPECT_TRUE(kinds_seen.count(kind)) << "corpus lacks a " << kind
                                        << " specimen";
  }
}

TEST(CkptCorpus, DefectSpecificDetailInDiagnostics) {
  // Spot-check that the messages say *what* is wrong, not just that
  // something is: the checksum kinds carry stored vs computed values, the
  // truncation carries an offset, the divergence names section and line.
  const fs::path dir = fs::path(IOBTS_CHECKPOINT_DIR) / "invalid";
  const auto messageOf = [&](const char* name) -> std::string {
    try {
      restoreScenarioCheckpoint((dir / name).string());
    } catch (const CheckpointError& e) {
      return e.what();
    }
    return {};
  };
  EXPECT_NE(messageOf("truncated.ckpt").find("offset"), std::string::npos);
  EXPECT_NE(messageOf("section_checksum.ckpt").find("stored 0x"),
            std::string::npos);
  EXPECT_NE(messageOf("file_checksum.ckpt").find("computed 0x"),
            std::string::npos);
  EXPECT_NE(messageOf("bad_version.ckpt").find("version 99"),
            std::string::npos);
  EXPECT_NE(messageOf("state_divergence.ckpt").find("section"),
            std::string::npos);
  EXPECT_NE(messageOf("scenario_mismatch.ckpt").find("different scenario"),
            std::string::npos);
  EXPECT_NE(messageOf("malformed-count.ckpt").find("4294967295 section(s)"),
            std::string::npos);
}

}  // namespace
}  // namespace iobts::ckpt
