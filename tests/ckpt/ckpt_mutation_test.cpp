// Seeded mutation sweep over a checkpoint container, the checkpoint twin of
// tests/obs/binlog_mutation_test.cpp. The base is a valid mid-run
// fig13_quick checkpoint. Byte-level mutants -- bit flips, extreme u32/u64
// overwrites, truncations, section duplication and deletion -- have their
// section checksums and file trailer repaired most of the time, so they
// reach the structural decoder instead of stopping at a checksum.
// Section-level mutants rewrite one meta value or one state line and are
// re-encoded, so they always reach the snapshot decoder and the
// restore-verify replay. The contract, for every mutant:
//
//   * decodeCheckpoint -> decodeSnapshot -> RestoredRun either succeeds or
//     throws CheckpointError / ScenarioError -- never another exception
//     (std::bad_alloc included), a crash, or a sanitizer report (ckpt_test
//     runs under ASan+UBSan in the sanitize leg);
//   * whenever a mutant restores, resuming it reaches the digest of the
//     uninterrupted run.
//
// The mutants come from fixed seeds, so a failure names a reproducible
// (seed, index) pair.
#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "../support/mutation.hpp"
#include "ckpt/capture.hpp"
#include "ckpt/format.hpp"
#include "ckpt/runner.hpp"
#include "ckpt/snapshot.hpp"
#include "scenario/instance.hpp"
#include "scenario/scenario.hpp"
#include "sim/simulation.hpp"
#include "util/hash.hpp"

namespace iobts::ckpt {
namespace {

constexpr int kMutants = 4000;

using Rng = testsupport::SplitMix64;
using testsupport::extremeU32;
using testsupport::extremeU64;
using testsupport::loadU32;
using testsupport::loadU64;
using testsupport::storeU32;
using testsupport::storeU64;

std::string scenarioText() {
  std::ifstream in(IOBTS_SCENARIO_DIR "/fig13_quick.scn", std::ios::binary);
  EXPECT_TRUE(in) << "cannot read fig13_quick.scn";
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// The uninterrupted run's digest, and a checkpoint parked mid-run while
/// the first loop's writes are in flight (32 active write transfers).
struct Base {
  std::uint64_t digest = 0;
  std::string bytes;
};

Base makeBase() {
  const std::string text = scenarioText();
  Base base;
  {
    sim::Simulation sim;
    scenario::Instance instance(sim, scenario::parseScenario(text));
    instance.launch();
    sim.run();
    base.digest = runDigest(instance);
  }
  sim::Simulation sim;
  scenario::Instance instance(sim, scenario::parseScenario(text));
  instance.launch();
  constexpr double kWatermark = 2.03;
  sim.runUntil(kWatermark);
  base.bytes = encodeCheckpoint(encodeSnapshot(
      captureSnapshot(instance, text, kWatermark)));
  return base;
}

constexpr std::size_t kCountAt = sizeof(kMagic) + 4;
constexpr std::size_t kFirstSection = kCountAt + 4;

struct SectionSpan {
  std::size_t offset = 0;       ///< of the name-length word
  std::size_t payload_at = 0;   ///< first payload byte
  std::uint64_t payload_len = 0;
  std::size_t end = 0;          ///< one past the section checksum
};

/// The section sequence as far as it is well-formed (mutants stop early).
std::vector<SectionSpan> walkSections(const std::string& s) {
  std::vector<SectionSpan> spans;
  if (s.size() < kFirstSection + 8) return spans;
  const std::size_t body = s.size() - 8;
  std::size_t pos = kFirstSection;
  while (body - pos >= 4) {
    const std::size_t name_len = loadU32(s, pos);
    if (name_len > body - pos - 4 || body - pos - 4 - name_len < 8) break;
    const std::size_t len_at = pos + 4 + name_len;
    const std::uint64_t payload_len = loadU64(s, len_at);
    if (payload_len > body - len_at - 8 ||
        body - len_at - 8 - payload_len < 8) {
      break;
    }
    const std::size_t payload_at = len_at + 8;
    const std::size_t end = payload_at + static_cast<std::size_t>(payload_len) + 8;
    spans.push_back({pos, payload_at, payload_len, end});
    pos = end;
  }
  return spans;
}

/// Recompute every walkable section checksum and the trailer, so only the
/// structural damage remains.
void repair(std::string& s) {
  if (s.size() < kFirstSection + 8) return;
  for (const SectionSpan& span : walkSections(s)) {
    storeU64(s, span.payload_at + span.payload_len,
             hashName(std::string_view(s).substr(span.payload_at,
                                                 span.payload_len)));
  }
  storeU64(s, s.size() - 8,
           hashName(std::string_view(s).substr(0, s.size() - 8)));
}

/// A position worth overwriting: anywhere, the section count, or one
/// section's name length, payload length or checksum.
std::size_t targetOffset(Rng& rng, const std::string& s,
                         const std::vector<SectionSpan>& spans,
                         std::size_t width) {
  std::size_t at = 0;
  const std::size_t pick = rng.below(4);
  if (pick == 0 || spans.empty()) {
    at = rng.below(s.size() - width + 1);
  } else if (pick == 1) {
    at = kCountAt;
  } else {
    const SectionSpan& span = spans[rng.below(spans.size())];
    const std::size_t spots[] = {span.offset, span.payload_at - 8,
                                 span.end - 8};
    at = spots[rng.below(std::size(spots))];
  }
  return at + width <= s.size() ? at : s.size() - width;
}

/// Numbers a hand-edited or bit-rotted text field might hold.
const char* extremeText(Rng& rng) {
  static const char* const values[] = {
      "",       "0",      "-0",     "-1",          "1e308",
      "inf",    "-inf",   "nan",    "0x1p-1074",   "0x1.fffffffffffffp+1023",
      "0x0p+0", "18446744073709551615", "18446744073709551616",
      "0xffffffffffffffff", "1e-320", "2", "x", "0x", "1.5e9 ",
      "9999999999999999999999999"};
  return values[rng.below(std::size(values))];
}

/// Replace the value of one random `key=value` line of `payload`, or delete
/// or duplicate that line.
std::string editLine(const std::string& payload, Rng& rng,
                     std::string& what) {
  std::vector<std::string> lines;
  for (std::size_t pos = 0; pos < payload.size();) {
    const std::size_t eol = payload.find('\n', pos);
    const std::size_t end = eol == std::string::npos ? payload.size() : eol;
    lines.push_back(payload.substr(pos, end - pos));
    pos = end + 1;
  }
  if (lines.empty()) return payload;
  const std::size_t i = rng.below(lines.size());
  switch (rng.below(4)) {
    case 0:
      what += " delete line " + std::to_string(i);
      lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    case 1:
      what += " duplicate line " + std::to_string(i);
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i), lines[i]);
      break;
    default: {
      const std::size_t eq = lines[i].find('=');
      const char* value = extremeText(rng);
      what += " line " + std::to_string(i) + " value '" + value + "'";
      lines[i] = (eq == std::string::npos ? lines[i] : lines[i].substr(0, eq)) +
                 "=" + value;
      break;
    }
  }
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

/// One mutant of `base`; `what` says how it was made.
std::string mutate(const std::string& base, const CheckpointFile& decoded,
                   Rng& rng, std::string& what) {
  std::string s = base;
  const std::vector<SectionSpan> spans = walkSections(s);
  switch (rng.below(8)) {
    case 0: {  // 1-3 bit flips anywhere
      const std::size_t flips = 1 + rng.below(3);
      what = "bit flips";
      for (std::size_t i = 0; i < flips; ++i) {
        const std::size_t at = rng.below(s.size());
        const unsigned bit = static_cast<unsigned>(rng.below(8));
        s[at] = static_cast<char>(s[at] ^ (1 << bit));
        what += ' ';
        what += std::to_string(at) + ":" + std::to_string(bit);
      }
      break;
    }
    case 1: {
      const std::size_t at = targetOffset(rng, s, spans, 4);
      const std::uint32_t v = extremeU32(rng);
      storeU32(s, at, v);
      what = "u32 " + std::to_string(v) + " at " + std::to_string(at);
      break;
    }
    case 2: {
      const std::size_t at = targetOffset(rng, s, spans, 8);
      const std::uint64_t v = extremeU64(rng, s.size());
      storeU64(s, at, v);
      what = "u64 " + std::to_string(v) + " at " + std::to_string(at);
      break;
    }
    case 3: {
      const std::size_t keep = rng.below(s.size());
      s.resize(keep);
      what = "truncate to " + std::to_string(keep);
      break;
    }
    case 4: {  // duplicate one section in place, maybe declaring it
      const SectionSpan& span = spans[rng.below(spans.size())];
      s.insert(span.offset, base, span.offset, span.end - span.offset);
      what = "duplicate section at " + std::to_string(span.offset);
      if (rng.below(2) == 0) {
        storeU32(s, kCountAt, loadU32(s, kCountAt) + 1);
        what += " (counted)";
      }
      break;
    }
    case 5: {  // delete one section, maybe undeclaring it
      const SectionSpan& span = spans[rng.below(spans.size())];
      s.erase(span.offset, span.end - span.offset);
      what = "delete section at " + std::to_string(span.offset);
      if (rng.below(2) == 0) {
        storeU32(s, kCountAt, loadU32(s, kCountAt) - 1);
        what += " (counted)";
      }
      break;
    }
    default: {  // rewrite one line of the meta or a state section
      CheckpointFile file = decoded;
      Section& section =
          rng.below(2) == 0 ? file.sections.front()
                            : file.sections[rng.below(file.sections.size())];
      what = "section '" + section.name + "'";
      section.payload = editLine(section.payload, rng, what);
      return encodeCheckpoint(file);
    }
  }
  // Most mutants get valid checksums so the structural decoder sees them;
  // the rest keep exercising the checksum gates.
  if (rng.below(8) != 0) {
    repair(s);
  } else {
    what += " (unrepaired)";
  }
  return s;
}

TEST(CkptMutation, MutantsRestoreOrFailTyped) {
  const Base base = makeBase();
  // The unmutated checkpoint restores and resumes to the straight digest.
  const CheckpointFile decoded = decodeCheckpoint(base.bytes, "clean");
  ASSERT_EQ(decoded.sections.front().name, "meta");
  ASSERT_GT(decoded.sections.size(), 4u);
  {
    RestoredRun run(decodeSnapshot(decoded, "clean"), "clean");
    run.sim().run();
    ASSERT_EQ(runDigest(run.instance()), base.digest);
  }

  std::map<std::string, int> verdicts;
  Rng rng{0x5eedc0de};
  for (int i = 0; i < kMutants; ++i) {
    std::string what;
    std::string mutant;
    do {  // a field rewritten with its own value leaves nothing to test
      mutant = mutate(base.bytes, decoded, rng, what);
    } while (mutant == base.bytes);
    what = std::to_string(i) + ": " + what;
    try {
      RestoredRun run(decodeSnapshot(decodeCheckpoint(mutant, "mutant"),
                                     "mutant"),
                      "mutant");
      ++verdicts["ok"];
      run.sim().run();
      EXPECT_EQ(runDigest(run.instance()), base.digest)
          << "accepted mutant " << what << " resumed to another digest";
    } catch (const CheckpointError& e) {
      ++verdicts[e.kindName()];
    } catch (const scenario::ScenarioError&) {
      ++verdicts["scenario_error"];
    } catch (const std::exception& e) {
      ADD_FAILURE() << "restore threw a foreign exception on mutant " << what
                    << ": " << e.what();
    }
  }
  // A sweep that never reaches the deeper layers proves nothing: mutants
  // must be rejected by the container, the snapshot decoder and the replay.
  for (const char* kind :
       {"truncated", "malformed", "section_checksum", "file_checksum",
        "missing_section", "scenario_mismatch", "state_divergence"}) {
    EXPECT_GT(verdicts.count(kind), 0u) << "no mutant rejected as " << kind;
  }
}

}  // namespace
}  // namespace iobts::ckpt
