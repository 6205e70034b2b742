// ckpt_corpus -- (re)generate the checked-in invalid checkpoint corpus.
//
//   ckpt_corpus OUTPUT_DIR
//
// Builds one valid checkpoint of a small deterministic scenario, then
// derives one corrupted variant per CheckpointError kind. Each file is
// named after the errorKindName() the reader must report for it
// (truncated.ckpt, bad_magic.ckpt, ...), optionally followed by '-' and a
// qualifier naming a specific defect (malformed-count.ckpt,
// malformed-finished.ckpt);
// tests/ckpt/corpus_test.cpp sweeps the directory and keys its expectations
// on the stem up to the first '-', so the corpus and the sweep can never
// drift apart silently. The corpus under checkpoints/invalid/ is a
// checked-in artifact -- rerun this tool and commit the result only when the
// container format version is bumped.
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <string_view>

#include "ckpt/capture.hpp"
#include "ckpt/runner.hpp"
#include "ckpt/snapshot.hpp"
#include "scenario/instance.hpp"
#include "scenario/scenario.hpp"
#include "sim/simulation.hpp"
#include "util/file_io.hpp"
#include "util/hash.hpp"
#include "util/le_bytes.hpp"

using namespace iobts;

namespace {

// Small but non-trivial: async writes in flight at the capture point.
constexpr const char* kScenario = R"(scenario "corpus-base"

link { write = 1e9  read = 1e9 }

let block = 128KiB

world main { ranks = 2  strategy = "direct" }

program main {
  loop i : 4 {
    compute 0.4
    wait pending
    iwrite file "/pfs/corpus.{rank}" at i * block bytes block -> pending
  }
  wait pending
}
)";

void writeBytes(const std::string& path, const std::string& bytes) {
  std::string error;
  if (!publishFile(path, bytes, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    std::exit(1);
  }
  std::printf("wrote %s (%zu bytes)\n", path.c_str(), bytes.size());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s OUTPUT_DIR\n", argv[0]);
    return 2;
  }
  const std::string dir = argv[1];
  std::filesystem::create_directories(dir);

  // The valid base checkpoint, parked mid-run.
  sim::Simulation sim;
  scenario::Instance instance(sim, scenario::parseScenario(kScenario));
  instance.launch();
  sim.runUntil(1.0);
  const ckpt::Snapshot snapshot =
      ckpt::captureSnapshot(instance, kScenario, 1.0);
  const std::string valid =
      ckpt::encodeCheckpoint(ckpt::encodeSnapshot(snapshot));

  // truncated: cut mid-section.
  writeBytes(dir + "/truncated.ckpt", valid.substr(0, valid.size() / 2));

  // bad_magic: first byte wrong.
  {
    std::string bytes = valid;
    bytes[0] = 'X';
    writeBytes(dir + "/bad_magic.ckpt", bytes);
  }

  // bad_version: container claims a future version.
  {
    std::string bytes = valid;
    bytes[8] = 99;  // little-endian u32 at offset 8
    writeBytes(dir + "/bad_version.ckpt", bytes);
  }

  // section_checksum: one payload bit flipped (first section's payload
  // starts after magic + version + count + name_len + "meta" + payload_len).
  {
    std::string bytes = valid;
    bytes[8 + 4 + 4 + 4 + 4 + 8] ^= 0x01;
    writeBytes(dir + "/section_checksum.ckpt", bytes);
  }

  // file_checksum: trailer bit flipped.
  {
    std::string bytes = valid;
    bytes[bytes.size() - 1] ^= 0x01;
    writeBytes(dir + "/file_checksum.ckpt", bytes);
  }

  // malformed: trailing garbage after the file checksum.
  writeBytes(dir + "/malformed.ckpt", valid + "garbage");

  // malformed-count: the section count claims 0xFFFFFFFF sections and the
  // trailer checksum is repaired, so only the count is wrong. A reader that
  // reserved the count before bounding it would ask for about 274 GB.
  {
    std::string bytes = valid;
    le::putU32(bytes.data() + 12, 0xffffffffU);  // the section count
    const std::size_t body = bytes.size() - 8;
    le::putU64(bytes.data() + body,
               hashName(std::string_view(bytes.data(), body)));
    writeBytes(dir + "/malformed-count.ckpt", bytes);
  }

  // malformed-finished: the meta flag claims the run had finished
  // (checksums valid). Every checkpoint is taken mid-run and restore could
  // not verify the claim, so the reader rejects it.
  {
    ckpt::CheckpointFile file = ckpt::encodeSnapshot(snapshot);
    std::string& meta = file.sections.front().payload;  // "meta" is first
    const std::size_t flag = meta.find("finished=0");
    if (flag == std::string::npos) {
      std::fprintf(stderr, "no finished=0 line to tamper\n");
      return 1;
    }
    meta[flag + sizeof("finished=") - 1] = '1';
    writeBytes(dir + "/malformed-finished.ckpt", ckpt::encodeCheckpoint(file));
  }

  // missing_section: a structurally valid container without the mandatory
  // meta section.
  {
    ckpt::CheckpointFile file = ckpt::encodeSnapshot(snapshot);
    file.sections.erase(file.sections.begin());  // "meta" is first
    writeBytes(dir + "/missing_section.ckpt", ckpt::encodeCheckpoint(file));
  }

  // scenario_mismatch: the declared scenario digest disagrees with the
  // embedded text (what pointing --resume at a hand-edited or foreign
  // checkpoint looks like).
  {
    ckpt::Snapshot tampered = snapshot;
    tampered.scenario_digest ^= 1;
    writeBytes(dir + "/scenario_mismatch.ckpt",
               ckpt::encodeCheckpoint(ckpt::encodeSnapshot(tampered)));
  }

  // state_divergence: container and snapshot are pristine, but one captured
  // state value is wrong -- only the replay-and-verify pass can catch it.
  {
    ckpt::Snapshot tampered = snapshot;
    bool flipped = false;
    for (ckpt::Section& s : tampered.state) {
      const std::size_t pos = s.payload.find("events_processed=");
      if (pos == std::string::npos) continue;
      s.payload[pos + sizeof("events_processed=") - 1] ^= 0x01;
      flipped = true;
      break;
    }
    if (!flipped) {
      std::fprintf(stderr, "no events_processed line to tamper\n");
      return 1;
    }
    writeBytes(dir + "/state_divergence.ckpt",
               ckpt::encodeCheckpoint(ckpt::encodeSnapshot(tampered)));
  }

  return 0;
}
