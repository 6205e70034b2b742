// The tentpole guarantee: digest(straight run) == digest(checkpoint at t_k
// -> restore -> resume) for the paper scenarios and generated documents, at
// multiple checkpoint times, including checkpoints taken mid-blackout and
// mid-outage. Restores go through the full encode -> decode -> snapshot ->
// replay -> verify pipeline, so every layer that could corrupt state is in
// the loop. The negative half: a checkpoint pointed at a different scenario
// or with a tampered state section must be rejected (ScenarioMismatch /
// StateDivergence), never silently mis-restored.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "ckpt/capture.hpp"
#include "ckpt/runner.hpp"
#include "ckpt/snapshot.hpp"
#include "scenario/generator.hpp"
#include "scenario/instance.hpp"
#include "scenario/scenario.hpp"
#include "sim/simulation.hpp"
#include "util/check.hpp"

namespace iobts::ckpt {
namespace {

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

std::string scenarioPath(const char* name) {
  return std::string(IOBTS_SCENARIO_DIR "/") + name;
}

struct StraightRun {
  std::uint64_t digest = 0;
  double t_end = 0.0;
};

StraightRun runStraight(const std::string& text) {
  sim::Simulation sim;
  scenario::Instance instance(sim, scenario::parseScenario(text));
  instance.launch();
  sim.run();
  instance.requireFinished();
  return {runDigest(instance), sim.now()};
}

/// Park a fresh run at `t`, snapshot it, and round-trip the snapshot
/// through the binary container (so the serialization layers are always
/// part of what this suite proves).
Snapshot checkpointAt(const std::string& text, double t) {
  sim::Simulation sim;
  scenario::Instance instance(sim, scenario::parseScenario(text));
  instance.launch();
  sim.runUntil(t);
  const Snapshot snapshot = captureSnapshot(instance, text, t);
  const std::string bytes = encodeCheckpoint(encodeSnapshot(snapshot));
  return decodeSnapshot(decodeCheckpoint(bytes, "<memory>"), "<memory>");
}

std::uint64_t resumeDigest(Snapshot snapshot) {
  RestoredRun run(std::move(snapshot), "<memory>");
  run.sim().run();
  run.instance().requireFinished();
  return runDigest(run.instance());
}

void expectResumeExact(const std::string& text, const std::string& label) {
  const StraightRun straight = runStraight(text);
  ASSERT_GT(straight.t_end, 0.0) << label;
  // Three checkpoint times spread across the run, none on an event time by
  // construction of the fractions.
  for (const double frac : {0.25, 0.5, 0.75}) {
    const double t = straight.t_end * frac;
    EXPECT_EQ(resumeDigest(checkpointAt(text, t)), straight.digest)
        << label << " checkpoint at t=" << t << " (of " << straight.t_end
        << ")";
  }
}

TEST(CkptResume, Fig10QuickAtThreeCheckpointTimes) {
  expectResumeExact(readFile(scenarioPath("fig10_quick.scn")), "fig10_quick");
}

TEST(CkptResume, Fig13QuickAtThreeCheckpointTimes) {
  expectResumeExact(readFile(scenarioPath("fig13_quick.scn")), "fig13_quick");
}

TEST(CkptResume, FaultedDegradeAtThreeCheckpointTimes) {
  expectResumeExact(readFile(scenarioPath("faulted_degrade.scn")),
                    "faulted_degrade");
}

TEST(CkptResume, BurstBufferAtThreeCheckpointTimes) {
  // Checkpoints embed the document, so the world's burst_buffer key
  // resumes with the run.
  expectResumeExact(readFile(scenarioPath("burst_buffer.scn")),
                    "burst_buffer");
}

TEST(CkptResume, GeneratedScenariosIncludingFaultPlan) {
  // Walk the generator's seed space until three documents have been
  // proven, at least one carrying an active fault plan and one a burst
  // buffer.
  int proven = 0;
  int faulted = 0;
  int buffered = 0;
  for (std::uint64_t seed = 1;
       seed <= 64 && (proven < 3 || faulted == 0 || buffered == 0); ++seed) {
    const std::string text =
        scenario::generateScenario(scenario::GeneratorConfig{}, seed);
    const bool has_faults = text.find("faults") != std::string::npos;
    const bool has_buffer =
        text.find("burst_buffer = 1") != std::string::npos;
    const bool missing_class = faulted == 0 || buffered == 0;
    const bool fills_class =
        (faulted == 0 && has_faults) || (buffered == 0 && has_buffer);
    if (proven >= 2 && missing_class && !fills_class) continue;
    expectResumeExact(text, "generated seed " + std::to_string(seed));
    ++proven;
    if (has_faults) ++faulted;
    if (has_buffer) ++buffered;
  }
  EXPECT_GE(proven, 3);
  EXPECT_GE(faulted, 1) << "no generated document carried a fault plan";
  EXPECT_GE(buffered, 1) << "no generated document carried a burst buffer";
}

TEST(CkptResume, MidBlackoutAndMidOutageCheckpoints) {
  // Fixed fault windows so the checkpoint times below are *inside* an
  // active blackout (1.2..1.8) and an active correlated outage (2.5..3.5).
  const std::string text = R"(scenario "ckpt-midfault"

link { write = 1e9  read = 1e9 }

faults {
  seed = 7
  blackout from 1.2 to 1.8
  outage 0.5 from 2.5 to 3.5
}

let block = 256KiB

world main { ranks = 4  strategy = "direct" }

program main {
  loop i : 8 {
    compute 0.5
    wait pending
    iwrite file "/pfs/ckpt.{rank}" at i * block bytes block -> pending
  }
  wait pending
  read file "/pfs/ckpt.{rank}" at 0 bytes block
}
)";
  const StraightRun straight = runStraight(text);
  ASSERT_GT(straight.t_end, 3.5) << "run must outlast the outage window";
  for (const double t : {1.5, 3.0, 0.7}) {
    EXPECT_EQ(resumeDigest(checkpointAt(text, t)), straight.digest)
        << "checkpoint at t=" << t;
  }
}

TEST(CkptResume, TerminalCheckpointResumesToSameDigest) {
  // A watermark past the end of the run: the capture sees a drained sim
  // and the resume's run() is a no-op. Still byte-exact.
  const std::string text = readFile(scenarioPath("fig13_quick.scn"));
  const StraightRun straight = runStraight(text);
  EXPECT_EQ(resumeDigest(checkpointAt(text, straight.t_end * 2)),
            straight.digest);
}

TEST(CkptResume, ForeignScenarioIsScenarioMismatch) {
  const std::string a = readFile(scenarioPath("fig10_quick.scn"));
  const std::string b = readFile(scenarioPath("fig13_quick.scn"));
  const StraightRun sa = runStraight(a);
  Snapshot snapshot = checkpointAt(a, sa.t_end * 0.5);
  // Swap in the *other* scenario's text without updating the declared
  // digest: exactly what pointing --resume at the wrong scenario's
  // checkpoint looks like after a manual edit.
  snapshot.scenario_text = b;
  const std::string bytes = encodeCheckpoint(encodeSnapshot(snapshot));
  try {
    decodeSnapshot(decodeCheckpoint(bytes, "<m>"), "<m>");
    FAIL() << "digest/text disagreement must be rejected";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::ScenarioMismatch);
  }
}

TEST(CkptResume, TamperedStateSectionIsStateDivergence) {
  const std::string text = readFile(scenarioPath("fig10_quick.scn"));
  const StraightRun straight = runStraight(text);
  Snapshot snapshot = checkpointAt(text, straight.t_end * 0.5);
  ASSERT_FALSE(snapshot.state.empty());
  // Flip one digit in one captured value: the replay will reach a
  // different line and must say which.
  bool tampered = false;
  for (Section& s : snapshot.state) {
    const std::size_t pos = s.payload.find("events_processed=");
    if (pos == std::string::npos) continue;
    s.payload[pos + std::string("events_processed=").size()] ^= 0x01;
    tampered = true;
    break;
  }
  ASSERT_TRUE(tampered);
  try {
    RestoredRun run(std::move(snapshot), "tampered.ckpt");
    FAIL() << "tampered state must be rejected";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::StateDivergence);
    const std::string msg = e.what();
    EXPECT_NE(msg.find("tampered.ckpt"), std::string::npos) << msg;
    EXPECT_NE(msg.find("events_processed"), std::string::npos) << msg;
  }
}

TEST(CkptResume, RunWithCheckpointsMatchesStraightRunAndPublishesLatest) {
  const std::string text = readFile(scenarioPath("fig10_quick.scn"));
  const StraightRun straight = runStraight(text);

  const std::string dir =
      testing::TempDir() + "ckpt_resume_" +
      std::to_string(::getpid());
  sim::Simulation sim;
  scenario::Instance instance(sim, scenario::parseScenario(text));
  instance.launch();
  CheckpointPolicy policy;
  policy.dir = dir;
  policy.every = straight.t_end / 5.0;
  const std::vector<CheckpointRecord> records =
      runWithCheckpoints(instance, text, policy);
  instance.requireFinished();
  // The checkpointing drive itself must not perturb the run.
  EXPECT_EQ(runDigest(instance), straight.digest);
  ASSERT_GE(records.size(), 3u);
  for (const CheckpointRecord& r : records) {
    EXPECT_GT(r.file_bytes, 0u);
    EXPECT_GE(r.capture_wall_ms, 0.0);
  }
  // `latest` points at the newest published checkpoint, and resuming from
  // it lands on the straight digest too.
  const std::string latest = latestCheckpointPath(dir);
  EXPECT_EQ(latest, records.back().path);
  RestoredRun run = restoreScenarioCheckpoint(latest);
  run.sim().run();
  run.instance().requireFinished();
  EXPECT_EQ(runDigest(run.instance()), straight.digest);
}

/// Drive fig13_quick through runWithCheckpoints at cadence `every`.
std::vector<CheckpointRecord> runFig13At(double every, std::uint64_t* digest) {
  const std::string text = readFile(scenarioPath("fig13_quick.scn"));
  const std::string dir = testing::TempDir() + "ckpt_cadence_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  sim::Simulation sim;
  scenario::Instance instance(sim, scenario::parseScenario(text));
  instance.launch();
  CheckpointPolicy policy;
  policy.dir = dir;
  policy.every = every;
  std::vector<CheckpointRecord> records;
  try {
    records = runWithCheckpoints(instance, text, policy);
  } catch (...) {
    std::filesystem::remove_all(dir);
    throw;
  }
  std::filesystem::remove_all(dir);
  instance.requireFinished();
  *digest = runDigest(instance);
  return records;
}

TEST(CkptResume, FineCadenceSkipsEmptyIntervalsToTheStraightDigest) {
  // 1 ns is far finer than fig13_quick's event spacing: the runner skips
  // the empty intervals instead of walking them, parks only where events
  // are, and the run ends on the straight digest.
  const StraightRun straight =
      runStraight(readFile(scenarioPath("fig13_quick.scn")));
  std::uint64_t digest = 0;
  const std::vector<CheckpointRecord> records = runFig13At(1e-9, &digest);
  EXPECT_EQ(digest, straight.digest);
  ASSERT_GE(records.size(), 2u);
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_GT(records[i].watermark, records[i - 1].watermark);
  }
}

TEST(CkptResume, CadenceTooFineToCountFailsTyped) {
  // At 1e-300 s the intervals up to the second event time outnumber 2^53,
  // past which a double cannot count them one by one: the run must fail
  // with a CheckError there, not hang.
  std::uint64_t digest = 0;
  try {
    runFig13At(1e-300, &digest);
    FAIL() << "a cadence too fine to count must be rejected";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("too fine"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace iobts::ckpt
