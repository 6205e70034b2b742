// Error-path coverage for the scenario DSL: every malformed document must be
// rejected with a ScenarioError carrying a precise line and field, and must
// never crash (this suite runs under ASan/UBSan in the sanitize tier and
// under TSan in the tsan tier). Runtime guards -- arithmetic faults, operand
// types, size/tag/loop-count conversions, request-slot limits, unwaited
// requests, the per-rank op budget and virtual-clock overflow -- surface
// through sim.run(), which rethrows the first uncaught process exception.
// A few well-formed documents pin interpreter semantics (let scoping,
// short-circuit guards) through RunStats.
#include <string>

#include <gtest/gtest.h>

#include "scenario/instance.hpp"
#include "scenario/scenario.hpp"
#include "sim/simulation.hpp"
#include "util/check.hpp"

namespace iobts::scenario {
namespace {

// Minimal valid prologue most fragments below build on.
constexpr const char* kWorld = "scenario \"t\"\nworld main { ranks = 2 }\n";

/// Assert that parsing `text` throws a ScenarioError whose line, field and
/// message match. line < 0 or empty strings skip that check.
void expectParseError(const std::string& text, int line,
                      const std::string& field_part,
                      const std::string& message_part) {
  try {
    parseScenario(text);
    FAIL() << "expected ScenarioError, document parsed:\n" << text;
  } catch (const ScenarioError& e) {
    if (line >= 0) {
      EXPECT_EQ(e.line(), line) << e.what();
    }
    if (!field_part.empty()) {
      EXPECT_NE(e.field().find(field_part), std::string::npos) << e.what();
    }
    if (!message_part.empty()) {
      EXPECT_NE(e.message().find(message_part), std::string::npos)
          << e.what();
    }
  }
}

/// Compile + run a parseable document and assert the runtime rejects it.
void expectRuntimeError(const std::string& text,
                        const std::string& message_part) {
  ScenarioSpec spec = parseScenario(text);
  sim::Simulation sim;
  Instance instance(sim, std::move(spec));
  instance.launch();
  try {
    sim.run();
    FAIL() << "expected runtime ScenarioError:\n" << text;
  } catch (const ScenarioError& e) {
    EXPECT_NE(e.message().find(message_part), std::string::npos) << e.what();
  }
}

/// Compile + run a document to completion and return its counters.
RunStats runToCompletion(const std::string& text) {
  sim::Simulation sim;
  Instance instance(sim, parseScenario(text));
  instance.launch();
  sim.run();
  instance.requireFinished();
  return instance.stats();
}

// --- lexer -----------------------------------------------------------------

TEST(ScenarioParseError, UnterminatedString) {
  expectParseError("scenario \"oops\n", 1, "string", "unterminated string");
}

TEST(ScenarioParseError, HexLiteralOverflow) {
  expectParseError(std::string(kWorld) +
                       "program main { compute 0x1ffffffffffffffff }",
                   3, "number", "overflows 64 bits");
}

TEST(ScenarioParseError, IntLiteralOverflow) {
  expectParseError(std::string(kWorld) +
                       "program main { bcast 99999999999999999999 }",
                   3, "number", "overflows 63 bits");
}

TEST(ScenarioParseError, ByteSuffixOverflow) {
  expectParseError(std::string(kWorld) +
                       "program main { read file \"/f\" at 0 bytes "
                       "99999999999GiB }",
                   3, "number", "overflows a byte count");
}

// --- block structure ---------------------------------------------------------

TEST(ScenarioParseError, UnknownLinkKey) {
  expectParseError("scenario \"t\"\nlink { bandwith = 1e9 }\n"
                   "world main { ranks = 2 }\nprogram main { barrier }",
                   2, "link", "unknown key 'bandwith'");
}

TEST(ScenarioParseError, UnknownWorldKey) {
  expectParseError("scenario \"t\"\nworld main { ranks = 2  color = 3 }\n"
                   "program main { barrier }",
                   2, "world main", "unknown key 'color'");
}

TEST(ScenarioParseError, BurstBufferIsZeroOrOne) {
  expectParseError("scenario \"t\"\n"
                   "world main { ranks = 2  burst_buffer = 2 }\n"
                   "program main { barrier }",
                   2, "world.burst_buffer", "burst_buffer must be 0 or 1");
  expectParseError("scenario \"t\"\n"
                   "world main { ranks = 2  burst_buffer = 1.0 }\n"
                   "program main { barrier }",
                   2, "burst_buffer", "expected an integer");
}

TEST(ScenarioParse, BurstBufferKeyGivesEveryRankTheDefaultBuffer) {
  for (const int on : {0, 1}) {
    sim::Simulation sim;
    Instance instance(
        sim, parseScenario("scenario \"t\"\n"
                           "world main { ranks = 2  burst_buffer = " +
                           std::to_string(on) +
                           " }\n"
                           "program main { write file \"/f.{rank}\" at 0 "
                           "bytes 1MiB }"));
    EXPECT_EQ(instance.spec().worlds[0].config.burst_buffer.has_value(),
              on == 1);
    EXPECT_EQ(instance.world(0).config().burst_buffer.has_value(), on == 1);
    instance.launch();
    sim.run();
    instance.requireFinished();
  }
}

TEST(ScenarioParseError, UnknownStrategy) {
  expectParseError("scenario \"t\"\n"
                   "world main { ranks = 2  strategy = \"turbo\" }\n"
                   "program main { barrier }",
                   2, "world.strategy",
                   "unknown strategy 'turbo' (expected none, direct, up-only, "
                   "adaptive or mfu)");
}

TEST(ScenarioParseError, DuplicateLinkBlock) {
  expectParseError("scenario \"t\"\nlink { write = 1e9 }\n"
                   "link { read = 1e9 }\n"
                   "world main { ranks = 2 }\nprogram main { barrier }",
                   3, "link", "duplicate link block");
}

TEST(ScenarioParseError, UnterminatedBlock) {
  expectParseError(std::string(kWorld) + "program main { compute 1.0\n", -1,
                   "", "");
}

TEST(ScenarioParseError, ReservedWordAsWorldName) {
  expectParseError("scenario \"t\"\nworld program { ranks = 2 }", 2, "",
                   "reserved word");
}

TEST(ScenarioParseError, ProgramWithoutWorld) {
  expectParseError(std::string(kWorld) +
                       "program main { barrier }\n"
                       "program ghost { barrier }",
                   4, "program ghost", "");
}

TEST(ScenarioParseError, DuplicateWorld) {
  expectParseError(std::string(kWorld) + "world main { ranks = 2 }\n"
                   "program main { barrier }",
                   3, "world main", "duplicate world name");
}

TEST(ScenarioParseError, NoWorlds) {
  expectParseError("scenario \"empty\"", -1, "scenario",
                   "scenario declares no worlds");
}

// --- semantic validation -----------------------------------------------------

TEST(ScenarioParseError, RanksOutOfRange) {
  // World holds the lower bound and rejects at the key; the cap is the
  // DSL's own and the validator reports it for the world.
  expectParseError("scenario \"t\"\nworld main { ranks = 0 }\n"
                   "program main { barrier }",
                   2, "world.ranks", "world needs at least one rank");
  expectParseError("scenario \"t\"\nworld main { ranks = 16385 }\n"
                   "program main { barrier }",
                   2, "world main", "ranks must lie in [1, 16384]");
}

// A document at the rank cap runs to completion: 16,384 ranks synchronize,
// compute, write 4 KiB each through the shared link, and synchronize again.
TEST(ScenarioParse, LargestRankCountRunsToCompletion) {
  const RunStats stats = runToCompletion(
      "scenario \"t\"\nworld main { ranks = 16384 }\n"
      "program main {\n"
      "  barrier\n"
      "  compute 0.5\n"
      "  write file \"/pfs/r.{rank}\" at 0 bytes 4KiB\n"
      "  barrier\n"
      "}\n");
  EXPECT_EQ(stats.io_submitted, 16384u);
  EXPECT_EQ(stats.write_bytes_requested, 16384u * 4096u);
  EXPECT_EQ(stats.collectives, 2u * 16384u);
}

TEST(ScenarioParseError, NonFiniteLinkNumbers) {
  // 1e999 overflows a double and lexes as inf; SharedLink's rule rejects it
  // at the key's line.
  const struct {
    const char* key;
    const char* reason;
  } cases[] = {
      {"write", "write capacity must be positive and finite"},
      {"read", "read capacity must be positive and finite"},
      {"client_cap", "client rate cap must be non-negative and finite"},
      {"congestion", "congestion gamma must be non-negative and finite"},
      {"noise", "noise sigma must be non-negative and finite"},
      {"noise_ref", "noise reference rate must be non-negative and finite"},
      {"quantum", "recompute quantum must be non-negative and finite"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.key);
    expectParseError("scenario \"t\"\nlink { write = 2e9\n" +
                         std::string(c.key) +
                         " = 1e999 }\nworld main { ranks = 2 }\n"
                         "program main { barrier }",
                     3, "link." + std::string(c.key), c.reason);
  }
}

TEST(ScenarioParseError, NonFiniteOrOverflowingJitter) {
  // exp(sigma * z) must stay finite for the largest Box-Muller |z|,
  // sqrt(106 ln 2): sigma <= ln(DBL_MAX) / 8.5717 = 82.8056...
  for (const char* jitter : {"1e10", "1e999", "82.806"}) {
    SCOPED_TRACE(jitter);
    expectParseError("scenario \"t\"\nworld main { ranks = 2  jitter = " +
                         std::string(jitter) + " }\nprogram main { barrier }",
                     2, "world.jitter",
                     "compute jitter must be finite and at most 82.8056");
  }
  EXPECT_NO_THROW(parseScenario(
      "scenario \"t\"\nworld main { ranks = 2  jitter = 82.805 }\n"
      "program main { barrier }"));
}

TEST(ScenarioParseError, ZeroByteCount) {
  expectParseError(std::string(kWorld) +
                       "program main { write file \"/f\" at 0 bytes 0 }",
                   3, "", "byte count must be positive");
}

TEST(ScenarioParseError, NegativeOffset) {
  expectParseError(std::string(kWorld) +
                       "program main { write file \"/f\" at -8 bytes 8 }",
                   3, "", "must be non-negative");
}

TEST(ScenarioParseError, OverflowingLoopCount) {
  expectParseError(std::string(kWorld) +
                       "program main { loop i : 2000000 { barrier } }",
                   3, "", "overflows the 1000000-iteration budget");
}

TEST(ScenarioParseError, NegativeLoopCount) {
  expectParseError(std::string(kWorld) +
                       "program main { loop i : -3 { compute 1.0 } }",
                   3, "", "loop count must be non-negative");
}

TEST(ScenarioParseError, CyclicPhaseGraph) {
  expectParseError(std::string(kWorld) +
                       "program main {\n"
                       "  phase a { barrier } -> b\n"
                       "  phase b { barrier } -> a\n"
                       "}",
                   -1, "world main", "cyclic phase graph");
}

TEST(ScenarioParseError, UnreachablePhase) {
  expectParseError(std::string(kWorld) +
                       "program main {\n"
                       "  phase a { barrier } -> c\n"
                       "  phase b { compute 1.0 }\n"
                       "  phase c { barrier }\n"
                       "}",
                   -1, "world main", "unreachable from the start phase");
}

TEST(ScenarioParseError, PhaseLinksToUnknownPhase) {
  expectParseError(std::string(kWorld) +
                       "program main { phase a { barrier } -> ghost }",
                   3, "world main", "links to unknown phase 'ghost'");
}

TEST(ScenarioParseError, CollectiveUnderRankDependentIf) {
  expectParseError(std::string(kWorld) +
                       "program main { if rank == 0 { barrier } }",
                   3, "", "rank-dependent control flow would deadlock");
}

TEST(ScenarioParseError, RecvUnderRankDependentIf) {
  expectParseError(
      "scenario \"t\"\nworld a { ranks = 2 }\nworld b { ranks = 2 }\n"
      "program a { signal c\nif rank == 0 { recv c } }\n"
      "program b { compute 1.0 }",
      -1, "", "rank-dependent control flow");
}

TEST(ScenarioParseError, UnknownVariable) {
  expectParseError(std::string(kWorld) + "program main { compute mystery }",
                   3, "", "unknown variable 'mystery'");
}

TEST(ScenarioParseError, UnknownNameInPhaseRepeat) {
  expectParseError(std::string(kWorld) +
                       "program main {\n"
                       "  phase p repeat h : mystery { compute 0.1 }\n"
                       "}",
                   4, "world main", "unknown variable 'mystery'");
  expectParseError(std::string(kWorld) +
                       "program main {\n"
                       "  phase p repeat h : h { compute 0.1 }\n"
                       "}",
                   4, "world main", "unknown variable 'h'");
  expectParseError(std::string(kWorld) +
                       "program main {\n"
                       "  phase p repeat h : pow(2) { compute 0.1 }\n"
                       "}",
                   4, "world main", "'pow' takes 2 argument(s), got 1");
}

TEST(ScenarioParseError, WaitTargetNeverAssigned) {
  expectParseError(std::string(kWorld) + "program main { wait pending }", -1,
                   "world main", "never assigned by iwrite/iread");
}

TEST(ScenarioParseError, SlotAssignedNeverWaited) {
  expectParseError(
      std::string(kWorld) +
          "program main { iwrite file \"/f\" at 0 bytes 8 -> p }",
      -1, "world main", "assigned but never waited");
}

TEST(ScenarioParseError, WaitAndWaitAllOnSameSlot) {
  expectParseError(std::string(kWorld) +
                       "program main {\n"
                       "  iwrite file \"/f\" at 0 bytes 8 -> p\n"
                       "  wait p\n"
                       "  iwrite file \"/f\" at 8 bytes 8 -> p\n"
                       "  waitall p\n"
                       "}",
                   -1, "world main", "both wait and waitall");
}

TEST(ScenarioParseError, RecvWithoutSignal) {
  expectParseError(std::string(kWorld) + "program main { recv nobody }", -1,
                   "channel nobody", "received but never signaled");
}

TEST(ScenarioParseError, ChannelCouplesUnequalWorlds) {
  expectParseError(
      "scenario \"t\"\nworld a { ranks = 2 }\nworld b { ranks = 3 }\n"
      "program a { signal c }\nprogram b { recv c }",
      -1, "channel c", "different rank counts");
}

// --- runtime guards ----------------------------------------------------------

TEST(ScenarioParseError, RuntimeDivisionByZero) {
  // Integer division: float division by zero yields inf and is caught by
  // the finite-duration guard instead (also covered here).
  expectRuntimeError(std::string(kWorld) +
                         "let z = 0\nprogram main { bcast 8 / z }",
                     "division by zero");
  expectRuntimeError(std::string(kWorld) +
                         "let z = 0\nprogram main { compute 1.0 / z }",
                     "must be finite and non-negative");
}

TEST(ScenarioParseError, RuntimeModuloByZero) {
  expectRuntimeError(std::string(kWorld) +
                         "let z = 0\nprogram main { bcast 8 % z }",
                     "modulo by zero");
}

TEST(ScenarioParseError, RuntimeZeroByteCount) {
  // A size that is only zero at runtime slips past the literal check and
  // must be caught by the interpreter guard instead.
  expectRuntimeError(std::string(kWorld) +
                         "let n = 4 - 4\n"
                         "program main { write file \"/f\" at 0 bytes n }",
                     "byte count must be positive");
}

TEST(ScenarioParseError, RuntimeOpBudget) {
  // 1 + 2 * 1e6 statements on one rank: the last `let` crosses the budget.
  // The body creates no events, so this stays fast.
  expectRuntimeError("scenario \"t\"\nworld main { ranks = 1 }\n"
                     "program main {\n"
                     "  loop i : 1000000 { let a = i  let b = i }\n"
                     "}",
                     "rank 0 exceeded the 2000000-statement budget");
}

TEST(ScenarioParseError, RuntimeClockOverflow) {
  // Each compute is finite, so both documents validate, but their sum
  // overflows the virtual clock. The kernel rejects the event time; the
  // run used to finish at elapsed=inf, or hang once I/O had to drain there.
  for (const char* io :
       {"", "  write file \"/pfs/x.{rank}\" at 0 bytes 1MiB\n"}) {
    ScenarioSpec spec = parseScenario(
        std::string("scenario \"t\"\nworld main { ranks = 4 }\n"
                    "program main {\n  compute 1e308\n  compute 1e308\n") +
        io + "}\n");
    sim::Simulation sim;
    Instance instance(sim, std::move(spec));
    instance.launch();
    try {
      sim.run();
      ADD_FAILURE() << "run finished at t=" << sim.now() << " with io '"
                    << io << "'";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("virtual clock overflow"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ScenarioParseError, RuntimeShiftOutOfRange) {
  expectRuntimeError(std::string(kWorld) +
                         "let s = 64\nprogram main { bcast 1 << s }",
                     "shift amount must lie in [0, 63], got 64");
}

TEST(ScenarioParseError, RuntimeWaitOnSlotWithManyRequests) {
  expectRuntimeError(std::string(kWorld) +
                         "program main {\n"
                         "  loop i : 3 {\n"
                         "    iwrite file \"/f\" at i * 8 bytes 8 -> p\n"
                         "  }\n"
                         "  wait p\n"
                         "}",
                     "slot 'p' holds 3 pending requests; use waitall");
}

TEST(ScenarioParseError, RuntimeSlotOverflow) {
  expectRuntimeError("scenario \"t\"\nworld main { ranks = 1 }\n"
                     "program main {\n"
                     "  loop i : 4097 {\n"
                     "    iwrite file \"/f\" at 0 bytes 8 -> p\n"
                     "  }\n"
                     "  waitall p\n"
                     "}",
                     "slot 'p' accumulated more than 4096 pending requests");
}

TEST(ScenarioParseError, RuntimeUnwaitedRequest) {
  // `wait` is legal under rank-dependent control flow, so the validator
  // accepts this; rank 1 never waits and the end-of-program check fires.
  expectRuntimeError(std::string(kWorld) +
                         "program main {\n"
                         "  iwrite file \"/f{rank}\" at 0 bytes 8 -> p\n"
                         "  if rank == 0 { wait p }\n"
                         "}",
                     "rank 1 ended with 1 unwaited request(s) in slot 'p'");
}

TEST(ScenarioParseError, RuntimeOperandTypes) {
  expectRuntimeError(std::string(kWorld) +
                         "let d = 1.5\nprogram main { bcast 8 & d }",
                     "operator '&' requires integer operands");
  expectRuntimeError(std::string(kWorld) +
                         "program main { bcast splitmix(1.5) }",
                     "splitmix takes an integer");
}

TEST(ScenarioParseError, RuntimeConversions) {
  expectRuntimeError(std::string(kWorld) +
                         "program main { write file \"/f\" at 0 bytes 8 "
                         "tag 1.5 }",
                     "tag must be an integer");
  expectRuntimeError(std::string(kWorld) +
                         "let n = 2.5\n"
                         "program main { loop i : n { compute 0.1 } }",
                     "loop count must be an integer");
  expectRuntimeError(std::string(kWorld) +
                         "let n = 8.5\n"
                         "program main { write file \"/f\" at 0 bytes n }",
                     "byte count must be a whole number of bytes, got 8.5");
}

TEST(ScenarioRuntime, LetShadowingIsStaticAndLoopBodiesAreFresh) {
  // The program-level x shadows the global; each loop iteration's `let x`
  // reads that outer x afresh (20, not 200), and the final write sees the
  // program-level x again: (2 + 20 + 20) bytes x 2 ranks.
  const RunStats stats = runToCompletion(
      std::string(kWorld) +
      "let x = 1\n"
      "program main {\n"
      "  let x = x + 1\n"
      "  loop i : 2 {\n"
      "    let x = x * 10\n"
      "    write file \"/f{rank}\" at 0 bytes x\n"
      "  }\n"
      "  write file \"/f{rank}\" at 0 bytes x\n"
      "}");
  EXPECT_EQ(stats.write_bytes_requested, 84u);
  EXPECT_EQ(stats.io_submitted, 6u);
}

TEST(ScenarioRuntime, ShortCircuitAndTernaryGuardDivision) {
  const RunStats stats = runToCompletion(
      std::string(kWorld) +
      "let z = 0\n"
      "program main {\n"
      "  if z != 0 && 8 / z > 1 { barrier }\n"
      "  bcast z == 0 ? 8 : 8 / z\n"
      "}");
  EXPECT_EQ(stats.collectives, 2u);
  EXPECT_EQ(stats.ops, 2u * (1 + 2));
}

TEST(ScenarioParseError, FileDiagnosticsCarryPath) {
  try {
    loadScenarioFile("/nonexistent/missing.scn");
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    EXPECT_NE(e.field().find("/nonexistent/missing.scn"), std::string::npos);
    EXPECT_NE(e.message().find("cannot open"), std::string::npos);
  }
}

// --- well-formed corner cases must still parse -------------------------------

TEST(ScenarioParse, AcceptsUnitSuffixesAndHex) {
  const ScenarioSpec spec = parseScenario(
      std::string(kWorld) +
      "let a = 4KiB\nlet b = 2MiB\nlet c = 0xff\n"
      "program main { write file \"/f\" at c bytes a + b tag 0xdead }");
  EXPECT_EQ(spec.worlds.size(), 1u);
  EXPECT_EQ(spec.globals.size(), 3u);
}

TEST(ScenarioParse, AcceptsOutageFaultDecl) {
  // The seed may follow the windows: the plan reads it at verdict time.
  const ScenarioSpec spec = parseScenario(
      "scenario \"t\"\n"
      "faults {\n"
      "  outage 0.5 from 2.0 to 4.0\n"
      "  blackout from 5.0 to 5.5\n"
      "  seed = 7\n"
      "}\n"
      "world main { ranks = 2 }\n"
      "program main { compute 0.1 }\n");
  EXPECT_EQ(spec.faults.seed(), 7u);
  ASSERT_EQ(spec.faults.outages().size(), 1u);
  ASSERT_EQ(spec.faults.blackouts().size(), 1u);
  EXPECT_TRUE(spec.faults.degradations().empty());
  EXPECT_FALSE(spec.faults.hasTransferFaults());
  const fault::OutageEvent& outage = spec.faults.outages()[0];
  EXPECT_EQ(outage.fraction, 0.5);
  EXPECT_EQ(outage.window.begin, 2.0);
  EXPECT_EQ(outage.window.end, 4.0);
  EXPECT_EQ(spec.faults.blackouts()[0].window.begin, 5.0);
  EXPECT_EQ(spec.faults.blackouts()[0].window.end, 5.5);
}

TEST(ScenarioParseError, OutageFractionOutOfRange) {
  const auto doc = [](const char* fraction) {
    return std::string("scenario \"t\"\n"
                       "faults { outage ") +
           fraction +
           " from 1.0 to 2.0 }\n"
           "world main { ranks = 2 }\n"
           "program main { compute 0.1 }\n";
  };
  expectParseError(doc("0.0"), 2, "faults.outage",
                   "outage fraction must lie in (0, 1], got 0");
  expectParseError(doc("1.5"), 2, "faults.outage",
                   "outage fraction must lie in (0, 1], got 1.5");
}

TEST(ScenarioRuntime, RecordPathsNameEveryWorld) {
  // Two worlds with async writes in both: each world has tmio records of
  // its own, and each world's record files are named by the world.
  const std::string program =
      "  loop i : 3 {\n"
      "    iwrite file \"/pfs/{rank}\" at i * 4KiB bytes 4KiB -> w\n"
      "    compute 0.1\n"
      "    wait w\n"
      "  }\n";
  sim::Simulation sim;
  Instance instance(sim, parseScenario("scenario \"two\"\n"
                                       "world left { ranks = 2 }\n"
                                       "world right { ranks = 3 }\n"
                                       "program left {\n" + program + "}\n"
                                       "program right {\n" + program + "}\n"));
  instance.launch();
  sim.run();
  instance.requireFinished();

  EXPECT_EQ(instance.recordPath("run.jsonl", 0), "run.left.jsonl");
  EXPECT_EQ(instance.recordPath("run.jsonl", 1), "run.right.jsonl");
  EXPECT_EQ(instance.recordPath("out/run", 1), "out/run.right");
  EXPECT_EQ(instance.recordPath("out.d/run", 0), "out.d/run.left");
  EXPECT_EQ(instance.recordPath(".jsonl", 0), ".jsonl.left");
  EXPECT_EQ(instance.tracer(0).phaseRecords().size(), 6u);
  EXPECT_EQ(instance.tracer(1).phaseRecords().size(), 9u);

  // A one-world document keeps the name it was given.
  sim::Simulation one_sim;
  Instance one(one_sim, parseScenario(std::string(kWorld) +
                                      "program main { barrier }"));
  EXPECT_EQ(one.recordPath("run.jsonl", 0), "run.jsonl");
}

TEST(ScenarioParse, AcceptsPhaseChainWithExplicitLinks) {
  const ScenarioSpec spec = parseScenario(
      std::string(kWorld) +
      "program main {\n"
      "  phase warm { compute 0.5 } -> io\n"
      "  phase io { write file \"/f\" at 0 bytes 8 }\n"
      "}");
  EXPECT_EQ(spec.worlds[0].phases.size(), 2u);
  EXPECT_EQ(spec.worlds[0].phases[0].next, "io");
}

}  // namespace
}  // namespace iobts::scenario
