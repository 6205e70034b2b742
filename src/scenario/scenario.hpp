// Scenario DSL: declarative workload descriptions compiled to mpisim
// programs.
//
// The paper's analysis rests on two hand-written workloads (HACC-IO and
// WaComM++). The scenario compiler turns that pair into an open set: a
// small text DSL describes a workload as worlds (rank counts), phases,
// loops, branches, per-phase compute time, write/read sizes and the
// sync/async mix; the compiler lowers it onto the existing mpisim::World
// runtime (RankCtx compute/collectives/MPI-IO calls), so a compiled
// scenario exercises the identical engine/pacer/link stack as the
// hand-written twins -- byte-identically, as the twin tests prove. A
// seeded generator (generator.hpp) samples valid scenario programs from
// this grammar, which is how thousands of generated workloads replace the
// two hand-written ones.
//
// Grammar sketch (full EBNF in DESIGN.md §10):
//
//   scenario "name"
//   link    { write = 106e9  read = 120e9  client_cap = 1.5e9 ... }
//   faults  { seed = 7
//             degrade write 0.5 from 2.0 to 4.0
//             blackout from 5.0 to 5.5
//             transfer_fault any 0.25 from 1.0 to 9.0 }
//   let bpp = 2048                      # program-scoped constants
//   world main { ranks = 48  strategy = "up-only"  burst_buffer = 0 }
//   program main {
//     phase init {
//       if rank == 0 { read file "/pfs/in" at 0 bytes 4MiB }
//       bcast 8
//     }
//     phase hours repeat h : 6 {
//       compute 2.2 + 48.0 / ranks
//       wait pending
//       iwrite file "/pfs/out" at rank * bpp bytes bpp tag splitmix(h) -> pending
//     } -> finish
//     phase finish { wait pending }
//   }
//
// Multiple worlds share one simulation, SharedLink and FileStore; the
// streaming-pipeline scenario class couples a producer world writing with
// a consumer world reading through counted rendezvous channels
// (`signal name` / `recv name`), i.e. no file-system round-trip between
// them.
//
// The header blocks parse straight into the simulator's own configs
// (pfs::LinkConfig, fault::FaultPlan, mpisim::WorldConfig and
// tmio::TracerConfig), and each value has one rule, held by the module
// that owns it. The parser runs that module's check as it reads each key
// or fault declaration and reports a rejection at that line, naming the
// key ("link.quantum", "world.jitter", "faults.blackout") and giving the
// module's reason. The validator keeps only the DSL's own rules: the rank
// cap, burst_buffer 0/1 and every program check.
//
// Every parse/compile/runtime diagnostic is a ScenarioError carrying the
// source line and the field/construct it refers to; malformed input never
// crashes (asserted by the error-path suite under ASan/UBSan).
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/plan.hpp"
#include "mpisim/world.hpp"
#include "pfs/shared_link.hpp"
#include "tmio/tracer.hpp"

namespace iobts::scenario {

/// Diagnostic for malformed or invalid scenarios: parse errors, semantic
/// validation failures and interpreter-time violations all carry the source
/// line (0 when no single line applies) and the field or construct name.
class ScenarioError : public std::runtime_error {
 public:
  ScenarioError(int line, std::string field, std::string message)
      : std::runtime_error(format(line, field, message)),
        line_(line),
        field_(std::move(field)),
        message_(std::move(message)) {}

  int line() const noexcept { return line_; }
  const std::string& field() const noexcept { return field_; }
  /// The bare message, without the line/field prefix what() carries.
  const std::string& message() const noexcept { return message_; }

 private:
  static std::string format(int line, const std::string& field,
                            const std::string& message) {
    std::string out = "scenario error";
    if (line > 0) out += " at line " + std::to_string(line);
    if (!field.empty()) out += " [" + field + "]";
    out += ": " + message;
    return out;
  }

  int line_;
  std::string field_;
  std::string message_;
};

// --- Expressions -----------------------------------------------------------

/// Arithmetic over int64 and double with C-like promotion: an operator with
/// any double operand computes in double; all-int computes in (wrapping)
/// int64. `/` on two ints is truncating integer division. Bit operations,
/// shifts and `%` are int-only. See DESIGN.md §10 for the exactness
/// contract that makes DSL twins bit-identical to hand-written C++.
struct Expr {
  enum class Kind {
    IntLit,   // int_value
    FloatLit, // float_value
    Var,      // name
    Unary,    // op, args[0]
    Binary,   // op, args[0], args[1]
    Ternary,  // args[0] ? args[1] : args[2]
    Call,     // name(args...): splitmix, pow, min, max, abs
  };

  Kind kind = Kind::IntLit;
  int line = 0;
  std::int64_t int_value = 0;
  double float_value = 0.0;
  std::string name;  // Var / Call
  std::string op;    // Unary / Binary
  std::vector<Expr> args;
};

// --- Statements ------------------------------------------------------------

struct Stmt {
  enum class Kind {
    Let,       // name = a
    Compute,   // a seconds
    Barrier,   //
    Bcast,     // a bytes
    Allreduce, // a bytes
    Write,     // path at a bytes b [tag c]          (blocking)
    Read,      // path at a bytes b                  (blocking)
    IWrite,    // path at a bytes b [tag c] -> slot  (async)
    IRead,     // path at a bytes b -> slot          (async)
    Wait,      // slot (holds <= 1 request; empty = no-op)
    WaitAll,   // slot (waits and clears every request)
    Verify,    // path at a bytes b tag c            (no cost)
    Signal,    // name [a tokens]  -- release a rendezvous channel
    Recv,      // name             -- acquire one token (blocks)
    Loop,      // loop name : a { body }
    If,        // if a { body } [else { else_body }]
  };

  Kind kind = Kind::Compute;
  int line = 0;
  std::string name;  // Let/Signal/Recv name, Wait/WaitAll slot, Loop variable
  std::string path;  // file path template ("{rank}" substitutes the rank)
  std::string slot;  // IWrite/IRead destination slot
  std::optional<Expr> a, b, c;
  std::vector<Stmt> body;
  std::vector<Stmt> else_body;
};

/// One phase of a program: `phase name [repeat var : count] { body } [-> next]`.
/// Execution starts at the first declared phase and follows `next` links
/// (empty = the next phase in declaration order); the chain must be acyclic.
struct Phase {
  std::string name;
  int line = 0;
  std::string loop_var;          // empty when no repeat clause
  std::optional<Expr> repeat;
  std::vector<Stmt> body;
  std::string next;              // explicit successor; empty = fall through
};

// --- Scenario header blocks ------------------------------------------------

/// One `world` block and its program. The block's keys parse straight into
/// the simulator's own configs: ranks, seed, jitter and burst_buffer set
/// `config` (whose `name` is the world's name), strategy and tolerance set
/// `tracer`.
struct WorldSpec {
  int line = 0;
  mpisim::WorldConfig config;
  tmio::TracerConfig tracer;
  /// Program body: either flat statements or a phase chain, never both.
  std::vector<Stmt> stmts;
  std::vector<Phase> phases;
};

struct ScenarioSpec {
  std::string name;
  /// The `link` block's keys.
  pfs::LinkConfig link;
  /// The `faults` block's declarations, added by the plan's own builders;
  /// the null plan when the document has no faults.
  fault::FaultPlan faults;
  /// Top-level `let` bindings, prepended to every world's program (evaluated
  /// per rank, in declaration order, with that world's rank/ranks in scope).
  std::vector<Stmt> globals;
  std::vector<WorldSpec> worlds;
};

/// Parse a scenario document. Throws ScenarioError (with line/field info) on
/// malformed input; never crashes. The returned spec is structurally valid:
/// every program matches a world, phase chains are acyclic, wait targets
/// exist, and collectives are not nested under rank-dependent control flow.
ScenarioSpec parseScenario(std::string_view text);

/// Read and parse a scenario file; the filename is reported in diagnostics.
/// With `text`, also hand back the bytes that were parsed (what a
/// checkpoint embeds and a summary digests), so the file is read once.
ScenarioSpec loadScenarioFile(const std::string& path,
                              std::string* text = nullptr);

}  // namespace iobts::scenario
