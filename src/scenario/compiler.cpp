// Scenario compiler: lowers a parsed DSL program onto mpisim::RankCtx.
//
// compileProgram lowers each world's validated program once into a flat
// instruction list, which one coroutine per rank runs over flat per-rank
// arrays (values, Files, request slots, channels). Lowering resolves each
// variable to a value slot by the validator's static scoping (innermost
// scope and latest `let` win; a `let`'s right-hand side resolves before its
// name; every `let` owns a slot, so loop bodies start fresh each iteration),
// decodes operators to an enum, interns paths/slots/channels, lays the phase
// chain out in execution order and turns `loop`, `if` and phase repeats into
// jumps. Interpreting a statement allocates nothing and compares no strings.
//
// The interpreter's arithmetic contract is what makes DSL twins
// bit-identical to hand-written C++ workloads:
//
//   * int op int    -> 64-bit integer, wraparound via unsigned arithmetic
//                      (no UB); `/` truncates like C++; div/mod-by-zero is a
//                      runtime ScenarioError, never a trap.
//   * any double    -> both operands promoted to double, one IEEE op per AST
//                      node. Each node's result round-trips through a Value,
//                      so the evaluator can never fuse mul+add into an FMA --
//                      exactly the non-contracted sequence the hand-written
//                      workloads compile to across statement boundaries.
//   * builtins      -> the same libm/util calls the workloads use
//                      (std::pow, splitmix64), so bit patterns match.
//
// Runtime guards (op budget, positive sizes, finite compute, pending
// requests at program end) throw ScenarioError; the World does not catch
// it, so it surfaces from sim::Simulation::run() with line info intact. The
// op budget charges one op per executed statement (globals and loop/if
// headers included, back-jumps and phase repeats not).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "scenario/instance.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace iobts::scenario {
namespace {

/// Per-rank interpreted statements; a pure termination backstop far above
/// any scenario the generator or the corpus produces (loops are already
/// capped at 1e6 iterations).
constexpr std::uint64_t kOpBudget = 2'000'000;
/// Pending requests one slot may accumulate before waitall.
constexpr std::size_t kMaxSlotRequests = 4096;

[[noreturn]] void fail(int line, const std::string& field,
                       const std::string& message) {
  throw ScenarioError(line, field, message);
}

struct Value {
  bool is_int = true;
  std::int64_t i = 0;
  double d = 0.0;

  static Value ofInt(std::int64_t v) { return Value{true, v, 0.0}; }
  static Value ofDouble(double v) { return Value{false, 0, v}; }
  double asDouble() const {
    return is_int ? static_cast<double>(i) : d;
  }
  bool truthy() const { return is_int ? i != 0 : d != 0.0; }
};

// --- lowered program -------------------------------------------------------

enum class Op : std::uint8_t {
  Lit, Var, Not, Neg, Select, And, Or,
  Eq, Ne, Lt, Le, Gt, Ge, BitAnd, BitOr, BitXor, Shl, Shr, Mod,
  Add, Sub, Mul, Div, Splitmix, Pow, Min, Max, Abs,
};

constexpr std::pair<std::string_view, Op> kOpSpellings[] = {
    {"&&", Op::And}, {"||", Op::Or}, {"==", Op::Eq}, {"!=", Op::Ne},
    {"<", Op::Lt}, {"<=", Op::Le}, {">", Op::Gt}, {">=", Op::Ge},
    {"&", Op::BitAnd}, {"|", Op::BitOr}, {"^", Op::BitXor}, {"<<", Op::Shl},
    {">>", Op::Shr}, {"%", Op::Mod}, {"+", Op::Add}, {"-", Op::Sub},
    {"*", Op::Mul}, {"/", Op::Div}, {"splitmix", Op::Splitmix},
    {"pow", Op::Pow}, {"min", Op::Min}, {"max", Op::Max}, {"abs", Op::Abs}};

/// One expression node: `arg` indexes Program::nodes (for Var, arg[0] is the
/// value slot). `src` is read only by diagnostics (line, operator spelling).
struct Node {
  Op op = Op::Lit;
  std::uint32_t arg[3] = {0, 0, 0};
  Value lit;
  const Expr* src = nullptr;
};

/// Instruction codes. The leaf statements mirror Stmt::Kind so lowering one
/// is a cast; `loop` lowers to Loop + body + Next, `if` to If + body
/// [+ Jump + else body].
enum class Code : std::uint8_t {
  Let, Compute, Barrier, Bcast, Allreduce, Write, Read, IWrite, IRead,
  Wait, WaitAll, Verify, Signal, Recv,
  Loop,  // counter `var` = 0, trip count a -> `var + 1`; to target if zero
  If,    // to target when a is false
  Next,  // ++counter; back to target while below the trip count
  Jump,
};
static_assert(static_cast<int>(Code::If) == static_cast<int>(Stmt::Kind::If));

constexpr std::uint32_t kNone = ~std::uint32_t{0};

struct Insn {
  Code code = Code::Jump;
  bool charged = true;  // false for Next, Jump and phase repeats
  int line = 0;
  std::uint32_t a = kNone, b = kNone, c = kNone;  // expression roots
  std::uint32_t var = 0;     // Let target; Loop/Next counter slot
  std::uint32_t ref = 0;     // path template (I/O, verify) or channel
  std::uint32_t slot = 0;    // request slot (iwrite/iread/wait/waitall)
  std::uint32_t target = 0;  // jump destination
};

struct Program {
  Instance* instance = nullptr;
  const WorldSpec* world = nullptr;
  std::vector<Node> nodes;
  std::vector<Insn> code;
  std::uint32_t values = 2;  // rank, ranks, lets, loop counters, trip counts
  std::vector<std::string> paths, slots, channels;  // interned by index
  std::vector<std::uint32_t> slots_by_name;  // end-of-program check order
};

/// Builds one world's Program; see the header comment for the rules.
class Lowering {
 public:
  Program program;

  Lowering(Instance& instance, const WorldSpec& world) {
    program.instance = &instance;
    program.world = &world;
    // Program-scoped frame: global lets, evaluated per rank in order.
    for (const Stmt& global : instance.spec().globals) stmt(global);
    block(world.stmts);  // empty when the program is a phase chain
    // Validation proved the phase chain acyclic and every phase reachable.
    const auto& phases = world.phases;
    for (auto phase = phases.begin(); phase != phases.end();) {
      if (phase->repeat) {
        loop(phase->loop_var, *phase->repeat, phase->line, phase->body,
             /*charged=*/false);
      } else {
        block(phase->body);
      }
      phase = phase->next.empty()
                  ? phase + 1
                  : std::find_if(phases.begin(), phases.end(),
                                 [&](const Phase& p) {
                                   return p.name == phase->next;
                                 });
    }
    std::vector<std::uint32_t>& order = program.slots_by_name;
    order.resize(program.slots.size());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](auto x, auto y) {
      return program.slots[x] < program.slots[y];
    });
  }

 private:
  std::uint32_t exprNode(const Expr& expr) {
    Node node;
    node.src = &expr;
    switch (expr.kind) {
      case Expr::Kind::IntLit:
        node.lit = Value::ofInt(expr.int_value);
        break;
      case Expr::Kind::FloatLit:
        node.lit = Value::ofDouble(expr.float_value);
        break;
      case Expr::Kind::Var:
        node.op = Op::Var;
        node.arg[0] = lookup(expr);
        break;
      case Expr::Kind::Unary:
        node.op = expr.op == "!" ? Op::Not : Op::Neg;
        break;
      case Expr::Kind::Ternary:
        node.op = Op::Select;
        break;
      case Expr::Kind::Binary:
      case Expr::Kind::Call: {
        const std::string& spelling =
            expr.kind == Expr::Kind::Call ? expr.name : expr.op;
        const auto* hit = std::find_if(
            std::begin(kOpSpellings), std::end(kOpSpellings),
            [&](const auto& entry) { return entry.first == spelling; });
        IOBTS_CHECK(hit != std::end(kOpSpellings) && expr.args.size() <= 2,
                    "validated operator or call");
        node.op = hit->second;
        break;
      }
    }
    for (std::size_t i = 0; i < expr.args.size(); ++i) {
      node.arg[i] = exprNode(expr.args[i]);
    }
    program.nodes.push_back(node);
    return static_cast<std::uint32_t>(program.nodes.size() - 1);
  }

  std::uint32_t lookup(const Expr& expr) const {
    for (auto it = names_.rbegin(); it != names_.rend(); ++it) {
      if (it->first == expr.name) return it->second;
    }
    // Unreachable after static validation; kept as a hard error, not UB.
    fail(expr.line, program.world->config.name,
         "unknown variable '" + expr.name + "'");
  }

  static std::uint32_t intern(std::vector<std::string>& table,
                              const std::string& name) {
    auto it = std::find(table.begin(), table.end(), name);
    if (it == table.end()) it = table.insert(it, name);
    return static_cast<std::uint32_t>(it - table.begin());
  }

  std::uint32_t here() const {
    return static_cast<std::uint32_t>(program.code.size());
  }
  std::uint32_t emit(const Insn& insn) {
    program.code.push_back(insn);
    return here() - 1;
  }

  void block(const std::vector<Stmt>& stmts) {
    const std::size_t scope = names_.size();
    for (const Stmt& s : stmts) stmt(s);
    names_.resize(scope);
  }

  void loop(const std::string& var, const Expr& count, int line,
            const std::vector<Stmt>& body, bool charged) {
    // The count resolves before the loop variable is in scope.
    const Insn head{.code = Code::Loop, .charged = charged, .line = line,
                    .a = exprNode(count), .var = program.values};
    program.values += 2;  // counter, trip count
    const std::uint32_t at = emit(head);
    names_.emplace_back(var, head.var);
    block(body);
    names_.pop_back();
    emit({.code = Code::Next, .charged = false, .var = head.var,
          .target = at + 1});
    program.code[at].target = here();
  }

  void stmt(const Stmt& s) {
    Insn insn{.code = static_cast<Code>(s.kind), .line = s.line};
    if (s.kind == Stmt::Kind::Loop) {
      loop(s.name, *s.a, s.line, s.body, /*charged=*/true);
      return;
    }
    if (s.a) insn.a = exprNode(*s.a);
    if (s.b) insn.b = exprNode(*s.b);
    if (s.c) insn.c = exprNode(*s.c);
    switch (s.kind) {
      case Stmt::Kind::Let:
        insn.var = program.values++;
        names_.emplace_back(s.name, insn.var);
        break;
      case Stmt::Kind::IWrite:
      case Stmt::Kind::IRead:
        insn.slot = intern(program.slots, s.slot);
        [[fallthrough]];
      case Stmt::Kind::Write:
      case Stmt::Kind::Read:
      case Stmt::Kind::Verify:
        insn.ref = intern(program.paths, s.path);
        break;
      case Stmt::Kind::Wait:
      case Stmt::Kind::WaitAll:
        insn.slot = intern(program.slots, s.name);
        break;
      case Stmt::Kind::Signal:
      case Stmt::Kind::Recv:
        insn.ref = intern(program.channels, s.name);
        break;
      case Stmt::Kind::If: {
        const std::uint32_t branch = emit(insn);
        block(s.body);
        const std::uint32_t jump = emit({.code = Code::Jump, .charged = false});
        program.code[branch].target = here();
        block(s.else_body);
        program.code[jump].target = here();
        return;
      }
      default:
        break;
    }
    emit(insn);
  }

  /// Names in scope, innermost last; a scope is a suffix of this list.
  /// `rank` and `ranks` are reserved words, so nothing shadows them.
  std::vector<std::pair<std::string_view, std::uint32_t>> names_ = {
      {"rank", 0}, {"ranks", 1}};
};

struct RankEnv {
  RankEnv(const Program& lowered, mpisim::RankCtx& rank_ctx)
      : program(&lowered), ctx(&rank_ctx), values(lowered.values),
        files(lowered.paths.size()), slots(lowered.slots.size()),
        channels(lowered.channels.size(), nullptr) {
    values[0] = Value::ofInt(rank_ctx.rank());
    values[1] = Value::ofInt(rank_ctx.size());
  }

  const Program* program;
  mpisim::RankCtx* ctx;
  std::vector<Value> values;
  std::vector<std::optional<mpisim::File>> files;   // by path template
  std::vector<std::vector<mpisim::Request>> slots;  // by request slot
  std::vector<sim::Semaphore*> channels;            // by channel
  std::uint64_t ops = 0;

  const std::string& worldName() const { return program->world->config.name; }
};

// --- expression evaluation -------------------------------------------------

std::uint64_t u64(std::int64_t v) { return static_cast<std::uint64_t>(v); }
std::int64_t i64(std::uint64_t v) { return static_cast<std::int64_t>(v); }

std::int64_t intOperand(const Expr& parent, const Value& v,
                        const RankEnv& env) {
  if (!v.is_int) {
    fail(parent.line, env.worldName(),
         "operator '" + parent.op + "' requires integer operands");
  }
  return v.i;
}

/// Every operator and builtin with two eagerly evaluated operands.
Value evalBinary(const Node& node, const Value& a, const Value& b,
                 const RankEnv& env) {
  const Expr& expr = *node.src;
  const bool ints = a.is_int && b.is_int;
  const double x = a.asDouble(), y = b.asDouble();
  switch (node.op) {
    case Op::Eq: return Value::ofInt(ints ? a.i == b.i : x == y);
    case Op::Ne: return Value::ofInt(ints ? a.i != b.i : x != y);
    case Op::Lt: return Value::ofInt(ints ? a.i < b.i : x < y);
    case Op::Le: return Value::ofInt(ints ? a.i <= b.i : x <= y);
    case Op::Gt: return Value::ofInt(ints ? a.i > b.i : x > y);
    case Op::Ge: return Value::ofInt(ints ? a.i >= b.i : x >= y);
    case Op::Add:
      return ints ? Value::ofInt(i64(u64(a.i) + u64(b.i)))
                  : Value::ofDouble(x + y);
    case Op::Sub:
      return ints ? Value::ofInt(i64(u64(a.i) - u64(b.i)))
                  : Value::ofDouble(x - y);
    case Op::Mul:
      return ints ? Value::ofInt(i64(u64(a.i) * u64(b.i)))
                  : Value::ofDouble(x * y);
    case Op::Div:
      if (!ints) return Value::ofDouble(x / y);  // inf/nan caught at use
      if (b.i == 0) {
        fail(expr.line, env.worldName(), "division by zero");
      }
      if (a.i == std::numeric_limits<std::int64_t>::min() && b.i == -1) {
        return a;  // wraps to itself, like the unsigned negate
      }
      return Value::ofInt(a.i / b.i);
    case Op::Pow:
      return Value::ofDouble(std::pow(x, y));
    case Op::Min:
      return ints ? Value::ofInt(std::min(a.i, b.i))
                  : Value::ofDouble(std::min(x, y));
    case Op::Max:
      return ints ? Value::ofInt(std::max(a.i, b.i))
                  : Value::ofDouble(std::max(x, y));
    default:
      break;
  }

  // Bit operations, shifts and `%` are int-only.
  const std::int64_t p = intOperand(expr, a, env);
  const std::int64_t q = intOperand(expr, b, env);
  if (node.op == Op::BitAnd) return Value::ofInt(i64(u64(p) & u64(q)));
  if (node.op == Op::BitOr) return Value::ofInt(i64(u64(p) | u64(q)));
  if (node.op == Op::BitXor) return Value::ofInt(i64(u64(p) ^ u64(q)));
  if (node.op == Op::Shl || node.op == Op::Shr) {
    if (q < 0 || q > 63) {
      fail(expr.line, env.worldName(),
           "shift amount must lie in [0, 63], got " + std::to_string(q));
    }
    // Both shifts are logical over the 64-bit pattern (defined for any
    // operand; tags and hashes want the raw bits).
    return Value::ofInt(node.op == Op::Shl ? i64(u64(p) << q)
                                           : i64(u64(p) >> q));
  }
  // Op::Mod
  if (q == 0) {
    fail(expr.line, env.worldName(), "modulo by zero");
  }
  if (p == std::numeric_limits<std::int64_t>::min() && q == -1) {
    return Value::ofInt(0);
  }
  return Value::ofInt(p % q);
}

Value evalExpr(std::uint32_t index, RankEnv& env) {
  const Node& node = env.program->nodes[index];
  switch (node.op) {
    case Op::Lit:
      return node.lit;
    case Op::Var:
      return env.values[node.arg[0]];
    case Op::Not:
      return Value::ofInt(evalExpr(node.arg[0], env).truthy() ? 0 : 1);
    case Op::Neg: {
      const Value v = evalExpr(node.arg[0], env);
      if (v.is_int) return Value::ofInt(i64(0u - u64(v.i)));
      return Value::ofDouble(-v.d);
    }
    case Op::Select:
      return evalExpr(node.arg[0], env).truthy() ? evalExpr(node.arg[1], env)
                                                 : evalExpr(node.arg[2], env);
    // Short-circuit logic: the untaken side is never evaluated, so a
    // guarded division like `n != 0 && total / n > 1` is safe.
    case Op::And:
      return Value::ofInt(evalExpr(node.arg[0], env).truthy() &&
                                  evalExpr(node.arg[1], env).truthy()
                              ? 1
                              : 0);
    case Op::Or:
      return Value::ofInt(evalExpr(node.arg[0], env).truthy() ||
                                  evalExpr(node.arg[1], env).truthy()
                              ? 1
                              : 0);
    case Op::Splitmix: {
      const Value v = evalExpr(node.arg[0], env);
      if (!v.is_int) {
        fail(node.src->line, env.worldName(), "splitmix takes an integer");
      }
      std::uint64_t state = u64(v.i);
      return Value::ofInt(i64(splitmix64(state)));
    }
    case Op::Abs: {
      const Value v = evalExpr(node.arg[0], env);
      if (v.is_int) {
        return Value::ofInt(v.i < 0 ? i64(0u - u64(v.i)) : v.i);
      }
      return Value::ofDouble(std::fabs(v.d));
    }
    default: {
      // Sequenced so the left operand and its errors always come first.
      const Value a = evalExpr(node.arg[0], env);
      const Value b = evalExpr(node.arg[1], env);
      return evalBinary(node, a, b, env);
    }
  }
}

// --- conversions at use sites ----------------------------------------------

Seconds asSeconds(const Value& v, int line, const RankEnv& env,
                  const char* noun) {
  const double s = v.asDouble();
  if (!std::isfinite(s) || s < 0.0) {
    fail(line, env.worldName(),
         std::string(noun) + " must be finite and non-negative, got " +
             std::to_string(s));
  }
  return s;
}

Bytes asByteValue(const Value& v, int line, const RankEnv& env,
                  const char* noun, bool require_positive) {
  std::int64_t raw;
  if (v.is_int) {
    raw = v.i;
  } else {
    if (!std::isfinite(v.d) || v.d != std::floor(v.d) ||
        std::fabs(v.d) > 9.0e18) {
      fail(line, env.worldName(),
           std::string(noun) + " must be a whole number of bytes, got " +
               std::to_string(v.d));
    }
    raw = static_cast<std::int64_t>(v.d);
  }
  if (raw < 0 || (require_positive && raw == 0)) {
    fail(line, env.worldName(),
         std::string(noun) + " must be " +
             (require_positive ? "positive" : "non-negative") + ", got " +
             std::to_string(raw));
  }
  return static_cast<Bytes>(raw);
}

pfs::ContentTag asTag(const Value& v, int line, const RankEnv& env) {
  if (!v.is_int) {
    fail(line, env.worldName(), "tag must be an integer");
  }
  return u64(v.i);
}

std::int64_t asLoopCount(const Value& v, int line, const RankEnv& env) {
  if (!v.is_int) {
    fail(line, env.worldName(), "loop count must be an integer");
  }
  if (v.i < 0 || v.i > 1'000'000) {
    fail(line, env.worldName(),
         "loop count must lie in [0, 1000000], got " + std::to_string(v.i));
  }
  return v.i;
}

// --- statement execution ---------------------------------------------------

std::string substitutePath(const std::string& path, int rank) {
  const std::string token = "{rank}";
  std::string out;
  out.reserve(path.size());
  std::size_t pos = 0;
  for (;;) {
    const std::size_t hit = path.find(token, pos);
    if (hit == std::string::npos) {
      out.append(path, pos, std::string::npos);
      return out;
    }
    out.append(path, pos, hit - pos);
    out += std::to_string(rank);
    pos = hit + token.size();
  }
}

mpisim::File& fileFor(RankEnv& env, std::uint32_t path) {
  std::optional<mpisim::File>& file = env.files[path];
  if (!file) {
    file = env.ctx->open(
        substitutePath(env.program->paths[path], env.ctx->rank()));
  }
  return *file;
}

sim::Semaphore& channelFor(RankEnv& env, std::uint32_t channel) {
  sim::Semaphore*& semaphore = env.channels[channel];
  if (semaphore == nullptr) {
    semaphore = &env.program->instance->channel(
        env.program->channels[channel], env.ctx->rank());
  }
  return *semaphore;
}

std::vector<mpisim::Request>& requestSlot(RankEnv& env, const Insn& insn) {
  std::vector<mpisim::Request>& slot = env.slots[insn.slot];
  if (slot.size() >= kMaxSlotRequests) {
    fail(insn.line, env.worldName(),
         "slot '" + env.program->slots[insn.slot] + "' accumulated more than " +
             std::to_string(kMaxSlotRequests) + " pending requests");
  }
  return slot;
}

void chargeOp(RankEnv& env) {
  ++env.ops;
  ++env.program->instance->stats().ops;
  if (env.ops > kOpBudget) {
    fail(0, env.worldName(),
         "rank " + std::to_string(env.ctx->rank()) + " exceeded the " +
             std::to_string(kOpBudget) + "-statement budget (runaway loop?)");
  }
}

sim::Task<void> runProgram(const Program& program, mpisim::RankCtx& ctx) {
  RankEnv env(program, ctx);
  RunStats& stats = program.instance->stats();

  for (std::size_t pc = 0; pc < program.code.size();) {
    const Insn& insn = program.code[pc++];
    if (insn.charged) chargeOp(env);
    const sim::Time before = ctx.now();
    switch (insn.code) {
      case Code::Let:
        env.values[insn.var] = evalExpr(insn.a, env);
        break;
      case Code::Compute:
        co_await ctx.compute(asSeconds(evalExpr(insn.a, env), insn.line, env,
                                       "compute duration"));
        break;
      case Code::Barrier:
        ++stats.collectives;
        co_await ctx.barrier();
        break;
      case Code::Bcast:
      case Code::Allreduce: {
        const Bytes bytes = asByteValue(evalExpr(insn.a, env), insn.line, env,
                                        "collective payload",
                                        /*require_positive=*/true);
        ++stats.collectives;
        if (insn.code == Code::Bcast) {
          co_await ctx.bcast(bytes);
        } else {
          co_await ctx.allreduce(bytes);
        }
        break;
      }
      case Code::Write:
      case Code::Read:
      case Code::IWrite:
      case Code::IRead:
      case Code::Verify: {
        mpisim::File& file = fileFor(env, insn.ref);
        const Bytes offset = asByteValue(evalExpr(insn.a, env), insn.line,
                                         env, "file offset",
                                         /*require_positive=*/false);
        const Bytes len = asByteValue(evalExpr(insn.b, env), insn.line, env,
                                      "byte count", /*require_positive=*/true);
        if (insn.code == Code::Verify) {  // no I/O, no cost
          const pfs::ContentTag tag =
              asTag(evalExpr(insn.c, env), insn.line, env);
          ++(file.verify(offset, len, tag) ? stats.verified
                                           : stats.verify_failures);
          break;
        }
        ++stats.io_submitted;
        if (insn.code == Code::Write || insn.code == Code::IWrite) {
          stats.write_bytes_requested += len;
          const pfs::ContentTag tag =
              insn.c != kNone ? asTag(evalExpr(insn.c, env), insn.line, env)
                              : 0;
          if (insn.code == Code::Write) {
            co_await file.writeAt(offset, len, tag);
          } else {
            requestSlot(env, insn).push_back(
                co_await file.iwriteAt(offset, len, tag));
          }
        } else {
          stats.read_bytes_requested += len;
          if (insn.code == Code::Read) {
            co_await file.readAt(offset, len);
          } else {
            requestSlot(env, insn).push_back(
                co_await file.ireadAt(offset, len));
          }
        }
        break;
      }
      case Code::Wait:
      case Code::WaitAll: {
        std::vector<mpisim::Request>& slot = env.slots[insn.slot];
        if (slot.empty()) break;  // like `if (req.valid()) wait(req)`
        if (insn.code == Code::WaitAll) {
          co_await ctx.waitAll(std::span<mpisim::Request>(slot));
        } else if (slot.size() > 1) {
          fail(insn.line, env.worldName(),
               "slot '" + program.slots[insn.slot] + "' holds " +
                   std::to_string(slot.size()) +
                   " pending requests; use waitall");
        } else {
          co_await ctx.wait(slot.front());
        }
        for (const mpisim::Request& request : slot) {
          if (request.failed()) ++stats.failed_requests;
        }
        slot.clear();
        break;
      }
      case Code::Signal: {
        std::int64_t count = 1;
        if (insn.a != kNone) {
          const Value v = evalExpr(insn.a, env);
          if (!v.is_int || v.i <= 0 || v.i > 1'000'000) {
            fail(insn.line, env.worldName(),
                 "signal count must be a positive integer");
          }
          count = v.i;
        }
        channelFor(env, insn.ref).release(static_cast<std::size_t>(count));
        stats.signals += static_cast<std::uint64_t>(count);
        break;
      }
      case Code::Recv:
        co_await ctx.recv(channelFor(env, insn.ref));
        ++stats.recvs;
        break;
      case Code::Loop:
        env.values[insn.var + 1] =
            Value::ofInt(asLoopCount(evalExpr(insn.a, env), insn.line, env));
        env.values[insn.var] = Value::ofInt(0);
        if (env.values[insn.var + 1].i == 0) pc = insn.target;
        break;
      case Code::Next:
        if (++env.values[insn.var].i < env.values[insn.var + 1].i) {
          pc = insn.target;
        }
        break;
      case Code::If:
        if (!evalExpr(insn.a, env).truthy()) pc = insn.target;
        break;
      case Code::Jump:
        pc = insn.target;
        break;
    }
    if (ctx.now() < before) stats.time_monotone = false;
  }

  for (const std::uint32_t slot : program.slots_by_name) {
    if (!env.slots[slot].empty()) {
      fail(0, env.worldName(),
           "rank " + std::to_string(ctx.rank()) + " ended with " +
               std::to_string(env.slots[slot].size()) +
               " unwaited request(s) in slot '" + program.slots[slot] + "'");
    }
  }
}

}  // namespace

mpisim::World::RankProgram compileProgram(Instance& instance,
                                          const WorldSpec& world) {
  // Lowered once per world; every rank's coroutine shares it.
  auto program = std::make_shared<const Program>(
      std::move(Lowering(instance, world).program));
  return [program](mpisim::RankCtx& ctx) -> sim::Task<void> {
    return runProgram(*program, ctx);
  };
}

}  // namespace iobts::scenario
