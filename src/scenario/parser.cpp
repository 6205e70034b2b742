// Scenario DSL lexer, recursive-descent parser, and static validation.
//
// Everything user-facing throws ScenarioError with the source line and the
// field/construct involved; no malformed input may crash or UB (the
// error-path suite runs this under ASan/UBSan). Integer arithmetic on
// literals goes through unsigned helpers so overflow is defined and
// detected, never UB.
#include "scenario/scenario.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace iobts::scenario {
namespace {

constexpr int kMaxBlockDepth = 32;
constexpr int kMaxExprDepth = 64;
constexpr std::int64_t kMaxLoopCount = 1'000'000;
constexpr int kMaxRanks = 4096;

[[noreturn]] void fail(int line, const std::string& field,
                       const std::string& message) {
  throw ScenarioError(line, field, message);
}

// --- Lexer -----------------------------------------------------------------

struct Token {
  enum class Kind { End, Ident, String, Int, Float, Punct };
  Kind kind = Kind::End;
  int line = 0;
  std::string text;          // Ident name / String value / Punct spelling
  std::int64_t int_value = 0;
  double float_value = 0.0;
};

bool identStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool identChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

std::string lowercase(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

/// Byte-unit multiplier for a literal suffix ("KiB", "GB", ...); 0 = unknown.
Bytes unitMultiplier(const std::string& suffix) {
  const std::string s = lowercase(suffix);
  if (s == "b") return 1;
  if (s == "kb") return kKB;
  if (s == "mb") return kMB;
  if (s == "gb") return kGB;
  if (s == "tb") return kTB;
  if (s == "kib") return kKiB;
  if (s == "mib") return kMiB;
  if (s == "gib") return kGiB;
  return 0;
}

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  std::vector<Token> run() {
    std::vector<Token> out;
    for (;;) {
      skipSpace();
      if (pos_ >= text_.size()) break;
      const char c = text_[pos_];
      if (identStart(c)) {
        out.push_back(lexIdent());
      } else if (std::isdigit(static_cast<unsigned char>(c))) {
        out.push_back(lexNumber());
      } else if (c == '"') {
        out.push_back(lexString());
      } else {
        out.push_back(lexPunct());
      }
    }
    out.push_back(Token{Token::Kind::End, line_, "<end of input>", 0, 0.0});
    return out;
  }

 private:
  void skipSpace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
      } else if (c == ' ' || c == '\t' || c == '\r') {
        ++pos_;
      } else if (c == '#') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  Token lexIdent() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() && identChar(text_[pos_])) ++pos_;
    return Token{Token::Kind::Ident, line_,
                 std::string(text_.substr(start, pos_ - start)), 0, 0.0};
  }

  Token lexString() {
    const int line = line_;
    ++pos_;  // opening quote
    std::string value;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\n') fail(line, "string", "unterminated string");
      value += text_[pos_++];
    }
    if (pos_ >= text_.size()) fail(line, "string", "unterminated string");
    ++pos_;  // closing quote
    return Token{Token::Kind::String, line, std::move(value), 0, 0.0};
  }

  Token lexNumber() {
    const int line = line_;
    const std::size_t start = pos_;

    if (text_[pos_] == '0' && pos_ + 1 < text_.size() &&
        (text_[pos_ + 1] == 'x' || text_[pos_ + 1] == 'X')) {
      pos_ += 2;
      std::uint64_t value = 0;
      std::size_t digits = 0;
      while (pos_ < text_.size() &&
             std::isxdigit(static_cast<unsigned char>(text_[pos_]))) {
        if (value > (std::numeric_limits<std::uint64_t>::max() >> 4)) {
          fail(line, "number", "hex literal overflows 64 bits");
        }
        const char c = text_[pos_++];
        const std::uint64_t d =
            std::isdigit(static_cast<unsigned char>(c))
                ? static_cast<std::uint64_t>(c - '0')
                : static_cast<std::uint64_t>(std::tolower(c) - 'a' + 10);
        value = (value << 4) | d;
        ++digits;
      }
      if (digits == 0) fail(line, "number", "hex literal needs digits");
      Token tok{Token::Kind::Int, line, "", 0, 0.0};
      tok.int_value = static_cast<std::int64_t>(value);
      return tok;
    }

    bool is_float = false;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      is_float = true;
      ++pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      // Only an exponent when followed by [+-]?digit; otherwise it is a unit
      // or identifier suffix handled below.
      std::size_t probe = pos_ + 1;
      if (probe < text_.size() && (text_[probe] == '+' || text_[probe] == '-'))
        ++probe;
      if (probe < text_.size() &&
          std::isdigit(static_cast<unsigned char>(text_[probe]))) {
        is_float = true;
        pos_ = probe;
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
          ++pos_;
        }
      }
    }
    const std::string digits(text_.substr(start, pos_ - start));

    // Attached unit suffix: "4MiB", "64KB", "2.5GB".
    std::string suffix;
    while (pos_ < text_.size() &&
           std::isalpha(static_cast<unsigned char>(text_[pos_]))) {
      suffix += text_[pos_++];
    }

    Token tok{Token::Kind::Int, line, "", 0, 0.0};
    if (is_float) {
      tok.kind = Token::Kind::Float;
      tok.float_value = std::strtod(digits.c_str(), nullptr);
    } else {
      errno = 0;
      const unsigned long long v = std::strtoull(digits.c_str(), nullptr, 10);
      if (errno != 0 ||
          v > static_cast<unsigned long long>(
                  std::numeric_limits<std::int64_t>::max())) {
        fail(line, "number", "integer literal '" + digits +
                                 "' overflows 63 bits");
      }
      tok.int_value = static_cast<std::int64_t>(v);
    }

    if (!suffix.empty()) {
      const Bytes mult = unitMultiplier(suffix);
      if (mult == 0) {
        fail(line, "number",
             "unknown unit suffix '" + suffix +
                 "' (expected B, KB, MB, GB, TB, KiB, MiB or GiB)");
      }
      if (tok.kind == Token::Kind::Float) {
        const double scaled = tok.float_value * static_cast<double>(mult);
        if (!(scaled >= 0.0) || scaled > 9.0e18 ||
            scaled != std::floor(scaled)) {
          fail(line, "number",
               "'" + digits + suffix + "' is not a whole number of bytes");
        }
        tok.kind = Token::Kind::Int;
        tok.int_value = static_cast<std::int64_t>(scaled);
        tok.float_value = 0.0;
      } else {
        const std::uint64_t base = static_cast<std::uint64_t>(tok.int_value);
        if (base != 0 &&
            base > std::numeric_limits<std::uint64_t>::max() / mult) {
          fail(line, "number",
               "'" + digits + suffix + "' overflows a byte count");
        }
        const std::uint64_t scaled = base * mult;
        if (scaled > static_cast<std::uint64_t>(
                         std::numeric_limits<std::int64_t>::max())) {
          fail(line, "number",
               "'" + digits + suffix + "' overflows a byte count");
        }
        tok.int_value = static_cast<std::int64_t>(scaled);
      }
    }
    return tok;
  }

  Token lexPunct() {
    const int line = line_;
    const char c = text_[pos_];
    const char n = pos_ + 1 < text_.size() ? text_[pos_ + 1] : '\0';
    auto two = [&](const char* spelling) {
      pos_ += 2;
      return Token{Token::Kind::Punct, line, spelling, 0, 0.0};
    };
    auto one = [&](char spelling) {
      ++pos_;
      return Token{Token::Kind::Punct, line, std::string(1, spelling), 0, 0.0};
    };
    switch (c) {
      case '-':
        if (n == '>') return two("->");
        return one('-');
      case '<':
        if (n == '=') return two("<=");
        if (n == '<') return two("<<");
        return one('<');
      case '>':
        if (n == '=') return two(">=");
        if (n == '>') return two(">>");
        return one('>');
      case '=':
        if (n == '=') return two("==");
        return one('=');
      case '!':
        if (n == '=') return two("!=");
        return one('!');
      case '&':
        if (n == '&') return two("&&");
        return one('&');
      case '|':
        if (n == '|') return two("||");
        return one('|');
      case '{':
      case '}':
      case '(':
      case ')':
      case ':':
      case ',':
      case '?':
      case '+':
      case '*':
      case '/':
      case '%':
      case '^':
        return one(c);
      default:
        fail(line, "lexer",
             std::string("unexpected character '") + c + "'");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int line_ = 1;
};

// --- Parser ----------------------------------------------------------------

const std::set<std::string>& reservedWords() {
  static const std::set<std::string> words = {
      "let",     "compute", "barrier", "bcast",   "allreduce", "write",
      "read",    "iwrite",  "iread",   "wait",    "waitall",   "verify",
      "signal",  "recv",    "loop",    "if",      "else",      "phase",
      "repeat",  "file",    "at",      "bytes",   "tag",       "from",
      "to",      "world",   "program", "scenario", "link",     "faults",
      "rank",    "ranks"};
  return words;
}

class Parser {
 public:
  explicit Parser(std::string_view text) : tokens_(Lexer(text).run()) {}

  ScenarioSpec parse() {
    ScenarioSpec spec;
    expectKeyword("scenario", "every scenario starts with: scenario \"name\"");
    spec.name = expectString("scenario name");
    if (spec.name.empty()) fail(prev().line, "scenario", "empty scenario name");

    bool saw_link = false, saw_faults = false;
    while (peek().kind != Token::Kind::End) {
      const Token& t = peek();
      if (t.kind != Token::Kind::Ident) {
        fail(t.line, "top-level",
             "expected link/faults/let/world/program, got '" + t.text + "'");
      }
      if (t.text == "link") {
        if (saw_link) fail(t.line, "link", "duplicate link block");
        saw_link = true;
        advance();
        parseLinkBlock(spec.link);
      } else if (t.text == "faults") {
        if (saw_faults) fail(t.line, "faults", "duplicate faults block");
        saw_faults = true;
        advance();
        spec.faults = parseFaultsBlock();
      } else if (t.text == "let") {
        spec.globals.push_back(parseLet());
      } else if (t.text == "world") {
        advance();
        parseWorld(spec);
      } else if (t.text == "program") {
        advance();
        parseProgram();
      } else {
        fail(t.line, "top-level",
             "unknown top-level directive '" + t.text +
                 "' (expected link, faults, let, world or program)");
      }
    }

    attachPrograms(spec);
    return spec;
  }

 private:
  // --- token plumbing ---
  const Token& peek() const { return tokens_[pos_]; }
  const Token& prev() const { return tokens_[pos_ == 0 ? 0 : pos_ - 1]; }
  const Token& advance() { return tokens_[pos_++]; }

  bool isPunct(const char* p) const {
    return peek().kind == Token::Kind::Punct && peek().text == p;
  }
  bool acceptPunct(const char* p) {
    if (!isPunct(p)) return false;
    advance();
    return true;
  }
  void expectPunct(const char* p, const std::string& context) {
    if (!acceptPunct(p)) {
      fail(peek().line, context,
           std::string("expected '") + p + "', got '" + peek().text + "'");
    }
  }
  bool isIdent(const char* word) const {
    return peek().kind == Token::Kind::Ident && peek().text == word;
  }
  bool acceptIdent(const char* word) {
    if (!isIdent(word)) return false;
    advance();
    return true;
  }
  void expectKeyword(const char* word, const std::string& diagnostic) {
    if (!acceptIdent(word)) fail(peek().line, word, diagnostic);
  }
  std::string expectIdentAny(const std::string& what) {
    if (peek().kind != Token::Kind::Ident) {
      fail(peek().line, what, "expected a name, got '" + peek().text + "'");
    }
    return advance().text;
  }
  std::string expectName(const std::string& what) {
    const int line = peek().line;
    std::string name = expectIdentAny(what);
    if (reservedWords().count(name) != 0) {
      fail(line, what, "'" + name + "' is a reserved word");
    }
    return name;
  }
  std::string expectString(const std::string& what) {
    if (peek().kind != Token::Kind::String) {
      fail(peek().line, what,
           "expected a quoted string, got '" + peek().text + "'");
    }
    return advance().text;
  }
  double expectNumber(const std::string& what) {
    if (peek().kind == Token::Kind::Int) {
      return static_cast<double>(advance().int_value);
    }
    if (peek().kind == Token::Kind::Float) return advance().float_value;
    fail(peek().line, what, "expected a number, got '" + peek().text + "'");
  }
  std::int64_t expectInt(const std::string& what) {
    if (peek().kind != Token::Kind::Int) {
      fail(peek().line, what, "expected an integer, got '" + peek().text + "'");
    }
    return advance().int_value;
  }

  // --- header blocks ---
  void parseLinkBlock(LinkSpec& link) {
    expectPunct("{", "link");
    while (!acceptPunct("}")) {
      const int line = peek().line;
      const std::string key = expectIdentAny("link key");
      expectPunct("=", "link." + key);
      if (key == "write") {
        link.write_capacity = expectNumber(key);
      } else if (key == "read") {
        link.read_capacity = expectNumber(key);
      } else if (key == "client_cap") {
        link.client_rate_cap = expectNumber(key);
      } else if (key == "congestion") {
        link.congestion_gamma = expectNumber(key);
      } else if (key == "noise") {
        link.noise_sigma = expectNumber(key);
      } else if (key == "noise_ref") {
        link.noise_reference_rate = expectNumber(key);
      } else if (key == "quantum") {
        link.recompute_quantum = expectNumber(key);
      } else if (key == "seed") {
        link.seed = static_cast<std::uint64_t>(expectInt(key));
      } else {
        fail(line, "link",
             "unknown key '" + key +
                 "' in link block (expected write, read, client_cap, "
                 "congestion, noise, noise_ref, quantum or seed)");
      }
    }
  }

  std::optional<pfs::Channel> parseFaultChannel(const std::string& what,
                                                bool allow_any) {
    const int line = peek().line;
    const std::string word = expectIdentAny(what);
    if (word == "write") return pfs::Channel::Write;
    if (word == "read") return pfs::Channel::Read;
    if (allow_any && word == "any") return std::nullopt;
    fail(line, what,
         "expected write or read" + std::string(allow_any ? " or any" : "") +
             ", got '" + word + "'");
  }

  void parseWindow(FaultDecl& decl, const std::string& what) {
    expectKeyword("from", "expected 'from <t>' in " + what);
    decl.begin = expectNumber(what + ".from");
    expectKeyword("to", "expected 'to <t>' in " + what);
    decl.end = expectNumber(what + ".to");
  }

  FaultSpec parseFaultsBlock() {
    FaultSpec faults;
    expectPunct("{", "faults");
    while (!acceptPunct("}")) {
      const int line = peek().line;
      const std::string word = expectIdentAny("faults");
      if (word == "seed") {
        expectPunct("=", "faults.seed");
        faults.seed = static_cast<std::uint64_t>(expectInt("faults.seed"));
        continue;
      }
      FaultDecl decl;
      decl.line = line;
      if (word == "degrade") {
        decl.kind = FaultDecl::Kind::Degrade;
        decl.channel = parseFaultChannel("degrade", /*allow_any=*/false);
        decl.value = expectNumber("degrade.factor");
        parseWindow(decl, "degrade");
      } else if (word == "blackout") {
        decl.kind = FaultDecl::Kind::Blackout;
        parseWindow(decl, "blackout");
      } else if (word == "transfer_fault") {
        decl.kind = FaultDecl::Kind::TransferFault;
        decl.channel = parseFaultChannel("transfer_fault", /*allow_any=*/true);
        decl.value = expectNumber("transfer_fault.probability");
        parseWindow(decl, "transfer_fault");
      } else if (word == "outage") {
        decl.kind = FaultDecl::Kind::Outage;
        decl.value = expectNumber("outage.fraction");
        parseWindow(decl, "outage");
      } else {
        fail(line, "faults",
             "unknown fault declaration '" + word +
                 "' (expected seed, degrade, blackout, outage or "
                 "transfer_fault)");
      }
      faults.decls.push_back(std::move(decl));
    }
    return faults;
  }

  void parseWorld(ScenarioSpec& spec) {
    WorldSpec world;
    world.line = peek().line;
    world.name = expectName("world name");
    expectPunct("{", "world " + world.name);
    while (!acceptPunct("}")) {
      const int line = peek().line;
      const std::string key = expectIdentAny("world key");
      expectPunct("=", "world." + key);
      if (key == "ranks") {
        world.ranks = static_cast<int>(expectInt(key));
      } else if (key == "seed") {
        world.seed = static_cast<std::uint64_t>(expectInt(key));
      } else if (key == "jitter") {
        world.jitter = expectNumber(key);
      } else if (key == "strategy") {
        world.strategy = expectString(key);
      } else if (key == "tolerance") {
        world.tolerance = expectNumber(key);
      } else {
        fail(line, "world " + world.name,
             "unknown key '" + key +
                 "' in world block (expected ranks, seed, jitter, strategy "
                 "or tolerance)");
      }
    }
    spec.worlds.push_back(std::move(world));
  }

  void parseProgram() {
    const int line = peek().line;
    std::string name = expectName("program name");
    if (programs_.count(name) != 0) {
      fail(line, "program " + name, "duplicate program for world");
    }
    Program prog;
    prog.line = line;
    expectPunct("{", "program " + name);
    if (isIdent("phase")) {
      while (!acceptPunct("}")) {
        if (!isIdent("phase")) {
          fail(peek().line, "program " + name,
               "a phased program may only contain phases, got '" +
                   peek().text + "'");
        }
        prog.phases.push_back(parsePhase());
      }
      if (prog.phases.empty()) {
        fail(line, "program " + name, "program has no phases");
      }
    } else {
      prog.stmts = parseBlockBody("program " + name, 0);
    }
    programs_.emplace(std::move(name), std::move(prog));
  }

  Phase parsePhase() {
    Phase phase;
    phase.line = peek().line;
    advance();  // 'phase'
    phase.name = expectName("phase name");
    if (acceptIdent("repeat")) {
      phase.loop_var = expectName("phase " + phase.name + " repeat variable");
      expectPunct(":", "phase " + phase.name + " repeat");
      phase.repeat = parseExpr(0);
    }
    expectPunct("{", "phase " + phase.name);
    phase.body = parseBlockBody("phase " + phase.name, 0);
    if (acceptPunct("->")) {
      phase.next = expectName("phase " + phase.name + " successor");
    }
    return phase;
  }

  // Parses statements up to and including the closing '}'.
  std::vector<Stmt> parseBlockBody(const std::string& context, int depth) {
    if (depth > kMaxBlockDepth) {
      fail(peek().line, context, "blocks nested too deeply");
    }
    std::vector<Stmt> body;
    while (!acceptPunct("}")) {
      if (peek().kind == Token::Kind::End) {
        fail(peek().line, context, "unterminated block (missing '}')");
      }
      body.push_back(parseStmt(depth));
    }
    return body;
  }

  Stmt parseLet() {
    Stmt stmt;
    stmt.kind = Stmt::Kind::Let;
    stmt.line = peek().line;
    advance();  // 'let'
    stmt.name = expectName("let");
    expectPunct("=", "let " + stmt.name);
    stmt.a = parseExpr(0);
    return stmt;
  }

  Stmt parseStmt(int depth) {
    const Token& t = peek();
    if (t.kind != Token::Kind::Ident) {
      fail(t.line, "statement", "expected a statement, got '" + t.text + "'");
    }
    Stmt stmt;
    stmt.line = t.line;
    const std::string& word = t.text;

    if (word == "let") return parseLet();
    if (word == "compute") {
      advance();
      stmt.kind = Stmt::Kind::Compute;
      stmt.a = parseExpr(0);
      return stmt;
    }
    if (word == "barrier") {
      advance();
      stmt.kind = Stmt::Kind::Barrier;
      return stmt;
    }
    if (word == "bcast" || word == "allreduce") {
      advance();
      stmt.kind =
          word == "bcast" ? Stmt::Kind::Bcast : Stmt::Kind::Allreduce;
      stmt.a = parseExpr(0);
      return stmt;
    }
    if (word == "write" || word == "read" || word == "iwrite" ||
        word == "iread" || word == "verify") {
      advance();
      return parseIoStmt(word, stmt);
    }
    if (word == "wait" || word == "waitall") {
      advance();
      stmt.kind = word == "wait" ? Stmt::Kind::Wait : Stmt::Kind::WaitAll;
      stmt.name = expectName(word + " slot");
      return stmt;
    }
    if (word == "signal") {
      advance();
      stmt.kind = Stmt::Kind::Signal;
      stmt.name = expectName("signal channel");
      // Optional token count; a following expression starts with a number,
      // a name, '(' or a unary operator -- but a bare channel name is the
      // common case, so only numbers/'(' start a count expression here.
      if (peek().kind == Token::Kind::Int ||
          peek().kind == Token::Kind::Float || isPunct("(")) {
        stmt.a = parseExpr(0);
      }
      return stmt;
    }
    if (word == "recv") {
      advance();
      stmt.kind = Stmt::Kind::Recv;
      stmt.name = expectName("recv channel");
      return stmt;
    }
    if (word == "loop") {
      advance();
      stmt.kind = Stmt::Kind::Loop;
      stmt.name = expectName("loop variable");
      expectPunct(":", "loop " + stmt.name);
      stmt.a = parseExpr(0);
      expectPunct("{", "loop " + stmt.name);
      stmt.body = parseBlockBody("loop " + stmt.name, depth + 1);
      return stmt;
    }
    if (word == "if") {
      advance();
      stmt.kind = Stmt::Kind::If;
      stmt.a = parseExpr(0);
      expectPunct("{", "if");
      stmt.body = parseBlockBody("if", depth + 1);
      if (acceptIdent("else")) {
        expectPunct("{", "else");
        stmt.else_body = parseBlockBody("else", depth + 1);
      }
      return stmt;
    }
    fail(t.line, "statement", "unknown statement '" + word + "'");
  }

  Stmt parseIoStmt(const std::string& word, Stmt stmt) {
    if (word == "write") {
      stmt.kind = Stmt::Kind::Write;
    } else if (word == "read") {
      stmt.kind = Stmt::Kind::Read;
    } else if (word == "iwrite") {
      stmt.kind = Stmt::Kind::IWrite;
    } else if (word == "iread") {
      stmt.kind = Stmt::Kind::IRead;
    } else {
      stmt.kind = Stmt::Kind::Verify;
    }
    expectKeyword("file", "expected 'file \"<path>\"' after '" + word + "'");
    stmt.path = expectString(word + " path");
    if (stmt.path.empty()) fail(stmt.line, word, "empty file path");
    expectKeyword("at", "expected 'at <offset>' in " + word);
    stmt.a = parseExpr(0);
    expectKeyword("bytes", "expected 'bytes <count>' in " + word);
    stmt.b = parseExpr(0);

    const bool wants_tag =
        stmt.kind == Stmt::Kind::Write || stmt.kind == Stmt::Kind::IWrite ||
        stmt.kind == Stmt::Kind::Verify;
    if (acceptIdent("tag")) {
      if (!wants_tag) {
        fail(prev().line, word, "'" + word + "' does not take a tag");
      }
      stmt.c = parseExpr(0);
    } else if (stmt.kind == Stmt::Kind::Verify) {
      fail(peek().line, word, "verify requires 'tag <expr>'");
    }

    const bool is_async =
        stmt.kind == Stmt::Kind::IWrite || stmt.kind == Stmt::Kind::IRead;
    if (acceptPunct("->")) {
      if (!is_async) {
        fail(prev().line, word,
             "only iwrite/iread take a '-> slot' destination");
      }
      stmt.slot = expectName(word + " slot");
    } else if (is_async) {
      fail(peek().line, word, word + " requires a '-> slot' destination");
    }
    return stmt;
  }

  // --- expressions (precedence climbing) ---
  Expr parseExpr(int depth) { return parseTernary(depth); }

  Expr parseTernary(int depth) {
    checkExprDepth(depth);
    Expr cond = parseBinary(0, depth + 1);
    if (!acceptPunct("?")) return cond;
    Expr out;
    out.kind = Expr::Kind::Ternary;
    out.line = cond.line;
    out.args.push_back(std::move(cond));
    out.args.push_back(parseTernary(depth + 1));
    expectPunct(":", "ternary");
    out.args.push_back(parseTernary(depth + 1));
    return out;
  }

  // Binary operator precedence, loosest first.
  static int binaryLevel(const std::string& op) {
    if (op == "||") return 0;
    if (op == "&&") return 1;
    if (op == "|") return 2;
    if (op == "^") return 3;
    if (op == "&") return 4;
    if (op == "==" || op == "!=") return 5;
    if (op == "<" || op == "<=" || op == ">" || op == ">=") return 6;
    if (op == "<<" || op == ">>") return 7;
    if (op == "+" || op == "-") return 8;
    if (op == "*" || op == "/" || op == "%") return 9;
    return -1;
  }
  static constexpr int kUnaryLevel = 10;

  Expr parseBinary(int level, int depth) {
    checkExprDepth(depth);
    if (level >= kUnaryLevel) return parseUnary(depth);
    Expr lhs = parseBinary(level + 1, depth + 1);
    for (;;) {
      if (peek().kind != Token::Kind::Punct ||
          binaryLevel(peek().text) != level) {
        return lhs;
      }
      Expr out;
      out.kind = Expr::Kind::Binary;
      out.line = peek().line;
      out.op = advance().text;
      out.args.push_back(std::move(lhs));
      out.args.push_back(parseBinary(level + 1, depth + 1));
      lhs = std::move(out);
    }
  }

  Expr parseUnary(int depth) {
    checkExprDepth(depth);
    if (isPunct("-") || isPunct("!")) {
      Expr out;
      out.kind = Expr::Kind::Unary;
      out.line = peek().line;
      out.op = advance().text;
      out.args.push_back(parseUnary(depth + 1));
      return out;
    }
    return parsePrimary(depth);
  }

  Expr parsePrimary(int depth) {
    checkExprDepth(depth);
    const Token& t = peek();
    Expr out;
    out.line = t.line;
    if (t.kind == Token::Kind::Int) {
      out.kind = Expr::Kind::IntLit;
      out.int_value = advance().int_value;
      return out;
    }
    if (t.kind == Token::Kind::Float) {
      out.kind = Expr::Kind::FloatLit;
      out.float_value = advance().float_value;
      return out;
    }
    if (t.kind == Token::Kind::Ident) {
      out.name = advance().text;
      if (acceptPunct("(")) {
        out.kind = Expr::Kind::Call;
        if (!acceptPunct(")")) {
          for (;;) {
            out.args.push_back(parseExpr(depth + 1));
            if (acceptPunct(")")) break;
            expectPunct(",", "call " + out.name);
          }
        }
      } else {
        out.kind = Expr::Kind::Var;
      }
      return out;
    }
    if (acceptPunct("(")) {
      Expr inner = parseExpr(depth + 1);
      expectPunct(")", "expression");
      return inner;
    }
    fail(t.line, "expression",
         "expected a value, got '" + t.text + "'");
  }

  void checkExprDepth(int depth) const {
    if (depth > kMaxExprDepth) {
      fail(peek().line, "expression", "expression nested too deeply");
    }
  }

  // --- program attachment ---
  struct Program {
    int line = 0;
    std::vector<Stmt> stmts;
    std::vector<Phase> phases;
  };

  void attachPrograms(ScenarioSpec& spec) {
    std::set<std::string> world_names;
    for (WorldSpec& world : spec.worlds) {
      if (!world_names.insert(world.name).second) {
        fail(world.line, "world " + world.name, "duplicate world name");
      }
      auto it = programs_.find(world.name);
      if (it == programs_.end()) {
        fail(world.line, "world " + world.name,
             "world has no matching 'program " + world.name + "' block");
      }
      world.stmts = std::move(it->second.stmts);
      world.phases = std::move(it->second.phases);
      world.has_program = true;
      programs_.erase(it);
    }
    if (!programs_.empty()) {
      const auto& orphan = *programs_.begin();
      fail(orphan.second.line, "program " + orphan.first,
           "program has no matching 'world " + orphan.first + "' block");
    }
    if (spec.worlds.empty()) {
      fail(0, "scenario", "scenario declares no worlds");
    }
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  std::map<std::string, Program> programs_;
};

// --- Static validation -----------------------------------------------------

/// Constant-folds literal expressions (literals and unary minus on them) so
/// obviously-invalid sizes/counts are caught at parse time with their line.
struct Literal {
  bool is_int = true;
  std::int64_t i = 0;
  double d = 0.0;
  double asDouble() const { return is_int ? static_cast<double>(i) : d; }
};

std::optional<Literal> literalOf(const Expr& expr) {
  switch (expr.kind) {
    case Expr::Kind::IntLit:
      return Literal{true, expr.int_value, 0.0};
    case Expr::Kind::FloatLit:
      return Literal{false, 0, expr.float_value};
    case Expr::Kind::Unary: {
      if (expr.op != "-") return std::nullopt;
      auto inner = literalOf(expr.args[0]);
      if (!inner) return std::nullopt;
      if (inner->is_int) {
        // Negate through uint64 so INT64_MIN round-trips without UB.
        inner->i = static_cast<std::int64_t>(
            0u - static_cast<std::uint64_t>(inner->i));
      } else {
        inner->d = -inner->d;
      }
      return inner;
    }
    default:
      return std::nullopt;
  }
}

void checkPositiveBytes(const std::optional<Expr>& expr,
                        const std::string& what) {
  if (!expr) return;
  if (const auto lit = literalOf(*expr)) {
    if (lit->asDouble() <= 0.0) {
      fail(expr->line, what,
           "byte count must be positive, got " +
               std::to_string(lit->asDouble()));
    }
  }
}

void checkNonNegative(const std::optional<Expr>& expr, const std::string& what,
                      const char* noun) {
  if (!expr) return;
  if (const auto lit = literalOf(*expr)) {
    if (lit->asDouble() < 0.0) {
      fail(expr->line, what,
           std::string(noun) + " must be non-negative, got " +
               std::to_string(lit->asDouble()));
    }
  }
}

void checkLoopCount(const Expr& expr, const std::string& what) {
  if (const auto lit = literalOf(expr)) {
    if (!lit->is_int) {
      fail(expr.line, what, "loop count must be an integer");
    }
    if (lit->i < 0) {
      fail(expr.line, what,
           "loop count must be non-negative, got " + std::to_string(lit->i));
    }
    if (lit->i > kMaxLoopCount) {
      fail(expr.line, what,
           "loop count " + std::to_string(lit->i) + " overflows the " +
               std::to_string(kMaxLoopCount) + "-iteration budget");
    }
  }
}

struct BuiltinFn {
  const char* name;
  int arity;
};
constexpr BuiltinFn kBuiltins[] = {
    {"splitmix", 1}, {"pow", 2}, {"min", 2}, {"max", 2}, {"abs", 1}};

/// Scope stack + rank-taint bookkeeping for one program walk.
struct ProgramScope {
  std::vector<std::set<std::string>> scopes;
  std::set<std::string> tainted;  // names whose value depends on `rank`

  bool defined(const std::string& name) const {
    for (const auto& scope : scopes) {
      if (scope.count(name) != 0) return true;
    }
    return false;
  }
  void define(const std::string& name) { scopes.back().insert(name); }
};

/// Validates variable/function references; returns true when the expression
/// depends (directly or through a tainted let) on the local rank.
bool checkExpr(const Expr& expr, const ProgramScope& scope,
               const std::string& what) {
  switch (expr.kind) {
    case Expr::Kind::IntLit:
    case Expr::Kind::FloatLit:
      return false;
    case Expr::Kind::Var:
      if (!scope.defined(expr.name)) {
        fail(expr.line, what, "unknown variable '" + expr.name + "'");
      }
      return scope.tainted.count(expr.name) != 0;
    case Expr::Kind::Unary:
    case Expr::Kind::Binary:
    case Expr::Kind::Ternary: {
      bool tainted = false;
      for (const Expr& arg : expr.args) {
        tainted = checkExpr(arg, scope, what) || tainted;
      }
      return tainted;
    }
    case Expr::Kind::Call: {
      const BuiltinFn* fn = nullptr;
      for (const BuiltinFn& candidate : kBuiltins) {
        if (expr.name == candidate.name) {
          fn = &candidate;
          break;
        }
      }
      if (fn == nullptr) {
        fail(expr.line, what, "unknown function '" + expr.name + "'");
      }
      if (static_cast<int>(expr.args.size()) != fn->arity) {
        fail(expr.line, what,
             "'" + expr.name + "' takes " + std::to_string(fn->arity) +
                 " argument(s), got " + std::to_string(expr.args.size()));
      }
      bool tainted = false;
      for (const Expr& arg : expr.args) {
        tainted = checkExpr(arg, scope, what) || tainted;
      }
      return tainted;
    }
  }
  return false;
}

struct ProgramUsage {
  std::set<std::string> assigned_slots;
  std::set<std::string> waited_slots;   // via `wait`
  std::set<std::string> waitall_slots;  // via `waitall`
  std::set<std::string> signals;        // channel names signaled
  std::set<std::string> recvs;          // channel names received
};

void checkStmts(const std::vector<Stmt>& stmts, ProgramScope& scope,
                ProgramUsage& usage, bool rank_dependent,
                const std::string& world) {
  scope.scopes.emplace_back();
  for (const Stmt& stmt : stmts) {
    const std::string what = "world " + world;
    switch (stmt.kind) {
      case Stmt::Kind::Let: {
        const bool tainted = checkExpr(*stmt.a, scope, what);
        scope.define(stmt.name);
        if (tainted) scope.tainted.insert(stmt.name);
        break;
      }
      case Stmt::Kind::Compute:
        checkExpr(*stmt.a, scope, what);
        checkNonNegative(stmt.a, what, "compute duration");
        break;
      case Stmt::Kind::Barrier:
      case Stmt::Kind::Bcast:
      case Stmt::Kind::Allreduce: {
        if (rank_dependent) {
          fail(stmt.line, what,
               "collective under rank-dependent control flow would deadlock "
               "(not every rank reaches it)");
        }
        if (stmt.a) {
          checkExpr(*stmt.a, scope, what);
          checkPositiveBytes(stmt.a, what);
        }
        break;
      }
      case Stmt::Kind::Write:
      case Stmt::Kind::Read:
      case Stmt::Kind::IWrite:
      case Stmt::Kind::IRead:
      case Stmt::Kind::Verify: {
        checkExpr(*stmt.a, scope, what);
        checkExpr(*stmt.b, scope, what);
        if (stmt.c) checkExpr(*stmt.c, scope, what);
        checkNonNegative(stmt.a, what, "file offset");
        checkPositiveBytes(stmt.b, what);
        if (!stmt.slot.empty()) usage.assigned_slots.insert(stmt.slot);
        break;
      }
      case Stmt::Kind::Wait:
        usage.waited_slots.insert(stmt.name);
        break;
      case Stmt::Kind::WaitAll:
        usage.waitall_slots.insert(stmt.name);
        break;
      case Stmt::Kind::Signal:
        if (stmt.a) {
          checkExpr(*stmt.a, scope, what);
          if (const auto lit = literalOf(*stmt.a)) {
            if (!lit->is_int || lit->i <= 0) {
              fail(stmt.line, what, "signal count must be a positive integer");
            }
          }
        }
        usage.signals.insert(stmt.name);
        break;
      case Stmt::Kind::Recv:
        if (rank_dependent) {
          fail(stmt.line, what,
               "recv under rank-dependent control flow can starve the "
               "channel (not every rank reaches it)");
        }
        usage.recvs.insert(stmt.name);
        break;
      case Stmt::Kind::Loop: {
        const bool tainted = checkExpr(*stmt.a, scope, what);
        checkLoopCount(*stmt.a, what);
        scope.scopes.emplace_back();
        scope.define(stmt.name);
        checkStmts(stmt.body, scope, usage, rank_dependent || tainted, world);
        scope.scopes.pop_back();
        break;
      }
      case Stmt::Kind::If: {
        const bool tainted = checkExpr(*stmt.a, scope, what);
        checkStmts(stmt.body, scope, usage, rank_dependent || tainted, world);
        checkStmts(stmt.else_body, scope, usage, rank_dependent || tainted,
                   world);
        break;
      }
    }
  }
  scope.scopes.pop_back();
}

void checkPhaseGraph(const WorldSpec& world) {
  const std::string what = "world " + world.name;
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < world.phases.size(); ++i) {
    const Phase& phase = world.phases[i];
    if (!index.emplace(phase.name, i).second) {
      fail(phase.line, what, "duplicate phase '" + phase.name + "'");
    }
  }
  for (const Phase& phase : world.phases) {
    if (!phase.next.empty() && index.count(phase.next) == 0) {
      fail(phase.line, what,
           "phase '" + phase.name + "' links to unknown phase '" +
               phase.next + "'");
    }
  }
  // Follow the chain from the first phase; `next` empty = fall through.
  std::set<std::size_t> visited;
  std::size_t at = 0;
  while (at < world.phases.size()) {
    if (!visited.insert(at).second) {
      fail(world.phases[at].line, what,
           "cyclic phase graph: phase '" + world.phases[at].name +
               "' is reached twice");
    }
    const Phase& phase = world.phases[at];
    if (phase.next.empty()) {
      ++at;
    } else {
      at = index.at(phase.next);
      if (visited.count(at) != 0) {
        fail(phase.line, what,
             "cyclic phase graph: phase '" + phase.next +
                 "' is reached twice");
      }
    }
  }
  for (std::size_t i = 0; i < world.phases.size(); ++i) {
    if (visited.count(i) == 0) {
      fail(world.phases[i].line, what,
           "phase '" + world.phases[i].name +
               "' is unreachable from the start phase");
    }
  }
}

void checkLinkSpec(const LinkSpec& link) {
  if (!(link.write_capacity > 0.0) || !(link.read_capacity > 0.0)) {
    fail(0, "link", "link capacities must be positive");
  }
  if (link.client_rate_cap < 0.0 || link.congestion_gamma < 0.0 ||
      link.noise_sigma < 0.0 || link.noise_reference_rate < 0.0 ||
      link.recompute_quantum < 0.0) {
    fail(0, "link", "link parameters must be non-negative");
  }
}

void checkFaultSpec(const FaultSpec& faults) {
  std::vector<const FaultDecl*> blackouts;
  for (const FaultDecl& decl : faults.decls) {
    if (!(decl.begin >= 0.0) || !(decl.end > decl.begin)) {
      fail(decl.line, "faults",
           "fault window must satisfy 0 <= from < to");
    }
    switch (decl.kind) {
      case FaultDecl::Kind::Degrade:
        if (!(decl.value > 0.0) || decl.value > 1.0) {
          fail(decl.line, "faults",
               "degrade factor must lie in (0, 1], got " +
                   std::to_string(decl.value));
        }
        break;
      case FaultDecl::Kind::TransferFault:
        if (decl.value < 0.0 || decl.value > 1.0) {
          fail(decl.line, "faults",
               "transfer fault probability must lie in [0, 1], got " +
                   std::to_string(decl.value));
        }
        break;
      case FaultDecl::Kind::Outage:
        if (!(decl.value > 0.0) || decl.value > 1.0) {
          fail(decl.line, "faults",
               "outage fraction must lie in (0, 1], got " +
                   std::to_string(decl.value));
        }
        break;
      case FaultDecl::Kind::Blackout:
        // fault::FaultPlan rejects overlapping blackouts; same rule as
        // fault::TimeWindow::overlaps.
        for (const FaultDecl* other : blackouts) {
          if (decl.begin < other->end && other->begin < decl.end) {
            fail(decl.line, "faults",
                 "blackout window overlaps the blackout declared on line " +
                     std::to_string(other->line));
          }
        }
        blackouts.push_back(&decl);
        break;
    }
  }
}

const std::set<std::string>& knownStrategies() {
  static const std::set<std::string> names = {"none", "direct", "up-only",
                                              "adaptive", "mfu"};
  return names;
}

void validate(const ScenarioSpec& spec) {
  checkLinkSpec(spec.link);
  if (spec.faults) checkFaultSpec(*spec.faults);

  // Global lets resolve against rank/ranks of whichever world they run in;
  // validate them once per world below (cheap: globals are tiny).
  std::map<std::string, std::set<int>> channel_ranks;  // channel -> rank counts
  std::set<std::string> all_signals, all_recvs;

  for (const WorldSpec& world : spec.worlds) {
    const std::string what = "world " + world.name;
    if (world.ranks < 1 || world.ranks > kMaxRanks) {
      fail(world.line, what,
           "ranks must lie in [1, " + std::to_string(kMaxRanks) + "], got " +
               std::to_string(world.ranks));
    }
    if (world.jitter < 0.0) {
      fail(world.line, what, "jitter must be non-negative");
    }
    if (!(world.tolerance > 0.0)) {
      fail(world.line, what, "tolerance must be positive");
    }
    if (knownStrategies().count(world.strategy) == 0) {
      fail(world.line, what,
           "unknown strategy '" + world.strategy +
               "' (expected none, direct, up-only, adaptive or mfu)");
    }
    checkPhaseGraph(world);
    for (const Phase& phase : world.phases) {
      if (phase.repeat) checkLoopCount(*phase.repeat, what);
    }

    ProgramScope scope;
    scope.scopes.emplace_back();
    scope.define("rank");
    scope.define("ranks");
    scope.tainted.insert("rank");
    ProgramUsage usage;
    checkStmts(spec.globals, scope, usage, /*rank_dependent=*/false,
               world.name);
    // Keep the globals' scope frame alive for the program body.
    scope.scopes.emplace_back();
    for (const Stmt& global : spec.globals) {
      if (global.kind == Stmt::Kind::Let) scope.define(global.name);
    }
    if (!world.phases.empty()) {
      for (const Phase& phase : world.phases) {
        // The repeat count sees the globals, not its own loop variable.
        if (phase.repeat) checkExpr(*phase.repeat, scope, what);
        scope.scopes.emplace_back();
        if (!phase.loop_var.empty()) scope.define(phase.loop_var);
        checkStmts(phase.body, scope, usage, /*rank_dependent=*/false,
                   world.name);
        scope.scopes.pop_back();
      }
    } else {
      checkStmts(world.stmts, scope, usage, /*rank_dependent=*/false,
                 world.name);
    }

    for (const std::string& slot : usage.waited_slots) {
      if (usage.waitall_slots.count(slot) != 0) {
        fail(world.line, what,
             "slot '" + slot + "' is used by both wait and waitall");
      }
      if (usage.assigned_slots.count(slot) == 0) {
        fail(world.line, what,
             "wait target '" + slot + "' is never assigned by iwrite/iread");
      }
    }
    for (const std::string& slot : usage.waitall_slots) {
      if (usage.assigned_slots.count(slot) == 0) {
        fail(world.line, what,
             "waitall target '" + slot +
                 "' is never assigned by iwrite/iread");
      }
    }
    for (const std::string& slot : usage.assigned_slots) {
      if (usage.waited_slots.count(slot) == 0 &&
          usage.waitall_slots.count(slot) == 0) {
        fail(world.line, what,
             "slot '" + slot + "' is assigned but never waited");
      }
    }
    for (const std::string& channel : usage.signals) {
      all_signals.insert(channel);
      channel_ranks[channel].insert(world.ranks);
    }
    for (const std::string& channel : usage.recvs) {
      all_recvs.insert(channel);
      channel_ranks[channel].insert(world.ranks);
    }
  }

  for (const std::string& channel : all_recvs) {
    if (all_signals.count(channel) == 0) {
      fail(0, "channel " + channel,
           "channel is received but never signaled (consumers would block "
           "forever)");
    }
    if (channel_ranks[channel].size() > 1) {
      fail(0, "channel " + channel,
           "channel couples worlds with different rank counts (tokens are "
           "per-rank)");
    }
  }
}

}  // namespace

ScenarioSpec parseScenario(std::string_view text) {
  Parser parser(text);
  ScenarioSpec spec = parser.parse();
  validate(spec);
  return spec;
}

ScenarioSpec loadScenarioFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw ScenarioError(0, path, "cannot open scenario file");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    return parseScenario(buffer.str());
  } catch (const ScenarioError& e) {
    const std::string field =
        e.field().empty() ? path : path + ": " + e.field();
    throw ScenarioError(e.line(), field, e.message());
  }
}

}  // namespace iobts::scenario
