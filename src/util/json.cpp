#include "util/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/check.hpp"

namespace iobts {

Json::Json(const Json&) = default;
Json::Json(Json&&) noexcept = default;
Json& Json::operator=(const Json&) = default;
Json& Json::operator=(Json&&) noexcept = default;
Json::~Json() = default;

std::string Json::dump() const {
  std::string out;
  dumpTo(out, /*indent=*/-1, /*depth=*/0);
  return out;
}

std::string Json::pretty() const {
  std::string out;
  dumpTo(out, /*indent=*/2, /*depth=*/0);
  return out;
}

void Json::escapeTo(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void Json::dumpTo(std::string& out, int indent, int depth) const {
  const std::string pad =
      indent > 0 ? std::string(static_cast<std::size_t>(indent * (depth + 1)), ' ')
                 : std::string();
  const std::string close_pad =
      indent > 0 ? std::string(static_cast<std::size_t>(indent * depth), ' ')
                 : std::string();
  const char* nl = indent > 0 ? "\n" : "";

  if (isNull()) {
    out += "null";
  } else if (isBool()) {
    out += asBool() ? "true" : "false";
  } else if (isNumber()) {
    const double v = asNumber();
    char buf[64];
    if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
      std::snprintf(buf, sizeof(buf), "%.0f", v);
    } else if (std::isfinite(v)) {
      std::snprintf(buf, sizeof(buf), "%.12g", v);
    } else {
      // JSON has no inf/nan; serialize as null (documented behaviour).
      std::snprintf(buf, sizeof(buf), "null");
    }
    out += buf;
  } else if (isString()) {
    escapeTo(out, asString());
  } else if (isArray()) {
    const auto& arr = asArray();
    if (arr.empty()) {
      out += "[]";
      return;
    }
    out += '[';
    out += nl;
    for (std::size_t i = 0; i < arr.size(); ++i) {
      out += pad;
      arr[i].dumpTo(out, indent, depth + 1);
      if (i + 1 < arr.size()) out += ',';
      out += nl;
    }
    out += close_pad;
    out += ']';
  } else {
    const auto& obj = asObject();
    if (obj.empty()) {
      out += "{}";
      return;
    }
    out += '{';
    out += nl;
    std::size_t i = 0;
    for (const auto& [key, value] : obj) {
      out += pad;
      escapeTo(out, key);
      out += indent > 0 ? ": " : ":";
      value.dumpTo(out, indent, depth + 1);
      if (++i < obj.size()) out += ',';
      out += nl;
    }
    out += close_pad;
    out += '}';
  }
}

namespace {

// Recursive-descent JSON parser (standard JSON, UTF-8 passthrough).
struct JsonParser {
  std::string_view text;
  std::size_t pos = 0;

  [[noreturn]] void fail(const std::string& why) const {
    IOBTS_CHECK(false, "JSON parse error at offset " + std::to_string(pos) +
                           ": " + why);
    std::abort();  // unreachable; IOBTS_CHECK throws
  }

  void skipWhitespace() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  }

  char peek() {
    if (pos >= text.size()) fail("unexpected end of input");
    return text[pos];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos;
  }

  bool consumeLiteral(std::string_view lit) {
    if (text.substr(pos, lit.size()) != lit) return false;
    pos += lit.size();
    return true;
  }

  std::string parseString() {
    expect('"');
    std::string out;
    while (true) {
      if (pos >= text.size()) fail("unterminated string");
      const char c = text[pos++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos >= text.size()) fail("unterminated escape");
      const char e = text[pos++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos + 4 > text.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text[pos++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad hex digit in \\u escape");
          }
          // Encode the code point as UTF-8 (surrogate pairs unsupported;
          // benchmark reports never emit them).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
          } else {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  Json parseNumber() {
    const std::size_t start = pos;
    if (peek() == '-') ++pos;
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) ||
            text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E' ||
            text[pos] == '+' || text[pos] == '-')) {
      ++pos;
    }
    const std::string token(text.substr(start, pos - start));
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || token.empty()) {
      fail("malformed number '" + token + "'");
    }
    return Json(v);
  }

  Json parseValue() {
    skipWhitespace();
    const char c = peek();
    if (c == '{') {
      ++pos;
      JsonObject obj;
      skipWhitespace();
      if (peek() == '}') {
        ++pos;
        return Json(std::move(obj));
      }
      while (true) {
        skipWhitespace();
        std::string key = parseString();
        skipWhitespace();
        expect(':');
        obj[std::move(key)] = parseValue();
        skipWhitespace();
        if (peek() == ',') {
          ++pos;
          continue;
        }
        expect('}');
        return Json(std::move(obj));
      }
    }
    if (c == '[') {
      ++pos;
      JsonArray arr;
      skipWhitespace();
      if (peek() == ']') {
        ++pos;
        return Json(std::move(arr));
      }
      while (true) {
        arr.push_back(parseValue());
        skipWhitespace();
        if (peek() == ',') {
          ++pos;
          continue;
        }
        expect(']');
        return Json(std::move(arr));
      }
    }
    if (c == '"') return Json(parseString());
    if (consumeLiteral("null")) return Json(nullptr);
    if (consumeLiteral("true")) return Json(true);
    if (consumeLiteral("false")) return Json(false);
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      return parseNumber();
    }
    fail("unexpected character");
  }
};

}  // namespace

Json Json::parse(std::string_view text) {
  JsonParser parser{text};
  Json value = parser.parseValue();
  parser.skipWhitespace();
  IOBTS_CHECK(parser.pos == parser.text.size(),
              "JSON parse error: trailing garbage after document");
  return value;
}

}  // namespace iobts
