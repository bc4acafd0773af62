#include "obs/json.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace p2panon::obs {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// DOM parser

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::uint64_t JsonValue::as_u64() const {
  if (kind != Kind::kNumber) return 0;
  return std::strtoull(raw_number.c_str(), nullptr, 10);
}

std::string_view JsonValue::as_string(std::string_view fallback) const {
  return kind == Kind::kString ? std::string_view(string) : fallback;
}

namespace {

/// Recursive-descent parser (RFC 8259 grammar, nesting capped at
/// kMaxDepth levels below the root).
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::unique_ptr<JsonValue> run() {
    auto root = std::make_unique<JsonValue>();
    skip_ws();
    if (!value(*root, 0)) return nullptr;
    skip_ws();
    if (pos_ != text_.size()) return nullptr;
    return root;
  }

 private:
  static constexpr int kMaxDepth = 512;

  bool value(JsonValue& out, int depth) {
    if (depth > kMaxDepth || pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object(out, depth);
      case '[': return array(out, depth);
      case '"':
        out.kind = JsonValue::Kind::kString;
        return string(out.string);
      case 't':
        out.kind = JsonValue::Kind::kBool;
        out.boolean = true;
        return literal("true");
      case 'f':
        out.kind = JsonValue::Kind::kBool;
        out.boolean = false;
        return literal("false");
      case 'n':
        out.kind = JsonValue::Kind::kNull;
        return literal("null");
      default:
        return number(out);
    }
  }

  bool object(JsonValue& out, int depth) {
    out.kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      std::string key;
      if (!string(key)) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      JsonValue member;
      if (!value(member, depth + 1)) return false;
      out.object.emplace_back(std::move(key), std::move(member));
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array(JsonValue& out, int depth) {
    out.kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      JsonValue element;
      if (!value(element, depth + 1)) return false;
      out.array.push_back(std::move(element));
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string(std::string& out) {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') { ++pos_; return true; }
      if (c < 0x20) return false;
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        switch (text_[pos_]) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            unsigned cp = 0;
            if (!hex4(cp)) return false;
            // Combine a surrogate pair when a low surrogate follows.
            if (cp >= 0xD800 && cp <= 0xDBFF &&
                text_.substr(pos_ + 1, 2) == "\\u") {
              const std::size_t save = pos_;
              pos_ += 2;
              unsigned lo = 0;
              if (hex4(lo) && lo >= 0xDC00 && lo <= 0xDFFF) {
                cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
              } else {
                pos_ = save;
              }
            }
            append_utf8(out, cp);
            break;
          }
          default:
            return false;
        }
      } else {
        out += static_cast<char>(c);
      }
      ++pos_;
    }
    return false;  // unterminated
  }

  /// Reads the 4 hex digits of a \uXXXX escape; leaves pos_ on the last one.
  bool hex4(unsigned& cp) {
    cp = 0;
    for (int i = 0; i < 4; ++i) {
      ++pos_;
      if (pos_ >= text_.size() ||
          !std::isxdigit(static_cast<unsigned char>(text_[pos_]))) {
        return false;
      }
      const char h = text_[pos_];
      cp = cp * 16 +
           static_cast<unsigned>(h <= '9'   ? h - '0'
                                 : h <= 'F' ? h - 'A' + 10
                                            : h - 'a' + 10);
    }
    return true;
  }

  static void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool number(JsonValue& out) {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (!digit()) return false;
    if (text_[pos_] == '0') {
      ++pos_;
    } else {
      while (digit()) ++pos_;
    }
    if (peek() == '.') {
      ++pos_;
      if (!digit()) return false;
      while (digit()) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!digit()) return false;
      while (digit()) ++pos_;
    }
    out.kind = JsonValue::Kind::kNumber;
    out.raw_number.assign(text_.substr(start, pos_ - start));
    return true;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool digit() const {
    return pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]));
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::unique_ptr<JsonValue> json_parse(std::string_view text) {
  return Parser(text).run();
}

bool json_valid(std::string_view text) { return json_parse(text) != nullptr; }

}  // namespace p2panon::obs
