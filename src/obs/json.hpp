// Minimal JSON utilities for the observability layer.
//
// The emitters (metrics snapshots, Chrome trace events, JSONL causal logs)
// use json_escape + a strict structural validator. The trace analyzer also
// *reads* its own output back, so there is a small DOM (JsonValue +
// json_parse) with one non-negotiable property: numbers keep their raw
// source token. Correlation ids are full uint64s, and round-tripping them
// through a double (the usual lazy DOM design) silently corrupts anything
// above 2^53.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace p2panon::obs {

/// Escapes `s` for embedding inside a JSON string literal. Quotes are not
/// added; control characters become \u00XX sequences.
std::string json_escape(std::string_view s);

/// Parsed JSON value. Objects keep insertion order; numbers keep the raw
/// token so integer precision survives (see header comment).
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  std::string raw_number;  // verbatim source token, kNumber only
  std::string string;      // unescaped, kString only
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_null() const { return kind == Kind::kNull; }
  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_number() const { return kind == Kind::kNumber; }

  /// First member with this key, nullptr if absent or not an object.
  const JsonValue* find(std::string_view key) const;

  /// Numeric views of the raw token; 0 / 0.0 when not a number. as_u64
  /// parses the token with strtoull so 64-bit correlation ids survive.
  std::uint64_t as_u64() const;
  std::int64_t as_i64() const;
  double as_double() const;

  /// `string` if kString, otherwise the fallback.
  std::string_view as_string(std::string_view fallback = "") const;
};

/// Parses exactly one JSON value (RFC 8259 grammar, nesting capped at 512
/// levels). Surrounding whitespace is allowed; trailing garbage is not.
/// Returns nullptr on any syntax error.
std::unique_ptr<JsonValue> json_parse(std::string_view text);

/// True when `text` is exactly one valid JSON value: json_parse succeeds.
bool json_valid(std::string_view text);

}  // namespace p2panon::obs
