#pragma once
// A small JSON reader for the benchmark's own checks.  Responses are
// checked with a parser that is not the program's (obs::json), so a fault
// in the program's JSON layer cannot hide itself from the check.

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench::minijson {

struct Value {
  enum class Kind { Null, Bool, Number, String, Array, Object };
  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  /// Member `key` of an object, or null when absent / not an object.
  [[nodiscard]] const Value* get(std::string_view key) const;
};

/// Parses one JSON document; nullopt when it is malformed or has trailing
/// non-space bytes.
[[nodiscard]] std::optional<Value> parse(std::string_view text);

/// `s` as a JSON string literal, quotes included.
[[nodiscard]] std::string quote(std::string_view s);

}  // namespace perfbench::minijson
