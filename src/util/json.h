// Minimal recursive-descent JSON reader.
//
// Just enough JSON to load the repo's own artifacts (BENCH_*.json from the
// google-benchmark runner and the pipeline sweep, metrics dumps from
// obs::to_json) without an external dependency: the full value grammar is
// accepted — objects, arrays, strings with escapes, numbers, booleans,
// null — with no streaming, comments, or non-UTF-8 handling. Parsing
// errors throw std::runtime_error with a byte offset.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace rpr::util {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  [[nodiscard]] Kind kind() const noexcept { return kind_; }

  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<JsonValue>& as_array() const;
  [[nodiscard]] const std::map<std::string, JsonValue>& as_object() const;

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(const std::string& key) const;

  // Raw storage, public so the parser can build values in place; readers
  // should go through the checked as_*() accessors above.
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

/// Parses one JSON document (throws std::runtime_error on malformed input
/// or trailing garbage).
[[nodiscard]] JsonValue parse_json(const std::string& text);

}  // namespace rpr::util
