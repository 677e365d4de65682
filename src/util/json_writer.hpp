// Minimal streaming JSON emitter shared by every JSON-producing path in the
// repo: the obs:: profiler (Chrome trace, simulated tracks included) and
// telemetry exports, and the bench --json output. Centralizing it fixes the escaping bug the ad-hoc
// emitters shared (event names containing '"' produced invalid JSON) and
// keeps number formatting consistent (non-finite doubles become null — JSON
// has no NaN/Inf).
//
//   JsonWriter w(os);
//   w.begin_object();
//   w.key("name"); w.value("chunk[0] h2d");
//   w.key("rows"); w.begin_array(); w.value(1); w.value(2); w.end_array();
//   w.end_object();
//
// Comma/colon placement is managed by a small state stack; misuse (two keys
// in a row, value without key inside an object) throws util::Error.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace deepphi::util {

/// Returns `s` with JSON string escaping applied (quotes, backslashes,
/// control characters; no surrounding quotes).
std::string json_escape(std::string_view s);

/// Strict-enough validator used by tests and tools: true iff `text` is one
/// complete JSON value (object/array/string/number/bool/null) with balanced
/// structure and valid string escapes. Not a full RFC 8259 parser — it does
/// not decode numbers beyond shape checks — but rejects everything our
/// emitters could plausibly get wrong.
bool json_is_valid(std::string_view text);

class JsonWriter {
 public:
  /// Writes to `os`, which must outlive the writer.
  explicit JsonWriter(std::ostream& os);

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Object member key; must be followed by exactly one value or container.
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(double v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(bool v);
  JsonWriter& null();

  /// Shorthand for key(name) + value(v).
  template <typename T>
  JsonWriter& member(std::string_view name, const T& v) {
    key(name);
    return value(v);
  }

  /// True once the single top-level value is complete.
  bool done() const;

 private:
  enum class Frame : std::uint8_t { kObject, kArray };
  void before_value();

  std::ostream& os_;
  std::vector<Frame> stack_;
  std::vector<bool> has_items_;  // parallel to stack_
  bool key_pending_ = false;
  bool top_level_written_ = false;
};

}  // namespace deepphi::util
