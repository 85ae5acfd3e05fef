// Minimal streaming JSON writer for bench artifacts and trace export.
//
// No external JSON dependency is available in the container, and the
// schemas we emit (RunResult artifacts, Chrome trace_event files) are
// write-only from C++ — scripts/check_gates.py and trace viewers do the
// parsing — so a small comma-tracking emitter is all that is needed.
// Output is compact (no whitespace) and deterministic, which keeps
// artifacts diffable and lets tests assert exact strings.
#pragma once

#include <cstdint>
#include <ostream>
#include <string_view>
#include <vector>

namespace stats {

/// Escape and quote `s` per RFC 8259 (", \, and control characters).
void write_json_string(std::ostream& os, std::string_view s);

class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(os) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Object key; must be followed by exactly one value/container.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(bool v);
  JsonWriter& value(uint64_t v);
  JsonWriter& value(int64_t v);
  JsonWriter& value(int v) { return value(static_cast<int64_t>(v)); }
  /// Non-finite doubles (inf ratios, nan) are emitted as null: JSON has no
  /// representation for them and consumers treat null as "not applicable".
  JsonWriter& value(double v);
  JsonWriter& null();

  JsonWriter& kv(std::string_view k, std::string_view v) { return key(k).value(v); }
  JsonWriter& kv(std::string_view k, const char* v) { return key(k).value(v); }
  JsonWriter& kv(std::string_view k, bool v) { return key(k).value(v); }
  JsonWriter& kv(std::string_view k, uint64_t v) { return key(k).value(v); }
  JsonWriter& kv(std::string_view k, int64_t v) { return key(k).value(v); }
  JsonWriter& kv(std::string_view k, int v) { return key(k).value(v); }
  JsonWriter& kv(std::string_view k, double v) { return key(k).value(v); }

 private:
  // Called before any value or container open: emits the separating comma
  // unless this is the first element at the current level or the value
  // completes a key.
  void pre_value();

  struct Level {
    char kind;       // 'o' or 'a'
    bool any;        // something already emitted at this level
    bool have_key;   // (objects) a key is pending its value
  };

  std::ostream& os_;
  std::vector<Level> stack_;
};

}  // namespace stats
