// The on/off rule shared by every REPRO_* switch (docs/OBSERVABILITY.md).
#pragma once

#include <cstdlib>

namespace util {

/// True when environment variable `name` is set, non-empty and does not
/// start with '0': "1" and "true" turn a switch on; "0", "00", "" and
/// unset leave it off.
inline bool env_on(const char* name) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read-once config probe; nothing in-process calls setenv
  const char* s = std::getenv(name);
  return s != nullptr && s[0] != '\0' && s[0] != '0';
}

}  // namespace util
