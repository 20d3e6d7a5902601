#ifndef NTW_HTML_NAME_TABLE_H_
#define NTW_HTML_NAME_TABLE_H_

#include <cstdint>
#include <string_view>

namespace ntw::html {

/// Process-global intern table for tag and attribute names. Interning maps
/// each distinct lowercased name to a dense int32 id, so the hot extraction
/// path compares ids instead of strings. The table only ever grows (the name
/// universe — HTML tags plus attribute names — is tiny and shared across all
/// pages); interned name storage is stable for the process lifetime, so the
/// string_views handed out never dangle.
///
/// Thread-safe. Lookups hit a thread-local cache first, so steady-state
/// parsing takes no locks.
class NameTable {
 public:
  struct Interned {
    int32_t id;
    std::string_view name;  // Stable for the process lifetime.
  };

  static NameTable& Global();

  /// Returns the id for `name`, creating one on first sight.
  Interned Intern(std::string_view name);

  /// Id for `name` if it was ever interned, -1 otherwise. Never creates.
  int32_t Find(std::string_view name) const;

 private:
  struct Rep;
  NameTable();
  Rep* rep_;
};

}  // namespace ntw::html

#endif  // NTW_HTML_NAME_TABLE_H_
