#ifndef NTW_OBS_PROC_H_
#define NTW_OBS_PROC_H_

#include <cstdint>

namespace ntw::obs {

/// Peak resident set size of the current process in bytes (ru_maxrss via
/// getrusage, scaled from the platform unit). Returns 0 when unavailable.
int64_t PeakRssBytes();

/// The current resident set, split as /proc/self/statm reports it:
/// `file` is its shared (file-backed) pages, `anon` the rest. Unlike the
/// peak, both go back down when pages are released — what the
/// repository bench needs to tell heap from mapped pack pages. Zero
/// when unavailable.
struct ResidentBytes {
  int64_t anon = 0;
  int64_t file = 0;
};
ResidentBytes CurrentResidentBytes();

}  // namespace ntw::obs

#endif  // NTW_OBS_PROC_H_
