#include "obs/proc.h"

#include <cstdio>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif
#if defined(__unix__) && !defined(__APPLE__)
#include <unistd.h>
#endif

namespace ntw::obs {

int64_t PeakRssBytes() {
#if defined(__APPLE__)
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<int64_t>(usage.ru_maxrss);  // Bytes on macOS.
#elif defined(__unix__)
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<int64_t>(usage.ru_maxrss) * 1024;  // KiB on Linux.
#else
  return 0;
#endif
}

ResidentBytes CurrentResidentBytes() {
#if defined(__unix__) && !defined(__APPLE__)
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm == nullptr) return {};
  unsigned long long total = 0;
  unsigned long long resident = 0;
  unsigned long long shared = 0;
  int fields = std::fscanf(statm, "%llu %llu %llu", &total, &resident, &shared);
  std::fclose(statm);
  if (fields != 3) return {};
  long page = sysconf(_SC_PAGESIZE);
  if (page <= 0) page = 4096;
  return {static_cast<int64_t>(resident - shared) * page,
          static_cast<int64_t>(shared) * page};
#else
  return {};  // macOS has no statm.
#endif
}

}  // namespace ntw::obs
