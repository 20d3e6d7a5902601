#ifndef PERFBENCH_HARNESS_COMMON_H_
#define PERFBENCH_HARNESS_COMMON_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Command-line contract shared by every workload (see perfbench/run.py).
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the checkout; the workload owns it and the
  /// harness removes it on exit.
  std::string work_dir;
  /// Directory inside the checkout that persists across runs: reference
  /// results of earlier runs and the span files of traced runs.
  std::string state_dir;
  /// Path of the ntw_serve daemon binary built next to the harness.
  std::string serve_bin;
  /// Identifies the source tree (git sha, or a digest of the sources when
  /// the checkout is not a git repository).
  std::string source_id;
};

/// What one run reports. `metrics` holds the end-to-end metrics of an
/// untraced run or the per-layer metrics of a traced one, never both.
struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  /// Run description (host, sizes, guards) printed on the info line.
  std::vector<std::pair<std::string, std::string>> info;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Info(std::string key, std::string value) {
    info.emplace_back(std::move(key), std::move(value));
  }
  /// Marks the run incorrect and logs why on stderr.
  void Fail(const std::string& why);
};

/// Steady-clock seconds since an arbitrary epoch.
double NowSeconds();
/// CPU seconds consumed by the calling thread.
double ThreadCpuSeconds();
/// CPU seconds (user + system, all threads) of process `pid`, from
/// /proc/<pid>/stat; -1 when unreadable.
double ProcessCpuSeconds(pid_t pid);
/// Peak resident set (VmHWM) of process `pid` in bytes; -1 when unreadable.
int64_t ProcessPeakRssBytes(pid_t pid);
/// Peak resident set of this process in bytes.
int64_t SelfPeakRssBytes();

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1] (0 when empty).
double Quantile(std::vector<double> values, double q);

/// Macro-averageable F1 of an extracted value multiset against the true
/// one (1 when both are empty).
double MultisetF1(std::vector<std::string> extracted,
                  std::vector<std::string> truth);

/// "%.6f"-style formatting helper for info strings.
std::string Fmt(double value);

/// Host description for the info line: CPU model and online CPU count.
std::string HostCpuModel();
int HostCpuCount();

/// FNV-1a 64 over `bytes`, hex-encoded — compact identity for gate logs.
std::string Digest(const std::string& bytes);

/// Runs the workload selected by `args.workload`.
Report RunServeExtract(const Args& args);
Report RunCrawlPack(const Args& args);
Report RunLearnDealers(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_COMMON_H_
