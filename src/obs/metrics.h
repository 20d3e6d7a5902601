#ifndef NTW_OBS_METRICS_H_
#define NTW_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace ntw::obs {

/// Structured runtime metrics for the extraction pipeline.
///
/// Hot-path contract: once a Counter/Gauge/Histogram pointer has been
/// obtained from the Registry it is stable for the process lifetime
/// (ResetValues zeroes values but never invalidates instruments), and
/// every mutation is a relaxed atomic operation — no locks, no
/// allocation. Registration itself takes the registry mutex and is meant
/// to happen once per call site (function-local static pointer).
///
/// Determinism contract (DESIGN.md §7): instruments only *observe*; no
/// library control flow ever reads a metric, so enabling or exporting
/// metrics cannot change extraction output bytes.

/// Monotonically increasing event count.
class Counter {
 public:
  void Add(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Last-write-wins instantaneous value (e.g. configured thread count).
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed log-scale (power-of-two) histogram over int64 samples.
///
/// Bucket 0 holds samples ≤ 0; bucket i (1 ≤ i ≤ 63) holds samples in
/// [2^(i-1), 2^i). INT64_MAX lands in the last bucket — the layout covers
/// the whole int64 range, so no sample can overflow past it. All updates
/// are relaxed atomics: totals are exact, and min/max are maintained with
/// CAS loops.
class Histogram {
 public:
  static constexpr size_t kBucketCount = 64;

  /// Bucket a sample falls into (see class comment).
  static size_t BucketIndex(int64_t sample);

  /// Inclusive lower bound of bucket `index`: 0 → INT64_MIN (the ≤0
  /// bucket), i ≥ 1 → 2^(i-1).
  static int64_t BucketLowerBound(size_t index);

  void Record(int64_t sample);

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  int64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Smallest / largest recorded sample; 0 when empty.
  int64_t min() const;
  int64_t max() const;
  int64_t bucket(size_t index) const {
    return buckets_[index].load(std::memory_order_relaxed);
  }

  void Reset();

 private:
  std::atomic<int64_t> buckets_[kBucketCount]{};
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
  std::atomic<int64_t> min_{INT64_MAX};
  std::atomic<int64_t> max_{INT64_MIN};
};

/// A point-in-time copy of one histogram's aggregates — what exports
/// serialize and what ShardedHistogram::Merged() returns. Decoupling the
/// view from the live atomics lets per-shard stripes merge lock-free.
struct HistogramView {
  int64_t count = 0;
  int64_t sum = 0;
  int64_t min = 0;
  int64_t max = 0;
  int64_t buckets[Histogram::kBucketCount] = {};
};

/// Reads a consistent-enough view of a live histogram (each field is a
/// relaxed load; totals can be mid-update, which regression tooling
/// tolerates the same way it tolerates sampling skew).
HistogramView SnapshotHistogram(const Histogram& histogram);

/// Percentile estimate from the log-scale histogram: the *geometric
/// midpoint* of the power-of-two bucket holding the q-quantile sample,
/// clamped to the recorded [min, max]. A sample in [2^(i-1), 2^i) is
/// estimated as 2^(i-1)·√2, so the estimate is within a factor of √2 of
/// the true order statistic in either direction (DESIGN.md §11) —
/// reporting the bucket's upper bound instead biases every percentile
/// high and can make p50 exceed the exact mean, which is computed from
/// the untruncated sum. Used by ntw_loadgen.
int64_t HistogramPercentile(const HistogramView& view, double q);

/// Per-shard counter for the serving reactors: each shard increments its
/// own cache-line-padded cell, so N reactors counting requests never
/// contend on one line. The merged value() is a lock-free sum at scrape
/// time — writers are never stopped. Shard ids beyond kStripes fold
/// modulo (totals stay exact; only the per-shard attribution folds).
class ShardedCounter {
 public:
  static constexpr int kStripes = 32;

  void Add(int shard, int64_t delta = 1) {
    cells_[Stripe(shard)].value.fetch_add(delta, std::memory_order_relaxed);
  }
  /// Merged total across all shards.
  int64_t value() const;
  /// One shard's contribution (modulo-folded like Add).
  int64_t shard_value(int shard) const {
    return cells_[Stripe(shard)].value.load(std::memory_order_relaxed);
  }
  void Reset();

 private:
  static size_t Stripe(int shard) {
    return static_cast<size_t>(shard) & (kStripes - 1);
  }
  struct alignas(64) Cell {
    std::atomic<int64_t> value{0};
  };
  Cell cells_[kStripes];
};

/// Per-shard histogram: one full log-scale Histogram per stripe, merged
/// lock-free at scrape. Same stripe mapping as ShardedCounter.
class ShardedHistogram {
 public:
  static constexpr int kStripes = 32;

  void Record(int shard, int64_t sample) {
    stripes_[Stripe(shard)].histogram.Record(sample);
  }
  const Histogram& shard(int shard) const {
    return stripes_[Stripe(shard)].histogram;
  }
  /// Lock-free merge of every stripe (sum of counts/sums/buckets,
  /// min-of-mins, max-of-maxes).
  HistogramView Merged() const;
  void Reset();

 private:
  static size_t Stripe(int shard) {
    return static_cast<size_t>(shard) & (kStripes - 1);
  }
  struct alignas(64) Stripes {
    Histogram histogram;
  };
  Stripes stripes_[kStripes];
};

/// Process-wide instrument registry. Thread-safe; instrument pointers are
/// stable for the process lifetime.
class Registry {
 public:
  static Registry& Global();

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Finds or creates the named instrument. Names are dotted lowercase
  /// paths, e.g. "ntw.enumerate.inductor_calls". Each name maps to one
  /// kind — asking for an existing name with a different kind returns a
  /// distinct instrument (the kinds live in separate namespaces; a name
  /// should belong to exactly one kind or the export would emit it twice).
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);
  ShardedCounter* GetShardedCounter(const std::string& name);
  ShardedHistogram* GetShardedHistogram(const std::string& name);

  /// Number of serving shards the export reports per-shard values for
  /// (trims the stripe arrays in ToJson). Defaults to 1; the daemon and
  /// loadgen set it at startup.
  void SetShardCount(int shards);
  int shard_count() const {
    return shard_count_.load(std::memory_order_relaxed);
  }

  /// Zeroes every instrument's value. Pointers stay valid — call sites
  /// caching instruments across a reset keep working.
  void ResetValues();

  /// Serializes all instruments, sorted by name:
  /// Schema history: v4 added the ntw.serve.streaming_xpath_pages /
  /// streaming_flattened_pages / streaming_fallback_* counters.
  ///   {"schema":"ntw-metrics","schema_version":4,"shard_count":N,
  ///    "counters":{...},"gauges":{...},
  ///    "histograms":{name:{count,sum,min,max,buckets:[[lower,count]..]}},
  ///    "shards":{"counters":{name:[v0..]},
  ///              "histograms":{name:[{"count":..,"sum":..}..]}}}
  /// Sharded instruments appear merged in "counters"/"histograms" (so
  /// dashboards keyed on totals keep working) and broken out by shard
  /// under "shards". Histogram buckets with zero count are omitted.
  std::string ToJson() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::unique_ptr<ShardedCounter>> sharded_counters_;
  std::map<std::string, std::unique_ptr<ShardedHistogram>>
      sharded_histograms_;
  std::atomic<int> shard_count_{1};
};

}  // namespace ntw::obs

#endif  // NTW_OBS_METRICS_H_
