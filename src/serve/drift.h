#ifndef NTW_SERVE_DRIFT_H_
#define NTW_SERVE_DRIFT_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"

namespace ntw::serve {

/// Thresholds for the per-(site, attribute) drift detector. One config is
/// installed on the WrapperRepository before Load(); every DriftState it
/// creates copies it, so changing thresholds requires a reload.
struct DriftConfig {
  bool enabled = true;
  /// Pages observed before the baseline is frozen. The first half feeds
  /// the value filter + re-induction dictionary; the second half measures
  /// the site's natural value-repeat rate against that filter, so the
  /// likelihood signal self-calibrates (a site whose values never repeat
  /// disarms it instead of false-firing).
  int warmup_pages = 64;
  /// Steady-state evaluation cadence, in observed pages per window.
  int evaluate_every = 32;
  /// Consecutive empty extractions that count as drift (armed only when
  /// the baseline itself was not empty-heavy, see empty_arm_ratio).
  int empty_streak_limit = 16;
  /// The empty-streak signal arms only when the baseline empty-page ratio
  /// is at most this (a site that often legitimately serves pages without
  /// the attribute must not trip on a run of them).
  double empty_arm_ratio = 0.25;
  /// The likelihood signal arms only when the baseline known-value ratio
  /// is at least this.
  double likelihood_arm_floor = 0.2;
  /// Drifted when the window's known-value ratio falls below
  /// `likelihood_collapse * baseline known ratio`.
  double likelihood_collapse = 0.3;
  /// Schema-size proxy band: drifted when the window's mean values per
  /// non-empty page leaves [baseline * schema_collapse,
  /// baseline * schema_explosion]. Wide by design — benign record-count
  /// churn must stay inside.
  double schema_collapse = 0.25;
  double schema_explosion = 4.0;
  /// Alignment proxy: drifted when the window's mean value length shifts
  /// by more than this fraction of the baseline mean.
  double length_shift = 1.0;
  /// Consecutive drifted evaluations required before triggering.
  int hysteresis = 2;
  /// Pages ignored after a rejected/failed repair before re-arming.
  int cooldown_pages = 512;
  /// Request bodies retained for re-induction once drift triggers.
  int retain_pages = 4;
  /// Total retained-body byte cap (at least one page is always kept).
  size_t retain_bytes = 1 << 20;
  /// Caps on the warmup-collected value dictionary handed to the
  /// re-induction annotator.
  size_t dictionary_values = 48;
  size_t dictionary_bytes = 1 << 14;
  /// Value-based signals hold fire below this many window values.
  int min_window_values = 4;
};

/// Per-(site, attribute) drift detector (DESIGN.md §13). Lives in the
/// repository's drift registry and is referenced by every snapshot Entry
/// for the pair, so it survives reloads while the wrapper record is
/// unchanged and re-baselines when the wrapper changes.
///
/// Lifecycle: kWarmup (capture baseline: value filter + dictionary, then
/// natural repeat rate) → kSteady (sharded atomic counters only — the
/// /extract hot path performs no allocation and takes no lock) →
/// kCollecting (drift triggered; the next retain_pages request bodies are
/// copied into a bounded ring) → kQueued (a re-induction task has been
/// handed off) → back to kSteady via a fresh state on publish, or via
/// kCooldown when the repair was rejected.
///
/// Signals, all against the baseline frozen at warmup end (the paper's
/// scoring machinery, reduced to streaming form):
///   empty_streak        consecutive failed/empty extractions;
///   likelihood_collapse annotation-likelihood proxy — the fraction of
///                       extracted values recognized by the baseline
///                       value filter collapses;
///   schema_collapse / schema_explosion
///                       P(X) schema-size proxy — mean values per
///                       non-empty page leaves the baseline band;
///   alignment_shift     P(X) alignment proxy — mean value length shifts.
class DriftState {
 public:
  enum class Phase : int {
    kWarmup = 0,
    kSteady,
    kCollecting,
    kQueued,
    kCooldown,
  };
  enum class Action {
    kNone,
    /// The retention ring is full: take the sample and enqueue a repair.
    kReinduce,
  };

  DriftState(std::string site, std::string attribute, std::string record,
             const DriftConfig& config);

  /// Scores one extraction. `values` are the extracted texts (streaming
  /// or interpreted), `page_html` the request body — only copied
  /// on the drifted collection path. Thread-safe; in kSteady it touches
  /// nothing but striped atomics.
  Action Observe(int shard, const std::string_view* values, size_t count,
                 const std::string& page_html);

  /// The re-induction input, taken once after Observe() returned
  /// kReinduce: the retained request bodies plus the warmup value
  /// dictionary (the Lerman-style labeler input).
  struct Sample {
    std::vector<std::string> pages;
    std::vector<std::string> dictionary;
  };
  Sample TakeSample();

  /// Re-arms detection after a rejected or failed repair: the next
  /// cooldown_pages observations are ignored, then the window restarts.
  /// (A successful publish instead replaces this state wholesale.)
  void EnterCooldown();

  Phase phase() const {
    return static_cast<Phase>(phase_.load(std::memory_order_acquire));
  }
  const std::string& site() const { return site_; }
  const std::string& attribute() const { return attribute_; }
  /// The serialized record of the wrapper this state is baselining.
  const std::string& record() const { return record_; }
  int64_t drift_events() const {
    return events_.load(std::memory_order_relaxed);
  }
  int64_t evaluations() const {
    return evaluations_.load(std::memory_order_relaxed);
  }

  /// One JSON object describing this state — the /driftz payload.
  void WriteJson(obs::JsonWriter& json) const;

  static const char* PhaseName(Phase phase);

 private:
  /// Striped steady-state cells: one cache line each so reactor shards
  /// never contend. Monotonic totals; evaluation diffs against the last
  /// checkpoint.
  struct alignas(64) Stripe {
    std::atomic<int64_t> pages{0};
    std::atomic<int64_t> empty_pages{0};
    std::atomic<int64_t> values{0};
    std::atomic<int64_t> value_bytes{0};
    std::atomic<int64_t> known_values{0};
  };
  static constexpr int kStripes = 8;
  static constexpr size_t kFilterWords = 128;  // 8192 bits.

  struct Totals {
    int64_t pages = 0;
    int64_t empty_pages = 0;
    int64_t values = 0;
    int64_t value_bytes = 0;
    int64_t known_values = 0;
  };

  Action ObserveSteady(int shard, const std::string_view* values,
                       size_t count);
  void ObserveWarmupLocked(const std::string_view* values, size_t count);
  void FinishWarmupLocked();
  void Evaluate();
  void Trigger(const char* signal);
  Totals MergeStripes() const;
  bool FilterTest(uint64_t hash) const;
  void FilterInsert(uint64_t hash);

  const std::string site_;
  const std::string attribute_;
  const std::string record_;
  const DriftConfig config_;

  std::atomic<int> phase_{static_cast<int>(Phase::kWarmup)};

  // --- steady-state hot path: striped atomics only -----------------------
  std::array<Stripe, kStripes> stripes_;
  std::atomic<int64_t> empty_streak_{0};
  std::atomic<int> tick_{0};
  std::atomic<bool> evaluating_{false};

  // --- evaluator state (guarded by the evaluating_ flag; atomics so
  // /driftz may read them racily without a data race) ---------------------
  std::atomic<int64_t> last_pages_{0};
  std::atomic<int64_t> last_empty_{0};
  std::atomic<int64_t> last_values_{0};
  std::atomic<int64_t> last_value_bytes_{0};
  std::atomic<int64_t> last_known_{0};
  std::atomic<int> hysteresis_{0};
  std::atomic<const char*> last_signal_{nullptr};

  std::atomic<int64_t> events_{0};
  std::atomic<int64_t> evaluations_{0};
  std::atomic<int> cooldown_left_{0};

  // --- baseline: written under mu_ during warmup, frozen (plain reads)
  // once phase_ is published as kSteady ----------------------------------
  struct Baseline {
    int pages = 0;
    double empty_ratio = 0.0;
    double mean_values_per_page = 0.0;  // Over non-empty pages.
    double mean_value_length = 0.0;
    double known_ratio = 0.0;
    bool armed_empty = false;
    bool armed_likelihood = false;
  };
  Baseline baseline_;
  std::array<uint64_t, kFilterWords> filter_{};

  // --- warmup accumulation + collection ring (under mu_) -----------------
  mutable std::mutex mu_;
  int warmup_seen_ = 0;
  int64_t warm_empty_ = 0;
  int64_t warm_values_ = 0;
  int64_t warm_value_bytes_ = 0;
  int64_t warm_probe_values_ = 0;
  int64_t warm_probe_known_ = 0;
  std::vector<std::string> dictionary_;
  size_t dictionary_bytes_ = 0;
  std::vector<std::string> retained_;
  size_t retained_bytes_ = 0;
};

}  // namespace ntw::serve

#endif  // NTW_SERVE_DRIFT_H_
