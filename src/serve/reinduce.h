#ifndef NTW_SERVE_REINDUCE_H_
#define NTW_SERVE_REINDUCE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/result.h"
#include "core/wrapper.h"
#include "serve/drift.h"
#include "serve/wrapper_repository.h"

namespace ntw::serve {

struct ReinduceOptions {
  int threads = 1;
  /// Tasks queued beyond this are dropped (the state re-enters cooldown).
  size_t max_queue = 16;
  /// Minimum dictionary labels found on the retained pages; below this
  /// re-induction fails rather than learn from near-nothing.
  size_t min_labels = 2;
  /// Assumed annotator parameters for the re-induction ranker — the
  /// dictionary labeler is precise (p) but incomplete (r), matching the
  /// paper's business-name annotator regime.
  double annotator_precision = 0.98;
  double annotator_recall = 0.5;
};

/// One queued repair: everything the worker needs, captured at drift time
/// so re-induction is independent of later snapshot churn.
struct ReinduceTask {
  std::string site;
  std::string attribute;
  /// Serialized record of the wrapper that drifted — the incumbent the
  /// repair must beat, and the source of the wrapper kind to re-learn.
  std::string incumbent_record;
  /// Retained request bodies (the drift ring).
  std::vector<std::string> pages;
  /// Values the incumbent extracted while healthy — the re-annotation
  /// dictionary (Lerman-style wrapper maintenance: the old wrapper's
  /// output labels the new template).
  std::vector<std::string> dictionary;
  /// The drifted detector; re-armed via cooldown when the repair is
  /// rejected. May be null in tests.
  std::shared_ptr<DriftState> state;
};

/// Background re-induction worker (DESIGN.md §13): drains drifted
/// (site, attribute) tasks, re-runs NTW enumerate+rank on the retained
/// pages with dictionary re-annotation, and hot-publishes the winner via
/// WrapperRepository::PublishWrapper — but only when it strictly beats
/// the incumbent under the same ranker on the same pages.
class ReinduceWorker {
 public:
  explicit ReinduceWorker(WrapperRepository* repository,
                          ReinduceOptions options = {});
  ~ReinduceWorker();

  ReinduceWorker(const ReinduceWorker&) = delete;
  ReinduceWorker& operator=(const ReinduceWorker&) = delete;

  void Start();
  /// Stops after in-flight tasks finish; queued tasks are dropped into
  /// cooldown. Idempotent; the destructor calls it.
  void Stop();

  /// False when stopped or the queue is full (the caller should put the
  /// state into cooldown).
  bool Enqueue(ReinduceTask task);

  /// Blocks until the queue is empty and no task is in flight. Tests only.
  void WaitIdle();

  /// The outcome of one re-induction, before publish.
  struct Repair {
    core::WrapperPtr wrapper;
    std::string record;
    double score = 0.0;
    double incumbent_score = 0.0;
    bool beats_incumbent = false;
    size_t labels = 0;
  };

  /// The deterministic re-induction pipeline: parse retained pages,
  /// re-annotate with the dictionary, learn a wrapper of the incumbent's
  /// kind with LearnNoiseTolerant, and score incumbent vs candidate with
  /// the identical ranker. Exposed so tests can compute the exact
  /// expected repair for byte-identity assertions.
  static Result<Repair> Reinduce(const ReinduceTask& task,
                                 const ReinduceOptions& options);

 private:
  void Loop();
  void Process(ReinduceTask task);

  WrapperRepository* repository_;
  ReinduceOptions options_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::deque<ReinduceTask> queue_;
  int active_ = 0;
  bool stopping_ = false;
  bool started_ = false;
  std::vector<std::thread> threads_;
};

/// The drift feed of serve and crawl: scores one extraction of `entry`
/// against its drift detector (metric stripe `shard`) and, on a reinduce
/// verdict, hands the retained sample to `reinducer`; a full queue puts
/// the detector into cooldown. No-op when the entry has no detector or
/// `reinducer` is null.
void ObserveDrift(const WrapperRepository::Entry& entry, int shard,
                  const std::string& page_html, const std::string_view* values,
                  size_t count, ReinduceWorker* reinducer);

}  // namespace ntw::serve

#endif  // NTW_SERVE_REINDUCE_H_
