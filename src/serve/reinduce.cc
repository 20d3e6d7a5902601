#include "serve/reinduce.h"

#include <chrono>
#include <utility>

#include "annotate/dictionary_annotator.h"
#include "core/hlrt_inductor.h"
#include "core/lr_inductor.h"
#include "core/ntw.h"
#include "core/publication_model.h"
#include "core/wrapper_store.h"
#include "core/xpath_inductor.h"
#include "html/parser.h"
#include "obs/metrics.h"

namespace ntw::serve {

namespace {

struct ReinduceMetrics {
  obs::Counter* attempts;
  obs::Counter* published;
  obs::Counter* rejected;
  obs::Counter* failed;
  obs::Counter* queue_rejected;
  obs::Gauge* queue_depth;
  obs::Histogram* latency_micros;

  static ReinduceMetrics& Get() {
    static ReinduceMetrics m{
        obs::Registry::Global().GetCounter("ntw.serve.reinduce_attempts"),
        obs::Registry::Global().GetCounter("ntw.serve.reinduce_published"),
        obs::Registry::Global().GetCounter("ntw.serve.reinduce_rejected"),
        obs::Registry::Global().GetCounter("ntw.serve.reinduce_failed"),
        obs::Registry::Global().GetCounter(
            "ntw.serve.reinduce_queue_rejected"),
        obs::Registry::Global().GetGauge("ntw.serve.reinduce_queue_depth"),
        obs::Registry::Global().GetHistogram(
            "ntw.serve.reinduce_latency_micros"),
    };
    return m;
  }
};

/// Scores an arbitrary extraction exactly as Ranker::Rank scores a
/// candidate under kFull, so the incumbent-vs-repair comparison is
/// apples-to-apples.
double ScoreExtraction(const core::Ranker& ranker, const core::PageSet& pages,
                       const core::NodeSet& labels,
                       const core::NodeSet& extraction) {
  return ranker.annotation_model().LogProb(labels, extraction) +
         ranker.publication_model().LogProb(pages, extraction);
}

}  // namespace

ReinduceWorker::ReinduceWorker(WrapperRepository* repository,
                               ReinduceOptions options)
    : repository_(repository), options_(options) {
  if (options_.threads < 1) options_.threads = 1;
}

ReinduceWorker::~ReinduceWorker() { Stop(); }

void ReinduceWorker::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_ || stopping_) return;
  started_ = true;
  threads_.reserve(static_cast<size_t>(options_.threads));
  for (int i = 0; i < options_.threads; ++i) {
    threads_.emplace_back([this] { Loop(); });
  }
}

void ReinduceWorker::Stop() {
  std::vector<std::thread> joinable;
  std::deque<ReinduceTask> dropped;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
    dropped.swap(queue_);
    joinable.swap(threads_);
  }
  cv_.notify_all();
  for (std::thread& thread : joinable) thread.join();
  // Dropped tasks never ran; re-arm their detectors so a restart of
  // drift detection is possible if the process keeps serving.
  for (ReinduceTask& task : dropped) {
    if (task.state != nullptr) task.state->EnterCooldown();
  }
  ReinduceMetrics::Get().queue_depth->Set(0);
}

bool ReinduceWorker::Enqueue(ReinduceTask task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ || !started_ || queue_.size() >= options_.max_queue) {
      ReinduceMetrics::Get().queue_rejected->Add(1);
      return false;
    }
    queue_.push_back(std::move(task));
    ReinduceMetrics::Get().queue_depth->Set(
        static_cast<int64_t>(queue_.size()));
  }
  cv_.notify_one();
  return true;
}

void ReinduceWorker::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ReinduceWorker::Loop() {
  for (;;) {
    ReinduceTask task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
      ReinduceMetrics::Get().queue_depth->Set(
          static_cast<int64_t>(queue_.size()));
    }
    Process(std::move(task));
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
    }
    idle_cv_.notify_all();
  }
}

void ReinduceWorker::Process(ReinduceTask task) {
  ReinduceMetrics& metrics = ReinduceMetrics::Get();
  metrics.attempts->Add(1);
  auto start = std::chrono::steady_clock::now();
  Result<Repair> repair = Reinduce(task, options_);
  bool published = false;
  if (repair.ok() && repair->beats_incumbent) {
    Status status = repository_->PublishWrapper(task.site, task.attribute,
                                                repair->wrapper);
    if (status.ok()) {
      published = true;
      metrics.published->Add(1);
      // Ledger the publish with its before/after evidence: what the
      // incumbent scored on the retained pages vs what the repair scored.
      WrapperRepository::RepairRecord entry;
      entry.site = task.site;
      entry.attribute = task.attribute;
      entry.incumbent_score = repair->incumbent_score;
      entry.repair_score = repair->score;
      entry.labels = static_cast<int64_t>(repair->labels);
      repository_->RecordRepair(std::move(entry));
    } else {
      metrics.failed->Add(1);
    }
  } else if (repair.ok()) {
    metrics.rejected->Add(1);
  } else {
    metrics.failed->Add(1);
  }
  // A successful publish installs a fresh DriftState (re-baselined on the
  // repaired wrapper); anything else re-arms the old one after a cooldown.
  if (!published && task.state != nullptr) task.state->EnterCooldown();
  metrics.latency_micros->Record(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

Result<ReinduceWorker::Repair> ReinduceWorker::Reinduce(
    const ReinduceTask& task, const ReinduceOptions& options) {
  if (task.pages.empty()) {
    return Status::InvalidArgument("reinduce: no retained pages");
  }
  if (task.dictionary.empty()) {
    return Status::FailedPrecondition("reinduce: empty dictionary");
  }
  core::PageSet pages;
  for (const std::string& body : task.pages) {
    Result<html::Document> doc = html::Parse(body);
    if (!doc.ok()) continue;  // One bad body must not sink the repair.
    pages.AddPage(std::move(*doc));
  }
  if (pages.size() == 0) {
    return Status::InvalidArgument("reinduce: no parsable retained pages");
  }

  // Re-annotate the drifted pages with the values the incumbent extracted
  // while healthy — the noisy-label input the NTW framework was built for.
  annotate::DictionaryAnnotatorOptions annotator_options;
  annotator_options.min_entry_length = 2;
  annotate::DictionaryAnnotator annotator(task.dictionary,
                                          annotator_options);
  core::NodeSet labels = annotator.Annotate(pages);
  if (labels.size() < options.min_labels) {
    return Status::FailedPrecondition(
        "reinduce: dictionary matched too few nodes");
  }

  // Re-learn a wrapper of the incumbent's kind.
  std::string kind = task.incumbent_record.substr(
      0, task.incumbent_record.find('\t'));
  std::unique_ptr<core::WrapperInductor> inductor;
  core::NtwOptions ntw_options;
  if (kind == "LR") {
    inductor = std::make_unique<core::LrInductor>();
    ntw_options.algorithm = core::EnumAlgorithm::kTopDown;
  } else if (kind == "HLRT") {
    inductor = std::make_unique<core::HlrtInductor>();
    // HLRT is not feature-based; only the blackbox bottom-up enumeration
    // applies (Theorem 2 regime).
    ntw_options.algorithm = core::EnumAlgorithm::kBottomUp;
  } else if (kind == "XPATH") {
    inductor = std::make_unique<core::XPathInductor>();
    ntw_options.algorithm = core::EnumAlgorithm::kTopDown;
  } else {
    return Status::InvalidArgument("reinduce: unsupported wrapper kind '" +
                                   kind + "'");
  }

  core::AnnotationModel annotation(options.annotator_precision,
                                   options.annotator_recall);
  // P(X) fitted from the labels' own list features on these pages: the
  // best available stand-in for the site's publication profile after a
  // redesign (KDE's bandwidth floor keeps the single-sample fit proper).
  core::ListFeatures label_features =
      core::ComputeListFeatures(core::SegmentRecords(pages, labels));
  Result<core::PublicationModel> publication =
      core::PublicationModel::Fit({label_features});
  if (!publication.ok()) return publication.status();
  core::Ranker ranker(annotation, std::move(*publication),
                      core::RankerVariant::kFull);

  NTW_ASSIGN_OR_RETURN(
      core::NtwOutcome outcome,
      core::LearnNoiseTolerant(*inductor, pages, labels, ranker,
                               ntw_options));
  if (outcome.best.wrapper == nullptr) {
    return Status::Internal("reinduce: learner returned no wrapper");
  }
  NTW_ASSIGN_OR_RETURN(std::string record,
                       core::SerializeWrapper(*outcome.best.wrapper));

  // The bar to clear: the incumbent, re-scored on the same pages with the
  // same ranker. An empty incumbent extraction scores the additive
  // constant; any candidate that recovers true values beats it.
  NTW_ASSIGN_OR_RETURN(core::WrapperPtr incumbent,
                       core::DeserializeWrapper(task.incumbent_record));
  core::NodeSet incumbent_extraction = incumbent->Extract(pages);
  double incumbent_score =
      ScoreExtraction(ranker, pages, labels, incumbent_extraction);

  Repair repair;
  repair.wrapper = outcome.best.wrapper;
  repair.record = std::move(record);
  repair.score = outcome.best_score.total;
  repair.incumbent_score = incumbent_score;
  repair.labels = labels.size();
  repair.beats_incumbent = !outcome.best.extraction.empty() &&
                           repair.score > incumbent_score &&
                           repair.record != task.incumbent_record;
  return repair;
}

void ObserveDrift(const WrapperRepository::Entry& entry, int shard,
                  const std::string& page_html, const std::string_view* values,
                  size_t count, ReinduceWorker* reinducer) {
  DriftState* state = entry.drift.get();
  if (state == nullptr || reinducer == nullptr) return;
  if (state->Observe(shard, values, count, page_html) !=
      DriftState::Action::kReinduce) {
    return;
  }
  DriftState::Sample sample = state->TakeSample();
  ReinduceTask task;
  task.site = state->site();
  task.attribute = state->attribute();
  task.incumbent_record = state->record();
  task.pages = std::move(sample.pages);
  task.dictionary = std::move(sample.dictionary);
  task.state = entry.drift;
  if (!reinducer->Enqueue(std::move(task))) state->EnterCooldown();
}

}  // namespace ntw::serve
