// learn_dealers: offline noise-tolerant learning on DEALERS (Fig. 2(d,e)).
//
// Models (annotation p/r, publication KDEs) are fit on the even sites;
// each timed unit is one odd site: annotate its pages with the
// dictionary annotator, then LearnNoiseTolerant (TopDown) with the LR and
// the XPATH inductor. The run goes over the held-out half in whole passes,
// so every pass does identical work. No serving code runs.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "annotate/dictionary_annotator.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/lr_inductor.h"
#include "core/metrics.h"
#include "core/ntw.h"
#include "core/xpath_inductor.h"
#include "datasets/dealers.h"
#include "harness/common.h"
#include "harness/trace.h"
#include "sitegen/vocab.h"

namespace perfbench {

namespace {

using namespace ntw;

// Sites generated per run; the odd half (kSites / 2) is one timed pass.
constexpr size_t kSites = 96;
constexpr int kSetupRepetitions = 3;
constexpr size_t kLatencySlices = 4;

struct Setup {
  datasets::DealersConfig config;
  datasets::Dataset dataset;
  datasets::Split split;
  std::unique_ptr<core::Ranker> ranker;
  std::unique_ptr<annotate::DictionaryAnnotator> annotator;
  double model_fit_ms = 0.0;
};

// The dictionary MakeDealers annotates "name" with (its DealerUniverse):
// the same universe and shuffle, rebuilt so the timed unit can annotate.
// The pre-timing gate proves it reproduces the dataset's annotations.
std::vector<std::string> DealersDictionary(const datasets::DealersConfig& config) {
  std::vector<std::string> names =
      sitegen::BusinessNameUniverse(config.universe_size, config.seed * 977);
  size_t dict_size = static_cast<size_t>(config.dictionary_fraction *
                                         static_cast<double>(names.size()));
  Rng rng(config.seed * 31 + 7);
  std::vector<size_t> order(names.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.Shuffle(&order);
  std::vector<std::string> dictionary;
  for (size_t i = 0; i < dict_size; ++i) dictionary.push_back(names[order[i]]);
  return dictionary;
}

std::unique_ptr<Setup> MakeSetup(uint64_t seed, Tracer* tracer) {
  auto setup = std::make_unique<Setup>();
  setup->config.num_sites = kSites;
  setup->config.seed = seed;
  setup->dataset = datasets::MakeDealers(setup->config);
  setup->split = datasets::MakeSplit(setup->dataset);
  double start = NowSeconds();
  Result<datasets::TrainedModels> models = [&] {
    Tracer::Scope span(tracer, "datasets.LearnModels");
    return datasets::LearnModels(setup->dataset, "name", setup->split.train);
  }();
  setup->model_fit_ms = (NowSeconds() - start) * 1e3;
  if (!models.ok()) {
    std::fprintf(stderr, "perfbench: LearnModels: %s\n",
                 models.status().ToString().c_str());
    return nullptr;
  }
  setup->ranker = std::make_unique<core::Ranker>(models->annotation,
                                                 models->publication);
  setup->annotator = std::make_unique<annotate::DictionaryAnnotator>(
      DealersDictionary(setup->config));
  return setup;
}

/// Forwards to a feature-based inductor and records one span per Induce
/// call, parented to the enumeration that issued it (Induce runs on pool
/// threads, so the parent is explicit).
class TracingInductor : public core::FeatureBasedInductor {
 public:
  TracingInductor(const core::FeatureBasedInductor* base, Tracer* tracer,
                  const char* span_name, uint64_t op, uint64_t parent)
      : base_(base), tracer_(tracer), span_name_(span_name), op_(op),
        parent_(parent) {}

  core::Induction Induce(const core::PageSet& pages,
                         const core::NodeSet& labels) const override {
    Tracer::Scope span(tracer_, span_name_, op_, parent_);
    return base_->Induce(pages, labels);
  }
  std::string Name() const override { return base_->Name(); }
  std::vector<core::AttrHandle> Attributes(
      const core::PageSet& pages, const core::NodeSet& labels) const override {
    return base_->Attributes(pages, labels);
  }
  std::vector<core::NodeSet> Subdivide(const core::PageSet& pages,
                                       const core::NodeSet& s,
                                       core::AttrHandle attr) const override {
    return base_->Subdivide(pages, s, attr);
  }

 private:
  const core::FeatureBasedInductor* base_;
  Tracer* tracer_;
  const char* span_name_;
  uint64_t op_;
  uint64_t parent_;
};

struct Kind {
  const char* suffix;
  const core::FeatureBasedInductor* inductor;
  const char* learn_span;
  const char* enumerate_span;
  const char* induce_span;
  const char* rank_span;
};

/// The winning wrapper and its F1 for one (site, inductor).
struct Learned {
  bool ok = false;
  std::string wrapper;
  double f1 = 0.0;
  size_t space_size = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
};

/// One timed unit through the shipped entry point, LearnNoiseTolerant.
std::vector<Learned> LearnSite(const Setup& setup, const datasets::SiteData& data,
                               const std::vector<Kind>& kinds) {
  const core::PageSet& pages = data.site.pages;
  core::NodeSet labels = setup.annotator->Annotate(pages);
  std::vector<Learned> out;
  for (const Kind& kind : kinds) {
    Learned learned;
    Result<core::NtwOutcome> outcome =
        core::LearnNoiseTolerant(*kind.inductor, pages, labels, *setup.ranker);
    if (outcome.ok()) {
      learned.ok = true;
      learned.wrapper = outcome->best.wrapper->ToString();
      learned.f1 =
          core::Evaluate(outcome->best.extraction, data.site.truth.at("name")).f1;
      learned.space_size = outcome->space_size;
      learned.cache_hits = outcome->cache_hits;
      learned.cache_misses = outcome->cache_misses;
    }
    out.push_back(std::move(learned));
  }
  return out;
}

/// The same unit, split at the layer boundaries (annotate, enumerate with
/// every Induce call, rank) so each can carry a span. Must pick the same
/// winners as LearnSite; the traced run checks that it does.
std::vector<Learned> LearnSiteTraced(const Setup& setup,
                                     const datasets::SiteData& data,
                                     const std::vector<Kind>& kinds,
                                     Tracer* tracer, uint64_t op) {
  Tracer::Scope site_span(tracer, "learn.site", op);
  const core::PageSet& pages = data.site.pages;
  core::NodeSet labels;
  {
    Tracer::Scope span(tracer, "annotate.Annotate", op);
    labels = setup.annotator->Annotate(pages);
  }
  std::vector<Learned> out;
  for (const Kind& kind : kinds) {
    Tracer::Scope learn_span(tracer, kind.learn_span, op);
    Learned learned;
    Result<core::WrapperSpace> space = Status::NotFound("not enumerated");
    {
      Tracer::Scope span(tracer, kind.enumerate_span, op);
      TracingInductor traced(kind.inductor, tracer, kind.induce_span, op,
                             span.id());
      space = core::Enumerate(core::EnumAlgorithm::kTopDown, traced, pages,
                              labels);
    }
    if (space.ok() && !space->candidates.empty()) {
      std::vector<core::ScoredCandidate> ranking;
      {
        Tracer::Scope span(tracer, kind.rank_span, op);
        ranking = setup.ranker->Rank(*space, pages, labels);
      }
      const core::Candidate& best =
          space->candidates[ranking.front().candidate_index];
      learned.ok = true;
      learned.wrapper = best.wrapper->ToString();
      learned.f1 = core::Evaluate(best.extraction, data.site.truth.at("name")).f1;
      learned.space_size = space->size();
      learned.cache_hits = space->cache_hits;
      learned.cache_misses = space->cache_misses;
    }
    out.push_back(std::move(learned));
  }
  return out;
}

/// Compares a pass against the first one; any change in a winning
/// wrapper or its F1 is a divergence.
int64_t CountDivergences(const std::vector<std::vector<Learned>>& reference,
                         const std::vector<std::vector<Learned>>& pass) {
  int64_t divergences = 0;
  for (size_t s = 0; s < reference.size(); ++s) {
    for (size_t k = 0; k < reference[s].size(); ++k) {
      const Learned& a = reference[s][k];
      const Learned& b = pass[s][k];
      if (a.ok != b.ok || a.wrapper != b.wrapper || a.f1 != b.f1) ++divergences;
    }
  }
  return divergences;
}

}  // namespace

Report RunLearnDealers(const Args& args) {
  Report report;
  // Sites are learned one at a time on one thread (ntw_eval --threads 1).
  // With the default 4-thread pool the engine's per-site fan-out (a few
  // dozen small Induce and scoring tasks) cost more than it saved on a
  // 4-core host, and pass times swung ~1.7x with pool hand-off latency.
  ThreadPool::SetGlobalThreads(1);
  core::LrInductor lr;
  core::XPathInductor xpath;
  const std::vector<Kind> kinds = {
      {"lr", &lr, "ntw.learn.lr", "core.enumerate.lr", "core.induce.lr",
       "core.rank.lr"},
      {"xpath", &xpath, "ntw.learn.xpath", "core.enumerate.xpath",
       "core.induce.xpath", "core.rank.xpath"},
  };

  // ----- set-up: generation + model fit, repeated; the last one is used.
  std::unique_ptr<Tracer> tracer;
  if (args.trace) tracer = std::make_unique<Tracer>();
  std::vector<double> setup_seconds;
  std::unique_ptr<Setup> setup;
  for (int rep = 0; rep < (args.trace ? 1 : kSetupRepetitions); ++rep) {
    setup.reset();
    double start = NowSeconds();
    setup = MakeSetup(args.seed, tracer.get());
    setup_seconds.push_back(NowSeconds() - start);
    if (setup == nullptr) {
      report.Fail("set-up failed");
      report.attempted = 1;
      report.failed = 1;
      return report;
    }
  }
  const datasets::Dataset& dataset = setup->dataset;
  std::vector<const datasets::SiteData*> test_sites;
  for (size_t index : setup->split.test) {
    test_sites.push_back(&dataset.sites[index]);
  }

  // ----- gate: the rebuilt dictionary annotates exactly as the dataset.
  for (const datasets::SiteData* data : test_sites) {
    core::NodeSet labels = setup->annotator->Annotate(data->site.pages);
    if (!(labels == data->annotations.at("name"))) {
      report.Fail("dictionary annotator disagrees with the dataset on " +
                  data->site.name);
    }
  }

  // First pass through the shipped entry point: the reference winners and
  // F1, and the warm-up.
  std::vector<std::vector<Learned>> reference;
  for (const datasets::SiteData* data : test_sites) {
    reference.push_back(LearnSite(*setup, *data, kinds));
  }
  double f1_sum = 0.0;
  int64_t f1_count = 0;
  std::string winners;
  for (size_t s = 0; s < reference.size(); ++s) {
    for (size_t k = 0; k < kinds.size(); ++k) {
      const Learned& learned = reference[s][k];
      if (!learned.ok) {
        ++report.failed;
        report.Fail("no wrapper learned for " + test_sites[s]->site.name);
      }
      f1_sum += learned.f1;
      ++f1_count;
      winners += learned.wrapper + "\n";
    }
  }
  double f1 = f1_count > 0 ? f1_sum / static_cast<double>(f1_count) : 0.0;

  // Winners and F1 must also match every earlier run of this seed in this
  // checkout.
  {
    std::string digest = Digest(winners) + " " + Fmt(f1);
    std::string path = args.state_dir + "/learn_dealers_seed" +
                       std::to_string(args.seed) + ".ref";
    std::ifstream in(path);
    std::string previous;
    if (std::getline(in, previous)) {
      if (previous != digest) {
        report.Fail("winning wrappers or F1 differ from an earlier run (" +
                    previous + " vs " + digest + ")");
      }
    } else {
      std::ofstream(path) << digest << "\n";
    }
  }

  report.Info("sites", std::to_string(dataset.sites.size()));
  report.Info("timed_sites_per_pass", std::to_string(test_sites.size()));
  report.Info("inductors", "lr,xpath");
  report.Info("threads", std::to_string(ThreadPool::GlobalThreads()));

  if (!args.trace) {
    // ----- timed: whole passes over the held-out half.
    // Latency is that of one pass (the held-out half learned once). A
    // site's own time depends on which sites a seed draws; a pass averages
    // them. The tail is the median of kLatencySlices windows' p99, so one
    // burst of interference from other tenants of the host moves it little.
    std::vector<double> pass_rates;
    std::vector<double> pass_micros;
    std::vector<std::vector<double>> slices(kLatencySlices);
    int64_t divergences = 0;
    double begin = NowSeconds();
    while (pass_rates.empty() || NowSeconds() - begin < args.seconds) {
      std::vector<std::vector<Learned>> pass;
      double pass_start = NowSeconds();
      size_t slice = std::min(
          static_cast<size_t>((pass_start - begin) / args.seconds * kLatencySlices),
          kLatencySlices - 1);
      for (const datasets::SiteData* data : test_sites) {
        pass.push_back(LearnSite(*setup, *data, kinds));
        ++report.attempted;
      }
      double pass_seconds = NowSeconds() - pass_start;
      pass_rates.push_back(static_cast<double>(test_sites.size()) / pass_seconds);
      pass_micros.push_back(pass_seconds * 1e6);
      slices[slice].push_back(pass_seconds * 1e6);
      divergences += CountDivergences(reference, pass);
    }
    if (divergences > 0) {
      report.Fail(std::to_string(divergences) +
                  " learned wrappers changed between passes");
    }
    report.Info("passes", std::to_string(pass_rates.size()));
    report.Add("setup_s", Median(setup_seconds), "s");
    report.Add("ops_per_s", Median(pass_rates), "1/s");
    std::vector<double> slice_p99;
    for (const std::vector<double>& micros : slices) {
      if (!micros.empty()) slice_p99.push_back(Quantile(micros, 0.99));
    }
    report.Add("latency_p50_us", Median(pass_micros), "us");
    report.Add("latency_p99_us", Median(slice_p99), "us");
    report.Add("ntw_f1", f1, "ratio");
    report.Add("peak_rss_mb", static_cast<double>(SelfPeakRssBytes()) / 1048576.0,
               "MB");
    return report;
  }

  // ----- traced run: the layer-split unit, untraced and traced passes
  // alternating; their time ratio is the tracing overhead.
  double untraced_seconds = 0.0;
  double traced_seconds = 0.0;
  int64_t divergences = 0;
  uint64_t op = 1;
  double begin = NowSeconds();
  while (traced_seconds == 0.0 || NowSeconds() - begin < args.seconds) {
    for (Tracer* t : {static_cast<Tracer*>(nullptr), tracer.get()}) {
      std::vector<std::vector<Learned>> pass;
      double start = NowSeconds();
      for (const datasets::SiteData* data : test_sites) {
        pass.push_back(LearnSiteTraced(*setup, *data, kinds, t, op++));
        ++report.attempted;
      }
      (t == nullptr ? untraced_seconds : traced_seconds) += NowSeconds() - start;
      divergences += CountDivergences(reference, pass);
    }
  }
  if (divergences > 0) {
    report.Fail(std::to_string(divergences) +
                " winners differ between LearnNoiseTolerant and the"
                " layer-split replica");
  }
  std::vector<Tracer::Span> spans = tracer->Spans();
  tracer->WriteCsv(args.state_dir + "/learn_dealers.trace.csv");

  double sites = static_cast<double>(Stats(spans, "learn.site").count);
  report.Add("annotate.ms_per_site",
             Stats(spans, "annotate.Annotate").mean_us() / 1e3, "ms");
  double accounted = Stats(spans, "annotate.Annotate").total_us;
  for (const Kind& kind : kinds) {
    std::string s = kind.suffix;
    SpanStats enumerate = Stats(spans, kind.enumerate_span);
    SpanStats induce = Stats(spans, kind.induce_span);
    SpanStats rank = Stats(spans, kind.rank_span);
    double self_ms = SelfMicros(spans, kind.enumerate_span) /
                     static_cast<double>(enumerate.count) / 1e3;
    if (self_ms < 0.0) report.Fail("negative enumerate self time (" + s + ")");
    accounted += Stats(spans, kind.learn_span).total_us;
    int64_t hits = 0;
    int64_t misses = 0;
    double space = 0.0;
    for (const auto& site : reference) {
      const Learned& learned = site[&kind - kinds.data()];
      hits += learned.cache_hits;
      misses += learned.cache_misses;
      space += static_cast<double>(learned.space_size);
    }
    report.Add("core.enumerate_ms." + s, enumerate.mean_us() / 1e3, "ms");
    report.Add("core.induce_us." + s, induce.mean_us(), "us");
    report.Add("core.induce_calls." + s,
               static_cast<double>(induce.count) / sites, "count");
    report.Add("core.enumerate_self_ms." + s, self_ms, "ms");
    report.Add("core.cache_hit_ratio." + s,
               hits + misses > 0 ? static_cast<double>(hits) /
                                       static_cast<double>(hits + misses)
                                 : 0.0,
               "ratio");
    report.Add("core.space_size." + s,
               space / static_cast<double>(reference.size()), "count");
    report.Add("core.rank_ms." + s, rank.mean_us() / 1e3, "ms");
  }
  report.Add("datasets.model_fit_ms", setup->model_fit_ms, "ms");
  // Annotate + both learns against the whole unit: the layer spans must
  // cover at least 95% of it.
  double share = accounted / Stats(spans, "learn.site").total_us;
  report.Add("learn.accounted_share", share, "ratio");
  if (share > 1.0001 || share < 0.95) {
    report.Fail("layer spans account for " + Fmt(share) + " of each site");
  }
  report.Add("trace.overhead_ratio", traced_seconds / untraced_seconds, "ratio");
  return report;
}

}  // namespace perfbench
