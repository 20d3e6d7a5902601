// Component microbenchmarks (google-benchmark): the building blocks whose
// costs dominate the end-to-end experiments — HTML parsing, xpath
// evaluation, LR extraction, dictionary annotation, record segmentation,
// alignment, KDE scoring, ranking, and the two enumeration algorithms on a
// representative dealer site.

#include <benchmark/benchmark.h>

#include "align/edit_distance.h"
#include "annotate/dictionary_annotator.h"
#include "common/rng.h"
#include "core/enumerate.h"
#include "core/lr_inductor.h"
#include "core/ntw.h"
#include "core/publication_model.h"
#include "core/xpath_inductor.h"
#include "datasets/dealers.h"
#include "html/parser.h"
#include "html/serializer.h"
#include "sitegen/vocab.h"
#include "stats/kde.h"
#include "xpath/evaluator.h"
#include "xpath/parser.h"

namespace {

using namespace ntw;

// One fixed dealer site shared by all benchmarks (generated once).
const datasets::Dataset& Dealers() {
  static const datasets::Dataset* dataset = [] {
    datasets::DealersConfig config;
    config.num_sites = 8;
    return new datasets::Dataset(datasets::MakeDealers(config));
  }();
  return *dataset;
}

const datasets::SiteData& Site() { return Dealers().sites[0]; }

std::string SitePageHtml() {
  return html::Serialize(Site().site.pages.page(0).root());
}

void BM_HtmlParse(benchmark::State& state) {
  std::string source = SitePageHtml();
  for (auto _ : state) {
    Result<html::Document> doc = html::Parse(source);
    benchmark::DoNotOptimize(doc.value().node_count());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(source.size()));
}
BENCHMARK(BM_HtmlParse);

void BM_HtmlSerialize(benchmark::State& state) {
  const html::Document& doc = Site().site.pages.page(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(html::Serialize(doc.root()));
  }
}
BENCHMARK(BM_HtmlSerialize);

void BM_XPathEvaluate(benchmark::State& state) {
  const html::Document& doc = Site().site.pages.page(0);
  xpath::Expr expr =
      std::move(xpath::ParseXPath("//table/tr/td[1]//text()")).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(xpath::Evaluate(expr, doc));
  }
}
BENCHMARK(BM_XPathEvaluate);

void BM_XPathInduce(benchmark::State& state) {
  const datasets::SiteData& data = Site();
  core::XPathInductor inductor;
  const core::NodeSet& labels = data.annotations.at("name");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        inductor.Induce(data.site.pages, labels).extraction.size());
  }
}
BENCHMARK(BM_XPathInduce);

void BM_LrInduce(benchmark::State& state) {
  const datasets::SiteData& data = Site();
  core::LrInductor inductor;
  const core::NodeSet& labels = data.annotations.at("name");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        inductor.Induce(data.site.pages, labels).extraction.size());
  }
}
BENCHMARK(BM_LrInduce);

// A dictionary of `size` entries: 408 names from the DEALERS business-name
// universe (the generated dictionary's size), padded with numbered names
// that occur on no page. The paper's Yahoo! Local dictionary is far larger
// than 408 entries; annotation cost should not grow with it.
std::vector<std::string> PaddedDictionary(size_t size) {
  datasets::DealersConfig config;
  std::vector<std::string> names = sitegen::BusinessNameUniverse(
      config.universe_size, config.seed * 977);
  names.resize(std::min<size_t>(names.size(), 408));
  Rng rng(17);
  while (names.size() < size) {
    names.push_back(sitegen::BusinessName(&rng) + " No. " +
                    std::to_string(names.size()));
  }
  names.resize(size);
  return names;
}

void BM_DictionaryAnnotate(benchmark::State& state) {
  const core::PageSet& pages = Site().site.pages;
  annotate::DictionaryAnnotator annotator(
      PaddedDictionary(static_cast<size_t>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(annotator.Annotate(pages).size());
  }
  state.counters["text_nodes"] = static_cast<double>(pages.TextNodeCount());
}
BENCHMARK(BM_DictionaryAnnotate)->Arg(408)->Arg(4080)->Arg(40800);

void BM_SegmentRecords(benchmark::State& state) {
  const datasets::SiteData& data = Site();
  const core::NodeSet& truth = data.site.truth.at("name");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::SegmentRecords(data.site.pages, truth).size());
  }
}
BENCHMARK(BM_SegmentRecords);

void BM_ListFeatures(benchmark::State& state) {
  const datasets::SiteData& data = Site();
  std::vector<core::Segment> segments =
      core::SegmentRecords(data.site.pages, data.site.truth.at("name"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::ComputeListFeatures(segments).alignment);
  }
}
BENCHMARK(BM_ListFeatures);

void BM_EditDistance(benchmark::State& state) {
  std::vector<int> a, b;
  Rng rng(5);
  for (int i = 0; i < 128; ++i) {
    a.push_back(static_cast<int>(rng.NextBounded(8)));
    b.push_back(static_cast<int>(rng.NextBounded(8)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(align::EditDistanceBounded(a, b, 128));
  }
}
BENCHMARK(BM_EditDistance);

void BM_KdeLogDensity(benchmark::State& state) {
  std::vector<double> sample;
  Rng rng(6);
  for (int i = 0; i < 64; ++i) {
    sample.push_back(rng.NextGaussian(4.0, 1.0));
  }
  stats::KernelDensity kde =
      std::move(stats::KernelDensity::Fit(sample)).value();
  double x = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(kde.LogDensity(x));
    x += 0.1;
    if (x > 8.0) x = 0.0;
  }
}
BENCHMARK(BM_KdeLogDensity);

void BM_EnumerateTopDown(benchmark::State& state) {
  const datasets::SiteData& data = Site();
  core::XPathInductor inductor;
  const core::NodeSet& labels = data.annotations.at("name");
  for (auto _ : state) {
    core::WrapperSpace space =
        core::EnumerateTopDown(inductor, data.site.pages, labels);
    benchmark::DoNotOptimize(space.size());
  }
  state.counters["labels"] = static_cast<double>(labels.size());
}
BENCHMARK(BM_EnumerateTopDown);

void BM_EnumerateBottomUp(benchmark::State& state) {
  const datasets::SiteData& data = Site();
  core::XPathInductor inductor;
  const core::NodeSet& labels = data.annotations.at("name");
  for (auto _ : state) {
    core::WrapperSpace space =
        core::EnumerateBottomUp(inductor, data.site.pages, labels);
    benchmark::DoNotOptimize(space.size());
  }
}
BENCHMARK(BM_EnumerateBottomUp);

void BM_Rank(benchmark::State& state) {
  const datasets::Dataset& dealers = Dealers();
  datasets::Split split = datasets::MakeSplit(dealers);
  datasets::TrainedModels models =
      std::move(datasets::LearnModels(dealers, "name", split.train)).value();
  core::Ranker ranker(models.annotation, models.publication);
  core::LrInductor inductor;
  const datasets::SiteData& data = dealers.sites[split.test[0]];
  const core::NodeSet& labels = data.annotations.at("name");
  core::WrapperSpace space =
      core::EnumerateTopDown(inductor, data.site.pages, labels);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ranker.Rank(space, data.site.pages, labels).size());
  }
  state.counters["candidates"] = static_cast<double>(space.size());
}
BENCHMARK(BM_Rank);

void BM_FullNtwSite(benchmark::State& state) {
  const datasets::Dataset& dealers = Dealers();
  datasets::Split split = datasets::MakeSplit(dealers);
  datasets::TrainedModels models =
      std::move(datasets::LearnModels(dealers, "name", split.train)).value();
  core::Ranker ranker(models.annotation, models.publication);
  core::XPathInductor inductor;
  const datasets::SiteData& data = dealers.sites[split.test[0]];
  const core::NodeSet& labels = data.annotations.at("name");
  for (auto _ : state) {
    Result<core::NtwOutcome> outcome =
        core::LearnNoiseTolerant(inductor, data.site.pages, labels, ranker);
    benchmark::DoNotOptimize(outcome.ok());
  }
}
BENCHMARK(BM_FullNtwSite);

}  // namespace

BENCHMARK_MAIN();
