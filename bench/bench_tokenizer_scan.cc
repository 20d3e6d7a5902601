// HTML lexing microbenchmarks (google-benchmark): the three consumers of
// the lexical grammar in html/scan.h — the Tokenizer, the StreamPage
// build and the arena parse — on a representative serialized dealer
// page, in bytes/sec.
//
// `--out PATH` writes the runs as a schema-stamped ntw-scan-bench JSON
// document (BENCH_scan.json in CI); `--smoke` shortens every benchmark to
// a CI-sized sanity run.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "common/build_info.h"
#include "common/file_util.h"
#include "common/obs_export.h"
#include "datasets/dealers.h"
#include "html/arena_dom.h"
#include "html/serializer.h"
#include "html/stream_page.h"
#include "html/tokenizer.h"
#include "obs/json.h"

namespace {

using namespace ntw;

// One fixed dealer site shared by all benchmarks (generated once). 30
// records per page ≈ the serving benchmark's listing-page workload.
std::string DealerPageHtml() {
  static const std::string* source = [] {
    datasets::DealersConfig config;
    config.num_sites = 1;
    config.min_records = 30;
    config.max_records = 30;
    datasets::Dataset dealers = datasets::MakeDealers(config);
    return new std::string(
        html::Serialize(dealers.sites[0].site.pages.page(0).root()));
  }();
  return *source;
}

void BM_Tokenize(benchmark::State& state) {
  std::string source = DealerPageHtml();
  html::Token token;
  for (auto _ : state) {
    size_t tokens = 0;
    html::Tokenizer tokenizer(source);
    while (tokenizer.Next(&token)) ++tokens;
    benchmark::DoNotOptimize(tokens);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(source.size()));
}
BENCHMARK(BM_Tokenize);

// Dealer pages carry &amp;-references, so this is the patched
// (copy-on-write) tier — the one the serving streaming path hits.
void BM_StreamPageBuild(benchmark::State& state) {
  std::string source = DealerPageHtml();
  html::StreamPage page;
  for (auto _ : state) {
    page.Build(source);
    benchmark::DoNotOptimize(page.stream().size());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(source.size()));
}
BENCHMARK(BM_StreamPageBuild);

// The same page through the arena parse: the DOM fast path's per-page
// cost, the baseline the streaming tiers beat.
void BM_ArenaParse(benchmark::State& state) {
  std::string source = DealerPageHtml();
  html::ArenaDocument doc;
  for (auto _ : state) {
    html::ArenaParse(source, &doc);
    benchmark::DoNotOptimize(doc.stream().size());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(source.size()));
}
BENCHMARK(BM_ArenaParse);

// --- JSON artifact ---------------------------------------------------------

struct CapturedRun {
  std::string name;
  int64_t iterations = 0;
  double real_time_ns = 0;      // adjusted real time per iteration
  double bytes_per_second = 0;  // from SetBytesProcessed
};

/// Console output stays the primary human surface; this reporter also
/// captures each per-iteration run so main() can serialize the artifact.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  explicit CapturingReporter(std::vector<CapturedRun>* sink) : sink_(sink) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      CapturedRun captured;
      captured.name = run.benchmark_name();
      captured.iterations = run.iterations;
      captured.real_time_ns = run.GetAdjustedRealTime();
      auto bytes = run.counters.find("bytes_per_second");
      if (bytes != run.counters.end()) {
        captured.bytes_per_second = static_cast<double>(bytes->second);
      }
      sink_->push_back(std::move(captured));
    }
    ConsoleReporter::ReportRuns(reports);
  }

 private:
  std::vector<CapturedRun>* sink_;
};

std::string RunsToJson(const std::vector<CapturedRun>& runs, bool smoke) {
  obs::JsonWriter json;
  BeginSchemaDocument(json, "ntw-scan-bench", 2);
  json.Key("config");
  json.BeginObject();
  json.KV("smoke", smoke);
  json.EndObject();
  WriteMachineInfo(json);
  json.Key("benchmarks");
  json.BeginArray();
  for (const CapturedRun& run : runs) {
    json.BeginObject();
    json.KV("name", run.name);
    json.KV("iterations", run.iterations);
    json.KV("real_time_ns", run.real_time_ns);
    json.KV("bytes_per_second", run.bytes_per_second);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.Take() + "\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  bool smoke = false;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  // Smoke mode keeps the artifact schema identical and just shrinks the
  // measurement window to a CI-friendly sanity check.
  static char kMinTime[] = "--benchmark_min_time=0.01";
  if (smoke) passthrough.push_back(kMinTime);
  int pass_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, passthrough.data())) {
    return 1;
  }

  std::vector<CapturedRun> runs;
  CapturingReporter reporter(&runs);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (!out_path.empty()) {
    ntw::Status status = ntw::WriteFile(out_path, RunsToJson(runs, smoke));
    if (!status.ok()) {
      std::fprintf(stderr, "bench_tokenizer_scan: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s (%zu benchmarks)\n", out_path.c_str(),
                 runs.size());
  }
  return 0;
}
