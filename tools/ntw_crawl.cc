// ntw_crawl — the fetch→extract→emit ingestion pipeline as a CLI.
//
// Usage:
//   ntw_crawl --wrapper-dir DIR --seeds URL[,URL...] [--out FILE]
//             [--workers N] [--max-depth N] [--max-pages N]
//             [--allow GLOB[,GLOB...]] [--deny GLOB[,GLOB...]]
//             [--rps R] [--burst B] [--domain-parallelism N]
//             [--no-robots] [--robots-ttl SECONDS]
//             [--attribute NAME] [--site SITE] [--timing]
//             [--no-fast-path] [--max-retries N]
//             [--timeout-ms N] [--self-heal] [--metrics-json FILE]
//             [--quiet]
//
// Crawls from the seed URLs (file:// or http://) through the
// deduplicating per-domain frontier, extracts every fetched page with
// the wrapper repository's streaming path (the interpreter for plans
// without a streaming form, or for all of them with --no-fast-path),
// and writes one ntw-crawl-record NDJSON line per (page, attribute) to
// --out (default stdout) in frontier dispatch order — byte-identical to
// offline `ntw_extract --emit ndjson` over the same pages, at any
// --workers.
//
// --self-heal turns on the same drift→re-induce→publish loop the daemon
// runs: detectors observe every extraction, and a drifted (site,
// attribute) is re-learned from retained crawl pages and published back
// to --wrapper-dir mid-crawl (the repair ledger records each publish).

#include <cstdio>
#include <string>
#include <vector>

#include "common/file_util.h"
#include "common/flags.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "crawl/pipeline.h"
#include "obs/metrics.h"
#include "serve/reinduce.h"
#include "serve/wrapper_repository.h"

namespace {

using namespace ntw;

constexpr char kUsage[] =
    "usage: ntw_crawl --wrapper-dir DIR --seeds URL[,URL...]\n"
    "                 [--out FILE] [--workers N] [--max-depth N]\n"
    "                 [--max-pages N] [--allow GLOBS] [--deny GLOBS]\n"
    "                 [--rps R] [--burst B] [--domain-parallelism N]\n"
    "                 [--no-robots] [--robots-ttl SECONDS]\n"
    "                 [--attribute NAME] [--site SITE] [--timing]\n"
    "                 [--no-fast-path] [--max-retries N]\n"
    "                 [--timeout-ms N] [--self-heal]\n"
    "                 [--metrics-json FILE] [--quiet]\n";

std::vector<std::string> SplitList(const std::string& csv) {
  std::vector<std::string> out;
  for (const std::string& part : Split(csv, ',')) {
    if (!part.empty()) out.push_back(part);
  }
  return out;
}

int Run(int argc, char** argv) {
  Result<Flags> flags_or = Flags::Parse(argc, argv);
  if (!flags_or.ok()) {
    std::fprintf(stderr, "%s\n%s", flags_or.status().ToString().c_str(),
                 kUsage);
    return 2;
  }
  const Flags& flags = *flags_or;
  std::vector<std::string> unknown = flags.UnknownFlags(
      {"wrapper-dir", "seeds", "out", "workers", "max-depth", "max-pages",
       "allow", "deny", "rps", "burst", "domain-parallelism", "no-robots",
       "robots-ttl", "attribute", "site", "timing", "no-fast-path",
       "max-retries", "timeout-ms", "self-heal",
       "metrics-json", "quiet", "help"});
  if (!unknown.empty() || flags.Has("help")) {
    for (const std::string& name : unknown) {
      std::fprintf(stderr, "unknown flag --%s\n", name.c_str());
    }
    std::fprintf(stderr, "%s", kUsage);
    return flags.Has("help") ? 0 : 2;
  }

  std::string wrapper_dir = flags.Get("wrapper-dir");
  std::vector<std::string> seeds = SplitList(flags.Get("seeds"));
  for (const std::string& positional : flags.positional()) {
    seeds.push_back(positional);  // Bare URLs work too.
  }
  if (wrapper_dir.empty() || seeds.empty()) {
    std::fprintf(stderr, "--wrapper-dir and --seeds are required\n%s",
                 kUsage);
    return 2;
  }

  crawl::CrawlOptions options;
  Result<int64_t> workers = flags.GetInt("workers", options.workers);
  Result<int64_t> max_depth = flags.GetInt("max-depth", options.max_depth);
  Result<int64_t> max_pages = flags.GetInt("max-pages", options.max_pages);
  Result<int64_t> domain_parallelism =
      flags.GetInt("domain-parallelism", options.domain_parallelism);
  Result<int64_t> max_retries =
      flags.GetInt("max-retries", options.max_retries);
  Result<int64_t> timeout_ms =
      flags.GetInt("timeout-ms", options.fetch.timeout_ms);
  for (const auto* value : {&workers, &max_depth, &max_pages,
                            &domain_parallelism, &max_retries, &timeout_ms}) {
    if (!value->ok()) {
      std::fprintf(stderr, "%s\n%s", value->status().ToString().c_str(),
                   kUsage);
      return 2;
    }
  }
  Result<double> rps =
      flags.GetDouble("rps", options.rate.requests_per_second);
  Result<double> burst = flags.GetDouble("burst", options.rate.burst);
  Result<double> robots_ttl =
      flags.GetDouble("robots-ttl", options.robots_ttl_seconds);
  for (const auto* value : {&rps, &burst, &robots_ttl}) {
    if (!value->ok()) {
      std::fprintf(stderr, "%s\n%s", value->status().ToString().c_str(),
                   kUsage);
      return 2;
    }
  }
  options.workers = static_cast<int>(*workers);
  options.max_depth = static_cast<int>(*max_depth);
  options.max_pages = *max_pages;
  options.domain_parallelism = static_cast<int>(*domain_parallelism);
  options.max_retries = static_cast<int>(*max_retries);
  options.fetch.timeout_ms = static_cast<int>(*timeout_ms);
  options.rate.requests_per_second = *rps;
  options.rate.burst = *burst;
  options.robots_ttl_seconds = *robots_ttl;
  options.allow = SplitList(flags.Get("allow"));
  options.deny = SplitList(flags.Get("deny"));
  options.respect_robots = !flags.Has("no-robots");
  options.attribute = flags.Get("attribute");
  options.fixed_site = flags.Get("site");
  options.timing = flags.Has("timing");
  options.fast_path = !flags.Has("no-fast-path");
  options.self_heal = flags.Has("self-heal");

  serve::WrapperRepository repository(wrapper_dir);
  if (options.self_heal) {
    serve::DriftConfig drift;
    drift.enabled = true;
    repository.SetDriftConfig(drift);
  }
  Status loaded = repository.Load();
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.ToString().c_str());
    return 1;
  }
  std::shared_ptr<const serve::WrapperRepository::Snapshot> snapshot =
      repository.snapshot();
  for (const std::string& error : snapshot->errors) {
    std::fprintf(stderr, "ntw_crawl: skipped wrapper: %s\n", error.c_str());
  }
  bool quiet = flags.Has("quiet");
  if (!quiet) {
    std::fprintf(stderr, "ntw_crawl: loaded %zu wrappers from %s\n",
                 snapshot->TotalWrapperCount(), wrapper_dir.c_str());
  }

  std::unique_ptr<serve::ReinduceWorker> reinducer;
  if (options.self_heal) {
    reinducer = std::make_unique<serve::ReinduceWorker>(
        &repository, serve::ReinduceOptions{});
    reinducer->Start();
  }

  FILE* out = stdout;
  std::string out_path = flags.Get("out");
  if (!out_path.empty() && out_path != "-") {
    out = std::fopen(out_path.c_str(), "wb");
    if (out == nullptr) {
      std::fprintf(stderr, "ntw_crawl: cannot open %s\n", out_path.c_str());
      return 1;
    }
  }

  ThreadPool pool(options.workers);
  crawl::CrawlPipeline pipeline(&repository, &pool, options,
                                reinducer.get());
  crawl::CrawlStats stats = pipeline.Run(
      seeds, [out](std::string_view chunk) {
        std::fwrite(chunk.data(), 1, chunk.size(), out);
      });
  if (out != stdout) std::fclose(out);

  if (reinducer) {
    reinducer->WaitIdle();
    reinducer->Stop();
  }

  if (!quiet) {
    std::fprintf(
        stderr,
        "ntw_crawl: fetched=%lld failed=%lld retries=%lld "
        "robots_denied=%lld records=%lld values=%lld links=%lld "
        "bytes=%lld admitted=%lld deduped=%lld denied=%lld\n",
        static_cast<long long>(stats.pages_fetched),
        static_cast<long long>(stats.pages_failed),
        static_cast<long long>(stats.retries),
        static_cast<long long>(stats.robots_denied),
        static_cast<long long>(stats.records_emitted),
        static_cast<long long>(stats.values_extracted),
        static_cast<long long>(stats.links_discovered),
        static_cast<long long>(stats.bytes_fetched),
        static_cast<long long>(stats.urls_admitted),
        static_cast<long long>(stats.urls_deduped),
        static_cast<long long>(stats.urls_denied));
  }
  if (flags.Has("metrics-json")) {
    Status written = WriteFile(flags.Get("metrics-json"),
                               obs::Registry::Global().ToJson() + "\n");
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
  }
  return stats.pages_failed > 0 ? 3 : 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
