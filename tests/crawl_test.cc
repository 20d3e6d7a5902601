// End-to-end tests of the fetch→extract→emit crawl pipeline
// (src/crawl/pipeline.cc, DESIGN.md §14) against generated origins:
// byte-identity across worker counts and transports (file:// vs a live
// in-process HTTP origin) and against the interpreted oracle on both
// repository backends, frontier predicate pushdown (deny globs,
// depth, max-pages, dedup), robots.txt enforcement, 429 backoff with
// retry, and the self-healing hand-off — a mid-corpus template mutation
// that the crawl's drift detectors catch, re-induce, publish, and record
// in the repair quality ledger.

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/file_util.h"
#include "common/thread_pool.h"
#include "core/wrapper_pack.h"
#include "crawl/pipeline.h"
#include "gtest/gtest.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/static_files.h"
#include "serve/wrapper_repository.h"
#include "sitegen/mutate.h"
#include "sitegen/origin.h"

namespace ntw::crawl {
namespace {

std::string UniqueRoot(const std::string& tag) {
  static int counter = 0;
  return ::testing::TempDir() + "ntw_crawl_" + tag + "_" +
         std::to_string(::getpid()) + "_" + std::to_string(counter++);
}

/// A small written-to-disk origin (4 sites × 4 pages, XPATH + LR wrapper
/// per site) shared by the transport and frontier tests.
class CrawlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = UniqueRoot("origin");
    sitegen::OriginOptions options;
    options.sites = 4;
    options.pages_per_site = 4;
    corpus_ = sitegen::MakeOriginCorpus(options);
    ASSERT_TRUE(sitegen::WriteOriginTree(corpus_, root_ + "/origin").ok());
    ASSERT_TRUE(
        sitegen::WriteOriginWrapperRepository(corpus_, root_ + "/repo").ok());
    repository_ =
        std::make_unique<serve::WrapperRepository>(root_ + "/repo");
    ASSERT_TRUE(repository_->Load().ok());
  }

  void TearDown() override {
    std::error_code ignored;
    std::filesystem::remove_all(root_, ignored);
  }

  std::string IndexSeed() const {
    return "file://" + root_ + "/origin/index.html";
  }

  /// One full crawl; returns the emitted NDJSON bytes.
  std::string Crawl(CrawlOptions options, std::vector<std::string> seeds,
                    CrawlStats* stats_out = nullptr) {
    ThreadPool pool(options.workers);
    CrawlPipeline pipeline(repository_.get(), &pool, options);
    std::string emitted;
    CrawlStats stats = pipeline.Run(seeds, [&emitted](std::string_view c) {
      emitted.append(c);
    });
    if (stats_out != nullptr) *stats_out = stats;
    return emitted;
  }

  std::string root_;
  sitegen::OriginCorpus corpus_;
  std::unique_ptr<serve::WrapperRepository> repository_;
};

TEST_F(CrawlTest, ByteIdenticalAcrossWorkerCounts) {
  CrawlOptions options;
  options.max_depth = 1;
  options.workers = 1;
  CrawlStats serial_stats;
  std::string serial = Crawl(options, {IndexSeed()}, &serial_stats);
  // 16 pages + the index, two wrappers per page.
  EXPECT_EQ(serial_stats.pages_fetched, 17);
  EXPECT_EQ(serial_stats.records_emitted, 32);
  EXPECT_GT(serial_stats.values_extracted, 0);
  EXPECT_EQ(serial_stats.pages_failed, 0);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial.back(), '\n');

  for (int workers : {2, 4, 8}) {
    options.workers = workers;
    EXPECT_EQ(Crawl(options, {IndexSeed()}), serial)
        << workers << " workers diverged from serial";
  }
}

TEST_F(CrawlTest, StreamingMatchesInterpreterOnBothBackends) {
  // The oracle: one worker, interpreted extraction, directory backend.
  CrawlOptions oracle_options;
  oracle_options.max_depth = 1;
  oracle_options.workers = 1;
  oracle_options.fast_path = false;
  std::string oracle = Crawl(oracle_options, {IndexSeed()});
  ASSERT_FALSE(oracle.empty());

  CrawlOptions options;
  options.max_depth = 1;
  options.workers = 4;
  EXPECT_EQ(Crawl(options, {IndexSeed()}), oracle) << "directory backend";

  // The same records served from a wrapper pack.
  core::WrapperPackBuilder builder;
  auto site_dirs = ListSubdirectories(root_ + "/repo");
  ASSERT_TRUE(site_dirs.ok());
  for (const std::string& site_dir : *site_dirs) {
    auto files = ListFiles(site_dir, ".wrapper");
    ASSERT_TRUE(files.ok());
    for (const std::string& file : *files) {
      std::filesystem::path path(file);
      auto record = ReadFile(file);
      ASSERT_TRUE(record.ok());
      ASSERT_TRUE(builder
                      .Add(path.parent_path().filename().string(),
                           path.stem().string(), *record)
                      .ok());
    }
  }
  std::string pack = root_ + "/wrappers.pack";
  ASSERT_TRUE(builder.WriteFile(pack).ok());
  repository_ = std::make_unique<serve::WrapperRepository>(
      serve::WrapperRepository::Options{std::string(), pack});
  ASSERT_TRUE(repository_->Load().ok());
  ASSERT_NE(repository_->snapshot()->pack, nullptr);
  EXPECT_EQ(Crawl(options, {IndexSeed()}), oracle) << "pack backend";
}

TEST_F(CrawlTest, EmissionFollowsFrontierDispatchOrder) {
  CrawlOptions options;
  options.max_depth = 1;
  options.workers = 4;
  std::string emitted = Crawl(options, {IndexSeed()});
  // Pages are linked (and therefore dispatched) in sorted order, so the
  // first record is the first page of the first site and every line's
  // url is ≥ its predecessor's.
  EXPECT_NE(emitted.find("site_0000/page_0000.html"), std::string::npos);
  std::string previous;
  size_t pos = 0;
  while (pos < emitted.size()) {
    size_t eol = emitted.find('\n', pos);
    ASSERT_NE(eol, std::string::npos);
    std::string line = emitted.substr(pos, eol - pos);
    pos = eol + 1;
    size_t url = line.find("\"url\":\"");
    ASSERT_NE(url, std::string::npos);
    size_t begin = url + 7;
    size_t end = line.find('"', begin);
    ASSERT_NE(end, std::string::npos);
    std::string current = line.substr(begin, end - begin);
    EXPECT_GE(current, previous);
    previous = current;
  }
}

TEST_F(CrawlTest, HttpCrawlMatchesFileCrawl) {
  CrawlOptions options;
  options.max_depth = 1;
  options.workers = 4;
  std::string file_output = Crawl(options, {IndexSeed()});

  serve::StaticFileHandler handler(root_ + "/origin", "index.html");
  serve::HttpServer server(
      serve::ServerOptions{},
      [&handler](const serve::HttpRequest& r) { return handler.Handle(r); });
  ASSERT_TRUE(server.Bind().ok());
  std::thread serving([&server] { EXPECT_TRUE(server.Run().ok()); });
  std::string base = "http://127.0.0.1:" + std::to_string(server.port());

  options.rate.requests_per_second = 1e6;
  options.rate.burst = 64;
  CrawlStats stats;
  std::string http_output =
      Crawl(options, {base + "/index.html"}, &stats);
  server.RequestShutdown();
  serving.join();

  EXPECT_EQ(stats.pages_failed, 0);
  // Same records modulo the url prefix.
  std::string normalized;
  size_t pos = 0;
  const std::string needle = base;
  const std::string replacement = "file://" + root_ + "/origin";
  while (true) {
    size_t hit = http_output.find(needle, pos);
    if (hit == std::string::npos) {
      normalized.append(http_output, pos, std::string::npos);
      break;
    }
    normalized.append(http_output, pos, hit - pos);
    normalized.append(replacement);
    pos = hit + needle.size();
  }
  EXPECT_EQ(normalized, file_output);
}

TEST_F(CrawlTest, RobotsDisallowSkipsSiteAndMissingRobotsAllowsAll) {
  // Re-write the tree with a robots.txt that bans site_0000.
  corpus_.options.robots_txt =
      "User-agent: *\nDisallow: /site_0000/\n";
  sitegen::OriginCorpus banned = sitegen::MakeOriginCorpus(corpus_.options);
  ASSERT_TRUE(sitegen::WriteOriginTree(banned, root_ + "/origin").ok());

  serve::StaticFileHandler handler(root_ + "/origin", "index.html");
  serve::HttpServer server(
      serve::ServerOptions{},
      [&handler](const serve::HttpRequest& r) { return handler.Handle(r); });
  ASSERT_TRUE(server.Bind().ok());
  std::thread serving([&server] { EXPECT_TRUE(server.Run().ok()); });
  std::string base = "http://127.0.0.1:" + std::to_string(server.port());

  CrawlOptions options;
  options.max_depth = 1;
  options.workers = 2;
  options.rate.requests_per_second = 1e6;
  options.rate.burst = 64;
  CrawlStats stats;
  std::string output = Crawl(options, {base + "/index.html"}, &stats);
  server.RequestShutdown();
  serving.join();

  EXPECT_EQ(stats.robots_denied, 4);  // site_0000's four pages.
  EXPECT_EQ(stats.records_emitted, 24);  // Three sites × 4 pages × 2.
  EXPECT_EQ(output.find("site_0000"), std::string::npos);
  EXPECT_NE(output.find("site_0001"), std::string::npos);
}

/// Flaky-origin handler: answers 429 to the first request for every
/// path, then delegates to the static tree — each page needs exactly one
/// retry.
class FlakyOnceHandler {
 public:
  explicit FlakyOnceHandler(std::string root)
      : files_(std::move(root), "index.html") {}

  serve::HttpResponse Handle(const serve::HttpRequest& request) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (seen_.insert(request.path).second) {
        serve::HttpResponse response;
        response.status = 429;
        response.body = "slow down";
        return response;
      }
    }
    return files_.Handle(request);
  }

 private:
  serve::StaticFileHandler files_;
  std::mutex mu_;
  std::set<std::string> seen_;
};

TEST_F(CrawlTest, RetryableFailuresBackOffAndRecover) {
  CrawlOptions options;
  options.max_depth = 1;
  options.workers = 2;
  std::string file_output = Crawl(options, {IndexSeed()});

  FlakyOnceHandler handler(root_ + "/origin");
  serve::HttpServer server(
      serve::ServerOptions{},
      [&handler](const serve::HttpRequest& r) { return handler.Handle(r); });
  ASSERT_TRUE(server.Bind().ok());
  std::thread serving([&server] { EXPECT_TRUE(server.Run().ok()); });
  std::string base = "http://127.0.0.1:" + std::to_string(server.port());

  options.rate.requests_per_second = 1e6;
  options.rate.burst = 64;
  // Tiny penalties: the test asserts the backoff path runs, not that it
  // waits politely for seconds.
  options.rate.initial_backoff_seconds = 0.01;
  options.rate.max_backoff_seconds = 0.05;
  CrawlStats stats;
  std::string http_output =
      Crawl(options, {base + "/index.html"}, &stats);
  server.RequestShutdown();
  serving.join();

  EXPECT_EQ(stats.pages_failed, 0);
  EXPECT_GE(stats.retries, 17);  // Every fetch 429'd once.
  // Retries must not duplicate or reorder records: identical bytes.
  std::string normalized;
  size_t pos = 0;
  while (true) {
    size_t hit = http_output.find(base, pos);
    if (hit == std::string::npos) {
      normalized.append(http_output, pos, std::string::npos);
      break;
    }
    normalized.append(http_output, pos, hit - pos);
    normalized.append("file://" + root_ + "/origin");
    pos = hit + base.size();
  }
  EXPECT_EQ(normalized, file_output);
}

TEST_F(CrawlTest, PredicatePushdownDenyDepthMaxPagesDedup) {
  // Deny glob: site_0001 never fetched.
  CrawlOptions options;
  options.max_depth = 1;
  options.workers = 2;
  options.deny = {"*/site_0001/*"};
  CrawlStats stats;
  std::string output = Crawl(options, {IndexSeed()}, &stats);
  EXPECT_EQ(stats.urls_denied, 4);
  EXPECT_EQ(output.find("site_0001"), std::string::npos);
  EXPECT_NE(output.find("site_0002"), std::string::npos);

  // Depth 0: the seed only, no link following — and the index page has
  // no wrappers, so nothing is emitted.
  options = CrawlOptions();
  options.max_depth = 0;
  EXPECT_EQ(Crawl(options, {IndexSeed()}, &stats), "");
  EXPECT_EQ(stats.pages_fetched, 1);
  EXPECT_EQ(stats.links_discovered, 0);

  // max_pages: admission stops at the cap (seed + 5 pages).
  options = CrawlOptions();
  options.max_depth = 1;
  options.max_pages = 6;
  Crawl(options, {IndexSeed()}, &stats);
  EXPECT_EQ(stats.pages_fetched, 6);
  EXPECT_EQ(stats.urls_admitted, 6);

  // Dedup: the same seed twice crawls once.
  options = CrawlOptions();
  options.max_depth = 1;
  std::string once = Crawl(options, {IndexSeed()});
  std::string twice = Crawl(options, {IndexSeed(), IndexSeed()}, &stats);
  EXPECT_EQ(stats.urls_deduped, 1);
  EXPECT_EQ(twice, once);
}

// ---------------------------------------------------------------------
// Self-healing hand-off: mid-corpus template mutation.
// ---------------------------------------------------------------------

serve::DriftConfig FastDrift() {
  serve::DriftConfig config;
  config.warmup_pages = 8;
  config.evaluate_every = 4;
  config.empty_streak_limit = 4;
  config.hysteresis = 1;
  config.cooldown_pages = 8;
  config.retain_pages = 2;
  config.min_window_values = 4;
  return config;
}

TEST(CrawlSelfHealTest, MutationMidCrawlReinducesAndLedgersTheRepair) {
  std::string root = UniqueRoot("heal");
  std::string repo = root + "/repo";
  std::string origin = root + "/origin/example.com";
  ASSERT_TRUE(MakeDirs(origin).ok());
  ASSERT_TRUE(MakeDirs(repo + "/example.com").ok());
  // An LR delimiter wrapper a <b> → <strong> redesign breaks completely.
  ASSERT_TRUE(WriteFile(repo + "/example.com/name.wrapper",
                        "LR\t<b>\t</b>\n")
                  .ok());

  // 48 pages: the first 12 healthy (warmup + baseline), the rest
  // mutated. The same value pool appears throughout, so the detector's
  // dictionary (built while healthy) can label the retained mutated
  // pages for re-induction.
  sitegen::Mutation mutation;
  mutation.kind = sitegen::MutationKind::kDelimiterTextChange;
  const char* kValues[] = {"alpha cars", "bravo vans", "carol autos",
                           "delta trucks"};
  std::vector<std::string> seeds;
  for (int p = 0; p < 48; ++p) {
    std::string html = "<html><body><h1>listing page " +
                       std::to_string(p) + "</h1>";
    for (int v = 0; v < 4; ++v) {
      html += "<div><b>" + std::string(kValues[(p + v) % 4]) +
              "</b><i>details</i></div>";
    }
    html += "</body></html>";
    if (p >= 12) html = sitegen::MutatePage(html, mutation);
    char name[32];
    std::snprintf(name, sizeof(name), "page_%04d.html", p);
    ASSERT_TRUE(WriteFile(origin + "/" + name, html).ok());
    seeds.push_back("file://" + origin + "/" + name);
  }

  serve::WrapperRepository repository(repo);
  repository.SetDriftConfig(FastDrift());
  ASSERT_TRUE(repository.Load().ok());
  serve::ReinduceWorker reinducer(&repository, serve::ReinduceOptions{});
  reinducer.Start();

  CrawlOptions options;
  options.workers = 1;  // Healthy-then-mutated observation order matters.
  options.self_heal = true;
  ThreadPool pool(1);
  CrawlPipeline pipeline(&repository, &pool, options, &reinducer);
  std::string emitted;
  CrawlStats stats = pipeline.Run(
      seeds, [&emitted](std::string_view c) { emitted.append(c); });
  reinducer.WaitIdle();
  reinducer.Stop();

  EXPECT_EQ(stats.pages_fetched, 48);
  EXPECT_EQ(stats.records_emitted, 48);

  // The repair happened: ledger entry, repaired delimiters on disk.
  std::vector<serve::WrapperRepository::RepairRecord> ledger =
      repository.repair_ledger();
  ASSERT_FALSE(ledger.empty());
  EXPECT_EQ(ledger[0].site, "example.com");
  EXPECT_EQ(ledger[0].attribute, "name");
  EXPECT_GT(ledger[0].repair_score, 0.0);
  EXPECT_GT(ledger[0].published_version, 0u);
  Result<std::string> repaired = ReadFile(repo + "/example.com/name.wrapper");
  ASSERT_TRUE(repaired.ok());
  EXPECT_NE(repaired->find("strong"), std::string::npos);

  // The ledger is durable: a fresh repository over the same root reads
  // it back from .repairs.tsv.
  serve::WrapperRepository reloaded(repo);
  ASSERT_TRUE(reloaded.Load().ok());
  std::vector<serve::WrapperRepository::RepairRecord> persisted =
      reloaded.repair_ledger();
  ASSERT_EQ(persisted.size(), ledger.size());
  EXPECT_EQ(persisted[0].site, "example.com");
  EXPECT_DOUBLE_EQ(persisted[0].repair_score, ledger[0].repair_score);

  // And /driftz surfaces it.
  serve::ExtractService service(&repository, nullptr);
  serve::HttpRequest request;
  request.method = "GET";
  request.path = "/driftz";
  serve::HttpResponse response = service.Handle(request);
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"repairs\":[{"), std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("\"repair_score\":"), std::string::npos);

  std::error_code ignored;
  std::filesystem::remove_all(root, ignored);
}

}  // namespace
}  // namespace ntw::crawl
