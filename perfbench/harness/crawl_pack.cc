// crawl_pack: repeated crawl::CrawlPipeline runs over a file:// tree of
// DEALERS pages, wrappers served from an NTWPACK1 pack.
//
// Every site has an XPath "name" wrapper plus an LR wrapper for each of
// name, zip and phone that has ground truth on the site (2-3 dom_free
// attributes, the fused multi-attribute scan's case). The pack is padded
// with synthetic sites so its directory is far larger than the crawled
// part. Each timed crawl opens a fresh repository on the pack, so every
// site's first page pays lazy materialization and FindFused. This is the
// only workload that runs the fused scan, the frontier, the fetcher and
// the emit queue.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/file_util.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "core/compiled_wrapper.h"
#include "core/fused_matcher.h"
#include "core/lr_inductor.h"
#include "core/wrapper_pack.h"
#include "core/xpath_inductor.h"
#include "crawl/fetcher.h"
#include "crawl/frontier.h"
#include "crawl/pipeline.h"
#include "crawl/record.h"
#include "crawl/url.h"
#include "datasets/dealers.h"
#include "harness/common.h"
#include "harness/corpus.h"
#include "harness/trace.h"
#include "html/arena_dom.h"
#include "html/serializer.h"
#include "serve/wrapper_repository.h"
#include "sitegen/origin.h"

namespace perfbench {

namespace {

using namespace ntw;

constexpr size_t kSites = 64;
constexpr size_t kCandidateSites = 128;
constexpr size_t kPagesPerSite = 12;
// Synthetic sites padding the pack (two wrappers each).
constexpr size_t kPadSites = 10000;
constexpr int kWorkers = 4;
constexpr int kSetupRepetitions = 3;
// Bounds the spans a traced run keeps in memory.
constexpr size_t kMaxTracedCrawls = 30;
constexpr size_t kLatencySlices = 4;

struct Corpus {
  datasets::Dataset dataset;
  /// The crawled sites, in key order (site_0000, ...).
  std::vector<const sitegen::GeneratedSite*> sites;
  std::string origin;
  std::string repo_dir;
  std::string pack_path;
  std::vector<std::string> seeds;
  size_t records = 0;
};

// LR attribute → the ground-truth type it extracts.
const std::map<std::string, std::string>& AttributeTypes() {
  static const std::map<std::string, std::string> types = {
      {"name", "name"}, {"name_lr", "name"}, {"zip_lr", "zip"},
      {"phone_lr", "phone"}};
  return types;
}

std::string SiteKey(size_t s) { return StrFormat("site_%04zu", s); }

Status BuildCorpus(uint64_t seed, const std::string& root, Corpus* corpus) {
  datasets::DealersConfig config;
  config.num_sites = kCandidateSites;
  config.pages_per_site = kPagesPerSite;
  config.seed = seed;
  corpus->dataset = datasets::MakeDealers(config);
  corpus->origin = root + "/origin";
  corpus->repo_dir = root + "/repo";
  corpus->pack_path = root + "/wrappers.ntwpack";

  // The first kSites candidates with a validated XPath name wrapper and at
  // least two validated LR wrappers are crawled, so every seed crawls the
  // same number of sites and pages. The file:// tree gets an index linking
  // every page in sorted order.
  std::string index = "<html><body><ul>\n";
  core::XPathInductor xpath;
  core::LrInductor lr;
  std::vector<WrapperRecord> records;
  for (size_t s = 0; s < corpus->dataset.sites.size() && corpus->sites.size() < kSites;
       ++s) {
    const sitegen::GeneratedSite& site = corpus->dataset.sites[s].site;
    std::vector<std::string> bodies;
    for (size_t p = 0; p < site.pages.size(); ++p) {
      bodies.push_back(html::Serialize(site.pages.page(p).root()));
    }
    std::string key = SiteKey(corpus->sites.size());
    std::vector<WrapperRecord> site_records;
    std::string record = LearnValidatedRecord(xpath, site, bodies, "name");
    if (record.empty()) continue;
    site_records.push_back({key, "name", record});
    for (const char* type : {"name", "zip", "phone"}) {
      record = LearnValidatedRecord(lr, site, bodies, type);
      if (!record.empty()) {
        site_records.push_back({key, std::string(type) + "_lr", record});
      }
    }
    if (site_records.size() < 3) continue;
    corpus->sites.push_back(&site);
    records.insert(records.end(), site_records.begin(), site_records.end());
    NTW_RETURN_IF_ERROR(MakeDirs(corpus->origin + "/" + key));
    for (size_t p = 0; p < bodies.size(); ++p) {
      std::string name = sitegen::OriginCorpus::PageFileName(p);
      NTW_RETURN_IF_ERROR(
          WriteFile(corpus->origin + "/" + key + "/" + name, bodies[p]));
      index += "<li><a href=\"" + key + "/" + name + "\">" + name + "</a></li>\n";
    }
  }
  if (corpus->sites.size() < kSites) {
    return Status::Internal("only " + std::to_string(corpus->sites.size()) +
                            " sites have validated wrappers");
  }
  index += "</ul></body></html>\n";
  NTW_RETURN_IF_ERROR(WriteFile(corpus->origin + "/index.html", index));
  corpus->seeds = {"file://" + corpus->origin + "/index.html"};
  corpus->records = records.size();

  // Directory backend for the interpreted oracle, pack for the crawls.
  NTW_RETURN_IF_ERROR(WriteRepository(records, corpus->repo_dir));
  core::WrapperPackBuilder builder;
  for (const WrapperRecord& record : records) {
    NTW_RETURN_IF_ERROR(builder.Add(record.site, record.attribute, record.record));
  }
  sitegen::SyntheticRepositoryOptions pad;
  pad.sites = kPadSites;
  pad.attrs = 2;
  pad.seed = seed;
  NTW_RETURN_IF_ERROR(sitegen::ForEachSyntheticWrapperRecord(
      pad, [&](const std::string& site, const std::string& attribute,
               const std::string& record) {
        return builder.Add(site, attribute, record);
      }));
  return builder.WriteFile(corpus->pack_path);
}

crawl::CrawlOptions BaseOptions(int workers) {
  crawl::CrawlOptions options;
  options.workers = workers;
  options.max_depth = 1;
  options.rate.requests_per_second = 1e9;
  options.rate.burst = 1e9;
  return options;
}

struct CrawlResult {
  double seconds = 0.0;
  crawl::CrawlStats stats;
  std::string ndjson;
  bool pack_mapped = false;
};

/// One timed unit: a fresh pack-backed repository and a full crawl.
CrawlResult PackCrawl(const Corpus& corpus, ThreadPool* pool) {
  CrawlResult result;
  double start = NowSeconds();
  {
    serve::WrapperRepository repository(
        serve::WrapperRepository::Options{"", corpus.pack_path});
    if (repository.Load().ok()) {
      result.pack_mapped = repository.snapshot()->pack != nullptr;
      crawl::CrawlPipeline pipeline(&repository, pool, BaseOptions(kWorkers));
      result.stats = pipeline.Run(
          corpus.seeds, [&](std::string_view chunk) { result.ndjson.append(chunk); });
    }
  }
  result.seconds = NowSeconds() - start;
  return result;
}

/// The reference: one worker, interpreted extraction, directory backend.
std::string OracleCrawl(const Corpus& corpus) {
  serve::WrapperRepository repository(corpus.repo_dir);
  if (!repository.Load().ok()) return "";
  crawl::CrawlOptions options = BaseOptions(1);
  options.fast_path = false;
  ThreadPool pool(1);
  crawl::CrawlPipeline pipeline(&repository, &pool, options);
  std::string out;
  pipeline.Run(corpus.seeds, [&](std::string_view chunk) { out.append(chunk); });
  return out;
}

/// Macro F1 of every emitted (page, attribute) record against ground truth.
double CrawlF1(const Corpus& corpus, const std::string& ndjson) {
  std::map<std::string, size_t> site_index;
  for (size_t s = 0; s < corpus.sites.size(); ++s) site_index[SiteKey(s)] = s;
  std::map<std::pair<size_t, std::string>, std::vector<std::vector<std::string>>>
      truth;
  double sum = 0.0;
  size_t count = 0;
  std::string site, url, attribute;
  std::vector<std::string> values;
  for (const std::string& line : Split(ndjson, '\n')) {
    if (line.empty()) continue;
    if (!ParseStringField(line, "site", &site) ||
        !ParseStringField(line, "url", &url) ||
        !ParseStringField(line, "attribute", &attribute) ||
        !ParseValues(line, &values) || !site_index.count(site) ||
        !AttributeTypes().count(attribute)) {
      return 0.0;
    }
    size_t s = site_index[site];
    const std::string& type = AttributeTypes().at(attribute);
    auto key = std::make_pair(s, type);
    if (!truth.count(key)) {
      truth[key] = TruthByPage(*corpus.sites[s], type);
    }
    size_t slash = url.rfind("page_");
    size_t page = static_cast<size_t>(std::atoi(url.c_str() + slash + 5));
    sum += MultisetF1(values, truth[key].at(page));
    ++count;
  }
  return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

/// CrawlPipeline's worker loop rebuilt from the library's public pieces
/// (Frontier, Fetch, Snapshot::MaterializeSite/FindFused, the extraction
/// calls, AppendRecordLine, EmitQueue) so each call can carry a span. It
/// must emit the same bytes as the pipeline; the traced run checks that.
class TracedCrawl {
 public:
  TracedCrawl(const Corpus& corpus, Tracer* tracer)
      : corpus_(corpus), tracer_(tracer) {}

  std::string Run(ThreadPool* pool) {
    Tracer::Scope crawl_span(tracer_, "crawl.run");
    serve::WrapperRepository repository(
        serve::WrapperRepository::Options{"", corpus_.pack_path});
    {
      Tracer::Scope span(tracer_, "repo.Load");
      if (!repository.Load().ok()) return "";
    }
    repository_ = &repository;
    crawl::CrawlOptions options = BaseOptions(kWorkers);
    crawl::DomainRateLimiter limiter(options.rate);
    crawl::Frontier frontier(
        crawl::FrontierOptions{{}, {}, options.max_depth, options.max_pages,
                               options.domain_parallelism},
        &limiter);
    frontier_ = &frontier;
    for (const std::string& seed : corpus_.seeds) {
      Result<crawl::Url> url = crawl::ParseUrl(seed);
      if (url.ok()) frontier.Add(*url, 0);
    }
    std::string out;
    crawl::EmitQueue emit([&](std::string_view chunk) { out.append(chunk); },
                          options.emit_window);
    uint64_t parent = crawl_span.id();
    pool->ParallelFor(kWorkers, [&](size_t) { WorkerLoop(&emit, parent); });
    repository_ = nullptr;
    frontier_ = nullptr;
    return out;
  }

  const std::map<std::string, std::string>& bodies() const { return bodies_; }
  /// Sum of FusedSiteExtractor::blob() sizes over the crawled sites.
  size_t automaton_bytes() const { return automaton_bytes_; }
  int64_t pages() const { return pages_; }
  int64_t failed() const { return failed_; }
  int64_t fused_attributes() const { return fused_attributes_; }
  int64_t extracted_attributes() const { return extracted_attributes_; }

 private:
  void WorkerLoop(crawl::EmitQueue* emit, uint64_t parent) {
    crawl::FrontierItem item;
    while (true) {
      bool more;
      {
        Tracer::Scope span(tracer_, "crawl.frontier", 0, parent);
        more = frontier_->Next(&item);
      }
      if (!more) break;
      Tracer::Scope page_span(tracer_, "crawl.page", item.seq + 1, parent);
      std::string chunk;
      ProcessItem(item, &chunk);
      {
        Tracer::Scope span(tracer_, "crawl.emit", item.seq + 1);
        emit->Push(item.seq, std::move(chunk));
      }
      Tracer::Scope span(tracer_, "crawl.frontier", item.seq + 1);
      frontier_->Complete(item);
    }
  }

  /// True for the first caller per site in this crawl.
  bool ClaimCold(std::set<std::string>* seen, const std::string& site) {
    std::lock_guard<std::mutex> lock(mu_);
    return seen->insert(site).second;
  }

  void ProcessItem(const crawl::FrontierItem& item, std::string* chunk) {
    uint64_t op = item.seq + 1;
    crawl::FetchResult fetched;
    {
      Tracer::Scope span(tracer_, "crawl.fetch", op);
      fetched = crawl::Fetch(item.url, crawl::FetchOptions{});
    }
    if (!fetched.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      ++failed_;
      return;
    }
    std::string site = crawl::SiteFromUrl(item.url);
    std::string url = item.url.Serialize();
    if (!site.empty()) {
      serve::WrapperRepository::PinnedSnapshot snapshot = repository_->Pin();
      bool cold = ClaimCold(&materialized_, site);
      std::vector<std::pair<std::string, const serve::WrapperRepository::Entry*>>
          entries;
      {
        Tracer::Scope span(tracer_,
                           cold ? "repo.materialize.cold" : "repo.materialize.warm",
                           op);
        entries = snapshot->MaterializeSite(site);
      }
      std::shared_ptr<const core::FusedSiteExtractor> fused;
      if (entries.size() >= 2) {
        bool first = ClaimCold(&fused_seen_, site);
        Tracer::Scope span(tracer_,
                           first ? "repo.find_fused.cold" : "repo.find_fused.warm",
                           op);
        fused = snapshot->FindFused(site);
        if (first && fused != nullptr) {
          std::lock_guard<std::mutex> lock(mu_);
          automaton_bytes_ += fused->blob().size();
        }
      }
      int64_t fused_count = 0;
      if (fused != nullptr && !fused->attributes().empty()) {
        core::StreamBufferPool::Lease page = stream_buffers_.Acquire();
        core::FusedScratchPool::Lease scratch = fused_scratch_.Acquire();
        {
          Tracer::Scope span(tracer_, "core.fused_scan", op);
          fused->ExtractAllStreaming(fetched.body, *page, *scratch);
        }
        for (const auto& [attribute, entry] : entries) {
          size_t index = fused->FindAttribute(attribute);
          if (index == std::string_view::npos) {
            ExtractOne(*entry, site, attribute, url, fetched.body, op, chunk);
            continue;
          }
          ++fused_count;
          crawl::AppendRecordLine(site, url, attribute, scratch->values[index],
                                  crawl::RecordTiming{}, chunk);
        }
      } else {
        for (const auto& [attribute, entry] : entries) {
          ExtractOne(*entry, site, attribute, url, fetched.body, op, chunk);
        }
      }
      std::lock_guard<std::mutex> lock(mu_);
      fused_attributes_ += fused_count;
      extracted_attributes_ += static_cast<int64_t>(entries.size());
    }
    repository_->ReclaimRetired();
    if (item.depth < 1) {
      std::vector<crawl::Url> links;
      crawl::AppendLinks(fetched.body, item.url, &links);
      Tracer::Scope span(tracer_, "crawl.frontier", op);
      for (const crawl::Url& link : links) frontier_->Add(link, item.depth + 1);
    }
    std::lock_guard<std::mutex> lock(mu_);
    ++pages_;
    if (!site.empty()) bodies_[url] = std::move(fetched.body);
  }

  // The pipeline's per-attribute tiers: streaming for dom_free plans, the
  // arena DOM for the rest.
  void ExtractOne(const serve::WrapperRepository::Entry& entry,
                  const std::string& site, const std::string& attribute,
                  const std::string& url, const std::string& body, uint64_t op,
                  std::string* chunk) {
    if (entry.compiled != nullptr && entry.compiled->dom_free()) {
      core::StreamBufferPool::Lease lease = stream_buffers_.Acquire();
      {
        Tracer::Scope span(tracer_, "core.extract_streaming", op);
        entry.compiled->ExtractStreaming(body, *lease, &lease->values);
      }
      crawl::AppendRecordLine(site, url, attribute, lease->values,
                              crawl::RecordTiming{}, chunk);
    } else if (entry.compiled != nullptr) {
      core::FastBufferPool::Lease lease = buffers_.Acquire();
      {
        Tracer::Scope span(tracer_, "core.extract_arena", op);
        html::ArenaParse(body, &lease->doc);
        entry.compiled->Extract(*lease, &lease->values);
      }
      crawl::AppendRecordLine(site, url, attribute, lease->values,
                              crawl::RecordTiming{}, chunk);
    }
  }

  const Corpus& corpus_;
  Tracer* tracer_;
  const serve::WrapperRepository* repository_ = nullptr;
  crawl::Frontier* frontier_ = nullptr;
  core::FastBufferPool buffers_;
  core::StreamBufferPool stream_buffers_;
  core::FusedScratchPool fused_scratch_;
  std::mutex mu_;
  std::set<std::string> materialized_;
  std::set<std::string> fused_seen_;
  std::map<std::string, std::string> bodies_;
  size_t automaton_bytes_ = 0;
  int64_t pages_ = 0;
  int64_t failed_ = 0;
  int64_t fused_attributes_ = 0;
  int64_t extracted_attributes_ = 0;
};

}  // namespace

Report RunCrawlPack(const Args& args) {
  Report report;
  std::string root = args.work_dir + "/corpus";
  std::vector<double> setup_seconds;
  Corpus corpus;
  for (int rep = 0; rep < (args.trace ? 1 : kSetupRepetitions); ++rep) {
    std::error_code ec;
    std::filesystem::remove_all(root, ec);
    corpus = Corpus();
    double start = NowSeconds();
    Status built = BuildCorpus(args.seed, root, &corpus);
    setup_seconds.push_back(NowSeconds() - start);
    if (!built.ok()) {
      report.Fail("set-up: " + built.ToString());
      report.attempted = 1;
      report.failed = 1;
      return report;
    }
  }
  report.Info("sites", std::to_string(kSites));
  report.Info("pages", std::to_string(kSites * kPagesPerSite));
  report.Info("wrappers", std::to_string(corpus.records));
  report.Info("pack_sites", std::to_string(kSites + kPadSites));
  report.Info("workers", std::to_string(kWorkers));

  // ----- gate: the pack-backed parallel crawl must emit exactly the
  // interpreted 1-worker crawl's bytes.
  std::string oracle = OracleCrawl(corpus);
  ThreadPool pool(kWorkers);
  CrawlResult first = PackCrawl(corpus, &pool);
  if (!first.pack_mapped) report.Fail("the pack did not map");
  if (oracle.empty() || first.ndjson != oracle) {
    report.Fail("crawl output differs from the interpreted oracle (" +
                Digest(first.ndjson) + " vs " + Digest(oracle) + ")");
  }
  double f1 = CrawlF1(corpus, oracle);

  if (!args.trace) {
    std::vector<double> rates;
    std::vector<double> crawl_micros;
    // Crawl times grouped into kLatencySlices windows of the run: the tail
    // is the median of the windows' p99, so one burst of interference from
    // other tenants of the host moves it little.
    std::vector<std::vector<double>> slices(kLatencySlices);
    double begin = NowSeconds();
    while (rates.empty() || NowSeconds() - begin < args.seconds) {
      size_t slice = std::min(
          static_cast<size_t>((NowSeconds() - begin) / args.seconds * kLatencySlices),
          kLatencySlices - 1);
      CrawlResult result = PackCrawl(corpus, &pool);
      report.attempted += result.stats.pages_fetched + result.stats.pages_failed;
      report.failed += result.stats.pages_failed;
      if (result.ndjson != oracle) report.Fail("a timed crawl diverged");
      rates.push_back(static_cast<double>(result.stats.pages_fetched) /
                      result.seconds);
      crawl_micros.push_back(result.seconds * 1e6);
      slices[slice].push_back(result.seconds * 1e6);
    }
    std::vector<double> slice_p99;
    for (const std::vector<double>& micros : slices) {
      if (!micros.empty()) slice_p99.push_back(Quantile(micros, 0.99));
    }
    report.Info("crawls", std::to_string(rates.size()));
    report.Add("setup_s", Median(setup_seconds), "s");
    report.Add("ops_per_s", Median(rates), "1/s");
    report.Add("latency_p50_us", Quantile(crawl_micros, 0.5), "us");
    report.Add("latency_p99_us", Median(slice_p99), "us");
    report.Add("ntw_f1", f1, "ratio");
    report.Add("peak_rss_mb",
               static_cast<double>(SelfPeakRssBytes()) / 1048576.0, "MB");
    return report;
  }

  // ----- traced run: the rebuilt worker loop, untraced and traced crawls
  // alternating; their time ratio is the tracing overhead.
  Tracer tracer;
  std::vector<double> untraced;
  std::vector<double> traced;
  std::unique_ptr<TracedCrawl> replica;
  double begin = NowSeconds();
  while (traced.empty() ||
         (NowSeconds() - begin < args.seconds && traced.size() < kMaxTracedCrawls)) {
    for (Tracer* t : {static_cast<Tracer*>(nullptr), &tracer}) {
      replica = std::make_unique<TracedCrawl>(corpus, t);
      double start = NowSeconds();
      std::string out = replica->Run(&pool);
      (t == nullptr ? untraced : traced).push_back(NowSeconds() - start);
      report.attempted += replica->pages() + replica->failed();
      report.failed += replica->failed();
      if (out != oracle) report.Fail("the rebuilt crawl loop diverged");
    }
  }
  const TracedCrawl& last = *replica;
  std::vector<Tracer::Span> spans = tracer.Spans();
  tracer.WriteCsv(args.state_dir + "/crawl_pack.trace.csv");

  double pages = static_cast<double>(Stats(spans, "crawl.page").count);
  std::vector<double> cold = Durations(spans, "repo.materialize.cold");
  report.Add("repo.pack_open_us", Stats(spans, "repo.Load").mean_us(), "us");
  report.Add("repo.materialize_us_p50", Quantile(cold, 0.5), "us");
  report.Add("repo.materialize_us_p99", Quantile(cold, 0.99), "us");
  report.Add("repo.find_fused_us", Stats(spans, "repo.find_fused.cold").mean_us(),
             "us");
  report.Add("repo.cold_page_share", static_cast<double>(cold.size()) / pages,
             "ratio");
  std::error_code ec;
  report.Add("repo.pack_bytes",
             static_cast<double>(std::filesystem::file_size(corpus.pack_path, ec)),
             "bytes");
  report.Add("repo.automaton_bytes", static_cast<double>(last.automaton_bytes()),
             "bytes");
  report.Add("crawl.fetch_us", Stats(spans, "crawl.fetch").mean_us(), "us");
  report.Add("core.fused_scan_us", Stats(spans, "core.fused_scan").mean_us(), "us");

  // The per-attribute alternative (ROADMAP item 3), timed on the same
  // pages outside the crawl next to a solo fused scan, with the values
  // cross-checked: fused and per-attribute must agree.
  {
    serve::WrapperRepository repository(
        serve::WrapperRepository::Options{"", corpus.pack_path});
    repository.Load();
    serve::WrapperRepository::PinnedSnapshot snapshot = repository.Pin();
    core::StreamPageBuffer fused_page;
    core::StreamPageBuffer attr_page;
    core::FusedScratch scratch;
    std::vector<double> fused_us;
    std::vector<double> per_attr_us;
    int64_t mismatches = 0;
    for (int rep = 0; rep < 3; ++rep) {
      for (const auto& [url, body] : last.bodies()) {
        Result<crawl::Url> parsed = crawl::ParseUrl(url);
        std::shared_ptr<const core::FusedSiteExtractor> fused =
            snapshot->FindFused(crawl::SiteFromUrl(*parsed));
        if (fused == nullptr) continue;
        double start = NowSeconds();
        fused->ExtractAllStreaming(body, fused_page, scratch);
        fused_us.push_back((NowSeconds() - start) * 1e6);
        double total = 0.0;
        for (size_t i = 0; i < fused->attributes().size(); ++i) {
          start = NowSeconds();
          fused->attributes()[i].plan->ExtractStreaming(body, attr_page,
                                                       &attr_page.values);
          total += (NowSeconds() - start) * 1e6;
          if (attr_page.values != scratch.values[i]) ++mismatches;
          attr_page.Clear();
        }
        per_attr_us.push_back(total);
        fused_page.Clear();
        scratch.Clear();
      }
    }
    if (mismatches > 0) {
      report.Fail(std::to_string(mismatches) +
                  " fused/per-attribute value mismatches");
    }
    report.Add("core.fused_scan_solo_us", Median(fused_us), "us");
    report.Add("core.per_attr_extract_us", Median(per_attr_us), "us");
  }
  report.Add("core.fused_attrs_per_page",
             static_cast<double>(last.fused_attributes()) /
                 static_cast<double>(last.bodies().size()),
             "count");
  report.Add("core.fused_coverage_ratio",
             static_cast<double>(last.fused_attributes()) /
                 static_cast<double>(last.extracted_attributes()),
             "ratio");
  report.Add("crawl.frontier_us", Stats(spans, "crawl.frontier").total_us / pages,
             "us");
  report.Add("crawl.emit_us", Stats(spans, "crawl.emit").mean_us(), "us");
  double crawl_us = Stats(spans, "crawl.run").total_us;
  report.Add("crawl.worker_busy_share",
             Stats(spans, "crawl.page").total_us / (kWorkers * crawl_us), "ratio");
  // The page span's children must account for it (self time >= 0).
  double page_self = SelfMicros(spans, "crawl.page");
  report.Add("crawl.page_self_us", page_self / pages, "us");
  if (page_self < 0.0) report.Fail("negative page self time");
  report.Add("trace.overhead_ratio", Median(traced) / Median(untraced), "ratio");
  report.Info("traced_crawls", std::to_string(traced.size()));
  return report;
}

}  // namespace perfbench
