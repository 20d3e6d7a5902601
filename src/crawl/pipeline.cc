#include "crawl/pipeline.h"

#include <chrono>
#include <thread>
#include <utility>

#include "crawl/record.h"
#include "obs/metrics.h"

namespace ntw::crawl {

namespace {

struct CrawlMetrics {
  obs::Counter* pages_fetched;
  obs::Counter* pages_failed;
  obs::Counter* robots_denied;
  obs::Counter* retries;
  obs::Counter* records_emitted;
  obs::Counter* values_extracted;
  obs::Counter* links_discovered;
  obs::Counter* bytes_fetched;
  obs::Histogram* fetch_latency;
  obs::Histogram* extract_latency;

  static CrawlMetrics& Get() {
    auto& registry = obs::Registry::Global();
    static CrawlMetrics m{
        registry.GetCounter("ntw.crawl.pages_fetched"),
        registry.GetCounter("ntw.crawl.pages_failed"),
        registry.GetCounter("ntw.crawl.robots_denied"),
        registry.GetCounter("ntw.crawl.retries"),
        registry.GetCounter("ntw.crawl.records_emitted"),
        registry.GetCounter("ntw.crawl.values_extracted"),
        registry.GetCounter("ntw.crawl.links_discovered"),
        registry.GetCounter("ntw.crawl.bytes_fetched"),
        registry.GetHistogram("ntw.crawl.fetch_latency_micros"),
        registry.GetHistogram("ntw.crawl.extract_latency_micros"),
    };
    return m;
  }
};

int64_t MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

void EmitQueue::Push(uint64_t seq, std::string chunk) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return seq < next_ + window_; });
  buffered_.emplace(seq, std::move(chunk));
  // Drain the in-order prefix. Whoever completes the window head writes;
  // the lock makes the sink single-writer.
  bool advanced = false;
  for (auto it = buffered_.begin();
       it != buffered_.end() && it->first == next_;
       it = buffered_.begin()) {
    if (!it->second.empty()) sink_(it->second);
    buffered_.erase(it);
    ++next_;
    advanced = true;
  }
  if (advanced) cv_.notify_all();
}

CrawlPipeline::CrawlPipeline(const serve::WrapperRepository* repository,
                             ThreadPool* pool, CrawlOptions options,
                             serve::ReinduceWorker* reinducer)
    : repository_(repository),
      pool_(pool),
      options_(std::move(options)),
      reinducer_(reinducer),
      limiter_(options_.rate),
      frontier_(
          FrontierOptions{options_.allow, options_.deny, options_.max_depth,
                          options_.max_pages, options_.domain_parallelism},
          &limiter_),
      robots_(options_.robots_ttl_seconds) {
  if (options_.workers < 1) options_.workers = 1;
  // A full emit window must always contain a seq some worker owns.
  if (options_.emit_window <= static_cast<size_t>(options_.workers)) {
    options_.emit_window = static_cast<size_t>(options_.workers) + 1;
  }
}

bool CrawlPipeline::RobotsAllows(const Url& url) {
  if (!options_.respect_robots || url.scheme == "file") return true;
  if (url.path == "/robots.txt") return true;
  std::string domain = url.Domain();
  for (;;) {
    std::shared_ptr<const RobotsRules> rules;
    RobotsCache::State state =
        robots_.Lookup(domain, frontier_.NowSeconds(), &rules);
    if (state == RobotsCache::State::kHit) {
      return rules->Allows(url.path);
    }
    if (state == RobotsCache::State::kPending) {
      // Another worker is fetching this domain's robots.txt right now.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    // kFetchNeeded: we own the fetch. Robots fetches bypass the frontier
    // and the token bucket — they gate page fetches, they are not pages.
    Url robots_url = url;
    robots_url.path = "/robots.txt";
    robots_url.query.clear();
    FetchResult fetched = Fetch(robots_url, options_.fetch);
    RobotsRules parsed;  // Missing/404/error robots.txt ⇒ allow-all.
    if (fetched.ok()) {
      parsed = ParseRobots(fetched.body, options_.fetch.user_agent);
    }
    if (parsed.crawl_delay_seconds > 0.0) {
      limiter_.SetCrawlDelay(domain, parsed.crawl_delay_seconds);
    }
    robots_.Put(domain, std::move(parsed), frontier_.NowSeconds());
  }
}

void CrawlPipeline::ExtractPage(const serve::WrapperRepository::Entry& entry,
                                std::string_view site,
                                std::string_view attribute,
                                const std::string& url,
                                const std::string& body, int64_t fetch_micros,
                                std::string* chunk) {
  CrawlMetrics& metrics = CrawlMetrics::Get();
  auto start = std::chrono::steady_clock::now();
  RecordTiming timing;
  timing.enabled = options_.timing;
  timing.fetch_micros = fetch_micros;

  // The serving stack's two extraction paths, byte-identical by the
  // fastpath/streaming equivalence contracts.
  size_t value_count = 0;
  if (options_.fast_path && entry.compiled != nullptr &&
      entry.compiled->has_streaming_form()) {
    core::StreamBufferPool::Lease lease = stream_buffers_.Acquire();
    entry.compiled->ExtractStreaming(body, *lease, &lease->values);
    timing.extract_micros = MicrosSince(start);
    AppendRecordLine(site, url, attribute, lease->values, timing, chunk);
    value_count = lease->values.size();
    if (options_.self_heal) {
      serve::ObserveDrift(entry, 0, body, lease->values.data(),
                          lease->values.size(), reinducer_);
    }
  } else {
    std::vector<std::string> values =
        core::ExtractValuesInterpreted(*entry.wrapper, body);
    timing.extract_micros = MicrosSince(start);
    std::vector<std::string_view> views(values.begin(), values.end());
    AppendRecordLine(site, url, attribute, views, timing, chunk);
    value_count = views.size();
    if (options_.self_heal) {
      serve::ObserveDrift(entry, 0, body, views.data(), views.size(),
                          reinducer_);
    }
  }
  metrics.extract_latency->Record(timing.extract_micros);
  metrics.records_emitted->Add(1);
  metrics.values_extracted->Add(static_cast<int64_t>(value_count));
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.records_emitted;
  stats_.values_extracted += static_cast<int64_t>(value_count);
}

void CrawlPipeline::ExtractSiteFused(
    const core::FusedSiteExtractor& fused,
    const serve::WrapperRepository::SiteEntries& entries,
    std::string_view site, const std::string& url, const std::string& body,
    int64_t fetch_micros, std::string* chunk) {
  CrawlMetrics& metrics = CrawlMetrics::Get();
  auto start = std::chrono::steady_clock::now();
  core::StreamBufferPool::Lease page = stream_buffers_.Acquire();
  core::FusedScratchPool::Lease scratch = fused_scratch_.Acquire();
  fused.ExtractAllStreaming(body, *page, *scratch);
  // The build-and-match cost is shared by every attribute it served; each
  // record reports the whole of it (timing is off on byte-identity runs
  // anyway).
  int64_t scan_micros = MicrosSince(start);
  int64_t records = 0;
  int64_t value_total = 0;
  for (const auto& [attribute, entry] : entries) {
    size_t index = fused.FindAttribute(attribute);
    if (index == std::string_view::npos) {
      // Not covered (tree plan, or no compiled form): the regular
      // per-attribute paths, emitted in place so the line order matches
      // the non-fused loop exactly.
      ExtractPage(*entry, site, attribute, url, body, fetch_micros, chunk);
      continue;
    }
    const std::vector<std::string_view>& values = scratch->values[index];
    RecordTiming timing;
    timing.enabled = options_.timing;
    timing.fetch_micros = fetch_micros;
    timing.extract_micros = scan_micros;
    AppendRecordLine(site, url, attribute, values, timing, chunk);
    if (options_.self_heal) {
      serve::ObserveDrift(*entry, 0, body, values.data(), values.size(),
                          reinducer_);
    }
    metrics.extract_latency->Record(scan_micros);
    ++records;
    value_total += static_cast<int64_t>(values.size());
  }
  metrics.records_emitted->Add(records);
  metrics.values_extracted->Add(value_total);
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.records_emitted += records;
  stats_.values_extracted += value_total;
}

void CrawlPipeline::ProcessItem(FrontierItem* item, std::string* chunk) {
  CrawlMetrics& metrics = CrawlMetrics::Get();
  const Url& url = item->url;
  if (!RobotsAllows(url)) {
    metrics.robots_denied->Add(1);
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.robots_denied;
    return;
  }

  FetchResult fetched = Fetch(url, options_.fetch);
  metrics.fetch_latency->Record(fetched.latency_micros);
  metrics.bytes_fetched->Add(static_cast<int64_t>(fetched.body.size()));
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.bytes_fetched += static_cast<int64_t>(fetched.body.size());
  }

  if (!fetched.ok()) {
    if (fetched.retryable()) {
      limiter_.ReportRetryableFailure(url.Domain(), frontier_.NowSeconds());
      if (item->retries < options_.max_retries) {
        // This seq closes empty; the requeued item gets a fresh seq at
        // its next dispatch.
        FrontierItem retry = *item;
        ++retry.retries;
        frontier_.Requeue(std::move(retry));
        metrics.retries->Add(1);
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.retries;
        return;
      }
    }
    metrics.pages_failed->Add(1);
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.pages_failed;
    return;
  }
  limiter_.ReportSuccess(url.Domain());
  metrics.pages_fetched->Add(1);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.pages_fetched;
  }

  // Extraction: every wrapper the snapshot has for this page's site (or
  // the one configured attribute). A site with no wrappers contributes
  // nothing — link discovery still runs.
  std::string site =
      options_.fixed_site.empty() ? SiteFromUrl(url) : options_.fixed_site;
  std::string serialized = url.Serialize();
  if (!site.empty()) {
    serve::WrapperRepository::PinnedSnapshot snapshot = repository_->Pin();
    // The site's slot: every attribute, ascending, overlay shadowing
    // the pack.
    const serve::WrapperRepository::SiteEntries& entries =
        snapshot->MaterializeSite(site);
    std::shared_ptr<const core::FusedSiteExtractor> fused;
    if (options_.fast_path && options_.attribute.empty() &&
        entries.size() >= 2) {
      fused = snapshot->FindFused(site);
    }
    if (fused != nullptr && !fused->attributes().empty()) {
      ExtractSiteFused(*fused, entries, site, serialized, fetched.body,
                       fetched.latency_micros, chunk);
    } else {
      for (const auto& [attribute, entry] : entries) {
        if (!options_.attribute.empty() && attribute != options_.attribute) {
          continue;
        }
        ExtractPage(*entry, site, attribute, serialized, fetched.body,
                    fetched.latency_micros, chunk);
      }
    }
  }
  repository_->ReclaimRetired();

  // Link discovery, bounded by max_depth at admission.
  if (item->depth < options_.max_depth) {
    std::vector<Url> links;
    AppendLinks(fetched.body, url, &links);
    int64_t discovered = 0;
    for (const Url& link : links) {
      if (frontier_.Add(link, item->depth + 1) ==
          Frontier::AddResult::kAdmitted) {
        ++discovered;
      }
    }
    metrics.links_discovered->Add(discovered);
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.links_discovered += discovered;
  }
}

void CrawlPipeline::WorkerLoop(EmitQueue* emit) {
  FrontierItem item;
  while (frontier_.Next(&item)) {
    std::string chunk;
    ProcessItem(&item, &chunk);
    emit->Push(item.seq, std::move(chunk));
    frontier_.Complete(item);
  }
}

CrawlStats CrawlPipeline::Run(const std::vector<std::string>& seeds,
                              const EmitQueue::Sink& sink) {
  for (const std::string& seed : seeds) {
    Result<Url> url = ParseUrl(seed);
    if (!url.ok()) continue;
    frontier_.Add(*url, 0);
  }
  EmitQueue emit(sink, options_.emit_window);
  // ParallelFor's caller-participates contract: Run() is one of the
  // workers; surplus loop bodies find the frontier drained and exit.
  pool_->ParallelFor(static_cast<size_t>(options_.workers),
                     [&](size_t) { WorkerLoop(&emit); });
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.urls_admitted = frontier_.admitted();
  stats_.urls_deduped = frontier_.duplicates();
  stats_.urls_denied = frontier_.denied();
  return stats_;
}

}  // namespace ntw::crawl
