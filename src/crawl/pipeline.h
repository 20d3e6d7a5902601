#ifndef NTW_CRAWL_PIPELINE_H_
#define NTW_CRAWL_PIPELINE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/compiled_wrapper.h"
#include "core/fused_matcher.h"
#include "crawl/fetcher.h"
#include "crawl/frontier.h"
#include "crawl/robots.h"
#include "crawl/url.h"
#include "serve/reinduce.h"
#include "serve/wrapper_repository.h"

namespace ntw::crawl {

struct CrawlOptions {
  /// Fetch/extract workers. The pipeline runs them on the caller's
  /// ThreadPool via ParallelFor, so Run() participates and byte-identical
  /// output needs no dedicated threads.
  int workers = 4;

  // Frontier admission (URL predicate pushdown — applied before any
  // fetch is scheduled).
  std::vector<std::string> allow;
  std::vector<std::string> deny;
  int max_depth = 0;
  int64_t max_pages = -1;
  int domain_parallelism = 1;

  // Politeness.
  RateLimiterOptions rate;
  bool respect_robots = true;
  double robots_ttl_seconds = 3600.0;

  // Extraction. Empty `attribute` = every wrapper the repository has for
  // the page's site; `fixed_site` overrides per-URL site derivation
  // (SiteFromUrl) when the whole crawl targets one site.
  std::string attribute;
  std::string fixed_site;
  /// Compiled plans run on the streaming path (a site with several
  /// dom_free wrappers flattens each page once for all of them —
  /// DESIGN.md §15); false forces the interpreter, the byte-identity
  /// oracle. Output bytes are identical either way.
  bool fast_path = true;
  /// Feed drift detectors and enqueue re-induction (needs a reinducer).
  bool self_heal = false;

  /// Append fetch/extract latency members to each record. Off by default:
  /// timing breaks byte-identity with offline extraction.
  bool timing = false;

  /// Retries for retryable fetch failures (429/5xx/timeout/connect).
  int max_retries = 2;

  /// Reorder window of the emit queue, clamped to > workers so a full
  /// window can always make progress (every in-flight seq has a worker
  /// attached that will push its chunk).
  size_t emit_window = 64;

  FetchOptions fetch;
};

struct CrawlStats {
  int64_t pages_fetched = 0;
  int64_t pages_failed = 0;
  int64_t robots_denied = 0;
  int64_t retries = 0;
  int64_t records_emitted = 0;
  int64_t values_extracted = 0;
  int64_t links_discovered = 0;
  int64_t bytes_fetched = 0;
  int64_t urls_admitted = 0;
  int64_t urls_deduped = 0;
  int64_t urls_denied = 0;
};

/// Ordered single-writer emission: workers push one chunk per dispatched
/// seq (possibly empty — robots-denied, failed, or wrapper-less pages),
/// and the sink sees chunks in exact seq order regardless of completion
/// order. Push blocks while `seq` is outside the reorder window; the
/// pipeline clamps window > workers, so every blocked pusher is waiting
/// on a seq some other worker owns — no deadlock.
class EmitQueue {
 public:
  using Sink = std::function<void(std::string_view)>;

  EmitQueue(Sink sink, size_t window) : sink_(std::move(sink)),
                                        window_(window < 2 ? 2 : window) {}

  void Push(uint64_t seq, std::string chunk);

 private:
  Sink sink_;
  const size_t window_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::map<uint64_t, std::string> buffered_;
  uint64_t next_ = 0;
};

/// The fetch→extract→emit workload (DESIGN.md §14): a frontier-driven
/// crawl over file:// and http:// origins that reuses the serving stack's
/// extraction paths (streaming no-DOM for compiled plans, interpreted for
/// the rest — byte-identical) against a WrapperRepository snapshot, and emits
/// one ntw-crawl-record NDJSON line per (page, attribute) in frontier
/// dispatch order. Given a fixed seed order the output bytes are
/// independent of worker count.
class CrawlPipeline {
 public:
  CrawlPipeline(const serve::WrapperRepository* repository, ThreadPool* pool,
                CrawlOptions options,
                serve::ReinduceWorker* reinducer = nullptr);

  /// Crawls from `seeds` until the frontier drains; emitted NDJSON goes
  /// to `sink` in seq order. Blocking; runs workers on the pool with the
  /// caller participating.
  CrawlStats Run(const std::vector<std::string>& seeds,
                 const EmitQueue::Sink& sink);

 private:
  void WorkerLoop(EmitQueue* emit);
  /// Full treatment of one dispatched URL; fills `*chunk` with the NDJSON
  /// lines this seq contributes (possibly none).
  void ProcessItem(FrontierItem* item, std::string* chunk);
  /// Returns true when robots rules allow fetching `url` (always true for
  /// file:// — a local corpus has no origin to be polite to). Fetches and
  /// caches robots.txt on demand.
  bool RobotsAllows(const Url& url);
  void ExtractPage(const serve::WrapperRepository::Entry& entry,
                   std::string_view site, std::string_view attribute,
                   const std::string& url, const std::string& body,
                   int64_t fetch_micros, std::string* chunk);
  /// Fused multi-attribute extraction: one StreamPage build of `body`
  /// serves every dom_free attribute; attributes the extractor does not
  /// cover fall back to ExtractPage. Lines are emitted in the same
  /// ascending attribute order as the per-attribute loop.
  void ExtractSiteFused(
      const core::FusedSiteExtractor& fused,
      const serve::WrapperRepository::SiteEntries& entries,
      std::string_view site, const std::string& url, const std::string& body,
      int64_t fetch_micros, std::string* chunk);

  const serve::WrapperRepository* repository_;
  ThreadPool* pool_;
  CrawlOptions options_;
  serve::ReinduceWorker* reinducer_;

  DomainRateLimiter limiter_;
  Frontier frontier_;
  RobotsCache robots_;

  // Shared-stat cells (atomically updated by workers via obs counters are
  // global; these are per-run). Guarded by stats_mu_.
  std::mutex stats_mu_;
  CrawlStats stats_;

  // Reusable extraction buffers; internally synchronized pools shared by
  // all workers of this pipeline.
  mutable core::StreamBufferPool stream_buffers_;
  mutable core::FusedScratchPool fused_scratch_;
};

}  // namespace ntw::crawl

#endif  // NTW_CRAWL_PIPELINE_H_
