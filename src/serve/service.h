#ifndef NTW_SERVE_SERVICE_H_
#define NTW_SERVE_SERVICE_H_

#include <string_view>

#include "common/thread_pool.h"
#include "core/compiled_wrapper.h"
#include "core/fused_matcher.h"
#include "obs/json.h"
#include "serve/http.h"
#include "serve/reinduce.h"
#include "serve/wrapper_repository.h"

namespace ntw::serve {

/// The daemon's endpoint logic, one pure function from request to
/// response so the transport (HttpServer) stays generic and the CLI can
/// reuse the exact same repository code path:
///
///   POST /extract?site=S&attribute=A   body = one HTML page
///     → {"schema":"ntw-serve-extract",...,"values":[...]}
///   POST /extract_batch?site=S&attribute=A   body = NDJSON, one
///     {"id":...,"html":...} object per line, fanned out with ParallelFor
///     → NDJSON, one {"index":..,"id":..,"values":[..]} line per input
///   GET /metrics   → the canonical ntw-metrics registry dump
///   GET /healthz   → 200 "ok"
///
/// Handle() is thread-safe and deterministic: identical request bytes
/// against an unchanged repository snapshot produce identical response
/// bytes, whatever the concurrency (the batch fan-out writes pre-sized
/// per-line slots that are joined in input order).
///
/// Extraction has one production path plus the interpreter as its
/// oracle (DESIGN.md §12). By default a compiled plan from the
/// repository snapshot runs without a DOM: dom_free() plans (LR/HLRT) go
/// through StreamPage (zero-copy when the bytes are already canonical,
/// copy-on-write patched or fused tokenize→flatten otherwise) and the
/// stream matchers, and streamable() XPath plans run the fused
/// tokenize→plan-execute machine straight off the tokenizer event
/// stream. Everything else — TABLE wrappers, XPath programs outside the
/// streamable() bit budget — and every request under
/// `Options{.fast_path = false}` (the daemon's --no-fast-path) runs the
/// interpreted Wrapper::Extract over the heap DOM. Both paths are
/// byte-identical by contract, pinned by
/// tests/fastpath_equivalence_test.cc,
/// tests/streaming_equivalence_test.cc and the ntw_loadgen cross-check.
///
/// Sharding (DESIGN.md §11): the daemon instantiates one ExtractService
/// per reactor shard, so each shard's requests reuse buffer pools no
/// other shard touches and account to per-shard metric stripes
/// (`Options::shard`). The repository is shared — reads go through its
/// wait-free epoch pin, never a lock.
struct ExtractServiceOptions {
  /// Run compiled plans on the streaming path; false forces the
  /// interpreter for every request (the byte-identity oracle).
  bool fast_path = true;
  /// Metric stripe this instance records into (the owning reactor's id).
  int shard = 0;
  /// Feed per-entry drift detectors after every extraction and enqueue
  /// re-induction repairs (DESIGN.md §13). Only effective when the
  /// service was constructed with a ReinduceWorker and the repository has
  /// a drift config installed.
  bool self_heal = true;
};

class ExtractService {
 public:
  using Options = ExtractServiceOptions;

  ExtractService(const WrapperRepository* repository, ThreadPool* pool,
                 Options options = {}, ReinduceWorker* reinducer = nullptr)
      : repository_(repository),
        pool_(pool),
        options_(options),
        reinducer_(reinducer) {}

  HttpResponse Handle(const HttpRequest& request) const;

 private:
  HttpResponse Extract(const HttpRequest& request) const;
  HttpResponse ExtractBatch(const HttpRequest& request) const;
  /// `attribute=*`: every attribute of the site from one request body.
  HttpResponse ExtractMulti(const WrapperRepository::Snapshot& snapshot,
                            const std::string& site,
                            const HttpRequest& request) const;
  HttpResponse ExtractBatchMulti(const WrapperRepository::Snapshot& snapshot,
                                 const std::string& site,
                                 const HttpRequest& request) const;
  HttpResponse Driftz() const;
  void ExtractToJson(const WrapperRepository::Entry& entry,
                     const std::string& page_html,
                     obs::JsonWriter& json) const;
  /// Writes just the `[...]` value array for one entry (extraction +
  /// metrics + drift feed); the caller has already written the key.
  void ExtractArray(const WrapperRepository::Entry& entry,
                    const std::string& page_html, obs::JsonWriter& json) const;
  /// Writes the `"attributes":{"a":[...],...}` member for every attribute
  /// of `site`, ascending. On the fast path one StreamPage build serves
  /// every dom_free plan (FusedSiteExtractor); the rest extract
  /// per-attribute through ExtractArray — byte-identical by contract.
  void ExtractAllToJson(
      const WrapperRepository::Snapshot& snapshot, const std::string& site,
      const std::vector<std::pair<std::string, const WrapperRepository::Entry*>>&
          entries,
      const std::string& page_html, obs::JsonWriter& json) const;
  /// Scores one extraction against the entry's drift detector and hands
  /// a full retention ring to the re-induction worker. No-op (one null
  /// check) when self-healing is off.
  void ObserveDrift(const WrapperRepository::Entry& entry,
                    const std::string& page_html,
                    const std::string_view* values, size_t count) const;

  const WrapperRepository* repository_;
  ThreadPool* pool_;
  Options options_;
  ReinduceWorker* reinducer_ = nullptr;
  // Reusable per-request buffers (stream page + values + streaming-XPath
  // scratch); the pool is internally synchronized, so Handle() stays
  // const and thread-safe. One pool per service instance — per shard in
  // the sharded daemon.
  mutable core::StreamBufferPool stream_buffers_;
  // Per-attribute value slots for fused multi-attribute extraction
  // (attribute=*).
  mutable core::FusedScratchPool fused_scratch_;
};

}  // namespace ntw::serve

#endif  // NTW_SERVE_SERVICE_H_
