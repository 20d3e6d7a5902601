#include "serve/service.h"

#include <chrono>
#include <utility>
#include <vector>

#include "common/obs_export.h"
#include "common/strings.h"
#include "html/parser.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "serve/ndjson.h"

namespace ntw::serve {

namespace {

// Sharded instruments: each reactor shard records into its own stripe
// (no cross-shard cache-line contention on the request path); /metrics
// merges stripes at scrape time and also exports the shard dimension.
struct ServiceMetrics {
  obs::ShardedCounter* pages_extracted;
  obs::ShardedCounter* values_extracted;
  obs::ShardedCounter* batch_lines;
  obs::ShardedCounter* wrapper_misses;
  obs::ShardedCounter* streaming_pages;
  obs::ShardedCounter* streaming_verbatim_pages;
  obs::ShardedCounter* streaming_patched_pages;
  obs::ShardedCounter* streaming_flattened_pages;
  /// Pages served by the fused streaming XPath executor (tokenizer event
  /// stream, no arena DOM, no StreamPage build — so no tier counter).
  obs::ShardedCounter* streaming_xpath_pages;
  /// Pages that fell off the streaming path to the interpreter, by
  /// reason: --no-fast-path, the entry has no compiled plan, or the plan
  /// is an XPath program outside streamable()'s bit budget. Their sum is
  /// exactly the non-streaming page count.
  obs::ShardedCounter* streaming_fallback_disabled;
  obs::ShardedCounter* streaming_fallback_no_plan;
  obs::ShardedCounter* streaming_fallback_unstreamable_xpath;
  /// attribute=* pages whose dom_free attributes shared one StreamPage
  /// build (FusedSiteExtractor).
  obs::ShardedCounter* fused_scans;
  obs::ShardedHistogram* extract_latency;

  static ServiceMetrics& Get() {
    static ServiceMetrics m{
        obs::Registry::Global().GetShardedCounter("ntw.serve.pages_extracted"),
        obs::Registry::Global().GetShardedCounter("ntw.serve.values_extracted"),
        obs::Registry::Global().GetShardedCounter("ntw.serve.batch_lines"),
        obs::Registry::Global().GetShardedCounter("ntw.serve.wrapper_misses"),
        obs::Registry::Global().GetShardedCounter("ntw.serve.streaming_pages"),
        obs::Registry::Global().GetShardedCounter(
            "ntw.serve.streaming_verbatim_pages"),
        obs::Registry::Global().GetShardedCounter(
            "ntw.serve.streaming_patched_pages"),
        obs::Registry::Global().GetShardedCounter(
            "ntw.serve.streaming_flattened_pages"),
        obs::Registry::Global().GetShardedCounter(
            "ntw.serve.streaming_xpath_pages"),
        obs::Registry::Global().GetShardedCounter(
            "ntw.serve.streaming_fallback_disabled"),
        obs::Registry::Global().GetShardedCounter(
            "ntw.serve.streaming_fallback_no_plan"),
        obs::Registry::Global().GetShardedCounter(
            "ntw.serve.streaming_fallback_unstreamable_xpath"),
        obs::Registry::Global().GetShardedCounter("ntw.serve.fused_scans"),
        obs::Registry::Global().GetShardedHistogram(
            "ntw.serve.extract_latency_micros"),
    };
    return m;
  }
};

/// Interpreted path: heap DOM parse + Wrapper::Extract. Returns the
/// extracted text values in document order.
std::vector<std::string> ExtractValuesInterpreted(const core::Wrapper& wrapper,
                                                  const std::string& page_html) {
  Result<html::Document> doc = html::Parse(page_html);
  if (!doc.ok()) return {};
  core::PageSet pages;
  pages.AddPage(std::move(*doc));
  core::NodeSet extraction = wrapper.Extract(pages);
  std::vector<std::string> values;
  values.reserve(extraction.size());
  for (const core::NodeRef& ref : extraction) {
    const html::Node* node = pages.Resolve(ref);
    if (node != nullptr) values.push_back(node->text());
  }
  return values;
}

/// Resolves the (site, attribute) pair from the query string against a
/// snapshot. On failure fills `error` with the response to send.
const WrapperRepository::Entry* LookupWrapper(
    const WrapperRepository::Snapshot& snapshot, const HttpRequest& request,
    int shard, std::string* site, std::string* attribute,
    HttpResponse* error) {
  *site = request.QueryParam("site");
  *attribute = request.QueryParam("attribute");
  if (attribute->empty()) *attribute = request.QueryParam("attr");
  if (site->empty() || attribute->empty()) {
    *error = ErrorResponse(
        400, "query parameters 'site' and 'attribute' are required");
    return nullptr;
  }
  const WrapperRepository::Entry* entry = snapshot.Find(*site, *attribute);
  if (entry == nullptr) {
    ServiceMetrics::Get().wrapper_misses->Add(shard, 1);
    *error = ErrorResponse(404, "no wrapper for site '" + *site +
                                    "' attribute '" + *attribute + "'");
  }
  return entry;
}

/// attribute=* (or attr=*) selects multi-attribute mode: every wrapper of
/// the site from one request body, fused-scanned when possible.
bool IsMultiAttribute(const HttpRequest& request, std::string* site) {
  std::string attribute = request.QueryParam("attribute");
  if (attribute.empty()) attribute = request.QueryParam("attr");
  if (attribute != "*") return false;
  *site = request.QueryParam("site");
  return !site->empty();
}

int64_t MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

/// Extracts from one page and writes the `"values":[...]` member.
/// Streaming no-DOM path for dom_free() and streamable() XPath plans
/// unless fast_path is off; interpreted otherwise. Both produce
/// identical JSON bytes — views and strings serialize the same.
void ExtractService::ExtractToJson(const WrapperRepository::Entry& entry,
                                   const std::string& page_html,
                                   obs::JsonWriter& json) const {
  json.Key("values");
  ExtractArray(entry, page_html, json);
}

void ExtractService::ExtractArray(const WrapperRepository::Entry& entry,
                                  const std::string& page_html,
                                  obs::JsonWriter& json) const {
  ServiceMetrics& metrics = ServiceMetrics::Get();
  int shard = options_.shard;
  auto start = std::chrono::steady_clock::now();
  if (options_.fast_path && entry.compiled != nullptr &&
      entry.compiled->has_streaming_form()) {
    // Streaming no-DOM path: BMH over the StreamPage-built stream for
    // dom_free() plans, the fused tokenize→plan-execute machine for
    // streamable() XPath programs — neither builds an arena DOM. On the
    // zero-copy tier the values alias `page_html` directly — which
    // outlives the lease here.
    core::StreamBufferPool::Lease lease = stream_buffers_.Acquire();
    entry.compiled->ExtractStreaming(page_html, *lease, &lease->values);
    metrics.extract_latency->Record(shard, MicrosSince(start));
    json.BeginArray();
    for (std::string_view value : lease->values) json.String(value);
    json.EndArray();
    metrics.pages_extracted->Add(shard, 1);
    metrics.values_extracted->Add(shard,
                                  static_cast<int64_t>(lease->values.size()));
    ObserveDrift(entry, page_html, lease->values.data(),
                 lease->values.size());
    metrics.streaming_pages->Add(shard, 1);
    if (!entry.compiled->dom_free()) {
      // Fused XPath never Builds the StreamPage, so the tier counters
      // (which would read a stale tier) do not apply.
      metrics.streaming_xpath_pages->Add(shard, 1);
    } else {
      switch (lease->page.tier()) {
        case html::StreamPage::Tier::kVerbatim:
          metrics.streaming_verbatim_pages->Add(shard, 1);
          break;
        case html::StreamPage::Tier::kPatched:
          metrics.streaming_patched_pages->Add(shard, 1);
          break;
        case html::StreamPage::Tier::kFlattened:
          metrics.streaming_flattened_pages->Add(shard, 1);
          break;
      }
    }
    return;
  }
  // Off the streaming path: attribute the fallback to its reason.
  if (!options_.fast_path) {
    metrics.streaming_fallback_disabled->Add(shard, 1);
  } else if (entry.compiled == nullptr) {
    metrics.streaming_fallback_no_plan->Add(shard, 1);
  } else {
    metrics.streaming_fallback_unstreamable_xpath->Add(shard, 1);
  }
  std::vector<std::string> values =
      ExtractValuesInterpreted(*entry.wrapper, page_html);
  metrics.extract_latency->Record(shard, MicrosSince(start));
  json.BeginArray();
  for (const std::string& value : values) json.String(value);
  json.EndArray();
  metrics.pages_extracted->Add(shard, 1);
  metrics.values_extracted->Add(shard, static_cast<int64_t>(values.size()));
  // The interpreted path already allocates per request; a small view
  // vector for the detector is in character.
  std::vector<std::string_view> views(values.begin(), values.end());
  ObserveDrift(entry, page_html, views.data(), views.size());
}

void ExtractService::ExtractAllToJson(
    const WrapperRepository::Snapshot& snapshot, const std::string& site,
    const std::vector<std::pair<std::string, const WrapperRepository::Entry*>>&
        entries,
    const std::string& page_html, obs::JsonWriter& json) const {
  ServiceMetrics& metrics = ServiceMetrics::Get();
  int shard = options_.shard;
  std::shared_ptr<const core::FusedSiteExtractor> fused;
  if (options_.fast_path) fused = snapshot.FindFused(site);
  json.Key("attributes");
  json.BeginObject();
  if (fused != nullptr && !fused->attributes().empty()) {
    // One StreamPage build serves every dom_free attribute; attributes
    // the extractor does not cover (tree plans, or no compiled form)
    // fall through to per-attribute extraction below.
    auto start = std::chrono::steady_clock::now();
    core::StreamBufferPool::Lease page = stream_buffers_.Acquire();
    core::FusedScratchPool::Lease scratch = fused_scratch_.Acquire();
    fused->ExtractAllStreaming(page_html, *page, *scratch);
    metrics.extract_latency->Record(shard, MicrosSince(start));
    metrics.fused_scans->Add(shard, 1);
    metrics.streaming_pages->Add(shard, 1);
    switch (page->page.tier()) {
      case html::StreamPage::Tier::kVerbatim:
        metrics.streaming_verbatim_pages->Add(shard, 1);
        break;
      case html::StreamPage::Tier::kPatched:
        metrics.streaming_patched_pages->Add(shard, 1);
        break;
      case html::StreamPage::Tier::kFlattened:
        metrics.streaming_flattened_pages->Add(shard, 1);
        break;
    }
    for (const auto& [name, entry] : entries) {
      json.Key(name);
      size_t index = fused->FindAttribute(name);
      if (index == std::string_view::npos) {
        ExtractArray(*entry, page_html, json);
        continue;
      }
      const std::vector<std::string_view>& values = scratch->values[index];
      json.BeginArray();
      for (std::string_view value : values) json.String(value);
      json.EndArray();
      metrics.pages_extracted->Add(shard, 1);
      metrics.values_extracted->Add(shard,
                                    static_cast<int64_t>(values.size()));
      ObserveDrift(*entry, page_html, values.data(), values.size());
    }
  } else {
    for (const auto& [name, entry] : entries) {
      json.Key(name);
      ExtractArray(*entry, page_html, json);
    }
  }
  json.EndObject();
}

void ExtractService::ObserveDrift(const WrapperRepository::Entry& entry,
                                  const std::string& page_html,
                                  const std::string_view* values,
                                  size_t count) const {
  DriftState* state = entry.drift.get();
  if (state == nullptr || !options_.self_heal || reinducer_ == nullptr) {
    return;
  }
  DriftState::Action action =
      state->Observe(options_.shard, values, count, page_html);
  if (action != DriftState::Action::kReinduce) return;
  DriftState::Sample sample = state->TakeSample();
  ReinduceTask task;
  task.site = state->site();
  task.attribute = state->attribute();
  task.incumbent_record = state->record();
  task.pages = std::move(sample.pages);
  task.dictionary = std::move(sample.dictionary);
  task.state = entry.drift;
  if (!reinducer_->Enqueue(std::move(task))) state->EnterCooldown();
}

HttpResponse ExtractService::Driftz() const {
  WrapperRepository::PinnedSnapshot snapshot = repository_->Pin();
  obs::JsonWriter json;
  BeginSchemaDocument(json, "ntw-serve-drift", 1);
  json.KV("repository_version", static_cast<int64_t>(snapshot->version));
  json.KV("self_heal", options_.self_heal && reinducer_ != nullptr);
  json.Key("states");
  json.BeginArray();
  for (const auto& [key, entry] : snapshot->wrappers) {
    if (entry.drift != nullptr) entry.drift->WriteJson(json);
  }
  // Pack-backed pairs this snapshot has served (lazily materialized);
  // never overlaps the overlay map — Find() checks the overlay first.
  for (const auto& [key, entry] : snapshot->CachedEntries()) {
    if (entry->drift != nullptr) entry->drift->WriteJson(json);
  }
  json.EndArray();
  // The repair quality ledger: before/after scores of every self-heal
  // publish, oldest first (bounded tail; durable across restarts).
  json.Key("repairs");
  json.BeginArray();
  for (const WrapperRepository::RepairRecord& repair :
       repository_->repair_ledger()) {
    json.BeginObject();
    json.KV("sequence", repair.sequence);
    json.KV("site", repair.site);
    json.KV("attribute", repair.attribute);
    json.KV("incumbent_score", repair.incumbent_score);
    json.KV("repair_score", repair.repair_score);
    json.KV("labels", repair.labels);
    json.KV("published_version",
            static_cast<int64_t>(repair.published_version));
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  HttpResponse response;
  response.body = json.Take();
  response.body.push_back('\n');
  return response;
}

HttpResponse ExtractService::Handle(const HttpRequest& request) const {
  if (request.path == "/healthz") {
    if (request.method != "GET") return ErrorResponse(405, "use GET");
    HttpResponse response;
    response.content_type = "text/plain";
    response.body = "ok\n";
    return response;
  }
  if (request.path == "/metrics") {
    if (request.method != "GET") return ErrorResponse(405, "use GET");
    HttpResponse response;
    response.body = MetricsJson();
    return response;
  }
  if (request.path == "/driftz") {
    if (request.method != "GET") return ErrorResponse(405, "use GET");
    return Driftz();
  }
  if (request.path == "/extract") {
    if (request.method != "POST") return ErrorResponse(405, "use POST");
    HttpResponse response = Extract(request);
    // Our pin is released; if a reload retired a snapshot while we held
    // it, free it here rather than waiting for the next reload.
    repository_->ReclaimRetired();
    return response;
  }
  if (request.path == "/extract_batch") {
    if (request.method != "POST") return ErrorResponse(405, "use POST");
    HttpResponse response = ExtractBatch(request);
    repository_->ReclaimRetired();
    return response;
  }
  return ErrorResponse(404, "unknown endpoint '" + request.path + "'");
}

HttpResponse ExtractService::Extract(const HttpRequest& request) const {
  // Wait-free read-side: the pin keeps this snapshot alive for the whole
  // request; a concurrent reload publishes a new one without blocking us.
  WrapperRepository::PinnedSnapshot snapshot = repository_->Pin();
  std::string site;
  std::string attribute;
  if (IsMultiAttribute(request, &site)) {
    return ExtractMulti(*snapshot, site, request);
  }
  HttpResponse error;
  const WrapperRepository::Entry* entry = LookupWrapper(
      *snapshot, request, options_.shard, &site, &attribute, &error);
  if (entry == nullptr) return error;

  obs::JsonWriter json;
  json.Reserve(entry->response_prefix.size() + 192);
  json.BeginObject();
  // Everything before "values" is constant per entry within a snapshot;
  // the repository escaped it once at load time.
  json.RawMembers(entry->response_prefix);
  ExtractToJson(*entry, request.body, json);
  json.EndObject();
  HttpResponse response;
  response.body = json.Take();
  response.body.push_back('\n');
  return response;
}

HttpResponse ExtractService::ExtractMulti(
    const WrapperRepository::Snapshot& snapshot, const std::string& site,
    const HttpRequest& request) const {
  std::vector<std::pair<std::string, const WrapperRepository::Entry*>>
      entries = snapshot.MaterializeSite(site);
  if (entries.empty()) {
    ServiceMetrics::Get().wrapper_misses->Add(options_.shard, 1);
    return ErrorResponse(404, "no wrappers for site '" + site + "'");
  }
  obs::JsonWriter json;
  BeginSchemaDocument(json, "ntw-serve-extract", 1);
  json.KV("site", site);
  json.KV("attribute", "*");
  json.KV("repository_version", static_cast<int64_t>(snapshot.version));
  ExtractAllToJson(snapshot, site, entries, request.body, json);
  json.EndObject();
  HttpResponse response;
  response.body = json.Take();
  response.body.push_back('\n');
  return response;
}

HttpResponse ExtractService::ExtractBatchMulti(
    const WrapperRepository::Snapshot& snapshot, const std::string& site,
    const HttpRequest& request) const {
  std::vector<std::pair<std::string, const WrapperRepository::Entry*>>
      entries = snapshot.MaterializeSite(site);
  if (entries.empty()) {
    ServiceMetrics::Get().wrapper_misses->Add(options_.shard, 1);
    return ErrorResponse(404, "no wrappers for site '" + site + "'");
  }
  std::vector<std::string> lines = Split(request.body, '\n');
  while (!lines.empty() && StripWhitespace(lines.back()).empty()) {
    lines.pop_back();
  }
  ServiceMetrics::Get().batch_lines->Add(options_.shard,
                                         static_cast<int64_t>(lines.size()));
  // Same slot-per-line determinism as the single-attribute batch; each
  // line scans the page once for all of the site's dom_free attributes.
  std::vector<std::string> results(lines.size());
  pool_->ParallelFor(lines.size(), [&](size_t i) {
    obs::JsonWriter json;
    json.BeginObject();
    json.KV("index", static_cast<int64_t>(i));
    Result<BatchLine> line = ParseBatchLine(lines[i]);
    if (!line.ok()) {
      json.KV("error", line.status().ToString());
    } else {
      if (line->has_id) json.KV("id", line->id);
      ExtractAllToJson(snapshot, site, entries, line->html, json);
    }
    json.EndObject();
    results[i] = json.Take();
  });
  HttpResponse response;
  response.content_type = "application/x-ndjson";
  size_t total = 0;
  for (const std::string& line : results) total += line.size() + 1;
  response.body.reserve(total);
  for (const std::string& line : results) {
    response.body += line;
    response.body += '\n';
  }
  return response;
}

HttpResponse ExtractService::ExtractBatch(const HttpRequest& request) const {
  WrapperRepository::PinnedSnapshot snapshot = repository_->Pin();
  std::string site;
  std::string attribute;
  if (IsMultiAttribute(request, &site)) {
    return ExtractBatchMulti(*snapshot, site, request);
  }
  HttpResponse error;
  const WrapperRepository::Entry* entry = LookupWrapper(
      *snapshot, request, options_.shard, &site, &attribute, &error);
  if (entry == nullptr) return error;

  // One result slot per input line, written independently and joined in
  // input order — the ParallelFor determinism discipline, so a batch
  // response is byte-identical at every thread count.
  std::vector<std::string> lines = Split(request.body, '\n');
  while (!lines.empty() && StripWhitespace(lines.back()).empty()) {
    lines.pop_back();
  }
  ServiceMetrics::Get().batch_lines->Add(options_.shard,
                                         static_cast<int64_t>(lines.size()));
  std::vector<std::string> results(lines.size());
  pool_->ParallelFor(lines.size(), [&](size_t i) {
    obs::JsonWriter json;
    json.BeginObject();
    json.KV("index", static_cast<int64_t>(i));
    Result<BatchLine> line = ParseBatchLine(lines[i]);
    if (!line.ok()) {
      json.KV("error", line.status().ToString());
    } else {
      if (line->has_id) json.KV("id", line->id);
      ExtractToJson(*entry, line->html, json);
    }
    json.EndObject();
    results[i] = json.Take();
  });
  HttpResponse response;
  response.content_type = "application/x-ndjson";
  // Exact-size join: one reserve, no re-allocation churn while appending.
  size_t total = 0;
  for (const std::string& line : results) total += line.size() + 1;
  response.body.reserve(total);
  for (const std::string& line : results) {
    response.body += line;
    response.body += '\n';
  }
  return response;
}

}  // namespace ntw::serve
