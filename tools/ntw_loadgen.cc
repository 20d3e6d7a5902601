// ntw_loadgen — closed-loop throughput benchmark for the serving daemon's
// POST /extract endpoint.
//
// Builds a pinned DEALERS subset (fixed seed), learns one XPATH and one
// LR wrapper per site from ground truth, publishes the wrappers to a
// temporary serving repository, starts a real HttpServer in-process on an
// ephemeral port, and drives it over raw keep-alive sockets through four
// phases split by plan kind and execution path:
//
//   delimiter_streaming    LR plans, streaming no-DOM path (DESIGN.md §12)
//   delimiter_interpreted  LR plans, interpreted Wrapper::Extract
//   xpath_streaming        XPATH plans, fused tokenize→plan-execute path
//   xpath_interpreted      XPATH plans, interpreted Wrapper::Extract
//
// Emits a schema-versioned BENCH_serve.json (v5) with per-phase
// requests/second tagged by plan kind and path, latency percentiles from
// the ntw.serve.extract_latency_micros histogram, a speedups object
// (streaming vs interpreted, per plan kind), peak RSS and machine
// metadata, so serving-throughput regressions accumulate in-repo the
// same way ntw_bench's learning benches do.
//
// Before any timing, every (site, attribute, page) request is executed
// through the streaming and interpreted service configurations
// in-process and the responses are compared byte-for-byte; any
// divergence prints the pair and exits 1 — the fast-path determinism
// contract is enforced by the benchmark itself, not just by the unit
// tests. The same holds for every site's attribute=* response.
//
// Usage:
//   ntw_loadgen [--out BENCH_serve.json] [--sites N] [--requests N]
//               [--records N] [--connections N] [--client-threads N]
//               [--pipeline N] [--repetitions N] [--shards N]
//               [--sweep 1,2,4,...] [--smoke]
//
// --records N pins every generated page to exactly N listing records
// (default 30 for full runs — a realistic dealer-locator page, a few KB
// of HTML — and the dataset default 2..10 for --smoke, matching the unit
// corpora). Larger pages shift the measurement toward extraction cost and
// away from fixed per-request socket overhead.
//
// --pipeline N keeps N requests in flight per connection (HTTP/1.1
// pipelining, which the server supports): syscall and scheduling overhead
// amortizes across the window, so the measurement isolates extraction
// cost instead of round-trip cost. --pipeline 1 degrades to strict
// request/response lockstep.
//
// --connections C / --client-threads T drive C keep-alive connections
// from T client threads (default T = C, one thread per connection; with
// T < C each thread multiplexes several connections, sending every
// window before reading any — so the offered load scales past the client
// thread count).
//
// --shards N serves the main streaming/interpreted phases from an N-shard
// multi-reactor server (DESIGN.md §11). --sweep S1,S2,... additionally
// measures streaming throughput at each shard count on a fresh server
// and replays every distinct request serially at each point, comparing
// the bytes against the in-process baseline — the shard-scaling curve
// and the cross-shard byte-identity contract in one pass.
//
// --smoke shrinks the workload for CI and tools/check.sh; the JSON schema
// (and the equivalence checks) is identical.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/build_info.h"
#include "common/file_util.h"
#include "common/flags.h"
#include "common/obs_export.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "core/lr_inductor.h"
#include "core/wrapper_store.h"
#include "core/xpath_inductor.h"
#include "datasets/dealers.h"
#include "html/serializer.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/proc.h"
#include "serve/http.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/wrapper_repository.h"

namespace {

using namespace ntw;

constexpr char kUsage[] =
    "usage: ntw_loadgen [--out BENCH_serve.json] [--sites N]"
    " [--requests N]\n"
    "                   [--records N] [--connections N]"
    " [--client-threads N]\n"
    "                   [--pipeline N] [--repetitions N] [--shards N]\n"
    "                   [--sweep 1,2,4,...] [--smoke]\n";

constexpr int64_t kSchemaVersion = 5;

// ---------------------------------------------------------------------
// Minimal blocking HTTP/1.1 client (keep-alive, Content-Length framing).
// ---------------------------------------------------------------------

class Client {
 public:
  explicit Client(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool ok() const { return fd_ >= 0; }

  bool Send(std::string_view data) {
    while (!data.empty()) {
      ssize_t n = ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
      if (n <= 0) return false;
      data.remove_prefix(static_cast<size_t>(n));
    }
    return true;
  }

  /// Reads one full response (headers + Content-Length body); "" on error.
  std::string ReadResponse() {
    size_t total = FillOneResponse();
    if (total == 0) return "";
    std::string response = buffer_.substr(offset_, total);
    Consume(total);
    return response;
  }

  /// Reads one full response and reports whether it is an HTTP 200.
  /// Frames exactly like ReadResponse but never copies the response out
  /// of the receive buffer — the timed driver loop's hot path, where a
  /// per-response substr would tax every phase alike.
  bool ReadResponseOk() {
    size_t total = FillOneResponse();
    if (total < 12) {
      if (total > 0) Consume(total);
      return false;
    }
    bool ok = buffer_.compare(offset_, 12, "HTTP/1.1 200") == 0;
    Consume(total);
    return ok;
  }

 private:
  /// Ensures one complete response sits at buffer_[offset_...] and
  /// returns its total size (headers + body); 0 on connection error.
  size_t FillOneResponse() {
    while (true) {
      size_t header_end = buffer_.find("\r\n\r\n", offset_);
      if (header_end != std::string::npos) {
        size_t total =
            header_end + 4 - offset_ + ContentLengthAt(offset_, header_end);
        if (buffer_.size() - offset_ >= total) return total;
      }
      char chunk[16384];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return 0;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  /// Advances past a framed response; compacts the buffer only once the
  /// consumed prefix is large, so steady state neither copies nor moves.
  void Consume(size_t total) {
    offset_ += total;
    if (offset_ >= buffer_.size()) {
      buffer_.clear();
      offset_ = 0;
    } else if (offset_ > (size_t{1} << 18)) {
      buffer_.erase(0, offset_);
      offset_ = 0;
    }
  }

  /// Case-insensitive Content-Length scan over the header block in
  /// place — no lowercased copy.
  size_t ContentLengthAt(size_t begin, size_t header_end) const {
    constexpr std::string_view kName = "content-length:";
    for (size_t pos = begin; pos + kName.size() <= header_end; ++pos) {
      size_t i = 0;
      while (i < kName.size() && AsciiToLower(buffer_[pos + i]) == kName[i]) {
        ++i;
      }
      if (i == kName.size()) {
        return static_cast<size_t>(
            std::strtoull(buffer_.c_str() + pos + i, nullptr, 10));
      }
    }
    return 0;
  }

  int fd_ = -1;
  std::string buffer_;
  size_t offset_ = 0;  // Consumed prefix of buffer_.
};

struct PhaseResult {
  std::string name;
  std::string plan_kind;  // "lr" or "xpath" — which wrapper kind is driven.
  std::string path;       // "streaming" or "interpreted".
  int64_t requests = 0;
  double wall_seconds = 0.0;
  double requests_per_second = 0.0;
  // Throughput of every repetition; the other fields describe the best
  // (highest-rps) one, matching ntw_bench's best-of-N convention.
  std::vector<double> rps_reps;
  int64_t latency_count = 0;
  double latency_mean_micros = 0.0;
  int64_t latency_p50_micros = 0;
  int64_t latency_p95_micros = 0;
  int64_t latency_p99_micros = 0;
  int64_t latency_max_micros = 0;
  int64_t errors = 0;
};

/// Drives `total_requests` POSTs round-robin over `request_bytes` from
/// `connections` keep-alive connections spread across `client_threads`
/// threads against 127.0.0.1:`port`, keeping up to `pipeline` requests
/// in flight per connection. Each thread sends a window on every
/// connection it owns before reading any of them back, so one thread
/// keeps several connections busy simultaneously.
PhaseResult RunPhase(const std::string& name, int port,
                     const std::vector<std::string>& request_bytes,
                     int64_t total_requests, int connections,
                     int client_threads, int64_t pipeline) {
  obs::Registry::Global().ResetValues();
  PhaseResult result;
  result.name = name;
  std::atomic<int64_t> next{0};
  std::atomic<int64_t> errors{0};
  Stopwatch watch;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(client_threads));
  for (int t = 0; t < client_threads; ++t) {
    // Connections [t, t + client_threads, t + 2*client_threads, ...).
    threads.emplace_back([&, t]() {
      std::vector<std::unique_ptr<Client>> conns;
      for (int c = t; c < connections; c += client_threads) {
        auto client = std::make_unique<Client>(port);
        if (client->ok()) conns.push_back(std::move(client));
      }
      if (conns.empty()) {
        // Nothing connected: surface it loudly (any error fails the run).
        errors.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      std::string wire;
      std::vector<std::pair<Client*, int64_t>> inflight;
      bool exhausted = false;
      while (!exhausted && !conns.empty()) {
        inflight.clear();
        // Send a window on every owned connection first...
        for (size_t c = 0; c < conns.size(); ++c) {
          int64_t begin =
              next.fetch_add(pipeline, std::memory_order_relaxed);
          if (begin >= total_requests) {
            exhausted = true;
            break;
          }
          int64_t window = std::min(pipeline, total_requests - begin);
          wire.clear();
          for (int64_t k = 0; k < window; ++k) {
            wire += request_bytes[static_cast<size_t>(begin + k) %
                                  request_bytes.size()];
          }
          if (!conns[c]->Send(wire)) {
            errors.fetch_add(window, std::memory_order_relaxed);
            conns.erase(conns.begin() + static_cast<ptrdiff_t>(c));
            --c;
            continue;
          }
          inflight.emplace_back(conns[c].get(), window);
        }
        // ...then read everything back.
        for (auto& [client, window] : inflight) {
          for (int64_t k = 0; k < window; ++k) {
            if (!client->ReadResponseOk()) {
              errors.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  result.wall_seconds = watch.ElapsedSeconds();
  result.requests = total_requests;
  result.errors = errors.load();
  result.requests_per_second =
      result.wall_seconds > 0.0
          ? static_cast<double>(total_requests) / result.wall_seconds
          : 0.0;
  // The latency instrument is sharded (per-reactor stripes); merge them.
  obs::HistogramView latency =
      obs::Registry::Global()
          .GetShardedHistogram("ntw.serve.extract_latency_micros")
          ->Merged();
  result.latency_count = latency.count;
  result.latency_mean_micros =
      latency.count > 0 ? static_cast<double>(latency.sum) /
                              static_cast<double>(latency.count)
                        : 0.0;
  result.latency_p50_micros = obs::HistogramPercentile(latency, 0.50);
  result.latency_p95_micros = obs::HistogramPercentile(latency, 0.95);
  result.latency_p99_micros = obs::HistogramPercentile(latency, 0.99);
  result.latency_max_micros = latency.max;
  return result;
}

void WritePhase(obs::JsonWriter& json, const PhaseResult& r) {
  json.BeginObject();
  json.KV("name", r.name);
  json.KV("plan_kind", r.plan_kind);
  json.KV("path", r.path);
  json.KV("requests", r.requests);
  json.KV("errors", r.errors);
  json.KV("wall_seconds", r.wall_seconds);
  json.KV("requests_per_second", r.requests_per_second);
  json.Key("requests_per_second_reps");
  json.BeginArray();
  for (double rps : r.rps_reps) json.Double(rps);
  json.EndArray();
  json.Key("latency_micros");
  json.BeginObject();
  json.KV("count", r.latency_count);
  json.KV("mean", r.latency_mean_micros);
  json.KV("p50", r.latency_p50_micros);
  json.KV("p95", r.latency_p95_micros);
  json.KV("p99", r.latency_p99_micros);
  json.KV("max", r.latency_max_micros);
  json.EndObject();
  json.EndObject();
}

/// Best repetition by throughput; errors accumulate across all reps (any
/// failed request in any repetition is fatal).
PhaseResult BestOf(const std::vector<PhaseResult>& reps) {
  size_t best_index = 0;
  int64_t errors = 0;
  std::vector<double> rps;
  for (size_t i = 0; i < reps.size(); ++i) {
    errors += reps[i].errors;
    rps.push_back(reps[i].requests_per_second);
    if (reps[i].requests_per_second > reps[best_index].requests_per_second) {
      best_index = i;
    }
  }
  PhaseResult best = reps[best_index];
  best.errors = errors;
  best.rps_reps = std::move(rps);
  return best;
}

/// One point on the throughput-vs-shards curve.
struct SweepPoint {
  int shards = 0;
  bool accept_relay = false;
  PhaseResult phase;
  int64_t divergences = 0;  // Serial replay vs in-process baseline bytes.
};

int Run(int argc, char** argv) {
  Result<Flags> flags_or = Flags::Parse(argc, argv);
  if (!flags_or.ok()) {
    std::fprintf(stderr, "%s\n%s", flags_or.status().ToString().c_str(),
                 kUsage);
    return 2;
  }
  const Flags& flags = *flags_or;
  std::vector<std::string> unknown = flags.UnknownFlags(
      {"out", "sites", "requests", "records", "connections",
       "client-threads", "pipeline", "repetitions", "shards", "sweep",
       "smoke", "help"});
  if (!unknown.empty() || flags.Has("help")) {
    for (const std::string& name : unknown) {
      std::fprintf(stderr, "unknown flag --%s\n", name.c_str());
    }
    std::fprintf(stderr, "%s", kUsage);
    return flags.Has("help") ? 0 : 2;
  }
  bool smoke = flags.Has("smoke");
  Result<int64_t> sites_or = flags.GetInt("sites", smoke ? 3 : 8);
  Result<int64_t> requests_or = flags.GetInt("requests", smoke ? 200 : 4000);
  // 0 = the dataset's own 2..10 records/page (what the unit corpora use).
  Result<int64_t> records_or = flags.GetInt("records", smoke ? 0 : 30);
  Result<int64_t> connections_or = flags.GetInt("connections", 1);
  Result<int64_t> pipeline_or = flags.GetInt("pipeline", 16);
  Result<int64_t> reps_or = flags.GetInt("repetitions", smoke ? 1 : 3);
  Result<int64_t> shards_or = flags.GetInt("shards", 1);
  if (!sites_or.ok() || !requests_or.ok() || !connections_or.ok() ||
      !pipeline_or.ok() || !reps_or.ok() || !shards_or.ok() ||
      *sites_or < 1 || *requests_or < 1 || *connections_or < 1 ||
      *pipeline_or < 1 || *reps_or < 1 || *shards_or < 1) {
    std::fprintf(stderr,
                 "--sites, --requests, --connections, --pipeline,"
                 " --repetitions and --shards must be >= 1\n%s",
                 kUsage);
    return 2;
  }
  if (!records_or.ok() || *records_or < 0) {
    std::fprintf(stderr, "--records must be >= 0 (0 = dataset default)\n%s",
                 kUsage);
    return 2;
  }
  Result<int64_t> client_threads_or =
      flags.GetInt("client-threads", *connections_or);
  if (!client_threads_or.ok() || *client_threads_or < 1) {
    std::fprintf(stderr, "--client-threads must be >= 1\n%s", kUsage);
    return 2;
  }
  std::vector<int> sweep_shards;
  if (flags.Has("sweep")) {
    for (const std::string& token : Split(flags.Get("sweep"), ',')) {
      std::string trimmed(StripWhitespace(token));
      if (trimmed.empty()) continue;
      int value = std::atoi(trimmed.c_str());
      if (value < 1) {
        std::fprintf(stderr, "--sweep values must be >= 1\n%s", kUsage);
        return 2;
      }
      sweep_shards.push_back(value);
    }
  }
  std::string out = flags.Get("out", "BENCH_serve.json");

  // ----- pinned workload: DEALERS subset, one XPATH + one LR wrapper per
  // site (name.wrapper / name_lr.wrapper) --------------------------------
  datasets::DealersConfig config;
  config.num_sites = static_cast<size_t>(*sites_or);
  if (*records_or > 0) {
    config.min_records = static_cast<size_t>(*records_or);
    config.max_records = static_cast<size_t>(*records_or);
  }
  datasets::Dataset dealers = datasets::MakeDealers(config);

  std::filesystem::path repo_dir =
      std::filesystem::temp_directory_path() /
      ("ntw_loadgen_repo_" + std::to_string(::getpid()));
  core::XPathInductor xpath_inductor;
  core::LrInductor lr_inductor;
  // (site, attribute, page body) per request, in deterministic order.
  std::vector<std::string> page_bodies;
  std::vector<std::string> page_sites;
  for (size_t s = 0; s < dealers.sites.size(); ++s) {
    const sitegen::GeneratedSite& site = dealers.sites[s].site;
    std::string site_key = StrFormat("site_%04zu", s);
    auto truth = site.truth.find("name");
    if (truth == site.truth.end() || truth->second.empty()) {
      std::fprintf(stderr, "site %zu has no 'name' ground truth\n", s);
      return 1;
    }
    std::string site_dir = (repo_dir / site_key).string();
    Status made = MakeDirs(site_dir);
    if (!made.ok()) {
      std::fprintf(stderr, "%s\n", made.ToString().c_str());
      return 1;
    }
    struct Learn {
      const core::WrapperInductor* inductor;
      const char* file;
    };
    for (const Learn& learn :
         {Learn{&xpath_inductor, "name.wrapper"},
          Learn{&lr_inductor, "name_lr.wrapper"}}) {
      core::Induction induction =
          learn.inductor->Induce(site.pages, truth->second);
      if (induction.wrapper == nullptr) {
        std::fprintf(stderr, "site %zu: induction failed (%s)\n", s,
                     learn.file);
        return 1;
      }
      Result<std::string> record =
          core::SerializeWrapper(*induction.wrapper);
      if (!record.ok()) {
        std::fprintf(stderr, "%s\n", record.status().ToString().c_str());
        return 1;
      }
      Status wrote =
          WriteFile(site_dir + "/" + learn.file, *record + "\n");
      if (!wrote.ok()) {
        std::fprintf(stderr, "%s\n", wrote.ToString().c_str());
        return 1;
      }
    }
    for (size_t p = 0; p < site.pages.size(); ++p) {
      page_bodies.push_back(html::Serialize(site.pages.page(p).root()));
      page_sites.push_back(site_key);
    }
  }

  serve::WrapperRepository repository(repo_dir.string());
  Status loaded = repository.Load();
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.ToString().c_str());
    std::filesystem::remove_all(repo_dir);
    return 1;
  }
  for (const std::string& error : repository.snapshot()->errors) {
    std::fprintf(stderr, "wrapper load error: %s\n", error.c_str());
  }

  serve::ExtractService streaming(&repository, &ThreadPool::Global(),
                                  serve::ExtractService::Options{true, 0});
  serve::ExtractService interpreted(&repository, &ThreadPool::Global(),
                                    serve::ExtractService::Options{false, 0});

  // ----- equivalence gate: both paths, every (attribute, page) request,
  // byte-compared. The streaming-service bodies double as the baseline
  // for the sweep's cross-shard replay below ("name" requests first, then
  // "name_lr", matching the replay order). --------------------------------
  int64_t divergences = 0;
  int64_t responses_compared = 0;
  std::vector<std::string> expected_bodies;
  expected_bodies.reserve(2 * page_bodies.size());
  for (const char* attribute : {"name", "name_lr"}) {
    for (size_t i = 0; i < page_bodies.size(); ++i) {
      serve::HttpRequest request;
      request.method = "POST";
      request.path = "/extract";
      request.query.emplace_back("site", page_sites[i]);
      request.query.emplace_back("attribute", attribute);
      request.body = page_bodies[i];
      serve::HttpResponse a = streaming.Handle(request);
      serve::HttpResponse b = interpreted.Handle(request);
      ++responses_compared;
      if (a.status != b.status || a.body != b.body) {
        ++divergences;
        if (divergences <= 3) {
          std::fprintf(stderr,
                       "DIVERGENCE site=%s attribute=%s page=%zu\n"
                       "  streaming: %d %s\n  interp: %d %s\n",
                       page_sites[i].c_str(), attribute, i, a.status,
                       a.body.c_str(), b.status, b.body.c_str());
        }
      }
      expected_bodies.push_back(std::move(a.body));
    }
  }
  if (divergences > 0) {
    std::fprintf(stderr,
                 "ntw_loadgen: %lld of %lld responses diverge between"
                 " the streaming and interpreted paths\n",
                 static_cast<long long>(divergences),
                 static_cast<long long>(responses_compared));
    std::filesystem::remove_all(repo_dir);
    return 1;
  }
  std::fprintf(stderr,
               "equivalence: %lld responses byte-identical across paths\n",
               static_cast<long long>(responses_compared));

  // ----- fused gate: attribute=* multi-attribute responses (one
  // StreamPage build for every dom_free attribute of the site) vs the
  // interpreter, byte-compared before anything is timed. Reported on
  // stderr only. -----------------------------------------------------------
  {
    int64_t fused_divergences = 0;
    for (size_t i = 0; i < page_bodies.size(); ++i) {
      serve::HttpRequest request;
      request.method = "POST";
      request.path = "/extract";
      request.query.emplace_back("site", page_sites[i]);
      request.query.emplace_back("attribute", "*");
      request.body = page_bodies[i];
      serve::HttpResponse a = streaming.Handle(request);
      serve::HttpResponse b = interpreted.Handle(request);
      if (a.status != b.status || a.body != b.body) {
        ++fused_divergences;
        if (fused_divergences <= 3) {
          std::fprintf(stderr,
                       "FUSED DIVERGENCE site=%s page=%zu\n"
                       "  fused: %d %s\n  interp: %d %s\n",
                       page_sites[i].c_str(), i, a.status, a.body.c_str(),
                       b.status, b.body.c_str());
        }
      }
    }
    if (fused_divergences > 0) {
      std::fprintf(stderr,
                   "ntw_loadgen: %lld of %zu multi-attribute responses"
                   " diverge between the fused and interpreted paths\n",
                   static_cast<long long>(fused_divergences),
                   page_bodies.size());
      std::filesystem::remove_all(repo_dir);
      return 1;
    }
    std::fprintf(stderr,
                 "fused equivalence: %zu attribute=* responses"
                 " byte-identical to the interpreter\n",
                 page_bodies.size());
  }

  // Pre-serialized request bytes, one per (attribute, site, page).
  auto build_requests = [&](const char* attribute) {
    std::vector<std::string> requests;
    requests.reserve(page_bodies.size());
    for (size_t i = 0; i < page_bodies.size(); ++i) {
      std::string request = "POST /extract?site=" + page_sites[i] +
                            "&attribute=" + attribute +
                            " HTTP/1.1\r\n"
                            "Host: 127.0.0.1\r\n"
                            "Content-Type: text/html\r\n"
                            "Content-Length: " +
                            std::to_string(page_bodies[i].size()) +
                            "\r\n\r\n" + page_bodies[i];
      requests.push_back(std::move(request));
    }
    return requests;
  };
  std::vector<std::string> xpath_requests = build_requests("name");
  std::vector<std::string> lr_requests = build_requests("name_lr");

  int64_t total_requests = *requests_or;
  int connections = static_cast<int>(*connections_or);
  int client_threads = static_cast<int>(
      std::min<int64_t>(*client_threads_or, connections));
  int64_t pipeline = *pipeline_or;
  int repetitions = static_cast<int>(*reps_or);
  int shards = static_cast<int>(*shards_or);
  int max_shards = shards;
  for (int s : sweep_shards) max_shards = std::max(max_shards, s);
  obs::Registry::Global().SetShardCount(max_shards);

  // ----- in-process server for the main phases: --shards reactors, one
  // streaming + one interpreted service per shard (each with a
  // shard-private buffer pool), the active path flipped between phases --
  enum Mode : int { kStreaming = 0, kInterpreted = 1 };
  std::atomic<int> mode{kStreaming};
  struct ShardServices {
    std::unique_ptr<serve::ExtractService> streaming;
    std::unique_ptr<serve::ExtractService> interpreted;
  };
  std::vector<ShardServices> shard_services(static_cast<size_t>(shards));
  serve::ServerOptions server_options;
  server_options.port = 0;
  server_options.shards = shards;
  server_options.pool = nullptr;  // Inline: the reactors are the threads.
  serve::HttpServer server(
      server_options,
      serve::HttpServer::HandlerFactory([&](int shard) {
        auto& slot = shard_services[static_cast<size_t>(shard)];
        slot.streaming = std::make_unique<serve::ExtractService>(
            &repository, &ThreadPool::Global(),
            serve::ExtractService::Options{true, shard});
        slot.interpreted = std::make_unique<serve::ExtractService>(
            &repository, &ThreadPool::Global(),
            serve::ExtractService::Options{false, shard});
        serve::ExtractService* s = slot.streaming.get();
        serve::ExtractService* i = slot.interpreted.get();
        return [s, i, &mode](const serve::HttpRequest& request) {
          return mode.load(std::memory_order_acquire) == kStreaming
                     ? s->Handle(request)
                     : i->Handle(request);
        };
      }));
  Status bound = server.Bind();
  if (!bound.ok()) {
    std::fprintf(stderr, "%s\n", bound.ToString().c_str());
    std::filesystem::remove_all(repo_dir);
    return 1;
  }
  int port = server.port();
  std::thread server_thread([&server]() { server.Run(); });

  std::fprintf(stderr,
               "ntw_loadgen: %zu sites, %zu pages, %lld requests/phase,"
               " %d connection(s), %d client thread(s), pipeline %lld,"
               " %d repetition(s), %d shard(s), port %d\n",
               dealers.sites.size(), page_bodies.size(),
               static_cast<long long>(total_requests), connections,
               client_threads, static_cast<long long>(pipeline), repetitions,
               shards, port);

  // Interleave all four phases across repetitions so slow drift in the
  // environment hits every phase alike; keep the best repetition of
  // each, the same noise-rejection convention as ntw_bench.
  struct PhaseSpec {
    const char* name;
    const char* plan_kind;
    const char* path;
    Mode phase_mode;
    const std::vector<std::string>* requests;
  };
  const PhaseSpec specs[] = {
      {"delimiter_streaming", "lr", "streaming", kStreaming, &lr_requests},
      {"delimiter_interpreted", "lr", "interpreted", kInterpreted,
       &lr_requests},
      {"xpath_streaming", "xpath", "streaming", kStreaming, &xpath_requests},
      {"xpath_interpreted", "xpath", "interpreted", kInterpreted,
       &xpath_requests},
  };
  constexpr size_t kPhaseCount = sizeof(specs) / sizeof(specs[0]);
  std::vector<std::vector<PhaseResult>> phase_reps(kPhaseCount);
  for (int rep = 0; rep < repetitions; ++rep) {
    for (size_t ph = 0; ph < kPhaseCount; ++ph) {
      mode.store(specs[ph].phase_mode, std::memory_order_release);
      PhaseResult r =
          RunPhase(specs[ph].name, port, *specs[ph].requests,
                   total_requests, connections, client_threads, pipeline);
      r.plan_kind = specs[ph].plan_kind;
      r.path = specs[ph].path;
      phase_reps[ph].push_back(std::move(r));
    }
  }
  std::vector<PhaseResult> phase_results;
  phase_results.reserve(kPhaseCount);
  for (size_t ph = 0; ph < kPhaseCount; ++ph) {
    phase_results.push_back(BestOf(phase_reps[ph]));
  }

  server.RequestShutdown();
  server_thread.join();

  int64_t phase_errors = 0;
  for (const PhaseResult& r : phase_results) {
    std::fprintf(stderr,
                 "  %-22s %9.1f req/s  p50=%lldus p95=%lldus p99=%lldus"
                 "  errors=%lld\n",
                 r.name.c_str(), r.requests_per_second,
                 static_cast<long long>(r.latency_p50_micros),
                 static_cast<long long>(r.latency_p95_micros),
                 static_cast<long long>(r.latency_p99_micros),
                 static_cast<long long>(r.errors));
    phase_errors += r.errors;
  }
  if (phase_errors > 0) {
    std::fprintf(stderr, "ntw_loadgen: request errors during load\n");
    std::filesystem::remove_all(repo_dir);
    return 1;
  }
  auto rps_of = [&](const char* name) {
    for (const PhaseResult& r : phase_results) {
      if (r.name == name) return r.requests_per_second;
    }
    return 0.0;
  };
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  // What skipping the DOM buys over the oracle, per plan kind.
  double delimiter_vs_interp = ratio(rps_of("delimiter_streaming"),
                                     rps_of("delimiter_interpreted"));
  double xpath_vs_interp =
      ratio(rps_of("xpath_streaming"), rps_of("xpath_interpreted"));
  std::fprintf(stderr,
               "  speedups: delimiter streaming/interp %.2fx,"
               " xpath streaming/interp %.2fx\n",
               delimiter_vs_interp, xpath_vs_interp);

  // ----- shard sweep: throughput-vs-shards curve + cross-shard bytes ----
  std::vector<SweepPoint> sweep;
  for (int point_shards : sweep_shards) {
    SweepPoint point;
    point.shards = point_shards;
    std::vector<ShardServices> sweep_services(
        static_cast<size_t>(point_shards));
    serve::ServerOptions sweep_options;
    sweep_options.port = 0;
    sweep_options.shards = point_shards;
    sweep_options.pool = nullptr;
    serve::HttpServer sweep_server(
        sweep_options,
        serve::HttpServer::HandlerFactory([&](int shard) {
          auto& slot = sweep_services[static_cast<size_t>(shard)];
          slot.streaming = std::make_unique<serve::ExtractService>(
              &repository, &ThreadPool::Global(),
              serve::ExtractService::Options{true, shard});
          serve::ExtractService* f = slot.streaming.get();
          return [f](const serve::HttpRequest& request) {
            return f->Handle(request);
          };
        }));
    Status sweep_bound = sweep_server.Bind();
    if (!sweep_bound.ok()) {
      std::fprintf(stderr, "%s\n", sweep_bound.ToString().c_str());
      std::filesystem::remove_all(repo_dir);
      return 1;
    }
    point.accept_relay = sweep_server.using_accept_relay();
    int sweep_port = sweep_server.port();
    std::thread sweep_thread([&sweep_server]() { sweep_server.Run(); });

    // Scale offered load with the shard count so the server, not the
    // client, is the bottleneck being measured.
    int sweep_connections = std::max(connections, 2 * point_shards);
    int sweep_client_threads =
        std::min(sweep_connections, std::max(client_threads, point_shards));
    // The sweep drives the delimiter_streaming workload — the new hot
    // path whose shard scaling the curve is meant to track.
    std::vector<PhaseResult> point_reps;
    for (int rep = 0; rep < repetitions; ++rep) {
      PhaseResult r = RunPhase(
          "sweep_" + std::to_string(point_shards), sweep_port, lr_requests,
          total_requests, sweep_connections, sweep_client_threads,
          pipeline);
      r.plan_kind = "lr";
      r.path = "streaming";
      point_reps.push_back(std::move(r));
    }
    point.phase = BestOf(point_reps);

    // Cross-shard byte-identity: replay every distinct request serially
    // on a fresh connection ("name" first, then "name_lr" — the
    // expected_bodies order) and compare against the in-process baseline.
    {
      Client replay(sweep_port);
      size_t expected_index = 0;
      for (const std::vector<std::string>* requests :
           {&xpath_requests, &lr_requests}) {
        for (size_t i = 0; replay.ok() && i < requests->size();
             ++i, ++expected_index) {
          if (!replay.Send((*requests)[i])) {
            ++point.divergences;
            break;
          }
          std::string response = replay.ReadResponse();
          size_t body_start = response.find("\r\n\r\n");
          std::string body = body_start == std::string::npos
                                 ? std::string()
                                 : response.substr(body_start + 4);
          if (body != expected_bodies[expected_index]) {
            ++point.divergences;
            if (point.divergences <= 3) {
              std::fprintf(stderr,
                           "SHARD DIVERGENCE shards=%d request=%zu\n",
                           point_shards, expected_index);
            }
          }
        }
      }
      if (!replay.ok()) ++point.divergences;
    }

    sweep_server.RequestShutdown();
    sweep_thread.join();
    std::fprintf(stderr,
                 "  sweep shards=%-2d %9.1f req/s  (%d conns, %d client"
                 " threads%s)  divergences=%lld\n",
                 point_shards, point.phase.requests_per_second,
                 sweep_connections, sweep_client_threads,
                 point.accept_relay ? ", accept relay" : "",
                 static_cast<long long>(point.divergences));
    sweep.push_back(std::move(point));
  }
  std::filesystem::remove_all(repo_dir);
  int64_t sweep_errors = 0;
  int64_t sweep_divergences = 0;
  for (const SweepPoint& point : sweep) {
    sweep_errors += point.phase.errors;
    sweep_divergences += point.divergences;
  }
  if (sweep_errors > 0 || sweep_divergences > 0) {
    std::fprintf(stderr,
                 "ntw_loadgen: sweep failed (%lld errors, %lld"
                 " divergences)\n",
                 static_cast<long long>(sweep_errors),
                 static_cast<long long>(sweep_divergences));
    return 1;
  }

  obs::JsonWriter json;
  BeginSchemaDocument(json, "ntw-serve-bench", kSchemaVersion);
  json.Key("config");
  json.BeginObject();
  json.KV("sites", static_cast<int64_t>(dealers.sites.size()));
  json.KV("pages", static_cast<int64_t>(page_bodies.size()));
  {
    size_t total_bytes = 0;
    for (const std::string& body : page_bodies) total_bytes += body.size();
    json.KV("records_per_page",
            *records_or > 0 ? *records_or : int64_t{0});
    json.KV("page_bytes_total", static_cast<int64_t>(total_bytes));
    json.KV("page_bytes_mean",
            static_cast<int64_t>(page_bodies.empty()
                                     ? 0
                                     : total_bytes / page_bodies.size()));
  }
  json.KV("requests_per_phase", total_requests);
  json.KV("connections", static_cast<int64_t>(connections));
  json.KV("client_threads", static_cast<int64_t>(client_threads));
  json.KV("pipeline", pipeline);
  json.KV("repetitions", static_cast<int64_t>(repetitions));
  json.KV("shards", static_cast<int64_t>(shards));
  json.KV("server_inline", true);
  json.KV("smoke", smoke);
  json.EndObject();
  WriteMachineInfo(json);
  json.Key("phases");
  json.BeginArray();
  for (const PhaseResult& r : phase_results) WritePhase(json, r);
  json.EndArray();
  json.Key("speedups");
  json.BeginObject();
  json.KV("delimiter_streaming_vs_interpreted", delimiter_vs_interp);
  json.KV("xpath_streaming_vs_interpreted", xpath_vs_interp);
  json.EndObject();
  json.Key("equivalence");
  json.BeginObject();
  json.KV("responses_compared", responses_compared);
  json.KV("divergences", divergences);
  json.EndObject();
  json.Key("sweep");
  json.BeginArray();
  for (const SweepPoint& point : sweep) {
    json.BeginObject();
    json.KV("shards", static_cast<int64_t>(point.shards));
    json.KV("accept_relay", point.accept_relay);
    json.KV("plan_kind", point.phase.plan_kind);
    json.KV("path", point.phase.path);
    json.KV("requests_per_second", point.phase.requests_per_second);
    json.Key("requests_per_second_reps");
    json.BeginArray();
    for (double rps : point.phase.rps_reps) json.Double(rps);
    json.EndArray();
    json.Key("latency_micros");
    json.BeginObject();
    json.KV("count", point.phase.latency_count);
    json.KV("mean", point.phase.latency_mean_micros);
    json.KV("p50", point.phase.latency_p50_micros);
    json.KV("p95", point.phase.latency_p95_micros);
    json.KV("p99", point.phase.latency_p99_micros);
    json.KV("max", point.phase.latency_max_micros);
    json.EndObject();
    json.KV("errors", point.phase.errors);
    json.KV("divergences", point.divergences);
    json.EndObject();
  }
  json.EndArray();
  json.KV("peak_rss_bytes", obs::PeakRssBytes());
  json.EndObject();
  std::string body = json.Take();
  Status written = WriteFile(out, body + "\n");
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %s (%zu bytes, peak rss %.1f MiB)\n",
               out.c_str(), body.size() + 1,
               static_cast<double>(obs::PeakRssBytes()) / (1024.0 * 1024.0));
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
