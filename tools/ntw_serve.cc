// ntw_serve — the wrapper-serving daemon: loads a repository of learned
// wrappers and applies them to freshly crawled pages over HTTP, the
// paper's deployment mode (learn once per site, extract at web scale).
//
// Usage:
//   ntw_serve --wrapper-dir DIR [--pack FILE] [--host 127.0.0.1]
//             [--port 8377]
//             [--port-file PATH] [--shards N] [--threads N]
//             [--max-body-bytes N]
//             [--read-timeout-ms N] [--write-timeout-ms N]
//             [--drain-grace-ms N] [--reload-poll-ms N]
//             [--metrics-json PATH] [--trace PATH]
//             [--no-fast-path] [--quiet]
//             [--no-self-heal] [--drift-warmup N] [--drift-window N]
//             [--drift-empty-streak N] [--drift-hysteresis N]
//             [--drift-cooldown N] [--drift-retain K]
//             [--reinduce-threads N] [--reinduce-queue N]
//
// --shards N runs N reactor shards (independent event loops, one per
// core by default — DESIGN.md §11); each shard handles its requests
// inline with shard-private buffer pools, one request at a time.
// --threads sizes the global pool that /extract_batch fans out over and
// that re-induction learns on.
//
// Self-healing (DESIGN.md §13) is on by default: every /extract feeds a
// per-(site, attribute) drift detector; a drifted pair is re-induced on
// retained request bodies by a background worker and the repaired
// wrapper is hot-published (and persisted) when it outscores the
// incumbent. --no-self-heal disables detection and the worker entirely;
// the --drift-*/--reinduce-* flags tune thresholds. GET /driftz dumps
// detector state.
//
// --pack FILE serves a memory-mapped wrapper pack (DESIGN.md §15):
// startup is O(mmap), and --wrapper-dir becomes the overlay directory
// that self-heal publishes land in (optional for read-only serving).
// Without --pack, or when it fails to open (a logged warning), the
// --wrapper-dir tree is packed in memory. Sites compile on first hit.
//
// Endpoints (see DESIGN.md §8):
//   POST /extract?site=S&attribute=A        body = one HTML page
//     (attribute=* extracts every attribute of the site, flattening the
//      page once for all of its delimiter plans)
//   POST /extract_batch?site=S&attribute=A  body = NDJSON {"id","html"}
//   GET  /metrics                           obs registry dump
//   GET  /healthz
//
// Signals: SIGTERM/SIGINT trigger graceful shutdown (stop accepting,
// answer the requests already received, flush final metrics, exit 0);
// SIGHUP forces a wrapper repository reload. The repository is also
// hot-reloaded when file mtimes change (--reload-poll-ms cadence, 0
// disables).

#include <csignal>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "obs/metrics.h"

#include "common/file_util.h"
#include "common/flags.h"
#include "common/obs_export.h"
#include "common/thread_pool.h"
#include "serve/reinduce.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/wrapper_repository.h"

namespace {

using namespace ntw;

constexpr char kUsage[] =
    "usage: ntw_serve --wrapper-dir DIR [--pack FILE] [--host H] [--port P]"
    " [--port-file PATH]\n"
    "                 [--shards N] [--threads N] [--max-body-bytes N]\n"
    "                 [--read-timeout-ms N] [--write-timeout-ms N]\n"
    "                 [--drain-grace-ms N]\n"
    "                 [--reload-poll-ms N] [--metrics-json PATH]\n"
    "                 [--trace PATH] [--no-fast-path] [--quiet]\n"
    "                 [--no-self-heal]"
    " [--drift-warmup N]\n"
    "                 [--drift-window N] [--drift-empty-streak N]\n"
    "                 [--drift-hysteresis N] [--drift-cooldown N]\n"
    "                 [--drift-retain K] [--reinduce-threads N]\n"
    "                 [--reinduce-queue N]\n"
    "Each of the --shards reactors (one per core by default) handles its\n"
    "requests inline; --threads sizes the /extract_batch fan-out pool.\n";

serve::HttpServer* g_server = nullptr;

// Handlers only touch lock-free atomics via Request*() — signal-safe.
void OnShutdownSignal(int) {
  if (g_server != nullptr) g_server->RequestShutdown();
}
void OnReloadSignal(int) {
  if (g_server != nullptr) g_server->RequestReload();
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
      {"wrapper-dir", "pack", "host", "port", "port-file", "shards",
       "threads", "max-body-bytes", "read-timeout-ms",
       "write-timeout-ms", "drain-grace-ms", "reload-poll-ms",
       "metrics-json", "trace", "no-fast-path",
       "quiet",
       "no-self-heal", "drift-warmup", "drift-window", "drift-empty-streak",
       "drift-hysteresis", "drift-cooldown", "drift-retain",
       "reinduce-threads", "reinduce-queue", "help"});
  if (!unknown.empty() || flags.Has("help")) {
    for (const std::string& name : unknown) {
      std::fprintf(stderr, "unknown flag --%s\n", name.c_str());
    }
    std::fprintf(stderr, "%s", kUsage);
    return flags.Has("help") ? 0 : 2;
  }
  bool quiet = flags.Has("quiet");
  ObsExporter obs_export = ObsExporter::FromFlags(flags);

  std::string wrapper_dir = flags.Get("wrapper-dir");
  std::string pack_path = flags.Get("pack");
  if (wrapper_dir.empty() && pack_path.empty()) {
    std::fprintf(stderr, "--wrapper-dir or --pack is required\n%s", kUsage);
    return 2;
  }

  Result<int> threads = ConfigureGlobalThreadPool(flags);
  if (!threads.ok()) {
    std::fprintf(stderr, "%s\n%s", threads.status().ToString().c_str(),
                 kUsage);
    return 2;
  }

  serve::ServerOptions options;
  options.host = flags.Get("host", "127.0.0.1");
  Result<int64_t> port = flags.GetInt("port", 8377);
  Result<int64_t> max_body = flags.GetInt(
      "max-body-bytes", static_cast<int64_t>(options.limits.max_body_bytes));
  Result<int64_t> read_timeout =
      flags.GetInt("read-timeout-ms", options.read_timeout_ms);
  Result<int64_t> write_timeout =
      flags.GetInt("write-timeout-ms", options.write_timeout_ms);
  Result<int64_t> drain_grace =
      flags.GetInt("drain-grace-ms", options.drain_grace_ms);
  Result<int64_t> reload_poll = flags.GetInt("reload-poll-ms", 1000);
  unsigned hw = std::thread::hardware_concurrency();
  Result<int64_t> shards =
      flags.GetInt("shards", static_cast<int64_t>(hw > 0 ? hw : 1));
  for (const auto* value : {&port, &max_body, &read_timeout, &write_timeout,
                            &drain_grace, &reload_poll, &shards}) {
    if (!value->ok()) {
      std::fprintf(stderr, "%s\n%s", value->status().ToString().c_str(),
                   kUsage);
      return 2;
    }
  }
  options.port = static_cast<int>(*port);
  options.limits.max_body_bytes = static_cast<size_t>(*max_body);
  options.read_timeout_ms = static_cast<int>(*read_timeout);
  options.write_timeout_ms = static_cast<int>(*write_timeout);
  options.drain_grace_ms = static_cast<int>(*drain_grace);
  options.tick_interval_ms = static_cast<int>(*reload_poll);
  options.shards = *shards < 1 ? 1 : static_cast<int>(*shards);
  obs::Registry::Global().SetShardCount(options.shards);

  serve::DriftConfig drift;
  drift.enabled = !flags.Has("no-self-heal");
  serve::ReinduceOptions reinduce_options;
  {
    Result<int64_t> warmup = flags.GetInt("drift-warmup", drift.warmup_pages);
    Result<int64_t> window = flags.GetInt("drift-window",
                                          drift.evaluate_every);
    Result<int64_t> streak =
        flags.GetInt("drift-empty-streak", drift.empty_streak_limit);
    Result<int64_t> hysteresis =
        flags.GetInt("drift-hysteresis", drift.hysteresis);
    Result<int64_t> cooldown =
        flags.GetInt("drift-cooldown", drift.cooldown_pages);
    Result<int64_t> retain = flags.GetInt("drift-retain", drift.retain_pages);
    Result<int64_t> reinduce_threads =
        flags.GetInt("reinduce-threads", reinduce_options.threads);
    Result<int64_t> reinduce_queue = flags.GetInt(
        "reinduce-queue", static_cast<int64_t>(reinduce_options.max_queue));
    for (const auto* value :
         {&warmup, &window, &streak, &hysteresis, &cooldown, &retain,
          &reinduce_threads, &reinduce_queue}) {
      if (!value->ok()) {
        std::fprintf(stderr, "%s\n%s", value->status().ToString().c_str(),
                     kUsage);
        return 2;
      }
    }
    drift.warmup_pages = static_cast<int>(*warmup);
    drift.evaluate_every = static_cast<int>(*window);
    drift.empty_streak_limit = static_cast<int>(*streak);
    drift.hysteresis = static_cast<int>(*hysteresis);
    drift.cooldown_pages = static_cast<int>(*cooldown);
    drift.retain_pages = static_cast<int>(*retain);
    reinduce_options.threads = static_cast<int>(*reinduce_threads);
    reinduce_options.max_queue = static_cast<size_t>(*reinduce_queue);
  }

  serve::WrapperRepository repository(
      serve::WrapperRepository::Options{wrapper_dir, pack_path});
  repository.SetDriftConfig(drift);
  Status loaded = repository.Load();
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.ToString().c_str());
    return 1;
  }
  std::shared_ptr<const serve::WrapperRepository::Snapshot> snapshot =
      repository.snapshot();
  for (const std::string& error : snapshot->errors) {
    std::fprintf(stderr, "ntw_serve: skipped wrapper: %s\n", error.c_str());
  }
  if (!quiet) {
    std::fprintf(stderr, "ntw_serve: loaded %zu wrappers (%zu sites) from %s\n",
                 snapshot->TotalWrapperCount(), snapshot->pack->site_count(),
                 snapshot->pack->path().c_str());
  }

  // --no-fast-path sends every request to the interpreted
  // Wrapper::Extract path, the byte-identity oracle of the streaming
  // path (DESIGN.md §12), for A/B benchmarking and cross-checks.
  bool fast_path = !flags.Has("no-fast-path");
  // The re-induction worker: one shared queue behind every shard's
  // detector hand-offs. Constructed (and started) only when self-healing
  // is on, so --no-self-heal spawns no extra threads.
  std::unique_ptr<serve::ReinduceWorker> reinducer;
  if (drift.enabled) {
    reinducer = std::make_unique<serve::ReinduceWorker>(&repository,
                                                        reinduce_options);
    reinducer->Start();
  }
  // One ExtractService per shard: shard-private buffer pools and
  // per-shard metric stripes; the repository is shared (epoch-pinned
  // reads). The factory runs once per shard inside Bind().
  std::vector<std::unique_ptr<serve::ExtractService>> services;
  serve::ReinduceWorker* reinducer_ptr = reinducer.get();
  serve::HttpServer server(
      options,
      serve::HttpServer::HandlerFactory(
          [&repository, &services, fast_path, reinducer_ptr](int shard) {
            serve::ExtractService::Options service_options;
            service_options.fast_path = fast_path;
            service_options.shard = shard;
            service_options.self_heal = reinducer_ptr != nullptr;
            services.push_back(std::make_unique<serve::ExtractService>(
                &repository, &ThreadPool::Global(), service_options,
                reinducer_ptr));
            serve::ExtractService* service = services.back().get();
            return [service](const serve::HttpRequest& request) {
              return service->Handle(request);
            };
          }));
  server.SetReloadHook([&repository, quiet] {
    Status status = repository.Load();
    if (!status.ok()) {
      std::fprintf(stderr, "ntw_serve: reload failed: %s\n",
                   status.ToString().c_str());
    } else if (!quiet) {
      std::fprintf(stderr, "ntw_serve: repository reloaded (%zu wrappers)\n",
                   repository.snapshot()->TotalWrapperCount());
    }
  });
  server.SetTickHook([&repository, &server] {
    if (repository.PollForChanges()) server.RequestReload();
  });

  Status bound = server.Bind();
  if (!bound.ok()) {
    std::fprintf(stderr, "%s\n", bound.ToString().c_str());
    return 1;
  }
  if (flags.Has("port-file")) {
    Status written = WriteFile(flags.Get("port-file"),
                               std::to_string(server.port()) + "\n");
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
  }
  if (!quiet) {
    std::fprintf(stderr,
                 "ntw_serve: listening on %s:%d (%d shard%s%s, %d threads)\n",
                 options.host.c_str(), server.port(), options.shards,
                 options.shards == 1 ? "" : "s",
                 server.using_accept_relay() ? ", accept relay" : "",
                 *threads);
  }

  g_server = &server;
  std::signal(SIGTERM, OnShutdownSignal);
  std::signal(SIGINT, OnShutdownSignal);
  std::signal(SIGHUP, OnReloadSignal);
  std::signal(SIGPIPE, SIG_IGN);

  Status ran = server.Run();
  g_server = nullptr;
  // Stop the worker before tearing anything else down: in-flight repairs
  // finish (and publish), queued ones are dropped into cooldown.
  if (reinducer != nullptr) reinducer->Stop();
  if (!ran.ok()) {
    std::fprintf(stderr, "%s\n", ran.ToString().c_str());
    return 1;
  }
  if (!quiet) std::fprintf(stderr, "ntw_serve: drained, shutting down\n");

  Status flushed = obs_export.Write();
  if (!flushed.ok()) {
    std::fprintf(stderr, "%s\n", flushed.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
