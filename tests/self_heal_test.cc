// Fault-injection harness for the self-healing pipeline (DESIGN.md §13):
// a live sharded server extracts from a generated site whose template is
// mutated mid-soak. The detector must notice the drift, retain pages,
// re-induce in the background worker, and hot-publish a repaired wrapper
// — with zero 5xx responses, zero torn responses, post-recovery
// extractions byte-identical to a fresh induction on the mutated
// template, and the repair surviving a process restart. A second soak
// races worker publishes against SIGHUP-style reloads (the TSan CI job
// gives it race-detection teeth) and pins the epoch-reclamation contract.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/file_util.h"
#include "core/lr_inductor.h"
#include "core/wrapper_store.h"
#include "gtest/gtest.h"
#include "html/parser.h"
#include "obs/metrics.h"
#include "serve/http.h"
#include "serve/reinduce.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/wrapper_repository.h"
#include "sitegen/mutate.h"
#include "test_util.h"

namespace ntw::serve {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

int64_t Counter(const std::string& name) {
  return obs::Registry::Global().GetCounter(name)->value();
}

// ---------------------------------------------------------------------
// Raw-socket client (keep-alive, Content-Length framing).
// ---------------------------------------------------------------------

class Client {
 public:
  explicit Client(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    int rc = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    EXPECT_EQ(rc, 0) << "connect: " << std::strerror(errno);
  }

  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool Send(std::string_view data) {
    while (!data.empty()) {
      ssize_t n = ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
      if (n <= 0) return false;
      data.remove_prefix(static_cast<size_t>(n));
    }
    return true;
  }

  /// One full response (headers + Content-Length body); "" on error.
  std::string ReadResponse() {
    while (true) {
      size_t header_end = buffer_.find("\r\n\r\n");
      if (header_end != std::string::npos) {
        size_t body_start = header_end + 4;
        size_t total = body_start + ContentLengthOf(header_end);
        if (buffer_.size() >= total) {
          std::string response = buffer_.substr(0, total);
          buffer_.erase(0, total);
          return response;
        }
      }
      char chunk[16384];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return "";
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  size_t ContentLengthOf(size_t header_end) const {
    std::string lowered = buffer_.substr(0, header_end);
    for (char& c : lowered) c = static_cast<char>(::tolower(c));
    size_t pos = lowered.find("content-length:");
    if (pos == std::string::npos) return 0;
    return static_cast<size_t>(
        std::strtoul(lowered.c_str() + pos + 15, nullptr, 10));
  }

  int fd_ = -1;
  std::string buffer_;
};

std::string ExtractRequest(const std::string& html) {
  return "POST /extract?site=example.com&attribute=name HTTP/1.1\r\n"
         "Host: test\r\nContent-Length: " +
         std::to_string(html.size()) + "\r\n\r\n" + html;
}

constexpr char kDriftzRequest[] =
    "GET /driftz HTTP/1.1\r\nHost: test\r\n\r\n";

// ---------------------------------------------------------------------
// The generated site and its fault injection.
// ---------------------------------------------------------------------

const std::vector<std::string> kPool = {"Acme Motors", "Bay Auto",
                                        "Cape Cars",   "Delta Vans",
                                        "Echo Wheels", "Fox Trucks"};

/// One listing page: a varying title (no learnable delimiter can span
/// it) and one <div class="rec"> record per name, the name in <b>.
std::string ListingPage(int page, const std::vector<std::string>& names) {
  std::string html =
      "<html><head><title>Listing page " + std::to_string(page) +
      "</title></head><body><h1>Dealers</h1><div class=\"list\">";
  for (size_t i = 0; i < names.size(); ++i) {
    html += "<div class=\"rec\"><b>" + names[i] + "</b><span>Suite " +
            std::to_string(100 + i) + "</span></div>";
  }
  html += "</div><p class=\"footer\">End of results</p></body></html>";
  return html;
}

std::vector<std::string> OriginalBodies() {
  return {ListingPage(0, {kPool[0], kPool[1], kPool[2]}),
          ListingPage(1, {kPool[1], kPool[3], kPool[4]}),
          ListingPage(2, {kPool[2], kPool[4], kPool[5]})};
}

/// The drift dictionary the warmup accumulates: every name, first-seen
/// (page) order, deduplicated.
std::vector<std::string> WarmupDictionary() {
  std::vector<std::string> names;
  for (const std::string& body : OriginalBodies()) {
    for (const std::string& name : kPool) {
      if (body.find("<b>" + name + "</b>") != std::string::npos &&
          std::find(names.begin(), names.end(), name) == names.end()) {
        names.push_back(name);
      }
    }
  }
  return names;
}

core::PageSet ParsePages(const std::vector<std::string>& bodies) {
  core::PageSet pages;
  for (const std::string& body : bodies) {
    pages.AddPage(ntw::testing::MustParse(body));
  }
  return pages;
}

/// Learns the healthy LR incumbent over the original bodies.
std::string LearnIncumbentRecord() {
  std::vector<std::string> bodies = OriginalBodies();
  core::PageSet pages = ParsePages(bodies);
  std::vector<core::NodeRef> refs;
  for (const std::string& name : kPool) {
    for (const core::NodeRef& ref : ntw::testing::FindText(pages, name)) {
      refs.push_back(ref);
    }
  }
  core::NodeSet labels(std::move(refs));
  core::Induction induction = core::LrInductor().Induce(pages, labels);
  EXPECT_EQ(induction.extraction.size(), 9u);
  Result<std::string> record = core::SerializeWrapper(*induction.wrapper);
  EXPECT_TRUE(record.ok()) << record.status().ToString();
  return *record;
}

/// The `"wrapper":"..."` member exactly as the serving path escapes it.
std::string WrapperMember(const std::string& record) {
  obs::JsonWriter json;
  json.BeginObject();
  json.KV("wrapper", record);
  json.EndObject();
  std::string document = json.Take();
  return document.substr(1, document.size() - 2);
}

/// `"values":[...]` for a list of extracted texts.
std::string ValuesMember(const std::vector<std::string>& values) {
  obs::JsonWriter json;
  json.BeginObject();
  json.Key("values");
  json.BeginArray();
  for (const std::string& value : values) json.String(value);
  json.EndArray();
  json.EndObject();
  std::string document = json.Take();
  return document.substr(1, document.size() - 2);
}

// ---------------------------------------------------------------------
// Harness.
// ---------------------------------------------------------------------

class SelfHealTest : public ::testing::Test {
 protected:
  SelfHealTest()
      : root_(::testing::TempDir() + "ntw_self_heal_" +
              std::to_string(::getpid())),
        repository_(root_) {
    std::filesystem::remove_all(root_);
    EXPECT_TRUE(MakeDirs(root_ + "/example.com").ok());
    incumbent_record_ = LearnIncumbentRecord();
    WriteWrapperFile(incumbent_record_ + "\n");
  }

  ~SelfHealTest() override { std::filesystem::remove_all(root_); }

  void WriteWrapperFile(const std::string& contents) {
    std::string tmp = root_ + "/example.com/.name.wrapper.tmp";
    ASSERT_TRUE(WriteFile(tmp, contents).ok());
    std::error_code ec;
    std::filesystem::rename(tmp, root_ + "/example.com/name.wrapper", ec);
    ASSERT_FALSE(ec) << ec.message();
  }

  struct RunningServer {
    std::vector<std::unique_ptr<ExtractService>> services;
    std::unique_ptr<HttpServer> server;
    std::thread thread;

    ~RunningServer() { Stop(); }
    void Stop() {
      if (thread.joinable()) {
        server->RequestShutdown();
        thread.join();
      }
    }
  };

  std::unique_ptr<RunningServer> Start(
      int shards, ReinduceWorker* worker,
      std::function<void(HttpServer&)> configure = nullptr) {
    auto running = std::make_unique<RunningServer>();
    RunningServer* r = running.get();
    ServerOptions options;
    options.port = 0;
    options.shards = shards;
    r->server = std::make_unique<HttpServer>(
        options, HttpServer::HandlerFactory([this, r, worker](int shard) {
          ExtractService::Options service_options;
          service_options.shard = shard;
          service_options.self_heal = worker != nullptr;
          r->services.push_back(std::make_unique<ExtractService>(
              &repository_, nullptr, service_options, worker));
          ExtractService* service = r->services.back().get();
          return [service](const HttpRequest& request) {
            return service->Handle(request);
          };
        }));
    Status bound = r->server->Bind();
    EXPECT_TRUE(bound.ok()) << bound.ToString();
    if (configure) configure(*r->server);
    r->thread = std::thread([r] { r->server->Run(); });
    return running;
  }

  /// Computes the exact repair the worker must produce for a ring of
  /// `copies` identical mutated bodies — the byte-identity reference.
  ReinduceWorker::Repair ExpectedRepair(const std::string& mutated_body,
                                        int copies) {
    ReinduceTask task;
    task.site = "example.com";
    task.attribute = "name";
    task.incumbent_record = incumbent_record_;
    task.pages.assign(static_cast<size_t>(copies), mutated_body);
    task.dictionary = WarmupDictionary();
    Result<ReinduceWorker::Repair> repair =
        ReinduceWorker::Reinduce(task, ReinduceOptions());
    EXPECT_TRUE(repair.ok()) << repair.status().ToString();
    EXPECT_TRUE(repair->beats_incumbent);
    return std::move(*repair);
  }

  std::string root_;
  WrapperRepository repository_;
  std::string incumbent_record_;
};

// ---------------------------------------------------------------------
// Fault injection: mutate the live site mid-soak, recover online.
// ---------------------------------------------------------------------

TEST_F(SelfHealTest, RecoversFromTemplateMutationUnderLoad) {
  DriftConfig drift;
  drift.warmup_pages = 6;
  drift.evaluate_every = 4;
  drift.empty_streak_limit = 3;
  drift.hysteresis = 1;
  drift.cooldown_pages = 64;
  drift.retain_pages = 3;
  repository_.SetDriftConfig(drift);
  ASSERT_TRUE(repository_.Load().ok());

  ReinduceWorker worker(&repository_);
  worker.Start();
  auto running = Start(/*shards=*/4, &worker);

  int64_t published_before = Counter("ntw.serve.reinduce_published");
  int64_t events_before = Counter("ntw.serve.drift_events");

  // Phase A — healthy traffic: 6 warmup pages (filter + dictionary over
  // the full name pool, then the repeat-rate probe), then a full healthy
  // evaluation window that must not fire.
  const std::vector<std::string> originals = OriginalBodies();
  {
    Client client(running->server->port());
    for (int round = 0; round < 4; ++round) {
      for (const std::string& body : originals) {
        ASSERT_TRUE(client.Send(ExtractRequest(body)));
        std::string response = client.ReadResponse();
        ASSERT_EQ(response.compare(0, 12, "HTTP/1.1 200"), 0) << response;
      }
    }
    ASSERT_TRUE(client.Send(kDriftzRequest));
    std::string driftz = client.ReadResponse();
    EXPECT_NE(driftz.find("\"phase\":\"steady\""), std::string::npos)
        << driftz;
  }
  EXPECT_EQ(Counter("ntw.serve.drift_events") - events_before, 0);

  // Phase B — the site redesigns: every request now serves the mutated
  // template (<b> → <strong>), which the LR incumbent extracts nothing
  // from. The reference repair is computed with the exact inputs the
  // drift ring will hand the worker: retain_pages copies of the one
  // canonical mutated body.
  const std::string mutated_body = sitegen::MutatePage(
      originals[0], sitegen::Mutation{sitegen::MutationKind::kDelimiterTextChange});
  ReinduceWorker::Repair expected =
      ExpectedRepair(mutated_body, drift.retain_pages);
  const std::vector<std::string> expected_values = {kPool[0], kPool[1],
                                                    kPool[2]};
  const std::string incumbent_member = WrapperMember(incumbent_record_);
  const std::string repaired_member = WrapperMember(expected.record);
  const std::string empty_values = ValuesMember({});
  const std::string repaired_values = ValuesMember(expected_values);

  std::atomic<bool> stop{false};
  std::atomic<int64_t> responses_ok{0};
  std::atomic<int64_t> responses_bad{0};
  std::atomic<int64_t> responses_torn{0};
  const std::string request = ExtractRequest(mutated_body);

  constexpr int kTrafficThreads = 4;
  std::vector<std::thread> traffic;
  traffic.reserve(kTrafficThreads);
  for (int t = 0; t < kTrafficThreads; ++t) {
    traffic.emplace_back([&] {
      Client client(running->server->port());
      while (!stop.load(std::memory_order_relaxed)) {
        if (!client.Send(request)) {
          responses_bad.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        std::string response = client.ReadResponse();
        if (response.compare(0, 12, "HTTP/1.1 200") != 0) {
          responses_bad.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        // Exactly two coherent generations exist: the drifted incumbent
        // (extracts nothing from the mutated template) and the repaired
        // wrapper (recovers the names). Anything else is a torn response.
        bool incumbent_gen =
            response.find(incumbent_member) != std::string::npos &&
            response.find(empty_values) != std::string::npos;
        bool repaired_gen =
            response.find(repaired_member) != std::string::npos &&
            response.find(repaired_values) != std::string::npos;
        if (incumbent_gen == repaired_gen) {
          responses_torn.fetch_add(1, std::memory_order_relaxed);
        } else {
          responses_ok.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // The pipeline end to end: detect → retain → re-induce → publish.
  auto deadline = steady_clock::now() + std::chrono::seconds(60);
  while (Counter("ntw.serve.reinduce_published") - published_before < 1 &&
         steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(5));
  }
  ASSERT_EQ(Counter("ntw.serve.reinduce_published") - published_before, 1)
      << "no repair published within the deadline";
  // Let post-recovery traffic flow through the repaired wrapper.
  std::this_thread::sleep_for(milliseconds(100));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& thread : traffic) thread.join();

  EXPECT_EQ(responses_bad.load(), 0);
  EXPECT_EQ(responses_torn.load(), 0);
  EXPECT_GT(responses_ok.load(), 0);
  EXPECT_GE(Counter("ntw.serve.drift_events") - events_before, 1);

  // Post-recovery: the served wrapper and values are byte-identical to
  // the fresh induction on the mutated template.
  {
    Client client(running->server->port());
    ASSERT_TRUE(client.Send(ExtractRequest(mutated_body)));
    std::string response = client.ReadResponse();
    ASSERT_EQ(response.compare(0, 12, "HTTP/1.1 200"), 0) << response;
    EXPECT_NE(response.find(repaired_member), std::string::npos) << response;
    EXPECT_NE(response.find(repaired_values), std::string::npos) << response;
  }

  // The repaired detector re-baselined on the healthy mutated site; no
  // further repairs were attempted.
  EXPECT_EQ(Counter("ntw.serve.reinduce_published") - published_before, 1);

  running->Stop();
  worker.Stop();

  // Restart survival: a cold repository reproduces the repair from disk.
  Result<std::string> disk = ReadFile(root_ + "/example.com/name.wrapper");
  ASSERT_TRUE(disk.ok());
  EXPECT_EQ(*disk, expected.record + "\n");
  WrapperRepository restarted(root_);
  ASSERT_TRUE(restarted.Load().ok());
  const WrapperRepository::Entry* entry =
      restarted.snapshot()->Find("example.com", "name");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->record, expected.record);
}

// ---------------------------------------------------------------------
// Publish-vs-reload races under TSan: worker hot-publishes while
// SIGHUP-style reloads rewrite and re-read the same wrapper file.
// ---------------------------------------------------------------------

TEST_F(SelfHealTest, PublishRacingReloadStaysCoherent) {
  DriftConfig drift;
  drift.warmup_pages = 6;
  drift.evaluate_every = 2;
  drift.empty_streak_limit = 2;
  drift.hysteresis = 1;
  drift.cooldown_pages = 16;
  drift.retain_pages = 2;
  repository_.SetDriftConfig(drift);
  ASSERT_TRUE(repository_.Load().ok());

  int64_t retired_before = Counter("ntw.repo.snapshots_retired");
  int64_t freed_before = Counter("ntw.repo.snapshots_freed");
  int64_t published_before = Counter("ntw.serve.reinduce_published");

  ReinduceWorker worker(&repository_);
  worker.Start();
  std::atomic<int> reloads{0};
  auto running =
      Start(/*shards=*/4, &worker, [this, &reloads](HttpServer& server) {
        server.SetReloadHook([this, &reloads] {
          Status status = repository_.Load();
          EXPECT_TRUE(status.ok()) << status.ToString();
          reloads.fetch_add(1, std::memory_order_relaxed);
        });
      });

  // Healthy warmup so the incumbent's detector is armed with the full
  // dictionary — the one drift event this soak produces is deterministic.
  const std::vector<std::string> originals = OriginalBodies();
  {
    Client client(running->server->port());
    for (int round = 0; round < 2; ++round) {
      for (const std::string& body : originals) {
        ASSERT_TRUE(client.Send(ExtractRequest(body)));
        ASSERT_EQ(client.ReadResponse().compare(0, 12, "HTTP/1.1 200"), 0);
      }
    }
  }

  const std::string mutated_body = sitegen::MutatePage(
      originals[0], sitegen::Mutation{sitegen::MutationKind::kDelimiterTextChange});
  ReinduceWorker::Repair expected =
      ExpectedRepair(mutated_body, drift.retain_pages);
  const std::string incumbent_member = WrapperMember(incumbent_record_);
  const std::string repaired_member = WrapperMember(expected.record);
  const std::string empty_values = ValuesMember({});
  const std::string repaired_values =
      ValuesMember({kPool[0], kPool[1], kPool[2]});

  std::atomic<bool> stop{false};
  std::atomic<int64_t> responses_bad{0};
  std::atomic<int64_t> responses_torn{0};
  std::atomic<int64_t> responses_ok{0};
  const std::string request = ExtractRequest(mutated_body);

  std::vector<std::thread> traffic;
  for (int t = 0; t < 4; ++t) {
    traffic.emplace_back([&] {
      Client client(running->server->port());
      while (!stop.load(std::memory_order_relaxed)) {
        if (!client.Send(request)) {
          responses_bad.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        std::string response = client.ReadResponse();
        if (response.compare(0, 12, "HTTP/1.1 200") != 0) {
          responses_bad.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        bool incumbent_gen =
            response.find(incumbent_member) != std::string::npos &&
            response.find(empty_values) != std::string::npos;
        bool repaired_gen =
            response.find(repaired_member) != std::string::npos &&
            response.find(repaired_values) != std::string::npos;
        if (incumbent_gen == repaired_gen) {
          responses_torn.fetch_add(1, std::memory_order_relaxed);
        } else {
          responses_ok.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Chaos loop: rewrite the incumbent record on disk and reload — the
  // operator "rolling back" the wrapper — racing the worker's publish of
  // the repair. Both reload and publish go through the same snapshot
  // swap + epoch retirement, so last writer wins and nothing tears.
  constexpr int kCycles = 12;
  for (int cycle = 1; cycle <= kCycles; ++cycle) {
    WriteWrapperFile(incumbent_record_ + "\n");
    running->server->RequestReload();
    auto deadline = steady_clock::now() + milliseconds(2000);
    while (reloads.load(std::memory_order_relaxed) < cycle &&
           steady_clock::now() < deadline) {
      std::this_thread::sleep_for(milliseconds(1));
    }
    ASSERT_GE(reloads.load(std::memory_order_relaxed), cycle)
        << "reload " << cycle << " never ran";
    std::this_thread::sleep_for(milliseconds(10));
  }
  worker.WaitIdle();

  stop.store(true, std::memory_order_relaxed);
  for (std::thread& thread : traffic) thread.join();
  running->Stop();
  worker.Stop();

  EXPECT_EQ(responses_bad.load(), 0);
  EXPECT_EQ(responses_torn.load(), 0);
  EXPECT_GT(responses_ok.load(), 0);
  // The armed detector fired exactly once (its replacement baselines on
  // whatever the post-race wrapper extracts and cannot re-arm mid-soak).
  EXPECT_LE(Counter("ntw.serve.reinduce_published") - published_before, 1);

  // Deterministic last-writer-wins: after the dust settles, memory and
  // disk agree — one final reload maps whatever record won the race.
  ASSERT_TRUE(repository_.Load().ok());
  Result<std::string> disk = ReadFile(root_ + "/example.com/name.wrapper");
  ASSERT_TRUE(disk.ok());
  const WrapperRepository::Entry* entry =
      repository_.snapshot()->Find("example.com", "name");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(*disk, entry->record + "\n");
  EXPECT_TRUE(*disk == incumbent_record_ + "\n" ||
              *disk == expected.record + "\n")
      << *disk;

  // Every retired snapshot was freed once readers quiesced.
  repository_.ReclaimRetired();
  EXPECT_EQ(Counter("ntw.repo.snapshots_retired") - retired_before,
            Counter("ntw.repo.snapshots_freed") - freed_before);
}

}  // namespace
}  // namespace ntw::serve
