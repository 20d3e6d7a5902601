// serve_extract: a closed loop of pipelined single-attribute POST /extract
// requests against the real ntw_serve daemon with its production defaults
// (streaming, fused, self-heal on), 2 shards, directory-backend repository.
//
// Half the requests hit LR plans and half streamable XPath plans, over
// 30-record DEALERS listing pages (StreamPage's patched tier) and DISC
// album pages (its verbatim tier). Every wrapper is hot, so the time goes
// to HTTP parsing, the reactor, StreamPage, plan matching, JSON and the
// drift feed; fused automata, pack materialization and learning are
// bypassed. Load: 2 client threads driving 16 keep-alive connections.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "common/thread_pool.h"
#include "core/lr_inductor.h"
#include "core/xpath_inductor.h"
#include "datasets/dealers.h"
#include "datasets/disc.h"
#include "harness/common.h"
#include "harness/corpus.h"
#include "harness/trace.h"
#include "html/serializer.h"
#include "html/stream_page.h"
#include "serve/http.h"
#include "serve/reinduce.h"
#include "serve/service.h"
#include "serve/wrapper_repository.h"

namespace perfbench {

namespace {

using namespace ntw;

constexpr size_t kDealerSites = 6;
constexpr size_t kDiscSites = 6;
constexpr size_t kCandidateSites = 18;
constexpr size_t kPagesPerSite = 8;
constexpr size_t kRecordsPerPage = 30;
constexpr int kShards = 2;
constexpr int kClientThreads = 2;
// The kernel spreads connections over the shards' SO_REUSEPORT listeners
// by hash: with 4 connections one shard got none in about one run in
// eight and throughput swung 1.7x between runs. With 16, a shard is left
// without one once in 2^15 runs; 4 requests in flight on each.
constexpr int kConnectionsPerThread = 8;
constexpr int kPipeline = 4;
// Set-up is short (generation plus daemon start), so it is repeated more
// often than the other workloads' for a steady median.
constexpr int kSetupRepetitions = 5;
constexpr double kWarmupSeconds = 0.5;
// Bounds the spans a traced run keeps in memory.
constexpr int kMaxTracedPasses = 100;

/// The request mix: one LR and one XPath request per generated page.
struct Mix {
  std::vector<std::string> wire;      // Serialized request bytes.
  std::vector<std::string> site;
  std::vector<std::string> attribute;
  std::vector<std::string> body;
  std::vector<bool> lr;
  std::vector<std::vector<std::string>> truth;
  std::vector<std::string> expected;  // The oracle's response bytes.
};

/// Connects to 127.0.0.1:port; -1 on failure.
int Connect(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// A blocking keep-alive connection that frames Content-Length responses
/// in place.
class Connection {
 public:
  explicit Connection(int port) : fd_(Connect(port)) {}
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool ok() const { return fd_ >= 0; }

  bool Send(std::string_view data) {
    while (!data.empty()) {
      ssize_t n = ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
      if (n <= 0) return false;
      data.remove_prefix(static_cast<size_t>(n));
    }
    return true;
  }

  /// The next whole buffered response (valid until the next call), or
  /// empty when none is complete yet. Never blocks.
  std::string_view TryNext() {
    offset_ += last_;
    last_ = 0;
    if (offset_ == buffer_.size()) {
      buffer_.clear();
      offset_ = 0;
    } else if (offset_ > (size_t{1} << 18)) {
      buffer_.erase(0, offset_);
      offset_ = 0;
    }
    size_t end = buffer_.find("\r\n\r\n", offset_);
    if (end == std::string::npos) return {};
    size_t length = 0;
    size_t cl = buffer_.find("\r\nContent-Length: ", offset_);
    if (cl != std::string::npos && cl < end) {
      length = std::strtoull(buffer_.c_str() + cl + 18, nullptr, 10);
    }
    size_t total = end + 4 - offset_ + length;
    if (buffer_.size() - offset_ < total) return {};
    last_ = total;
    return std::string_view(buffer_).substr(offset_, total);
  }

  /// Appends what the socket has, blocking until something arrives; false
  /// when the connection failed or closed.
  bool Receive() {
    char chunk[65536];
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
    return true;
  }

  /// Blocks until one whole response is buffered and returns it (valid
  /// until the next call); empty on a connection error.
  std::string_view Next() {
    while (true) {
      std::string_view response = TryNext();
      if (!response.empty()) return response;
      if (!Receive()) return {};
    }
  }

  int fd() const { return fd_; }

 private:
  int fd_;
  std::string buffer_;
  size_t offset_ = 0;
  size_t last_ = 0;
};

/// The ntw_serve child process. Stopped (SIGTERM, then SIGKILL after a
/// grace period) and reaped on destruction; it also dies with the harness.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { Stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool Start(const std::string& binary, const std::string& repo_dir,
             const std::string& port_file) {
    std::vector<std::string> argv = {
        binary, "--wrapper-dir", repo_dir, "--shards", std::to_string(kShards),
        "--port", "0", "--port-file", port_file, "--quiet"};
    std::vector<char*> raw;
    for (std::string& arg : argv) raw.push_back(arg.data());
    raw.push_back(nullptr);
    pid_ = ::fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      // Only async-signal-safe calls between fork and exec.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(2, 1);  // Keep the harness's stdout for its result.
      ::execv(raw[0], raw.data());
      ::_exit(127);
    }
    // Ready = the port file exists and GET /healthz answers 200.
    double deadline = NowSeconds() + 30.0;
    while (NowSeconds() < deadline) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return false;
      }
      std::ifstream in(port_file);
      if (in >> port_ && port_ > 0 && Healthy()) return true;
      port_ = 0;
      ::usleep(1000);
    }
    return false;
  }

  void Stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    for (int i = 0; i < 5000; ++i) {
      if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      ::usleep(1000);
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

  pid_t pid() const { return pid_; }
  int port() const { return port_; }

 private:
  bool Healthy() const {
    Connection connection(port_);
    if (!connection.ok() ||
        !connection.Send("GET /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n")) {
      return false;
    }
    std::string_view response = connection.Next();
    return response.substr(0, 12) == "HTTP/1.1 200";
  }

  pid_t pid_ = -1;
  int port_ = 0;
};

/// Learns the repository, builds the request mix and starts the daemon.
struct Setup {
  std::string repo_dir;
  Mix mix;
  Daemon daemon;
};

/// Adds the site's first kPagesPerSite pages to the mix when both its
/// wrappers validate on them; false (nothing added) otherwise.
bool AddSite(const sitegen::GeneratedSite& site, const std::string& key,
             const std::string& type, std::vector<WrapperRecord>* records,
             Mix* mix) {
  if (site.pages.size() < kPagesPerSite) return false;
  std::vector<std::string> bodies;
  for (size_t p = 0; p < kPagesPerSite; ++p) {
    bodies.push_back(html::Serialize(site.pages.page(p).root()));
  }
  std::string xpath =
      LearnValidatedRecord(core::XPathInductor(), site, bodies, type);
  std::string lr = LearnValidatedRecord(core::LrInductor(), site, bodies, type);
  if (xpath.empty() || lr.empty()) return false;
  records->push_back({key, type, xpath});
  records->push_back({key, type + "_lr", lr});
  std::vector<std::vector<std::string>> truth = TruthByPage(site, type);
  for (size_t p = 0; p < bodies.size(); ++p) {
    const std::string& body = bodies[p];
    for (bool is_lr : {true, false}) {
      std::string attribute = is_lr ? type + "_lr" : type;
      mix->wire.push_back("POST /extract?site=" + key + "&attribute=" +
                          attribute +
                          " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                          "Content-Type: text/html\r\nContent-Length: " +
                          std::to_string(body.size()) + "\r\n\r\n" + body);
      mix->site.push_back(key);
      mix->attribute.push_back(attribute);
      mix->body.push_back(body);
      mix->lr.push_back(is_lr);
      mix->truth.push_back(truth[p]);
    }
  }
  return true;
}

std::unique_ptr<Setup> MakeSetup(const Args& args, const std::string& root) {
  auto setup = std::make_unique<Setup>();
  setup->repo_dir = root + "/repo";
  std::vector<WrapperRecord> records;

  // Candidates are generated in surplus; the first kDealerSites /
  // kDiscSites whose wrappers validate are served, so every seed serves
  // the same number of sites and pages.
  datasets::DealersConfig dealers_config;
  dealers_config.num_sites = kCandidateSites;
  dealers_config.pages_per_site = kPagesPerSite;
  dealers_config.min_records = kRecordsPerPage;
  dealers_config.max_records = kRecordsPerPage;
  dealers_config.seed = args.seed;
  datasets::Dataset dealers = datasets::MakeDealers(dealers_config);
  size_t accepted = 0;
  for (size_t s = 0; s < dealers.sites.size() && accepted < kDealerSites; ++s) {
    accepted += AddSite(dealers.sites[s].site, StrFormat("dealers_%02zu", s),
                        "name", &records, &setup->mix);
  }
  datasets::DiscConfig disc_config;
  disc_config.num_sites = kCandidateSites;
  disc_config.seed = args.seed;
  datasets::Dataset disc = datasets::MakeDisc(disc_config);
  for (size_t s = 0; s < disc.sites.size() && accepted < kDealerSites + kDiscSites;
       ++s) {
    accepted += AddSite(disc.sites[s].site, StrFormat("disc_%02zu", s), "track",
                        &records, &setup->mix);
  }
  if (accepted < kDealerSites + kDiscSites) {
    std::fprintf(stderr, "perfbench: only %zu sites have validated wrappers\n",
                 accepted);
    return nullptr;
  }
  if (!WriteRepository(records, setup->repo_dir).ok()) return nullptr;
  if (!setup->daemon.Start(args.serve_bin, setup->repo_dir,
                           root + "/port")) {
    std::fprintf(stderr, "perfbench: ntw_serve did not become ready\n");
    return nullptr;
  }
  return setup;
}

serve::HttpRequest MakeRequest(const Mix& mix, size_t i) {
  serve::HttpRequest request;
  request.method = "POST";
  request.path = "/extract";
  request.query.emplace_back("site", mix.site[i]);
  request.query.emplace_back("attribute", mix.attribute[i]);
  request.body = mix.body[i];
  return request;
}

/// Sends every distinct request once, serially; counts responses that
/// differ from the oracle's bytes.
int64_t ReplayDivergences(int port, const Mix& mix) {
  Connection connection(port);
  int64_t divergences = 0;
  for (size_t i = 0; i < mix.wire.size(); ++i) {
    if (!connection.ok() || !connection.Send(mix.wire[i]) ||
        connection.Next() != mix.expected[i]) {
      ++divergences;
    }
  }
  return divergences;
}

struct LoadResult {
  int64_t responses = 0;   // In the measured window.
  int64_t failed = 0;      // Anywhere in the run: errors or wrong bytes.
  std::vector<double> slice_rates;
  double server_cpu_s = 0.0;
  double wall_s = 0.0;
  double client_cpu_s = 0.0;
  double client_wall_s = 0.0;
  int64_t client_responses = 0;  // Everything the clients received.
};

/// The closed loop: every connection keeps kPipeline requests in flight.
/// A client thread polls its connections and replaces each response it
/// reads (after checking its bytes) with a new request at once, so a
/// shard never waits on the client for work, whichever connections the
/// kernel gave it.
LoadResult DriveLoad(const Daemon& daemon, const Mix& mix, double seconds) {
  struct ThreadOut {
    std::vector<double> ends;  // When each response was fully read.
    int64_t failed = 0;
    double cpu = 0.0;
    double wall = 0.0;
  };
  std::vector<ThreadOut> outs(kClientThreads);
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClientThreads; ++t) {
    threads.emplace_back([&, t] {
      ThreadOut& out = outs[static_cast<size_t>(t)];
      out.ends.reserve(1 << 22);
      std::vector<std::unique_ptr<Connection>> connections;
      for (int c = 0; c < kConnectionsPerThread; ++c) {
        connections.push_back(std::make_unique<Connection>(daemon.port()));
        if (!connections.back()->ok()) ++out.failed;
      }
      double cpu_start = ThreadCpuSeconds();
      double wall_start = NowSeconds();
      size_t cursor = static_cast<size_t>(t) * mix.wire.size() / kClientThreads;
      // In-flight request indices per connection, oldest first.
      std::vector<std::deque<size_t>> pending(connections.size());
      std::vector<pollfd> fds;
      auto send_next = [&](size_t c) {
        size_t index = cursor++ % mix.wire.size();
        pending[c].push_back(index);
        if (!connections[c]->Send(mix.wire[index])) ++out.failed;
      };
      for (size_t c = 0; c < connections.size(); ++c) {
        fds.push_back(pollfd{connections[c]->fd(), POLLIN, 0});
        for (int k = 0; k < kPipeline; ++k) send_next(c);
      }
      while (!stop.load(std::memory_order_relaxed) && out.failed == 0) {
        if (::poll(fds.data(), fds.size(), 100) < 0) ++out.failed;
        for (size_t c = 0; c < fds.size() && out.failed == 0; ++c) {
          if (fds[c].revents == 0) continue;
          if (!connections[c]->Receive()) {
            ++out.failed;
            break;
          }
          for (std::string_view response = connections[c]->TryNext();
               !response.empty() && out.failed == 0;
               response = connections[c]->TryNext()) {
            if (response != mix.expected[pending[c].front()]) {
              ++out.failed;
              break;
            }
            pending[c].pop_front();
            out.ends.push_back(NowSeconds());
            send_next(c);
          }
        }
      }
      out.cpu = ThreadCpuSeconds() - cpu_start;
      out.wall = NowSeconds() - wall_start;
    });
  }
  LoadResult result;
  double begin = NowSeconds() + kWarmupSeconds;
  std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupSeconds));
  double cpu_begin = ProcessCpuSeconds(daemon.pid());
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  double cpu_end = ProcessCpuSeconds(daemon.pid());
  double end = NowSeconds();
  stop.store(true);
  for (std::thread& thread : threads) thread.join();

  result.wall_s = end - begin;
  result.server_cpu_s = cpu_end - cpu_begin;
  // About one-second slices: the medians over them shrug off bursts of
  // interference from other tenants of the host.
  size_t slice_count = std::max<size_t>(1, static_cast<size_t>(seconds + 0.5));
  double slice = result.wall_s / static_cast<double>(slice_count);
  std::vector<int64_t> slices(slice_count, 0);
  for (const ThreadOut& out : outs) {
    result.failed += out.failed;
    result.client_cpu_s += out.cpu;
    result.client_wall_s += out.wall;
    result.client_responses += static_cast<int64_t>(out.ends.size());
    for (double at : out.ends) {
      if (at < begin || at >= end) continue;
      ++slices[std::min(static_cast<size_t>((at - begin) / slice), slice_count - 1)];
      ++result.responses;
    }
  }
  for (int64_t count : slices) {
    result.slice_rates.push_back(static_cast<double>(count) / slice);
  }
  return result;
}

/// Request latency with one request in flight on one connection: the
/// daemon's service time plus one loopback round trip, independent of how
/// the kernel spreads the load connections over the shards. Each response
/// is checked against the oracle's bytes.
struct LatencyResult {
  int64_t requests = 0;
  int64_t failed = 0;
  std::vector<double> slice_p50;
  std::vector<double> slice_p99;
};

LatencyResult DriveLatency(const Daemon& daemon, const Mix& mix, double seconds) {
  LatencyResult result;
  Connection connection(daemon.port());
  size_t slice_count = std::max<size_t>(1, static_cast<size_t>(seconds + 0.5));
  std::vector<std::vector<double>> slices(slice_count);
  double begin = NowSeconds();
  double slice = seconds / static_cast<double>(slice_count);
  for (size_t i = 0; connection.ok(); ++i) {
    size_t index = i % mix.wire.size();
    double start = NowSeconds();
    if (start - begin >= seconds) break;
    ++result.requests;
    if (!connection.Send(mix.wire[index]) ||
        connection.Next() != mix.expected[index]) {
      ++result.failed;
      break;
    }
    double end = NowSeconds();
    size_t k = std::min(static_cast<size_t>((start - begin) / slice), slice_count - 1);
    slices[k].push_back((end - start) * 1e6);
  }
  if (!connection.ok()) ++result.failed;
  for (const std::vector<double>& latencies : slices) {
    result.slice_p50.push_back(Quantile(latencies, 0.5));
    result.slice_p99.push_back(Quantile(latencies, 0.99));
  }
  return result;
}

}  // namespace

Report RunServeExtract(const Args& args) {
  Report report;
  std::string root = args.work_dir + "/serve";
  std::vector<double> setup_seconds;
  std::unique_ptr<Setup> setup;
  for (int rep = 0; rep < (args.trace ? 1 : kSetupRepetitions); ++rep) {
    setup.reset();  // Stops the previous repetition's daemon.
    std::error_code ec;
    std::filesystem::remove_all(root, ec);
    std::filesystem::create_directories(root, ec);
    double start = NowSeconds();
    setup = MakeSetup(args, root);
    setup_seconds.push_back(NowSeconds() - start);
    if (setup == nullptr) {
      report.Fail("set-up failed");
      report.attempted = 1;
      report.failed = 1;
      return report;
    }
  }
  Mix& mix = setup->mix;
  size_t lr_requests = 0;
  for (bool lr : mix.lr) lr_requests += lr ? 1 : 0;
  report.Info("distinct_requests", std::to_string(mix.wire.size()));
  report.Info("lr_share", Fmt(static_cast<double>(lr_requests) /
                              static_cast<double>(mix.wire.size())));
  report.Info("shards", std::to_string(kShards));
  report.Info("client_threads", std::to_string(kClientThreads));
  report.Info("connections", std::to_string(kClientThreads * kConnectionsPerThread));
  report.Info("pipeline", std::to_string(kPipeline));

  // ----- oracle: the interpreted service on the same repository.
  serve::WrapperRepository oracle_repository(setup->repo_dir);
  if (!oracle_repository.Load().ok()) report.Fail("oracle repository load");
  serve::ExtractService::Options interpreted;
  interpreted.fast_path = false;
  serve::ExtractService oracle(&oracle_repository, &ThreadPool::Global(),
                               interpreted);
  double f1_sum = 0.0;
  std::vector<std::string> values;
  for (size_t i = 0; i < mix.wire.size(); ++i) {
    serve::HttpResponse response = oracle.Handle(MakeRequest(mix, i));
    if (response.status != 200 || !ParseValues(response.body, &values)) {
      report.Fail("oracle failed on request " + std::to_string(i));
    }
    f1_sum += MultisetF1(values, mix.truth[i]);
    mix.expected.push_back(serve::SerializeResponse(response, true));
  }
  double f1 = f1_sum / static_cast<double>(mix.wire.size());

  // ----- gate: the daemon answers every distinct request with the
  // oracle's bytes, before and after the load.
  int64_t divergences = ReplayDivergences(setup->daemon.port(), mix);
  if (divergences > 0) {
    report.Fail(std::to_string(divergences) +
                " daemon responses differ from the interpreted oracle");
  }

  // Three quarters of the window measure throughput under the closed
  // loop, the last quarter latency at one request in flight (the traced
  // run measures the daemon's CPU over half the window instead).
  double load_seconds = args.seconds * (args.trace ? 0.5 : 0.75);
  LoadResult load = DriveLoad(setup->daemon, mix, load_seconds);
  LatencyResult latency;
  if (!args.trace) latency = DriveLatency(setup->daemon, mix, args.seconds / 4);
  report.attempted = load.client_responses + load.failed + latency.requests;
  report.failed = load.failed + latency.failed;
  if (load.failed > 0) report.Fail("failed or wrong responses under load");
  divergences = ReplayDivergences(setup->daemon.port(), mix);
  if (divergences > 0) {
    report.Fail(std::to_string(divergences) +
                " daemon responses changed during the load");
  }
  int64_t daemon_peak_rss = ProcessPeakRssBytes(setup->daemon.pid());
  setup->daemon.Stop();

  // Validity guard: the client must not be the bottleneck.
  double responses = static_cast<double>(load.responses);
  double server_cpu_us = load.server_cpu_s / responses * 1e6;
  double client_cpu_us =
      load.client_cpu_s / static_cast<double>(load.client_responses) * 1e6;
  double client_busy = load.client_cpu_s / load.client_wall_s;
  bool client_bound = client_busy >= 0.9 || client_cpu_us >= server_cpu_us;
  report.Info("client_busy_share", Fmt(client_busy));
  report.Info("client_bound", client_bound ? "true" : "false");
  if (client_bound) {
    std::fprintf(stderr,
                 "perfbench: WARNING: client-bound run (client busy %.2f,"
                 " client %.2f us/req vs server %.2f us/req)\n",
                 client_busy, client_cpu_us, server_cpu_us);
  }

  if (!args.trace) {
    report.Add("setup_s", Median(setup_seconds), "s");
    report.Add("ops_per_s", Median(load.slice_rates), "1/s");
    report.Add("latency_p50_us", Median(latency.slice_p50), "us");
    report.Add("latency_p99_us", Median(latency.slice_p99), "us");
    report.Add("ntw_f1", f1, "ratio");
    report.Add("peak_rss_mb", static_cast<double>(daemon_peak_rss) / 1048576.0,
               "MB");
    return report;
  }

  // ----- traced run: the same mix replayed in process through the
  // daemon's layers.
  serve::WrapperRepository repository(setup->repo_dir);
  serve::DriftConfig drift;  // The daemon's defaults: self-heal on.
  repository.SetDriftConfig(drift);
  if (!repository.Load().ok()) report.Fail("replay repository load");
  serve::ReinduceWorker reinducer(&repository);
  reinducer.Start();
  serve::ExtractService service(&repository, &ThreadPool::Global(),
                                serve::ExtractService::Options{}, &reinducer);
  serve::RequestParser parser{serve::HttpLimits{}};
  std::string connection_buffer;
  core::StreamPageBuffer page_buffer;
  core::StreamPageBuffer extract_buffer;
  int64_t tiers[3] = {0, 0, 0};
  int64_t replay_divergences = 0;
  std::vector<serve::HttpResponse> replayed(mix.wire.size());
  // One pass = what the daemon runs per request (parse + Handle) over the
  // whole mix, then the layers inside Handle called on their own (find,
  // StreamPage, plan match), kept apart so neither evicts the other's
  // working set mid-request.
  auto replay_pass = [&](Tracer* tracer, bool count_tiers) {
    for (size_t i = 0; i < mix.wire.size(); ++i) {
      uint64_t op = i + 1;
      // One receive buffer for the whole replay, as on a keep-alive
      // connection (the parser tracks its consumed prefix).
      connection_buffer += mix.wire[i];
      serve::RequestParser::Phase phase;
      {
        Tracer::Scope span(tracer, "serve.http_parse", op);
        phase = parser.Consume(&connection_buffer);
      }
      if (phase != serve::RequestParser::Phase::kComplete) {
        ++replay_divergences;
        parser.Reset();
        continue;
      }
      {
        Tracer::Scope span(tracer, "serve.handle", op);
        replayed[i] = service.Handle(parser.request());
      }
      parser.Reset();
    }
    for (size_t i = 0; i < mix.wire.size(); ++i) {
      if (serve::SerializeResponse(replayed[i], true) != mix.expected[i]) {
        ++replay_divergences;
      }
    }
    for (size_t i = 0; i < mix.wire.size(); ++i) {
      uint64_t op = i + 1;
      auto find_span = std::make_unique<Tracer::Scope>(tracer, "serve.repo_find", op);
      serve::WrapperRepository::PinnedSnapshot snapshot = repository.Pin();
      const serve::WrapperRepository::Entry* entry =
          snapshot->Find(mix.site[i], mix.attribute[i]);
      find_span.reset();
      if (entry == nullptr || entry->compiled == nullptr) {
        ++replay_divergences;
        continue;
      }
      if (entry->compiled->dom_free()) {
        {
          Tracer::Scope span(tracer, "html.stream_page", op);
          page_buffer.page.Build(mix.body[i]);
        }
        if (count_tiers) ++tiers[static_cast<int>(page_buffer.page.tier())];
        page_buffer.Clear();
      }
      {
        Tracer::Scope span(tracer, mix.lr[i] ? "core.extract.lr" : "core.extract.xpath",
                           op);
        entry->compiled->ExtractStreaming(mix.body[i], extract_buffer,
                                          &extract_buffer.values);
      }
      extract_buffer.Clear();
    }
  };
  // Untraced and traced passes alternate, so drift and warm-up hit both
  // alike; their time ratio is the tracing overhead.
  Tracer tracer;
  replay_pass(nullptr, true);  // Warm-up; counts the StreamPage tiers.
  double untraced_seconds = 0.0;
  double traced_seconds = 0.0;
  double replay_begin = NowSeconds();
  for (int pass = 0;
       pass < kMaxTracedPasses && NowSeconds() - replay_begin < args.seconds / 2;
       ++pass) {
    double start = NowSeconds();
    replay_pass(nullptr, false);
    double middle = NowSeconds();
    replay_pass(&tracer, false);
    untraced_seconds += middle - start;
    traced_seconds += NowSeconds() - middle;
  }
  reinducer.Stop();
  if (replay_divergences > 0) {
    report.Fail(std::to_string(replay_divergences) +
                " in-process replay responses differ from the oracle");
  }
  std::vector<Tracer::Span> spans = tracer.Spans();
  tracer.WriteCsv(args.state_dir + "/serve_extract.trace.csv");

  double parse_us = Stats(spans, "serve.http_parse").mean_us();
  double handle_us = Stats(spans, "serve.handle").mean_us();
  double find_us = Stats(spans, "serve.repo_find").mean_us();
  SpanStats lr = Stats(spans, "core.extract.lr");
  SpanStats xpath = Stats(spans, "core.extract.xpath");
  double extract_us = (lr.total_us + xpath.total_us) /
                      static_cast<double>(lr.count + xpath.count);
  double lr_pages = static_cast<double>(tiers[0] + tiers[1] + tiers[2]);
  report.Add("serve.http_parse_us", parse_us, "us");
  report.Add("serve.repo_find_us", find_us, "us");
  report.Add("html.stream_page_us", Stats(spans, "html.stream_page").mean_us(), "us");
  report.Add("html.tier_verbatim_share", static_cast<double>(tiers[0]) / lr_pages,
             "ratio");
  report.Add("html.tier_patched_share", static_cast<double>(tiers[1]) / lr_pages,
             "ratio");
  report.Add("html.tier_flattened_share", static_cast<double>(tiers[2]) / lr_pages,
             "ratio");
  report.Add("core.lr_extract_us", lr.mean_us(), "us");
  report.Add("core.xpath_extract_us", xpath.mean_us(), "us");
  report.Add("serve.handle_us", handle_us, "us");
  double service_self = handle_us - find_us - extract_us;
  report.Add("serve.service_self_us", service_self, "us");
  report.Add("serve.server_cpu_us_per_req", server_cpu_us, "us");
  double reactor_self = server_cpu_us - parse_us - handle_us;
  report.Add("serve.reactor_self_us", reactor_self, "us");
  report.Add("serve.client_cpu_us_per_req", client_cpu_us, "us");
  report.Add("serve.client_busy_share", client_busy, "ratio");
  report.Add("trace.overhead_ratio", traced_seconds / untraced_seconds, "ratio");
  // Accounting: find + extract fit inside Handle, and parse + Handle fit
  // inside the daemon's CPU per response, within 10% of it.
  if (service_self < 0.0) report.Fail("negative service self time");
  if (reactor_self < -0.10 * server_cpu_us) {
    report.Fail("parse + handle exceed the daemon's CPU per response by more"
                " than 10%");
  }
  return report;
}

}  // namespace perfbench
