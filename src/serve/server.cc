#include "serve/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <memory>
#include <thread>
#include <utility>

#include "obs/metrics.h"

namespace ntw::serve {

namespace {

// Per-shard stripes: each reactor thread increments its own cache line;
// /metrics merges at scrape time and exports the shard dimension.
struct ServerMetrics {
  obs::ShardedCounter* connections;
  obs::ShardedCounter* requests;
  obs::ShardedCounter* responses_2xx;
  obs::ShardedCounter* responses_4xx;
  obs::ShardedCounter* responses_5xx;
  obs::ShardedCounter* rejected_too_large;
  obs::ShardedCounter* parse_errors;
  obs::ShardedCounter* read_timeouts;
  obs::ShardedCounter* write_timeouts;
  obs::ShardedCounter* drain_forced_closes;
  obs::ShardedHistogram* request_body_bytes;
  obs::ShardedHistogram* handle_micros;

  static ServerMetrics& Get() {
    obs::Registry& registry = obs::Registry::Global();
    static ServerMetrics m{
        registry.GetShardedCounter("ntw.serve.connections"),
        registry.GetShardedCounter("ntw.serve.requests"),
        registry.GetShardedCounter("ntw.serve.responses_2xx"),
        registry.GetShardedCounter("ntw.serve.responses_4xx"),
        registry.GetShardedCounter("ntw.serve.responses_5xx"),
        registry.GetShardedCounter("ntw.serve.rejected_too_large"),
        registry.GetShardedCounter("ntw.serve.parse_errors"),
        registry.GetShardedCounter("ntw.serve.read_timeouts"),
        registry.GetShardedCounter("ntw.serve.write_timeouts"),
        registry.GetShardedCounter("ntw.serve.drain_forced_closes"),
        registry.GetShardedHistogram("ntw.serve.request_body_bytes"),
        registry.GetShardedHistogram("ntw.serve.handle_micros"),
    };
    return m;
  }
};

void CountStatus(int shard, int status) {
  ServerMetrics& metrics = ServerMetrics::Get();
  if (status < 400) {
    metrics.responses_2xx->Add(shard, 1);
  } else if (status < 500) {
    metrics.responses_4xx->Add(shard, 1);
  } else {
    metrics.responses_5xx->Add(shard, 1);
  }
}

Status Errno(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

void SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags >= 0) fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  fcntl(fd, F_SETFD, FD_CLOEXEC);
}

void DrainPipe(int fd) {
  char buffer[256];
  while (::read(fd, buffer, sizeof(buffer)) > 0) {
  }
}

int64_t MillisUntil(HttpServer::Clock::time_point deadline,
                    HttpServer::Clock::time_point now) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
      .count();
}

}  // namespace

HttpServer::HttpServer(ServerOptions options, Handler handler)
    : HttpServer(std::move(options),
                 HandlerFactory([handler = std::move(handler)](int) {
                   return handler;
                 })) {}

HttpServer::HttpServer(ServerOptions options, HandlerFactory factory)
    : options_(std::move(options)), factory_(std::move(factory)) {
  if (options_.shards < 1) options_.shards = 1;
  // The shard vector is fixed at construction so signal handlers can
  // iterate it without synchronization (they only read each shard's
  // atomic wake fd). Handlers are built lazily in Bind().
  shards_.reserve(static_cast<size_t>(options_.shards));
  for (int i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->id = i;
  }
}

HttpServer::~HttpServer() {
  for (auto& shard : shards_) {
    for (auto& [id, conn] : shard->conns) {
      if (conn.fd >= 0) ::close(conn.fd);
    }
    for (int fd : shard->pending_fds) {
      if (fd >= 0) ::close(fd);
    }
    if (shard->listen_fd >= 0) ::close(shard->listen_fd);
    // The wake pipe lives for the whole object lifetime (not per-Run):
    // RequestShutdown()/RequestReload() may fire from other threads or
    // signal handlers any time before destruction, and closing the write
    // end while they write() would race on the reused descriptor.
    int wake_write =
        shard->wake_write_fd.exchange(-1, std::memory_order_relaxed);
    if (wake_write >= 0) ::close(wake_write);
    if (shard->wake_read_fd >= 0) ::close(shard->wake_read_fd);
  }
}

size_t HttpServer::ShardConnCap() const {
  int shards = static_cast<int>(shards_.size());
  return static_cast<size_t>((options_.max_connections + shards - 1) / shards);
}

Status HttpServer::BindShardListener(Shard& shard, bool reuseport) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  SetNonBlocking(fd);
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (reuseport) {
#ifdef SO_REUSEPORT
    if (setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) != 0) {
      ::close(fd);
      return Errno("setsockopt SO_REUSEPORT");
    }
#else
    ::close(fd);
    return Status::Internal("SO_REUSEPORT unavailable");
#endif
  }

  // Shard 0 binds the configured port (possibly 0 = ephemeral); the rest
  // bind the concrete port shard 0 learned.
  int port = shard.id == 0 ? options_.port : port_;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad --host '" + options_.host + "'");
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Errno("bind " + options_.host + ":" + std::to_string(port));
  }
  if (::listen(fd, 128) != 0) {
    ::close(fd);
    return Errno("listen");
  }
  if (shard.id == 0) {
    socklen_t len = sizeof(addr);
    if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      ::close(fd);
      return Errno("getsockname");
    }
    port_ = ntohs(addr.sin_port);
  }
  shard.listen_fd = fd;
  return Status::OK();
}

Status HttpServer::Bind() {
  for (auto& shard : shards_) {
    if (shard->wake_read_fd < 0) {
      int pipe_fds[2];
      if (::pipe(pipe_fds) != 0) return Errno("pipe");
      SetNonBlocking(pipe_fds[0]);
      SetNonBlocking(pipe_fds[1]);
      shard->wake_read_fd = pipe_fds[0];
      shard->wake_write_fd.store(pipe_fds[1], std::memory_order_relaxed);
    }
    if (!shard->handler) shard->handler = factory_(shard->id);
  }

  bool want_reuseport = shards_.size() > 1 && !options_.force_accept_relay;
  relay_accept_ = options_.force_accept_relay && shards_.size() > 1;
  NTW_RETURN_IF_ERROR(BindShardListener(*shards_[0], want_reuseport));
  if (want_reuseport) {
    for (size_t i = 1; i < shards_.size(); ++i) {
      Status status = BindShardListener(*shards_[i], /*reuseport=*/true);
      if (!status.ok()) {
        // SO_REUSEPORT unavailable (or the bind raced): fall back to the
        // single-listener accept relay. Shard 0's listener keeps working
        // — SO_REUSEPORT with one socket behaves like a plain listener.
        for (size_t j = 1; j <= i && j < shards_.size(); ++j) {
          if (shards_[j]->listen_fd >= 0) {
            ::close(shards_[j]->listen_fd);
            shards_[j]->listen_fd = -1;
          }
        }
        relay_accept_ = true;
        break;
      }
    }
  }
  return Status::OK();
}

void HttpServer::RequestShutdown() {
  shutdown_.store(true, std::memory_order_relaxed);
  for (auto& shard : shards_) WakeShard(*shard);
}

void HttpServer::RequestReload() {
  reload_.store(true, std::memory_order_relaxed);
  // Shard 0 alone consumes the flag — one SIGHUP, one reload, whatever
  // the shard count.
  WakeShard(*shards_[0]);
}

void HttpServer::WakeShard(Shard& shard) {
  int fd = shard.wake_write_fd.load(std::memory_order_relaxed);
  if (fd < 0) return;
  char byte = 1;
  // Best effort: a full pipe already guarantees a pending wake-up.
  [[maybe_unused]] ssize_t rc = ::write(fd, &byte, 1);
}

HttpResponse HttpServer::SafeHandle(Shard& shard,
                                    const HttpRequest& request) const {
  auto start = Clock::now();
  HttpResponse response;
  try {
    response = shard.handler(request);
  } catch (const std::exception& e) {
    response = ErrorResponse(500, std::string("handler exception: ") +
                                      e.what());
  } catch (...) {
    response = ErrorResponse(500, "handler exception");
  }
  ServerMetrics::Get().handle_micros->Record(
      shard.id, std::chrono::duration_cast<std::chrono::microseconds>(
                    Clock::now() - start)
                    .count());
  return response;
}

void HttpServer::CloseConn(Shard& shard, uint64_t id) {
  auto it = shard.conns.find(id);
  if (it == shard.conns.end()) return;
  if (it->second.fd >= 0) ::close(it->second.fd);
  shard.conns.erase(it);
  total_conns_.fetch_sub(1, std::memory_order_relaxed);
}

void HttpServer::AdoptFd(Shard& shard, int fd, Clock::time_point now) {
  SetNonBlocking(fd);
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ServerMetrics::Get().connections->Add(shard.id, 1);
  total_conns_.fetch_add(1, std::memory_order_relaxed);
  uint64_t id = shard.next_conn_id++;
  auto [it, inserted] = shard.conns.emplace(id, Conn(options_.limits));
  it->second.fd = fd;
  it->second.deadline =
      now + std::chrono::milliseconds(options_.read_timeout_ms);
}

void HttpServer::RelayFd(int fd) {
  // Round-robin across every shard; shard 0 (the acceptor) adopts its own
  // share directly, the rest get a queue push + wake.
  Shard& target = *shards_[static_cast<size_t>(relay_next_)];
  relay_next_ = (relay_next_ + 1) % static_cast<int>(shards_.size());
  if (target.id == 0) {
    AdoptFd(target, fd, Clock::now());
    return;
  }
  {
    std::lock_guard<std::mutex> lock(target.pending_mu);
    target.pending_fds.push_back(fd);
  }
  WakeShard(target);
}

void HttpServer::DrainPendingFds(Shard& shard, Clock::time_point now) {
  std::vector<int> fds;
  {
    std::lock_guard<std::mutex> lock(shard.pending_mu);
    fds.swap(shard.pending_fds);
  }
  for (int fd : fds) {
    if (shard.draining ||
        shard.conns.size() >= ShardConnCap()) {
      ::close(fd);  // Arrived after drain began or over the shard cap.
      continue;
    }
    AdoptFd(shard, fd, now);
  }
}

void HttpServer::AcceptPending(Shard& shard, Clock::time_point now) {
  while (shard.listen_fd >= 0) {
    if (relay_accept_) {
      // Relay mode: the global cap is the backstop (per-shard tables are
      // owned by their loops, so the acceptor checks the shared total).
      if (total_conns_.load(std::memory_order_relaxed) >=
          options_.max_connections) {
        return;
      }
    } else if (shard.conns.size() >= ShardConnCap()) {
      return;
    }
    int fd = ::accept(shard.listen_fd, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN (or transient error): try next poll round.
    if (relay_accept_) {
      RelayFd(fd);
    } else {
      AdoptFd(shard, fd, now);
    }
  }
}

void HttpServer::HandleReadable(Shard& shard, uint64_t id, Conn& conn,
                                Clock::time_point now) {
  char buffer[64 * 1024];
  for (;;) {
    ssize_t got = ::recv(conn.fd, buffer, sizeof(buffer), 0);
    if (got > 0) {
      conn.in.append(buffer, static_cast<size_t>(got));
      if (got < static_cast<ssize_t>(sizeof(buffer))) break;
      continue;
    }
    if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    CloseConn(shard, id);  // Peer closed (or hard error).
    return;
  }
  TryAdvance(shard, id, conn, now);
}

void HttpServer::TryAdvance(Shard& shard, uint64_t id, Conn& conn,
                            Clock::time_point now) {
  // Batches a pipelined window: each complete request is handled on the
  // spot and its serialized response appended to conn.out (the
  // connection stays in kReading), so the loop keeps consuming buffered
  // requests and FlushPending below puts the whole window on the wire
  // with a single send. The loop ends only when no complete request is
  // left buffered (or the connection is to close), which is why the
  // FinishWrite re-entry after that flush never nests deeper.
  for (;;) {
    RequestParser::Phase phase = conn.parser.Consume(&conn.in);
    if (phase == RequestParser::Phase::kComplete) {
      HandleRequest(shard, conn);
      if (!conn.close_after_write) continue;  // Try the next buffered one.
      break;
    }
    if (phase == RequestParser::Phase::kError) {
      ServerMetrics& metrics = ServerMetrics::Get();
      if (conn.parser.error_status() == 413) {
        metrics.rejected_too_large->Add(shard.id, 1);
      } else {
        metrics.parse_errors->Add(shard.id, 1);
      }
      conn.in.clear();
      conn.close_after_write = true;
      // Appended after any responses already batched this round, so good
      // pipelined requests ahead of the malformed one still get answers.
      HttpResponse response = ErrorResponse(conn.parser.error_status(),
                                            conn.parser.error_message());
      SerializeResponseHead(response, /*keep_alive=*/false, &conn.out);
      conn.out += response.body;
      break;
    }
    // kNeedMore.
    if (conn.parser.headers_complete() && conn.parser.expects_continue() &&
        !conn.sent_continue && conn.out.empty()) {
      // Interim response so clients (curl) do not stall before sending
      // the body. Tiny and sent while the socket buffer is empty, so a
      // best-effort direct send is fine. Deferred while responses are
      // batched ahead of it (out non-empty) to preserve wire order;
      // FinishWrite re-enters here once the batch has drained.
      conn.sent_continue = true;
      const char kContinue[] = "HTTP/1.1 100 Continue\r\n\r\n";
      [[maybe_unused]] ssize_t rc =
          ::send(conn.fd, kContinue, sizeof(kContinue) - 1, MSG_NOSIGNAL);
    }
    break;
  }
  FlushPending(shard, id, conn, now);
}

void HttpServer::FlushPending(Shard& shard, uint64_t id, Conn& conn,
                              Clock::time_point now) {
  if (conn.out.empty()) return;
  conn.out_offset = 0;
  conn.state = Conn::State::kWriting;
  conn.deadline = now + std::chrono::milliseconds(options_.write_timeout_ms);
  // Optimistic flush: the socket is almost always writable, so writing
  // now saves a full poll round-trip per window. A full socket buffer
  // falls back to POLLOUT. No access to `conn` after the call — a write
  // error may have closed it.
  HandleWritable(shard, id, conn, now);
}

void HttpServer::HandleRequest(Shard& shard, Conn& conn) {
  conn.sent_continue = false;

  ServerMetrics& metrics = ServerMetrics::Get();
  metrics.requests->Add(shard.id, 1);
  metrics.request_body_bytes->Record(
      shard.id, static_cast<int64_t>(conn.parser.request().body.size()));

  bool keep_alive = conn.parser.request().keep_alive && !shard.draining;
  conn.close_after_write = !keep_alive;

  // Handle the request where the parser built it, then Reset() — the
  // request's buffers keep their capacity for the next request on this
  // connection instead of being moved out and freed. The serialized
  // response is appended to the connection's wire buffer and the state
  // stays kReading: TryAdvance keeps batching while complete requests
  // remain buffered.
  HttpResponse response = SafeHandle(shard, conn.parser.request());
  conn.parser.Reset();
  CountStatus(shard.id, response.status);
  conn.out.reserve(conn.out.size() + response.body.size() + 160);
  SerializeResponseHead(response, keep_alive, &conn.out);
  conn.out += response.body;
}

void HttpServer::HandleWritable(Shard& shard, uint64_t id, Conn& conn,
                                Clock::time_point now) {
  while (conn.out_offset < conn.out.size()) {
    ssize_t sent = ::send(conn.fd, conn.out.data() + conn.out_offset,
                          conn.out.size() - conn.out_offset, MSG_NOSIGNAL);
    if (sent > 0) {
      conn.out_offset += static_cast<size_t>(sent);
      continue;
    }
    if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    CloseConn(shard, id);  // Peer vanished mid-response.
    return;
  }
  FinishWrite(shard, id, conn, now);
}

void HttpServer::FinishWrite(Shard& shard, uint64_t id, Conn& conn,
                             Clock::time_point now) {
  if (conn.close_after_write || shard.draining) {
    CloseConn(shard, id);
    return;
  }
  // Keep-alive: recycle the connection for the next request; pipelined
  // bytes already buffered are consumed immediately. clear() keeps the
  // buffer's capacity for the next window.
  conn.out.clear();
  conn.out_offset = 0;
  conn.state = Conn::State::kReading;
  conn.deadline = now + std::chrono::milliseconds(options_.read_timeout_ms);
  TryAdvance(shard, id, conn, now);
}

void HttpServer::ExpireDeadlines(Shard& shard, Clock::time_point now) {
  ServerMetrics& metrics = ServerMetrics::Get();
  for (auto it = shard.conns.begin(); it != shard.conns.end();) {
    Conn& conn = it->second;
    uint64_t id = it->first;
    ++it;  // CloseConn invalidates the current iterator only.
    if (now < conn.deadline) continue;
    if (conn.state == Conn::State::kReading) {
      if (conn.parser.has_partial_data() || !conn.in.empty()) {
        metrics.read_timeouts->Add(shard.id, 1);  // Slow-loris / stall.
      }
      // Idle keep-alive connections expire silently.
    } else {
      metrics.write_timeouts->Add(shard.id, 1);
    }
    CloseConn(shard, id);
  }
}

void HttpServer::BeginDrain(Shard& shard, Clock::time_point now) {
  shard.draining = true;
  shard.drain_deadline =
      now + std::chrono::milliseconds(options_.drain_grace_ms);
  if (shard.listen_fd >= 0) {
    ::close(shard.listen_fd);
    shard.listen_fd = -1;
  }
  // An idle connection may already hold a request in its socket buffer
  // (it arrived while this shard handled another one): read it once, so
  // that request is answered, with Connection: close, instead of dropped.
  // Connections still idle after that read are closed now. Mid-request
  // reads keep their read deadline — a request the client has started
  // sending still gets served, then closed.
  auto idle = [&shard](uint64_t id) {
    auto found = shard.conns.find(id);
    return found != shard.conns.end() &&
           found->second.state == Conn::State::kReading &&
           !found->second.parser.has_partial_data() &&
           found->second.in.empty();
  };
  for (auto it = shard.conns.begin(); it != shard.conns.end();) {
    uint64_t id = it->first;
    Conn& conn = it->second;
    ++it;  // Both calls below erase at most this connection.
    if (!idle(id)) continue;
    HandleReadable(shard, id, conn, now);
    if (idle(id)) CloseConn(shard, id);
  }
}

int HttpServer::PollTimeoutMs(const Shard& shard,
                              Clock::time_point now) const {
  int64_t timeout = 60'000;
  for (const auto& [id, conn] : shard.conns) {
    timeout = std::min(timeout, MillisUntil(conn.deadline, now));
  }
  if (shard.id == 0 && options_.tick_interval_ms > 0 && tick_hook_) {
    timeout = std::min(timeout, MillisUntil(shard.next_tick, now));
  }
  if (shard.draining) {
    timeout = std::min(timeout, MillisUntil(shard.drain_deadline, now));
  }
  if (timeout < 0) return 0;
  if (timeout > 1000) return 1000;  // Bounded signal/shutdown latency.
  return static_cast<int>(timeout) + 1;  // Round up past the deadline.
}

Status HttpServer::RunShard(Shard& shard) {
  std::vector<pollfd> poll_fds;
  std::vector<uint64_t> poll_ids;
  for (;;) {
    Clock::time_point now = Clock::now();
    if (shutdown_.load(std::memory_order_relaxed) && !shard.draining) {
      BeginDrain(shard, now);
    }
    if (shard.id == 0) {
      // Reload and tick are shard-0 affairs: the repository swap they
      // trigger is published through one atomic store that every shard's
      // next Pin() observes — no cross-shard coordination needed.
      if (reload_.exchange(false, std::memory_order_relaxed) &&
          reload_hook_) {
        reload_hook_();
      }
      if (tick_hook_ && options_.tick_interval_ms > 0 &&
          now >= shard.next_tick) {
        tick_hook_();
        shard.next_tick =
            now + std::chrono::milliseconds(options_.tick_interval_ms);
      }
    }
    if (shard.draining) {
      if (shard.conns.empty()) break;
      if (now >= shard.drain_deadline) {
        ServerMetrics::Get().drain_forced_closes->Add(
            shard.id, static_cast<int64_t>(shard.conns.size()));
        while (!shard.conns.empty()) {
          CloseConn(shard, shard.conns.begin()->first);
        }
        break;
      }
    }

    poll_fds.clear();
    poll_ids.clear();
    poll_fds.push_back({shard.wake_read_fd, POLLIN, 0});
    poll_ids.push_back(0);
    bool accept_open =
        shard.listen_fd >= 0 &&
        (relay_accept_
             ? total_conns_.load(std::memory_order_relaxed) <
                   options_.max_connections
             : shard.conns.size() < ShardConnCap());
    if (accept_open) {
      poll_fds.push_back({shard.listen_fd, POLLIN, 0});
      poll_ids.push_back(0);
    }
    for (const auto& [id, conn] : shard.conns) {
      short events = conn.state == Conn::State::kReading ? POLLIN : POLLOUT;
      poll_fds.push_back({conn.fd, events, 0});
      poll_ids.push_back(id);
    }

    int rc =
        ::poll(poll_fds.data(), poll_fds.size(), PollTimeoutMs(shard, now));
    if (rc < 0 && errno != EINTR) return Errno("poll");
    now = Clock::now();

    if (rc > 0) {
      for (size_t i = 0; i < poll_fds.size(); ++i) {
        if (poll_fds[i].revents == 0) continue;
        int fd = poll_fds[i].fd;
        if (fd == shard.wake_read_fd) {
          DrainPipe(shard.wake_read_fd);
          continue;
        }
        if (fd == shard.listen_fd) {
          AcceptPending(shard, now);
          continue;
        }
        auto it = shard.conns.find(poll_ids[i]);
        if (it == shard.conns.end() || it->second.fd != fd) continue;
        Conn& conn = it->second;
        if (conn.state == Conn::State::kReading &&
            (poll_fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
          HandleReadable(shard, poll_ids[i], conn, now);
        } else if (conn.state == Conn::State::kWriting &&
                   (poll_fds[i].revents & (POLLOUT | POLLHUP | POLLERR)) !=
                       0) {
          HandleWritable(shard, poll_ids[i], conn, now);
        }
      }
    }
    DrainPendingFds(shard, now);
    ExpireDeadlines(shard, now);
  }

  // Close any relayed sockets that arrived after this shard's drain
  // finished (the acceptor may have assigned them before it drained).
  {
    std::lock_guard<std::mutex> lock(shard.pending_mu);
    for (int fd : shard.pending_fds) ::close(fd);
    shard.pending_fds.clear();
  }
  // Drain any wake bytes so a relaunched Run() does not spin once. The
  // pipe itself stays open (see ~HttpServer) so concurrent Request*()
  // calls stay safe after Run() returns.
  DrainPipe(shard.wake_read_fd);
  return Status::OK();
}

Status HttpServer::Run() {
  if (shards_[0]->listen_fd < 0) NTW_RETURN_IF_ERROR(Bind());
  shards_[0]->next_tick =
      Clock::now() + std::chrono::milliseconds(options_.tick_interval_ms);

  if (shards_.size() == 1) {
    Status status = RunShard(*shards_[0]);
    shutdown_.store(false, std::memory_order_relaxed);
    return status;
  }

  // Shard 0 runs on the calling thread (it owns reload/tick and, in relay
  // mode, the sole listener); the rest get their own reactor threads.
  std::vector<Status> statuses(shards_.size(), Status::OK());
  std::vector<std::thread> threads;
  threads.reserve(shards_.size() - 1);
  for (size_t i = 1; i < shards_.size(); ++i) {
    threads.emplace_back([this, i, &statuses] {
      statuses[i] = RunShard(*shards_[i]);
    });
  }
  statuses[0] = RunShard(*shards_[0]);
  // If shard 0 failed (e.g. poll error) the others would run forever:
  // make sure every loop sees shutdown before joining.
  if (!statuses[0].ok()) RequestShutdown();
  for (std::thread& thread : threads) thread.join();
  shutdown_.store(false, std::memory_order_relaxed);
  for (const Status& status : statuses) {
    if (!status.ok()) return status;
  }
  return Status::OK();
}

}  // namespace ntw::serve
