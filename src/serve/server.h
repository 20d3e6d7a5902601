#ifndef NTW_SERVE_SERVER_H_
#define NTW_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "serve/http.h"

namespace ntw::serve {

/// Tuning knobs for HttpServer; the defaults are what tools/ntw_serve
/// ships with.
struct ServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;  // 0 = kernel-assigned ephemeral port (see port()).
  HttpLimits limits;
  /// Independent reactor shards (event-loop threads), each with its own
  /// listener, connection table and timers — DESIGN.md §11. 1 keeps the
  /// classic single-loop server; ntw_serve defaults to the core count.
  int shards = 1;
  /// Testing/portability knob: skip SO_REUSEPORT and force the fallback
  /// accept relay (shard 0 owns the only listener and hands accepted
  /// sockets to the other shards round-robin).
  bool force_accept_relay = false;
  /// Simultaneously open connections; beyond this, accepting pauses.
  /// Divided evenly across shards.
  int max_connections = 1024;
  /// Budget to receive one full request (slow-loris bound) — also the
  /// keep-alive idle timeout.
  int read_timeout_ms = 5000;
  /// Budget to flush one write: the responses of a pipelined window,
  /// batched into one buffer, from the first send to the last byte.
  int write_timeout_ms = 5000;
  /// On shutdown, how long to wait for open requests before force-close.
  int drain_grace_ms = 10000;
  /// Cadence of the tick hook (mtime-based hot reload); 0 disables it.
  /// The tick runs on shard 0 only — one mtime poller per process.
  int tick_interval_ms = 1000;
};

/// A minimal dependency-free HTTP/1.1 daemon over POSIX sockets.
///
/// Architecture (DESIGN.md §11): N independent reactor shards, each an
/// event-loop thread that owns its own listener socket, self-wake pipe,
/// connection table and timers, and runs poll() over them. With
/// SO_REUSEPORT every shard listens on the same address and the kernel
/// spreads incoming connections; where that is unavailable (or
/// force_accept_relay is set) shard 0 owns the sole listener and relays
/// accepted sockets to the other shards round-robin through per-shard
/// handoff queues + wake pipes. A connection lives its whole life on one
/// shard, so the steady-state request path touches no cross-shard shared
/// state. Every complete request is handled inline on the shard that
/// owns its connection: the reactors are the parallelism, and a shard
/// runs one request at a time.
///
/// Production concerns handled here, not in handlers: read/write
/// timeouts, max body size (413), keep-alive with pipelining,
/// Expect: 100-continue, and graceful drain (stop accepting, answer the
/// requests already received, then return).
///
/// Determinism: the handler is a pure function and responses carry no
/// timestamps, so the bytes a request receives do not depend on shard
/// placement — any shard count replays byte-identically to serial
/// (tests/sharded_serve_test.cc).
class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;
  /// Builds shard-local handlers: called once per shard before the loops
  /// start, so each reactor can own private state (e.g. its own
  /// ExtractService with a per-shard buffer pool).
  using HandlerFactory = std::function<Handler(int shard)>;
  using Clock = std::chrono::steady_clock;

  /// One handler shared by every shard (it must be thread-safe when
  /// shards > 1).
  HttpServer(ServerOptions options, Handler handler);
  /// One handler per shard, built by the factory.
  HttpServer(ServerOptions options, HandlerFactory factory);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Creates, binds and listens every shard's socket. Call before Run().
  Status Bind();

  /// The bound port (useful with options.port = 0). Valid after Bind().
  int port() const { return port_; }

  /// True when the shards share one listener through the accept relay
  /// instead of per-shard SO_REUSEPORT listeners. Valid after Bind().
  bool using_accept_relay() const { return relay_accept_; }

  /// The event loops; blocks until RequestShutdown() and the subsequent
  /// drain complete on every shard. Shard 0 runs on the calling thread,
  /// shards 1..N-1 on internal threads. Returns non-OK only on setup
  /// failures.
  Status Run();

  /// Initiates graceful shutdown: stop accepting, answer the requests
  /// already received, make Run() return. Async-signal-safe (the
  /// SIGTERM/SIGINT handlers call this) and safe from any thread.
  void RequestShutdown();

  /// Schedules the reload hook to run on shard 0's loop (the SIGHUP
  /// handler calls this). Consumed by shard 0 only, so one SIGHUP runs
  /// the hook exactly once whatever the shard count. Async-signal-safe.
  void RequestReload();

  /// Called on shard 0's loop after RequestReload() — wrapper repository
  /// hot reload. Set before Run().
  void SetReloadHook(std::function<void()> hook) { reload_hook_ = std::move(hook); }

  /// Called on shard 0's loop every tick_interval_ms — mtime polling.
  /// Set before Run().
  void SetTickHook(std::function<void()> hook) { tick_hook_ = std::move(hook); }

 private:
  struct Conn {
    enum class State { kReading, kWriting };

    explicit Conn(const HttpLimits& limits) : parser(limits) {}

    int fd = -1;
    State state = State::kReading;
    RequestParser parser;
    std::string in;  // Received, not yet consumed.
    // Pending wire bytes: every response (head and body) of the current
    // pipelined window, so the window drains with one send. Recycled
    // across keep-alive responses.
    std::string out;
    size_t out_offset = 0;
    bool close_after_write = false;
    bool sent_continue = false;
    Clock::time_point deadline;
  };

  /// One reactor: everything below `handler` is owned and touched by this
  /// shard's loop thread only; the mutex-guarded relay queue is the only
  /// cross-thread entry point.
  struct Shard {
    int id = 0;
    Handler handler;
    int listen_fd = -1;  // -1 on relay shards (id > 0 in relay mode).
    int wake_read_fd = -1;
    std::atomic<int> wake_write_fd{-1};

    // Loop-owned state.
    std::map<uint64_t, Conn> conns;
    uint64_t next_conn_id = 1;
    bool draining = false;
    Clock::time_point drain_deadline;
    Clock::time_point next_tick;

    // Relay handoff: accepted fds shard 0 assigned to this shard.
    std::mutex pending_mu;
    std::vector<int> pending_fds;
  };

  Status BindShardListener(Shard& shard, bool reuseport);
  void AdoptFd(Shard& shard, int fd, Clock::time_point now);
  void AcceptPending(Shard& shard, Clock::time_point now);
  void DrainPendingFds(Shard& shard, Clock::time_point now);
  void RelayFd(int fd);
  void HandleReadable(Shard& shard, uint64_t id, Conn& conn,
                      Clock::time_point now);
  void TryAdvance(Shard& shard, uint64_t id, Conn& conn,
                  Clock::time_point now);
  void HandleRequest(Shard& shard, Conn& conn);
  void FlushPending(Shard& shard, uint64_t id, Conn& conn,
                    Clock::time_point now);
  void HandleWritable(Shard& shard, uint64_t id, Conn& conn,
                      Clock::time_point now);
  void FinishWrite(Shard& shard, uint64_t id, Conn& conn,
                   Clock::time_point now);
  void ExpireDeadlines(Shard& shard, Clock::time_point now);
  void BeginDrain(Shard& shard, Clock::time_point now);
  void CloseConn(Shard& shard, uint64_t id);
  void WakeShard(Shard& shard);
  HttpResponse SafeHandle(Shard& shard, const HttpRequest& request) const;
  int PollTimeoutMs(const Shard& shard, Clock::time_point now) const;
  Status RunShard(Shard& shard);
  size_t ShardConnCap() const;

  ServerOptions options_;
  HandlerFactory factory_;
  std::function<void()> reload_hook_;
  std::function<void()> tick_hook_;

  int port_ = 0;
  bool relay_accept_ = false;
  int relay_next_ = 0;  // Shard 0 only: next round-robin target.
  /// Open connections across all shards. Only the relay-mode acceptor
  /// reads it (per-shard tables are loop-owned, so the global cap needs a
  /// shared count); updated on connection open/close, never per request.
  std::atomic<int> total_conns_{0};

  std::atomic<bool> shutdown_{false};
  std::atomic<bool> reload_{false};

  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace ntw::serve

#endif  // NTW_SERVE_SERVER_H_
