// The embeddable serving core: a bounded admission queue in front of a
// pool of executor threads and a manager of concurrent campaign sessions.
//
// Admission control is the backpressure story of the subsystem: submit()
// either enqueues the request (bounded deque, never grows past
// queue_capacity — overload cannot OOM the daemon) or responds
// kBackpressure / kShuttingDown immediately without enqueuing. Every
// admitted request is answered exactly once, including during stop(),
// which drains the queue before joining — an acknowledged request is
// never dropped.
//
// Deadlines are measured from admission: the request's deadline_ms arms a
// util::CancellationToken when the request enters the queue, so queue
// wait counts against the budget and an expired request is answered
// kDeadline without ever touching its session.
//
// Sessions execute under a per-session mutex — operations on one session
// serialize, distinct sessions proceed in parallel across the executor
// threads, and all redesign work runs contract::design_fleet on
// util::shared_pool().
//
// Everything observable lands in `ccd.serve.*` metrics, and the counters
// reconcile exactly with what clients see: submitted == responses, and
// every rejection is itemized (tested).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.hpp"
#include "serve/session.hpp"
#include "util/cancellation.hpp"

namespace ccd::serve {

struct EngineConfig {
  /// Executor threads draining the admission queue.
  std::size_t worker_threads = 4;
  /// Bounded admission queue; a full queue rejects with kBackpressure.
  std::size_t queue_capacity = 128;
  /// Open-session cap; exceeding it is a config error on open.
  std::size_t max_sessions = 256;
  /// Directory for per-session checkpoints; empty disables durability.
  std::string checkpoint_dir;
  /// Snapshot cadence in completed rounds (>= 1).
  std::size_t checkpoint_every = 1;
  /// Idle-session TTL in milliseconds: a session untouched this long is
  /// checkpointed to disk and evicted from memory (the slot frees up; a
  /// later op or open on the same id reloads it bitwise-identically).
  /// 0 disables eviction. Requires a checkpoint_dir — evicting without
  /// durability would silently discard campaign state.
  std::size_t idle_ttl_ms = 0;

  void validate() const;
};

/// Outcome of Engine::resume_sessions(): how many checkpoints restored,
/// and which files were skipped (corrupt / truncated / ambiguous) with the
/// error that condemned them. One bad file never blocks the rest.
struct ResumeReport {
  struct Skipped {
    std::string id;
    std::string path;
    std::string error;
  };
  std::size_t restored = 0;
  std::vector<Skipped> skipped;
};

class Engine {
 public:
  explicit Engine(EngineConfig config);
  ~Engine();  ///< stop()s.

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Restore every session checkpoint found in checkpoint_dir. A corrupt
  /// or truncated file is skipped — recorded in the report (and the
  /// `ccd.serve.resume_skipped` counter) with its DataError — so one bad
  /// file cannot hold every other campaign hostage. No-op without a
  /// checkpoint directory.
  ResumeReport resume_sessions();

  /// Submit a request. Invokes `done` exactly once — immediately with
  /// kBackpressure (queue full) or kShuttingDown (engine draining), or
  /// later from an executor thread with the operation's response. Returns
  /// true when the request was admitted to the queue.
  bool submit(Request request, std::function<void(Response)> done);

  /// Synchronous submit-and-wait (in-process embedding and tests).
  Response call(Request request);

  /// Force a snapshot of every open session (clean-shutdown path).
  void checkpoint_all();

  /// Drain the queue (answering everything already admitted), then join
  /// the executors and checkpoint all sessions. Idempotent. New
  /// submissions during and after stop() get kShuttingDown.
  void stop();

  /// True once a kShutdown request has been accepted; the daemon's main
  /// loop polls this to exit.
  bool shutdown_requested() const;

  std::size_t session_count() const;
  const EngineConfig& config() const { return config_; }

 private:
  struct Job {
    Request request;
    std::function<void(Response)> done;
    util::CancellationToken token;
    std::chrono::steady_clock::time_point admitted_at;
  };

  void executor_loop();
  void reaper_loop();
  void finish(Job& job, Response response);
  Response handle(const Request& request,
                  const util::CancellationToken& token);
  Response handle_open(const Request& request);
  Response handle_close(const Request& request);
  Response handle_restore(const Request& request);
  Response handle_health(const Request& request);
  Response handle_export(const Request& request);
  Response handle_list(const Request& request);
  std::shared_ptr<Session> find_session(const std::string& id);
  /// Under sessions_mutex_: reload an evicted session from its checkpoint
  /// file if one exists; returns nullptr when there is none.
  std::shared_ptr<Session> reload_locked(const std::string& id);
  Session::Env session_env();

  EngineConfig config_;

  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<Job> queue_;
  bool stopping_ = false;
  std::atomic<bool> shutdown_requested_{false};
  std::vector<std::thread> executors_;

  mutable std::mutex sessions_mutex_;
  std::map<std::string, std::shared_ptr<Session>> sessions_;

  // Idle-TTL reaper (only started when config_.idle_ttl_ms > 0).
  std::mutex reaper_mutex_;
  std::condition_variable reaper_cv_;
  bool reaper_stop_ = false;
  std::thread reaper_;
};

}  // namespace ccd::serve
