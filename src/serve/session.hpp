// One long-lived campaign session — the serving unit of the paper's
// repeated principal-agent loop (contracts for round t are a function of
// round t−1 feedback, Eq. 4/5).
//
// Two modes share the lifecycle:
//  * Simulation sessions own a core::StackelbergSimulator and advance it
//    round-by-round on request. Determinism contract: driving a session
//    for T rounds over any number of requests leaves contracts bitwise-
//    identical to one StackelbergSimulator::run of T rounds on the same
//    seed (tested end-to-end over the socket).
//  * Ingest sessions are fed observed per-round feedback
//    (effort, feedback, accuracy sample) per worker. The session keeps
//    EMA estimates of accuracy/maliciousness exactly like the simulator's
//    requester, accumulates a bounded sliding window of effort samples,
//    re-fits each worker's effort curve (effort::fit_effort_function)
//    every `refit_every` rounds, and re-designs all contracts through
//    contract::design_contracts_batch on util::shared_pool() with a
//    private design cache per redesign.
//
// Durability: when a checkpoint directory is configured every completed
// round snapshots crash-safely. Simulation sessions reuse core/checkpoint
// verbatim (SimConfig::checkpoint_path pointed into the directory, frame
// tag "SCKP"); ingest sessions serialize their own state under frame tag
// "ISES" with the same util/wire + util/atomic_file primitives. A killed
// daemon restores every open session bitwise-identically from these files.
//
// Thread safety: none here — the engine serializes operations per session
// via mutex() while allowing different sessions to proceed in parallel.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/stackelberg.hpp"
#include "data/metrics.hpp"
#include "serve/protocol.hpp"

namespace ccd::serve {

/// True when `id` is usable as a session name (and thus a checkpoint file
/// stem): 1..64 chars from [A-Za-z0-9_-].
bool valid_session_id(const std::string& id);

class Session {
 public:
  /// Engine-provided environment shared by all sessions.
  struct Env {
    /// Directory for per-session checkpoint files; empty disables
    /// durability.
    std::string checkpoint_dir;
    /// Snapshot cadence in completed rounds (>= 1).
    std::size_t checkpoint_every = 1;
  };

  /// Open a fresh session. Throws ccd::ConfigError on bad id or params.
  Session(std::string id, const OpenParams& params, Env env);
  ~Session();  // out-of-line: IngestState is incomplete here

  /// Restore a session from its checkpoint file (either mode; the mode is
  /// recovered from the frame tag). Throws ccd::DataError on corruption.
  static std::unique_ptr<Session> restore(const std::string& id,
                                          const std::string& path, Env env);

  /// Restore a session from an in-memory checkpoint-frame image (the exact
  /// bytes of a .sim.ckpt / .ingest.ckpt file) — the gateway's failover
  /// handoff path: checkpoints travel over the wire, never through a
  /// shared filesystem. The mode is recovered from the frame tag. Throws
  /// ccd::DataError on corruption.
  static std::unique_ptr<Session> restore_blob(const std::string& id,
                                               const std::string& blob,
                                               Env env);

  /// Checkpoint-file suffix for `mode` (".sim.ckpt" / ".ingest.ckpt") —
  /// how gateways and engines recognize session checkpoints on disk.
  static const char* checkpoint_suffix(SessionMode mode);

  const std::string& id() const { return id_; }
  SessionMode mode() const { return mode_; }
  SessionStatus status() const;

  /// Advance a simulation session by up to `rounds` rounds. Throws
  /// ccd::ConfigError on an ingest session.
  core::StepStatus advance(std::size_t rounds,
                           const util::CancellationToken* cancel);

  /// Ingest one observed round (one observation per worker) into an
  /// ingest session; returns true when a redesign ran. A cancelled
  /// redesign leaves the previous contracts posted and reports via
  /// `cancel`. Throws ccd::ConfigError on a simulation session or a
  /// wrong-sized observation vector.
  bool ingest(const std::vector<IngestObservation>& observations,
              const util::CancellationToken* cancel);

  /// Currently posted contracts (zero contracts before the first design).
  std::vector<contract::Contract> contracts() const;

  /// Force a snapshot now (no-op without a checkpoint directory).
  void checkpoint() const;
  /// Delete the session's checkpoint file (on close; no-op when absent).
  void remove_checkpoint() const;
  /// Path of this session's checkpoint file ("" without a directory).
  std::string checkpoint_path() const;

  /// Per-session operation lock (held by the engine around every op).
  std::mutex& mutex() { return mutex_; }

  /// Record a use now (engine calls this on every session-scoped op);
  /// feeds the idle-TTL eviction clock.
  void touch() {
    last_used_.store(std::chrono::steady_clock::now().time_since_epoch().count(),
                     std::memory_order_relaxed);
  }

  /// Time since the last touch() (or construction).
  std::chrono::nanoseconds idle_for() const {
    const auto now = std::chrono::steady_clock::now().time_since_epoch();
    return std::chrono::nanoseconds(
        now.count() - last_used_.load(std::memory_order_relaxed));
  }

 private:
  struct IngestState;

  Session(std::string id, Env env, SessionMode mode);
  void ingest_checkpoint() const;
  void ingest_refit();
  void ingest_redesign(const util::CancellationToken* cancel);
  bool ingest_post(const util::CancellationToken* cancel);
  static std::unique_ptr<IngestState> decode_ingest_payload(
      const std::string& payload, std::uint32_t version);

  std::string id_;
  Env env_;
  SessionMode mode_;
  std::mutex mutex_;
  std::atomic<std::chrono::steady_clock::duration::rep> last_used_{
      std::chrono::steady_clock::now().time_since_epoch().count()};

  // kSimulation
  std::unique_ptr<core::StackelbergSimulator> sim_;

  // kIngest
  std::unique_ptr<IngestState> ingest_;
};

}  // namespace ccd::serve
