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
//    the simulator's estimator (core::RequesterState: EMA estimates of
//    accuracy/maliciousness), accumulates a bounded sliding window of
//    effort samples, and re-fits each worker's effort curve
//    (effort::fit_effort_function) every `refit_every` rounds. Contracts
//    are posted by the session's policy backend through one call,
//    ingest_post: BiP on refit rounds (contract::design_fleet, one k-sweep
//    per distinct fitted curve, on util::shared_pool() when there are two
//    or more, with a private design cache per call), learners every
//    round.
//
// Durability: when a checkpoint directory is configured every
// `checkpoint_every`-th completed round is durable before it is
// acknowledged. Simulation sessions reuse core/checkpoint verbatim
// (SimConfig::checkpoint_path pointed into the directory, frame tag
// "SCKP", one atomic rewrite per durable round). Ingest sessions keep one
// file, `<id>.ingest.ckpt`, laid out as a journal:
//
//   [CCDF frame "ISES" v4: full snapshot of the session state]
//   [CCDF frame "ISJR" v4: journal record] ...
//
// The snapshot holds the round counters, the RequesterState section (the
// one SCKP also carries), each worker's effort curve, sample window and
// contract, then the policy config, learner state and RNG. Only v4
// decodes.
//
// A record holds (first round, workers, rounds) and then rounds × workers
// observations (effort, feedback, accuracy sample; 24 bytes each) — the
// rounds ingested since the previous durable point. Each durable point
// appends one record with a single O_APPEND write + fdatasync
// (util::append_file_durable). A full snapshot (atomic rewrite, which
// drops the journal) is written instead by checkpoint() — open, export,
// evict, shutdown, restore — at the first durable point after a restore
// whose image carried records or a torn tail (or was not this session's
// own file), at the first durable point
// after a round whose redesign or learner post was cut short by its
// cancellation token (or threw), and once kJournalRounds rounds have been
// journaled since the last snapshot. Restore decodes the snapshot and
// replays every record through the same ingest step, uncancelled, so the
// restored session is the live one bitwise. A tail record that is short
// or fails its checksum was never acknowledged and is dropped; a damaged
// record anywhere else, a record that does not start at the next round,
// or one sized for another fleet is a DataError. A killed daemon restores
// every open session bitwise-identically from these files.
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
  /// recovered from the file suffix). Ingest files replay their journal.
  /// Throws ccd::DataError on corruption.
  static std::unique_ptr<Session> restore(const std::string& id,
                                          const std::string& path, Env env);

  /// Restore a session from an in-memory checkpoint-frame image (the exact
  /// bytes of a .sim.ckpt / .ingest.ckpt file) — the gateway's failover
  /// handoff path: checkpoints travel over the wire, never through a
  /// shared filesystem. The mode is recovered from the frame tag; ingest
  /// images go through the same decoder (and journal replay) as restore().
  /// Throws ccd::DataError on corruption.
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
  /// wrong-sized observation vector, and ccd::DataError on a non-finite or
  /// negative observation; either way the session is left untouched.
  bool ingest(const std::vector<IngestObservation>& observations,
              const util::CancellationToken* cancel);

  /// Currently posted contracts (zero contracts before the first design).
  std::vector<contract::Contract> contracts() const;

  /// Force a full snapshot now (no-op without a checkpoint directory). For
  /// ingest sessions this also compacts the journal away.
  void checkpoint();
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

  /// What one ingest step did: whether new contracts were posted, and
  /// whether a redesign or post was cut short by the cancellation token
  /// (such a round has no faithful uncancelled replay).
  struct Step {
    bool redesigned = false;
    bool cut_short = false;
  };

  Session(std::string id, Env env, SessionMode mode);
  Step ingest_step(const std::vector<IngestObservation>& observations,
                   const util::CancellationToken* cancel);
  void ingest_durable_point();
  void ingest_snapshot();
  void ingest_refit();
  bool ingest_post(const util::CancellationToken* cancel);
  /// The one ingest image decoder (files and blobs): snapshot frame, then
  /// journal replay. Returns true when the image was not a bare snapshot
  /// (it carried records or a torn tail).
  bool load_ingest_image(const std::string& image, const std::string& context);
  void replay_journal_record(const std::string& record);
  static std::unique_ptr<IngestState> decode_ingest_payload(
      const std::string& payload);

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
