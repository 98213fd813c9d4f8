#include "serve/session.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string_view>
#include <utility>

#include "core/checkpoint.hpp"
#include "core/requester.hpp"
#include "effort/fitting.hpp"
#include "util/atomic_file.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"

namespace ccd::serve {

namespace metrics = util::metrics;

namespace {

constexpr const char* kIngestTag = "ISES";
constexpr const char* kJournalTag = "ISJR";
/// Bytes per journaled observation: effort, feedback, accuracy sample.
constexpr std::size_t kObservationBytes = 24;
constexpr const char* kSimSuffix = ".sim.ckpt";
constexpr const char* kIngestSuffix = ".ingest.ckpt";

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::string checkpoint_file(const std::string& dir, const std::string& id,
                            SessionMode mode) {
  if (dir.empty()) return {};
  return dir + "/" + id +
         (mode == SessionMode::kSimulation ? kSimSuffix : kIngestSuffix);
}

/// Throws DataError unless every observation is finite and non-negative.
void validate_observations(const std::vector<IngestObservation>& observations) {
  for (std::size_t i = 0; i < observations.size(); ++i) {
    const IngestObservation& obs = observations[i];
    if (!std::isfinite(obs.effort) || !std::isfinite(obs.feedback) ||
        !std::isfinite(obs.accuracy_sample) || obs.effort < 0.0 ||
        obs.feedback < 0.0 || obs.accuracy_sample < 0.0) {
      throw DataError("ingest observation for worker " + std::to_string(i) +
                      " is not finite and non-negative");
    }
  }
}

/// `ccd.serve.checkpoint.*`: what ingest-session durability costs. The
/// histograms time a whole durable write (encode + I/O); `bytes` counts
/// every snapshot and journal record written.
struct CheckpointMetrics {
  metrics::Histogram& append_us;
  metrics::Histogram& snapshot_us;
  metrics::Counter& bytes;

  static CheckpointMetrics& instance() {
    static CheckpointMetrics m = [] {
      metrics::MetricsRegistry& reg = metrics::registry();
      return CheckpointMetrics{reg.histogram("ccd.serve.checkpoint.append_us"),
                               reg.histogram("ccd.serve.checkpoint.snapshot_us"),
                               reg.counter("ccd.serve.checkpoint.bytes")};
    }();
    return m;
  }
};

}  // namespace

const char* Session::checkpoint_suffix(SessionMode mode) {
  return mode == SessionMode::kSimulation ? kSimSuffix : kIngestSuffix;
}

bool valid_session_id(const std::string& id) {
  if (id.empty() || id.size() > 64) return false;
  for (const char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

/// Ingest-mode dynamic state. The estimates are the simulator's
/// core::RequesterState; the effort curves start at the library default and
/// are re-fit from the observed sample window.
struct Session::IngestState {
  /// v4: snapshot frame + journal records (session.hpp); the snapshot
  /// carries the RequesterState section SCKP also carries. Only v4 decodes.
  static constexpr std::uint32_t kVersion = 4;
  /// Journaled rounds after which the next durable point writes a full
  /// snapshot instead of a record: bounds file size and restore replay.
  static constexpr std::uint64_t kJournalRounds = 32;
  /// Sliding window of retained (effort, feedback) samples per worker —
  /// bounds session memory no matter how long the campaign runs.
  static constexpr std::size_t kSampleWindow = 256;

  core::RequesterState requester;
  std::size_t refit_every = 4;
  std::uint64_t rounds_budget = 0;  ///< 0 = unbounded
  std::uint64_t round = 0;
  double cumulative_requester_utility = 0.0;

  std::vector<effort::QuadraticEffort> psi;
  std::vector<std::vector<data::EffortSample>> samples;
  std::vector<contract::Contract> contracts;

  /// Contract-designer backend. BiP posts on refit rounds only; learners
  /// post fresh contracts every ingested round and observe every round's
  /// rewards. The RNG exists purely for the Policy interface's RNG
  /// discipline (current learners draw nothing) and is checkpointed so any
  /// future drawing backend stays resume-safe.
  policy::PolicyConfig policy_config;
  std::unique_ptr<policy::Policy> policy;
  util::Rng rng{1};

  // Journal bookkeeping (never serialized).
  /// Observations of the rounds since the last durable write, round-major.
  std::vector<IngestObservation> unjournaled;
  /// Rounds journaled since the last snapshot.
  std::uint64_t journaled_rounds = 0;
  /// The next durable point must write a full snapshot: nothing written
  /// yet, the file is not this session's own clean snapshot + journal, or
  /// a round since has no faithful replay.
  bool snapshot_due = true;

  std::size_t workers() const { return requester.workers(); }
  bool finished() const { return rounds_budget > 0 && round >= rounds_budget; }
};

Session::~Session() = default;

Session::Session(std::string id, Env env, SessionMode mode)
    : id_(std::move(id)), env_(std::move(env)), mode_(mode) {
  CCD_CHECK_MSG(env_.checkpoint_every >= 1, "checkpoint_every must be >= 1");
  if (!valid_session_id(id_)) {
    throw ConfigError("invalid session id '" + id_ +
                      "' (1-64 chars of [A-Za-z0-9_-])");
  }
}

Session::Session(std::string id, const OpenParams& params, Env env)
    : Session(std::move(id), std::move(env), params.mode) {
  if (params.workers == 0) {
    throw ConfigError("session needs at least one worker");
  }
  if (mode_ == SessionMode::kSimulation) {
    if (params.rounds == 0) {
      throw ConfigError("simulation session needs rounds >= 1");
    }
    core::SimConfig config;
    config.rounds = params.rounds;
    config.seed = params.seed;
    config.requester.mu = params.mu;
    config.ema_alpha = params.ema_alpha;
    config.policy.kind = params.policy;
    config.checkpoint_path = checkpoint_file(env_.checkpoint_dir, id_, mode_);
    config.checkpoint_every =
        config.checkpoint_path.empty() ? 0 : env_.checkpoint_every;
    sim_ = std::make_unique<core::StackelbergSimulator>(
        core::preset_fleet(params.workers, params.malicious),
        std::move(config));
  } else {
    if (params.refit_every == 0) {
      throw ConfigError("ingest session needs refit_every >= 1");
    }
    ingest_ = std::make_unique<IngestState>();
    core::RequesterConfig requester;
    requester.mu = params.mu;
    const std::size_t n = params.workers;
    ingest_->requester = core::RequesterState(
        requester, params.ema_alpha, /*suspicion_threshold=*/0.5, n);
    ingest_->refit_every = params.refit_every;
    ingest_->rounds_budget = params.rounds;
    ingest_->psi.assign(n, effort::QuadraticEffort(-1.0, 8.0, 2.0));
    ingest_->samples.assign(n, {});
    ingest_->contracts.assign(n, contract::Contract{});
    ingest_->policy_config.kind = params.policy;
    ingest_->policy = policy::make_policy(ingest_->policy_config);
    ingest_->rng = util::Rng(params.seed);
  }
}

SessionStatus Session::status() const {
  SessionStatus s;
  if (mode_ == SessionMode::kSimulation) {
    s.next_round = sim_->next_round();
    s.rounds = sim_->config().rounds;
    s.workers = sim_->worker_count();
    s.cumulative_requester_utility =
        sim_->history().cumulative_requester_utility;
    s.finished = sim_->finished();
  } else {
    s.next_round = ingest_->round;
    s.rounds = ingest_->rounds_budget;
    s.workers = ingest_->workers();
    s.cumulative_requester_utility = ingest_->cumulative_requester_utility;
    s.finished = ingest_->finished();
  }
  return s;
}

core::StepStatus Session::advance(std::size_t rounds,
                                  const util::CancellationToken* cancel) {
  if (mode_ != SessionMode::kSimulation) {
    throw ConfigError("session '" + id_ +
                      "' is an ingest session; advance applies to "
                      "simulation sessions");
  }
  // The simulator writes its own crash-safe checkpoint every completed
  // round (SimConfig::checkpoint_every), so a kill mid-advance loses at
  // most the in-flight round.
  return sim_->step(rounds, cancel);
}

bool Session::ingest(const std::vector<IngestObservation>& observations,
                     const util::CancellationToken* cancel) {
  if (mode_ != SessionMode::kIngest) {
    throw ConfigError("session '" + id_ +
                      "' is a simulation session; ingest applies to "
                      "ingest sessions");
  }
  IngestState& state = *ingest_;
  if (state.finished()) {
    throw ConfigError("session '" + id_ + "' round budget exhausted (" +
                      std::to_string(state.rounds_budget) + " rounds)");
  }
  const std::size_t n = state.workers();
  if (observations.size() != n) {
    throw ConfigError("ingest round carries " +
                      std::to_string(observations.size()) +
                      " observations, session has " + std::to_string(n) +
                      " workers");
  }

  // Validate before any state changes: a refused request must leave the
  // session exactly as if it had never arrived.
  validate_observations(observations);

  const bool durable = !env_.checkpoint_dir.empty();
  if (durable) {
    state.unjournaled.insert(state.unjournaled.end(), observations.begin(),
                             observations.end());
  }
  Step step;
  try {
    step = ingest_step(observations, cancel);
  } catch (...) {
    state.snapshot_due = true;  // a round that threw part-way has no replay
    throw;
  }
  // Replay runs uncancelled, so a round cut short must reach the file as a
  // snapshot, never as a journal record.
  if (step.cut_short) state.snapshot_due = true;
  if (durable && state.round % env_.checkpoint_every == 0) {
    ingest_durable_point();
  }
  return step.redesigned;
}

Session::Step Session::ingest_step(
    const std::vector<IngestObservation>& observations,
    const util::CancellationToken* cancel) {
  IngestState& state = *ingest_;
  const std::size_t n = state.workers();
  const bool learner = state.policy->learns();
  std::vector<policy::RoundOutcome> outcomes;
  if (learner) outcomes.resize(n);
  double weighted_feedback = 0.0;
  double total_pay = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const IngestObservation& obs = observations[i];
    std::vector<data::EffortSample>& window = state.samples[i];
    data::EffortSample sample;
    sample.worker = static_cast<data::WorkerId>(i);
    sample.review = static_cast<data::ReviewId>(state.round);
    sample.effort = obs.effort;
    sample.feedback = obs.feedback;
    window.push_back(sample);
    if (window.size() > IngestState::kSampleWindow) {
      window.erase(window.begin());
    }

    // Requester-side estimation: the simulator's estimator. The reward
    // below uses the weight after this round's update.
    state.requester.observe(i, obs.accuracy_sample);
    const double weight = state.requester.weight(i, 0);
    weighted_feedback += weight * obs.feedback;
    total_pay += state.contracts[i].pay(obs.feedback);
    if (learner) {
      outcomes[i].active = true;
      outcomes[i].feedback = obs.feedback;
      outcomes[i].reward = weight * obs.feedback -
                           state.requester.config().mu *
                               state.contracts[i].pay(obs.feedback);
    }
  }
  if (learner) state.policy->observe(state.round, outcomes, state.rng);
  state.cumulative_requester_utility +=
      weighted_feedback - state.requester.config().mu * total_pay;
  state.round += 1;

  // BiP redesigns from the re-fit curves on refit rounds only; learners
  // post fresh arms every round and pick the re-fit curves up there.
  Step step;
  const bool refit = state.round % state.refit_every == 0;
  if (refit) ingest_refit();
  if (refit || learner) {
    step.redesigned = ingest_post(cancel);
    step.cut_short = !step.redesigned;
  }
  return step;
}

void Session::ingest_durable_point() {
  IngestState& state = *ingest_;
  const std::uint64_t rounds = state.unjournaled.size() / state.workers();
  if (state.snapshot_due ||
      state.journaled_rounds + rounds > IngestState::kJournalRounds) {
    ingest_snapshot();
    return;
  }
  CheckpointMetrics& m = CheckpointMetrics::instance();
  metrics::ScopedTimer timer(&m.append_us);
  util::wire::Writer w;
  w.u64(state.round - rounds);
  w.u64(state.workers());
  w.u64(rounds);
  for (const IngestObservation& obs : state.unjournaled) {
    w.f64(obs.effort);
    w.f64(obs.feedback);
    w.f64(obs.accuracy_sample);
  }
  const std::string record =
      util::wire::encode_frame(kJournalTag, IngestState::kVersion, w.take());
  // A failed append may leave a torn record that a later append would bury
  // mid-file; until this one is whole on disk, compaction is due.
  state.snapshot_due = true;
  util::append_file_durable(checkpoint_path(), record);
  state.snapshot_due = false;
  timer.stop();
  m.bytes.add(record.size());
  state.journaled_rounds += rounds;
  state.unjournaled.clear();
}

void Session::ingest_refit() {
  IngestState& state = *ingest_;
  const std::size_t n = state.workers();
  // Incremental re-fit: workers with enough observed samples get a fresh
  // concave-quadratic effort curve; sparse or degenerate windows keep the
  // previous fit (quarantine-style degradation, never a dead session).
  for (std::size_t i = 0; i < n; ++i) {
    if (state.samples[i].size() < 3) continue;
    try {
      state.psi[i] = effort::fit_effort_function(state.samples[i]).model;
    } catch (const ccd::Error&) {
      // Keep the previous curve.
    }
  }
}

bool Session::ingest_post(const util::CancellationToken* cancel) {
  IngestState& state = *ingest_;
  const std::size_t n = state.workers();
  std::vector<contract::SubproblemSpec> specs;
  specs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    specs.push_back(state.requester.spec(i, state.psi[i],
                                         state.requester.config().beta, 0));
  }
  // No pool and no cache: every refit yields a distinct psi per worker, so
  // a cache kept across posts would only grow; BiP designs with a private
  // one per call. A cancelled post keeps the previous contracts; BiP
  // redesigns on the next refit round, a learner re-posts next round.
  policy::PostEnv env;
  env.cancel = cancel;
  return state.policy->post(state.round, true, specs, state.contracts,
                            state.rng, env);
}

std::vector<contract::Contract> Session::contracts() const {
  return mode_ == SessionMode::kSimulation ? sim_->contracts()
                                           : ingest_->contracts;
}

std::string Session::checkpoint_path() const {
  return checkpoint_file(env_.checkpoint_dir, id_, mode_);
}

void Session::checkpoint() {
  const std::string path = checkpoint_path();
  if (path.empty()) return;
  if (mode_ == SessionMode::kSimulation) {
    core::save_checkpoint(path, sim_->snapshot());
  } else {
    ingest_snapshot();
  }
}

void Session::ingest_snapshot() {
  IngestState& state = *ingest_;
  CheckpointMetrics& m = CheckpointMetrics::instance();
  metrics::ScopedTimer timer(&m.snapshot_us);
  util::wire::Writer w;
  w.u64(state.round);
  w.u64(state.rounds_budget);
  w.f64(state.cumulative_requester_utility);
  w.u64(state.refit_every);
  state.requester.encode(w);
  for (std::size_t i = 0; i < state.workers(); ++i) {
    w.f64(state.psi[i].r2());
    w.f64(state.psi[i].r1());
    w.f64(state.psi[i].r0());
    w.u64(state.samples[i].size());
    for (const data::EffortSample& sample : state.samples[i]) {
      w.u64(sample.review);
      w.f64(sample.effort);
      w.f64(sample.feedback);
    }
    core::encode_contract(w, state.contracts[i]);
  }
  core::encode_policy_config(w, state.policy_config);
  w.str(state.policy->save_state());
  core::encode_rng_state(w, state.rng.state());
  const std::string frame =
      util::wire::encode_frame(kIngestTag, IngestState::kVersion, w.take());
  util::atomic_write_file(checkpoint_path(), frame);
  timer.stop();
  m.bytes.add(frame.size());
  state.unjournaled.clear();
  state.journaled_rounds = 0;
  state.snapshot_due = false;
}

std::unique_ptr<Session> Session::restore(const std::string& id,
                                          const std::string& path, Env env) {
  const SessionMode mode = ends_with(path, kSimSuffix)
                               ? SessionMode::kSimulation
                               : SessionMode::kIngest;
  auto session =
      std::unique_ptr<Session>(new Session(id, std::move(env), mode));
  if (mode == SessionMode::kSimulation) {
    core::SimCheckpoint checkpoint = core::load_checkpoint(path);
    // Re-point durability at the engine's directory: the checkpoint may
    // have been written under another daemon instance's configuration.
    checkpoint.config.checkpoint_path =
        checkpoint_file(session->env_.checkpoint_dir, id, mode);
    checkpoint.config.checkpoint_every =
        checkpoint.config.checkpoint_path.empty()
            ? 0
            : session->env_.checkpoint_every;
    session->sim_ = std::make_unique<core::StackelbergSimulator>(checkpoint);
    return session;
  }

  const bool replayed =
      session->load_ingest_image(util::read_file(path), "file '" + path + "'");
  // Appends may only extend this session's own, compacted file.
  session->ingest_->snapshot_due =
      replayed || path != session->checkpoint_path();
  return session;
}

bool Session::load_ingest_image(const std::string& image,
                                const std::string& context) {
  namespace wire = util::wire;
  constexpr std::uint64_t kAnySize = std::numeric_limits<std::uint64_t>::max();
  const std::string_view all(image);
  const wire::FrameHeader header =
      wire::decode_frame_header(all, kIngestTag, IngestState::kVersion,
                                IngestState::kVersion, kAnySize, context);
  const std::string_view snapshot =
      all.substr(wire::kFrameHeaderSize, header.payload_size);
  wire::verify_frame_payload(header, snapshot, context);
  ingest_ = decode_ingest_payload(std::string(snapshot));

  bool replayed = false;
  std::size_t offset = wire::kFrameHeaderSize + snapshot.size();
  while (offset < all.size()) {
    const std::string_view rest = all.substr(offset);
    const std::string where =
        context + " journal record at byte " + std::to_string(offset);
    // A tail shorter than its header announces was cut mid-append: that
    // round was never acknowledged, so it is dropped.
    if (rest.size() < wire::kFrameHeaderSize) return true;
    const wire::FrameHeader record_header =
        wire::decode_frame_header(rest, kJournalTag, IngestState::kVersion,
                                  IngestState::kVersion, kAnySize, where);
    const std::uint64_t present = rest.size() - wire::kFrameHeaderSize;
    if (record_header.payload_size > present) return true;
    const std::string_view record =
        rest.substr(wire::kFrameHeaderSize, record_header.payload_size);
    if (util::fnv1a64(record.data(), record.size()) !=
        record_header.checksum) {
      if (record_header.payload_size == present) return true;  // torn tail
      throw DataError("checksum mismatch in " + where +
                      " (a damaged record before the tail)");
    }
    try {
      replay_journal_record(std::string(record));
    } catch (const DataError& e) {
      throw DataError(where + ": " + e.what());
    } catch (const Error& e) {
      throw DataError(where + " failed to replay: " + e.what());
    }
    offset += wire::kFrameHeaderSize + record.size();
    replayed = true;
  }
  return replayed;
}

void Session::replay_journal_record(const std::string& record) {
  IngestState& state = *ingest_;
  const std::size_t n = state.workers();
  util::wire::Reader r(record);
  const std::uint64_t first_round = r.u64();
  const std::uint64_t workers = r.u64();
  if (first_round != state.round) {
    throw DataError("record starts at round " + std::to_string(first_round) +
                    ", expected " + std::to_string(state.round));
  }
  if (workers != n) {
    throw DataError("record carries " + std::to_string(workers) +
                    " workers, snapshot has " + std::to_string(n));
  }
  const std::size_t rounds = r.count(n * kObservationBytes);
  if (rounds == 0) throw DataError("record carries no rounds");
  std::vector<IngestObservation> observations(rounds * n);
  for (IngestObservation& obs : observations) {
    obs.effort = r.f64();
    obs.feedback = r.f64();
    obs.accuracy_sample = r.f64();
  }
  r.finish();
  std::vector<IngestObservation> round(n);
  for (std::size_t t = 0; t < rounds; ++t) {
    if (state.finished()) {
      throw DataError("record replays past the round budget");
    }
    std::copy_n(observations.begin() + static_cast<std::ptrdiff_t>(t * n), n,
                round.begin());
    validate_observations(round);
    ingest_step(round, nullptr);
  }
}

std::unique_ptr<Session::IngestState> Session::decode_ingest_payload(
    const std::string& payload) {
  try {
    util::wire::Reader r(payload);
    auto state = std::make_unique<IngestState>();
    state->round = r.u64();
    state->rounds_budget = r.u64();
    state->cumulative_requester_utility = r.f64();
    state->refit_every = r.u64();
    CCD_CHECK_MSG(state->refit_every >= 1,
                  "ingest checkpoint refit_every must be >= 1");
    state->requester = core::RequesterState::decode(r);
    const std::size_t n = state->requester.workers();
    CCD_CHECK_MSG(n >= 1, "ingest checkpoint has no workers");
    for (std::size_t i = 0; i < n; ++i) {
      const double r2 = r.f64();
      const double r1 = r.f64();
      const double r0 = r.f64();
      state->psi.emplace_back(r2, r1, r0);
      const std::size_t samples = r.count(24);
      std::vector<data::EffortSample> window;
      window.reserve(samples);
      for (std::size_t s = 0; s < samples; ++s) {
        data::EffortSample sample;
        sample.worker = static_cast<data::WorkerId>(i);
        sample.review = static_cast<data::ReviewId>(r.u64());
        sample.effort = r.f64();
        sample.feedback = r.f64();
        window.push_back(sample);
      }
      state->samples.push_back(std::move(window));
      state->contracts.push_back(core::decode_contract(r));
    }
    state->policy_config = core::decode_policy_config(r);
    const std::string policy_state = r.str();
    const util::RngState rng_state = core::decode_rng_state(r);
    r.finish();
    state->policy = policy::make_policy(state->policy_config);
    state->policy->load_state(policy_state);
    state->rng.set_state(rng_state);
    return state;
  } catch (const DataError&) {
    throw;
  } catch (const Error& e) {
    throw DataError(std::string("invalid ingest-session checkpoint: ") +
                    e.what());
  }
}

std::unique_ptr<Session> Session::restore_blob(const std::string& id,
                                               const std::string& blob,
                                               Env env) {
  if (blob.size() < util::wire::kFrameHeaderSize) {
    throw DataError("checkpoint blob shorter than a frame header (" +
                    std::to_string(blob.size()) + " bytes)");
  }
  // The frame tag (bytes 4..8) names the session mode; full header and
  // checksum validation happens below under the tag-specific version.
  const std::string tag = blob.substr(4, 4);
  if (tag == kIngestTag) {
    auto session = std::unique_ptr<Session>(
        new Session(id, std::move(env), SessionMode::kIngest));
    session->load_ingest_image(blob, "checkpoint blob");
    session->ingest_->snapshot_due = true;  // the file here is not the blob
    return session;
  }
  if (tag != "SCKP") {
    throw DataError("checkpoint blob has unknown frame tag '" + tag + "'");
  }
  const util::wire::FrameHeader header = util::wire::decode_frame_header(
      blob, tag, core::SimCheckpoint::kVersion, core::SimCheckpoint::kVersion,
      blob.size(), "checkpoint blob");
  if (blob.size() != util::wire::kFrameHeaderSize + header.payload_size) {
    throw DataError("checkpoint blob size mismatch (header announces " +
                    std::to_string(header.payload_size) + " payload bytes, " +
                    std::to_string(blob.size() - util::wire::kFrameHeaderSize) +
                    " present)");
  }
  const std::string payload = blob.substr(util::wire::kFrameHeaderSize);
  util::wire::verify_frame_payload(header, payload, "checkpoint blob");

  auto session = std::unique_ptr<Session>(
      new Session(id, std::move(env), SessionMode::kSimulation));
  core::SimCheckpoint checkpoint = core::decode_checkpoint(payload);
  checkpoint.config.checkpoint_path = checkpoint_file(
      session->env_.checkpoint_dir, id, SessionMode::kSimulation);
  checkpoint.config.checkpoint_every =
      checkpoint.config.checkpoint_path.empty()
          ? 0
          : session->env_.checkpoint_every;
  session->sim_ = std::make_unique<core::StackelbergSimulator>(checkpoint);
  return session;
}

void Session::remove_checkpoint() const {
  const std::string path = checkpoint_path();
  if (!path.empty()) std::remove(path.c_str());
}

}  // namespace ccd::serve
