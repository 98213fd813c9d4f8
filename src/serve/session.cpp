#include "serve/session.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "contract/design_cache.hpp"
#include "core/checkpoint.hpp"
#include "core/requester.hpp"
#include "effort/fitting.hpp"
#include "util/atomic_file.hpp"
#include "util/error.hpp"

namespace ccd::serve {

namespace {

constexpr const char* kIngestTag = "ISES";
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

/// Ingest-mode dynamic state. The estimate updates are the simulator's
/// requester verbatim (EMA accuracy, sigmoid maliciousness signal); the
/// effort curves start at the library default and are re-fit from the
/// observed sample window.
struct Session::IngestState {
  /// v2 appends the contract-designer policy section (backend config,
  /// opaque learner state, learner RNG). v1 files still load and restore a
  /// default-BiP session.
  static constexpr std::uint32_t kVersion = 2;
  static constexpr std::uint32_t kMinReadVersion = 1;
  /// Sliding window of retained (effort, feedback) samples per worker —
  /// bounds session memory no matter how long the campaign runs.
  static constexpr std::size_t kSampleWindow = 256;

  core::RequesterConfig requester;
  double ema_alpha = 0.3;
  std::size_t refit_every = 4;
  double suspicion_threshold = 0.5;
  std::uint64_t rounds_budget = 0;  ///< 0 = unbounded
  std::uint64_t round = 0;
  double cumulative_requester_utility = 0.0;

  std::vector<double> est_accuracy;
  std::vector<double> est_malicious;
  std::vector<effort::QuadraticEffort> psi;
  std::vector<std::vector<data::EffortSample>> samples;
  std::vector<contract::Contract> contracts;

  /// Contract-designer backend. BiP keeps the historical refit-boundary
  /// redesign path; learners post fresh contracts every ingested round and
  /// observe every round's rewards. The RNG exists purely for the Policy
  /// interface's RNG discipline (current learners draw nothing) and is
  /// checkpointed so any future drawing backend stays resume-safe.
  policy::PolicyConfig policy_config;
  std::unique_ptr<policy::Policy> policy;
  util::Rng rng{1};

  std::size_t workers() const { return est_accuracy.size(); }
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
    ingest_->requester.mu = params.mu;
    ingest_->requester.validate();
    ingest_->ema_alpha = params.ema_alpha;
    CCD_CHECK_MSG(ingest_->ema_alpha > 0.0 && ingest_->ema_alpha <= 1.0,
                  "ema_alpha must be in (0, 1]");
    ingest_->refit_every = params.refit_every;
    ingest_->rounds_budget = params.rounds;
    const std::size_t n = params.workers;
    ingest_->est_accuracy.assign(n, ingest_->requester.accuracy_floor);
    ingest_->est_malicious.assign(n, 0.05);
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

  const bool learner = state.policy->learns();
  std::vector<policy::RoundOutcome> outcomes;
  if (learner) outcomes.resize(n);
  double weighted_feedback = 0.0;
  double total_pay = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const IngestObservation& obs = observations[i];
    if (!std::isfinite(obs.effort) || !std::isfinite(obs.feedback) ||
        !std::isfinite(obs.accuracy_sample) || obs.effort < 0.0 ||
        obs.feedback < 0.0 || obs.accuracy_sample < 0.0) {
      throw DataError("ingest observation for worker " + std::to_string(i) +
                      " is not finite and non-negative");
    }
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

    // Requester-side estimation, exactly as in the simulator (EMA over
    // the accuracy sample; sigmoid deviation signal for maliciousness).
    state.est_accuracy[i] = (1.0 - state.ema_alpha) * state.est_accuracy[i] +
                            state.ema_alpha * obs.accuracy_sample;
    const double signal =
        1.0 / (1.0 + std::exp(-4.0 * (obs.accuracy_sample - 0.9)));
    state.est_malicious[i] = (1.0 - state.ema_alpha) * state.est_malicious[i] +
                             state.ema_alpha * signal;

    const double weight =
        core::feedback_weight(state.requester, state.est_accuracy[i],
                              state.est_malicious[i], 0);
    weighted_feedback += weight * obs.feedback;
    total_pay += state.contracts[i].pay(obs.feedback);
    if (learner) {
      outcomes[i].active = true;
      outcomes[i].feedback = obs.feedback;
      outcomes[i].reward = weight * obs.feedback -
                           state.requester.mu *
                               state.contracts[i].pay(obs.feedback);
    }
  }
  if (learner) state.policy->observe(state.round, outcomes, state.rng);
  state.cumulative_requester_utility +=
      weighted_feedback - state.requester.mu * total_pay;
  state.round += 1;

  bool redesigned = false;
  if (state.round % state.refit_every == 0) {
    if (learner) {
      // Learners consume the re-fit effort curves through their next
      // post(); the BiP redesign below would overwrite their arms.
      ingest_refit();
    } else {
      ingest_redesign(cancel);
      redesigned = cancel == nullptr || !cancel->cancelled();
    }
  }
  if (learner) redesigned = ingest_post(cancel);
  if (!env_.checkpoint_dir.empty() &&
      state.round % env_.checkpoint_every == 0) {
    ingest_checkpoint();
  }
  return redesigned;
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

void Session::ingest_redesign(const util::CancellationToken* cancel) {
  ingest_refit();
  IngestState& state = *ingest_;
  const std::size_t n = state.workers();

  std::vector<contract::SubproblemSpec> specs(n);
  for (std::size_t i = 0; i < n; ++i) {
    contract::SubproblemSpec& spec = specs[i];
    spec.psi = state.psi[i];
    spec.incentives.beta = state.requester.beta;
    spec.incentives.omega =
        state.est_malicious[i] >= state.suspicion_threshold
            ? state.requester.omega_malicious
            : 0.0;
    spec.weight = core::feedback_weight(state.requester, state.est_accuracy[i],
                                        state.est_malicious[i], 0);
    spec.mu = state.requester.mu;
    spec.intervals = state.requester.intervals;
  }
  // Every refit yields a distinct psi per worker, so a cache kept across
  // redesigns would only grow; the batch uses a private one per call.
  contract::BatchOptions options;
  options.cancel = cancel;
  std::vector<std::uint8_t> resolved;
  options.resolved = &resolved;
  std::vector<contract::DesignResult> designs =
      contract::design_contracts_batch(specs, options);
  if (cancel != nullptr && cancel->cancelled()) {
    // Cut short: keep the previous contracts posted; the next refit round
    // redesigns from scratch.
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    CCD_CHECK_MSG(resolved[i] != 0, "redesign batch left a worker unsolved");
    state.contracts[i] = std::move(designs[i].contract);
  }
}

bool Session::ingest_post(const util::CancellationToken* cancel) {
  IngestState& state = *ingest_;
  const std::size_t n = state.workers();
  std::vector<policy::WorkerView> views(n);
  for (std::size_t i = 0; i < n; ++i) {
    policy::WorkerView& view = views[i];
    view.psi = state.psi[i];
    view.beta = state.requester.beta;
    view.omega = state.est_malicious[i] >= state.suspicion_threshold
                     ? state.requester.omega_malicious
                     : 0.0;
    view.weight = core::feedback_weight(state.requester, state.est_accuracy[i],
                                        state.est_malicious[i], 0);
    view.mu = state.requester.mu;
    view.intervals = state.requester.intervals;
    view.active = true;
  }
  policy::PostEnv env;
  env.cancel = cancel;
  // A cancelled post keeps the previous contracts; the learner re-posts on
  // the next ingested round.
  return state.policy->post(state.round, true, views, state.contracts,
                            state.rng, env);
}

std::vector<contract::Contract> Session::contracts() const {
  return mode_ == SessionMode::kSimulation ? sim_->contracts()
                                           : ingest_->contracts;
}

std::string Session::checkpoint_path() const {
  return checkpoint_file(env_.checkpoint_dir, id_, mode_);
}

void Session::checkpoint() const {
  const std::string path = checkpoint_path();
  if (path.empty()) return;
  if (mode_ == SessionMode::kSimulation) {
    core::save_checkpoint(path, sim_->snapshot());
  } else {
    ingest_checkpoint();
  }
}

void Session::ingest_checkpoint() const {
  const IngestState& state = *ingest_;
  util::wire::Writer w;
  w.u64(state.round);
  w.u64(state.rounds_budget);
  w.f64(state.cumulative_requester_utility);
  w.f64(state.ema_alpha);
  w.u64(state.refit_every);
  w.f64(state.suspicion_threshold);
  w.f64(state.requester.rho);
  w.f64(state.requester.kappa);
  w.f64(state.requester.gamma);
  w.f64(state.requester.mu);
  w.f64(state.requester.beta);
  w.f64(state.requester.omega_malicious);
  w.u64(state.requester.intervals);
  w.f64(state.requester.accuracy_floor);
  w.f64(state.requester.weight_cap);
  const std::size_t n = state.workers();
  w.u64(n);
  for (std::size_t i = 0; i < n; ++i) {
    w.f64(state.est_accuracy[i]);
    w.f64(state.est_malicious[i]);
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
  // v2: the contract-designer policy section.
  w.u8(static_cast<std::uint8_t>(state.policy_config.kind));
  w.f64(state.policy_config.payment_cap);
  w.f64(state.policy_config.zoom_confidence);
  w.u64(state.policy_config.zoom_max_depth);
  w.u64(state.policy_config.price_levels);
  w.f64(state.policy_config.peer_tolerance);
  w.str(state.policy->save_state());
  const util::RngState rng_state = state.rng.state();
  for (const std::uint64_t word : rng_state.words) w.u64(word);
  w.u8(rng_state.has_cached_normal ? 1 : 0);
  w.f64(rng_state.cached_normal);
  util::write_framed_file(checkpoint_path(), kIngestTag, IngestState::kVersion,
                          w.take());
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

  const util::FramedPayload framed = util::read_framed_file(
      path, kIngestTag, IngestState::kMinReadVersion, IngestState::kVersion);
  session->ingest_ = decode_ingest_payload(framed.payload, framed.version);
  return session;
}

std::unique_ptr<Session::IngestState> Session::decode_ingest_payload(
    const std::string& payload, std::uint32_t version) {
  CCD_CHECK_MSG(version >= IngestState::kMinReadVersion &&
                    version <= IngestState::kVersion,
                "unsupported ingest checkpoint payload version " +
                    std::to_string(version));
  try {
    util::wire::Reader r(payload);
    auto state = std::make_unique<IngestState>();
    state->round = r.u64();
    state->rounds_budget = r.u64();
    state->cumulative_requester_utility = r.f64();
    state->ema_alpha = r.f64();
    state->refit_every = r.u64();
    state->suspicion_threshold = r.f64();
    state->requester.rho = r.f64();
    state->requester.kappa = r.f64();
    state->requester.gamma = r.f64();
    state->requester.mu = r.f64();
    state->requester.beta = r.f64();
    state->requester.omega_malicious = r.f64();
    state->requester.intervals = r.u64();
    state->requester.accuracy_floor = r.f64();
    state->requester.weight_cap = r.f64();
    const std::size_t n = r.count(48);
    CCD_CHECK_MSG(n >= 1, "ingest checkpoint has no workers");
    CCD_CHECK_MSG(state->refit_every >= 1,
                  "ingest checkpoint refit_every must be >= 1");
    for (std::size_t i = 0; i < n; ++i) {
      state->est_accuracy.push_back(r.f64());
      state->est_malicious.push_back(r.f64());
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
    std::string policy_state;
    util::RngState rng_state;
    bool have_rng = false;
    if (version >= 2) {
      const std::uint8_t raw_kind = r.u8();
      CCD_CHECK_MSG(
          raw_kind <= static_cast<std::uint8_t>(policy::Kind::kPostedPrice),
          "ingest checkpoint names an unknown policy backend");
      state->policy_config.kind = static_cast<policy::Kind>(raw_kind);
      state->policy_config.payment_cap = r.f64();
      state->policy_config.zoom_confidence = r.f64();
      state->policy_config.zoom_max_depth = r.u64();
      state->policy_config.price_levels = r.u64();
      state->policy_config.peer_tolerance = r.f64();
      policy_state = r.str();
      for (std::uint64_t& word : rng_state.words) word = r.u64();
      rng_state.has_cached_normal = r.u8() != 0;
      rng_state.cached_normal = r.f64();
      have_rng = true;
    }
    r.finish();
    state->requester.validate();
    state->policy_config.validate();
    state->policy = policy::make_policy(state->policy_config);
    state->policy->load_state(policy_state);
    if (have_rng) state->rng.set_state(rng_state);
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
  SessionMode mode;
  std::uint32_t min_version;
  std::uint32_t max_version;
  if (tag == "SCKP") {
    mode = SessionMode::kSimulation;
    min_version = core::SimCheckpoint::kMinReadVersion;
    max_version = core::SimCheckpoint::kVersion;
  } else if (tag == kIngestTag) {
    mode = SessionMode::kIngest;
    min_version = IngestState::kMinReadVersion;
    max_version = IngestState::kVersion;
  } else {
    throw DataError("checkpoint blob has unknown frame tag '" + tag + "'");
  }
  const util::wire::FrameHeader header = util::wire::decode_frame_header(
      blob, tag, min_version, max_version, blob.size(), "checkpoint blob");
  if (blob.size() != util::wire::kFrameHeaderSize + header.payload_size) {
    throw DataError("checkpoint blob size mismatch (header announces " +
                    std::to_string(header.payload_size) + " payload bytes, " +
                    std::to_string(blob.size() - util::wire::kFrameHeaderSize) +
                    " present)");
  }
  const std::string payload = blob.substr(util::wire::kFrameHeaderSize);
  util::wire::verify_frame_payload(header, payload, "checkpoint blob");

  auto session =
      std::unique_ptr<Session>(new Session(id, std::move(env), mode));
  if (mode == SessionMode::kSimulation) {
    core::SimCheckpoint checkpoint =
        core::decode_checkpoint(payload, header.version);
    checkpoint.config.checkpoint_path =
        checkpoint_file(session->env_.checkpoint_dir, id, mode);
    checkpoint.config.checkpoint_every =
        checkpoint.config.checkpoint_path.empty()
            ? 0
            : session->env_.checkpoint_every;
    session->sim_ = std::make_unique<core::StackelbergSimulator>(checkpoint);
  } else {
    session->ingest_ = decode_ingest_payload(payload, header.version);
  }
  return session;
}

void Session::remove_checkpoint() const {
  const std::string path = checkpoint_path();
  if (!path.empty()) std::remove(path.c_str());
}

}  // namespace ccd::serve
