// Crash-safe checkpoint/resume for the multi-round Stackelberg simulation.
//
// A SimCheckpoint captures the simulator's complete dynamic state at a
// round boundary: the configuration and worker fleet, the round to run
// next, the RNG state (xoshiro words plus the cached Box–Muller deviate),
// the requester's per-worker estimates, the posted contracts, the
// feedback memory that funds next round's compensation (Eq. 1), and the
// accumulated result prefix. Restoring it reproduces the remaining rounds
// bitwise-identically — doubles are serialized as their exact bit
// patterns, never through text round-trips.
//
// On disk a checkpoint is a framed file (util/atomic_file.hpp) with tag
// "SCKP", written via write-temp + fsync + rename so a crash mid-save
// leaves the previous complete checkpoint intact. Loading a corrupted,
// truncated, or torn file throws ccd::DataError — never UB, never a
// half-restored simulator. kVersion is bumped whenever the payload layout
// changes, and a reader decodes exactly that one version.
//
// save/load wrap their I/O in util::with_retry (metrics: `ccd.io.*`) and
// expose fault-injection sites "io.checkpoint_write" / "io.checkpoint_read"
// keyed by the attempt index, so chaos tests can fail the first attempts
// and assert the backoff path recovers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "contract/contract.hpp"
#include "core/stackelberg.hpp"
#include "policy/policy.hpp"
#include "util/retry.hpp"
#include "util/rng.hpp"
#include "util/wire.hpp"

namespace ccd::core {

struct SimCheckpoint {
  /// Payload layout version (frame tag "SCKP"), the only one decoded.
  /// v2: SimWorkerSpec churn window (arrive_round / depart_round).
  /// v3: policy backend config + opaque learner state (ccd::policy).
  /// v4: the requester's config, EMA rate, suspicion threshold and
  ///     estimates travel as the RequesterState section ISES also carries.
  static constexpr std::uint32_t kVersion = 4;

  SimConfig config;
  std::vector<SimWorkerSpec> workers;

  /// First round the resumed run executes (== completed rounds).
  std::size_t next_round = 0;
  util::RngState rng;
  std::vector<double> est_accuracy;
  std::vector<double> est_malicious;
  std::vector<contract::Contract> contracts;
  std::vector<double> last_feedback;
  /// Completed-rounds prefix (cancelled/cancel_reason are not persisted;
  /// a resumed run starts un-cancelled).
  SimResult history;
  /// Opaque learner state of the configured policy backend (empty for
  /// stateless backends). Produced by Policy::save_state() at a round
  /// boundary; restored verbatim.
  std::string policy_state;
};

/// Serialize / parse the kVersion checkpoint payload (the bytes inside the
/// frame). decode_checkpoint throws ccd::DataError on any malformed
/// payload.
std::string encode_checkpoint(const SimCheckpoint& checkpoint);
SimCheckpoint decode_checkpoint(const std::string& payload);

/// Contract codec shared by checkpoints and the serve wire protocol: a
/// zero contract is a bare 0 count; otherwise knot count, delta, knots,
/// payments — all doubles as exact bit patterns. decode_contract throws
/// ccd::DataError on malformed input (via the Reader / Contract
/// validation).
void encode_contract(util::wire::Writer& w, const contract::Contract& contract);
contract::Contract decode_contract(util::wire::Reader& r);

/// Policy-backend config codec shared by SCKP and ISES: kind (u8), then
/// the learners' knobs. decode_policy_config throws ccd::DataError on a
/// backend kind it does not know; the caller validates the knobs.
void encode_policy_config(util::wire::Writer& w,
                          const policy::PolicyConfig& config);
policy::PolicyConfig decode_policy_config(util::wire::Reader& r);

/// RNG state codec shared by SCKP and ISES: the four xoshiro words, the
/// cached-deviate flag (u8) and the cached Box–Muller deviate.
void encode_rng_state(util::wire::Writer& w, const util::RngState& state);
util::RngState decode_rng_state(util::wire::Reader& r);

/// Durably write / read a checkpoint file, retrying transient I/O failures
/// under `retry`. Load failures (including corruption) surface as
/// ccd::DataError after the attempts are exhausted.
void save_checkpoint(const std::string& path, const SimCheckpoint& checkpoint,
                     const util::RetryPolicy& retry = {});
SimCheckpoint load_checkpoint(const std::string& path,
                              const util::RetryPolicy& retry = {});

}  // namespace ccd::core
